// Model-checking property tests: the LSM B+-tree (under random workloads,
// flush points, merge policies, and restarts) must behave exactly like a
// std::map reference model; projected scans, on every disk layout, must
// return the model's newest versions projected; the disk B+-tree must agree
// with sorted vectors on every bound combination.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>

#include "adm/serde.h"
#include "common/env.h"
#include "storage/lsm.h"
#include "storage/scan_filter.h"

namespace asterix {
namespace storage {
namespace {

using adm::Value;

struct LsmPropertyParam {
  uint32_t seed;
  size_t mem_budget;
  MergePolicy::Kind policy;
};

class LsmPropertyTest : public ::testing::TestWithParam<LsmPropertyParam> {};

TEST_P(LsmPropertyTest, MatchesReferenceModelThroughRestarts) {
  const auto& p = GetParam();
  std::string dir = env::NewScratchDir("lsm-prop");
  BufferCache cache(1024);

  LsmOptions options;
  options.mem_budget_bytes = p.mem_budget;
  options.merge_policy =
      p.policy == MergePolicy::Kind::kNone     ? MergePolicy::None()
      : p.policy == MergePolicy::Kind::kPrefix ? MergePolicy::Prefix(3, 1 << 20)
                                               : MergePolicy::Constant(3);

  std::map<int64_t, std::string> model;
  std::mt19937 rng(p.seed);

  auto tree = std::make_unique<LsmBTree>(&cache, dir, "t", options);
  ASSERT_TRUE(tree->Open().ok());

  uint64_t lsn = 1;
  for (int op = 0; op < 3000; ++op) {
    int64_t key = rng() % 500;
    int action = rng() % 10;
    if (action < 6) {  // upsert
      std::string payload = "v" + std::to_string(rng() % 1000);
      model[key] = payload;
      ASSERT_TRUE(tree->Upsert({Value::Int64(key)},
                               {payload.begin(), payload.end()}, lsn++)
                      .ok());
    } else if (action < 8) {  // delete
      model.erase(key);
      ASSERT_TRUE(tree->Delete({Value::Int64(key)}, lsn++).ok());
    } else if (action == 8) {  // point lookup check
      bool found;
      std::vector<uint8_t> payload;
      ASSERT_TRUE(tree->PointLookup({Value::Int64(key)}, &found, &payload).ok());
      auto it = model.find(key);
      ASSERT_EQ(found, it != model.end()) << "key " << key << " op " << op;
      if (found) {
        EXPECT_EQ(std::string(payload.begin(), payload.end()), it->second);
      }
    } else {  // occasionally flush, or "crash" and reopen from components
      if (rng() % 3 == 0) {
        ASSERT_TRUE(tree->Flush().ok());
        tree = std::make_unique<LsmBTree>(&cache, dir, "t", options);
        ASSERT_TRUE(tree->Open().ok());
      } else {
        ASSERT_TRUE(tree->Flush().ok());
      }
    }
  }

  // Final full-scan equivalence.
  std::map<int64_t, std::string> scanned;
  ASSERT_TRUE(tree->RangeScan({}, [&](const IndexEntry& e) {
    scanned[e.key[0].AsInt()] =
        std::string(e.payload.begin(), e.payload.end());
    return Status::OK();
  }).ok());
  EXPECT_EQ(scanned, model);

  // Random range scans agree with the model.
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = rng() % 500;
    int64_t hi = lo + rng() % 100;
    bool lo_inc = rng() % 2 == 0;
    bool hi_inc = rng() % 2 == 0;
    ScanBounds bounds;
    bounds.lo = CompositeKey{Value::Int64(lo)};
    bounds.lo_inclusive = lo_inc;
    bounds.hi = CompositeKey{Value::Int64(hi)};
    bounds.hi_inclusive = hi_inc;
    std::vector<int64_t> got;
    ASSERT_TRUE(tree->RangeScan(bounds, [&](const IndexEntry& e) {
      got.push_back(e.key[0].AsInt());
      return Status::OK();
    }).ok());
    std::vector<int64_t> expected;
    for (const auto& [k, v] : model) {
      (void)v;
      if ((k > lo || (lo_inc && k == lo)) && (k < hi || (hi_inc && k == hi))) {
        expected.push_back(k);
      }
    }
    EXPECT_EQ(got, expected) << "range [" << lo << "," << hi << "] trial "
                             << trial;
  }
  env::RemoveAll(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, LsmPropertyTest,
    ::testing::Values(
        LsmPropertyParam{1, 1u << 10, MergePolicy::Kind::kNone},
        LsmPropertyParam{2, 1u << 10, MergePolicy::Kind::kConstant},
        LsmPropertyParam{3, 1u << 12, MergePolicy::Kind::kPrefix},
        LsmPropertyParam{4, 1u << 14, MergePolicy::Kind::kConstant},
        LsmPropertyParam{5, 1u << 16, MergePolicy::Kind::kNone},
        LsmPropertyParam{6, 256, MergePolicy::Kind::kConstant}));

// ---------------------------------------------------------------------------
// Projected scans: the newest-wins merge against a model of newest versions
// ---------------------------------------------------------------------------

adm::DatatypePtr ScanModelType() {
  std::vector<adm::FieldType> fields;
  fields.push_back({"id", adm::Datatype::Primitive(adm::TypeTag::kInt64), false});
  fields.push_back({"grp", adm::Datatype::Primitive(adm::TypeTag::kInt64), true});
  fields.push_back({"name", adm::Datatype::Primitive(adm::TypeTag::kString), false});
  return adm::Datatype::MakeRecord("ScanT", std::move(fields), /*open=*/true);
}

// Declared fields in type order, then the one open field: the order every
// layout hands records back in.
Value ScanModelRecord(int64_t id, int64_t grp, int version, bool tagged) {
  adm::RecordBuilder b;
  b.Add("id", Value::Int64(id));
  b.Add("grp", Value::Int64(grp));
  b.Add("name", Value::String("n" + std::to_string(id) + "v" +
                              std::to_string(version)));
  if (tagged) b.Add("tag", Value::String("t" + std::to_string(grp % 3)));
  return b.Build();
}

// The test's join filter: keeps records whose "grp" is even.
class EvenGroupFilter : public ScanKeyFilter {
 public:
  EvenGroupFilter() : ScanKeyFilter({"grp"}) {}
  bool Keep(const Value* const* keys) override {
    return keys[0]->IsNumeric() && keys[0]->AsInt() % 2 == 0;
  }
  bool active() const override { return true; }
};

struct ScanLayoutParam {
  const char* name;
  StorageFormat format;
  bool compress;
};

class ProjectedScanModelTest : public ::testing::TestWithParam<ScanLayoutParam> {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("lsm-scan-model");
    OpenTree(MergePolicy::None());
  }
  void TearDown() override {
    tree_.reset();
    env::RemoveAll(dir_);
  }

  void OpenTree(MergePolicy policy) {
    tree_.reset();
    LsmOptions options;
    options.mem_budget_bytes = 1u << 24;  // flushes happen where the test says
    options.merge_policy = policy;
    options.format = GetParam().format;
    options.compress = GetParam().compress;
    options.record_type = type_;
    tree_ = std::make_unique<LsmBTree>(&cache_, dir_, "m", options);
    ASSERT_TRUE(tree_->Open().ok());
  }

  void Put(int64_t id, int64_t grp, bool tagged) {
    Value rec = ScanModelRecord(id, grp, ++version_, tagged);
    std::vector<uint8_t> bytes;
    BytesWriter w(&bytes);
    ASSERT_TRUE(adm::SerializeTyped(rec, type_, &w).ok());
    ASSERT_TRUE(tree_->Upsert({Value::Int64(id)}, std::move(bytes), lsn_++).ok());
    model_[id] = rec;
  }
  void Remove(int64_t id) {
    ASSERT_TRUE(tree_->Delete({Value::Int64(id)}, lsn_++).ok());
    model_[id] = std::nullopt;
  }

  // Random upserts and deletes of keys in [lo, hi).
  void Churn(std::mt19937& rng, int64_t lo, int64_t hi, int ops) {
    for (int i = 0; i < ops; ++i) {
      int64_t id = lo + static_cast<int64_t>(rng() % (hi - lo));
      if (rng() % 6 == 0) {
        Remove(id);
      } else {
        Put(id, static_cast<int64_t>(rng() % 10), rng() % 2 == 0);
      }
    }
  }

  // Checks one scan against the model: with no ranges the answer is exact;
  // ranges are pruning hints, so then every output must still be a newest
  // version and every newest version the range can match must be output.
  void Check(const ScanBounds& bounds, column::Projection proj, bool filtered,
             const std::string& what) {
    // A filter's key fields are among the fields its scan projects.
    if (filtered && !proj.all_fields && !proj.Wants("grp")) {
      proj.fields.push_back("grp");
    }
    EvenGroupFilter filter;
    std::vector<std::string> got;
    Status st = tree_->ProjectedScan(
        bounds, proj,
        [&](const CompositeKey& key, bool antimatter, const Value& rec) {
          EXPECT_FALSE(antimatter);
          got.push_back(key[0].ToString() + " " + rec.ToString());
          return Status::OK();
        },
        nullptr, filtered ? &filter : nullptr);
    ASSERT_TRUE(st.ok()) << what << ": " << st.ToString();
    std::vector<std::string> must, may;
    for (const auto& [id, rec] : model_) {
      if (!rec.has_value()) continue;
      if (BoundsPosition({Value::Int64(id)}, bounds) != 0) continue;
      int64_t grp = rec->GetField("grp").AsInt();
      if (filtered && grp % 2 != 0) continue;
      std::string row = Value::Int64(id).ToString() + " " +
                        adm::KeepFields(*rec, proj.all_fields, proj.fields)
                            .ToString();
      may.push_back(row);
      bool in_range = true;
      for (const column::FieldRange& r : proj.ranges) {
        Value v = rec->GetField(r.field);
        if (r.lo.has_value() && v.Compare(*r.lo) < 0) in_range = false;
        if (r.hi.has_value() && v.Compare(*r.hi) > 0) in_range = false;
      }
      if (in_range) must.push_back(row);
    }
    if (proj.ranges.empty()) {
      EXPECT_EQ(got, may) << what;
      return;
    }
    size_t j = 0;
    for (const std::string& row : must) {
      while (j < got.size() && got[j] != row) {
        EXPECT_NE(std::find(may.begin(), may.end(), got[j]), may.end())
            << what << ": not a newest version: " << got[j];
        ++j;
      }
      ASSERT_LT(j, got.size()) << what << ": missing " << row;
      ++j;
    }
    for (; j < got.size(); ++j) {
      EXPECT_NE(std::find(may.begin(), may.end(), got[j]), may.end())
          << what << ": not a newest version: " << got[j];
    }
  }

  // Random bounds (component edges among them) x projections x filter.
  void CheckRandomScans(std::mt19937& rng, const std::vector<int64_t>& edges,
                        const std::string& state) {
    column::Projection narrow = column::Projection::Of({"name"});
    column::Projection open = column::Projection::Of({"tag", "id", "absent"});
    column::Projection ranged = column::Projection::Of({"id", "grp"});
    column::FieldRange r;
    r.field = "grp";
    r.lo = Value::Int64(6);
    ranged.ranges.push_back(r);
    const std::vector<std::pair<const char*, column::Projection>> projs = {
        {"whole", column::Projection::All()},
        {"narrow", narrow},
        {"open", open},
        {"ranged", ranged}};
    for (int trial = 0; trial < 40; ++trial) {
      ScanBounds bounds;
      auto pick = [&] {
        return rng() % 2 == 0 ? edges[rng() % edges.size()]
                              : static_cast<int64_t>(rng() % 1300) - 10;
      };
      if (rng() % 4 != 0) {
        bounds.lo = CompositeKey{Value::Int64(pick())};
        bounds.lo_inclusive = rng() % 2 == 0;
      }
      if (rng() % 4 != 0) {
        bounds.hi = CompositeKey{Value::Int64(pick())};
        bounds.hi_inclusive = rng() % 2 == 0;
      }
      if (trial % 8 == 0 && bounds.lo.has_value()) {  // a point scan
        bounds.hi = bounds.lo;
        bounds.lo_inclusive = bounds.hi_inclusive = true;
      }
      for (const auto& [pname, proj] : projs) {
        for (bool filtered : {false, true}) {
          Check(bounds, proj, filtered,
                state + " " + pname + (filtered ? " filtered" : "") +
                    " trial " + std::to_string(trial));
        }
      }
    }
  }

  std::string dir_;
  BufferCache cache_{1024};
  adm::DatatypePtr type_ = ScanModelType();
  std::unique_ptr<LsmBTree> tree_;
  std::map<int64_t, std::optional<Value>> model_;  // nullopt: deleted
  uint64_t lsn_ = 1;
  int version_ = 0;
};

TEST_P(ProjectedScanModelTest, MatchesNewestVersionsAcrossComponents) {
  std::mt19937 rng(7);
  // Memtable only.
  Churn(rng, 0, 300, 400);
  CheckRandomScans(rng, {0, 299}, "memtable");

  // Several disk components with overlapping versions and antimatter, plus
  // a memtable: each flush leaves a component over its own key span.
  ASSERT_TRUE(tree_->Flush().ok());
  Churn(rng, 200, 700, 500);
  ASSERT_TRUE(tree_->Flush().ok());
  Churn(rng, 900, 1200, 400);  // key-disjoint: its groups may prune
  ASSERT_TRUE(tree_->Flush().ok());
  Churn(rng, 250, 1000, 300);
  ASSERT_TRUE(tree_->Flush().ok());
  // Key 5000: the newest version fails the filter, an older one passes.
  // Key 5001: the reverse. Neither may show its older version.
  Put(5000, 2, false);
  Put(5001, 3, false);
  ASSERT_TRUE(tree_->Flush().ok());
  Put(5000, 3, false);
  Put(5001, 4, false);
  Churn(rng, 100, 1100, 150);
  ASSERT_GE(tree_->num_disk_components(), 5u);
  const std::vector<int64_t> edges = {0, 200, 299, 250, 699, 900, 1199, 5000, 5001};
  CheckRandomScans(rng, edges, "memtable+disk");
  ScanBounds both;
  both.lo = CompositeKey{Value::Int64(5000)};
  both.hi = CompositeKey{Value::Int64(5001)};
  Check(both, column::Projection::All(), true, "filter flip in memtable");
  ASSERT_TRUE(tree_->Flush().ok());
  Check(both, column::Projection::All(), true, "filter flip on disk");

  // After a merge of every component (antimatter dropped with the oldest).
  OpenTree(MergePolicy::Constant(1));
  ASSERT_TRUE(tree_->MaybeMerge().ok());
  ASSERT_EQ(tree_->num_disk_components(), 1u);
  CheckRandomScans(rng, edges, "merged");
  Check(both, column::Projection::All(), true, "filter flip merged");
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ProjectedScanModelTest,
    ::testing::Values(ScanLayoutParam{"row", StorageFormat::kRow, false},
                      ScanLayoutParam{"lz_row", StorageFormat::kRow, true},
                      ScanLayoutParam{"column", StorageFormat::kColumn, false}),
    [](const ::testing::TestParamInfo<ScanLayoutParam>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Disk B+-tree: exhaustive bound combinations against a sorted vector
// ---------------------------------------------------------------------------

class BTreeBoundsTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BTreeBoundsTest, AllBoundCombinationsAgree) {
  std::string dir = env::NewScratchDir("btree-bounds");
  BufferCache cache(256);
  std::mt19937 rng(GetParam());
  // Sparse keys so bounds frequently fall between entries.
  std::vector<int64_t> keys;
  int64_t k = 0;
  for (int i = 0; i < 500; ++i) {
    k += 1 + rng() % 7;
    keys.push_back(k);
  }
  BTreeBuilder builder(dir + "/b.btr");
  for (int64_t key : keys) {
    IndexEntry e;
    e.key = {Value::Int64(key)};
    ASSERT_TRUE(builder.Add(e).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  auto reader = BTreeReader::Open(&cache, dir + "/b.btr").take();

  for (int trial = 0; trial < 60; ++trial) {
    int64_t lo = rng() % (k + 10);
    int64_t hi = lo + rng() % 60;
    for (bool lo_inc : {true, false}) {
      for (bool hi_inc : {true, false}) {
        ScanBounds bounds;
        bounds.lo = CompositeKey{Value::Int64(lo)};
        bounds.lo_inclusive = lo_inc;
        bounds.hi = CompositeKey{Value::Int64(hi)};
        bounds.hi_inclusive = hi_inc;
        std::vector<int64_t> got;
        ASSERT_TRUE(reader->RangeScan(bounds, [&](const IndexEntry& e) {
          got.push_back(e.key[0].AsInt());
          return Status::OK();
        }).ok());
        std::vector<int64_t> expected;
        for (int64_t key : keys) {
          if ((key > lo || (lo_inc && key == lo)) &&
              (key < hi || (hi_inc && key == hi))) {
            expected.push_back(key);
          }
        }
        EXPECT_EQ(got, expected)
            << "[" << lo << (lo_inc ? "..=" : "<..") << hi
            << (hi_inc ? "]" : ")");
      }
    }
  }
  env::RemoveAll(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeBoundsTest,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace storage
}  // namespace asterix
