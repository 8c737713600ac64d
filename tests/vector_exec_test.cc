// Vectorized execution equivalence: the typed-batch kernels must be an
// invisible physical choice. Random open/closed records (MISSING, NULL,
// dictionary strings, mixed-tag fields) flow through vector::Filter and
// VectorAgg — built both from the direct columnar BatchScan and from the
// BatchBuilder row fallback — and every result must match the row-at-a-time
// interpreter bit for bit, across mem/flushed/merged/reopened LSM states.
// Also: multi-component min/max row-group pruning must stay sound (never
// resurrect older versions), report honest bytes, and the end-to-end API
// path must produce identical answers vectorized, interpreted, and on a
// row-format twin dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "adm/serde.h"
#include "api/asterix.h"
#include "common/bytes.h"
#include "common/env.h"
#include "common/metrics.h"
#include "functions/aggregates.h"
#include "functions/arith.h"
#include "hyracks/vector/kernels.h"
#include "storage/column/batch.h"
#include "storage/lsm.h"

namespace asterix {
namespace hyracks {
namespace {

using adm::RecordBuilder;
using adm::Value;
using functions::Tri;
using storage::column::ColumnBatch;
using storage::column::Projection;
using storage::column::ProjectedScanStats;

adm::DatatypePtr TestType() {
  std::vector<adm::FieldType> fields;
  fields.push_back(
      {"id", adm::Datatype::Primitive(adm::TypeTag::kInt64), false});
  fields.push_back(
      {"name", adm::Datatype::Primitive(adm::TypeTag::kString), false});
  fields.push_back(
      {"age", adm::Datatype::Primitive(adm::TypeTag::kInt64), true});
  fields.push_back(
      {"score", adm::Datatype::Primitive(adm::TypeTag::kDouble), true});
  fields.push_back(
      {"active", adm::Datatype::Primitive(adm::TypeTag::kBoolean), false});
  return adm::Datatype::MakeRecord("VecT", std::move(fields), /*open=*/true);
}

// Declared fields (optional/nullable) plus open ones covering every lane
// kind: "tag" (dict strings), "rare" (sparse int), "mix" (mixed tags ->
// kValue lane).
Value RandomRecord(std::mt19937& rng, int64_t id) {
  RecordBuilder b;
  b.Add("id", Value::Int64(id));
  b.Add("name", Value::String("user" + std::to_string(rng() % 40)));
  if (rng() % 4 != 0) {
    b.Add("age", rng() % 5 == 0 ? Value::Null()
                                : Value::Int64(static_cast<int64_t>(rng() % 90)));
  }
  if (rng() % 3 != 0) {
    b.Add("score", Value::Double(static_cast<double>(rng() % 1000) / 10.0));
  }
  b.Add("active", Value::Boolean(rng() % 2 == 0));
  if (rng() % 2 == 0) {
    b.Add("tag", Value::String("t" + std::to_string(rng() % 5)));
  }
  if (rng() % 16 == 0) {
    b.Add("rare", Value::Int64(static_cast<int64_t>(rng() % 7)));
  }
  if (rng() % 3 == 0) {
    b.Add("mix", rng() % 2 == 0 ? Value::Int64(static_cast<int64_t>(rng() % 9))
                                : Value::String("m" + std::to_string(rng() % 9)));
  }
  return b.Build();
}

std::vector<uint8_t> Ser(const Value& v, const adm::DatatypePtr& type) {
  std::vector<uint8_t> buf;
  BytesWriter w(&buf);
  EXPECT_TRUE(adm::SerializeTyped(v, type, &w).ok());
  return buf;
}

// The projection every phase/predicate works over — one field per lane kind.
const std::vector<std::string>& ProjFields() {
  static const std::vector<std::string> f = {"id",  "name", "age",
                                             "score", "tag",  "mix"};
  return f;
}

// Declared scalar fields only: every one has a dedicated column, which is
// what the direct (no-row-reconstruction) BatchScan path requires. Fields
// that may hide in the catch-all column make it decline, by design.
const std::vector<std::string>& DirectFields() {
  static const std::vector<std::string> f = {"id", "name", "age", "score"};
  return f;
}

std::vector<Value> CollectRows(const storage::LsmBTree& tree,
                               const std::vector<std::string>& fields,
                               ProjectedScanStats* stats) {
  std::vector<Value> out;
  Status st = tree.ProjectedScan(
      storage::ScanBounds{}, Projection::Of(fields),
      [&](const storage::CompositeKey&, bool antimatter, const Value& rec) {
        EXPECT_FALSE(antimatter);
        out.push_back(rec);
        return Status::OK();
      },
      stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

// Batches via the compatibility path every producer can take: assembled
// rows re-batched through BatchBuilder.
std::vector<std::shared_ptr<ColumnBatch>> FallbackBatches(
    const std::vector<Value>& rows, const std::vector<std::string>& fields) {
  storage::column::BatchBuilder builder(fields, /*batch_rows=*/64);
  std::vector<std::shared_ptr<ColumnBatch>> out;
  for (const Value& r : rows) {
    builder.Add(r);
    if (builder.Full()) out.push_back(builder.Take());
  }
  if (!builder.Empty()) out.push_back(builder.Take());
  return out;
}

// A predicate under test: the kernel tree paired with the interpreter
// evaluation it must match row for row.
struct PredCase {
  const char* name;
  std::function<std::unique_ptr<vector::PredNode>()> make;
  std::function<Tri(const Value& rec)> interp;
};

std::vector<PredCase> PredCases() {
  using vector::Arith;
  using vector::Cmp;
  using vector::CmpOp;
  using vector::Const;
  using vector::Field;
  std::vector<PredCase> cases;
  // Typed int lane with NULL and MISSING rows.
  cases.push_back(
      {"age>=20",
       [] {
         return Cmp(CmpOp::kGe, Field("age"), Const(Value::Int64(20)));
       },
       [](const Value& r) {
         return functions::LessEqTri(Value::Int64(20), r.GetField("age"));
       }});
  // Double lane strict compare.
  cases.push_back(
      {"score<55.0",
       [] {
         return Cmp(CmpOp::kLt, Field("score"), Const(Value::Double(55.0)));
       },
       [](const Value& r) {
         return functions::LessTri(r.GetField("score"), Value::Double(55.0));
       }});
  // Dictionary lane equality (predicate evaluated once per distinct value).
  cases.push_back(
      {"tag=t1",
       [] {
         return Cmp(CmpOp::kEq, Field("tag"), Const(Value::String("t1")));
       },
       [](const Value& r) {
         return functions::EqualsTri(r.GetField("tag"), Value::String("t1"));
       }});
  // != over a dict lane with unknowns.
  cases.push_back(
      {"name!=user7",
       [] {
         return Cmp(CmpOp::kNe, Field("name"), Const(Value::String("user7")));
       },
       [](const Value& r) {
         return functions::TriNot(
             functions::EqualsTri(r.GetField("name"), Value::String("user7")));
       }});
  // Mixed-tag kValue lane: cross-family comparison follows the ADM order.
  cases.push_back(
      {"mix<m5",
       [] {
         return Cmp(CmpOp::kLt, Field("mix"), Const(Value::String("m5")));
       },
       [](const Value& r) {
         return functions::LessTri(r.GetField("mix"), Value::String("m5"));
       }});
  // Arithmetic: id + age * 2 < 120 (int truncating semantics).
  cases.push_back(
      {"id+age*2<120",
       [] {
         return Cmp(CmpOp::kLt,
                    Arith(vector::ValNode::Kind::kAdd, Field("id"),
                          Arith(vector::ValNode::Kind::kMul, Field("age"),
                                Const(Value::Int64(2)))),
                    Const(Value::Int64(120)));
       },
       [](const Value& r) {
         auto prod = functions::Multiply(r.GetField("age"), Value::Int64(2));
         if (!prod.ok()) return Tri::kUnknown;
         auto sum = functions::Add(r.GetField("id"), prod.take());
         if (!sum.ok()) return Tri::kUnknown;
         return functions::LessTri(sum.take(), Value::Int64(120));
       }});
  // Boolean combinators over unknowns (3VL AND/OR/NOT).
  cases.push_back(
      {"age>=20 and score<55 or not(tag=t1)",
       [] {
         return vector::Or(
             vector::And(
                 Cmp(CmpOp::kGe, Field("age"), Const(Value::Int64(20))),
                 Cmp(CmpOp::kLt, Field("score"), Const(Value::Double(55.0)))),
             vector::Not(
                 Cmp(CmpOp::kEq, Field("tag"), Const(Value::String("t1")))));
       },
       [](const Value& r) {
         Tri a = functions::TriAnd(
             functions::LessEqTri(Value::Int64(20), r.GetField("age")),
             functions::LessTri(r.GetField("score"), Value::Double(55.0)));
         Tri b = functions::TriNot(
             functions::EqualsTri(r.GetField("tag"), Value::String("t1")));
         return functions::TriOr(a, b);
       }});
  // Sparse open field: almost every row MISSING.
  cases.push_back(
      {"rare<=3",
       [] {
         return Cmp(CmpOp::kLe, Field("rare"), Const(Value::Int64(3)));
       },
       [](const Value& r) {
         return functions::LessEqTri(r.GetField("rare"), Value::Int64(3));
       }});
  return cases;
}

struct AggCase {
  const char* fn;
  const char* field;  // "" = whole rows (count over the record variable)
};

const std::vector<AggCase>& AggCases() {
  static const std::vector<AggCase> cases = {
      {"count", ""},       {"count", "age"},    {"min", "score"},
      {"max", "age"},      {"sum", "id"},       {"avg", "score"},
      {"sql-avg", "age"},  {"sql-sum", "score"}, {"sql-min", "name"},
      {"sql-count", "tag"}};
  return cases;
}

// Runs every predicate and aggregate over `batches`, comparing against the
// interpreter over `rows` (same logical content, same order).
void CheckBatchesAgainstRows(
    const std::vector<std::shared_ptr<ColumnBatch>>& batches,
    const std::vector<Value>& rows, const std::string& what) {
  for (const PredCase& pc : PredCases()) {
    SCOPED_TRACE(what + " pred " + pc.name);
    std::unique_ptr<vector::PredNode> pred = pc.make();

    // Interpreted truth: rows whose predicate is TRUE, in order.
    std::vector<Value> expect;
    for (const Value& r : rows) {
      if (pc.interp(r) == Tri::kTrue) expect.push_back(r);
    }

    // Vectorized: refine each batch's selection, then late-materialize.
    std::vector<Value> got;
    std::vector<ColumnBatch> filtered;  // kept for the aggregate pass below
    for (const auto& b : batches) {
      ColumnBatch copy = *b;
      Status st = vector::Filter(*pred, &copy);
      ASSERT_TRUE(st.ok()) << st.ToString();
      for (uint32_t row : copy.sel.rows) got.push_back(copy.MaterializeRow(row));
      filtered.push_back(std::move(copy));
    }
    ASSERT_EQ(expect.size(), got.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(expect[i].Compare(got[i]), 0)
          << "@" << i << "\n  interp: " << expect[i].ToString()
          << "\n  vector: " << got[i].ToString();
    }

    // Aggregates over the filtered stream: Finish, Partial, and the
    // local-partial -> global-Combine handshake must all match the
    // interpreter fed the same rows in the same order.
    for (const AggCase& ac : AggCases()) {
      SCOPED_TRACE(std::string("agg ") + ac.fn + "(" + ac.field + ")");
      auto interp_agg = functions::MakeAggregator(ac.fn);
      ASSERT_NE(interp_agg, nullptr);
      for (const Value& r : expect) {
        interp_agg->Add(*ac.field ? r.GetField(ac.field) : r);
      }

      vector::VectorAgg vagg(ac.fn, ac.field);
      for (const ColumnBatch& fb : filtered) {
        ASSERT_TRUE(vagg.AddBatch(fb).ok());
      }
      EXPECT_EQ(interp_agg->Finish().Compare(vagg.Finish()), 0)
          << "finish interp=" << interp_agg->Finish().ToString()
          << " vector=" << vagg.Finish().ToString();
      EXPECT_EQ(interp_agg->Partial().Compare(vagg.Partial()), 0)
          << "partial interp=" << interp_agg->Partial().ToString()
          << " vector=" << vagg.Partial().ToString();

      // Split the batches across two local states and combine the partials
      // with the *interpreted* global aggregator — the shape the runtime's
      // local/global pipeline relies on. The interpreted twin gets the
      // exact same row partition (combining reorders double accumulation,
      // so only an identical split is bit-comparable).
      vector::VectorAgg lo(ac.fn, ac.field), hi(ac.fn, ac.field);
      auto interp_lo = functions::MakeAggregator(ac.fn);
      auto interp_hi = functions::MakeAggregator(ac.fn);
      size_t off = 0;
      for (size_t i = 0; i < filtered.size(); ++i) {
        ASSERT_TRUE((i % 2 ? hi : lo).AddBatch(filtered[i]).ok());
        functions::Aggregator* interp_half =
            i % 2 ? interp_hi.get() : interp_lo.get();
        for (size_t j = 0; j < filtered[i].sel.size(); ++j, ++off) {
          interp_half->Add(*ac.field ? expect[off].GetField(ac.field)
                                     : expect[off]);
        }
      }
      ASSERT_EQ(off, expect.size());
      EXPECT_EQ(interp_lo->Partial().Compare(lo.Partial()), 0);
      EXPECT_EQ(interp_hi->Partial().Compare(hi.Partial()), 0);
      auto global_agg = functions::MakeAggregator(ac.fn);
      global_agg->Combine(lo.Partial());
      global_agg->Combine(hi.Partial());
      auto interp_global = functions::MakeAggregator(ac.fn);
      interp_global->Combine(interp_lo->Partial());
      interp_global->Combine(interp_hi->Partial());
      EXPECT_EQ(interp_global->Finish().Compare(global_agg->Finish()), 0)
          << "combined interp=" << interp_global->Finish().ToString()
          << " global=" << global_agg->Finish().ToString();
    }
  }
}

// -- 1. Kernel equivalence across LSM lifecycle states -----------------------

TEST(VectorExecTest, KernelEquivalenceAcrossLsmPhases) {
  for (uint32_t seed : {5u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string dir = env::NewScratchDir("vecexec");
    storage::BufferCache cache(4096);
    adm::DatatypePtr type = TestType();

    storage::LsmOptions opts;
    opts.format = storage::StorageFormat::kColumn;
    opts.record_type = type;
    opts.mem_budget_bytes = 1u << 14;
    opts.merge_policy = storage::MergePolicy::Constant(3);
    auto tree = std::make_unique<storage::LsmBTree>(&cache, dir, "vec", opts);
    ASSERT_TRUE(tree->Open().ok());

    std::mt19937 rng(seed);
    uint64_t lsn = 1;
    for (int op = 0; op < 600; ++op) {
      int64_t id = static_cast<int64_t>(rng() % 180);
      storage::CompositeKey key{Value::Int64(id)};
      int action = static_cast<int>(rng() % 10);
      if (action < 7) {
        ASSERT_TRUE(
            tree->Upsert(key, Ser(RandomRecord(rng, id), type), lsn++).ok());
      } else if (action < 9) {
        ASSERT_TRUE(tree->Delete(key, lsn++).ok());
      } else {
        ASSERT_TRUE(tree->Flush().ok());
      }
    }

    auto check_phase = [&](const char* phase, bool expect_direct) {
      SCOPED_TRACE(phase);
      // Fallback path: always available, covers catch-all lanes too.
      std::vector<Value> rows = CollectRows(*tree, ProjFields(), nullptr);
      ASSERT_FALSE(rows.empty());
      CheckBatchesAgainstRows(FallbackBatches(rows, ProjFields()), rows,
                              std::string(phase) + "/fallback");
      // Direct path: typed batches straight off the column pages
      // (dedicated-column fields only). Only in the single-component steady
      // state; otherwise the scan must decline with NotImplemented (never
      // silently produce wrong batches).
      std::vector<Value> direct_rows =
          CollectRows(*tree, DirectFields(), nullptr);
      std::vector<std::shared_ptr<ColumnBatch>> direct;
      Status st = tree->BatchScan(
          storage::ScanBounds{}, Projection::Of(DirectFields()),
          [&](const std::shared_ptr<ColumnBatch>& b) {
            direct.push_back(b);
            return Status::OK();
          },
          nullptr);
      if (st.ok()) {
        size_t n = 0;
        for (const auto& b : direct) n += b->sel.size();
        ASSERT_EQ(n, direct_rows.size());
        CheckBatchesAgainstRows(direct, direct_rows,
                                std::string(phase) + "/direct");
        EXPECT_TRUE(expect_direct) << phase;
      } else {
        EXPECT_EQ(st.code(), StatusCode::kNotImplemented) << st.ToString();
        EXPECT_FALSE(expect_direct)
            << phase << ": steady state should take the direct batch path";
      }
    };

    check_phase("mixed", false);

    ASSERT_TRUE(tree->Flush().ok());
    check_phase("flushed", false);

    // Merge down to one component: the direct path must engage.
    storage::LsmOptions merge_opts = opts;
    merge_opts.merge_policy = storage::MergePolicy::Constant(1);
    tree = std::make_unique<storage::LsmBTree>(&cache, dir, "vec", merge_opts);
    ASSERT_TRUE(tree->Open().ok());
    if (tree->num_disk_components() > 1) {
      ASSERT_TRUE(tree->MaybeMerge().ok());
    }
    ASSERT_EQ(tree->num_disk_components(), 1u);
    check_phase("merged", true);

    tree = std::make_unique<storage::LsmBTree>(&cache, dir, "vec", opts);
    ASSERT_TRUE(tree->Open().ok());
    check_phase("reopened", true);

    env::RemoveAll(dir);
  }
}

// -- 2. Multi-component min/max pruning: effective, honest, and sound --------

Value PruneRecord(int64_t id, int64_t v) {
  RecordBuilder b;
  b.Add("id", Value::Int64(id));
  b.Add("name", Value::String("n" + std::to_string(id)));
  b.Add("age", Value::Int64(v));
  b.Add("score", Value::Double(static_cast<double>(v)));
  b.Add("active", Value::Boolean(true));
  b.Add("pad", Value::String(std::string(80, 'p')));
  return b.Build();
}

uint64_t PrunedGroups() {
  return metrics::MetricsRegistry::Default()
      .GetCounter("storage.column.row_groups_pruned")
      ->value();
}

TEST(VectorExecTest, MultiComponentPruningEffectiveAndHonest) {
  std::string dir = env::NewScratchDir("vecexec-prune");
  storage::BufferCache cache(4096);
  adm::DatatypePtr type = TestType();

  storage::LsmOptions opts;
  opts.format = storage::StorageFormat::kColumn;
  opts.record_type = type;
  storage::LsmBTree tree(&cache, dir, "dis", opts);
  ASSERT_TRUE(tree.Open().ok());

  // Two key-disjoint components, "age" correlated with the key.
  uint64_t lsn = 1;
  for (int64_t id = 0; id < 600; ++id) {
    ASSERT_TRUE(tree.Upsert({Value::Int64(id)},
                            Ser(PruneRecord(id, id), type), lsn++)
                    .ok());
  }
  ASSERT_TRUE(tree.Flush().ok());
  for (int64_t id = 1000; id < 1600; ++id) {
    ASSERT_TRUE(tree.Upsert({Value::Int64(id)},
                            Ser(PruneRecord(id, id), type), lsn++)
                    .ok());
  }
  ASSERT_TRUE(tree.Flush().ok());
  ASSERT_EQ(tree.num_disk_components(), 2u);

  Projection plain = Projection::Of({"id", "age"});
  Projection ranged = plain;
  storage::column::FieldRange fr;
  fr.field = "age";
  fr.lo = Value::Int64(1300);
  ranged.ranges.push_back(fr);

  ProjectedScanStats full_stats;
  std::vector<Value> full;
  ASSERT_TRUE(tree.ProjectedScan(
                      storage::ScanBounds{}, plain,
                      [&](const storage::CompositeKey&, bool, const Value& r) {
                        full.push_back(r);
                        return Status::OK();
                      },
                      &full_stats)
                  .ok());
  ASSERT_EQ(full.size(), 1200u);

  uint64_t pruned_before = PrunedGroups();
  ProjectedScanStats ranged_stats;
  std::vector<Value> got;
  ASSERT_TRUE(tree.ProjectedScan(
                      storage::ScanBounds{}, ranged,
                      [&](const storage::CompositeKey&, bool, const Value& r) {
                        got.push_back(r);
                        return Status::OK();
                      },
                      &ranged_stats)
                  .ok());

  // Pruning engaged on the key-disjoint first component...
  EXPECT_GT(PrunedGroups(), pruned_before)
      << "key-disjoint groups below the range should be pruned";
  // ...the stats stay honest (bytes actually read shrink, skipped grow)...
  EXPECT_LT(ranged_stats.bytes_read, full_stats.bytes_read);
  EXPECT_GT(ranged_stats.bytes_skipped, 0u);
  // ...and no qualifying row was lost.
  size_t matching = 0;
  for (const Value& r : got) {
    if (!r.GetField("age").IsUnknown() && r.GetField("age").AsInt() >= 1300) {
      ++matching;
    }
  }
  EXPECT_EQ(matching, 300u);  // ids 1300..1599

  env::RemoveAll(dir);
}

TEST(VectorExecTest, PruningNeverResurrectsOlderVersions) {
  std::string dir = env::NewScratchDir("vecexec-stale");
  storage::BufferCache cache(4096);
  adm::DatatypePtr type = TestType();

  storage::LsmOptions opts;
  opts.format = storage::StorageFormat::kColumn;
  opts.record_type = type;
  storage::LsmBTree tree(&cache, dir, "ovl", opts);
  ASSERT_TRUE(tree.Open().ok());

  // Older component: every row's age is in-range (>= 1000). Newer
  // component, same keys: every age out of range. A scan that pruned the
  // newer component's groups (their age max < 1000) without noticing the
  // key overlap would resurrect the older versions.
  uint64_t lsn = 1;
  for (int64_t id = 0; id < 200; ++id) {
    ASSERT_TRUE(tree.Upsert({Value::Int64(id)},
                            Ser(PruneRecord(id, 1000 + id), type), lsn++)
                    .ok());
  }
  ASSERT_TRUE(tree.Flush().ok());
  for (int64_t id = 0; id < 200; ++id) {
    ASSERT_TRUE(tree.Upsert({Value::Int64(id)},
                            Ser(PruneRecord(id, id), type), lsn++)
                    .ok());
  }
  ASSERT_TRUE(tree.Flush().ok());
  ASSERT_EQ(tree.num_disk_components(), 2u);

  Projection ranged = Projection::Of({"id", "age"});
  storage::column::FieldRange fr;
  fr.field = "age";
  fr.lo = Value::Int64(1000);
  ranged.ranges.push_back(fr);

  uint64_t pruned_before = PrunedGroups();
  std::vector<Value> got;
  ASSERT_TRUE(tree.ProjectedScan(
                      storage::ScanBounds{}, ranged,
                      [&](const storage::CompositeKey&, bool, const Value& r) {
                        got.push_back(r);
                        return Status::OK();
                      },
                      nullptr)
                  .ok());

  // Every key's newest version has age < 1000: post-filter, nothing survives.
  for (const Value& r : got) {
    EXPECT_FALSE(!r.GetField("age").IsUnknown() &&
                 r.GetField("age").AsInt() >= 1000)
        << "stale older version resurfaced: " << r.ToString();
  }
  // And with fully overlapping key ranges, pruning must not have engaged.
  EXPECT_EQ(PrunedGroups(), pruned_before);

  env::RemoveAll(dir);
}

// -- 3. End to end: vectorized == interpreted == row-format ------------------

void InsertFleet(api::AsterixInstance* inst, const std::string& target) {
  std::string stmt =
      "use dataverse VecTest;\ninsert into dataset " + target + " ([";
  for (int i = 0; i < 150; ++i) {
    if (i) stmt += ",";
    stmt += "{ \"id\": " + std::to_string(i) +
            ", \"a\": \"alpha" + std::to_string(i % 17) +
            "\", \"b\": \"" + std::string(30, 'b') +
            "\", \"e\": " + std::to_string(i % 10) +
            ", \"f\": " + std::to_string(i) + ".5" +
            ", \"g\": " + (i % 2 ? "true" : "false") + " }";
  }
  stmt += "]);";
  auto ins = inst->Execute(stmt);
  ASSERT_TRUE(ins.ok()) << target << ": " << ins.status().ToString();
}

constexpr const char* kVecDdl = R"aql(
drop dataverse VecTest if exists;
create dataverse VecTest;
use dataverse VecTest;
create type VType as open {
  id: int64,
  a: string,
  b: string,
  e: int64,
  f: double,
  g: boolean
}
create dataset RowT(VType) primary key id;
create dataset ColT(VType) primary key id with { "storage-format": "column" };
)aql";

// The query shapes the lowering pass accepts: filter pipelines and
// ungrouped aggregates over projected columnar scans.
const std::vector<const char*>& VecQueries() {
  static const std::vector<const char*> qs = {
      "for $t in dataset %s where $t.e >= 5 return { \"id\": $t.id, \"f\": $t.f };",
      "for $t in dataset %s where $t.e >= 2 and $t.f < 80.5 return $t.id;",
      "for $t in dataset %s where $t.a = \"alpha7\" return $t.id;",
      "avg(for $t in dataset %s where $t.e >= 5 return $t.f);",
      "count(for $t in dataset %s where $t.e < 3 return $t);",
      "sum(for $t in dataset %s where $t.g = true return $t.e);"};
  return qs;
}

std::vector<Value> RunSorted(api::AsterixInstance* inst, const char* pattern,
                             const char* target) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), pattern, target);
  auto r = inst->Execute(std::string("use dataverse VecTest; ") + buf);
  EXPECT_TRUE(r.ok()) << buf << ": " << r.status().ToString();
  if (!r.ok()) return {};
  std::vector<Value> v = r.value().values;
  std::sort(v.begin(), v.end(),
            [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
  return v;
}

void ExpectSameValues(const std::vector<Value>& a, const std::vector<Value>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].Compare(b[i]), 0)
        << what << " @" << i << "\n  a: " << a[i].ToString()
        << "\n  b: " << b[i].ToString();
  }
}

TEST(VectorExecTest, ApiEndToEndVectorizedVsInterpretedVsRowFormat) {
  // Instance 1: vectorized execution on (the default).
  std::string dir_vec = env::NewScratchDir("vecexec-api");
  api::InstanceConfig config;
  config.base_dir = dir_vec;
  config.cluster.num_nodes = 1;
  config.cluster.partitions_per_node = 1;
  config.cluster.job_startup_us = 0;
  api::AsterixInstance vec_inst(config);
  ASSERT_TRUE(vec_inst.Boot().ok());
  ASSERT_TRUE(config.optimizer.vectorized_execution)
      << "vectorized execution should default on";

  // Instance 2: same data, vectorization forced off — the interpreter twin.
  std::string dir_interp = env::NewScratchDir("vecexec-api-interp");
  api::InstanceConfig interp_config = config;
  interp_config.base_dir = dir_interp;
  interp_config.optimizer.vectorized_execution = false;
  api::AsterixInstance interp_inst(interp_config);
  ASSERT_TRUE(interp_inst.Boot().ok());

  for (api::AsterixInstance* inst : {&vec_inst, &interp_inst}) {
    auto ddl = inst->Execute(kVecDdl);
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
    InsertFleet(inst, "RowT");
    InsertFleet(inst, "ColT");
    ASSERT_TRUE(inst->FlushAll().ok());
  }

  for (const char* q : VecQueries()) {
    SCOPED_TRACE(q);
    std::vector<Value> vec_col = RunSorted(&vec_inst, q, "ColT");
    // Vectorized columnar == interpreted row-format (same instance)...
    ExpectSameValues(RunSorted(&vec_inst, q, "RowT"), vec_col, "vec row/col");
    // ...== fully interpreted columnar on the flag-off instance.
    ExpectSameValues(RunSorted(&interp_inst, q, "ColT"), vec_col,
                     "interp col / vec col");
  }

  // The vectorized pipeline actually ran: the profile rollup shows batch
  // counts on vector operators for a filtered columnar query.
  auto prof = vec_inst.Execute(
      "use dataverse VecTest; for $t in dataset ColT where $t.e >= 5 "
      "return $t.id;");
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  ASSERT_NE(prof.value().stats.profile, nullptr);
  uint64_t batches = 0;
  bool saw_vector_op = false;
  for (const auto& op : prof.value().stats.profile->Rollup()) {
    if (op.name.find("vector-") != std::string::npos) {
      saw_vector_op = true;
      batches += op.batches;
    }
  }
  EXPECT_TRUE(saw_vector_op) << "filtered columnar query should lower";
  EXPECT_GT(batches, 0u);

  // EXPLAIN ANALYZE surfaces the vectorized operators and their batch
  // telemetry (batches / selectivity / kernel time).
  auto ea = vec_inst.Execute(
      "use dataverse VecTest; explain analyze for $t in dataset ColT "
      "where $t.e >= 5 return $t.id;");
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  ASSERT_EQ(ea.value().values.size(), 1u);
  std::string plan = ea.value().values[0].AsString();
  EXPECT_NE(plan.find("vector-column-scan(ColT)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("vector-select"), std::string::npos) << plan;
  EXPECT_NE(plan.find("batches="), std::string::npos) << plan;
  EXPECT_NE(plan.find("kernel_us="), std::string::npos) << plan;
  EXPECT_NE(plan.find("selected="), std::string::npos) << plan;

  // The aggregate pipeline lowers to the local/global vector split.
  auto ea2 = vec_inst.Execute(
      "use dataverse VecTest; explain analyze avg(for $t in dataset ColT "
      "where $t.e >= 5 return $t.f);");
  ASSERT_TRUE(ea2.ok()) << ea2.status().ToString();
  std::string plan2 = ea2.value().values[0].AsString();
  EXPECT_NE(plan2.find("vector-local-aggregate"), std::string::npos) << plan2;

  // The interpreter twin compiled no vector operators.
  auto iea = interp_inst.Execute(
      "use dataverse VecTest; explain analyze for $t in dataset ColT "
      "where $t.e >= 5 return $t.id;");
  ASSERT_TRUE(iea.ok()) << iea.status().ToString();
  EXPECT_EQ(iea.value().values[0].AsString().find("vector-"),
            std::string::npos);

  env::RemoveAll(dir_vec);
  env::RemoveAll(dir_interp);
}

// Batches cross fused 1:1 edges unmaterialized, as they crossed 1:1
// channels: every lowered plan's vector operators see the same batches and
// carry the same rows as when each operator ran as its own task.
TEST(VectorExecTest, FusedPipelinesKeepBatchAndRowCounts) {
  std::string dir = env::NewScratchDir("vecexec-fused");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.cluster.num_nodes = 1;
  config.cluster.partitions_per_node = 2;
  config.cluster.job_startup_us = 0;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());
  auto ddl = inst.Execute(kVecDdl);
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  InsertFleet(&inst, "ColT");
  ASSERT_TRUE(inst.FlushAll().ok());

  // Per query, per vector operator: batches / rows selected / rows carried.
  const std::vector<std::string> expected = {
      "vector-column-scan 2/150/150; vector-select 2/75/150; "
      "vector-materialize 2/75/75",
      "vector-column-scan 2/150/150; vector-select 2/64/150; "
      "vector-materialize 2/64/64",
      "vector-column-scan 2/150/150; vector-select 2/9/150; "
      "vector-materialize 2/9/9",
      "vector-column-scan 2/150/150; vector-select 2/75/150; "
      "vector-local-aggregate 2/75/75",
      "vector-column-scan 2/150/150; vector-select 2/45/150; "
      "vector-local-aggregate 2/45/45",
      "vector-column-scan 2/150/150; vector-select 2/75/150; "
      "vector-local-aggregate 1/75/75",
  };
  ASSERT_EQ(expected.size(), VecQueries().size());
  for (size_t q = 0; q < VecQueries().size(); ++q) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), VecQueries()[q], "ColT");
    auto r = inst.Execute(std::string("use dataverse VecTest; ") + buf);
    ASSERT_TRUE(r.ok()) << buf << ": " << r.status().ToString();
    std::string got;
    for (const auto& op : r.value().stats.profile->Rollup()) {
      if (op.name.rfind("vector-", 0) != 0) continue;
      if (!got.empty()) got += "; ";
      got += op.name.substr(0, op.name.find('(')) + " " +
             std::to_string(op.batches) + "/" +
             std::to_string(op.vec_rows_selected) + "/" +
             std::to_string(op.vec_rows_total);
    }
    EXPECT_EQ(got, expected[q]) << buf;
  }
  env::RemoveAll(dir);
}

}  // namespace
}  // namespace hyracks
}  // namespace asterix
