// Row-vs-column equivalence: the columnar LSM component format must be an
// invisible physical choice. Random open/closed records go into a row-format
// and a column-format LSM B+-tree side by side; full scans, projected scans,
// range-filtered scans, and post-merge/post-reopen reads must produce
// identical logical results — while the columnar side reads fewer bytes for
// narrow projections and skips page groups via min/max stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "adm/serde.h"
#include "api/asterix.h"
#include "common/bytes.h"
#include "common/env.h"
#include "common/metrics.h"
#include "hyracks/tuple.h"
#include "storage/column/column_component.h"
#include "storage/lsm.h"

namespace asterix {
namespace storage {
namespace {

using adm::RecordBuilder;
using adm::Value;

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
  fields.push_back(
      {"payload", adm::Datatype::Primitive(adm::TypeTag::kString), false});
  return adm::Datatype::MakeRecord("TestT", std::move(fields), /*open=*/true);
}

// Declared fields (some optional/nullable) plus open fields chosen to
// exercise every column kind: a dense scalar ("tag" -> promoted), a sparse
// one ("rare" -> catch-all), and a mixed-tag one ("mix" -> catch-all).
Value RandomRecord(std::mt19937& rng, int64_t id) {
  RecordBuilder b;
  b.Add("id", Value::Int64(id));
  b.Add("name", Value::String("user" + std::to_string(rng() % 1000)));
  if (rng() % 4 != 0) {
    b.Add("age", rng() % 5 == 0 ? Value::Null()
                                : Value::Int64(static_cast<int64_t>(rng() % 90)));
  }
  if (rng() % 3 != 0) {
    b.Add("score", Value::Double(static_cast<double>(rng() % 1000) / 10.0));
  }
  b.Add("active", Value::Boolean(rng() % 2 == 0));
  b.Add("payload", Value::String(std::string(64 + rng() % 64, 'x')));
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

Value Deser(const std::vector<uint8_t>& bytes, const adm::DatatypePtr& type) {
  BytesReader r(bytes.data(), bytes.size());
  Value v;
  EXPECT_TRUE(adm::DeserializeTyped(&r, type, &v).ok());
  return v;
}

std::vector<std::pair<int64_t, Value>> Collect(
    const LsmBTree& tree, const column::Projection& proj,
    column::ProjectedScanStats* stats) {
  std::vector<std::pair<int64_t, Value>> out;
  Status st = tree.ProjectedScan(
      ScanBounds{}, proj,
      [&](const CompositeKey& key, bool antimatter, const Value& rec) {
        EXPECT_FALSE(antimatter);
        out.emplace_back(key[0].AsInt(), rec);
        return Status::OK();
      },
      stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

void ExpectSameRows(const std::vector<std::pair<int64_t, Value>>& row,
                    const std::vector<std::pair<int64_t, Value>>& col,
                    const char* what) {
  ASSERT_EQ(row.size(), col.size()) << what;
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(row[i].first, col[i].first) << what << " key @" << i;
    EXPECT_EQ(row[i].second.Compare(col[i].second), 0)
        << what << " @key " << row[i].first << "\n  row: "
        << row[i].second.ToString() << "\n  col: " << col[i].second.ToString();
  }
}

// MultiGet of random sorted key batches — duplicates, keys never written
// (ids run 0..199, probes up to 229) and tombstoned keys — resolves each
// position exactly like a PointLookup of its key, projected.
void ExpectMultiGetMatchesPointLookups(const LsmBTree& tree,
                                       const adm::DatatypePtr& type,
                                       const std::string& what,
                                       std::mt19937* rng) {
  const std::vector<column::Projection> projections = {
      column::Projection::All(), column::Projection::Of({"id", "score"}),
      column::Projection::Of({"name", "tag"}),
      column::Projection::Of({"rare", "mix", "age"})};
  for (int round = 0; round < 6; ++round) {
    std::vector<CompositeKey> keys;
    size_t n = 1 + (*rng)() % 80;
    for (size_t k = 0; k < n; ++k) {
      keys.push_back({Value::Int64(static_cast<int64_t>((*rng)() % 230))});
    }
    std::sort(keys.begin(), keys.end(),
              [](const CompositeKey& a, const CompositeKey& b) {
                return CompareKeys(a, b) < 0;
              });
    for (const column::Projection& proj : projections) {
      std::vector<std::optional<Value>> got(n);
      ASSERT_TRUE(tree.MultiGet(keys, proj,
                                [&](size_t i, Value rec) {
                                  EXPECT_FALSE(got[i].has_value()) << what;
                                  got[i] = std::move(rec);
                                  return Status::OK();
                                })
                      .ok())
          << what;
      for (size_t i = 0; i < n; ++i) {
        bool found = false;
        std::vector<uint8_t> payload;
        ASSERT_TRUE(tree.PointLookup(keys[i], &found, &payload).ok());
        ASSERT_EQ(found, got[i].has_value())
            << what << " key " << keys[i][0].AsInt();
        if (!found) continue;
        Value want = adm::KeepFields(Deser(payload, type), proj.all_fields,
                                     proj.fields);
        EXPECT_EQ(want.Compare(*got[i]), 0)
            << what << " key " << keys[i][0].AsInt() << " "
            << proj.ToString() << "\n  lookup:   " << want.ToString()
            << "\n  multiget: " << got[i]->ToString();
      }
    }
  }
}

// Every read path must agree between the two formats.
void CompareAll(const LsmBTree& row, const LsmBTree& col,
                const adm::DatatypePtr& type, const char* phase,
                uint32_t seed) {
  // 1. Raw LSM range scan (serialized payloads resolve to equal records).
  std::vector<std::pair<int64_t, Value>> row_full, col_full;
  ASSERT_TRUE(row.RangeScan({}, [&](const IndexEntry& e) {
    row_full.emplace_back(e.key[0].AsInt(), Deser(e.payload, type));
    return Status::OK();
  }).ok());
  ASSERT_TRUE(col.RangeScan({}, [&](const IndexEntry& e) {
    col_full.emplace_back(e.key[0].AsInt(), Deser(e.payload, type));
    return Status::OK();
  }).ok());
  ExpectSameRows(row_full, col_full, (std::string(phase) + "/rangescan").c_str());

  // 2. Whole-record projected scan.
  ExpectSameRows(Collect(row, column::Projection::All(), nullptr),
                 Collect(col, column::Projection::All(), nullptr),
                 (std::string(phase) + "/project-all").c_str());

  // 3. Narrow projection (declared + promoted-open + catch-all fields).
  for (const std::vector<std::string>& fields :
       {std::vector<std::string>{"id", "score"},
        std::vector<std::string>{"name", "tag"},
        std::vector<std::string>{"rare", "mix", "age"}}) {
    ExpectSameRows(Collect(row, column::Projection::Of(fields), nullptr),
                   Collect(col, column::Projection::Of(fields), nullptr),
                   (std::string(phase) + "/project-narrow").c_str());
  }

  // 4. Range hints: pruning may drop rows that cannot match, so compare
  // after applying the predicate — exactly what the Select above a real
  // scan does.
  column::Projection ranged = column::Projection::Of({"id", "age"});
  column::FieldRange fr;
  fr.field = "age";
  fr.lo = Value::Int64(20);
  fr.hi = Value::Int64(60);
  fr.hi_inclusive = false;
  ranged.ranges.push_back(fr);
  auto filter = [](std::vector<std::pair<int64_t, Value>> rows) {
    std::vector<std::pair<int64_t, Value>> out;
    for (auto& [k, v] : rows) {
      const Value& age = v.GetField("age");
      if (age.IsUnknown()) continue;
      if (age.AsInt() >= 20 && age.AsInt() < 60) out.emplace_back(k, v);
    }
    return out;
  };
  ExpectSameRows(filter(Collect(row, ranged, nullptr)),
                 filter(Collect(col, ranged, nullptr)),
                 (std::string(phase) + "/ranged").c_str());
  // PointLookup parity on a spread of keys.
  for (int64_t k = 0; k < 200; k += 17) {
    bool rf = false, cf = false;
    std::vector<uint8_t> rp, cp;
    ASSERT_TRUE(row.PointLookup({Value::Int64(k)}, &rf, &rp).ok());
    ASSERT_TRUE(col.PointLookup({Value::Int64(k)}, &cf, &cp).ok());
    ASSERT_EQ(rf, cf) << phase << " key " << k;
    if (rf) {
      EXPECT_EQ(Deser(rp, type).Compare(Deser(cp, type)), 0)
          << phase << " key " << k;
    }
  }

  // 5. MultiGet parity with per-key PointLookup, on both layouts.
  std::mt19937 rng(seed);
  ExpectMultiGetMatchesPointLookups(row, type, std::string(phase) + "/row",
                                    &rng);
  ExpectMultiGetMatchesPointLookups(col, type, std::string(phase) + "/col",
                                    &rng);
}

TEST(ColumnStoreTest, RowColumnEquivalenceUnderRandomWorkload) {
  for (uint32_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string dir = env::NewScratchDir("colstore");
    BufferCache cache(4096);
    adm::DatatypePtr type = TestType();

    LsmOptions row_opts;
    row_opts.format = StorageFormat::kRow;
    row_opts.record_type = type;
    row_opts.mem_budget_bytes = 1u << 14;
    row_opts.merge_policy = MergePolicy::Constant(3);
    row_opts.compress = seed % 2 == 0;
    LsmOptions col_opts = row_opts;
    col_opts.format = StorageFormat::kColumn;
    col_opts.compress = seed % 2 == 1;

    auto row = std::make_unique<LsmBTree>(&cache, dir, "row", row_opts);
    auto col = std::make_unique<LsmBTree>(&cache, dir, "col", col_opts);
    ASSERT_TRUE(row->Open().ok());
    ASSERT_TRUE(col->Open().ok());

    std::mt19937 rng(seed);
    uint64_t lsn = 1;
    for (int op = 0; op < 800; ++op) {
      int64_t id = static_cast<int64_t>(rng() % 200);
      CompositeKey key{Value::Int64(id)};
      int action = static_cast<int>(rng() % 10);
      if (action < 7) {
        Value rec = RandomRecord(rng, id);
        std::vector<uint8_t> bytes = Ser(rec, type);
        ASSERT_TRUE(row->Upsert(key, bytes, lsn).ok());
        ASSERT_TRUE(col->Upsert(key, bytes, lsn).ok());
        ++lsn;
      } else if (action < 9) {
        ASSERT_TRUE(row->Delete(key, lsn).ok());
        ASSERT_TRUE(col->Delete(key, lsn).ok());
        ++lsn;
      } else {
        ASSERT_TRUE(row->Flush().ok());
        ASSERT_TRUE(col->Flush().ok());
      }
    }

    // Mixed state: mem component + several disk components.
    CompareAll(*row, *col, type, "mixed", seed);

    ASSERT_TRUE(row->Flush().ok());
    ASSERT_TRUE(col->Flush().ok());
    CompareAll(*row, *col, type, "flushed", seed);

    ASSERT_TRUE(row->MaybeMerge().ok());
    ASSERT_TRUE(col->MaybeMerge().ok());
    CompareAll(*row, *col, type, "merged", seed);

    // Restart: footers/keys/pages must round-trip through the files.
    row = std::make_unique<LsmBTree>(&cache, dir, "row", row_opts);
    col = std::make_unique<LsmBTree>(&cache, dir, "col", col_opts);
    ASSERT_TRUE(row->Open().ok());
    ASSERT_TRUE(col->Open().ok());
    CompareAll(*row, *col, type, "reopened", seed);

    env::RemoveAll(dir);
  }
}

// 1000 rows in one flushed component (4 row groups of 256): a narrow
// projection must read measurably fewer bytes on the columnar side, and a
// sargable range must skip page groups via min/max stats.
TEST(ColumnStoreTest, ProjectionReadsFewerBytesAndMinMaxPrunes) {
  std::string dir = env::NewScratchDir("colstore-proj");
  BufferCache cache(4096);
  adm::DatatypePtr type = TestType();

  LsmOptions row_opts;
  row_opts.format = StorageFormat::kRow;
  row_opts.record_type = type;
  LsmOptions col_opts = row_opts;
  col_opts.format = StorageFormat::kColumn;

  LsmBTree row(&cache, dir, "row", row_opts);
  LsmBTree col(&cache, dir, "col", col_opts);
  ASSERT_TRUE(row.Open().ok());
  ASSERT_TRUE(col.Open().ok());

  std::mt19937 rng(3);
  for (int64_t id = 0; id < 1000; ++id) {
    RecordBuilder b;
    b.Add("id", Value::Int64(id));
    b.Add("name", Value::String("n" + std::to_string(id)));
    b.Add("age", Value::Int64(id / 12));  // correlated with key order
    b.Add("score", Value::Double(static_cast<double>(id) / 2));
    b.Add("active", Value::Boolean(id % 2 == 0));
    b.Add("payload", Value::String(std::string(96 + rng() % 32, 'p')));
    std::vector<uint8_t> bytes = Ser(b.Build(), type);
    CompositeKey key{Value::Int64(id)};
    ASSERT_TRUE(row.Upsert(key, bytes, static_cast<uint64_t>(id) + 1).ok());
    ASSERT_TRUE(col.Upsert(key, bytes, static_cast<uint64_t>(id) + 1).ok());
  }
  ASSERT_TRUE(row.Flush().ok());
  ASSERT_TRUE(col.Flush().ok());
  ASSERT_EQ(col.num_disk_components(), 1u);

  // Narrow projection: the column side reads only the id column + keys.
  column::ProjectedScanStats row_stats, col_stats;
  auto row_rows = Collect(row, column::Projection::Of({"id"}), &row_stats);
  auto col_rows = Collect(col, column::Projection::Of({"id"}), &col_stats);
  ExpectSameRows(row_rows, col_rows, "narrow");
  ASSERT_EQ(col_rows.size(), 1000u);
  EXPECT_LT(col_stats.bytes_read, row_stats.bytes_read / 2)
      << "columnar projected scan should read a fraction of the row bytes "
      << "(col=" << col_stats.bytes_read << " row=" << row_stats.bytes_read
      << ")";
  EXPECT_GT(col_stats.bytes_skipped, 0u);

  // Range on the key-correlated field: only overlapping row groups are read.
  column::Projection ranged = column::Projection::Of({"id", "age"});
  column::FieldRange fr;
  fr.field = "age";
  fr.lo = Value::Int64(70);
  ranged.ranges.push_back(fr);
  column::ProjectedScanStats pruned_stats;
  auto col_ranged = Collect(col, ranged, &pruned_stats);
  EXPECT_GT(pruned_stats.pages_pruned, 0u) << "min/max stats should skip "
                                              "groups whose age max < 70";
  // Every surviving row with age >= 70 is present (pruning only drops rows
  // that cannot match).
  size_t matching = 0;
  for (const auto& [k, v] : col_ranged) {
    (void)k;
    if (!v.GetField("age").IsUnknown() && v.GetField("age").AsInt() >= 70) {
      ++matching;
    }
  }
  EXPECT_EQ(matching, 1000u - 70u * 12u);  // ids 840..999

  env::RemoveAll(dir);
}

// A primary-key equality scan fans out to every partition, and all but one
// of them do not hold the key: a bounded scan whose bounds fall between two
// keys must not decode the row group around them.
TEST(ColumnStoreTest, BoundedScanOnAbsentKeyReadsNoPages) {
  std::string dir = env::NewScratchDir("colstore-absent");
  BufferCache cache(4096);
  LsmOptions opts;
  opts.format = StorageFormat::kColumn;
  opts.record_type = TestType();
  LsmBTree col(&cache, dir, "col", opts);
  ASSERT_TRUE(col.Open().ok());
  std::mt19937 rng(5);
  for (int64_t id = 0; id < 1000; id += 2) {  // even keys only
    ASSERT_TRUE(col.Upsert({Value::Int64(id)},
                           Ser(RandomRecord(rng, id), opts.record_type),
                           static_cast<uint64_t>(id) + 1)
                    .ok());
  }
  ASSERT_TRUE(col.Flush().ok());
  ASSERT_EQ(col.num_disk_components(), 1u);

  metrics::Counter* pages =
      metrics::MetricsRegistry::Default().GetCounter("storage.column.pages_read");
  auto scan_key = [&](int64_t id, size_t* rows) {
    ScanBounds b;
    b.lo = CompositeKey{Value::Int64(id)};
    b.hi = b.lo;
    *rows = 0;
    uint64_t before = pages->value();
    Status st = col.ProjectedScan(
        b, column::Projection::All(),
        [&](const CompositeKey&, bool, const Value&) {
          ++*rows;
          return Status::OK();
        },
        nullptr);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return pages->value() - before;
  };
  size_t rows = 0;
  EXPECT_EQ(scan_key(301, &rows), 0u);  // between keys 300 and 302
  EXPECT_EQ(rows, 0u);
  EXPECT_EQ(scan_key(-1, &rows), 0u);  // before the first key
  EXPECT_EQ(rows, 0u);
  EXPECT_GT(scan_key(300, &rows), 0u);  // present: its group is decoded
  EXPECT_EQ(rows, 1u);
  env::RemoveAll(dir);
}

// End-to-end through DDL, the optimizer's projection pushdown, EXPLAIN
// ANALYZE, and the metrics registry.
TEST(ColumnStoreTest, ColumnarDatasetEndToEnd) {
  std::string dir = env::NewScratchDir("colstore-api");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.cluster.num_nodes = 1;
  config.cluster.partitions_per_node = 1;
  config.cluster.job_startup_us = 0;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());

  auto ddl = inst.Execute(R"aql(
drop dataverse ColTest if exists;
create dataverse ColTest;
use dataverse ColTest;
create type TType as open {
  id: int64,
  a: string,
  b: string,
  c: string,
  d: string,
  e: int64,
  f: double,
  g: boolean
}
create dataset RowT(TType) primary key id;
create dataset ColT(TType) primary key id with { "storage-format": "column" };
)aql");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();

  // Same 120 records (8 declared fields + 1 open) into both datasets.
  for (const char* target : {"RowT", "ColT"}) {
    std::string stmt = "use dataverse ColTest;\ninsert into dataset " +
                       std::string(target) + " ([";
    for (int i = 0; i < 120; ++i) {
      if (i) stmt += ",";
      stmt += "{ \"id\": " + std::to_string(i) +
              ", \"a\": \"alpha" + std::to_string(i) +
              "\", \"b\": \"" + std::string(40, 'b') +
              "\", \"c\": \"" + std::string(40, 'c') +
              "\", \"d\": \"" + std::string(40, 'd') +
              "\", \"e\": " + std::to_string(i % 10) +
              ", \"f\": " + std::to_string(i) + ".5" +
              ", \"g\": " + (i % 2 ? "true" : "false") +
              ", \"extra\": \"x" + std::to_string(i) + "\" }";
    }
    stmt += "]);";
    auto ins = inst.Execute(stmt);
    ASSERT_TRUE(ins.ok()) << target << ": " << ins.status().ToString();
  }

  // Whole-dataset ScanAll (catalog scans, index DDL rebuilds, subplan
  // scans) returns the same records from both formats, from memory
  // components and from flushed ones.
  auto scan_all = [&](const char* ds) {
    std::vector<Value> out;
    EXPECT_TRUE(inst.FindDataset(ds)->partition(0)->ScanAll(
        [&](const Value& rec) {
          out.push_back(rec);
          return Status::OK();
        }).ok());
    return out;
  };
  auto expect_same_scan_all = [&](const char* phase) {
    std::vector<Value> rv = scan_all("ColTest.RowT");
    std::vector<Value> cv = scan_all("ColTest.ColT");
    ASSERT_EQ(rv.size(), 120u) << phase;
    ASSERT_EQ(cv.size(), rv.size()) << phase;
    for (size_t i = 0; i < rv.size(); ++i) {
      EXPECT_EQ(rv[i].Compare(cv[i]), 0)
          << phase << "\n  row: " << rv[i].ToString()
          << "\n  col: " << cv[i].ToString();
    }
  };
  expect_same_scan_all("memory");
  ASSERT_TRUE(inst.FlushAll().ok());
  expect_same_scan_all("flushed");

  // Identical results, row vs column, for full scans, projections, and a
  // filtered projection (which also exercises scan_ranges).
  for (const char* query :
       {"for $t in dataset %s return $t;",
        "for $t in dataset %s return $t.id;",
        "for $t in dataset %s where $t.e >= 5 return { \"id\": $t.id, \"f\": $t.f };",
        "for $t in dataset %s return $t.extra;"}) {
    std::string rq = "use dataverse ColTest; ";
    std::string cq = "use dataverse ColTest; ";
    char buf[256];
    std::snprintf(buf, sizeof(buf), query, "RowT");
    rq += buf;
    std::snprintf(buf, sizeof(buf), query, "ColT");
    cq += buf;
    auto rr = inst.Execute(rq);
    auto cr = inst.Execute(cq);
    ASSERT_TRUE(rr.ok()) << rr.status().ToString();
    ASSERT_TRUE(cr.ok()) << cr.status().ToString();
    std::vector<Value> rv = rr.value().values;
    std::vector<Value> cv = cr.value().values;
    ASSERT_EQ(rv.size(), cv.size()) << query;
    auto less = [](const Value& a, const Value& b) { return a.Compare(b) < 0; };
    std::sort(rv.begin(), rv.end(), less);
    std::sort(cv.begin(), cv.end(), less);
    for (size_t i = 0; i < rv.size(); ++i) {
      EXPECT_EQ(rv[i].Compare(cv[i]), 0)
          << query << "\n  row: " << rv[i].ToString()
          << "\n  col: " << cv[i].ToString();
    }
  }

  // The projected scan on the columnar dataset reads measurably fewer
  // bytes — visible in the execution profile (EXPLAIN ANALYZE backbone).
  auto scan_bytes = [&](const std::string& q) -> uint64_t {
    auto r = inst.Execute("use dataverse ColTest; " + q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().stats.profile != nullptr);
    uint64_t bytes = 0;
    for (const auto& op : r.value().stats.profile->Rollup()) {
      if (op.name.rfind("scan(", 0) == 0 ||
          op.name.rfind("column-scan(", 0) == 0) {
        bytes += op.bytes_read;
      }
    }
    return bytes;
  };
  uint64_t row_bytes = scan_bytes("for $t in dataset RowT return $t.id;");
  uint64_t col_bytes = scan_bytes("for $t in dataset ColT return $t.id;");
  ASSERT_GT(row_bytes, 0u);
  ASSERT_GT(col_bytes, 0u);
  EXPECT_LT(col_bytes * 2, row_bytes)
      << "col=" << col_bytes << " row=" << row_bytes;

  // EXPLAIN ANALYZE surfaces the bytes and the projected operator name.
  auto ea = inst.Execute(
      "use dataverse ColTest; explain analyze for $t in dataset ColT "
      "return $t.id;");
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  ASSERT_EQ(ea.value().values.size(), 1u);
  std::string plan = ea.value().values[0].AsString();
  EXPECT_NE(plan.find("column-scan(ColT)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("project=[id]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("bytes_read="), std::string::npos) << plan;

  // Columnar counters are registered and moving.
  std::string metrics = inst.MetricsJson();
  for (const char* name :
       {"storage.column.pages_read", "storage.column.bytes_read",
        "storage.column.bytes_skipped", "storage.column.pages_pruned_minmax",
        "storage.column.bytes_flushed"}) {
    EXPECT_NE(metrics.find(name), std::string::npos) << name;
  }
  EXPECT_GT(metrics::MetricsRegistry::Default()
                .GetCounter("storage.column.bytes_skipped")
                ->value(),
            0u);
  EXPECT_GT(metrics::MetricsRegistry::Default()
                .GetCounter("storage.column.bytes_flushed")
                ->value(),
            0u);

  env::RemoveAll(dir);
}

// A whole-record scan carries its sargable range: on a flushed columnar
// dataset the row groups whose min/max rule the range out are skipped, and
// the answers equal the row dataset's.
TEST(ColumnStoreTest, WholeRecordRangeScanPrunesRowGroups) {
  std::string dir = env::NewScratchDir("colstore-whole-range");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.cluster.num_nodes = 1;
  config.cluster.partitions_per_node = 1;
  config.cluster.job_startup_us = 0;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());
  auto ddl = inst.Execute(R"aql(
create dataverse WholeRange; use dataverse WholeRange;
create type UserT as open { id: int64, name: string, user-since: datetime }
create dataset RowU(UserT) primary key id;
create dataset ColU(UserT) primary key id with { "storage-format": "column" };
)aql");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  std::vector<Value> users;
  for (int64_t i = 0; i < 2000; ++i) {
    adm::RecordBuilder b;
    b.Add("id", Value::Int64(i))
        .Add("name", Value::String("user" + std::to_string(i)))
        .Add("user-since", Value::Datetime(i * 1000));
    if (i % 3 == 0) b.Add("extra", Value::Int64(i % 7));
    users.push_back(b.Build());
  }
  ASSERT_TRUE(inst.FindDataset("WholeRange.RowU")->LoadBulk(users).ok());
  ASSERT_TRUE(inst.FindDataset("WholeRange.ColU")->LoadBulk(users).ok());
  ASSERT_TRUE(inst.FlushAll().ok());

  metrics::Counter* pruned = metrics::MetricsRegistry::Default().GetCounter(
      "storage.column.row_groups_pruned");
  auto run = [&](const std::string& ds) {
    auto r = inst.Execute(
        "use dataverse WholeRange;\nfor $u in dataset " + ds +
        " where $u.user-since >= datetime(\"1970-01-01T00:30:00\") "
        "return $u;");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<Value> out = r.ok() ? r.value().values : std::vector<Value>{};
    std::sort(out.begin(), out.end(),
              [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
    return out;
  };
  std::vector<Value> row = run("RowU");
  uint64_t before = pruned->value();
  std::vector<Value> col = run("ColU");
  uint64_t groups_pruned = pruned->value() - before;

  ASSERT_EQ(row.size(), 200u);  // ids 1800..1999
  ASSERT_EQ(col.size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(col[i].ToString(), row[i].ToString());
  }
  // 2000 rows make 8 row groups of 256; the range lives in the last one.
  EXPECT_GT(groups_pruned, 0u);
  env::RemoveAll(dir);
}

// The batched, projected primary fetch behind a secondary-index plan: the
// 300 keys of an indexed range over a flushed columnar dataset decode each
// touched row group once, and only the projected columns — not one whole
// row group of every column per key.
TEST(ColumnStoreTest, IndexedRangeDecodesEachRowGroupOnce) {
  std::string dir = env::NewScratchDir("colstore-multiget");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.cluster.num_nodes = 1;
  config.cluster.partitions_per_node = 1;
  config.cluster.job_startup_us = 0;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());
  auto ddl = inst.Execute(R"aql(
drop dataverse ColFetch if exists;
create dataverse ColFetch;
use dataverse ColFetch;
create type TType as open {
  id: int64, a: string, b: string, c: string, e: int64, f: double, g: boolean
}
create dataset ColT(TType) primary key id with { "storage-format": "column" };
create index eIdx on ColT(e);
)aql");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  // `e` rises with the key, as perfbench's timestamps do.
  constexpr int kRows = 1200;
  std::string stmt = "use dataverse ColFetch;\ninsert into dataset ColT ([";
  for (int i = 0; i < kRows; ++i) {
    if (i) stmt += ",";
    stmt += "{ \"id\": " + std::to_string(i) + ", \"a\": \"a" +
            std::to_string(i) + "\", \"b\": \"" + std::string(30, 'b') +
            "\", \"c\": \"" + std::string(30, 'c') +
            "\", \"e\": " + std::to_string(i) + ", \"f\": " +
            std::to_string(i) + ".5, \"g\": true, \"extra\": " +
            std::to_string(i) + " }";
  }
  stmt += "]);";
  auto ins = inst.Execute(stmt);
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ASSERT_TRUE(inst.FlushAll().ok());

  // Keys 250..549 sit in row groups 0, 1 and 2 of the one component. The
  // fetch batches one input frame at a time, so a row group that straddles
  // two frames is decoded once for each.
  constexpr int kLo = 250, kCount = 300;
  const uint64_t groups = (kLo + kCount - 1) / column::kRowsPerGroup -
                          kLo / column::kRowsPerGroup + 1;
  const uint64_t frames =
      (kCount + hyracks::kDefaultFrameTuples - 1) / hyracks::kDefaultFrameTuples;
  const std::string q = "use dataverse ColFetch;\nfor $t in dataset ColT "
                        "where $t.e >= " + std::to_string(kLo) +
                        " and $t.e < " + std::to_string(kLo + kCount) +
                        " return $t.id;";
  metrics::Counter* pages =
      metrics::MetricsRegistry::Default().GetCounter("storage.column.pages_read");
  uint64_t before = pages->value();
  auto r = inst.Execute(q);
  uint64_t read = pages->value() - before;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().logical_plan.find("eIdx"), std::string::npos)
      << r.value().logical_plan;
  EXPECT_NE(r.value().job_plan.find("btree-search(ColT.primary) project=[e,id]"),
            std::string::npos)
      << r.value().job_plan;
  std::vector<int64_t> ids;
  for (const Value& v : r.value().values) ids.push_back(v.AsInt());
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), static_cast<size_t>(kCount));
  EXPECT_EQ(ids.front(), kLo);
  EXPECT_EQ(ids.back(), kLo + kCount - 1);
  // Two projected columns (e, id) per row group decode.
  EXPECT_GT(read, 0u);
  EXPECT_LE(read, (groups + frames - 1) * 2)
      << "groups touched: " << groups << ", frames: " << frames;
  env::RemoveAll(dir);
}

}  // namespace
}  // namespace storage
}  // namespace asterix
