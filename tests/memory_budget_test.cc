// Memory-budget semantics of the budgeted operators (hybrid hash join, hash
// group-by, distinct, sort): inputs far larger than the budget must complete
// by spilling, produce results identical to an unbounded run, surface spill
// counters in the job profile / EXPLAIN ANALYZE, and leave no scratch files
// behind on success, failure, or cancellation.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <random>
#include <set>
#include <unistd.h>

#include "common/env.h"
#include "common/journal.h"
#include "functions/aggregates.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"

namespace asterix {
namespace hyracks {
namespace {

using adm::Value;

TupleEval Col(int i) {
  return [i](const Tuple& t) -> Result<Value> {
    return t[static_cast<size_t>(i)];
  };
}

std::multiset<std::string> Fingerprint(const std::vector<Tuple>& rows) {
  std::multiset<std::string> out;
  for (const auto& t : rows) {
    std::string s;
    for (const auto& v : t) s += v.ToString() + "|";
    out.insert(s);
  }
  return out;
}

struct RunResult {
  Status status;
  std::vector<Tuple> rows;
  std::shared_ptr<const JobProfile> profile;
};

class MemoryBudgetTest : public ::testing::Test {
 protected:
  // Point the scratch-dir machinery at a private TMPDIR so this binary can
  // assert "no scratch dirs left behind" without racing other test binaries.
  static void SetUpTestSuite() {
    scratch_root_ =
        "/tmp/asterix-budget-test-" + std::to_string(::getpid());
    ASSERT_TRUE(env::CreateDirs(scratch_root_).ok());
    ::setenv("TMPDIR", scratch_root_.c_str(), 1);
  }
  static void TearDownTestSuite() {
    ::unsetenv("TMPDIR");
    env::RemoveAll(scratch_root_);
  }

  static size_t ScratchEntries() {
    size_t n = 0;
    for (const auto& e :
         std::filesystem::directory_iterator(scratch_root_)) {
      (void)e;
      ++n;
    }
    return n;
  }

  static Cluster MakeCluster(size_t budget_bytes) {
    ClusterConfig cfg;
    cfg.num_nodes = 1;
    cfg.partitions_per_node = 1;
    cfg.job_startup_us = 0;
    cfg.op_memory_budget_bytes = budget_bytes;
    return Cluster(cfg);
  }

  // value-scan(rows) -> op -> result-sink, single partition.
  static RunResult RunUnary(OperatorDescriptor op, std::vector<Tuple> rows,
                            size_t budget_bytes) {
    Cluster cluster = MakeCluster(budget_bytes);
    JobSpec job;
    int src = job.AddOperator(MakeValueScan(std::move(rows)));
    op.parallelism = 1;
    int mid = job.AddOperator(std::move(op));
    auto sink = std::make_shared<std::vector<Tuple>>();
    int dst = job.AddOperator(MakeResultSink(sink));
    job.Connect(ConnectorType::kOneToOne, src, mid);
    job.Connect(ConnectorType::kOneToOne, mid, dst);
    auto r = cluster.ExecuteJob(job);
    RunResult out;
    if (r.ok()) {
      out.rows = *sink;
      out.profile = r.value().profile;
    } else {
      out.status = r.status();
    }
    return out;
  }

  // build-scan + probe-scan -> join -> result-sink, single partition. An
  // optional post-join operator (e.g. a failing select) sits before the sink.
  static RunResult RunJoin(std::vector<Tuple> build, std::vector<Tuple> probe,
                           std::vector<TupleEval> build_keys,
                           std::vector<TupleEval> probe_keys,
                           size_t build_arity, bool left_outer,
                           size_t budget_bytes,
                           std::optional<OperatorDescriptor> post = {}) {
    Cluster cluster = MakeCluster(budget_bytes);
    JobSpec job;
    int b = job.AddOperator(MakeValueScan(std::move(build)));
    int p = job.AddOperator(MakeValueScan(std::move(probe)));
    OperatorDescriptor jd =
        MakeHybridHashJoin(1, std::move(build_keys), std::move(probe_keys),
                           build_arity, left_outer);
    int j = job.AddOperator(std::move(jd));
    auto sink = std::make_shared<std::vector<Tuple>>();
    int tail = j;
    if (post.has_value()) {
      post->parallelism = 1;
      int mid = job.AddOperator(std::move(*post));
      job.Connect(ConnectorType::kOneToOne, j, mid);
      tail = mid;
    }
    int dst = job.AddOperator(MakeResultSink(sink));
    job.Connect(ConnectorType::kOneToOne, b, j, 0);
    job.Connect(ConnectorType::kOneToOne, p, j, 1);
    job.Connect(ConnectorType::kOneToOne, tail, dst);
    auto r = cluster.ExecuteJob(job);
    RunResult out;
    if (r.ok()) {
      out.rows = *sink;
      out.profile = r.value().profile;
    } else {
      out.status = r.status();
    }
    return out;
  }

  static uint64_t SpilledPartitions(const RunResult& r, const char* op_name) {
    uint64_t n = 0;
    for (const auto& s : r.profile->spans) {
      if (s.op_name == op_name) n += s.spilled_partitions;
    }
    return n;
  }
  static uint64_t SpillBytes(const RunResult& r, const char* op_name) {
    uint64_t n = 0;
    for (const auto& s : r.profile->spans) {
      if (s.op_name == op_name) n += s.spill_bytes;
    }
    return n;
  }

  static std::string scratch_root_;
};

std::string MemoryBudgetTest::scratch_root_;

constexpr size_t kTinyBudget = 16 * 1024;

std::vector<Tuple> RandomRows(int n, int key_range, uint32_t seed) {
  std::vector<Tuple> rows;
  std::mt19937 rng(seed);
  for (int i = 0; i < n; ++i) {
    int64_t k = static_cast<int64_t>(rng() % static_cast<uint32_t>(key_range));
    rows.push_back({Value::Int64(k), Value::Int64(i)});
  }
  return rows;
}

// 80% of rows share one hot key — the skew that forces the recursion depth
// cap (every level re-partitions the hot key into the same bucket).
std::vector<Tuple> SkewedRows(int n, int64_t hot_key, uint32_t seed) {
  std::vector<Tuple> rows;
  std::mt19937 rng(seed);
  for (int i = 0; i < n; ++i) {
    int64_t k = (rng() % 10) < 8 ? hot_key : static_cast<int64_t>(rng() % 50);
    rows.push_back({Value::Int64(k), Value::Int64(i)});
  }
  return rows;
}

TEST_F(MemoryBudgetTest, JoinOverBudgetMatchesUnboundedRandomKeys) {
  size_t before = ScratchEntries();
  auto build = RandomRows(3000, 400, 1);
  auto probe = RandomRows(3000, 400, 2);
  auto unbounded = RunJoin(build, probe, {Col(0)}, {Col(0)}, 2, false, 0);
  auto budgeted =
      RunJoin(build, probe, {Col(0)}, {Col(0)}, 2, false, kTinyBudget);
  ASSERT_TRUE(unbounded.status.ok()) << unbounded.status.ToString();
  ASSERT_TRUE(budgeted.status.ok()) << budgeted.status.ToString();
  EXPECT_GT(unbounded.rows.size(), 3000u);  // multi-match equijoin
  EXPECT_EQ(Fingerprint(unbounded.rows), Fingerprint(budgeted.rows));
  EXPECT_EQ(SpilledPartitions(unbounded, "hybrid-hash-join"), 0u);
  EXPECT_GT(SpilledPartitions(budgeted, "hybrid-hash-join"), 0u);
  EXPECT_GT(SpillBytes(budgeted, "hybrid-hash-join"), 0u);
  EXPECT_EQ(ScratchEntries(), before);  // scratch removed on success
}

TEST_F(MemoryBudgetTest, JoinOverBudgetMatchesUnboundedSkewedKeys) {
  size_t before = ScratchEntries();
  auto build = SkewedRows(2000, 7, 3);
  auto probe = SkewedRows(120, 7, 4);
  auto unbounded = RunJoin(build, probe, {Col(0)}, {Col(0)}, 2, false, 0);
  auto budgeted =
      RunJoin(build, probe, {Col(0)}, {Col(0)}, 2, false, kTinyBudget);
  ASSERT_TRUE(unbounded.status.ok());
  ASSERT_TRUE(budgeted.status.ok());
  EXPECT_EQ(Fingerprint(unbounded.rows), Fingerprint(budgeted.rows));
  EXPECT_GT(SpilledPartitions(budgeted, "hybrid-hash-join"), 0u);
  EXPECT_EQ(ScratchEntries(), before);
}

TEST_F(MemoryBudgetTest, LeftOuterJoinPadsNullsAcrossSpill) {
  size_t before = ScratchEntries();
  auto build = RandomRows(2000, 200, 5);
  // Probe keys 100..499: keys >= 200 never match and must be null-padded.
  std::vector<Tuple> probe;
  for (int i = 0; i < 2000; ++i) {
    probe.push_back({Value::Int64(100 + (i % 400)), Value::Int64(i)});
  }
  auto unbounded = RunJoin(build, probe, {Col(0)}, {Col(0)}, 2, true, 0);
  auto budgeted =
      RunJoin(build, probe, {Col(0)}, {Col(0)}, 2, true, kTinyBudget);
  ASSERT_TRUE(unbounded.status.ok());
  ASSERT_TRUE(budgeted.status.ok());
  EXPECT_EQ(Fingerprint(unbounded.rows), Fingerprint(budgeted.rows));
  size_t padded = 0;
  for (const auto& t : budgeted.rows) {
    if (t[0].IsNull()) ++padded;
  }
  EXPECT_GT(padded, 0u);
  EXPECT_GT(SpilledPartitions(budgeted, "hybrid-hash-join"), 0u);
  EXPECT_EQ(ScratchEntries(), before);
}

TEST_F(MemoryBudgetTest, JoinKeysNormalizeAcrossNumericWidths) {
  // Int32(k) on the build side must meet Int64(k) and integral Double(k)
  // probes: the serialized normalized key erases representation width.
  std::vector<Tuple> build, probe;
  for (int i = 0; i < 8; ++i) {
    build.push_back({Value::Int32(i), Value::String("b")});
    probe.push_back({Value::Int64(i), Value::String("p64")});
    probe.push_back({Value::Double(static_cast<double>(i)), Value::String("pd")});
  }
  auto got = RunJoin(build, probe, {Col(0)}, {Col(0)}, 2, false, 0);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.rows.size(), 16u);  // every probe row found its build row
}

TEST_F(MemoryBudgetTest, JoinRecordKeysIgnoreFieldOrder) {
  Value r1 = Value::Record({{"a", Value::Int64(1)}, {"b", Value::Int64(2)}});
  Value r2 = Value::Record({{"b", Value::Int64(2)}, {"a", Value::Int64(1)}});
  auto got = RunJoin({{r1, Value::String("build")}},
                     {{r2, Value::String("probe")}}, {Col(0)}, {Col(0)}, 2,
                     false, 0);
  ASSERT_TRUE(got.status.ok());
  EXPECT_EQ(got.rows.size(), 1u);
}

TEST_F(MemoryBudgetTest, GroupByOverBudgetMatchesUnbounded) {
  size_t before = ScratchEntries();
  auto rows = RandomRows(20000, 5000, 6);
  std::vector<AggSpec> aggs = {
      {"count", Col(1)}, {"sum", Col(1)}, {"avg", Col(1)}, {"min", Col(1)}};
  auto unbounded = RunUnary(
      MakeHashGroupBy(1, {Col(0)}, aggs, AggMode::kComplete), rows, 0);
  auto budgeted = RunUnary(
      MakeHashGroupBy(1, {Col(0)}, aggs, AggMode::kComplete), rows,
      kTinyBudget);
  ASSERT_TRUE(unbounded.status.ok());
  ASSERT_TRUE(budgeted.status.ok());
  EXPECT_EQ(unbounded.rows.size(), budgeted.rows.size());
  EXPECT_EQ(Fingerprint(unbounded.rows), Fingerprint(budgeted.rows));
  EXPECT_GT(SpilledPartitions(budgeted, "hash-group-by"), 0u);
  EXPECT_GT(SpillBytes(budgeted, "hash-group-by"), 0u);
  EXPECT_EQ(ScratchEntries(), before);
}

TEST_F(MemoryBudgetTest, GroupByExpressionKeysSurviveSpill) {
  // Key is a field access on a record column. Spilled partials carry the key
  // VALUE, not the record — the reload path must not re-run the expression.
  std::vector<Tuple> rows;
  std::mt19937 rng(16);
  for (int i = 0; i < 8000; ++i) {
    int64_t k = static_cast<int64_t>(rng() % 400);
    rows.push_back({Value::Record({{"state", Value::Int64(k)}}),
                    Value::Int64(i % 97)});
  }
  TupleEval field_key = [](const Tuple& t) -> Result<Value> {
    return t[0].GetField("state");
  };
  std::vector<AggSpec> aggs = {{"count", Col(1)}, {"sum", Col(1)}};
  auto unbounded = RunUnary(
      MakeHashGroupBy(1, {field_key}, aggs, AggMode::kComplete), rows, 0);
  auto budgeted = RunUnary(
      MakeHashGroupBy(1, {field_key}, aggs, AggMode::kComplete), rows,
      kTinyBudget);
  ASSERT_TRUE(unbounded.status.ok());
  ASSERT_TRUE(budgeted.status.ok());
  EXPECT_EQ(unbounded.rows.size(), 400u);
  EXPECT_EQ(Fingerprint(unbounded.rows), Fingerprint(budgeted.rows));
  EXPECT_GT(SpilledPartitions(budgeted, "hash-group-by"), 0u);
}

TEST_F(MemoryBudgetTest, GroupByLocalGlobalSplitSurvivesSpill) {
  // Local side spills partials; global side recombines them — both budgeted.
  auto rows = SkewedRows(12000, 3, 7);
  std::vector<AggSpec> aggs = {{"count", Col(1)}, {"sum", Col(1)}};
  auto local_unbounded =
      RunUnary(MakeHashGroupBy(1, {Col(0)}, aggs, AggMode::kLocal), rows, 0);
  auto local_budgeted = RunUnary(
      MakeHashGroupBy(1, {Col(0)}, aggs, AggMode::kLocal), rows, kTinyBudget);
  ASSERT_TRUE(local_unbounded.status.ok());
  ASSERT_TRUE(local_budgeted.status.ok());
  // Feed each local output through the global side; finals must agree.
  auto global_a = RunUnary(
      MakeHashGroupBy(1, {Col(0)}, aggs, AggMode::kGlobal),
      local_unbounded.rows, 0);
  auto global_b = RunUnary(
      MakeHashGroupBy(1, {Col(0)}, aggs, AggMode::kGlobal),
      local_budgeted.rows, kTinyBudget);
  ASSERT_TRUE(global_a.status.ok());
  ASSERT_TRUE(global_b.status.ok());
  EXPECT_EQ(Fingerprint(global_a.rows), Fingerprint(global_b.rows));
}

// Bag columns are unordered collections; a spilled run concatenates partial
// bags in recursion order, so equivalence must compare bag CONTENTS, not
// element order. Keys keep positional order; bag elements sort.
std::multiset<std::string> BagFingerprint(const std::vector<Tuple>& rows,
                                          size_t key_arity) {
  std::multiset<std::string> out;
  for (const auto& t : rows) {
    std::string s;
    for (size_t i = 0; i < key_arity; ++i) s += t[i].ToString() + "|";
    for (size_t i = key_arity; i < t.size(); ++i) {
      std::multiset<std::string> elems;
      for (const auto& v : t[i].AsList()) elems.insert(v.ToString());
      s += "{";
      for (const auto& e : elems) s += e + ",";
      s += "}|";
    }
    out.insert(s);
  }
  return out;
}

// `group by $0 with $1` as the compiler emits it: one complete hash group-by
// whose listify aggregate collects column 1 into a bag per key.
OperatorDescriptor BagGroupBy() {
  return MakeHashGroupBy(1, {Col(0)}, {{functions::kListify, Col(1)}},
                         AggMode::kComplete);
}

TEST_F(MemoryBudgetTest, BagGroupByOverBudgetMatchesUnbounded) {
  size_t before = ScratchEntries();
  auto rows = RandomRows(12000, 600, 17);
  auto unbounded = RunUnary(BagGroupBy(), rows, 0);
  auto budgeted = RunUnary(BagGroupBy(), rows, kTinyBudget);
  ASSERT_TRUE(unbounded.status.ok()) << unbounded.status.ToString();
  ASSERT_TRUE(budgeted.status.ok()) << budgeted.status.ToString();
  EXPECT_EQ(unbounded.rows.size(), 600u);
  EXPECT_EQ(BagFingerprint(unbounded.rows, 1), BagFingerprint(budgeted.rows, 1));
  EXPECT_EQ(SpilledPartitions(unbounded, "hash-group-by"), 0u);
  EXPECT_GT(SpilledPartitions(budgeted, "hash-group-by"), 0u);
  EXPECT_GT(SpillBytes(budgeted, "hash-group-by"), 0u);
  EXPECT_EQ(ScratchEntries(), before);
}

TEST_F(MemoryBudgetTest, BagGroupBySkewedKeysSurviveSpill) {
  // One hot key collects ~80% of 10000 values: its bag alone exceeds the
  // budget, so the depth cap must terminate the recursion, and the final
  // bag must still hold every element exactly once.
  size_t before = ScratchEntries();
  auto rows = SkewedRows(10000, 7, 18);
  auto unbounded = RunUnary(BagGroupBy(), rows, 0);
  auto budgeted = RunUnary(BagGroupBy(), rows, kTinyBudget);
  ASSERT_TRUE(unbounded.status.ok());
  ASSERT_TRUE(budgeted.status.ok());
  EXPECT_EQ(BagFingerprint(unbounded.rows, 1), BagFingerprint(budgeted.rows, 1));
  EXPECT_GT(SpilledPartitions(budgeted, "hash-group-by"), 0u);
  EXPECT_EQ(ScratchEntries(), before);
}

// build-scan + probe-scan -> nested-loop-join -> sink, single partition.
RunResult RunNlj(Cluster* cluster, std::vector<Tuple> build,
                 std::vector<Tuple> probe, TupleEval predicate,
                 size_t build_arity, bool left_outer) {
  JobSpec job;
  int b = job.AddOperator(MakeValueScan(std::move(build)));
  int p = job.AddOperator(MakeValueScan(std::move(probe)));
  int j = job.AddOperator(
      MakeNestedLoopJoin(1, std::move(predicate), build_arity, left_outer));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, b, j, 0);
  job.Connect(ConnectorType::kOneToOne, p, j, 1);
  job.Connect(ConnectorType::kOneToOne, j, dst);
  auto r = cluster->ExecuteJob(job);
  RunResult out;
  if (r.ok()) {
    out.rows = *sink;
    out.profile = r.value().profile;
  } else {
    out.status = r.status();
  }
  return out;
}

TEST_F(MemoryBudgetTest, NestedLoopJoinOverBudgetMatchesUnbounded) {
  size_t before = ScratchEntries();
  auto build = RandomRows(1500, 300, 19);
  auto probe = RandomRows(400, 300, 20);
  TupleEval eq = [](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t[0].Compare(t[2]) == 0);
  };
  Cluster unbounded_cluster = MakeCluster(0);
  Cluster budgeted_cluster = MakeCluster(kTinyBudget);
  auto unbounded = RunNlj(&unbounded_cluster, build, probe, eq, 2, false);
  auto budgeted = RunNlj(&budgeted_cluster, build, probe, eq, 2, false);
  ASSERT_TRUE(unbounded.status.ok()) << unbounded.status.ToString();
  ASSERT_TRUE(budgeted.status.ok()) << budgeted.status.ToString();
  EXPECT_GT(unbounded.rows.size(), 0u);
  EXPECT_EQ(Fingerprint(unbounded.rows), Fingerprint(budgeted.rows));
  EXPECT_EQ(SpilledPartitions(unbounded, "nested-loop-join"), 0u);
  EXPECT_GT(SpilledPartitions(budgeted, "nested-loop-join"), 0u);
  EXPECT_GT(SpillBytes(budgeted, "nested-loop-join"), 0u);
  EXPECT_EQ(ScratchEntries(), before);
}

TEST_F(MemoryBudgetTest, NestedLoopLeftOuterDefersPaddingAcrossBlocks) {
  // Probe keys >= 300 never match. A probe tuple whose only match sits in a
  // LATE build block must not be padded by the early blocks — the matched
  // flags have to survive across every block pass.
  size_t before = ScratchEntries();
  auto build = RandomRows(1500, 300, 21);
  std::vector<Tuple> probe;
  for (int i = 0; i < 400; ++i) {
    probe.push_back({Value::Int64(i % 600), Value::Int64(i)});
  }
  TupleEval eq = [](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t[0].Compare(t[2]) == 0);
  };
  Cluster unbounded_cluster = MakeCluster(0);
  Cluster budgeted_cluster = MakeCluster(kTinyBudget);
  auto unbounded = RunNlj(&unbounded_cluster, build, probe, eq, 2, true);
  auto budgeted = RunNlj(&budgeted_cluster, build, probe, eq, 2, true);
  ASSERT_TRUE(unbounded.status.ok());
  ASSERT_TRUE(budgeted.status.ok());
  EXPECT_EQ(Fingerprint(unbounded.rows), Fingerprint(budgeted.rows));
  size_t padded = 0;
  for (const auto& t : budgeted.rows) {
    if (t[0].IsNull()) ++padded;
  }
  EXPECT_GT(padded, 0u);
  EXPECT_GT(SpilledPartitions(budgeted, "nested-loop-join"), 0u);
  EXPECT_EQ(ScratchEntries(), before);
}

TEST_F(MemoryBudgetTest, DistinctOverBudgetMatchesUnbounded) {
  size_t before = ScratchEntries();
  // Whole-tuple distinct over heavy duplication: 30000 rows, 2500 distinct.
  std::vector<Tuple> rows;
  std::mt19937 rng(8);
  for (int i = 0; i < 30000; ++i) {
    int64_t k = static_cast<int64_t>(rng() % 2500);
    rows.push_back({Value::Int64(k), Value::String("v" + std::to_string(k))});
  }
  auto unbounded = RunUnary(MakeDistinct(1), rows, 0);
  auto budgeted = RunUnary(MakeDistinct(1), rows, kTinyBudget);
  ASSERT_TRUE(unbounded.status.ok());
  ASSERT_TRUE(budgeted.status.ok());
  EXPECT_EQ(unbounded.rows.size(), 2500u);
  EXPECT_EQ(Fingerprint(unbounded.rows), Fingerprint(budgeted.rows));
  EXPECT_GT(SpilledPartitions(budgeted, "distinct"), 0u);
  EXPECT_EQ(ScratchEntries(), before);
}

TEST_F(MemoryBudgetTest, SortByteBudgetSpillsAndStaysSorted) {
  size_t before = ScratchEntries();
  auto rows = RandomRows(8000, 100000, 9);
  TupleCompare cmp = [](const Tuple& a, const Tuple& b) {
    int c = a[0].Compare(b[0]);
    return c != 0 ? c : a[1].Compare(b[1]);
  };
  // Default tuple cap (1<<18) never trips; only the byte budget can spill.
  auto unbounded = RunUnary(MakeSort(1, cmp), rows, 0);
  uint64_t min_seq = journal::Journal::Default().posted();
  auto budgeted = RunUnary(MakeSort(1, cmp), rows, kTinyBudget);
  ASSERT_TRUE(unbounded.status.ok());
  ASSERT_TRUE(budgeted.status.ok());
  // The merge streams every run through a cursor: one spill.reload per run.
  size_t reloads = 0;
  for (const auto& e : journal::Journal::Default().Snapshot(min_seq)) {
    if (e.kind == journal::EventKind::kSpillReload) ++reloads;
  }
  EXPECT_EQ(reloads, SpilledPartitions(budgeted, "sort"));
  ASSERT_EQ(budgeted.rows.size(), rows.size());
  for (size_t i = 1; i < budgeted.rows.size(); ++i) {
    EXPECT_LE(cmp(budgeted.rows[i - 1], budgeted.rows[i]), 0) << i;
  }
  EXPECT_EQ(Fingerprint(unbounded.rows), Fingerprint(budgeted.rows));
  EXPECT_GT(SpilledPartitions(budgeted, "sort"), 0u);  // runs written
  EXPECT_GT(SpillBytes(budgeted, "sort"), 0u);
  EXPECT_EQ(ScratchEntries(), before);
}

TEST_F(MemoryBudgetTest, SpillCountersReachAnnotatedPlan) {
  auto build = RandomRows(3000, 400, 10);
  auto probe = RandomRows(500, 400, 11);
  Cluster cluster = MakeCluster(kTinyBudget);
  JobSpec job;
  int b = job.AddOperator(MakeValueScan(build));
  int p = job.AddOperator(MakeValueScan(probe));
  int j = job.AddOperator(MakeHybridHashJoin(1, {Col(0)}, {Col(0)}, 2, false));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, b, j, 0);
  job.Connect(ConnectorType::kOneToOne, p, j, 1);
  job.Connect(ConnectorType::kOneToOne, j, dst);
  auto r = cluster.ExecuteJob(job);
  ASSERT_TRUE(r.ok());
  std::string annotated = AnnotatePlan(job, *r.value().profile);
  EXPECT_NE(annotated.find("spill_bytes="), std::string::npos) << annotated;
  EXPECT_NE(annotated.find("spilled_partitions="), std::string::npos);
  EXPECT_NE(annotated.find("hash_build_bytes="), std::string::npos);
  std::string json = r.value().profile->ToJson();
  EXPECT_NE(json.find("\"spill_bytes\""), std::string::npos);
  std::string trace = r.value().profile->ToChromeTrace();
  EXPECT_NE(trace.find("\"spill_bytes\""), std::string::npos);
}

TEST_F(MemoryBudgetTest, ScratchRemovedWhenOperatorFails) {
  size_t before = ScratchEntries();
  auto build = RandomRows(3000, 400, 12);
  auto probe = RandomRows(2000, 400, 13);
  // Probe key eval blows up late, after the build phase has spilled.
  TupleEval exploding = [](const Tuple& t) -> Result<Value> {
    if (t[1].AsInt() >= 1500) return Status::Internal("boom");
    return t[0];
  };
  auto r = RunJoin(build, probe, {Col(0)}, {exploding}, 2, false, kTinyBudget);
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(ScratchEntries(), before);  // guard cleaned up on failure
}

TEST_F(MemoryBudgetTest, ScratchRemovedWhenDownstreamCancels) {
  size_t before = ScratchEntries();
  auto build = RandomRows(3000, 400, 14);
  auto probe = RandomRows(2000, 400, 15);
  // A select after the join fails mid-stream, cancelling the spilled join.
  TupleEval failing_pred = [](const Tuple& t) -> Result<Value> {
    if (t[3].AsInt() >= 200) return Status::Internal("cancelled");
    return Value::Boolean(true);
  };
  auto r = RunJoin(build, probe, {Col(0)}, {Col(0)}, 2, false, kTinyBudget,
                   MakeSelect(1, failing_pred));
  EXPECT_FALSE(r.status.ok());
  EXPECT_EQ(ScratchEntries(), before);
}

TEST_F(MemoryBudgetTest, BudgetDefaultsFromEnvironment) {
  ::setenv("ASTERIX_OP_MEMORY_BUDGET", "123456", 1);
  ClusterConfig cfg;
  EXPECT_EQ(cfg.op_memory_budget_bytes, 123456u);
  ::unsetenv("ASTERIX_OP_MEMORY_BUDGET");
  ClusterConfig fresh;
  EXPECT_EQ(fresh.op_memory_budget_bytes, 0u);
}

}  // namespace
}  // namespace hyracks
}  // namespace asterix
