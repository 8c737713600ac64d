#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "adm/adm_parser.h"
#include "api/asterix.h"
#include "common/env.h"
#include "common/metrics.h"

namespace asterix {
namespace {

using adm::Value;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  metrics::MetricsRegistry reg;
  metrics::Counter* c = reg.GetCounter("a.count");
  EXPECT_EQ(c->value(), 0u);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value(), 42u);
  // Same name returns the same instrument.
  EXPECT_EQ(reg.GetCounter("a.count"), c);

  metrics::Gauge* g = reg.GetGauge("a.gauge");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(g->value(), 4);

  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
}

TEST(MetricsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  metrics::MetricsRegistry reg;
  metrics::Histogram* h = reg.GetHistogram("h", {10, 100});
  ASSERT_EQ(h->num_buckets(), 3u);  // <=10, <=100, overflow

  h->Observe(10);   // exactly on the first edge -> bucket 0
  h->Observe(11);   // just past it -> bucket 1
  h->Observe(100);  // exactly on the second edge -> bucket 1
  h->Observe(101);  // past every edge -> overflow

  EXPECT_EQ(h->bucket_count(0), 1u);
  EXPECT_EQ(h->bucket_count(1), 2u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->sum(), 10u + 11u + 100u + 101u);
  EXPECT_EQ(h->max(), 101u);
  EXPECT_DOUBLE_EQ(h->mean(), (10.0 + 11 + 100 + 101) / 4);
}

TEST(MetricsTest, ConcurrentIncrementsFromManyThreadsLoseNothing) {
  metrics::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Re-resolve by name every iteration: the registration path must be
      // just as thread-safe as the increment path.
      metrics::Counter* c = reg.GetCounter("conc.count");
      metrics::Histogram* h = reg.GetHistogram("conc.hist");
      for (int i = 0; i < kIters; ++i) {
        c->Inc();
        reg.GetCounter("conc.count")->Inc();
        h->Observe(static_cast<uint64_t>(i % 128));
        reg.GetGauge("conc.gauge")->Add(1);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(reg.GetCounter("conc.count")->value(),
            static_cast<uint64_t>(2 * kThreads * kIters));
  EXPECT_EQ(reg.GetHistogram("conc.hist")->count(),
            static_cast<uint64_t>(kThreads * kIters));
  EXPECT_EQ(reg.GetGauge("conc.gauge")->value(), kThreads * kIters);
  uint64_t bucket_total = 0;
  metrics::Histogram* h = reg.GetHistogram("conc.hist");
  for (size_t i = 0; i < h->num_buckets(); ++i) bucket_total += h->bucket_count(i);
  EXPECT_EQ(bucket_total, h->count());
}

TEST(MetricsTest, PercentileInterpolatesWithinBuckets) {
  metrics::MetricsRegistry reg;
  metrics::Histogram* h = reg.GetHistogram("p.hist", {10, 20, 40});
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 0.0);  // empty -> 0

  // 10 values in (0,10], 10 in (10,20].
  for (int i = 0; i < 10; ++i) h->Observe(5);
  for (int i = 0; i < 10; ++i) h->Observe(15);

  // Median sits exactly at the first bucket's upper edge.
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 10.0);
  // Quartiles interpolate linearly inside their buckets.
  EXPECT_DOUBLE_EQ(h->Percentile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.75), 15.0);
  // Extremes clamp to the bucket range.
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 20.0);
  // Out-of-range q is clamped rather than extrapolated.
  EXPECT_DOUBLE_EQ(h->Percentile(1.5), 20.0);
}

TEST(MetricsTest, PercentileOverflowBucketInterpolatesTowardMax) {
  metrics::MetricsRegistry reg;
  metrics::Histogram* h = reg.GetHistogram("p.over", {10});
  for (int i = 0; i < 9; ++i) h->Observe(5);
  h->Observe(1000);  // lands in the overflow bucket; max() = 1000
  double p99 = h->Percentile(0.99);
  EXPECT_GT(p99, 10.0);
  EXPECT_LE(p99, 1000.0);
}

TEST(MetricsTest, SnapshotIsValidJson) {
  metrics::MetricsRegistry reg;
  reg.GetCounter("x.count")->Inc(3);
  reg.GetGauge("x.gauge")->Set(-5);
  reg.GetHistogram("x.hist", {1, 2, 4})->Observe(3);
  std::string json = reg.ToJson();

  // The ADM parser accepts JSON (quoted field names), so it doubles as a
  // validity check and lets us inspect the snapshot structurally.
  Value v;
  ASSERT_TRUE(adm::ParseAdm(json, &v).ok()) << json;
  EXPECT_EQ(v.GetField("counters").GetField("x.count").AsInt(), 3);
  EXPECT_EQ(v.GetField("gauges").GetField("x.gauge").AsInt(), -5);
  Value hist = v.GetField("histograms").GetField("x.hist");
  EXPECT_EQ(hist.GetField("count").AsInt(), 1);
  EXPECT_EQ(hist.GetField("sum").AsInt(), 3);
  ASSERT_EQ(hist.GetField("buckets").AsList().size(), 4u);
  EXPECT_EQ(hist.GetField("buckets").AsList()[2].AsInt(), 1);  // 3 -> (<=4)
}

// ---------------------------------------------------------------------------
// End-to-end: profiles, EXPLAIN ANALYZE, trace sink, metrics endpoint
// ---------------------------------------------------------------------------

class ObservabilityE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("observability");
    api::InstanceConfig config;
    config.base_dir = dir_ + "/asterix";
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    config.cluster.trace_dir = dir_ + "/traces";
    instance_ = std::make_unique<api::AsterixInstance>(config);
    ASSERT_TRUE(instance_->Boot().ok());
    auto r = instance_->Execute(R"aql(
create dataverse Obs; use dataverse Obs;
create type T as { id: int64, v: int64 }
create dataset D(T) primary key id;
insert into dataset D ([
  { "id": 1, "v": 2 }, { "id": 2, "v": 3 }, { "id": 3, "v": 4 },
  { "id": 4, "v": 5 }, { "id": 5, "v": 6 }, { "id": 6, "v": 7 },
  { "id": 7, "v": 8 }, { "id": 8, "v": 1 } ]);
)aql");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  void TearDown() override {
    instance_.reset();
    env::RemoveAll(dir_);
  }

  Result<api::ExecutionResult> Run(const std::string& q) {
    return instance_->Execute("use dataverse Obs;\n" + q);
  }

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> instance_;
};

TEST_F(ObservabilityE2eTest, JobProfileCoversEveryOperatorInstance) {
  auto r = Run(R"aql(
for $a in dataset D
for $b in dataset D
where $a.v = $b.id
return { "a": $a.id, "b": $b.id };)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().values.size(), 8u);
  ASSERT_TRUE(r.value().stats.profile);
  const hyracks::JobProfile& prof = *r.value().stats.profile;

  // Both self-join sides scan all 8 rows across their instances.
  uint64_t scan_total = 0;
  int scan_ops = 0;
  for (const auto& op : prof.Rollup()) {
    if (op.name.rfind("scan(", 0) == 0) {
      scan_total += op.tuples_out;
      ++scan_ops;
      EXPECT_EQ(op.instances, 4);  // 2 nodes x 2 partitions
    }
  }
  EXPECT_EQ(scan_ops, 2);
  EXPECT_EQ(scan_total, 16u);
  // Connector hop totals in the profile match the JobStats rollup.
  uint64_t conn_total = 0;
  for (const auto& c : prof.connectors) conn_total += c.tuples;
  EXPECT_EQ(conn_total, r.value().stats.connector_tuples);
  // Profile JSON is valid.
  Value v;
  ASSERT_TRUE(adm::ParseAdm(prof.ToJson(), &v).ok()) << prof.ToJson();
  EXPECT_EQ(static_cast<uint64_t>(v.GetField("job_id").AsInt()), prof.job_id);
}

TEST_F(ObservabilityE2eTest, TraceSinkEmitsOneCompleteSpanPerInstance) {
  auto r = Run(R"aql(
for $a in dataset D
for $b in dataset D
where $a.v = $b.id
return $a.id;)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().stats.profile);
  const hyracks::JobProfile& prof = *r.value().stats.profile;

  std::string path =
      dir_ + "/traces/job_" + std::to_string(prof.job_id) + ".trace.json";
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(env::ReadFile(path, &bytes).ok()) << path;
  std::string trace(bytes.begin(), bytes.end());

  Value v;
  ASSERT_TRUE(adm::ParseAdm(trace, &v).ok()) << trace;
  const auto& events = v.GetField("traceEvents").AsList();
  size_t complete = 0;
  size_t phase_events = 0;
  for (const auto& e : events) {
    if (e.GetField("ph").AsString() != "X") continue;
    if (e.GetField("cat").AsString() == "phase") {
      // Query-lifecycle rows (parse/optimize/admission/execute/result) live
      // on their own pid past the node rows.
      EXPECT_EQ(e.GetField("pid").AsInt(), 2);
      ++phase_events;
      continue;
    }
    ++complete;
    EXPECT_GE(e.GetField("dur").AsDouble(), 0.0);
    EXPECT_FALSE(e.GetField("name").AsString().empty());
    EXPECT_LT(e.GetField("pid").AsInt(), 2);  // pid = node
    const Value& args = e.GetField("args");
    EXPECT_GE(args.GetField("tuples_out").AsInt(), 0);
    EXPECT_EQ(args.GetField("partition").AsInt(), e.GetField("tid").AsInt());
  }
  EXPECT_EQ(complete, prof.spans.size());
  EXPECT_GT(phase_events, 0u);
}

// A primary-key lookup compiles to btree-range-scan[x4] -> select[x4] -> n:m
// -> select -> assign -> project -> result-sink. Each scan instance drives
// its select in one pipeline, and the gathering select drives assign,
// project and the sink: 12 operator instances, 5 tasks.
TEST_F(ObservabilityE2eTest, PrimaryKeyLookupRunsFivePipelines) {
  auto r = Run("for $d in dataset D where $d.id = 3 return $d.v;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().values.size(), 1u);
  EXPECT_EQ(r.value().values[0].AsInt(), 4);
  ASSERT_TRUE(r.value().stats.profile);
  const hyracks::JobProfile& prof = *r.value().stats.profile;
  ASSERT_EQ(prof.spans.size(), 12u) << r.value().job_plan;

  std::set<std::pair<int, int>> pipelines;  // (head op, instance)
  std::set<int> heads;
  for (const auto& s : prof.spans) {
    pipelines.insert({s.pipeline, s.instance});
    if (s.pipeline == s.op_id) heads.insert(s.op_id);
    EXPECT_TRUE(s.ok);
    EXPECT_GE(s.end_ms, s.start_ms);
  }
  EXPECT_EQ(pipelines.size(), 5u);
  ASSERT_EQ(heads.size(), 2u);
  for (const auto& s : prof.spans) {
    if (s.op_name.rfind("btree-range-scan", 0) == 0) {
      EXPECT_EQ(s.pipeline, s.op_id);
    }
    // Only a head reads a channel; fused instances still count their input.
    if (s.pipeline != s.op_id) {
      EXPECT_EQ(s.input_wait_us, 0u);
    }
  }
  // Every hop still counts, fused or not: scan -> select carries the one
  // matching record, and so does each 1:1 edge after the gather.
  uint64_t conn_total = 0;
  for (const auto& c : prof.connectors) {
    conn_total += c.tuples;
    EXPECT_EQ(c.tuples, 1u) << c.type << " " << c.src_op << "->" << c.dst_op;
  }
  EXPECT_EQ(conn_total, r.value().stats.connector_tuples);
  // The profile JSON names each span's pipeline.
  Value v;
  ASSERT_TRUE(adm::ParseAdm(prof.ToJson(), &v).ok()) << prof.ToJson();
  for (const auto& span : v.GetField("spans").AsList()) {
    EXPECT_TRUE(heads.count(static_cast<int>(span.GetField("pipeline").AsInt())));
  }
}

TEST_F(ObservabilityE2eTest, ExplainReturnsPlanAndAnalyzeAddsActuals) {
  auto ex = Run("explain for $a in dataset D return $a;");
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  ASSERT_EQ(ex.value().values.size(), 1u);
  std::string plan = ex.value().values[0].AsString();
  EXPECT_NE(plan.find("scan(D)"), std::string::npos) << plan;
  // EXPLAIN alone compiles but does not run: no actuals.
  EXPECT_EQ(plan.find("actual:"), std::string::npos) << plan;

  auto an = Run("explain analyze for $a in dataset D return $a;");
  ASSERT_TRUE(an.ok()) << an.status().ToString();
  ASSERT_EQ(an.value().values.size(), 1u);
  std::string analyzed = an.value().values[0].AsString();
  EXPECT_NE(analyzed.find("actual:"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("tuples_out=8"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("ms="), std::string::npos) << analyzed;
}

TEST_F(ObservabilityE2eTest, MetricsEndpointReflectsStorageAndTxnActivity) {
  auto q = Run("for $a in dataset D where $a.id = 3 return $a;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::string json = api::AsterixInstance::MetricsJson();
  Value v;
  ASSERT_TRUE(adm::ParseAdm(json, &v).ok()) << json;
  const Value& counters = v.GetField("counters");
  // The insert in SetUp went through the WAL and the executor.
  EXPECT_GT(counters.GetField("txn.wal.appends").AsInt(), 0);
  EXPECT_GT(counters.GetField("hyracks.jobs").AsInt(), 0);
  EXPECT_GT(counters.GetField("txn.lock.acquires").AsInt(), 0);
}

}  // namespace
}  // namespace asterix
