// Continuous-monitoring tests: windowed delta/rate math on the time-series
// ring (including counter-reset clamping), the background sampler, the
// Prometheus exposition, journal overwrite-drop accounting, the per-query
// resource ledger (attribution, top-N ranking, per-client table), the
// health watchdog's condition evaluation and journal alerts, LSM
// write-amplification / write-stall instrumentation, StatusJson's new
// sections (an expensive query must rank first by CPU), and a TSan hammer
// over sampler + watchdog + serving traffic + registry resets.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "adm/adm_parser.h"
#include "api/asterix.h"
#include "common/env.h"
#include "common/journal.h"
#include "common/ledger.h"
#include "common/metrics.h"
#include "common/timeseries.h"
#include "server/watchdog.h"

namespace asterix {
namespace {

monitor::Sample MakeSample(uint64_t ts_us,
                           std::map<std::string, int64_t> values) {
  monitor::Sample s;
  s.ts_us = ts_us;
  s.values = std::move(values);
  return s;
}

// ---------------------------------------------------------------------------
// TimeSeriesRing windowed math
// ---------------------------------------------------------------------------

TEST(TimeSeriesRingTest, WindowedDeltaAndRate) {
  monitor::TimeSeriesRing ring(16);
  ring.Push(MakeSample(0, {{"c", 100}}));
  ring.Push(MakeSample(1'000'000, {{"c", 150}}));
  ring.Push(MakeSample(2'000'000, {{"c", 300}}));
  // Full window: 300 - 100 over 2 seconds.
  EXPECT_EQ(ring.WindowedDelta("c", 10'000'000), 200);
  EXPECT_NEAR(ring.WindowedRate("c", 10'000'000), 100.0, 1e-6);
  // The window extends one sample past the cutoff to give the first
  // in-window sample a baseline, and the rate divides by the covered span:
  // window=1s includes the sample AT the cutoff plus its baseline at t=0.
  EXPECT_EQ(ring.WindowedDelta("c", 1'000'000), 200);
  EXPECT_NEAR(ring.WindowedRate("c", 1'000'000), 100.0, 1e-6);
  // Anything under the last gap covers only the final step.
  EXPECT_EQ(ring.WindowedDelta("c", 900'000), 150);
  EXPECT_NEAR(ring.WindowedRate("c", 900'000), 150.0, 1e-6);
}

TEST(TimeSeriesRingTest, BackwardsCounterTreatedAsReset) {
  monitor::TimeSeriesRing ring(16);
  ring.Push(MakeSample(0, {{"c", 1000}}));
  ring.Push(MakeSample(1'000'000, {{"c", 1500}}));
  // Registry Reset() between samples: counter restarts from zero.
  ring.Push(MakeSample(2'000'000, {{"c", 30}}));
  // 500 (first step) + 30 (post-reset value), never a wrapped huge delta
  // and never negative.
  EXPECT_EQ(ring.WindowedDelta("c", 10'000'000), 530);
  EXPECT_GE(ring.WindowedRate("c", 10'000'000), 0.0);
}

TEST(TimeSeriesRingTest, SeriesBornMidWindowContributesFirstValue) {
  monitor::TimeSeriesRing ring(16);
  ring.Push(MakeSample(0, {{"other", 1}}));
  ring.Push(MakeSample(1'000'000, {{"other", 1}, {"born", 40}}));
  ring.Push(MakeSample(2'000'000, {{"other", 1}, {"born", 55}}));
  EXPECT_EQ(ring.WindowedDelta("born", 10'000'000), 55);
  EXPECT_EQ(ring.WindowedDelta("missing", 10'000'000), 0);
}

TEST(TimeSeriesRingTest, CapacityBoundsAndLatest) {
  monitor::TimeSeriesRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.Push(MakeSample(static_cast<uint64_t>(i) * 1000, {{"c", i}}));
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.Latest().values.at("c"), 9);
  EXPECT_EQ(ring.LatestValue("c"), 9);
}

TEST(TimeSeriesRingTest, HistoryJsonShape) {
  monitor::TimeSeriesRing ring(8);
  ring.Push(MakeSample(5, {{"a.b", 1}}));
  ring.Push(MakeSample(10, {{"a.b", 2}}));
  std::string all = ring.HistoryJson();
  EXPECT_NE(all.find("\"samples\": 2"), std::string::npos);
  EXPECT_NE(all.find("\"ts_us\": 10"), std::string::npos);
  EXPECT_NE(all.find("\"a.b\": 2"), std::string::npos);
  // Trailing truncation.
  std::string one = ring.HistoryJson(1);
  EXPECT_NE(one.find("\"samples\": 1"), std::string::npos);
  EXPECT_EQ(one.find("\"ts_us\": 5,"), std::string::npos);
}

// ---------------------------------------------------------------------------
// MetricsSampler
// ---------------------------------------------------------------------------

TEST(MetricsSamplerTest, CollectsSamplesAndRunsProbesAndObserver) {
  metrics::MetricsRegistry reg;
  metrics::Counter* c = reg.GetCounter("test.counter");
  monitor::MetricsSampler::Options opts;
  opts.interval_ms = 1;
  opts.ring_capacity = 64;
  monitor::MetricsSampler sampler(&reg, opts);
  std::atomic<int> probed{0};
  std::atomic<int> observed{0};
  sampler.AddProbe([&] { probed.fetch_add(1); });
  sampler.SetObserver(
      [&](const monitor::TimeSeriesRing&) { observed.fetch_add(1); });
  sampler.Start();
  for (int i = 0; i < 50; ++i) {
    c->Inc(10);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
  EXPECT_GE(sampler.samples_taken(), 2u);
  EXPECT_GE(probed.load(), 2);
  EXPECT_EQ(observed.load(), static_cast<int>(sampler.samples_taken()));
  EXPECT_GT(sampler.ring().LatestValue("test.counter"), 0);
}

TEST(MetricsSamplerTest, ToleratesRegistryReset) {
  metrics::MetricsRegistry reg;
  metrics::Counter* c = reg.GetCounter("test.counter");
  monitor::MetricsSampler sampler(&reg, {});
  c->Inc(1000);
  sampler.SampleNow();
  reg.Reset();  // counter goes backwards
  c->Inc(10);
  sampler.SampleNow();
  EXPECT_EQ(sampler.ring().WindowedDelta("test.counter", 60'000'000), 10);
  EXPECT_GE(sampler.ring().WindowedRate("test.counter", 60'000'000), 0.0);
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

TEST(PrometheusTest, ExposesCountersGaugesHistograms) {
  metrics::MetricsRegistry reg;
  reg.GetCounter("storage.lsm.flushes")->Inc(7);
  reg.GetGauge("server.health-state")->Set(-2);
  metrics::Histogram* h = reg.GetHistogram("job.us", {10, 100});
  h->Observe(5);
  h->Observe(50);
  h->Observe(5000);
  std::string text = reg.ToPrometheus();
  EXPECT_NE(text.find("# TYPE asterix_storage_lsm_flushes counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("asterix_storage_lsm_flushes 7\n"), std::string::npos);
  // '.' and '-' both sanitize to '_'.
  EXPECT_NE(text.find("asterix_server_health_state -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE asterix_job_us histogram\n"), std::string::npos);
  // Buckets are cumulative.
  EXPECT_NE(text.find("asterix_job_us_bucket{le=\"10\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("asterix_job_us_bucket{le=\"100\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("asterix_job_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("asterix_job_us_sum 5055\n"), std::string::npos);
  EXPECT_NE(text.find("asterix_job_us_count 3\n"), std::string::npos);
}

TEST(PrometheusTest, ScalarSnapshotFlattensHistograms) {
  metrics::MetricsRegistry reg;
  reg.GetCounter("a")->Inc(3);
  reg.GetGauge("b")->Set(-1);
  metrics::Histogram* h = reg.GetHistogram("c", {10});
  h->Observe(4);
  h->Observe(40);
  auto scalars = reg.SnapshotScalars();
  EXPECT_EQ(scalars.at("a"), 3);
  EXPECT_EQ(scalars.at("b"), -1);
  EXPECT_EQ(scalars.at("c.count"), 2);
  EXPECT_EQ(scalars.at("c.sum"), 44);
}

// ---------------------------------------------------------------------------
// Journal overwrite drops
// ---------------------------------------------------------------------------

TEST(JournalDropsTest, CountsOnlyNeverSnapshottedOverwrites) {
  journal::Journal j(64);
  ASSERT_EQ(j.capacity(), 64u);
  for (int i = 0; i < 64; ++i) j.Post(journal::EventKind::kSpill, i);
  EXPECT_EQ(j.overwrite_drops(), 0u);
  // A snapshot makes seq 1..64 "seen"; lapping them is not a drop.
  (void)j.Snapshot();
  for (int i = 0; i < 64; ++i) j.Post(journal::EventKind::kSpill, i);
  EXPECT_EQ(j.overwrite_drops(), 0u);
  // No snapshot saw seq 65..128; lapping them drops all 64.
  for (int i = 0; i < 64; ++i) j.Post(journal::EventKind::kSpill, i);
  EXPECT_EQ(j.overwrite_drops(), 64u);
}

// ---------------------------------------------------------------------------
// Resource ledger
// ---------------------------------------------------------------------------

TEST(ResourceLedgerTest, AttributesAndRanks) {
  ledger::ResourceLedger led(8);
  led.Begin(1, "alice", "cheap query");
  led.Begin(2, "bob", "expensive query");
  led.AddCpu(1, 100);
  led.AddCpu(2, 9000);
  led.AddBytesRead(1, 1 << 20);
  led.AddSpill(2, 500);
  led.AddAdmissionWait(2, 77);
  // Unknown / zero ids are silently ignored.
  led.AddCpu(999, 5);
  led.AddCpu(0, 5);
  led.Finish(1, true, 1000);
  led.Finish(2, false, 2000);

  auto by_cpu = led.TopByCpu(2);
  ASSERT_EQ(by_cpu.size(), 2u);
  EXPECT_EQ(by_cpu[0].query_id, 2u);
  EXPECT_EQ(by_cpu[0].cpu_us, 9000u);
  EXPECT_FALSE(by_cpu[0].ok);
  EXPECT_EQ(by_cpu[0].admission_wait_us, 77u);

  auto by_bytes = led.TopByBytes(1);
  ASSERT_EQ(by_bytes.size(), 1u);
  EXPECT_EQ(by_bytes[0].query_id, 1u);  // 1 MiB read beats 500 spill bytes
  EXPECT_EQ(by_bytes[0].total_bytes(), static_cast<uint64_t>(1 << 20));

  led.RecordServed("alice", ledger::CacheOutcome::kHit);
  led.RecordServed("alice", ledger::CacheOutcome::kCoalesced);
  auto clients = led.Clients();
  ASSERT_EQ(clients.size(), 2u);  // alice, bob
  for (const auto& c : clients) {
    if (c.client == "alice") {
      EXPECT_EQ(c.queries, 1u);
      EXPECT_EQ(c.failures, 0u);
      EXPECT_EQ(c.cache_hits, 1u);
      EXPECT_EQ(c.coalesced, 1u);
      EXPECT_EQ(c.cpu_us, 100u);
    } else {
      EXPECT_EQ(c.client, "bob");
      EXPECT_EQ(c.failures, 1u);
      EXPECT_EQ(c.spill_bytes, 500u);
    }
  }
  std::string top = led.TopJson(5);
  EXPECT_NE(top.find("\"by_cpu\""), std::string::npos);
  EXPECT_NE(top.find("expensive query"), std::string::npos);
  std::string cj = led.ClientsJson();
  EXPECT_NE(cj.find("\"alice\""), std::string::npos);
}

TEST(ResourceLedgerTest, LiveQueriesRankAndFinishedRingIsBounded) {
  ledger::ResourceLedger led(2);
  led.Begin(10, "c", "live one");
  led.AddCpu(10, 500);
  auto live_top = led.TopByCpu(1);
  ASSERT_EQ(live_top.size(), 1u);
  EXPECT_FALSE(live_top[0].finished);
  for (uint64_t q = 20; q < 25; ++q) {
    led.Begin(q, "c", "f");
    led.Finish(q, true, 1);
  }
  // retain=2: only the last two finished entries survive, plus the live one.
  EXPECT_EQ(led.TopByCpu(100).size(), 3u);
  auto clients = led.Clients();
  ASSERT_EQ(clients.size(), 1u);
  EXPECT_EQ(clients[0].queries, 5u);  // cumulative despite the bounded ring
}

// ---------------------------------------------------------------------------
// Health watchdog
// ---------------------------------------------------------------------------

TEST(WatchdogTest, BackpressureEscalatesAndRecovers) {
  server::HealthWatchdog dog(server::WatchdogOptions{});
  monitor::TimeSeriesRing ring(32);
  ring.Push(MakeSample(0, {{"hyracks.backpressure_wait_us.sum", 0}}));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kOk);
  // 2M us of backpressure in one second >> the 500k/s critical threshold.
  ring.Push(MakeSample(1'000'000,
                       {{"hyracks.backpressure_wait_us.sum", 2'000'000}}));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kCritical);
  uint64_t after_spike = dog.transitions();
  EXPECT_GE(after_spike, 1u);
  // Far enough later that the spike leaves the 5s window: flat samples.
  ring.Push(MakeSample(10'000'000,
                       {{"hyracks.backpressure_wait_us.sum", 2'000'000}}));
  ring.Push(MakeSample(11'000'000,
                       {{"hyracks.backpressure_wait_us.sum", 2'000'000}}));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kOk);
  EXPECT_GT(dog.transitions(), after_spike);
  // The transition landed in the journal as a health event.
  bool found = false;
  for (const auto& e : journal::Journal::Default().Snapshot()) {
    if (e.kind == journal::EventKind::kHealth &&
        std::string(e.label) == "backpressure") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(WatchdogTest, ExecutorSaturationSustainedGoesCritical) {
  server::WatchdogOptions opts;
  opts.saturation_critical_samples = 3;
  server::HealthWatchdog dog(opts);
  monitor::TimeSeriesRing ring(8);
  ring.Push(MakeSample(0, {{"hyracks.pool_threads", 4},
                           {"hyracks.pool.busy_threads", 4},
                           {"hyracks.pool.queued_tasks", 9}}));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kWarn);
  dog.Evaluate(ring);
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kCritical);
  std::string json = dog.SummaryJson();
  EXPECT_NE(json.find("\"overall\": \"critical\""), std::string::npos);
  EXPECT_NE(json.find("executor_saturation"), std::string::npos);
}

TEST(WatchdogTest, AdmissionRejectsGoCritical) {
  server::HealthWatchdog dog(server::WatchdogOptions{});
  monitor::TimeSeriesRing ring(8);
  ring.Push(MakeSample(0, {{"server.admission.rejected_queue_full", 0}}));
  ring.Push(MakeSample(1'000'000,
                       {{"server.admission.rejected_queue_full", 5}}));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kCritical);
  auto conditions = dog.Conditions();
  bool found = false;
  for (const auto& c : conditions) {
    if (c.name == "admission_queue") {
      found = true;
      EXPECT_EQ(c.state, server::HealthState::kCritical);
      EXPECT_NE(c.detail.find("5 rejects"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
}

TEST(WatchdogTest, MemoryPoolExhaustionWithWaiters) {
  server::HealthWatchdog dog(server::WatchdogOptions{});
  monitor::TimeSeriesRing ring(8);
  ring.Push(MakeSample(0, {{"server.admission.pool_bytes", 1000},
                           {"server.admission.used_bytes", 1000},
                           {"server.admission.queue_depth", 3}}));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kCritical);
  ring.Push(MakeSample(1'000'000, {{"server.admission.pool_bytes", 1000},
                                   {"server.admission.used_bytes", 900},
                                   {"server.admission.queue_depth", 0}}));
  dog.Evaluate(ring);
  EXPECT_EQ(dog.overall(), server::HealthState::kWarn);  // 0.9 >= 0.85
}

// ---------------------------------------------------------------------------
// End to end through the instance
// ---------------------------------------------------------------------------

class MonitoringE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("monitoring-e2e");
    api::InstanceConfig config;
    config.base_dir = dir_;
    config.cluster.job_startup_us = 0;
    config.monitor_interval_ms = 5;
    db_ = std::make_unique<api::AsterixInstance>(config);
    ASSERT_TRUE(db_->Boot().ok());
    ledger::ResourceLedger::Default().Reset();
    ASSERT_TRUE(db_->Execute(R"aql(
create dataverse Mon; use dataverse Mon;
create type T as { id: int64, v: int64 }
create dataset D(T) primary key id;
create dataset S(T) primary key id;
)aql")
                    .ok());
    std::vector<adm::Value> big, small;
    for (int64_t i = 0; i < 600; ++i) {
      big.push_back(adm::RecordBuilder()
                        .Add("id", adm::Value::Int64(i))
                        .Add("v", adm::Value::Int64(i % 97))
                        .Build());
    }
    for (int64_t i = 0; i < 50; ++i) {
      small.push_back(adm::RecordBuilder()
                          .Add("id", adm::Value::Int64(i))
                          .Add("v", adm::Value::Int64(i))
                          .Build());
    }
    ASSERT_TRUE(db_->FindDataset("Mon.D")->LoadBulk(big).ok());
    ASSERT_TRUE(db_->FindDataset("Mon.S")->LoadBulk(small).ok());
  }

  void TearDown() override {
    db_.reset();
    env::RemoveAll(dir_);
  }

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> db_;
};

TEST_F(MonitoringE2ETest, ExpensiveQueryRanksFirstByCpuAndBytes) {
  // Statement text is client input: a control byte in it must reach both
  // rankings escaped, so each stays valid JSON.
  ASSERT_TRUE(
      db_->Execute("let $x := \"a\x01" "b\" return string-length($x);")
          .ok());
  for (const std::string& json :
       {ledger::ResourceLedger::Default().TopJson(5), db_->StatusJson()}) {
    EXPECT_EQ(std::count_if(json.begin(), json.end(),
                            [](char c) {
                              return static_cast<unsigned char>(c) < 0x20;
                            }),
              0)
        << json;
    adm::Value parsed;
    EXPECT_TRUE(adm::ParseAdm(json, &parsed).ok()) << json;
  }

  // A few cheap queries, then one deliberately expensive self-join.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        db_->Execute("count(for $s in dataset Mon.S return $s)").ok());
  }
  const std::string expensive =
      "count(for $a in dataset Mon.D for $b in dataset Mon.D "
      "where $a.v = $b.v return 1)";
  ASSERT_TRUE(db_->Execute(expensive).ok());

  auto& led = ledger::ResourceLedger::Default();
  auto by_cpu = led.TopByCpu(5);
  ASSERT_FALSE(by_cpu.empty());
  EXPECT_NE(by_cpu[0].statement.find("$a in dataset Mon.D"),
            std::string::npos)
      << "top-by-cpu was: " << by_cpu[0].statement;
  EXPECT_GT(by_cpu[0].cpu_us, 0u);
  auto by_bytes = led.TopByBytes(5);
  ASSERT_FALSE(by_bytes.empty());
  EXPECT_NE(by_bytes[0].statement.find("$a in dataset Mon.D"),
            std::string::npos)
      << "top-by-bytes was: " << by_bytes[0].statement;
  EXPECT_GT(by_bytes[0].bytes_read, 0u);

  // StatusJson serves the same ranking plus rates and health.
  std::string status = db_->StatusJson();
  EXPECT_NE(status.find("\"top_queries\""), std::string::npos);
  EXPECT_NE(status.find("$a in dataset Mon.D"), std::string::npos);
  EXPECT_NE(status.find("\"rates\""), std::string::npos);
  EXPECT_NE(status.find("\"queries_per_sec\""), std::string::npos);
  EXPECT_NE(status.find("\"health\""), std::string::npos);
  EXPECT_NE(status.find("\"overall\""), std::string::npos);
  EXPECT_NE(status.find("\"clients\""), std::string::npos);
  EXPECT_NE(status.find("\"overwrite_drops\""), std::string::npos);
}

TEST_F(MonitoringE2ETest, SamplerRunsAndHistoryJsonHasData) {
  ASSERT_NE(db_->sampler(), nullptr);
  ASSERT_NE(db_->watchdog(), nullptr);
  ASSERT_TRUE(db_->Execute("count(for $s in dataset Mon.S return $s)").ok());
  // 5ms interval: a couple of refreshes land quickly.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  db_->sampler()->SampleNow();
  EXPECT_GE(db_->sampler()->ring().size(), 2u);
  std::string history = db_->HistoryJson(10);
  EXPECT_NE(history.find("\"data\""), std::string::npos);
  EXPECT_NE(history.find("api.queries"), std::string::npos);
  std::string prom = api::AsterixInstance::MetricsPrometheus();
  EXPECT_NE(prom.find("asterix_api_queries"), std::string::npos);
}

TEST_F(MonitoringE2ETest, ClientAttributionAcrossAsyncServes) {
  api::ServeOptions a, b;
  a.client_id = "tenant-a";
  b.client_id = "tenant-b";
  const std::string q = "count(for $s in dataset Mon.S return $s)";
  auto ha = db_->ServeAsync(q, a);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(db_->GetAsyncResult(ha.value()).ok());
  // Same script again from b: served from cache or executed — either way it
  // must land in b's row, not a's.
  auto hb = db_->ServeAsync(q, b);
  ASSERT_TRUE(hb.ok());
  ASSERT_TRUE(db_->GetAsyncResult(hb.value()).ok());

  bool saw_a = false, saw_b = false;
  for (const auto& c : ledger::ResourceLedger::Default().Clients()) {
    if (c.client == "tenant-a") {
      saw_a = true;
      EXPECT_EQ(c.queries, 1u);
    }
    if (c.client == "tenant-b") {
      saw_b = true;
      EXPECT_EQ(c.queries + c.cache_hits + c.coalesced, 1u);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(MonitoringDisabledTest, InstanceWorksWithoutSampler) {
  std::string dir = env::NewScratchDir("monitoring-off");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.enable_monitoring = false;
  {
    api::AsterixInstance db(config);
    ASSERT_TRUE(db.Boot().ok());
    EXPECT_EQ(db.sampler(), nullptr);
    EXPECT_EQ(db.watchdog(), nullptr);
    std::string status = db.StatusJson();
    EXPECT_NE(status.find("\"rates\": null"), std::string::npos);
    EXPECT_NE(status.find("\"health\": null"), std::string::npos);
    EXPECT_NE(db.HistoryJson().find("\"samples\": 0"), std::string::npos);
  }
  env::RemoveAll(dir);
}

// ---------------------------------------------------------------------------
// LSM write amplification + write stalls
// ---------------------------------------------------------------------------

TEST(WriteAmplificationTest, IngestFlushesStallAndAmplify) {
  std::string dir = env::NewScratchDir("writeamp");
  api::InstanceConfig config;
  config.base_dir = dir;
  config.enable_monitoring = false;
  config.lsm.mem_budget_bytes = 4096;  // tiny memtable: every few rows flush
  // Inline maintenance: this test asserts the writer itself pays the flush
  // (write stalls + kWriteStall events), which async compaction hides.
  config.async_compaction = false;
  auto& reg = metrics::MetricsRegistry::Default();
  uint64_t ingested_before =
      reg.GetCounter("storage.lsm.bytes_ingested")->value();
  uint64_t stalls_before =
      reg.GetHistogram("storage.lsm.write_stall_us")->count();
  {
    api::AsterixInstance db(config);
    ASSERT_TRUE(db.Boot().ok());
    ASSERT_TRUE(db.Execute(R"aql(
create dataverse W; use dataverse W;
create type T as { id: int64, pad: string }
create dataset D(T) primary key id;
)aql")
                    .ok());
    std::string pad(256, 'x');
    for (int64_t i = 0; i < 64; ++i) {
      ASSERT_TRUE(db.Execute("insert into dataset W.D ([{ \"id\": " +
                             std::to_string(i) + ", \"pad\": \"" + pad +
                             "\" }]);")
                      .ok());
    }
    EXPECT_GT(reg.GetCounter("storage.lsm.bytes_ingested")->value(),
              ingested_before);
    EXPECT_GT(reg.GetHistogram("storage.lsm.write_stall_us")->count(),
              stalls_before);
    EXPECT_GT(reg.GetGauge("storage.lsm.write_amplification_x1000")->value(),
              0);
    std::string status = db.StatusJson();
    EXPECT_NE(status.find("\"write_amplification\""), std::string::npos);
    EXPECT_NE(status.find("\"write_stalls\""), std::string::npos);
    // Stall events carry the tree label into the journal.
    bool stall_event = false;
    for (const auto& e : journal::Journal::Default().Snapshot()) {
      if (e.kind == journal::EventKind::kWriteStall) stall_event = true;
    }
    EXPECT_TRUE(stall_event);
  }
  env::RemoveAll(dir);
}

// ---------------------------------------------------------------------------
// Thread-safety hammer (meaningful under -DASTERIX_SANITIZE=thread)
// ---------------------------------------------------------------------------

TEST(MonitoringHammerTest, SamplerWatchdogServingAndResetsRace) {
  std::string dir = env::NewScratchDir("monitoring-hammer");
  {
    api::InstanceConfig config;
    config.base_dir = dir;
    config.cluster.job_startup_us = 0;
    config.monitor_interval_ms = 1;  // aggressive: sample constantly
    config.monitor_ring_samples = 128;
    api::AsterixInstance db(config);
    ASSERT_TRUE(db.Boot().ok());
    ASSERT_TRUE(db.Execute(R"aql(
create dataverse H; use dataverse H;
create type T as { id: int64, v: int64 }
create dataset D(T) primary key id;
)aql")
                    .ok());
    std::vector<adm::Value> rows;
    for (int64_t i = 0; i < 200; ++i) {
      rows.push_back(adm::RecordBuilder()
                         .Add("id", adm::Value::Int64(i))
                         .Add("v", adm::Value::Int64(i % 7))
                         .Build());
    }
    ASSERT_TRUE(db.FindDataset("H.D")->LoadBulk(rows).ok());

    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    // Serving traffic from two clients.
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        api::ServeOptions opts;
        opts.client_id = "hammer-" + std::to_string(c);
        while (!stop.load(std::memory_order_acquire)) {
          (void)db.Serve("count(for $d in dataset H.D return $d)", opts);
        }
      });
    }
    // Registry resets racing the sampler (the bench-epoch pattern).
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        metrics::MetricsRegistry::Default().Reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
    // Introspection readers racing everything.
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::string s = db.StatusJson();
        EXPECT_FALSE(s.empty());
        std::string h = db.HistoryJson(16);
        EXPECT_FALSE(h.empty());
        (void)api::AsterixInstance::MetricsPrometheus();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    stop = true;
    for (auto& t : threads) t.join();
    EXPECT_GE(db.sampler()->samples_taken(), 10u);
    // Rates must remain finite and non-negative despite the resets.
    double rate =
        db.sampler()->ring().WindowedRate("api.queries", 5'000'000);
    EXPECT_GE(rate, 0.0);
  }
  env::RemoveAll(dir);
}

}  // namespace
}  // namespace asterix
