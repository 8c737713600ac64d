// Frame-at-a-time dataflow tests: bounded-channel backpressure semantics,
// heap-merge correctness under randomized threaded interleavings, teardown
// deadlock-freedom, input accounting of channel-fed heads, batch-only
// vector operators, fused push pipelines (task count, CPU attribution,
// failure inside a fused stage), and executor-pool thread reuse across jobs.

#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "hyracks/channel.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"

namespace asterix {
namespace hyracks {
namespace {

using adm::Value;

Tuple T(int64_t v) { return Tuple{Value::Int64(v)}; }

Frame OneTupleFrame(int64_t v) { return Frame{{T(v)}}; }

// ---------------------------------------------------------------------------
// Bounded-capacity semantics
// ---------------------------------------------------------------------------

TEST(BoundedChannelTest, ProducerBlocksAtCapacityAndUnblocksOnConsume) {
  FifoChannel ch(1, /*capacity_frames=*/2);
  ch.Push(0, OneTupleFrame(1));
  ch.Push(0, OneTupleFrame(2));  // at capacity; next push must block
  std::atomic<bool> third_landed{false};
  std::thread producer([&] {
    ch.Push(0, OneTupleFrame(3));
    third_landed.store(true);
    ch.ProducerDone(0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_landed.load());
  EXPECT_EQ(ch.queued_frames(), 2u);

  Frame f;
  auto r = ch.NextFrame(&f);  // frees one slot
  ASSERT_TRUE(r.ok() && r.value());
  producer.join();
  EXPECT_TRUE(third_landed.load());

  std::vector<int64_t> rest;
  while (true) {
    auto rr = ch.NextFrame(&f);
    ASSERT_TRUE(rr.ok());
    if (!rr.value()) break;
    for (auto& t : f.tuples) rest.push_back(t[0].AsInt());
  }
  EXPECT_EQ(rest, (std::vector<int64_t>{2, 3}));
}

TEST(BoundedChannelTest, FailReleasesBlockedProducer) {
  FifoChannel ch(1, /*capacity_frames=*/1);
  ch.Push(0, OneTupleFrame(1));
  std::atomic<bool> released{false};
  std::thread producer([&] {
    ch.Push(0, OneTupleFrame(2));  // blocks: channel full
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(released.load());
  ch.Fail(Status::Internal("downstream died"));
  producer.join();
  EXPECT_TRUE(released.load());
  Frame f;
  auto r = ch.NextFrame(&f);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(BoundedChannelTest, CancelConsumerReleasesProducersAndDropsFrames) {
  FifoChannel ch(1, /*capacity_frames=*/1);
  ch.Push(0, OneTupleFrame(1));
  std::atomic<bool> released{false};
  std::thread producer([&] {
    ch.Push(0, OneTupleFrame(2));  // blocks
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ch.CancelConsumer();
  producer.join();
  EXPECT_TRUE(released.load());
  EXPECT_EQ(ch.queued_frames(), 0u);  // queued frame dropped
  ch.Push(0, OneTupleFrame(3));       // post-cancel pushes are no-ops
  EXPECT_EQ(ch.queued_frames(), 0u);
}

TEST(BoundedChannelTest, MergeChannelFailReleasesBlockedProducer) {
  TupleCompare cmp = [](const Tuple& a, const Tuple& b) {
    return a[0].Compare(b[0]);
  };
  MergeChannel ch(2, cmp, /*capacity_frames=*/1);
  ch.Push(0, OneTupleFrame(1));
  std::atomic<bool> released{false};
  std::thread producer([&] {
    ch.Push(0, OneTupleFrame(2));  // producer 0 is at its per-producer cap
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(released.load());
  ch.Fail(Status::Internal("boom"));
  producer.join();
  EXPECT_TRUE(released.load());
}

// A fast producer against a deliberately slow consumer: the queue must never
// exceed the configured capacity.
TEST(BoundedChannelTest, FastProducerSlowConsumerBoundsQueue) {
  constexpr size_t kCapacity = 4;
  constexpr int kFrames = 64;
  FifoChannel ch(1, kCapacity);
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) ch.Push(0, OneTupleFrame(i));
    ch.ProducerDone(0);
  });
  size_t max_queued = 0;
  int got = 0;
  Frame f;
  while (true) {
    max_queued = std::max(max_queued, ch.queued_frames());
    auto r = ch.NextFrame(&f);
    ASSERT_TRUE(r.ok());
    if (!r.value()) break;
    got += static_cast<int>(f.tuples.size());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  producer.join();
  EXPECT_EQ(got, kFrames);
  EXPECT_LE(max_queued, kCapacity);
  EXPECT_GT(max_queued, 0u);
}

// ---------------------------------------------------------------------------
// Heap-merge correctness under randomized threaded interleavings
// ---------------------------------------------------------------------------

TEST(MergeChannelTest, RandomizedInterleavingsProduceGlobalOrder) {
  TupleCompare cmp = [](const Tuple& a, const Tuple& b) {
    return a[0].Compare(b[0]);
  };
  constexpr int kProducers = 4;
  constexpr int64_t kTotal = 4000;
  // Bounded per producer, so producers and the merging consumer exercise
  // the backpressure path too.
  MergeChannel ch(kProducers, cmp, /*capacity_frames=*/2);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937 rng(static_cast<unsigned>(1234 + p));
      std::uniform_int_distribution<int> frame_size(1, 7);
      Frame frame;
      // Producer p owns the sorted stream p, p+K, p+2K, ...
      for (int64_t v = p; v < kTotal; v += kProducers) {
        frame.tuples.push_back(T(v));
        if (static_cast<int>(frame.tuples.size()) >= frame_size(rng)) {
          ch.Push(p, std::move(frame));
          frame = Frame{};
          if (rng() % 8 == 0) std::this_thread::yield();
        }
      }
      if (!frame.tuples.empty()) ch.Push(p, std::move(frame));
      ch.ProducerDone(p);
    });
  }
  std::vector<int64_t> got;
  Frame f;
  while (true) {
    auto r = ch.NextFrame(&f);
    ASSERT_TRUE(r.ok());
    if (!r.value()) break;
    for (auto& t : f.tuples) got.push_back(t[0].AsInt());
  }
  for (auto& t : producers) t.join();
  ASSERT_EQ(got.size(), static_cast<size_t>(kTotal));
  for (int64_t i = 0; i < kTotal; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// Job-level: teardown under backpressure, profile wait accounting
// ---------------------------------------------------------------------------

OperatorDescriptor MakeCountingSource(int parallelism, int64_t tuples_each) {
  OperatorDescriptor op;
  op.name = "source";
  op.parallelism = parallelism;
  op.num_inputs = 0;
  op.source = [tuples_each](int, Emitter* out) {
    for (int64_t i = 0; i < tuples_each; ++i) out->Push(T(i));
    return Status::OK();
  };
  return op;
}

// A consumer that fails while its producer is blocked on a full channel must
// not deadlock the job: CancelConsumer releases the producer.
TEST(DataflowJobTest, OperatorFailureWhileProducerBlockedDoesNotDeadlock) {
  ClusterConfig config{1, 2, 0, ""};
  config.channel_capacity_frames = 2;  // 2 frames = 512 tuples of headroom
  Cluster cluster(config);

  JobSpec job;
  int src = job.AddOperator(MakeCountingSource(2, 50000));
  OperatorDescriptor failer;
  failer.name = "failer";
  failer.parallelism = 2;
  failer.num_inputs = 1;
  failer.push = [](int, Emitter*) -> std::unique_ptr<PushOperator> {
    class F : public PushOperator {
     public:
      Status Consume(int, Frame&) override {
        // Give the sources time to fill the bounded channels and block.
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return Status::Internal("induced failure");
      }
      Status Close(int) override { return Status::OK(); }
    };
    return std::make_unique<F>();
  };
  int dst = job.AddOperator(std::move(failer));
  // An exchange, so the failer reads a channel the sources can fill: across
  // a 1:1 connector it would run fused, on its producer's thread.
  job.Connect(ConnectorType::kMToNPartitioning, src, dst, 0,
              HashOnColumns({0}));

  auto r = cluster.ExecuteJob(job);  // must return (not hang) with the error
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(DataflowJobTest, ProfileRecordsInputWaitForStarvedConsumer) {
  ClusterConfig config{1, 1, 0, ""};
  Cluster cluster(config);

  JobSpec job;
  OperatorDescriptor slow;
  slow.name = "slow-source";
  slow.parallelism = 1;
  slow.num_inputs = 0;
  slow.source = [](int, Emitter* out) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    out->Push(T(1));
    return Status::OK();
  };
  int src = job.AddOperator(std::move(slow));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  // An exchange, so the sink reads a channel: across a 1:1 connector it
  // would be fused into the source's pipeline and never wait for input.
  job.Connect(ConnectorType::kMToNPartitioning, src, dst, 0,
              HashOnColumns({0}));

  auto r = cluster.ExecuteJob(job);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(sink->size(), 1u);
  uint64_t sink_wait = 0;
  for (const auto& s : r.value().profile->spans) {
    if (s.op_name == "result-sink") sink_wait = s.input_wait_us;
  }
  // The sink sat blocked for ~30ms waiting on the slow source.
  EXPECT_GT(sink_wait, 5000u);
  // And the wait shows up in the rendered profile JSON.
  EXPECT_NE(r.value().profile->ToJson().find("\"input_wait_us\""),
            std::string::npos);
}

// A head drains every input port itself and counts what it takes in: a hash
// join's tuples_in is its build tuples plus its probe tuples.
TEST(DataflowJobTest, HashJoinTuplesInCountsBuildAndProbe) {
  ClusterConfig config{1, 2, 0, ""};
  Cluster cluster(config);

  JobSpec job;
  int build = job.AddOperator(MakeCountingSource(2, 300));
  int probe = job.AddOperator(MakeCountingSource(2, 700));
  TupleEval col0 = [](const Tuple& t) -> Result<Value> { return t[0]; };
  int join = job.AddOperator(MakeHybridHashJoin(2, {col0}, {col0},
                                                /*build_arity=*/1,
                                                /*left_outer=*/false));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kMToNPartitioning, build, join, 0,
              HashOnColumns({0}));
  job.Connect(ConnectorType::kMToNPartitioning, probe, join, 1,
              HashOnColumns({0}));
  job.Connect(ConnectorType::kMToNPartitioning, join, dst, 0,
              HashOnColumns({0}));

  auto r = cluster.ExecuteJob(job);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Keys 0..299 arrive twice on each side: four matches per key.
  EXPECT_EQ(sink->size(), 300u * 4);
  uint64_t join_in = 0;
  for (const auto& s : r.value().profile->spans) {
    if (s.op_name != "hybrid-hash-join") continue;
    EXPECT_GT(s.tuples_in, 0u);
    join_in += s.tuples_in;
  }
  EXPECT_EQ(join_in, 2u * 300 + 2u * 700);
}

// Vectorized operators take batches only: a row frame fails the job instead
// of being dropped.
TEST(DataflowJobTest, RowFrameIntoVectorOperatorFails) {
  ClusterConfig config{1, 1, 0, ""};
  Cluster cluster(config);

  JobSpec job;
  int src = job.AddOperator(MakeValueScan({T(1), T(2)}));
  int mat = job.AddOperator(MakeVectorMaterialize(1));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, src, mat);
  job.Connect(ConnectorType::kOneToOne, mat, dst);

  auto r = cluster.ExecuteJob(job);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(sink->empty());
}

// ---------------------------------------------------------------------------
// Fused push pipelines
// ---------------------------------------------------------------------------

uint64_t ThreadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000u +
         static_cast<uint64_t>(ts.tv_nsec) / 1000u;
}

// source -> 1:1 -> select -> 1:1 -> result-sink runs as one pipeline on one
// thread, and the CPU a fused stage burns lands in its own span, not in the
// head's that handed it the frames.
TEST(FusedPipelineTest, FusedStageCpuLandsInItsOwnSpan) {
  ClusterConfig config{1, 1, 0, ""};
  Cluster cluster(config);
  JobSpec job;
  int src = job.AddOperator(MakeCountingSource(1, 400));
  // ~50us of CPU per tuple: ~20ms in the select.
  int sel = job.AddOperator(MakeSelect(1, [](const Tuple&) -> Result<Value> {
    uint64_t until = ThreadCpuUs() + 50;
    while (ThreadCpuUs() < until) {
    }
    return Value::Boolean(true);
  }));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, src, sel);
  job.Connect(ConnectorType::kOneToOne, sel, dst);

  auto r = cluster.ExecuteJob(job);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(sink->size(), 400u);
  const JobProfile& prof = *r.value().profile;
  ASSERT_EQ(prof.spans.size(), 3u);
  const OperatorSpan& source = prof.spans[0];
  const OperatorSpan& select = prof.spans[1];
  for (const auto& s : prof.spans) EXPECT_EQ(s.pipeline, src);
  EXPECT_GE(select.cpu_us, 15000u);
  EXPECT_LT(source.cpu_us, select.cpu_us / 4);
  EXPECT_EQ(select.tuples_in, 400u);
  EXPECT_EQ(select.tuples_out, 400u);
  EXPECT_EQ(prof.spans[2].tuples_in, 400u);
  // Fused hops still count as connector tuples.
  EXPECT_EQ(r.value().connector_tuples, 800u);
}

// A fused stage fails while its head (a channel-fed select behind an
// exchange) has producers blocked on its full input channel: the job ends
// with the stage's error, the producers are released, nothing hangs.
TEST(FusedPipelineTest, FailingFusedStageBehindBlockedHeadReturnsItsError) {
  ClusterConfig config{1, 2, 0, ""};
  config.channel_capacity_frames = 2;
  Cluster cluster(config);
  JobSpec job;
  int src = job.AddOperator(MakeCountingSource(2, 50000));
  int head = job.AddOperator(MakeSelect(1, [](const Tuple&) -> Result<Value> {
    return Value::Boolean(true);
  }));
  int failing = job.AddOperator(
      MakeSelect(1, [](const Tuple& t) -> Result<Value> {
        if (t[0].AsInt() == 0) {
          // Let the sources fill the bounded channel and block first.
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          return Status::Internal("predicate failed");
        }
        return Value::Boolean(true);
      }));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kMToNPartitioning, src, head, 0,
              HashOnColumns({0}));
  job.Connect(ConnectorType::kOneToOne, head, failing);
  job.Connect(ConnectorType::kOneToOne, failing, dst);

  auto r = cluster.ExecuteJob(job);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.status().message(), "predicate failed");
  EXPECT_TRUE(sink->empty());
}

// ---------------------------------------------------------------------------
// Executor pool: thread reuse and on-demand growth
// ---------------------------------------------------------------------------

Result<JobStats> RunTinyJob(Cluster* cluster) {
  JobSpec job;
  int src = job.AddOperator(MakeValueScan({T(1), T(2), T(3)}));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, src, dst);
  return cluster->ExecuteJob(job);
}

TEST(ExecutorPoolTest, RepeatedSmallJobsReusePoolThreads) {
  ClusterConfig config{1, 1, 0, ""};
  Cluster cluster(config);
  ASSERT_TRUE(RunTinyJob(&cluster).ok());
  uint64_t created_after_first = cluster.pool().threads_created();
  for (int i = 0; i < 19; ++i) ASSERT_TRUE(RunTinyJob(&cluster).ok());
  // 20 jobs, zero new threads after the first: the pool is persistent.
  EXPECT_EQ(cluster.pool().threads_created(), created_after_first);
  EXPECT_EQ(cluster.jobs_executed(), 20u);
}

/// Consumes and discards its input. Fed across a locality-aware exchange
/// (instance p to instance p, like 1:1, but through a channel), each
/// instance runs as a pipeline of its own.
OperatorDescriptor MakeDrain(int parallelism) {
  OperatorDescriptor drain;
  drain.name = "drain";
  drain.parallelism = parallelism;
  drain.num_inputs = 1;
  drain.push = [](int, Emitter*) -> std::unique_ptr<PushOperator> {
    class D : public PushOperator {
     public:
      Status Consume(int, Frame&) override { return Status::OK(); }
      Status Close(int) override { return Status::OK(); }
    };
    return std::make_unique<D>();
  };
  return drain;
}

TEST(ExecutorPoolTest, PoolGrowsToFullyThreadWideJobs) {
  ClusterConfig config{1, 1, 0, ""};  // boot pool: 2 threads
  Cluster cluster(config);
  size_t boot_threads = cluster.pool().threads_alive();

  JobSpec job;
  int src = job.AddOperator(MakeCountingSource(8, 100));
  int dst = job.AddOperator(MakeDrain(8));
  job.Connect(ConnectorType::kLocalityAwareMToNPartitioning, src, dst);
  ASSERT_TRUE(cluster.ExecuteJob(job).ok());

  // 16 pipelined instances need 16 live threads (each may block on channel
  // I/O served by a peer), so the pool grew past its boot size...
  EXPECT_GT(cluster.pool().threads_alive(), boot_threads);
  EXPECT_GE(cluster.pool().threads_alive(), 16u);
  // ...and the growth sticks: the same job again creates no new threads.
  uint64_t created = cluster.pool().threads_created();
  JobSpec again;
  int src2 = again.AddOperator(MakeCountingSource(8, 100));
  int dst2 = again.AddOperator(MakeDrain(8));
  again.Connect(ConnectorType::kLocalityAwareMToNPartitioning, src2, dst2);
  ASSERT_TRUE(cluster.ExecuteJob(again).ok());
  EXPECT_EQ(cluster.pool().threads_created(), created);
}

}  // namespace
}  // namespace hyracks
}  // namespace asterix
