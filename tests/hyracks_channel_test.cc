// Unit tests for the dataflow primitives: channels (FIFO + sorted merge),
// connector routing semantics, frame batching, and stage analysis edge
// cases not covered by the end-to-end job tests.

#include <gtest/gtest.h>

#include <thread>

#include "hyracks/channel.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"

namespace asterix {
namespace hyracks {
namespace {

using adm::Value;

Tuple T(int64_t v) { return Tuple{Value::Int64(v)}; }

// Pulls every frame to end-of-stream, flattening the first column.
std::vector<int64_t> Drain(InChannel* ch) {
  std::vector<int64_t> got;
  Frame f;
  while (true) {
    auto r = ch->NextFrame(&f);
    EXPECT_TRUE(r.ok());
    if (!r.ok() || !r.value()) break;
    for (const auto& t : f.tuples) got.push_back(t[0].AsInt());
  }
  return got;
}

TEST(ChannelTest, FifoDeliversAllThenEos) {
  FifoChannel ch(2);
  ch.Push(0, Frame{{T(1), T(2)}});
  ch.Push(1, Frame{{T(3)}});
  ch.ProducerDone(0);
  ch.ProducerDone(1);
  EXPECT_EQ(Drain(&ch).size(), 3u);
}

TEST(ChannelTest, FifoBlocksUntilData) {
  FifoChannel ch(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Push(0, Frame{{T(42)}});
    ch.ProducerDone(0);
  });
  Frame f;
  auto r = ch.NextFrame(&f);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value());
  ASSERT_EQ(f.tuples.size(), 1u);
  EXPECT_EQ(f.tuples[0][0].AsInt(), 42);
  producer.join();
}

TEST(ChannelTest, FailurePropagatesToConsumer) {
  FifoChannel ch(1);
  ch.Fail(Status::Internal("boom"));
  Frame f;
  auto r = ch.NextFrame(&f);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ChannelTest, MergeChannelProducesGlobalOrder) {
  TupleCompare cmp = [](const Tuple& a, const Tuple& b) {
    return a[0].Compare(b[0]);
  };
  MergeChannel ch(3, cmp);
  // Each producer's stream is sorted; pushes interleave arbitrarily.
  ch.Push(0, Frame{{T(1), T(4), T(9)}});
  ch.Push(2, Frame{{T(3)}});
  ch.Push(1, Frame{{T(2), T(5)}});
  ch.ProducerDone(0);
  ch.Push(2, Frame{{T(6)}});
  ch.ProducerDone(1);
  ch.ProducerDone(2);
  EXPECT_EQ(Drain(&ch), (std::vector<int64_t>{1, 2, 3, 4, 5, 6, 9}));
}

TEST(ChannelTest, MergeChannelWaitsForSlowProducer) {
  TupleCompare cmp = [](const Tuple& a, const Tuple& b) {
    return a[0].Compare(b[0]);
  };
  MergeChannel ch(2, cmp);
  ch.Push(0, Frame{{T(10)}});
  std::thread slow([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Push(1, Frame{{T(5)}});
    ch.ProducerDone(0);
    ch.ProducerDone(1);
  });
  Frame f;
  auto r = ch.NextFrame(&f);  // must wait for producer 1's 5, not emit 10 early
  ASSERT_TRUE(r.ok() && r.value());
  ASSERT_FALSE(f.tuples.empty());
  EXPECT_EQ(f.tuples[0][0].AsInt(), 5);
  slow.join();
}

// ---------------------------------------------------------------------------
// Connector routing semantics through tiny jobs
// ---------------------------------------------------------------------------

class ConnectorTest : public ::testing::Test {
 protected:
  ClusterConfig config_{2, 2, 0, ""};  // 2 nodes x 2 partitions
  Cluster cluster_{config_};

  // Runs src(parallelism 4, instance p emits p) -> connector -> collector
  // that tags tuples with the receiving instance.
  std::vector<std::pair<int, int64_t>> Route(
      ConnectorType type, std::function<uint64_t(const Tuple&)> hash = nullptr,
      std::function<int(int, int)> locality = nullptr) {
    JobSpec job;
    OperatorDescriptor src;
    src.name = "src";
    src.parallelism = 4;
    src.num_inputs = 0;
    src.source = [](int p, Emitter* out) {
      out->Push(Tuple{Value::Int64(p)});
      return Status::OK();
    };
    int src_id = job.AddOperator(std::move(src));

    auto sink = std::make_shared<std::vector<std::pair<int, int64_t>>>();
    auto mu = std::make_shared<std::mutex>();
    OperatorDescriptor dst;
    dst.name = "dst";
    dst.parallelism = 4;
    dst.num_inputs = 1;
    dst.push = [sink, mu](int p, Emitter*) -> std::unique_ptr<PushOperator> {
      class Dst : public PushOperator {
       public:
        Dst(int p, std::shared_ptr<std::vector<std::pair<int, int64_t>>> sink,
            std::shared_ptr<std::mutex> mu)
            : p_(p), sink_(std::move(sink)), mu_(std::move(mu)) {}
        Status Consume(int, Frame& f) override {
          std::lock_guard<std::mutex> lock(*mu_);
          for (const auto& t : f.tuples) sink_->emplace_back(p_, t[0].AsInt());
          return Status::OK();
        }
        Status Close(int) override { return Status::OK(); }
        int p_;
        std::shared_ptr<std::vector<std::pair<int, int64_t>>> sink_;
        std::shared_ptr<std::mutex> mu_;
      };
      return std::make_unique<Dst>(p, sink, mu);
    };
    int dst_id = job.AddOperator(std::move(dst));
    ConnectorDescriptor c;
    c.id = 0;
    c.type = type;
    c.src_op = src_id;
    c.dst_op = dst_id;
    c.partition_hash = std::move(hash);
    c.locality_map = std::move(locality);
    job.connectors.push_back(std::move(c));
    EXPECT_TRUE(cluster_.ExecuteJob(job).ok());
    return *sink;
  }
};

TEST_F(ConnectorTest, OneToOnePreservesPartition) {
  auto got = Route(ConnectorType::kOneToOne);
  ASSERT_EQ(got.size(), 4u);
  for (auto& [dst, v] : got) EXPECT_EQ(dst, v);
}

TEST_F(ConnectorTest, ReplicatingSendsToEveryInstance) {
  auto got = Route(ConnectorType::kMToNReplicating);
  EXPECT_EQ(got.size(), 16u);  // 4 sources x 4 destinations
}

TEST_F(ConnectorTest, PartitioningRoutesByHash) {
  auto got = Route(ConnectorType::kMToNPartitioning,
                   [](const Tuple& t) { return static_cast<uint64_t>(t[0].AsInt()); });
  ASSERT_EQ(got.size(), 4u);
  for (auto& [dst, v] : got) EXPECT_EQ(dst, v % 4);
}

TEST_F(ConnectorTest, LocalityAwareUsesCustomMap) {
  auto got = Route(ConnectorType::kLocalityAwareMToNPartitioning, nullptr,
                   [](int src, int) { return src / 2; });  // node-local pairing
  ASSERT_EQ(got.size(), 4u);
  for (auto& [dst, v] : got) EXPECT_EQ(dst, v / 2);
}

// ---------------------------------------------------------------------------
// Stage analysis
// ---------------------------------------------------------------------------

// A descriptor for stage analysis only: a no-op source without inputs, a
// no-op push factory otherwise.
OperatorDescriptor StageOp(std::string name, int parallelism, int num_inputs,
                           std::vector<int> blocking_ports = {}) {
  OperatorDescriptor op;
  op.name = std::move(name);
  op.parallelism = parallelism;
  op.num_inputs = num_inputs;
  op.blocking_ports = std::move(blocking_ports);
  if (num_inputs == 0) {
    op.source = [](int, Emitter*) { return Status::OK(); };
  } else {
    op.push = [](int, Emitter*) -> std::unique_ptr<PushOperator> {
      return nullptr;
    };
  }
  return op;
}

TEST(StageTest, JoinBuildSplitsStages) {
  JobSpec job;
  OperatorDescriptor a = StageOp("scanA", 2, 0);
  OperatorDescriptor b = StageOp("scanB", 2, 0);
  OperatorDescriptor join = StageOp("join", 2, 2, {0});  // port 0 blocks
  OperatorDescriptor sink = StageOp("sink", 1, 1);
  int ia = job.AddOperator(a), ib = job.AddOperator(b);
  int ij = job.AddOperator(join);
  int is = job.AddOperator(sink);
  job.Connect(ConnectorType::kMToNPartitioning, ia, ij, 0);
  job.Connect(ConnectorType::kMToNPartitioning, ib, ij, 1);
  job.Connect(ConnectorType::kMToNPartitioning, ij, is, 0);
  StagePlan plan = ComputeStages(job);
  ASSERT_EQ(plan.stages.size(), 2u);
  // Build side + both scans can run in stage 0; probe/emit + sink in 1.
  std::string s0;
  for (const auto& act : plan.stages[0]) s0 += act.name + " ";
  EXPECT_NE(s0.find("join:build"), std::string::npos);
  std::string s1;
  for (const auto& act : plan.stages[1]) s1 += act.name + " ";
  EXPECT_NE(s1.find("join:emit"), std::string::npos);
  EXPECT_NE(s1.find("sink"), std::string::npos);
}

TEST(StageTest, ChainedBlockingOperatorsStack) {
  JobSpec job;
  int scan = job.AddOperator(StageOp("scan", 1, 0));
  int sort1 = job.AddOperator(StageOp("sort1", 1, 1, {0}));
  int sort2 = job.AddOperator(StageOp("sort2", 1, 1, {0}));
  job.Connect(ConnectorType::kOneToOne, scan, sort1);
  job.Connect(ConnectorType::kOneToOne, sort1, sort2);
  StagePlan plan = ComputeStages(job);
  EXPECT_EQ(plan.stages.size(), 3u);
}

}  // namespace
}  // namespace hyracks
}  // namespace asterix
