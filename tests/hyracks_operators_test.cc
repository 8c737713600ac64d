// Direct tests for operators not (or only indirectly) exercised by the
// compiled query paths: bag collection through a listify aggregate on the
// hash group-by, nested-loop joins with outer semantics, the
// HashPartitioningShuffle connector, and the workload generators the benches
// rely on.

#include <gtest/gtest.h>

#include <random>

#include "adm/temporal.h"
#include "functions/aggregates.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"
#include "workload/generator.h"

namespace asterix {
namespace hyracks {
namespace {

using adm::Value;

TupleEval Col(int i) {
  return [i](const Tuple& t) -> Result<Value> {
    return t[static_cast<size_t>(i)];
  };
}

class OperatorsTest : public ::testing::Test {
 protected:
  ClusterConfig config_{1, 1, 0, ""};
  Cluster cluster_{config_};

  // value-scan(rows) -> op -> sink, all single-partition.
  std::vector<Tuple> RunThrough(OperatorDescriptor op,
                                std::vector<Tuple> rows) {
    JobSpec job;
    int src = job.AddOperator(MakeValueScan(std::move(rows)));
    op.parallelism = 1;
    int mid = job.AddOperator(std::move(op));
    auto sink = std::make_shared<std::vector<Tuple>>();
    int dst = job.AddOperator(MakeResultSink(sink));
    job.Connect(ConnectorType::kOneToOne, src, mid);
    job.Connect(ConnectorType::kOneToOne, mid, dst);
    EXPECT_TRUE(cluster_.ExecuteJob(job).ok());
    return *sink;
  }
};

TEST_F(OperatorsTest, BagGroupByCollectsBags) {
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 6; ++i) {
    rows.push_back({Value::Int64(i % 2), Value::String("v" + std::to_string(i))});
  }
  auto got = RunThrough(MakeHashGroupBy(1, {Col(0)},
                                       {{functions::kListify, Col(1)}},
                                       AggMode::kComplete),
                        rows);
  ASSERT_EQ(got.size(), 2u);
  for (auto& t : got) {
    EXPECT_EQ(t[1].tag(), adm::TypeTag::kBag);
    EXPECT_EQ(t[1].AsList().size(), 3u);
  }
}

TEST_F(OperatorsTest, NestedLoopJoinOuterPadsNulls) {
  JobSpec job;
  int build = job.AddOperator(MakeValueScan({{Value::Int64(1)}}));
  int probe = job.AddOperator(
      MakeValueScan({{Value::Int64(1)}, {Value::Int64(2)}}));
  // predicate over (build ++ probe): equality.
  TupleEval eq = [](const Tuple& t) -> Result<Value> {
    return Value::Boolean(t[0].Equals(t[1]));
  };
  int join = job.AddOperator(
      MakeNestedLoopJoin(1, eq, /*build_arity=*/1, /*left_outer=*/true));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, build, join, 0);
  job.Connect(ConnectorType::kOneToOne, probe, join, 1);
  job.Connect(ConnectorType::kOneToOne, join, dst);
  ASSERT_TRUE(cluster_.ExecuteJob(job).ok());
  ASSERT_EQ(sink->size(), 2u);
  size_t padded = 0;
  for (auto& t : *sink) {
    if (t[0].IsNull()) ++padded;
  }
  EXPECT_EQ(padded, 1u);  // probe value 2 had no match
}

TEST_F(OperatorsTest, HashShuffleConnectorBehavesLikePartitioning) {
  ClusterConfig config{2, 2, 0, ""};
  Cluster cluster(config);
  JobSpec job;
  std::vector<Tuple> rows;
  for (int i = 0; i < 40; ++i) rows.push_back({Value::Int64(i)});
  int src = job.AddOperator(MakeValueScan(std::move(rows)));
  int group = job.AddOperator(MakeHashGroupBy(
      4, {Col(0)}, {{"count", Col(0)}}, AggMode::kComplete));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int dst = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kHashPartitioningShuffle, src, group, 0,
              HashOnColumns({0}));
  job.Connect(ConnectorType::kMToNReplicating, group, dst);
  ASSERT_TRUE(cluster.ExecuteJob(job).ok());
  EXPECT_EQ(sink->size(), 40u);  // all keys distinct: one group each
}

TEST_F(OperatorsTest, ExternalSortSpillsAndMergesCorrectly) {
  // Budget of 64 tuples forces many spilled runs for 1000 inputs.
  std::vector<Tuple> rows;
  std::mt19937 rng(5);
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({Value::Int64(static_cast<int64_t>(rng() % 10000))});
  }
  TupleCompare cmp = [](const Tuple& a, const Tuple& b) {
    return a[0].Compare(b[0]);
  };
  auto sorted = RunThrough(
      MakeSort(1, cmp, std::nullopt, /*spill_budget_tuples=*/64), rows);
  ASSERT_EQ(sorted.size(), 1000u);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1][0].AsInt(), sorted[i][0].AsInt()) << i;
  }
  // Top-k through the merge.
  auto top = RunThrough(MakeSort(1, cmp, 10, 64), rows);
  ASSERT_EQ(top.size(), 10u);
  std::vector<int64_t> expected;
  for (auto& t : sorted) expected.push_back(t[0].AsInt());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(top[i][0].AsInt(), expected[i]);
}

// ---------------------------------------------------------------------------
// Workload generators (the contracts the benches depend on)
// ---------------------------------------------------------------------------

TEST(GeneratorTest, DeterministicForAGivenSeed) {
  workload::Generator a(7), b(7), c(8);
  Value ua = a.MakeUser(5), ub = b.MakeUser(5), uc = c.MakeUser(5);
  EXPECT_TRUE(ua.Equals(ub));
  EXPECT_FALSE(ua.Equals(uc));
}

TEST(GeneratorTest, MessageTimestampsAdvanceOneSecondPerId) {
  workload::Generator gen;
  Value m0 = gen.MakeMessage(0, 100);
  Value m9 = gen.MakeMessage(9, 100);
  EXPECT_EQ(m0.GetField("timestamp").AsInt(),
            workload::Generator::MessageEpochMillis());
  EXPECT_EQ(m9.GetField("timestamp").AsInt() - m0.GetField("timestamp").AsInt(),
            9000);
}

TEST(GeneratorTest, RecordsValidateAgainstSchemas) {
  workload::Generator gen;
  auto users = gen.MakeUsers(50);
  auto user_type = workload::UserTypeSchema();
  for (const auto& u : users) {
    ASSERT_TRUE(user_type->Validate(u).ok());
  }
  auto messages = gen.MakeMessages(50, 50);
  auto msg_type = workload::MessageTypeSchema();
  for (const auto& m : messages) {
    ASSERT_TRUE(msg_type->Validate(m).ok());
  }
  auto tweets = gen.MakeTweets(50, 50);
  auto tweet_type = workload::TweetTypeSchema();
  for (const auto& t : tweets) {
    ASSERT_TRUE(tweet_type->Validate(t).ok());
  }
}

TEST(GeneratorTest, NormalizationPreservesContent) {
  workload::Generator gen;
  Value u = gen.MakeUser(3);
  auto n = workload::NormalizeUser(u);
  EXPECT_EQ(n.user_row.GetField("id").AsInt(), 3);
  EXPECT_EQ(n.user_row.GetField("city").AsString(),
            u.GetField("address").GetField("city").AsString());
  EXPECT_EQ(n.friend_rows.size(), u.GetField("friend-ids").AsList().size());
  EXPECT_EQ(n.employment_rows.size(), u.GetField("employment").AsList().size());

  Value m = gen.MakeMessage(4, 10);
  auto nm = workload::NormalizeMessage(m);
  EXPECT_EQ(nm.message_row.GetField("text").AsString(),
            m.GetField("message").AsString());
  EXPECT_EQ(nm.tag_rows.size(), m.GetField("tags").AsList().size());
}

}  // namespace
}  // namespace hyracks
}  // namespace asterix
