#include "hyracks/cluster.h"

#include <gtest/gtest.h>

#include "common/env.h"
#include "functions/arith.h"
#include "hyracks/hash_table.h"
#include "hyracks/operators.h"

namespace asterix {
namespace hyracks {
namespace {

using adm::Value;

class HyracksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("hyracks-test");
    cache_ = std::make_unique<storage::BufferCache>(1024);
    txns_ = std::make_unique<txn::TxnManager>(dir_ + "/wal.log");
    config_.num_nodes = 2;
    config_.partitions_per_node = 2;
    config_.job_startup_us = 0;
    cluster_ = std::make_unique<Cluster>(config_);

    storage::DatasetDef def;
    def.dataset_id = 1;
    def.dataverse = "T";
    def.name = "Nums";
    def.type = adm::Datatype::MakeRecord(
        "NumType",
        {{"id", adm::Datatype::Primitive(adm::TypeTag::kInt64), false},
         {"val", adm::Datatype::Primitive(adm::TypeTag::kInt64), false},
         {"grp", adm::Datatype::Primitive(adm::TypeTag::kInt64), false}},
        false);
    def.primary_key_fields = {"id"};
    storage::LsmOptions o;
    dataset_ = std::make_unique<storage::PartitionedDataset>(
        cache_.get(), dir_, def, cluster_->num_partitions(), txns_.get(), o);
    ASSERT_TRUE(dataset_->Open().ok());
    std::vector<Value> records;
    for (int i = 0; i < 100; ++i) {
      records.push_back(adm::RecordBuilder()
                            .Add("id", Value::Int64(i))
                            .Add("val", Value::Int64(i * 10))
                            .Add("grp", Value::Int64(i % 4))
                            .Build());
    }
    ASSERT_TRUE(dataset_->LoadBulk(records).ok());
  }
  void TearDown() override { env::RemoveAll(dir_); }

  std::string dir_;
  std::unique_ptr<storage::BufferCache> cache_;
  std::unique_ptr<txn::TxnManager> txns_;
  ClusterConfig config_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<storage::PartitionedDataset> dataset_;
};

TupleEval Column(int i) {
  return [i](const Tuple& t) -> Result<Value> { return t[static_cast<size_t>(i)]; };
}

TupleEval Field(int col, std::string name) {
  return [col, name](const Tuple& t) -> Result<Value> {
    return t[static_cast<size_t>(col)].GetField(name);
  };
}

TEST_F(HyracksTest, ScanToResultSink) {
  JobSpec job;
  int scan = job.AddOperator(MakeDatasetScan(dataset_.get()));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kMToNReplicating, scan, result);
  auto stats_r = cluster_->ExecuteJob(job);
  ASSERT_TRUE(stats_r.ok()) << stats_r.status().ToString();
  EXPECT_EQ(sink->size(), 100u);
}

TEST_F(HyracksTest, SelectFilters) {
  JobSpec job;
  int scan = job.AddOperator(MakeDatasetScan(dataset_.get()));
  int select = job.AddOperator(MakeSelect(
      cluster_->num_partitions(), [](const Tuple& t) -> Result<Value> {
        return Value::Boolean(t[0].GetField("id").AsInt() < 10);
      }));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, scan, select);
  job.Connect(ConnectorType::kMToNReplicating, select, result);
  ASSERT_TRUE(cluster_->ExecuteJob(job).ok());
  EXPECT_EQ(sink->size(), 10u);
}

TEST_F(HyracksTest, LocalGlobalAggregateSplit) {
  // The Figure 6 pattern: per-partition local avg, replicated to one global.
  JobSpec job;
  int scan = job.AddOperator(MakeDatasetScan(dataset_.get()));
  int local = job.AddOperator(MakeAggregate(
      cluster_->num_partitions(), {{"avg", Field(0, "val")}}, AggMode::kLocal));
  int global = job.AddOperator(
      MakeAggregate(1, {{"avg", nullptr}}, AggMode::kGlobal));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, scan, local);
  job.Connect(ConnectorType::kMToNReplicating, local, global);
  job.Connect(ConnectorType::kOneToOne, global, result);
  auto stats_r = cluster_->ExecuteJob(job);
  ASSERT_TRUE(stats_r.ok());
  ASSERT_EQ(sink->size(), 1u);
  // avg of val = avg(0,10,...,990) = 495.
  EXPECT_DOUBLE_EQ((*sink)[0][0].AsDouble(), 495.0);
  // Only the partial-state tuples cross the network, not the data.
  EXPECT_LE(stats_r.value().network_tuples, 8u);
}

TEST_F(HyracksTest, HashJoinMatchesPairs) {
  JobSpec job;
  int scan1 = job.AddOperator(MakeDatasetScan(dataset_.get()));
  int scan2 = job.AddOperator(MakeDatasetScan(dataset_.get()));
  int join = job.AddOperator(MakeHybridHashJoin(
      cluster_->num_partitions(), {Field(0, "id")}, {Field(0, "id")}, 1,
      /*left_outer=*/false));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  auto hash = [](const Tuple& t) {
    adm::Value v = t[0].GetField("id");
    return v.Hash();
  };
  job.Connect(ConnectorType::kMToNPartitioning, scan1, join, 0, hash);
  job.Connect(ConnectorType::kMToNPartitioning, scan2, join, 1, hash);
  job.Connect(ConnectorType::kMToNReplicating, join, result);
  ASSERT_TRUE(cluster_->ExecuteJob(job).ok());
  EXPECT_EQ(sink->size(), 100u);  // self equijoin on unique key
  for (const auto& t : *sink) {
    EXPECT_EQ(t[0].GetField("id").AsInt(), t[1].GetField("id").AsInt());
  }
}

TEST_F(HyracksTest, SortWithMergingConnector) {
  JobSpec job;
  int scan = job.AddOperator(MakeDatasetScan(dataset_.get()));
  TupleCompare by_id = [](const Tuple& a, const Tuple& b) {
    return a[0].GetField("id").Compare(b[0].GetField("id"));
  };
  int sort = job.AddOperator(MakeSort(cluster_->num_partitions(), by_id));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, scan, sort);
  job.Connect(ConnectorType::kMToNPartitioningMerging, sort, result, 0,
              nullptr, by_id);
  ASSERT_TRUE(cluster_->ExecuteJob(job).ok());
  ASSERT_EQ(sink->size(), 100u);
  for (size_t i = 0; i < sink->size(); ++i) {
    EXPECT_EQ((*sink)[i][0].GetField("id").AsInt(), static_cast<int64_t>(i));
  }
}

TEST_F(HyracksTest, GroupByWithHashShuffle) {
  JobSpec job;
  int scan = job.AddOperator(MakeDatasetScan(dataset_.get()));
  int group = job.AddOperator(MakeHashGroupBy(
      cluster_->num_partitions(), {Field(0, "grp")},
      {{"count", Field(0, "id")}, {"sum", Field(0, "val")}}, AggMode::kComplete));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kMToNPartitioning, scan, group, 0,
              [](const Tuple& t) { return t[0].GetField("grp").Hash(); });
  job.Connect(ConnectorType::kMToNReplicating, group, result);
  ASSERT_TRUE(cluster_->ExecuteJob(job).ok());
  ASSERT_EQ(sink->size(), 4u);
  for (const auto& t : *sink) {
    EXPECT_EQ(t[1].AsInt(), 25);  // 25 ids per group
  }
}

TEST_F(HyracksTest, SecondaryToPrimarySearchPipeline) {
  // Rebuild with a secondary index for this test.
  storage::DatasetDef def = dataset_->def();
  def.name = "Indexed";
  def.dataset_id = 7;
  def.secondary_indexes = {{"valIdx", storage::IndexKind::kBTree, {"val"}, 0}};
  storage::LsmOptions o;
  storage::PartitionedDataset ds(cache_.get(), dir_, def,
                                 cluster_->num_partitions(), txns_.get(), o);
  ASSERT_TRUE(ds.Open().ok());
  std::vector<Value> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(adm::RecordBuilder()
                          .Add("id", Value::Int64(i))
                          .Add("val", Value::Int64(i * 10))
                          .Add("grp", Value::Int64(i % 4))
                          .Build());
  }
  ASSERT_TRUE(ds.LoadBulk(records).ok());

  // Figure 6 shape: secondary search -> sort pks -> primary search.
  JobSpec job;
  storage::ScanBounds b;
  b.lo = storage::CompositeKey{Value::Int64(100)};
  b.hi = storage::CompositeKey{Value::Int64(200)};
  int search = job.AddOperator(MakeSecondarySearch(&ds, "valIdx", b, 1));
  TupleCompare by_pk = [](const Tuple& a, const Tuple& x) {
    return a[0].Compare(x[0]);
  };
  int sort = job.AddOperator(MakeSort(cluster_->num_partitions(), by_pk));
  int fetch = job.AddOperator(
      MakePrimarySearch(&ds, txns_.get(), {0}, /*locked=*/true));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, search, sort);
  job.Connect(ConnectorType::kOneToOne, sort, fetch);
  job.Connect(ConnectorType::kMToNReplicating, fetch, result);
  ASSERT_TRUE(cluster_->ExecuteJob(job).ok());
  EXPECT_EQ(sink->size(), 11u);  // val in [100, 200] => ids 10..20
  for (const auto& t : *sink) {
    int64_t val = t[1].GetField("val").AsInt();
    EXPECT_GE(val, 100);
    EXPECT_LE(val, 200);
  }
}

TEST_F(HyracksTest, StagesRespectBlocking) {
  JobSpec job;
  int scan = job.AddOperator(MakeDatasetScan(dataset_.get()));
  int sort = job.AddOperator(MakeSort(cluster_->num_partitions(),
                                      [](const Tuple&, const Tuple&) { return 0; }));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, scan, sort);
  job.Connect(ConnectorType::kMToNReplicating, sort, result);
  StagePlan plan = ComputeStages(job);
  ASSERT_EQ(plan.stages.size(), 2u);
  // Scan and sort:build pipeline together; sort:emit and sink follow.
  EXPECT_EQ(plan.stages[0].size(), 2u);
  EXPECT_EQ(plan.stages[1].size(), 2u);
}

TEST_F(HyracksTest, FailurePropagates) {
  JobSpec job;
  int scan = job.AddOperator(MakeDatasetScan(dataset_.get()));
  int boom = job.AddOperator(MakeSelect(
      cluster_->num_partitions(), [](const Tuple&) -> Result<Value> {
        return Status::Internal("injected failure");
      }));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, scan, boom);
  job.Connect(ConnectorType::kMToNReplicating, boom, result);
  auto stats_r = cluster_->ExecuteJob(job);
  ASSERT_FALSE(stats_r.ok());
  EXPECT_EQ(stats_r.status().code(), StatusCode::kInternal);
}

TEST_F(HyracksTest, LimitAndUnnest) {
  JobSpec job;
  std::vector<Tuple> rows;
  rows.push_back({Value::OrderedList(
      {Value::Int64(1), Value::Int64(2), Value::Int64(3)})});
  rows.push_back({Value::OrderedList({Value::Int64(4), Value::Int64(5)})});
  int src = job.AddOperator(MakeValueScan(rows));
  int unnest = job.AddOperator(MakeUnnest(1, Column(0), false));
  int limit = job.AddOperator(MakeLimit(3, 1));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kOneToOne, src, unnest);
  job.Connect(ConnectorType::kOneToOne, unnest, limit);
  job.Connect(ConnectorType::kOneToOne, limit, result);
  ASSERT_TRUE(cluster_->ExecuteJob(job).ok());
  ASSERT_EQ(sink->size(), 3u);  // skip first, take 3: items 2,3,4
  EXPECT_EQ((*sink)[0][1].AsInt(), 2);
  EXPECT_EQ((*sink)[2][1].AsInt(), 4);
}

TEST_F(HyracksTest, InsertAndDeleteThroughJobs) {
  JobSpec job;
  std::vector<Tuple> rows;
  rows.push_back({adm::RecordBuilder()
                      .Add("id", Value::Int64(1000))
                      .Add("val", Value::Int64(1))
                      .Add("grp", Value::Int64(0))
                      .Build()});
  int src = job.AddOperator(MakeValueScan(rows));
  int insert = job.AddOperator(MakeInsert(dataset_.get(), 0));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kMToNPartitioning, src, insert, 0,
              [](const Tuple& t) { return t[0].GetField("id").Hash(); });
  job.Connect(ConnectorType::kMToNReplicating, insert, result);
  ASSERT_TRUE(cluster_->ExecuteJob(job).ok());
  bool found;
  Value rec;
  ASSERT_TRUE(dataset_->PointLookup({Value::Int64(1000)}, &found, &rec).ok());
  EXPECT_TRUE(found);

  JobSpec del_job;
  int key_src = del_job.AddOperator(MakeValueScan({{Value::Int64(1000)}}));
  int del = del_job.AddOperator(MakeDelete(dataset_.get(), {0}));
  auto del_sink = std::make_shared<std::vector<Tuple>>();
  int del_result = del_job.AddOperator(MakeResultSink(del_sink));
  del_job.Connect(ConnectorType::kMToNPartitioning, key_src, del, 0,
                  [](const Tuple& t) { return t[0].Hash(); });
  del_job.Connect(ConnectorType::kMToNReplicating, del, del_result);
  ASSERT_TRUE(cluster_->ExecuteJob(del_job).ok());
  ASSERT_TRUE(dataset_->PointLookup({Value::Int64(1000)}, &found, &rec).ok());
  EXPECT_FALSE(found);
}

TEST_F(HyracksTest, JobToStringMentionsOperators) {
  JobSpec job;
  int scan = job.AddOperator(MakeDatasetScan(dataset_.get()));
  auto sink = std::make_shared<std::vector<Tuple>>();
  int result = job.AddOperator(MakeResultSink(sink));
  job.Connect(ConnectorType::kMToNReplicating, scan, result);
  std::string s = job.ToString();
  EXPECT_NE(s.find("scan(Nums)"), std::string::npos);
  EXPECT_NE(s.find("result-sink"), std::string::npos);
  EXPECT_NE(s.find("replicating"), std::string::npos);
}


// A small build touches all 16 partition tables of each join, group-by and
// distinct instance: an almost empty table must not cost a 64 KiB chunk.
TEST(SerializedKeyTableTest, OneKeyCostsOneSmallChunk) {
  SerializedKeyTable table;
  const uint8_t key[] = {1, 2, 3, 4, 5, 6, 7, 8};
  bool inserted = false;
  table.FindOrInsert(key, sizeof(key), 42, &inserted);
  ASSERT_TRUE(inserted);
  EXPECT_LE(table.bytes(), Arena::kFirstChunkBytes +
                               sizeof(SerializedKeyTable::Entry) +
                               16 * sizeof(uint32_t));

  // Chunks double up to the largest size, and reserved bytes stay exact.
  Arena arena;
  std::vector<uint8_t> item(700, 7);
  size_t reserved = 0, cap = 0, used = 0;
  for (int i = 0; i < 400; ++i) {
    const uint8_t* at = arena.Append(item.data(), item.size());
    EXPECT_EQ(at[699], 7);
    if (used + item.size() > cap) {
      cap = cap == 0 ? Arena::kFirstChunkBytes
                     : std::min(cap * 2, Arena::kMaxChunkBytes);
      reserved += cap;
      used = 0;
    }
    used += item.size();
    EXPECT_EQ(arena.reserved_bytes(), reserved);
  }
  EXPECT_EQ(cap, Arena::kMaxChunkBytes);
}

}  // namespace
}  // namespace hyracks
}  // namespace asterix
