// EXPLAIN-shape tests: for each query family, the physical compiler must
// produce the expected operator/connector structure (the plans the paper
// describes in SS4 and SS5.1's "safe rules").

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/asterix.h"
#include "common/env.h"

namespace asterix {
namespace {

class CompilerPlansTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("plans");
    api::InstanceConfig config;
    config.base_dir = dir_;
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    db_ = std::make_unique<api::AsterixInstance>(config);
    ASSERT_TRUE(db_->Boot().ok());
    ASSERT_TRUE(db_->Execute(R"aql(
create dataverse P; use dataverse P;
create type UserT as { id: int64, name: string, since: datetime }
create type MsgT as { mid: int64, uid: int64, ts: datetime, text: string }
create dataset Users(UserT) primary key id;
create dataset Msgs(MsgT) primary key mid;
create index sinceIdx on Users(since);
create index uidIdx on Msgs(uid) type btree;
)aql").ok());
  }
  void TearDown() override {
    db_.reset();
    env::RemoveAll(dir_);
  }

  std::string JobFor(const std::string& q) {
    auto r = db_->Explain("use dataverse P;\n" + q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().job_plan : "";
  }

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> db_;
};

TEST_F(CompilerPlansTest, KeyedDeleteProbesThePrimaryIndex) {
  constexpr int kUsers = 10000;
  std::vector<adm::Value> users;
  users.reserve(kUsers);
  for (int i = 0; i < kUsers; ++i) {
    const std::string name = "u" + std::to_string(i);
    users.push_back(adm::RecordBuilder()
                        .Add("id", adm::Value::Int64(i))
                        .Add("name", adm::Value::String(name))
                        .Add("since", adm::Value::Datetime(i * 1000))
                        .Build());
  }
  ASSERT_TRUE(db_->FindDataset("P.Users")->LoadBulk(users).ok());

  auto del = db_->Execute(
      "use dataverse P;\ndelete $u from dataset Users where $u.id = 4321;");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_NE(del.value().logical_plan.find("[index: <primary>]"),
            std::string::npos)
      << del.value().logical_plan;
  ASSERT_EQ(del.value().values.size(), 1u);
  EXPECT_EQ(del.value().values[0].AsInt(), 1);

  auto left = db_->Execute(
      "use dataverse P;\n"
      "for $u in dataset Users where $u.id >= 4320 and $u.id <= 4322 "
      "order by $u.id return $u.id;");
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  ASSERT_EQ(left.value().values.size(), 2u);
  EXPECT_EQ(left.value().values[0].AsInt(), 4320);
  EXPECT_EQ(left.value().values[1].AsInt(), 4322);
  auto count = db_->Execute(
      "use dataverse P;\ncount(for $u in dataset Users return $u);");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().values[0].AsInt(), kUsers - 1);
}

TEST_F(CompilerPlansTest, FullScanIsPartitionParallel) {
  std::string job = JobFor("for $u in dataset Users return $u;");
  EXPECT_NE(job.find("scan(Users)  [x4]"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, PrimaryKeyPredicateUsesPrimaryRange) {
  std::string job = JobFor("for $u in dataset Users where $u.id = 5 return $u;");
  EXPECT_NE(job.find("btree-range-scan(Users)"), std::string::npos) << job;
  // No secondary pipeline (sort/fetch) needed.
  EXPECT_EQ(job.find("btree-search(Users.primary)"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, SecondaryIndexPipelineShape) {
  std::string job = JobFor(
      "for $u in dataset Users where $u.since >= "
      "datetime(\"2014-01-01T00:00:00\") return $u;");
  size_t search = job.find("btree-search(sinceIdx)");
  size_t sort = job.find("sort");
  size_t fetch = job.find("btree-search(Users.primary)");
  size_t select = job.find("select");
  ASSERT_NE(search, std::string::npos) << job;
  EXPECT_LT(search, sort);
  EXPECT_LT(sort, fetch);
  EXPECT_LT(fetch, select);  // post-validation after the fetch
}

TEST_F(CompilerPlansTest, EquijoinUsesHybridHashWithPartitioning) {
  std::string job = JobFor(
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.uid = $u.id return { \"n\": $u.name };");
  EXPECT_NE(job.find("hybrid-hash-join"), std::string::npos) << job;
  EXPECT_NE(job.find("n:m partitioning"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, AggregateOverEquijoinPlansHashJoin) {
  // The aggregate's FLWOR is lifted out of its subplan; its where clause
  // must still reach the join, or the join is a filtered cross product.
  ASSERT_TRUE(db_->Execute(R"aql(use dataverse P;
insert into dataset Users ([
  { "id": 1, "name": "a", "since": datetime("2010-01-01T00:00:00") },
  { "id": 2, "name": "b", "since": datetime("2011-01-01T00:00:00") },
  { "id": 3, "name": "c", "since": datetime("2012-01-01T00:00:00") }]);
insert into dataset Msgs ([
  { "mid": 10, "uid": 1, "ts": datetime("2013-01-01T00:00:00"), "text": "x" },
  { "mid": 11, "uid": 1, "ts": datetime("2013-01-02T00:00:00"), "text": "y" },
  { "mid": 12, "uid": 3, "ts": datetime("2013-01-03T00:00:00"), "text": "z" },
  { "mid": 13, "uid": 9, "ts": datetime("2013-01-04T00:00:00"), "text": "w" }]);
)aql")
                  .ok());
  const std::string flwor =
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.uid = $u.id return $m.text";
  std::string job = JobFor("count(" + flwor + ")");
  EXPECT_NE(job.find("hybrid-hash-join"), std::string::npos) << job;
  EXPECT_EQ(job.find("nested-loop-join"), std::string::npos) << job;

  auto count = db_->Execute("use dataverse P;\ncount(" + flwor + ")");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  auto rows = db_->Execute("use dataverse P;\n" + flwor + ";");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(count.value().values.size(), 1u);
  EXPECT_EQ(count.value().values[0].AsInt(),
            static_cast<int64_t>(rows.value().values.size()));
  EXPECT_EQ(rows.value().values.size(), 3u);
}

TEST_F(CompilerPlansTest, IndexNlHintProbesSecondaryIndex) {
  std::string job = JobFor(
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.uid /*+ indexnl */ = $u.id return { \"n\": $u.name };");
  EXPECT_NE(job.find("btree-probe(uidIdx)"), std::string::npos) << job;
  EXPECT_EQ(job.find("hybrid-hash-join"), std::string::npos) << job;
  // The fetch materializes only what the post-validation reads.
  EXPECT_NE(job.find("btree-search(Msgs.primary) project=[uid]"),
            std::string::npos)
      << job;
}

TEST_F(CompilerPlansTest, IndexNlOnPrimaryKeyProbesPrimary) {
  // The indexed side's key IS Users' primary key: probe the primary index.
  std::string job = JobFor(
      "for $m in dataset Msgs for $u in dataset Users "
      "where $u.id /*+ indexnl */ = $m.uid return { \"t\": $m.text };");
  EXPECT_NE(job.find("btree-search(Users.primary) project=[id]"),
            std::string::npos)
      << job;
  EXPECT_EQ(job.find("hybrid-hash-join"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, NonEquiJoinFallsBackToNestedLoop) {
  std::string job = JobFor(
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.uid < $u.id return 1;");
  EXPECT_NE(job.find("nested-loop-join"), std::string::npos) << job;
  EXPECT_NE(job.find("replicating"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, GroupBySplitsLocalGlobal) {
  std::string job = JobFor(
      "for $m in dataset Msgs group by $u := $m.uid with $m "
      "let $c := count($m) return { \"u\": $u, \"c\": $c };");
  size_t local = job.find("hash-group-by");
  size_t global = job.find("hash-group-by", local + 1);
  EXPECT_NE(local, std::string::npos) << job;
  EXPECT_NE(global, std::string::npos)
      << "expected a local+global group-by pair:\n" << job;
}

TEST_F(CompilerPlansTest, GroupedCountProjectsOnlyTheFieldsItReads) {
  ASSERT_TRUE(db_->Execute(R"aql(
use dataverse P;
create type PostT as {
  message-id: int64, author-id: int64, timestamp: datetime, message: string
}
create dataset Posts(PostT) primary key message-id;
create index postTsIdx on Posts(timestamp);
)aql").ok());
  // count($m) needs no field of $m: the scan, and the primary fetch of the
  // indexed plan, read only the grouping key and the filtered field.
  for (const char* hint : {"/*+ skip-index */ ", ""}) {
    std::string job = JobFor(
        std::string("for $m in dataset Posts where ") + hint +
        "$m.timestamp >= datetime(\"2014-01-01T00:00:00\") "
        "group by $aid := $m.author-id with $m let $cnt := count($m) "
        "order by $cnt desc limit 10 "
        "return { \"author\": $aid, \"cnt\": $cnt };");
    EXPECT_NE(job.find("project=[author-id,timestamp]"), std::string::npos)
        << job;
  }
  EXPECT_NE(JobFor("for $m in dataset Posts where $m.timestamp >= "
                   "datetime(\"2014-01-01T00:00:00\") group by $aid := "
                   "$m.author-id with $m let $cnt := count($m) "
                   "return { \"author\": $aid, \"cnt\": $cnt };")
                .find("btree-search(Posts.primary) "
                      "project=[author-id,timestamp]"),
            std::string::npos);
}

TEST_F(CompilerPlansTest, OrderByGathersThroughMergingConnector) {
  std::string job = JobFor(
      "for $u in dataset Users order by $u.name return $u.name;");
  EXPECT_NE(job.find("sort  [x4]"), std::string::npos) << job;
  EXPECT_NE(job.find("partitioning-merging"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, LimitRunsOnSingleInstance) {
  std::string job = JobFor(
      "for $u in dataset Users order by $u.id limit 3 return $u.id;");
  EXPECT_NE(job.find("limit  [x1]"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, SkipIndexHintForcesScan) {
  std::string job = JobFor(
      "for $u in dataset Users where /*+ skip-index */ $u.since >= "
      "datetime(\"2014-01-01T00:00:00\") return $u;");
  EXPECT_NE(job.find("scan(Users)"), std::string::npos) << job;
  EXPECT_EQ(job.find("btree-search(sinceIdx)"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, WholeRecordScanCarriesItsRanges) {
  ASSERT_TRUE(db_->Execute(R"aql(
create dataverse Q; use dataverse Q;
create type MemberT as { id: int64, user-since: datetime }
create dataset Users(MemberT) primary key id;)aql").ok());
  auto r = db_->Explain(
      "use dataverse Q;\nfor $u in dataset Users where $u.user-since >= "
      "datetime(\"2012-01-01T00:00:00\") return $u;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& job = r.value().job_plan;
  // The scan reads whole records (no project=[...]) and still carries the
  // sargable range for min/max pruning; the select above stays exact.
  EXPECT_NE(job.find("scan(Users) range=[user-since>="), std::string::npos)
      << job;
  EXPECT_EQ(job.find("project="), std::string::npos) << job;
  EXPECT_NE(job.find("select"), std::string::npos) << job;
}

TEST_F(CompilerPlansTest, AggregationSplitCanBeDisabled) {
  // Rebuild an instance with the split turned off (the ablation switch).
  api::InstanceConfig config;
  config.base_dir = dir_ + "/nosplit";
  config.cluster.job_startup_us = 0;
  config.optimizer.split_aggregation = false;
  api::AsterixInstance db2(config);
  ASSERT_TRUE(db2.Boot().ok());
  ASSERT_TRUE(db2.Execute(R"aql(
create dataverse P; use dataverse P;
create type T as { id: int64 }
create dataset D(T) primary key id;)aql").ok());
  auto r = db2.Explain(
      "use dataverse P;\ncount(for $d in dataset D return $d)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().job_plan.find("local-aggregate"), std::string::npos);
  EXPECT_NE(r.value().job_plan.find("aggregate"), std::string::npos);
}

}  // namespace
}  // namespace asterix
