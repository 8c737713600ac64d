#include <gtest/gtest.h>

#include "api/asterix.h"
#include "common/env.h"
#include "metadata/metadata.h"

namespace asterix {
namespace {

using adm::Value;

// ---------------------------------------------------------------------------
// Metadata manager ("metadata is data": catalogs live in datasets)
// ---------------------------------------------------------------------------

class MetadataTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("meta-test");
    cache_ = std::make_unique<storage::BufferCache>(1024);
    txns_ = std::make_unique<txn::TxnManager>(dir_ + "/wal");
    storage::LsmOptions o;
    meta_ = std::make_unique<metadata::MetadataManager>(cache_.get(), dir_,
                                                        txns_.get(), o);
    ASSERT_TRUE(meta_->Bootstrap().ok());
  }
  void TearDown() override { env::RemoveAll(dir_); }

  aql::TypeExprPtr NamedType(const char* name) {
    auto t = std::make_shared<aql::TypeExpr>();
    t->kind = aql::TypeExpr::Kind::kNamed;
    t->name = name;
    return t;
  }

  std::string dir_;
  std::unique_ptr<storage::BufferCache> cache_;
  std::unique_ptr<txn::TxnManager> txns_;
  std::unique_ptr<metadata::MetadataManager> meta_;
};

TEST_F(MetadataTest, DataverseLifecycle) {
  EXPECT_FALSE(meta_->DataverseExists("X"));
  ASSERT_TRUE(meta_->CreateDataverse("X", false).ok());
  EXPECT_TRUE(meta_->DataverseExists("X"));
  EXPECT_EQ(meta_->CreateDataverse("X", false).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(meta_->CreateDataverse("X", true).ok());  // if not exists
  ASSERT_TRUE(meta_->DropDataverse("X", false).ok());
  EXPECT_FALSE(meta_->DataverseExists("X"));
  EXPECT_EQ(meta_->DropDataverse("X", false).code(), StatusCode::kNotFound);
  EXPECT_TRUE(meta_->DropDataverse("X", true).ok());
}

TEST_F(MetadataTest, TypeResolutionWithNamedReferences) {
  ASSERT_TRUE(meta_->CreateDataverse("X", false).ok());
  // Emp = { org: string }
  auto emp = std::make_shared<aql::TypeExpr>();
  emp->kind = aql::TypeExpr::Kind::kRecord;
  emp->fields.push_back({"org", NamedType("string"), false});
  ASSERT_TRUE(meta_->CreateDatatype("X", "Emp", emp).ok());
  // User = { id: int64, jobs: [Emp] }
  auto user = std::make_shared<aql::TypeExpr>();
  user->kind = aql::TypeExpr::Kind::kRecord;
  user->fields.push_back({"id", NamedType("int64"), false});
  auto jobs = std::make_shared<aql::TypeExpr>();
  jobs->kind = aql::TypeExpr::Kind::kOrderedList;
  jobs->item = NamedType("Emp");
  user->fields.push_back({"jobs", jobs, false});
  ASSERT_TRUE(meta_->CreateDatatype("X", "User", user).ok());

  auto resolved = meta_->GetDatatype("X", "User");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value()->fields()[1].type->item_type()->fields()[0].name,
            "org");
  // Unknown named type fails.
  auto bad = std::make_shared<aql::TypeExpr>();
  bad->kind = aql::TypeExpr::Kind::kRecord;
  bad->fields.push_back({"x", NamedType("NoSuchType"), false});
  EXPECT_FALSE(meta_->CreateDatatype("X", "Bad", bad).ok());
}

TEST_F(MetadataTest, CatalogsSurviveRestart) {
  ASSERT_TRUE(meta_->CreateDataverse("X", false).ok());
  auto t = std::make_shared<aql::TypeExpr>();
  t->kind = aql::TypeExpr::Kind::kRecord;
  t->fields.push_back({"id", NamedType("int64"), false});
  ASSERT_TRUE(meta_->CreateDatatype("X", "T", t).ok());
  aql::FunctionDef fn{"X", "f", {"a"}, "$a + 1"};
  ASSERT_TRUE(meta_->RegisterFunction(fn).ok());

  // New manager over the same directory: caches rebuild from the catalogs.
  meta_.reset();
  storage::LsmOptions o;
  meta_ = std::make_unique<metadata::MetadataManager>(cache_.get(), dir_,
                                                      txns_.get(), o);
  ASSERT_TRUE(meta_->Bootstrap().ok());
  EXPECT_TRUE(meta_->DataverseExists("X"));
  EXPECT_TRUE(meta_->GetDatatype("X", "T").ok());
  ASSERT_TRUE(meta_->FindFunction("X", "f", 1) != nullptr);
  EXPECT_EQ(meta_->FindFunction("X", "f", 1)->body, "$a + 1");
  EXPECT_TRUE(meta_->FindFunction("X", "f", 2) == nullptr);  // arity matters
}

// ---------------------------------------------------------------------------
// API facade behaviours not covered by the TinySocial suite
// ---------------------------------------------------------------------------

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("api-test");
    api::InstanceConfig config;
    config.base_dir = dir_;
    config.cluster.job_startup_us = 0;
    instance_ = std::make_unique<api::AsterixInstance>(config);
    ASSERT_TRUE(instance_->Boot().ok());
  }
  void TearDown() override {
    instance_.reset();
    env::RemoveAll(dir_);
  }
  std::string dir_;
  std::unique_ptr<api::AsterixInstance> instance_;
};

TEST_F(ApiTest, DatasetsSurviveInstanceRestart) {
  auto r = instance_->Execute(R"aql(
create dataverse P; use dataverse P;
create type T as { id: int64 }
create dataset D(T) primary key id;
insert into dataset D ([ { "id": 1 }, { "id": 2, "open": "field" } ]);
)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  instance_.reset();  // "crash" (WAL not checkpointed)

  api::InstanceConfig config;
  config.base_dir = dir_;
  config.cluster.job_startup_us = 0;
  instance_ = std::make_unique<api::AsterixInstance>(config);
  ASSERT_TRUE(instance_->Boot().ok());
  auto q = instance_->Execute(
      "use dataverse P;\nfor $d in dataset D order by $d.id return $d;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().values.size(), 2u);
  EXPECT_EQ(q.value().values[1].GetField("open").AsString(), "field");
}

TEST_F(ApiTest, AsyncSubmission) {
  auto r = instance_->Execute(R"aql(
create dataverse A; use dataverse A;
create type T as { id: int64 }
create dataset D(T) primary key id;
insert into dataset D ([ { "id": 1 }, { "id": 2 } ]);
)aql");
  ASSERT_TRUE(r.ok());
  auto handle = instance_->SubmitAsync(
      "use dataverse A;\nfor $d in dataset D return $d.id;");
  ASSERT_TRUE(handle.ok());
  auto result = instance_->GetAsyncResult(handle.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().values.size(), 2u);
  // Handle released after retrieval.
  EXPECT_FALSE(instance_->GetAsyncResult(handle.value()).ok());
}

TEST_F(ApiTest, ErrorsDoNotPoisonTheInstance) {
  EXPECT_FALSE(instance_->Execute("for $x in dataset NoSuch return $x;").ok());
  EXPECT_FALSE(instance_->Execute("this is not aql").ok());
  EXPECT_FALSE(instance_->Execute("create type T as { id: int64 }").ok())
      << "create type without a dataverse must fail";
  // Still usable.
  auto ok = instance_->Execute("1 + 1;");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().values[0].AsInt(), 2);
}

TEST_F(ApiTest, DuplicateKeyInsertFailsStatement) {
  auto r = instance_->Execute(R"aql(
create dataverse A; use dataverse A;
create type T as { id: int64 }
create dataset D(T) primary key id;
insert into dataset D ( { "id": 1 } );
)aql");
  ASSERT_TRUE(r.ok());
  auto dup = instance_->Execute(
      "use dataverse A;\ninsert into dataset D ( { \"id\": 1 } );");
  EXPECT_FALSE(dup.ok());
}

TEST_F(ApiTest, CreateIndexOnPopulatedDatasetBackfills) {
  auto r = instance_->Execute(R"aql(
create dataverse A; use dataverse A;
create type T as { id: int64, v: int64 }
create dataset D(T) primary key id;
insert into dataset D ([ { "id": 1, "v": 10 }, { "id": 2, "v": 20 },
                         { "id": 3, "v": 30 } ]);
create index vIdx on D(v);
)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto q = instance_->Execute(
      "use dataverse A;\nfor $d in dataset D where $d.v >= 20 return $d.id;");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().values.size(), 2u);
  EXPECT_NE(q.value().logical_plan.find("vIdx"), std::string::npos)
      << q.value().logical_plan;
}

TEST_F(ApiTest, CheckpointTruncatesWalAndSurvivesRestart) {
  auto r = instance_->Execute(R"aql(
create dataverse K; use dataverse K;
create type T as { id: int64 }
create dataset D(T) primary key id;
)aql");
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(instance_
                    ->Execute("use dataverse K;\ninsert into dataset D ( { "
                              "\"id\": " +
                              std::to_string(i) + " } );")
                    .ok());
  }
  uint64_t wal_before = env::FileSize(dir_ + "/wal.log");
  EXPECT_GT(wal_before, 0u);
  ASSERT_TRUE(instance_->Checkpoint().ok());
  uint64_t wal_after = env::FileSize(dir_ + "/wal.log");
  EXPECT_LT(wal_after, wal_before / 10);

  // Restart: recovery needs only the disk components now.
  instance_.reset();
  api::InstanceConfig config;
  config.base_dir = dir_;
  config.cluster.job_startup_us = 0;
  instance_ = std::make_unique<api::AsterixInstance>(config);
  ASSERT_TRUE(instance_->Boot().ok());
  auto q = instance_->Execute(
      "use dataverse K;\ncount(for $d in dataset D return $d)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().values[0].AsInt(), 50);
  // And the system still accepts post-checkpoint writes + recovers them.
  ASSERT_TRUE(instance_
                  ->Execute("use dataverse K;\ninsert into dataset D ( { "
                            "\"id\": 1000 } );")
                  .ok());
}

// Index DDL on a populated dataset rebuilds it and reloads its records,
// which are in no WAL once checkpointed: the rebuilt dataset must be on disk
// before the statement returns, or a crash right after it loses them.
TEST_F(ApiTest, IndexDdlOnPopulatedDatasetSurvivesCrash) {
  auto r = instance_->Execute(R"aql(
create dataverse X; use dataverse X;
create type T as { id: int64, v: int64 }
create dataset Plain(T) primary key id;
create dataset Indexed(T) primary key id;
create index vIdx on Indexed(v);
)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const char* ds : {"Plain", "Indexed"}) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(instance_
                      ->Execute("use dataverse X;\ninsert into dataset " +
                                std::string(ds) + " ( { \"id\": " +
                                std::to_string(i) + ", \"v\": " +
                                std::to_string(i % 7) + " } );")
                      .ok());
    }
  }
  ASSERT_TRUE(instance_->Checkpoint().ok());

  // Runs `ddl`, "crashes" (no flush, no checkpoint), reboots and counts.
  auto count_after_crash = [&](const std::string& ddl, const std::string& ds) {
    auto d = instance_->Execute("use dataverse X;\n" + ddl);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    instance_.reset();
    api::InstanceConfig config;
    config.base_dir = dir_;
    config.cluster.job_startup_us = 0;
    instance_ = std::make_unique<api::AsterixInstance>(config);
    EXPECT_TRUE(instance_->Boot().ok());
    auto q = instance_->Execute("use dataverse X;\ncount(for $d in dataset " +
                                ds + " return $d)");
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return q.ok() ? q.value().values[0].AsInt() : -1;
  };
  EXPECT_EQ(count_after_crash("create index vIdx on Plain(v);", "Plain"), 50);
  EXPECT_EQ(count_after_crash("drop index Indexed.vIdx;", "Indexed"), 50);
}

TEST_F(ApiTest, ExternalDatasetThroughAql) {
  // Data definition 3's flow end-to-end through the API.
  std::string csv_path = dir_ + "/log.csv";
  const char* csv =
      "1.2.3.4|2013-12-22T12:13:32Z|nick|GET|/|200|100\n"
      "5.6.7.8|2013-12-23T01:00:00Z|meg|GET|/a|404|50\n";
  ASSERT_TRUE(env::WriteFileAtomic(csv_path, csv, strlen(csv)).ok());
  auto ddl = instance_->Execute(
      "create dataverse W; use dataverse W;\n"
      "create type LogT as closed { ip: string, time: string, user: string,"
      " verb: string, path: string, stat: int32, size: int32 }\n"
      "create external dataset L(LogT) using localfs ((\"path\"=\"" +
      csv_path + "\"), (\"format\"=\"delimited-text\"),"
      " (\"delimiter\"=\"|\"));");
  ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();
  auto q = instance_->Execute(
      "use dataverse W;\nfor $l in dataset L where $l.stat = 200 "
      "return $l.user;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().values.size(), 1u);
  EXPECT_EQ(q.value().values[0].AsString(), "nick");
  // External datasets are read-only: inserts must fail.
  EXPECT_FALSE(instance_->Execute(
      "use dataverse W;\ninsert into dataset L ( { \"ip\": \"x\" } );").ok());
  // Registered in the catalogs and visible after restart.
  instance_.reset();
  api::InstanceConfig config;
  config.base_dir = dir_;
  config.cluster.job_startup_us = 0;
  instance_ = std::make_unique<api::AsterixInstance>(config);
  ASSERT_TRUE(instance_->Boot().ok());
  auto q2 = instance_->Execute(
      "use dataverse W;\ncount(for $l in dataset L return $l)");
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q2.value().values[0].AsInt(), 2);
}

TEST_F(ApiTest, DropDataverseRemovesEverything) {
  auto r = instance_->Execute(R"aql(
create dataverse A; use dataverse A;
create type T as { id: int64 }
create dataset D(T) primary key id;
insert into dataset D ( { "id": 1 } );
drop dataverse A;
)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(instance_->Execute(
                   "for $x in dataset A.D return $x;").ok());
  // Recreate cleanly.
  EXPECT_TRUE(instance_->Execute(R"aql(
create dataverse A; use dataverse A;
create type T as { id: int64 }
create dataset D(T) primary key id;
)aql").ok());
}

}  // namespace
}  // namespace asterix
