// Serving-layer concurrency tests, written to run under ThreadSanitizer:
// cached reads racing committed writes must never serve stale results
// (counts observed by any single reader are monotonic while a writer only
// inserts), DDL churn racing served queries must neither crash nor leak
// results across drop/recreate incarnations of a dataset, and each client's
// `use dataverse` must hold for that client alone while functions are
// created and dropped under the parses.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/asterix.h"
#include "common/env.h"

namespace asterix {
namespace {

using adm::Value;

class ServingConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("serving_conc");
    api::InstanceConfig config;
    config.base_dir = dir_;
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    db_ = std::make_unique<api::AsterixInstance>(config);
    ASSERT_TRUE(db_->Boot().ok());
    ASSERT_TRUE(db_->Execute(R"aql(
create dataverse SC; use dataverse SC;
create type T as { id: int64, v: int64 }
create dataset D(T) primary key id;
)aql").ok());
  }
  void TearDown() override {
    db_.reset();
    env::RemoveAll(dir_);
  }

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> db_;
};

TEST_F(ServingConcurrencyTest, CachedCountsStayMonotonicUnderInserts) {
  constexpr int kRecords = 400;
  constexpr int kReaders = 3;
  storage::PartitionedDataset* ds = db_->FindDataset("SC.D");

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kRecords; ++i) {
      Value rec = adm::RecordBuilder()
                      .Add("id", Value::Int64(i))
                      .Add("v", Value::Int64(i))
                      .Build();
      ASSERT_TRUE(ds->Insert(rec).ok());
    }
    done = true;
  });

  // The writer only ever adds records, so the count each reader sees must
  // never decrease — a cache entry surviving a committed insert (a stale
  // hit) is exactly what would make it decrease after a fresh read.
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      int64_t last = -1;
      while (!done.load(std::memory_order_acquire)) {
        auto q = db_->Serve("count(for $d in dataset SC.D return $d)");
        ASSERT_TRUE(q.ok()) << q.status().ToString();
        int64_t n = q.value().values[0].AsInt();
        if (n < last) ++violations;
        last = n;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);

  // Quiesced: the final serve must observe every committed insert.
  auto final_q = db_->Serve("count(for $d in dataset SC.D return $d)");
  ASSERT_TRUE(final_q.ok());
  EXPECT_EQ(final_q.value().values[0].AsInt(), kRecords);
}

TEST_F(ServingConcurrencyTest, DdlChurnVersusServedQueries) {
  // Stable dataset the readers hammer (and cache) throughout.
  std::vector<Value> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(adm::RecordBuilder()
                          .Add("id", Value::Int64(i))
                          .Add("v", Value::Int64(i))
                          .Build());
  }
  ASSERT_TRUE(db_->FindDataset("SC.D")->LoadBulk(records).ok());

  std::atomic<bool> stop{false};
  std::thread churn([&] {
    for (int round = 0; round < 12; ++round) {
      ASSERT_TRUE(db_->Execute(R"aql(
use dataverse SC;
create dataset E(T) primary key id;
insert into dataset E ([{ "id": 1, "v": )aql" +
                               std::to_string(round) + R"aql( }]);
)aql").ok());
      ASSERT_TRUE(
          db_->Execute("use dataverse SC;\ndrop dataset E;").ok());
    }
    stop = true;
  });

  std::vector<std::thread> readers;
  std::atomic<int> stale{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        // The stable dataset must always answer, and always completely.
        auto q = db_->Serve("count(for $d in dataset SC.D return $d)");
        ASSERT_TRUE(q.ok()) << q.status().ToString();
        if (q.value().values[0].AsInt() != 100) ++stale;
        // The churned dataset either exists (one row) or doesn't — a
        // cached result from a dropped incarnation counts as stale.
        auto e = db_->Serve("count(for $d in dataset SC.E return $d)");
        if (e.ok() && e.value().values[0].AsInt() > 1) ++stale;
        (void)r;
      }
    });
  }
  churn.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(stale.load(), 0);

  // After the churn settles, E is dropped: no cache entry may resurrect it.
  auto gone = db_->Serve("count(for $d in dataset SC.E return $d)");
  EXPECT_FALSE(gone.ok());
}

TEST_F(ServingConcurrencyTest, MixedServeAsyncAndDdlJoinCleanly) {
  std::vector<Value> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(adm::RecordBuilder()
                          .Add("id", Value::Int64(i))
                          .Add("v", Value::Int64(i))
                          .Build());
  }
  ASSERT_TRUE(db_->FindDataset("SC.D")->LoadBulk(records).ok());

  std::vector<uint64_t> handles;
  for (int i = 0; i < 10; ++i) {
    auto h = db_->ServeAsync("count(for $d in dataset SC.D return $d)");
    ASSERT_TRUE(h.ok());
    handles.push_back(h.value());
    if (i == 4) {
      ASSERT_TRUE(db_->Execute(
                         R"aql(insert into dataset SC.D ([{ "id": 1000, "v": 0 }]);)aql")
                      .ok());
    }
  }
  for (uint64_t h : handles) {
    auto r = db_->GetAsyncResult(h);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    int64_t n = r.value().values[0].AsInt();
    EXPECT_TRUE(n == 50 || n == 51) << n;
  }
}

TEST_F(ServingConcurrencyTest, ClientSessionsHoldWhileFunctionsChurn) {
  // Dataverse Vc's dataset D holds c + 1 records, so every count names the
  // dataverse it resolved in.
  constexpr int kClients = 4;
  for (int c = 0; c < kClients; ++c) {
    const std::string dv = "V" + std::to_string(c);
    ASSERT_TRUE(db_->Execute("create dataverse " + dv + "; use dataverse " +
                             dv + R"aql(;
create type T as { id: int64 }
create dataset D(T) primary key id;
)aql").ok());
    std::vector<Value> records;
    for (int i = 0; i <= c; ++i) {
      records.push_back(
          adm::RecordBuilder().Add("id", Value::Int64(i)).Build());
    }
    ASSERT_TRUE(db_->FindDataset(dv + ".D")->LoadBulk(records).ok());
  }

  // Parse-time function lookup reads the catalog these change.
  std::atomic<bool> stop{false};
  std::thread ddl([&] {
    for (int round = 0; round < 20; ++round) {
      ASSERT_TRUE(db_->Execute("use dataverse SC;\n"
                               "create function churn($x) { $x + 1 };")
                      .ok());
      ASSERT_TRUE(db_->Execute("use dataverse SC;\ndrop function churn;").ok());
    }
    stop = true;
  });

  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string use = "use dataverse V" + std::to_string(c) + ";";
      const std::string count = "count(for $d in dataset D return $d)";
      api::ServeOptions opts{"client-" + std::to_string(c)};
      ASSERT_TRUE(db_->Serve(use, opts).ok());
      for (int round = 0; round < 5 || !stop.load(std::memory_order_acquire);
           ++round) {
        // Alternate unqualified counts with scripts that repeat the `use`.
        auto r = db_->Serve(round % 2 == 0 ? count : use + " " + count, opts);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        if (r.value().values[0].AsInt() != c + 1) ++wrong;
      }
    });
  }
  ddl.join();
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace asterix
