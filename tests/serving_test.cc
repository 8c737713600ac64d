// Serving-layer tests: admission control (FIFO memory-pool gate), the
// plan-keyed result cache (LRU + TinyLFU admission + version-clock
// invalidation), single-flight request coalescing, per-client rate
// limiting, and the Serve() pipeline's end-to-end equivalence guarantees —
// a cache hit, a coalesced wait, and a cold execution of the same script
// must return identical results, and any mutation to a dataset a cached
// entry read must invalidate it before the next read.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/asterix.h"
#include "common/env.h"
#include "common/version_clock.h"
#include "server/admission.h"
#include "server/coalescer.h"
#include "server/rate_limiter.h"
#include "server/result_cache.h"

namespace asterix {
namespace {

using adm::Value;

// ---------------------------------------------------------------------------
// Admission controller
// ---------------------------------------------------------------------------

TEST(AdmissionTest, DisabledPoolPassesThrough) {
  server::AdmissionController ctl({/*pool_bytes=*/0, 4, 1000});
  auto g = ctl.Acquire(1 << 20);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().bytes(), 0u);  // empty grant: nothing to release
}

TEST(AdmissionTest, ZeroDeclarationBypassesQueue) {
  server::AdmissionController ctl({1024, 4, 1000});
  auto g = ctl.Acquire(0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().bytes(), 0u);
  EXPECT_EQ(ctl.used_bytes(), 0u);
}

TEST(AdmissionTest, OversizedDeclarationClampsToPool) {
  server::AdmissionController ctl({100, 4, 1000});
  auto g = ctl.Acquire(100000);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().bytes(), 100u);
  EXPECT_EQ(ctl.used_bytes(), 100u);
}

TEST(AdmissionTest, GrantReleaseReturnsBytes) {
  server::AdmissionController ctl({1000, 4, 1000});
  {
    auto g = ctl.Acquire(600);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(ctl.used_bytes(), 600u);
  }
  EXPECT_EQ(ctl.used_bytes(), 0u);
}

TEST(AdmissionTest, FifoOrderAcrossWaiters) {
  server::AdmissionController ctl({1000, 8, 10000});
  auto first = ctl.Acquire(1000);
  ASSERT_TRUE(first.ok());

  std::atomic<int> order{0};
  std::atomic<int> big_rank{-1};
  std::atomic<int> small_rank{-1};
  std::thread big([&] {
    auto g = ctl.Acquire(900);
    ASSERT_TRUE(g.ok());
    big_rank = order++;
  });
  // The big waiter must be queued before the small one shows up, or FIFO
  // order is not what we are testing.
  while (ctl.queue_depth() < 1) std::this_thread::yield();
  std::thread small([&] {
    auto g = ctl.Acquire(200);
    ASSERT_TRUE(g.ok());
    small_rank = order++;
  });
  while (ctl.queue_depth() < 2) std::this_thread::yield();

  // Strict FIFO: once the pool frees up, the 900-byte head-of-line job is
  // served first (a smallest-first controller would grant 200 immediately).
  // 900 + 200 > pool, so the small grant can only happen after the big
  // thread finishes and releases — the ranks cannot race.
  first.value().Release();
  big.join();
  small.join();
  EXPECT_EQ(big_rank.load(), 0);
  EXPECT_EQ(small_rank.load(), 1);
}

TEST(AdmissionTest, QueueFullRejectsOverloaded) {
  server::AdmissionController ctl({100, /*max_queue=*/1, 10000});
  auto holder = ctl.Acquire(100);
  ASSERT_TRUE(holder.ok());
  std::thread waiter([&] {
    auto g = ctl.Acquire(100);  // parks in the queue
    EXPECT_TRUE(g.ok());
  });
  while (ctl.queue_depth() < 1) std::this_thread::yield();
  auto rejected = ctl.Acquire(100);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  holder.value().Release();
  waiter.join();
}

TEST(AdmissionTest, TimeoutRejectsOverloaded) {
  server::AdmissionController ctl({100, 8, /*timeout_ms=*/50});
  auto holder = ctl.Acquire(100);
  ASSERT_TRUE(holder.ok());
  auto timed_out = ctl.Acquire(100);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kOverloaded);
  // The timed-out ticket must have left the queue.
  EXPECT_EQ(ctl.queue_depth(), 0u);
}

// ---------------------------------------------------------------------------
// Rate limiter
// ---------------------------------------------------------------------------

TEST(RateLimiterTest, BurstThenRateLimitedNotOverloaded) {
  server::RateLimiter rl({/*qps=*/1.0, /*burst=*/2.0});
  EXPECT_TRUE(rl.Admit("alice").ok());
  EXPECT_TRUE(rl.Admit("alice").ok());
  Status third = rl.Admit("alice");
  ASSERT_FALSE(third.ok());
  // The "you exceeded your allowance" signal is distinct from the
  // admission controller's "system is saturated" signal.
  EXPECT_EQ(third.code(), StatusCode::kRateLimited);
  EXPECT_NE(third.code(), StatusCode::kOverloaded);
}

TEST(RateLimiterTest, ClientsHaveIndependentBuckets) {
  server::RateLimiter rl({1.0, 1.0});
  EXPECT_TRUE(rl.Admit("alice").ok());
  EXPECT_FALSE(rl.Admit("alice").ok());
  EXPECT_TRUE(rl.Admit("bob").ok());  // bob's bucket is untouched
  EXPECT_EQ(rl.clients(), 2u);
}

TEST(RateLimiterTest, DisabledAdmitsEverything) {
  server::RateLimiter rl({0.0, 0.0});
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(rl.Admit("x").ok());
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

server::CacheDep DepOn(const std::string& name) {
  auto* cell = vclock::VersionClock::Default().GetCell(name);
  return {name, cell, cell->load(std::memory_order_acquire)};
}

TEST(ResultCacheTest, InsertLookupRoundTrip) {
  server::ResultCache<int> cache(1024);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_TRUE(cache.Insert("k", std::make_shared<int>(7), 100, {}));
  auto hit = cache.Lookup("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 7);
  auto s = cache.Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCacheTest, VersionBumpInvalidatesBeforeNextRead) {
  server::ResultCache<int> cache(1024);
  server::CacheDep dep = DepOn("vt.cache_bump");
  ASSERT_TRUE(cache.Insert("k", std::make_shared<int>(1), 10, {dep}));
  ASSERT_NE(cache.Lookup("k"), nullptr);
  // A committed write bumps the cell; the very next lookup must miss.
  dep.cell->fetch_add(1, std::memory_order_release);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_GE(cache.Stats().invalidations, 1u);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(ResultCacheTest, StaleDepMakesInsertStillborn) {
  server::ResultCache<int> cache(1024);
  server::CacheDep dep = DepOn("vt.cache_stillborn");
  // The dataset moved between resolution and insert: caching now would
  // serve a result older than the committed write.
  dep.cell->fetch_add(1, std::memory_order_release);
  EXPECT_FALSE(cache.Insert("k", std::make_shared<int>(1), 10, {dep}));
  EXPECT_EQ(cache.Lookup("k"), nullptr);
}

TEST(ResultCacheTest, InvalidateDatasetDropsDependentEntriesOnly) {
  server::ResultCache<int> cache(4096);
  ASSERT_TRUE(cache.Insert("on_a", std::make_shared<int>(1), 10,
                           {DepOn("vt.ds_a")}));
  ASSERT_TRUE(cache.Insert("on_b", std::make_shared<int>(2), 10,
                           {DepOn("vt.ds_b")}));
  EXPECT_EQ(cache.InvalidateDataset("vt.ds_a"), 1u);
  EXPECT_EQ(cache.Lookup("on_a"), nullptr);
  EXPECT_NE(cache.Lookup("on_b"), nullptr);
}

TEST(ResultCacheTest, LruEvictionUnderByteCapacity) {
  server::ResultCache<int> cache(250);
  ASSERT_TRUE(cache.Insert("a", std::make_shared<int>(1), 100, {}));
  ASSERT_TRUE(cache.Insert("b", std::make_shared<int>(2), 100, {}));
  // Touch "a" so "b" becomes the LRU victim, then teach the sketch that
  // "c" is popular enough to displace it.
  for (int i = 0; i < 8; ++i) cache.Lookup("a");
  for (int i = 0; i < 8; ++i) cache.Lookup("c");
  ASSERT_TRUE(cache.Insert("c", std::make_shared<int>(3), 100, {}));
  EXPECT_EQ(cache.Lookup("b"), nullptr);  // evicted
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_GE(cache.Stats().evictions, 1u);
}

TEST(ResultCacheTest, TinyLfuRejectsOneHitWonderOverHotVictim) {
  server::ResultCache<int> cache(150);
  ASSERT_TRUE(cache.Insert("hot", std::make_shared<int>(1), 100, {}));
  for (int i = 0; i < 10; ++i) cache.Lookup("hot");
  // A never-seen key cannot displace a frequently-requested resident.
  EXPECT_FALSE(cache.Insert("cold", std::make_shared<int>(2), 100, {}));
  EXPECT_GE(cache.Stats().admission_rejects, 1u);
  EXPECT_NE(cache.Lookup("hot"), nullptr);
}

TEST(ResultCacheTest, OversizedPayloadRejected) {
  server::ResultCache<int> cache(100);
  EXPECT_FALSE(cache.Insert("k", std::make_shared<int>(1), 101, {}));
}

// ---------------------------------------------------------------------------
// Request coalescer
// ---------------------------------------------------------------------------

TEST(CoalescerTest, FollowersShareTheLeadersResult) {
  server::RequestCoalescer<int> co;
  auto leader = co.Join("q");
  ASSERT_TRUE(leader.leader());
  EXPECT_EQ(co.inflight(), 1u);

  constexpr int kFollowers = 6;
  std::atomic<int> sum{0};
  std::atomic<int> joined{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back([&] {
      auto t = co.Join("q");
      EXPECT_FALSE(t.leader());
      ++joined;
      auto r = t.Wait();
      ASSERT_NE(r, nullptr);
      sum += *r;
    });
  }
  // Publish only after every follower has attached to the flight.
  while (joined.load() < kFollowers) std::this_thread::yield();
  co.Publish("q", std::make_shared<int>(42));
  for (auto& th : threads) th.join();
  EXPECT_EQ(sum.load(), 42 * kFollowers);
  EXPECT_EQ(co.inflight(), 0u);
}

TEST(CoalescerTest, NewJoinAfterPublishStartsFresh) {
  server::RequestCoalescer<int> co;
  auto t1 = co.Join("q");
  ASSERT_TRUE(t1.leader());
  co.Publish("q", std::make_shared<int>(1));
  auto t2 = co.Join("q");
  EXPECT_TRUE(t2.leader());  // retired key: a new single-flight round
  co.Publish("q", std::make_shared<int>(2));
}

// ---------------------------------------------------------------------------
// Serve() end to end
// ---------------------------------------------------------------------------

class ServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::NewScratchDir("serving");
    api::InstanceConfig config;
    config.base_dir = dir_;
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    Customize(&config);
    db_ = std::make_unique<api::AsterixInstance>(config);
    ASSERT_TRUE(db_->Boot().ok());
    ASSERT_TRUE(db_->Execute(R"aql(
create dataverse S; use dataverse S;
create type T as { id: int64, v: int64 }
create dataset D(T) primary key id;
)aql").ok());
    std::vector<Value> records;
    for (int i = 0; i < 200; ++i) {
      records.push_back(adm::RecordBuilder()
                            .Add("id", Value::Int64(i))
                            .Add("v", Value::Int64(i % 10))
                            .Build());
    }
    ASSERT_TRUE(db_->FindDataset("S.D")->LoadBulk(records).ok());
  }
  void TearDown() override {
    db_.reset();
    env::RemoveAll(dir_);
  }
  virtual void Customize(api::InstanceConfig* /*config*/) {}

  static constexpr const char* kCountQuery =
      "count(for $d in dataset S.D return $d)";

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> db_;
};

TEST_F(ServingTest, ColdThenCacheHitIdenticalResults) {
  auto cold = db_->Serve(kCountQuery);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().from_cache);
  EXPECT_EQ(cold.value().values[0].AsInt(), 200);

  auto hit = db_->Serve(kCountQuery);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().from_cache);
  EXPECT_EQ(hit.value().values[0].AsInt(), 200);
  EXPECT_EQ(hit.value().values.size(), cold.value().values.size());
}

TEST_F(ServingTest, WhitespaceVariantsShareOneCacheEntry) {
  ASSERT_TRUE(db_->Serve(kCountQuery).ok());
  auto hit = db_->Serve("  count(for $d in dataset S.D\n   return $d)  ");
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().from_cache);
}

TEST_F(ServingTest, ConcurrentIdenticalServesAllAgree) {
  // Every path through the pipeline — cold leader, coalesced follower,
  // cache hit — must produce the same values.
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<Result<api::ExecutionResult>> results(
      kClients, Status::Internal("not served"));
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] { results[i] = db_->Serve(kCountQuery); });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ASSERT_EQ(results[i].value().values.size(), 1u);
    EXPECT_EQ(results[i].value().values[0].AsInt(), 200);
  }
}

TEST_F(ServingTest, MutationInvalidatesBeforeNextRead) {
  auto cold = db_->Serve(kCountQuery);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.value().values[0].AsInt(), 200);
  ASSERT_TRUE(db_->Serve(kCountQuery).value().from_cache);

  ASSERT_TRUE(
      db_->Execute(R"aql(insert into dataset S.D ([{ "id": 500, "v": 1 }]);)aql")
          .ok());

  // The committed insert bumped S.D's version: the cached entry must not
  // be served again, and the re-execution must see the new record.
  auto fresh = db_->Serve(kCountQuery);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().from_cache);
  EXPECT_EQ(fresh.value().values[0].AsInt(), 201);

  auto rehit = db_->Serve(kCountQuery);
  ASSERT_TRUE(rehit.ok());
  EXPECT_TRUE(rehit.value().from_cache);
  EXPECT_EQ(rehit.value().values[0].AsInt(), 201);
}

TEST_F(ServingTest, DeleteInvalidatesToo) {
  ASSERT_TRUE(db_->Serve(kCountQuery).ok());
  ASSERT_TRUE(
      db_->Execute("delete $d from dataset S.D where $d.id = 0;").ok());
  auto fresh = db_->Serve(kCountQuery);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().from_cache);
  EXPECT_EQ(fresh.value().values[0].AsInt(), 199);
}

TEST_F(ServingTest, DropAndRecreateNeverServesStaleResults) {
  ASSERT_TRUE(db_->Serve(kCountQuery).ok());
  ASSERT_TRUE(db_->Execute(R"aql(
use dataverse S;
drop dataset D;
create dataset D(T) primary key id;
)aql").ok());
  // The recreated dataset is empty; a stale hit would report 200.
  auto fresh = db_->Serve(kCountQuery);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_FALSE(fresh.value().from_cache);
  EXPECT_EQ(fresh.value().values[0].AsInt(), 0);
}

TEST_F(ServingTest, UnrelatedDdlKeepsCachedFunctionCalls) {
  // count(...) resolves a function name, which ties the entry to the
  // function catalog; DDL that leaves that catalog alone must not evict it.
  ASSERT_TRUE(db_->Serve(kCountQuery).ok());
  ASSERT_TRUE(db_->Serve(kCountQuery).value().from_cache);
  ASSERT_TRUE(db_->Execute("create dataverse Z;").ok());
  auto kept = db_->Serve(kCountQuery);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_TRUE(kept.value().from_cache);
  EXPECT_EQ(kept.value().values[0].AsInt(), 200);

  ASSERT_TRUE(
      db_->Execute("use dataverse S; create function inc($x) { $x + 1 };").ok());
  auto evicted = db_->Serve(kCountQuery);
  ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
  EXPECT_FALSE(evicted.value().from_cache);
  EXPECT_EQ(evicted.value().values[0].AsInt(), 200);
}

TEST_F(ServingTest, MutatingScriptsBypassTheCache) {
  auto ins = db_->Serve(
      R"aql(insert into dataset S.D ([{ "id": 900, "v": 0 }]);)aql");
  ASSERT_TRUE(ins.ok());
  EXPECT_FALSE(ins.value().from_cache);
  // Running the same insert again must execute again (duplicate key).
  auto again = db_->Serve(
      R"aql(insert into dataset S.D ([{ "id": 900, "v": 0 }]);)aql");
  EXPECT_FALSE(again.ok());
}

TEST_F(ServingTest, StatusJsonExposesServerSection) {
  ASSERT_TRUE(db_->Serve(kCountQuery).ok());
  ASSERT_TRUE(db_->Serve(kCountQuery).ok());
  std::string status = db_->StatusJson();
  EXPECT_NE(status.find("\"server\""), std::string::npos);
  EXPECT_NE(status.find("\"admission\""), std::string::npos);
  EXPECT_NE(status.find("\"result_cache\""), std::string::npos);
  EXPECT_NE(status.find("\"hits\": 1"), std::string::npos);
}

TEST_F(ServingTest, AsyncSubmissionsJoinedOnDestroy) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db_->ServeAsync(kCountQuery).ok());
  }
  // Destroy with results never collected: the destructor must block until
  // the background scripts finish rather than tearing datasets from under
  // them.
  db_.reset();
}

// Two dataverses with a same-named dataset: A.D holds two records, B.D one.
// Unqualified requests resolve in whatever dataverse their client's session
// is in.
class ServingSessionTest : public ServingTest {
 protected:
  void SetUp() override {
    ServingTest::SetUp();
    ASSERT_TRUE(db_->Execute(R"aql(
create dataverse A; use dataverse A;
create type T as { id: int64 }
create dataset D(T) primary key id;
insert into dataset D ([{ "id": 1 }, { "id": 2 }]);
create dataverse B; use dataverse B;
create type T as { id: int64 }
create dataset D(T) primary key id;
insert into dataset D ([{ "id": 1 }]);
)aql").ok());
  }

  int64_t CountFor(const std::string& aql, const api::ServeOptions& opts) {
    auto r = db_->Serve(aql, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().values[0].AsInt() : -1;
  }

  static constexpr const char* kUnqualifiedCount =
      "count(for $d in dataset D return $d)";
};

TEST_F(ServingSessionTest, UseDataverseStaysWithItsClient) {
  api::ServeOptions x{"client-x"};
  api::ServeOptions b{"client-b"};
  ASSERT_TRUE(db_->Serve("use dataverse A;", x).ok());
  EXPECT_EQ(CountFor(kUnqualifiedCount, x), 2);

  EXPECT_EQ(CountFor("use dataverse B; count(for $d in dataset D return $d)",
                     b),
            1);
  EXPECT_EQ(CountFor(kUnqualifiedCount, x), 2);

  // Execute() has its own session too.
  ASSERT_TRUE(db_->Execute("use dataverse B;").ok());
  EXPECT_EQ(CountFor(kUnqualifiedCount, x), 2);
  auto direct = db_->Execute(kUnqualifiedCount);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct.value().values[0].AsInt(), 1);
}

TEST_F(ServingSessionTest, UseScriptsAreCachedAndStillSwitchTheSession) {
  const std::string script =
      "use dataverse A; count(for $d in dataset D return $d)";
  api::ServeOptions c{"client-c"};
  auto cold = db_->Serve(script, c);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().from_cache);
  EXPECT_EQ(cold.value().values[0].AsInt(), 2);

  auto hit = db_->Serve(script, c);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.value().from_cache);
  EXPECT_EQ(hit.value().values[0].AsInt(), 2);
  EXPECT_EQ(CountFor(kUnqualifiedCount, c), 2);

  // A client that starts elsewhere shares the entry, and the answer from
  // the cache still moves its session to A.
  api::ServeOptions d{"client-d"};
  ASSERT_TRUE(db_->Serve("use dataverse B;", d).ok());
  auto shared = db_->Serve(script, d);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_TRUE(shared.value().from_cache);
  EXPECT_EQ(CountFor(kUnqualifiedCount, d), 2);
}

class ServingRateLimitTest : public ServingTest {
 protected:
  void Customize(api::InstanceConfig* config) override {
    config->rate_limit_qps = 1.0;
    config->rate_limit_burst = 2.0;
  }
};

TEST_F(ServingRateLimitTest, PerClientBucketsRejectWithRateLimited) {
  api::ServeOptions alice{"alice"};
  ASSERT_TRUE(db_->Serve(kCountQuery, alice).ok());
  ASSERT_TRUE(db_->Serve(kCountQuery, alice).ok());
  auto third = db_->Serve(kCountQuery, alice);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kRateLimited);
  // A different client is unaffected.
  EXPECT_TRUE(db_->Serve(kCountQuery, api::ServeOptions{"bob"}).ok());
}

class ServingAdmissionTest : public ServingTest {
 protected:
  void Customize(api::InstanceConfig* config) override {
    config->cluster.cluster_memory_pool_bytes = 8ull << 20;
    config->cluster.op_memory_budget_bytes = 1 << 20;
  }
};

TEST_F(ServingAdmissionTest, QueriesRunUnderAdmissionGrants) {
  auto r = db_->Execute(
      "for $d in dataset S.D order by $d.id return $d.v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().values.size(), 200u);
  std::string status = db_->StatusJson();
  EXPECT_NE(status.find("\"admission\""), std::string::npos);
  // The memory-intensive sort declared a budget and went through the pool.
  EXPECT_NE(status.find("\"pool_bytes\": 8388608"), std::string::npos);
}

}  // namespace
}  // namespace asterix
