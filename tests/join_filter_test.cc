// Selective hash joins: each inner hash join builds on the input with the
// smaller estimated row count, and pushes its build keys into the probe
// side's scan as a filter. These tests pin that answers do not change (in
// every LSM state, on row and column data, with unknown and mixed-width
// keys, empty and spilled builds), what the plans look like, and that a
// failing build releases the scans waiting for its filter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adm/serde.h"
#include "algebricks/physical.h"
#include "api/asterix.h"
#include "common/env.h"
#include "hyracks/join_filter.h"

namespace asterix {
namespace {

using adm::Value;

constexpr const char* kDdl = R"aql(
create dataverse J; use dataverse J;
create type UserT as { id: int64, name: string, since: int64 }
create type MsgT as open { mid: int64, ts: int64, text: string }
create type KeyT as { id: int64, k: int32 }
create dataset Users(UserT) primary key id;
create dataset Msgs(MsgT) primary key mid;
create dataset CUsers(UserT) primary key id with { "storage-format": "column" };
create dataset CMsgs(MsgT) primary key mid with { "storage-format": "column" };
create dataset Keys32(KeyT) primary key id;
create index sinceIdx on Users(since);
create index csinceIdx on CUsers(since);
create index tsIdx on Msgs(ts);
)aql";

constexpr int kUsers = 200;
constexpr int kMsgs = 800;

std::string UserRec(int id) {
  return "{ \"id\": " + std::to_string(id) + ", \"name\": \"u" +
         std::to_string(id) + "\", \"since\": " + std::to_string(id) + " }";
}

/// A message's author is an int64 user id, or a double, NULL or absent:
/// authors 200..249 name no user.
std::string MsgRec(int mid, int author) {
  std::string rec = "{ \"mid\": " + std::to_string(mid) +
                    ", \"ts\": " + std::to_string(mid) + ", \"text\": \"m" +
                    std::to_string(mid) + "\"";
  if (mid % 13 == 0) return rec + " }";  // MISSING author
  if (mid % 11 == 0) return rec + ", \"author\": null }";
  if (mid % 7 == 0) {
    return rec + ", \"author\": " + std::to_string(author) + ".0 }";
  }
  return rec + ", \"author\": " + std::to_string(author) + " }";
}

std::string InsertAll(const std::string& dataset,
                      const std::vector<std::string>& recs) {
  std::string out = "insert into dataset " + dataset + " ([";
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i > 0) out += ",";
    out += recs[i];
  }
  return out + "]);";
}

enum class LsmState { kMemoryOnly, kOneComponent, kMultiComponent };

class JoinFilterTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = env::NewScratchDir("joinfilter"); }
  void TearDown() override {
    db_.reset();
    env::RemoveAll(dir_);
  }

  void Boot(size_t op_budget_bytes = 0) {
    api::InstanceConfig config;
    config.base_dir = dir_ + "/db";
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    if (op_budget_bytes > 0) {
      config.cluster.op_memory_budget_bytes = op_budget_bytes;
    }
    db_ = std::make_unique<api::AsterixInstance>(config);
    ASSERT_TRUE(db_->Boot().ok());
    auto r = db_->Execute(kDdl);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  void Run(const std::string& aql) {
    auto r = db_->Execute("use dataverse J;\n" + aql);
    ASSERT_TRUE(r.ok()) << aql << ": " << r.status().ToString();
  }

  /// Loads users, messages and 32-bit keys into the row and column
  /// datasets, leaving the primary indexes in `state`. The multi-component
  /// state holds a newer version that changes a message's join key, and
  /// deleted messages and users, in a newer disk component and in memory.
  void Load(LsmState state) {
    std::vector<std::string> users, msgs;
    for (int i = 0; i < kUsers; ++i) users.push_back(UserRec(i));
    for (int m = 0; m < kMsgs; ++m) msgs.push_back(MsgRec(m, m % 250));
    for (const char* prefix : {"", "C"}) {
      Run(InsertAll(std::string(prefix) + "Users", users));
      Run(InsertAll(std::string(prefix) + "Msgs", msgs));
    }
    std::vector<Value> keys;
    for (int i = 0; i < kUsers; ++i) {
      keys.push_back(Value::Record(
          {{"id", Value::Int64(i)}, {"k", Value::Int32(i % 50)}}));
    }
    ASSERT_TRUE(db_->FindDataset("J.Keys32")->LoadBulk(keys).ok());
    if (state == LsmState::kMemoryOnly) return;
    ASSERT_TRUE(db_->FlushAll().ok());
    if (state == LsmState::kOneComponent) return;
    for (const char* prefix : {"", "C"}) {
      std::string m = std::string(prefix) + "Msgs";
      std::string u = std::string(prefix) + "Users";
      // Newer versions in a second component: messages 0..19 (authors
      // 0..19) move to an author no user has, 20..39 to authors 0..19.
      Run("delete $m from dataset " + m + " where $m.mid < 40;");
      std::vector<std::string> moved;
      for (int mid = 0; mid < 40; ++mid) {
        moved.push_back(MsgRec(mid, mid < 20 ? 999 : mid - 20));
      }
      Run(InsertAll(m, moved));
      ASSERT_TRUE(db_->FlushAll().ok());
      // In memory: deleted probe records that joined, a deleted build
      // record, and new messages.
      Run("delete $m from dataset " + m +
          " where $m.mid >= 250 and $m.mid < 270;");
      Run("delete $u from dataset " + u + " where $u.id = 3;");
      std::vector<std::string> fresh;
      for (int mid = kMsgs; mid < kMsgs + 20; ++mid) {
        fresh.push_back(MsgRec(mid, mid % 20));
      }
      Run(InsertAll(m, fresh));
    }
  }

  /// Runs `q` compiled and through the reference path (a let-bound
  /// subquery the interpreter evaluates) and expects the same multiset.
  api::ExecutionResult ExpectMatchesReference(const std::string& q) {
    auto compiled = db_->Execute("use dataverse J;\n" + q + ";");
    EXPECT_TRUE(compiled.ok()) << q << ": " << compiled.status().ToString();
    if (!compiled.ok()) return {};
    EXPECT_TRUE(compiled.value().used_compiled_path) << q;
    auto reference =
        db_->Execute("use dataverse J;\nlet $r := (" + q + ") return $r;");
    EXPECT_TRUE(reference.ok()) << q << ": " << reference.status().ToString();
    if (!reference.ok()) return {};
    EXPECT_EQ(reference.value().values.size(), 1u);
    std::multiset<std::string> a, b;
    for (const auto& v : compiled.value().values) a.insert(v.ToString());
    for (const auto& v : reference.value().values[0].AsList()) {
      b.insert(v.ToString());
    }
    EXPECT_EQ(a, b) << q << "\n" << compiled.value().job_plan;
    return compiled.take();
  }

  /// The join queries every data state is checked with, over datasets
  /// `users` and `msgs`.
  static std::vector<std::string> JoinQueries(const std::string& users,
                                              const std::string& msgs) {
    const std::string ret = " return { \"u\": $u.name, \"m\": $m.mid }";
    const std::string um =
        "for $u in dataset " + users + " for $m in dataset " + msgs;
    const std::string mu =
        "for $m in dataset " + msgs + " for $u in dataset " + users;
    return {
        // Selective build, in both FOR orders.
        um + " where $m.author = $u.id and $u.since < 20" + ret,
        mu + " where $m.author = $u.id and $u.since < 20" + ret,
        // A probe side with its own select (vectorized on column data).
        um + " where $m.author = $u.id and $u.since < 20 and $m.mid < 700" +
            ret,
        // Unselective: every user.
        um + " where $m.author = $u.id" + ret,
        // An empty build.
        um + " where $m.author = $u.id and $u.since < -5" + ret,
        // int32 build keys against int64 and double probe keys.
        "for $k in dataset Keys32 for $m in dataset " + msgs +
            " where $m.author = $k.k and $k.id < 30"
            " return { \"k\": $k.id, \"m\": $m.mid }",
    };
  }

  void CheckAllQueries() {
    for (const char* prefix : {"", "C"}) {
      for (const std::string& q :
           JoinQueries(std::string(prefix) + "Users",
                       std::string(prefix) + "Msgs")) {
        ExpectMatchesReference(q);
      }
    }
  }

  std::string JobFor(const std::string& q) {
    auto r = db_->Explain("use dataverse J;\n" + q + ";");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().job_plan : "";
  }

  /// The plan line of the operator whose name starts with `prefix`.
  static std::string LineOf(const std::string& plan,
                            const std::string& prefix) {
    size_t at = plan.find("\n" + prefix);
    if (at == std::string::npos) {
      if (plan.rfind(prefix, 0) != 0) return "";
      at = 0;
    } else {
      ++at;
    }
    return plan.substr(at, plan.find('\n', at) - at);
  }

  std::string dir_;
  std::unique_ptr<api::AsterixInstance> db_;
};

// --- Answers -----------------------------------------------------------------

TEST_F(JoinFilterTest, MemoryOnlyResultsMatchReference) {
  Boot();
  Load(LsmState::kMemoryOnly);
  CheckAllQueries();
}

TEST_F(JoinFilterTest, OneComponentResultsMatchReference) {
  Boot();
  Load(LsmState::kOneComponent);
  CheckAllQueries();
}

TEST_F(JoinFilterTest, MultiComponentResultsMatchReference) {
  Boot();
  Load(LsmState::kMultiComponent);
  CheckAllQueries();
  // Message 5's newer version names an author no user has: its older
  // version (author 5) must not come back through the join.
  auto r = ExpectMatchesReference(
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.author = $u.id and $u.since < 20 and $m.mid = 5 "
      "return $m.mid");
  EXPECT_TRUE(r.values.empty());
}

TEST_F(JoinFilterTest, FilterDropsOnlyWhatCannotJoin) {
  Boot();
  Load(LsmState::kOneComponent);
  auto r = ExpectMatchesReference(
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.author = $u.id and $u.since < 20 "
      "return { \"u\": $u.name, \"m\": $m.mid }");
  ASSERT_TRUE(r.stats.profile);
  uint64_t emitted = 0, dropped = 0;
  for (const auto& op : r.stats.profile->Rollup()) {
    if (op.name.rfind("scan(Msgs)", 0) == 0) {
      emitted = op.tuples_out;
      dropped = op.filter_dropped;
    }
  }
  // Every message is either dropped or emitted, and about 20 of 250
  // authors join: most of the scan never leaves it.
  EXPECT_EQ(emitted + dropped, static_cast<uint64_t>(kMsgs));
  EXPECT_GT(dropped, static_cast<uint64_t>(kMsgs) / 2);
  EXPECT_GE(emitted, r.values.size());
}

TEST_F(JoinFilterTest, SpilledBuildMatchesReference) {
  Boot(/*op_budget_bytes=*/16 * 1024);
  Load(LsmState::kOneComponent);
  auto r = ExpectMatchesReference(
      "for $u in dataset Users for $m in dataset Msgs "
      "where $m.author = $u.id and $u.since < 150 "
      "return { \"u\": $u.name, \"m\": $m.mid }");
  ASSERT_TRUE(r.stats.profile);
  uint64_t spilled = 0;
  for (const auto& s : r.stats.profile->spans) {
    if (s.op_name == "hybrid-hash-join") spilled += s.spilled_partitions;
  }
  EXPECT_GT(spilled, 0u) << r.job_plan;
}

// --- Plans -------------------------------------------------------------------

TEST_F(JoinFilterTest, SelectiveJoinBuildsOnTheFilteredSideInBothOrders) {
  Boot();
  Load(LsmState::kOneComponent);
  for (const char* q :
       {"for $u in dataset Users for $m in dataset Msgs "
        "where $m.author = $u.id and $u.since < 20 return $m.mid",
        "for $m in dataset Msgs for $u in dataset Users "
        "where $m.author = $u.id and $u.since < 20 return $m.mid"}) {
    std::string job = JobFor(q);
    // The selected users feed the build port; the message scan, which
    // carries the filter, the probe port.
    EXPECT_NE(job.find("(from select, build)"), std::string::npos) << job;
    EXPECT_NE(job.find("join-filter=[author], probe)"), std::string::npos)
        << job;
    EXPECT_NE(LineOf(job, "scan(Msgs)").find("join-filter=[author]"),
              std::string::npos)
        << job;
    EXPECT_EQ(LineOf(job, "scan(Users)").find("join-filter"),
              std::string::npos)
        << job;
  }
}

TEST_F(JoinFilterTest, EstimatesBoundEachFieldByBothEndsOfItsWindow) {
  Boot();
  Load(LsmState::kOneComponent);
  // 20 users against 60 messages, each a window on an indexed field, read
  // by scans. Either end of the users' window alone admits 100 or more of
  // them, more than the 60 messages.
  std::string job = JobFor(
      "for $m in dataset Msgs for $u in dataset Users "
      "where /*+ skip-index */ $m.author = $u.id and $u.since >= 100 "
      "and $u.since < 120 "
      "and $m.ts >= 0 and $m.ts < 60 return $m.mid");
  EXPECT_NE(LineOf(job, "scan(Msgs)").find("join-filter=[author]"),
            std::string::npos)
      << job;
  EXPECT_EQ(LineOf(job, "scan(Users)").find("join-filter"), std::string::npos)
      << job;
}

TEST_F(JoinFilterTest, VectorizedProbeSideCarriesTheFilter) {
  Boot();
  Load(LsmState::kOneComponent);
  std::string job = JobFor(
      "for $u in dataset CUsers for $m in dataset CMsgs "
      "where $m.author = $u.id and $u.since < 20 and $m.mid < 700 "
      "return $m.mid");
  EXPECT_NE(LineOf(job, "vector-column-scan(CMsgs)").find("join-filter=[author]"),
            std::string::npos)
      << job;
  EXPECT_NE(LineOf(job, "vector-materialize").find("join-filter=[author]"),
            std::string::npos)
      << job;
}

TEST_F(JoinFilterTest, LeftOuterJoinKeepsItsRolesAndHasNoFilter) {
  Boot();
  Load(LsmState::kOneComponent);
  // No AQL form compiles to a left-outer join today; plan one directly.
  // The preserved (left) input is the smaller one, which an inner join
  // would build on.
  using algebricks::Expr;
  using algebricks::LogicalOp;
  auto users = algebricks::MakeOp(LogicalOp::Kind::kDataSourceScan);
  users->dataset = "J.Users";
  users->var = "u";
  auto selected = algebricks::MakeOp(LogicalOp::Kind::kSelect);
  selected->inputs = {users};
  selected->expr = Expr::Compare("<", Expr::FieldAccess(Expr::Var("u"), "since"),
                                 Expr::Const(Value::Int64(20)));
  auto msgs = algebricks::MakeOp(LogicalOp::Kind::kDataSourceScan);
  msgs->dataset = "J.Msgs";
  msgs->var = "m";
  auto join = algebricks::MakeOp(LogicalOp::Kind::kJoin);
  join->inputs = {selected, msgs};
  join->left_outer = true;
  join->expr = Expr::Compare("=", Expr::FieldAccess(Expr::Var("m"), "author"),
                             Expr::FieldAccess(Expr::Var("u"), "id"));
  auto dist = algebricks::MakeOp(LogicalOp::Kind::kDistribute);
  dist->inputs = {join};
  dist->expr = Expr::Var("u");

  hyracks::ClusterConfig cc;
  cc.job_startup_us = 0;
  hyracks::Cluster cluster(cc);
  algebricks::PhysicalCompiler compiler(
      &cluster, nullptr,
      [this](const std::string& q) { return db_->FindDataset(q); }, nullptr,
      algebricks::OptimizerOptions{});
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  auto job = compiler.Compile(dist, sink);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  std::string plan = job.value().ToString();
  EXPECT_NE(plan.find("(from scan(Msgs), build)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("(from select, probe)"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("join-filter"), std::string::npos) << plan;
}

// --- Failure and concurrency -------------------------------------------------

/// Runs `aql` on another thread; a probe scan stuck waiting for a filter
/// would hang the job, so give up after a generous deadline instead of
/// waiting for the test runner's timeout.
Result<api::ExecutionResult> ExecuteWithDeadline(api::AsterixInstance* db,
                                                 const std::string& aql) {
  auto done = std::async(std::launch::async, [db, aql] {
    return db->Execute(aql);
  });
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << "query did not finish: " << aql;
    std::_Exit(1);
  }
  return done.get();
}

TEST_F(JoinFilterTest, FailingBuildReturnsItsErrorAndReleasesTheProbeScan) {
  Boot();
  Load(LsmState::kOneComponent);
  // The build side's select divides by zero at since = 5; the probe scans
  // (a row scan and a vectorized column scan) wait for its filter.
  for (const char* prefix : {"", "C"}) {
    std::string q = "for $u in dataset " + std::string(prefix) +
                    "Users for $m in dataset " + prefix +
                    "Msgs where $m.author = $u.id and $u.since < 20 and"
                    " 10 / ($u.since - 5) > 0 and $m.mid < 700 return $m.mid";
    std::string job = JobFor(q);
    EXPECT_NE(job.find("join-filter=[author]"), std::string::npos) << job;
    auto r = ExecuteWithDeadline(db_.get(), "use dataverse J;\n" + q + ";");
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_NE(r.status().ToString().find("division by zero"),
              std::string::npos)
        << r.status().ToString();
  }
  // The instance still answers.
  ExpectMatchesReference(JoinQueries("Users", "Msgs")[0]);
}

TEST_F(JoinFilterTest, ConcurrentFilteredJoinsAgree) {
  Boot();
  Load(LsmState::kOneComponent);
  const std::vector<std::string> queries = JoinQueries("Users", "Msgs");
  const std::vector<std::string> cqueries = JoinQueries("CUsers", "CMsgs");
  std::vector<size_t> expected;
  for (const auto& q : queries) {
    auto r = db_->Execute("use dataverse J;\n" + q + ";");
    ASSERT_TRUE(r.ok());
    expected.push_back(r.value().values.size());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 6; ++i) {
        size_t qi = static_cast<size_t>(t + i) % queries.size();
        const std::string& q = (t % 2 == 0 ? queries : cqueries)[qi];
        auto r = db_->Execute("use dataverse J;\n" + q + ";");
        if (!r.ok() || r.value().values.size() != expected[qi]) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- The filter itself -------------------------------------------------------

TEST(JoinFilterUnitTest, SealsWhenEveryBuilderPublished) {
  hyracks::JoinFilter filter(3);
  std::vector<std::thread> builders;
  for (uint64_t b = 0; b < 3; ++b) {
    builders.emplace_back([&filter, b] {
      std::vector<uint64_t> hashes;
      for (uint64_t i = 0; i < 1000; ++i) hashes.push_back(b * 1000 + i);
      filter.Publish(std::move(hashes));
    });
  }
  std::vector<std::thread> waiters;
  std::atomic<int> misses{0};
  for (int w = 0; w < 3; ++w) {
    waiters.emplace_back([&] {
      filter.Wait();
      for (uint64_t h = 0; h < 3000; ++h) {
        if (!filter.MayContain(h)) ++misses;
      }
    });
  }
  for (auto& t : builders) t.join();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(misses.load(), 0);  // no false negatives
  EXPECT_FALSE(filter.pass_all());
  int false_positives = 0;
  for (uint64_t h = 1'000'000; h < 1'010'000; ++h) {
    if (filter.MayContain(h)) ++false_positives;
  }
  EXPECT_LT(false_positives, 300);  // under 3% at 16 bits per key
}

TEST(JoinFilterUnitTest, ReleaseSealsPassAllAndFreesWaiters) {
  hyracks::JoinFilter filter(4);
  filter.Publish({1, 2, 3});
  std::thread waiter([&] { filter.Wait(); });
  filter.Release();  // one builder failed: the other two never publish
  waiter.join();
  EXPECT_TRUE(filter.pass_all());
  filter.Publish({4});  // late publishers are ignored
  EXPECT_TRUE(filter.pass_all());

  // Past its cap the filter passes everything instead of growing.
  hyracks::JoinFilter capped(2);
  capped.Publish(std::vector<uint64_t>(hyracks::JoinFilter::kMaxKeys, 1));
  capped.Publish({2});
  capped.Wait();
  EXPECT_TRUE(capped.pass_all());
}

TEST(JoinFilterUnitTest, ProbeDropsUnknownKeysAndStopsWhenItDoesNotPrune) {
  auto filter = std::make_shared<hyracks::JoinFilter>(1);
  filter->Publish({});  // an empty build: nothing can join
  hyracks::JoinFilterProbe probe(filter, {"k"});
  Value null = Value::Null(), missing = Value::Missing(), one = Value::Int64(1);
  const Value* keys[1] = {&null};
  EXPECT_FALSE(probe.Keep(keys));
  keys[0] = &missing;
  EXPECT_FALSE(probe.Keep(keys));
  keys[0] = &one;
  EXPECT_FALSE(probe.Keep(keys));
  EXPECT_EQ(probe.dropped(), 3u);
  EXPECT_TRUE(probe.active());

  // A build that holds every probed key: no drops in the sample, so the
  // probe stops testing.
  std::vector<Value> values;
  std::vector<uint64_t> hashes;
  BytesWriter w;
  for (int64_t i = 0; i < 64; ++i) {
    w.Clear();
    adm::SerializeNormalizedKey(Value::Int64(i), &w);
    hashes.push_back(Hash64(w.data().data(), w.size()));
  }
  auto all = std::make_shared<hyracks::JoinFilter>(1);
  all->Publish(std::move(hashes));
  hyracks::JoinFilterProbe unselective(all, {"k"});
  // int64, int32 and double forms of one key hash alike.
  Value as_double = Value::Double(7.0), as_int32 = Value::Int32(7);
  keys[0] = &as_double;
  EXPECT_TRUE(unselective.Keep(keys));
  keys[0] = &as_int32;
  EXPECT_TRUE(unselective.Keep(keys));
  for (uint64_t i = 2; i < hyracks::JoinFilterProbe::kSampleRecords; ++i) {
    Value v = Value::Int64(static_cast<int64_t>(i % 64));
    keys[0] = &v;
    EXPECT_TRUE(unselective.Keep(keys));
  }
  EXPECT_FALSE(unselective.active());
  EXPECT_EQ(unselective.dropped(), 0u);
}

}  // namespace
}  // namespace asterix
