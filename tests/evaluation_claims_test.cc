// Integration tests pinning the *relative* claims of the paper's
// evaluation section (SS5.3) at test scale, so regressions in the mechanisms
// behind Tables 2-4 fail CI rather than only skewing bench output. The full
// tables are regenerated by the bench/ binaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <ctime>

#include "adm/temporal.h"
#include "api/asterix.h"
#include "baselines/columnstore.h"
#include "baselines/docstore.h"
#include "baselines/relstore.h"
#include "common/env.h"
#include "workload/generator.h"

namespace asterix {
namespace {

using adm::Value;

class EvaluationClaimsTest : public ::testing::Test {
 protected:
  static constexpr int64_t kUsers = 2000;
  static constexpr int64_t kMessages = 4000;

  static void SetUpTestSuite() {
    dir_ = new std::string(env::NewScratchDir("claims"));
    api::InstanceConfig config;
    config.base_dir = *dir_ + "/asterix";
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    instance_ = new api::AsterixInstance(config);
    ASSERT_TRUE(instance_->Boot().ok());
    auto r = instance_->Execute(R"aql(
create dataverse Bench; use dataverse Bench;
create type UserType as {
  id: int64, alias: string, name: string, user-since: datetime,
  address: { street: string, city: string, state: string, zip: string,
             country: string },
  friend-ids: {{ int64 }},
  employment: [ { organization-name: string, start-date: date,
                  end-date: date? } ]
}
create type UserKeyOnly as { id: int64 }
create dataset Users(UserType) primary key id;
create dataset UsersKeyOnly(UserKeyOnly) primary key id;
create index uSinceIdx on Users(user-since);
)aql");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    workload::Generator gen;
    users_ = new std::vector<Value>(gen.MakeUsers(kUsers));
    ASSERT_TRUE(instance_->FindDataset("Bench.Users")->LoadBulk(*users_).ok());
    ASSERT_TRUE(
        instance_->FindDataset("Bench.UsersKeyOnly")->LoadBulk(*users_).ok());
    ASSERT_TRUE(instance_->FlushAll().ok());
  }
  static void TearDownTestSuite() {
    delete instance_;
    delete users_;
    env::RemoveAll(*dir_);
    delete dir_;
  }

  static std::string* dir_;
  static api::AsterixInstance* instance_;
  static std::vector<Value>* users_;
};

std::string* EvaluationClaimsTest::dir_ = nullptr;
api::AsterixInstance* EvaluationClaimsTest::instance_ = nullptr;
std::vector<Value>* EvaluationClaimsTest::users_ = nullptr;

// --- Table 2 mechanisms -------------------------------------------------------

TEST_F(EvaluationClaimsTest, KeyOnlyStorageLargerThanSchema) {
  uint64_t schema =
      instance_->DatasetPrimaryBytes("Bench.Users").take();
  uint64_t keyonly =
      instance_->DatasetPrimaryBytes("Bench.UsersKeyOnly").take();
  EXPECT_GT(keyonly, schema * 3 / 2)
      << "open instances must carry their field names";
}

TEST_F(EvaluationClaimsTest, ColumnarCompressionSmallest) {
  baselines::ColumnStore hive(*dir_ + "/hive", "u",
                              workload::UserColumnSchema(), 0);
  baselines::DocStore mongo(*dir_ + "/mongo", "u", "id");
  for (const auto& u : *users_) {
    ASSERT_TRUE(hive.Append(workload::NormalizeUser(u).user_row).ok());
  }
  ASSERT_TRUE(hive.Finalize().ok());
  ASSERT_TRUE(mongo.LoadBulk(*users_).ok());
  ASSERT_TRUE(mongo.Persist().ok());
  uint64_t schema = instance_->DatasetPrimaryBytes("Bench.Users").take();
  EXPECT_LT(hive.DiskBytes(), schema / 2);
  EXPECT_GT(mongo.DiskBytes(), schema);
}

// --- Table 3 mechanisms --------------------------------------------------------

// Calling-thread CPU plus the CPU of every operator instance the query ran,
// the cost perfbench reports: unlike one wall-clock sample, it does not
// swing with a shared machine's load.
double QueryCpuMs(api::AsterixInstance* db, const std::string& aql) {
  auto thread_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  double start = thread_ms();
  auto r = db->Execute(aql);
  double ms = thread_ms() - start;
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok() && r.value().stats.profile) {
    for (const auto& span : r.value().stats.profile->spans) {
      ms += static_cast<double>(span.cpu_us) / 1000;
    }
  }
  return ms;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Sums a counter over the spans of operators whose name starts with `name`.
uint64_t SumSpans(const hyracks::JobProfile& profile, const std::string& name,
                  uint64_t hyracks::OperatorSpan::*counter) {
  uint64_t n = 0;
  for (const auto& span : profile.spans) {
    if (span.op_name.rfind(name, 0) == 0) n += span.*counter;
  }
  return n;
}

TEST_F(EvaluationClaimsTest, SecondaryIndexBeatsScanAndAgreesWithIt) {
  int64_t epoch = adm::DaysFromCivil(2010, 1, 1) * 86400000LL;
  std::string lo = adm::FormatDatetime(epoch + 500 * 1000);
  std::string hi = adm::FormatDatetime(epoch + 799 * 1000);
  std::string pred = "$u.user-since >= datetime(\"" + lo +
                     "\") and $u.user-since <= datetime(\"" + hi + "\")";
  const std::string indexed_q =
      "use dataverse Bench;\nfor $u in dataset Users where " + pred +
      " return $u.id;";
  const std::string scanned_q =
      "use dataverse Bench;\nfor $u in dataset Users where /*+ skip-index */ " +
      pred + " return $u.id;";
  auto indexed = instance_->Execute(indexed_q);
  auto scanned = instance_->Execute(scanned_q);
  ASSERT_TRUE(indexed.ok() && scanned.ok());
  EXPECT_EQ(indexed.value().values.size(), 300u);
  EXPECT_EQ(scanned.value().values.size(), 300u);
  EXPECT_NE(indexed.value().logical_plan.find("uSinceIdx"), std::string::npos);
  EXPECT_EQ(scanned.value().logical_plan.find("uSinceIdx"), std::string::npos);

  // The mechanism: the index plan looks up exactly the 300 matching primary
  // keys and scans nothing; the scan plan reads every record.
  const auto& ix_profile = *indexed.value().stats.profile;
  const auto& scan_profile = *scanned.value().stats.profile;
  EXPECT_EQ(SumSpans(ix_profile, "btree-search(Users.primary)",
                     &hyracks::OperatorSpan::tuples_in),
            300u);
  EXPECT_EQ(SumSpans(ix_profile, "scan(Users)",
                     &hyracks::OperatorSpan::tuples_out),
            0u);
  EXPECT_EQ(SumSpans(scan_profile, "scan(Users)",
                     &hyracks::OperatorSpan::tuples_out),
            static_cast<uint64_t>(kUsers));

  // The cost: over alternating runs, the index plan's median CPU is lower.
  std::vector<double> ix_ms, scan_ms;
  for (int i = 0; i < 9; ++i) {
    if (i % 2 == 0) {
      ix_ms.push_back(QueryCpuMs(instance_, indexed_q));
      scan_ms.push_back(QueryCpuMs(instance_, scanned_q));
    } else {
      scan_ms.push_back(QueryCpuMs(instance_, scanned_q));
      ix_ms.push_back(QueryCpuMs(instance_, indexed_q));
    }
  }
  EXPECT_LT(Median(ix_ms), Median(scan_ms));
}

TEST_F(EvaluationClaimsTest, CompiledAndInterpretedPathsAgree) {
  // Property check: for a family of queries, the parallel Hyracks result
  // matches the reference interpreter over the same data.
  const char* queries[] = {
      "for $u in dataset Users where $u.id < 50 return $u.id;",
      "count(for $u in dataset Users return $u)",
      "avg(for $u in dataset Users where $u.id < 100 return $u.id)",
      "for $u in dataset Users group by $c := $u.address.state with $u "
      "let $n := count($u) order by $c return { \"s\": $c, \"n\": $n };",
      // A with-variable used outside an aggregate stays a bag.
      "for $u in dataset Users group by $c := $u.address.state with $u "
      "return { \"s\": $c, \"ids\": (for $x in $u order by $x.id "
      "return $x.id) };",
      // A bag beside a rewritten aggregate, in one group-by.
      "for $u in dataset Users let $id := $u.id "
      "group by $c := $u.address.state with $u, $id "
      "let $n := count($id) return { \"s\": $c, \"n\": $n, "
      "\"ids\": (for $x in $u order by $x.id return $x.id) };",
      "for $u in dataset Users where $u.id < 30 order by $u.name, $u.id "
      "return $u.name;",
  };
  for (const char* q : queries) {
    std::string full = std::string("use dataverse Bench;\n") + q;
    auto compiled = instance_->Execute(full);
    ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status().ToString();
    EXPECT_TRUE(compiled.value().used_compiled_path) << q;
    if (std::string(q).find("group by") != std::string::npos) {
      // Every keyed grouping, bag-collecting or not, is a hash group-by.
      EXPECT_NE(compiled.value().job_plan.find("hash-group-by"),
                std::string::npos)
          << q << "\n" << compiled.value().job_plan;
      EXPECT_EQ(compiled.value().job_plan.find("bag-group-by"),
                std::string::npos)
          << q;
    }

    // Reference run through the interpreter via an instance with compilation
    // effectively disabled is impractical here; instead re-evaluate through
    // the subplan path: wrap the query as a let-bound list.
    auto wrapped = instance_->Execute(
        "use dataverse Bench;\nlet $r := (" +
        std::string(q).substr(0, std::string(q).rfind(';')) +
        ") return $r;");
    ASSERT_TRUE(wrapped.ok()) << q;
    ASSERT_EQ(wrapped.value().values.size(), 1u);
    // Scalar results (aggregates) come back as a single value, FLWORs as a
    // list; normalize to a list either way.
    std::vector<Value> list;
    if (wrapped.value().values[0].IsList()) {
      list = wrapped.value().values[0].AsList();
    } else {
      list.push_back(wrapped.value().values[0]);
    }
    ASSERT_EQ(list.size(), compiled.value().values.size()) << q;
    // Compare as multisets (hash-partitioned output order may differ).
    std::multiset<std::string> a, b;
    for (const auto& v : compiled.value().values) a.insert(v.ToString());
    for (const auto& v : list) b.insert(v.ToString());
    EXPECT_EQ(a, b) << q;
  }
}

// --- Table 4 mechanisms ---------------------------------------------------------

TEST_F(EvaluationClaimsTest, BatchingAmortizesInsertOverhead) {
  api::InstanceConfig config;
  config.base_dir = *dir_ + "/t4";
  config.cluster.job_startup_us = 1000;
  config.group_commit_latency_us = 1000;
  api::AsterixInstance inst(config);
  ASSERT_TRUE(inst.Boot().ok());
  ASSERT_TRUE(inst.Execute(R"aql(
create dataverse B; use dataverse B;
create type T as { id: int64 }
create dataset D(T) primary key id;)aql")
                  .ok());
  auto time_inserts = [&](int batch, int base) {
    auto t0 = std::chrono::steady_clock::now();
    int total = 0;
    for (int s = 0; s < 60 / batch; ++s) {
      std::string payload = "[";
      for (int i = 0; i < batch; ++i) {
        if (i) payload += ",";
        payload += "{ \"id\": " + std::to_string(base + total + i) + " }";
      }
      payload += "]";
      auto r = inst.Execute("use dataverse B;\ninsert into dataset D (" +
                            payload + ");");
      EXPECT_TRUE(r.ok());
      total += batch;
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           total;
  };
  double per_record_1 = time_inserts(1, 0);
  double per_record_20 = time_inserts(20, 10000);
  EXPECT_LT(per_record_20 * 2, per_record_1)
      << "batch=20 should amortize job start-up well below batch=1";
}

}  // namespace
}  // namespace asterix
