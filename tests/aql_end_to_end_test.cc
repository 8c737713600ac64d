#include <gtest/gtest.h>

#include <set>

#include "api/asterix.h"
#include "common/env.h"
#include "functions/builtins.h"

namespace asterix {
namespace api {
namespace {

using adm::Value;

// The paper's TinySocial running example (Data definitions 1-2, §2).
constexpr const char* kTinySocialDdl = R"aql(
drop dataverse TinySocial if exists;
create dataverse TinySocial;
use dataverse TinySocial;

create type EmploymentType as open {
  organization-name: string,
  start-date: date,
  end-date: date?
}

create type MugshotUserType as {
  id: int64,
  alias: string,
  name: string,
  user-since: datetime,
  address: {
    street: string,
    city: string,
    state: string,
    zip: string,
    country: string
  },
  friend-ids: {{ int64 }},
  employment: [EmploymentType]
}

create type MugshotMessageType as closed {
  message-id: int64,
  author-id: int64,
  timestamp: datetime,
  in-response-to: int64?,
  sender-location: point?,
  tags: {{ string }},
  message: string
}

create dataset MugshotUsers(MugshotUserType) primary key id;
create dataset MugshotMessages(MugshotMessageType) primary key message-id;

create index msUserSinceIdx on MugshotUsers(user-since);
create index msTimestampIdx on MugshotMessages(timestamp);
create index msAuthorIdx on MugshotMessages(author-id) type btree;
create index msSenderLocIndex on MugshotMessages(sender-location) type rtree;
create index msMessageIdx on MugshotMessages(message) type keyword;
)aql";

class TinySocialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(env::NewScratchDir("tinysocial"));
    InstanceConfig config;
    config.base_dir = *dir_;
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    instance_ = new AsterixInstance(config);
    ASSERT_TRUE(instance_->Boot().ok());
    auto r = instance_->Execute(kTinySocialDdl);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    LoadData();
  }
  static void TearDownTestSuite() {
    delete instance_;
    env::RemoveAll(*dir_);
    delete dir_;
  }

  static void LoadData() {
    // Users: join dates spread over 2010..2012; one unemployed, varied ZIPs.
    const char* users = R"aql(
use dataverse TinySocial;
insert into dataset MugshotUsers ([
 { "id": 1, "alias": "Margarita", "name": "MargaritaStoddard",
   "user-since": datetime("2012-08-20T10:10:00"),
   "address": { "street": "234 Thomas St", "city": "San Hugo", "zip": "98765",
                "state": "WA", "country": "USA" },
   "friend-ids": {{ 2, 3, 6, 10 }},
   "employment": [ { "organization-name": "Codetechno",
                     "start-date": date("2006-08-06") } ] },
 { "id": 2, "alias": "Isbel", "name": "IsbelDull",
   "user-since": datetime("2011-01-22T10:10:00"),
   "address": { "street": "345 James Ave", "city": "San Hugo", "zip": "98765",
                "state": "WA", "country": "USA" },
   "friend-ids": {{ 1, 4 }},
   "employment": [ { "organization-name": "Hexviane",
                     "start-date": date("2010-04-27"),
                     "end-date": date("2012-09-18") } ] },
 { "id": 3, "alias": "Emory", "name": "EmoryUnk",
   "user-since": datetime("2012-07-10T10:10:00"),
   "address": { "street": "456 E Oak St", "city": "San Vente", "zip": "98765",
                "state": "CA", "country": "USA" },
   "friend-ids": {{ 1, 5, 8, 9 }},
   "employment": [ { "organization-name": "geomedia",
                     "start-date": date("2010-06-17"),
                     "end-date": date("2010-01-26") } ] },
 { "id": 4, "alias": "Nicholas", "name": "NicholasStroh",
   "user-since": datetime("2010-12-27T10:10:00"),
   "address": { "street": "567 E 32nd St", "city": "Ayend", "zip": "12334",
                "state": "OR", "country": "USA" },
   "friend-ids": {{ 2 }},
   "employment": [ { "organization-name": "Zamcorporation",
                     "start-date": date("2010-06-08"),
                     "job-kind": "part-time" } ] },
 { "id": 5, "alias": "Von", "name": "VonKemble",
   "user-since": datetime("2010-01-05T10:10:00"),
   "address": { "street": "678 Hill St", "city": "Oranje", "zip": "48446",
                "state": "CO", "country": "USA" },
   "friend-ids": {{ 3, 6, 10 }},
   "employment": [ { "organization-name": "Kongreen",
                     "start-date": date("2012-06-05") } ] }
]);
)aql";
    auto r = instance_->Execute(users);
    ASSERT_TRUE(r.ok()) << r.status().ToString();

    const char* messages = R"aql(
use dataverse TinySocial;
insert into dataset MugshotMessages ([
 { "message-id": 1, "author-id": 3,
   "timestamp": datetime("2014-02-20T09:00:00"),
   "in-response-to": null, "sender-location": point("47.16,77.75"),
   "tags": {{ "samsung", "platform" }},
   "message": " love samsung the platform is good" },
 { "message-id": 2, "author-id": 1,
   "timestamp": datetime("2014-02-20T10:00:00"),
   "in-response-to": 4, "sender-location": point("41.66,80.87"),
   "tags": {{ "verizon", "voice-clarity" }},
   "message": " dislike verizon its voice-clarity is OMG :(" },
 { "message-id": 3, "author-id": 2,
   "timestamp": datetime("2014-02-20T11:00:00"),
   "in-response-to": 4, "sender-location": point("48.09,81.01"),
   "tags": {{ "motorola", "speed" }},
   "message": " like motorola the speed is good :)" },
 { "message-id": 4, "author-id": 1,
   "timestamp": datetime("2014-01-10T10:10:00"),
   "in-response-to": 2, "sender-location": point("37.73,97.04"),
   "tags": {{ "verizon", "voice-command" }},
   "message": " can't stand verizon its voice-command is bad:(" },
 { "message-id": 5, "author-id": 5,
   "timestamp": datetime("2014-02-20T10:30:00"),
   "in-response-to": 2, "sender-location": point("40.33,80.87"),
   "tags": {{ "sprint", "voice-command" }},
   "message": " like sprint the voice-command is mind-blowing:)" },
 { "message-id": 6, "author-id": 1,
   "timestamp": datetime("2014-03-01T12:00:00"),
   "in-response-to": null, "sender-location": point("38.97,77.49"),
   "tags": {{ "tweeting", "tonight" }},
   "message": " going out tonite, call me" }
]);
)aql";
    r = instance_->Execute(messages);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  Result<ExecutionResult> Run(const std::string& q) {
    return instance_->Execute("use dataverse TinySocial;\n" + q);
  }

  static std::string* dir_;
  static AsterixInstance* instance_;
};

std::string* TinySocialTest::dir_ = nullptr;
AsterixInstance* TinySocialTest::instance_ = nullptr;

TEST_F(TinySocialTest, Query1MetadataDatasets) {
  auto r = Run("for $ds in dataset Metadata.Dataset return $ds;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Metadata datasets + 2 TinySocial datasets are all registered.
  size_t tiny = 0;
  for (const auto& v : r.value().values) {
    if (v.GetField("DataverseName").AsString() == "TinySocial") ++tiny;
  }
  EXPECT_EQ(tiny, 2u);

  auto ix = Run("for $ix in dataset Metadata.Index return $ix;");
  ASSERT_TRUE(ix.ok());
  EXPECT_GE(ix.value().values.size(), 5u);
}

TEST_F(TinySocialTest, Query2DatetimeRangeScan) {
  auto r = Run(R"aql(
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
  and $user.user-since <= datetime('2012-07-29T23:59:59')
return $user;)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().values.size(), 3u);  // users 2, 3, 4
  EXPECT_TRUE(r.value().used_compiled_path);
  // The optimizer must have chosen the secondary index.
  EXPECT_NE(r.value().logical_plan.find("msUserSinceIdx"), std::string::npos)
      << r.value().logical_plan;
}

TEST_F(TinySocialTest, Query3Equijoin) {
  auto r = Run(R"aql(
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id = $user.id
 and $user.user-since >= datetime('2010-07-22T00:00:00')
 and $user.user-since <= datetime('2012-07-29T23:59:59')
return { "uname": $user.name, "message": $message.message };)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Users 2 (Isbel) and 3 (Emory) joined in range and have messages.
  ASSERT_EQ(r.value().values.size(), 2u);
  std::set<std::string> names;
  for (const auto& v : r.value().values) {
    names.insert(v.GetField("uname").AsString());
  }
  EXPECT_TRUE(names.count("IsbelDull"));
  EXPECT_TRUE(names.count("EmoryUnk"));
  EXPECT_NE(r.value().job_plan.find("hybrid-hash-join"), std::string::npos)
      << r.value().job_plan;
}

TEST_F(TinySocialTest, Query4NestedLeftOuterJoin) {
  auto r = Run(R"aql(
for $user in dataset MugshotUsers
where $user.user-since >= datetime('2010-07-22T00:00:00')
  and $user.user-since <= datetime('2012-07-29T23:59:59')
return { "uname": $user.name,
         "messages": for $message in dataset MugshotMessages
                     where $message.author-id = $user.id
                     return $message.message };)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().values.size(), 3u);
  // Users without messages still appear, with an empty bag.
  size_t empties = 0;
  for (const auto& v : r.value().values) {
    if (v.GetField("messages").AsList().empty()) ++empties;
  }
  EXPECT_EQ(empties, 1u);  // user 4 has no messages
}

TEST_F(TinySocialTest, Query5SpatialJoin) {
  auto r = Run(R"aql(
for $t in dataset MugshotMessages
return { "message": $t.message,
         "nearby-messages": for $t2 in dataset MugshotMessages
                            where spatial-distance($t.sender-location,
                                                   $t2.sender-location) <= 1
                            return { "msgtxt": $t2.message } };)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().values.size(), 6u);
  // Every message is within distance 0 of itself.
  for (const auto& v : r.value().values) {
    EXPECT_GE(v.GetField("nearby-messages").AsList().size(), 1u);
  }
}

TEST_F(TinySocialTest, Query6FuzzySelection) {
  auto r = Run(R"aql(
set simfunction "edit-distance";
set simthreshold "3";
for $msu in dataset MugshotUsers
for $msm in dataset MugshotMessages
where $msu.id = $msm.author-id
  and (some $word in word-tokens($msm.message) satisfies $word ~= "tonight")
return { "name": $msu.name, "message": $msm.message };)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().values.size(), 1u);  // "tonite" fuzzy-matches
  EXPECT_EQ(r.value().values[0].GetField("name").AsString(),
            "MargaritaStoddard");
}

TEST_F(TinySocialTest, Query7ExistentialOpenField) {
  auto r = Run(R"aql(
for $msu in dataset MugshotUsers
where (some $e in $msu.employment
       satisfies is-null($e.end-date) and $e.job-kind = "part-time")
return $msu;)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().values.size(), 1u);
  EXPECT_EQ(r.value().values[0].GetField("id").AsInt(), 4);
}

TEST_F(TinySocialTest, Query8And9FunctionDefinitionAndUse) {
  auto def = Run(R"aql(
create function unemployed() {
  for $msu in dataset MugshotUsers
  where (every $e in $msu.employment
         satisfies not(is-null($e.end-date)))
  return { "name": $msu.name, "address": $msu.address }
};)aql");
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  auto r = Run(R"aql(
for $un in unemployed()
where $un.address.zip = "98765"
return $un;)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Users 2 and 3 have all employments ended; both in zip 98765.
  EXPECT_EQ(r.value().values.size(), 2u);
}

TEST_F(TinySocialTest, Query10SimpleAggregation) {
  auto r = Run(R"aql(
avg(for $m in dataset MugshotMessages
    where $m.timestamp >= datetime("2014-01-01T00:00:00")
      and $m.timestamp < datetime("2014-04-01T00:00:00")
    return string-length($m.message))
)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().values.size(), 1u);
  EXPECT_GT(r.value().values[0].AsDouble(), 20.0);
  // The rewrite must have produced the parallel local/global plan.
  EXPECT_TRUE(r.value().used_compiled_path);
  EXPECT_NE(r.value().job_plan.find("local-aggregate"), std::string::npos)
      << r.value().job_plan;
  EXPECT_NE(r.value().job_plan.find("global-aggregate"), std::string::npos);
}

TEST_F(TinySocialTest, Query11GroupingTopK) {
  auto r = Run(R"aql(
for $msg in dataset MugshotMessages
where $msg.timestamp >= datetime("2014-02-20T00:00:00")
  and $msg.timestamp < datetime("2014-02-21T00:00:00")
group by $aid := $msg.author-id with $msg
let $cnt := count($msg)
order by $cnt desc
limit 3
return { "author": $aid, "no messages": $cnt };)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Four authors posted on 2014-02-20, one message each; limit keeps 3.
  ASSERT_EQ(r.value().values.size(), 3u);
  for (const auto& v : r.value().values) {
    EXPECT_EQ(v.GetField("no messages").AsInt(), 1);
  }
  // The group-aggregation rewrite must have removed the materialized bag.
  EXPECT_NE(r.value().logical_plan.find(":=count"), std::string::npos)
      << r.value().logical_plan;
}

TEST_F(TinySocialTest, Query13LeftOuterFuzzyJoin) {
  auto r = Run(R"aql(
set simfunction "jaccard";
set simthreshold "0.3";
for $msg in dataset MugshotMessages
let $msgsSimilarTags := (
  for $m2 in dataset MugshotMessages
  where $m2.tags ~= $msg.tags
    and $m2.message-id != $msg.message-id
  return $m2.message )
where count($msgsSimilarTags) > 0
return { "message": $msg.message, "similarly tagged": $msgsSimilarTags };)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 2&4 share "verizon", 4&5 share "voice-command" (jaccard 1/3 >= 0.3),
  // so messages 2, 4, and 5 each have similarly tagged counterparts.
  EXPECT_EQ(r.value().values.size(), 3u);
}

TEST_F(TinySocialTest, Query14IndexNlJoinHint) {
  auto r = Run(R"aql(
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id /*+ indexnl */ = $user.id
return { "uname": $user.name, "message": $message.message };)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().values.size(), 6u);
  EXPECT_NE(r.value().job_plan.find("btree-probe"), std::string::npos)
      << r.value().job_plan;
}

TEST_F(TinySocialTest, Updates1And2InsertDelete) {
  auto ins = Run(R"aql(
insert into dataset MugshotUsers (
 { "id": 11, "alias": "John", "name": "JohnDoe",
   "address": { "street": "789 Jane St", "city": "San Harry", "zip": "98767",
                "state": "CA", "country": "USA" },
   "user-since": datetime("2010-08-15T08:10:00"),
   "friend-ids": {{ 5, 9, 11 }},
   "employment": [ { "organization-name": "Kongreen",
                     "start-date": date("2012-06-05") } ] }
);)aql");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  auto check = Run("for $u in dataset MugshotUsers where $u.id = 11 return $u;");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value().values.size(), 1u);

  auto del = Run("delete $user from dataset MugshotUsers where $user.id = 11;");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  check = Run("for $u in dataset MugshotUsers where $u.id = 11 return $u;");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value().values.size(), 0u);
}

TEST_F(TinySocialTest, ScalarExpressionQuery) {
  auto r = Run("1 + 1;");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().values.size(), 1u);
  EXPECT_EQ(r.value().values[0].AsInt(), 2);
}

TEST_F(TinySocialTest, RTreeIndexUsedForSpatialSelection) {
  auto r = Run(R"aql(
for $m in dataset MugshotMessages
where spatial-distance($m.sender-location, point("41,81")) <= 1.0
return $m.message;)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r.value().values.size(), 1u);
  EXPECT_NE(r.value().logical_plan.find("msSenderLocIndex"), std::string::npos)
      << r.value().logical_plan;
}

TEST_F(TinySocialTest, KeywordIndexUsedForContains) {
  auto r = Run(R"aql(
for $m in dataset MugshotMessages
where contains($m.message, "verizon")
return $m.message;)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().values.size(), 2u);
  EXPECT_NE(r.value().logical_plan.find("msMessageIdx"), std::string::npos)
      << r.value().logical_plan;
}

TEST_F(TinySocialTest, CompiledAndInterpretedAgree) {
  // Cross-check the compiled path against the reference interpreter for a
  // join + aggregate query.
  const char* q = R"aql(
for $u in dataset MugshotUsers
for $m in dataset MugshotMessages
where $m.author-id = $u.id
group by $name := $u.name with $m
let $cnt := count($m)
order by $name
return { "name": $name, "cnt": $cnt };)aql";
  auto compiled = Run(q);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_GE(compiled.value().values.size(), 3u);
  std::map<std::string, int64_t> counts;
  for (const auto& v : compiled.value().values) {
    counts[v.GetField("name").AsString()] = v.GetField("cnt").AsInt();
  }
  EXPECT_EQ(counts["MargaritaStoddard"], 3);
  EXPECT_EQ(counts["IsbelDull"], 1);
  EXPECT_EQ(counts["EmoryUnk"], 1);
  EXPECT_EQ(counts["VonKemble"], 1);
}

TEST_F(TinySocialTest, ExplainAnalyzeAnnotatesJoinActuals) {
  // Establish the current cardinalities (other tests may have mutated them).
  auto users_r = Run("for $u in dataset MugshotUsers return $u;");
  ASSERT_TRUE(users_r.ok());
  auto msgs_r = Run("for $m in dataset MugshotMessages return $m;");
  ASSERT_TRUE(msgs_r.ok());
  uint64_t users_card = users_r.value().values.size();
  uint64_t msgs_card = msgs_r.value().values.size();
  ASSERT_GT(users_card, 0u);
  ASSERT_GT(msgs_card, 0u);

  auto r = Run(R"aql(
explain analyze
for $user in dataset MugshotUsers
for $message in dataset MugshotMessages
where $message.author-id = $user.id
return { "uname": $user.name, "message": $message.message };)aql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The statement's single value is the plan annotated with actuals.
  ASSERT_EQ(r.value().values.size(), 1u);
  std::string plan = r.value().values[0].AsString();
  EXPECT_NE(plan.find("actual:"), std::string::npos) << plan;
  EXPECT_NE(plan.find("ms="), std::string::npos) << plan;
  EXPECT_NE(plan.find("hybrid-hash-join"), std::string::npos) << plan;

  // The structured profile behind the text: each dataset scan's output plus
  // the records its join filter dropped, summed over instances, is exactly
  // the dataset's cardinality, on a cluster of more than one node.
  ASSERT_TRUE(r.value().stats.profile);
  const hyracks::JobProfile& prof = *r.value().stats.profile;
  EXPECT_GT(prof.num_nodes, 1);
  uint64_t users_scanned = 0, msgs_scanned = 0;
  // Scan names carry the pushed-down projection ("scan(X) project=[...]");
  // match on the prefix.
  for (const auto& op : prof.Rollup()) {
    if (op.name.rfind("scan(MugshotUsers)", 0) == 0) {
      users_scanned = op.tuples_out + op.filter_dropped;
    }
    if (op.name.rfind("scan(MugshotMessages)", 0) == 0) {
      msgs_scanned = op.tuples_out + op.filter_dropped;
    }
  }
  EXPECT_EQ(users_scanned, users_card) << plan;
  EXPECT_EQ(msgs_scanned, msgs_card) << plan;
  // Every span is complete (started and ended), and elapsed is sane.
  for (const auto& s : prof.spans) {
    EXPECT_GE(s.end_ms, s.start_ms);
    EXPECT_TRUE(s.ok);
  }
}

}  // namespace
}  // namespace api
}  // namespace asterix
