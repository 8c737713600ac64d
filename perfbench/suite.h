#ifndef PERFBENCH_SUITE_H_
#define PERFBENCH_SUITE_H_

// The benchmark's query templates (Table 3's AsterixDB suite plus the
// serving mix) and the answer checks. Every expected answer is computed in
// plain C++ from the generated rows, never by the engine.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adm/value.h"
#include "gen.h"

namespace perfbench {

/// The end-to-end metric a template's latency feeds.
enum class MetricClass {
  kLookup,      // lookup_ms
  kIndexQuery,  // index_query_ms
  kScanQuery,   // scan_query_ms
  kJoin,        // join_ms
  kJoinIx,      // join_ix_ms
  kInsert,      // insert_ms
  kDashboard,   // dashboard_ms
  kCheck,       // end-of-run invariant checks (not timed)
};

/// What a correct answer looks like.
struct Expected {
  enum class Kind {
    kStatusOnly,  // the statement must succeed (inserts)
    kUser,        // one user record
    kIdSet,       // user records whose ids form exactly this set
    kPairs,       // {name, msg} records: count and order-free fingerprint
    kAvg,         // one number, within a relative tolerance
    kTopK,        // {author, cnt} records: top-k by count, ties in any order
    kCount,       // one integer
    kIdList,      // integers in exactly this order
    kGroups,      // {k, n} records in exactly this order
  };
  Kind kind = Kind::kStatusOnly;
  UserRow user;
  std::vector<int64_t> ids;
  uint64_t count = 0;
  uint64_t fingerprint = 0;
  double avg = 0;
  /// kTopK: the expected count sequence, and the count of every author that
  /// may legitimately appear in it (all authors tied at or above the last).
  std::vector<int64_t> top_counts;
  std::map<int64_t, int64_t> candidates;
  std::vector<std::pair<std::string, int64_t>> groups;
};

/// True when `values` is a correct answer; otherwise explains why not.
bool CheckAnswer(const Expected& expected,
                 const std::vector<asterix::adm::Value>& values,
                 std::string* why);

/// Order-independent fingerprint term of one {name, msg} join pair.
uint64_t PairHash(const std::string& name, const std::string& msg);

/// Plain-C++ view of the data the engine holds: loaded rows plus every
/// message inserted since, indexed the way the expected answers need.
class Model {
 public:
  explicit Model(const Data& data);
  void AddMessage(const MessageRow& m);

  int64_t num_users() const { return static_cast<int64_t>(users_.size()); }
  const UserRow& user(int64_t id) const {
    return users_[static_cast<size_t>(id)];
  }

  Expected UserLookup(int64_t id) const;
  Expected UsersInWindow(int64_t lo_id, int64_t n) const;
  /// Users with ids [lo_id, lo_id + n) joined with their messages; when
  /// msg_n > 0 only messages with ids in [msg_lo, msg_lo + msg_n) count.
  Expected JoinPairs(int64_t lo_id, int64_t n, int64_t msg_lo,
                     int64_t msg_n) const;
  Expected AvgTextLength(int64_t msg_lo, int64_t msg_n) const;
  Expected TopAuthors(int64_t msg_lo, int64_t msg_n, size_t k) const;

 private:
  std::vector<UserRow> users_;
  std::map<int64_t, MessageRow> messages_;
  std::map<int64_t, std::vector<int64_t>> by_author_;
};

/// Selectivities of the Table 3 templates (record counts pass the filter).
struct SuiteShape {
  int64_t range = 300;
  int64_t join_sm = 60;
  int64_t join_lg = 600;
  int64_t agg_sm = 300;
  int64_t agg_lg = 2000;
  int lookups_per_pass = 8;
};

/// One template of a workload: its name and the metric it feeds.
struct Template {
  std::string name;
  MetricClass cls;
  /// Secondary index whose use marks an index plan (empty: none expected).
  std::string index;
};

/// One request with its expected answer.
struct Op {
  int tmpl = 0;
  std::string aql;
  Expected expected;
  /// User id of a primary-key lookup (-1 otherwise): the traced run times a
  /// direct storage lookup of the same key.
  int64_t lookup_key = -1;
};

/// The 19 Table 3 templates, in suite order; their indexes are the `tmpl`
/// values MakeSuitePass emits.
const std::vector<Template>& SuiteTemplates();

/// One pass of the suite with windows and keys drawn from `rng`. Windows
/// cover only loaded records (ids below `loaded_*`).
std::vector<Op> MakeSuitePass(const Model& model, const SuiteShape& shape,
                              int64_t loaded_users, int64_t loaded_messages,
                              Rng* rng);

/// Canned Users dashboards (read-only aggregates the result cache serves).
std::vector<Op> MakeDashboards(const Model& model, int tmpl);

/// AQL of one insert statement of message records into `dataset`.
std::string InsertStatement(const std::string& dataset,
                            const std::vector<asterix::adm::Value>& records);

/// AQL of the author timeline request.
std::string TimelineQuery(int64_t author);

/// AQL of the primary-key user lookup.
std::string UserLookupQuery(int64_t id);

}  // namespace perfbench

#endif  // PERFBENCH_SUITE_H_
