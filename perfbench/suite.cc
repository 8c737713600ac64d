#include "suite.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

using asterix::adm::Value;

namespace {

uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

bool Fail(std::string* why, std::string msg) {
  *why = std::move(msg);
  return false;
}

bool AsInteger(const Value& v, int64_t* out) {
  if (!v.IsNumeric()) return false;
  *out = v.AsInt();
  return v.tag() != asterix::adm::TypeTag::kDouble &&
         v.tag() != asterix::adm::TypeTag::kFloat;
}

bool StringField(const Value& rec, const char* name, std::string* out) {
  if (!rec.IsRecord()) return false;
  const Value& f = rec.GetField(name);
  if (!f.IsString()) return false;
  *out = f.AsString();
  return true;
}

bool IntField(const Value& rec, const char* name, int64_t* out) {
  return rec.IsRecord() && AsInteger(rec.GetField(name), out);
}

std::string Window(const char* var, const char* field, int64_t lo_ms,
                   int64_t hi_ms, bool hi_inclusive) {
  return std::string("$") + var + "." + field + " >= " + DatetimeLiteral(lo_ms) +
         " and $" + var + "." + field + (hi_inclusive ? " <= " : " < ") +
         DatetimeLiteral(hi_ms);
}

std::string Skip(bool with_index) {
  return with_index ? "" : "/*+ skip-index */ ";
}

}  // namespace

uint64_t PairHash(const std::string& name, const std::string& msg) {
  // SplitMix64's finalizer spreads the FNV state, so sums of pair hashes do
  // not collide when messages are swapped between names.
  uint64_t z = Fnv1a(msg, Fnv1a(name + '\x1f'));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool CheckAnswer(const Expected& e, const std::vector<Value>& values,
                 std::string* why) {
  using Kind = Expected::Kind;
  switch (e.kind) {
    case Kind::kStatusOnly:
      return true;
    case Kind::kUser: {
      if (values.size() != 1) {
        return Fail(why, "lookup returned " + std::to_string(values.size()) +
                             " records");
      }
      const Value& r = values[0];
      int64_t id = -1;
      std::string name, state, city;
      if (!IntField(r, "id", &id) || !StringField(r, "name", &name)) {
        return Fail(why, "lookup record lacks id or name");
      }
      const Value& addr = r.GetField("address");
      const Value& since = r.GetField("user-since");
      if (!StringField(addr, "state", &state) ||
          !StringField(addr, "city", &city) ||
          since.tag() != asterix::adm::TypeTag::kDatetime) {
        return Fail(why, "lookup record lacks address or user-since");
      }
      if (id != e.user.id || name != e.user.name || state != e.user.state ||
          city != e.user.city || since.AsInt() != UserSinceMs(e.user.id)) {
        return Fail(why, "lookup of user " + std::to_string(e.user.id) +
                             " returned a different record");
      }
      return true;
    }
    case Kind::kIdSet: {
      std::vector<int64_t> got;
      for (const Value& v : values) {
        int64_t id = 0;
        if (!IntField(v, "id", &id)) return Fail(why, "record without id");
        got.push_back(id);
      }
      std::sort(got.begin(), got.end());
      if (got != e.ids) {
        return Fail(why, "range returned " + std::to_string(got.size()) +
                             " ids, expected " + std::to_string(e.ids.size()));
      }
      return true;
    }
    case Kind::kPairs: {
      uint64_t fp = 0;
      for (const Value& v : values) {
        std::string name, msg;
        if (!StringField(v, "name", &name) || !StringField(v, "msg", &msg)) {
          return Fail(why, "join row without name or msg");
        }
        fp += PairHash(name, msg);
      }
      if (values.size() != e.count || fp != e.fingerprint) {
        return Fail(why, "join returned " + std::to_string(values.size()) +
                             " pairs, expected " + std::to_string(e.count) +
                             (values.size() == e.count ? " (contents differ)"
                                                       : ""));
      }
      return true;
    }
    case Kind::kAvg: {
      if (values.size() != 1 || !values[0].IsNumeric()) {
        return Fail(why, "average is not one number");
      }
      double got = values[0].AsDouble();
      if (std::fabs(got - e.avg) > 1e-9 * std::max(1.0, std::fabs(e.avg))) {
        return Fail(why, "average " + std::to_string(got) + ", expected " +
                             std::to_string(e.avg));
      }
      return true;
    }
    case Kind::kTopK: {
      if (values.size() != e.top_counts.size()) {
        return Fail(why, "top-k returned " + std::to_string(values.size()) +
                             " groups, expected " +
                             std::to_string(e.top_counts.size()));
      }
      std::set<int64_t> seen;
      for (size_t i = 0; i < values.size(); ++i) {
        int64_t author = 0, cnt = 0;
        if (!IntField(values[i], "author", &author) ||
            !IntField(values[i], "cnt", &cnt)) {
          return Fail(why, "top-k row without author or cnt");
        }
        if (cnt != e.top_counts[i]) {
          return Fail(why, "top-k count sequence differs at rank " +
                               std::to_string(i));
        }
        auto it = e.candidates.find(author);
        if (it == e.candidates.end() || it->second != cnt ||
            !seen.insert(author).second) {
          return Fail(why, "top-k count of author " + std::to_string(author) +
                               " is wrong");
        }
      }
      return true;
    }
    case Kind::kCount: {
      int64_t n = 0;
      if (values.size() != 1 || !AsInteger(values[0], &n)) {
        return Fail(why, "count is not one integer");
      }
      if (static_cast<uint64_t>(n) != e.count) {
        return Fail(why, "count " + std::to_string(n) + ", expected " +
                             std::to_string(e.count));
      }
      return true;
    }
    case Kind::kIdList: {
      std::vector<int64_t> got;
      for (const Value& v : values) {
        int64_t id = 0;
        if (!AsInteger(v, &id)) return Fail(why, "id list holds a non-integer");
        got.push_back(id);
      }
      if (got != e.ids) return Fail(why, "id list differs");
      return true;
    }
    case Kind::kGroups: {
      if (values.size() != e.groups.size()) {
        return Fail(why, "dashboard returned " + std::to_string(values.size()) +
                             " groups, expected " +
                             std::to_string(e.groups.size()));
      }
      for (size_t i = 0; i < values.size(); ++i) {
        std::string k;
        int64_t n = 0;
        if (!StringField(values[i], "k", &k) || !IntField(values[i], "n", &n) ||
            k != e.groups[i].first || n != e.groups[i].second) {
          return Fail(why, "dashboard group " + std::to_string(i) + " differs");
        }
      }
      return true;
    }
  }
  return Fail(why, "unknown expectation");
}

// --- Model --------------------------------------------------------------------

Model::Model(const Data& data) : users_(data.user_rows) {
  for (const MessageRow& m : data.message_rows) AddMessage(m);
}

void Model::AddMessage(const MessageRow& m) {
  messages_[m.id] = m;
  by_author_[m.author].push_back(m.id);
}

Expected Model::UserLookup(int64_t id) const {
  Expected e;
  e.kind = Expected::Kind::kUser;
  e.user = user(id);
  return e;
}

Expected Model::UsersInWindow(int64_t lo_id, int64_t n) const {
  Expected e;
  e.kind = Expected::Kind::kIdSet;
  for (int64_t id = lo_id; id < lo_id + n; ++id) e.ids.push_back(id);
  return e;
}

Expected Model::JoinPairs(int64_t lo_id, int64_t n, int64_t msg_lo,
                          int64_t msg_n) const {
  Expected e;
  e.kind = Expected::Kind::kPairs;
  for (int64_t id = lo_id; id < lo_id + n; ++id) {
    auto it = by_author_.find(id);
    if (it == by_author_.end()) continue;
    for (int64_t mid : it->second) {
      if (msg_n > 0 && (mid < msg_lo || mid >= msg_lo + msg_n)) continue;
      ++e.count;
      e.fingerprint += PairHash(user(id).name, messages_.at(mid).text);
    }
  }
  return e;
}

Expected Model::AvgTextLength(int64_t msg_lo, int64_t msg_n) const {
  Expected e;
  e.kind = Expected::Kind::kAvg;
  double sum = 0;
  uint64_t n = 0;
  for (auto it = messages_.lower_bound(msg_lo);
       it != messages_.end() && it->first < msg_lo + msg_n; ++it) {
    sum += static_cast<double>(it->second.text.size());
    ++n;
  }
  e.avg = n == 0 ? 0 : sum / static_cast<double>(n);
  return e;
}

Expected Model::TopAuthors(int64_t msg_lo, int64_t msg_n, size_t k) const {
  std::map<int64_t, int64_t> counts;
  for (auto it = messages_.lower_bound(msg_lo);
       it != messages_.end() && it->first < msg_lo + msg_n; ++it) {
    ++counts[it->second.author];
  }
  std::vector<int64_t> all;
  for (const auto& [author, c] : counts) all.push_back(c);
  std::sort(all.rbegin(), all.rend());
  Expected e;
  e.kind = Expected::Kind::kTopK;
  e.top_counts.assign(all.begin(),
                      all.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(k, all.size())));
  int64_t floor = e.top_counts.empty() ? 0 : e.top_counts.back();
  for (const auto& [author, c] : counts) {
    if (c >= floor) e.candidates[author] = c;
  }
  return e;
}

// --- Templates ----------------------------------------------------------------

const std::vector<Template>& SuiteTemplates() {
  using C = MetricClass;
  static const std::vector<Template> kTemplates = {
      {"rec_lookup", C::kLookup, ""},
      {"range_scan", C::kScanQuery, ""},
      {"range_scan_ix", C::kIndexQuery, "uSinceIdx"},
      {"sel_join_sm", C::kJoin, ""},
      {"sel_join_sm_ix", C::kJoinIx, "msAuthorIdx"},
      {"sel_join_lg", C::kJoin, ""},
      {"sel_join_lg_ix", C::kJoinIx, "msAuthorIdx"},
      {"sel2_join_sm", C::kJoin, ""},
      {"sel2_join_sm_ix", C::kJoinIx, "msAuthorIdx"},
      {"sel2_join_lg", C::kJoin, ""},
      {"sel2_join_lg_ix", C::kJoinIx, "msAuthorIdx"},
      {"agg_sm", C::kScanQuery, ""},
      {"agg_sm_ix", C::kIndexQuery, "msTimestampIdx"},
      {"agg_lg", C::kScanQuery, ""},
      {"agg_lg_ix", C::kIndexQuery, "msTimestampIdx"},
      {"grp_sm", C::kScanQuery, ""},
      {"grp_sm_ix", C::kIndexQuery, "msTimestampIdx"},
      {"grp_lg", C::kScanQuery, ""},
      {"grp_lg_ix", C::kIndexQuery, "msTimestampIdx"},
  };
  return kTemplates;
}

std::string UserLookupQuery(int64_t id) {
  return "for $u in dataset Bench.Users where $u.id = " + std::to_string(id) +
         " return $u;";
}

std::string TimelineQuery(int64_t author) {
  return "for $m in dataset Bench.Messages where $m.author-id = " +
         std::to_string(author) +
         " order by $m.timestamp desc limit 10 return $m.message-id;";
}

std::string InsertStatement(const std::string& dataset,
                            const std::vector<Value>& records) {
  std::string out = "insert into dataset " + dataset + " ([";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i) out += ",";
    out += records[i].ToString();
  }
  return out + "]);";
}

std::vector<Op> MakeSuitePass(const Model& model, const SuiteShape& shape,
                              int64_t loaded_users, int64_t loaded_messages,
                              Rng* rng) {
  std::vector<Op> ops;
  auto add = [&](int tmpl, std::string aql, Expected e, int64_t key = -1) {
    Op op;
    op.tmpl = tmpl;
    op.aql = std::move(aql);
    op.expected = std::move(e);
    op.lookup_key = key;
    ops.push_back(std::move(op));
  };
  for (int i = 0; i < shape.lookups_per_pass; ++i) {
    int64_t id = rng->Uniform(0, loaded_users - 1);
    add(0, UserLookupQuery(id), model.UserLookup(id), id);
  }
  for (bool ix : {false, true}) {
    int64_t lo = rng->Uniform(0, loaded_users - shape.range);
    add(ix ? 2 : 1,
        "for $u in dataset Bench.Users where " + Skip(ix) +
            Window("u", "user-since", UserSinceMs(lo),
                   UserSinceMs(lo + shape.range - 1), true) +
            " return $u;",
        model.UsersInWindow(lo, shape.range));
  }
  int tmpl = 3;
  for (bool double_select : {false, true}) {
    for (int64_t sel : {shape.join_sm, shape.join_lg}) {
      for (bool ix : {false, true}) {
        int64_t lo = rng->Uniform(0, loaded_users - sel);
        int64_t msg_n = double_select ? loaded_messages / 2 : 0;
        int64_t msg_lo =
            double_select ? rng->Uniform(0, loaded_messages - msg_n) : 0;
        std::string aql =
            "for $u in dataset Bench.Users for $m in dataset Bench.Messages "
            "where " +
            Skip(ix) + "$m.author-id " + (ix ? "/*+ indexnl */ " : "") +
            "= $u.id and " +
            Window("u", "user-since", UserSinceMs(lo),
                   UserSinceMs(lo + sel - 1), true);
        if (double_select) {
          aql += " and " + Window("m", "timestamp", MessageTsMs(msg_lo),
                                  MessageTsMs(msg_lo + msg_n), false);
        }
        aql += " return { \"name\": $u.name, \"msg\": $m.message };";
        add(tmpl++, aql, model.JoinPairs(lo, sel, msg_lo, msg_n));
      }
    }
  }
  for (int64_t sel : {shape.agg_sm, shape.agg_lg}) {
    for (bool ix : {false, true}) {
      int64_t lo = rng->Uniform(0, loaded_messages - sel);
      add(tmpl++,
          "avg(for $m in dataset Bench.Messages where " + Skip(ix) +
              Window("m", "timestamp", MessageTsMs(lo), MessageTsMs(lo + sel),
                     false) +
              " return string-length($m.message))",
          model.AvgTextLength(lo, sel));
    }
  }
  for (int64_t sel : {shape.agg_sm, shape.agg_lg}) {
    for (bool ix : {false, true}) {
      int64_t lo = rng->Uniform(0, loaded_messages - sel);
      add(tmpl++,
          "for $m in dataset Bench.Messages where " + Skip(ix) +
              Window("m", "timestamp", MessageTsMs(lo), MessageTsMs(lo + sel),
                     false) +
              " group by $aid := $m.author-id with $m"
              " let $cnt := count($m)"
              " order by $cnt desc limit 10"
              " return { \"author\": $aid, \"cnt\": $cnt };",
          model.TopAuthors(lo, sel, 10));
    }
  }
  return ops;
}

std::vector<Op> MakeDashboards(const Model& model, int tmpl) {
  std::vector<Op> ops;
  auto add = [&](std::string aql, Expected e) {
    Op op;
    op.tmpl = tmpl;
    op.aql = std::move(aql);
    op.expected = std::move(e);
    ops.push_back(std::move(op));
  };
  const int64_t n = model.num_users();
  Expected total;
  total.kind = Expected::Kind::kCount;
  total.count = static_cast<uint64_t>(n);
  add("count(for $u in dataset Bench.Users return $u)", total);

  for (const char* field : {"state", "city"}) {
    std::map<std::string, int64_t> groups;
    for (int64_t id = 0; id < n; ++id) {
      const UserRow& u = model.user(id);
      ++groups[std::string(field) == "state" ? u.state : u.city];
    }
    Expected e;
    e.kind = Expected::Kind::kGroups;
    e.groups.assign(groups.begin(), groups.end());
    add(std::string("for $u in dataset Bench.Users group by $k := "
                    "$u.address.") +
            field +
            " with $u let $n := count($u) order by $k"
            " return { \"k\": $k, \"n\": $n };",
        e);
  }

  Expected early;
  early.kind = Expected::Kind::kCount;
  early.count = static_cast<uint64_t>(n / 10);
  add("count(for $u in dataset Bench.Users where " +
          Window("u", "user-since", UserSinceMs(0), UserSinceMs(n / 10),
                 false) +
          " return $u)",
      early);

  Expected name_len;
  name_len.kind = Expected::Kind::kAvg;
  double sum = 0;
  for (int64_t id = 0; id < n; ++id) {
    sum += static_cast<double>(model.user(id).name.size());
  }
  name_len.avg = n == 0 ? 0 : sum / static_cast<double>(n);
  add("avg(for $u in dataset Bench.Users return string-length($u.name))",
      name_len);
  return ops;
}

}  // namespace perfbench
