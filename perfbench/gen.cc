#include "gen.h"

#include <cstdio>

#include "adm/temporal.h"

namespace perfbench {

using asterix::adm::RecordBuilder;
using asterix::adm::Value;

const int64_t kUserEpochMs =
    asterix::adm::DaysFromCivil(2010, 1, 1) * 24LL * 3600 * 1000;
const int64_t kMessageEpochMs =
    asterix::adm::DaysFromCivil(2014, 1, 1) * 24LL * 3600 * 1000;

namespace {

const char* const kFirstNames[] = {"Margarita", "Isbel",  "Emory",  "Nicholas",
                                   "Von",       "Willis", "Suzanna", "Nila",
                                   "Woodrow",   "Bram",   "Jay",    "Ria"};
const char* const kLastNames[] = {"Stoddard", "Dull",    "Unk",   "Stroh",
                                  "Kemble",   "Wynne",   "Tillson", "Milom",
                                  "Nehling",  "Hygh",    "Cash",  "Haukness"};
const char* const kStreets[] = {"Thomas St", "James Ave", "E Oak St",
                                "Hill St",   "View St",   "Cedar St",
                                "Lake Rd",   "Main St"};
const char* const kCities[] = {"San Hugo", "San Vente", "Ayend", "Oranje",
                               "Mico",     "Sunwood",   "Derry", "Casper"};
const char* const kStates[] = {"WA", "CA", "OR", "CO", "UT", "NV", "AZ", "ID"};
const char* const kOrgs[] = {"Codetechno", "Hexviane",  "geomedia",
                             "Zamcorporation", "Kongreen", "Labzatron",
                             "physcane",   "Newhotplus"};
const char* const kVendors[] = {"samsung", "verizon", "motorola", "sprint",
                                "at&t",    "iphone",  "t-mobile", "nokia"};
const char* const kAspects[] = {"platform",      "voice-clarity", "speed",
                                "voice-command", "reachability",  "signal",
                                "shortcut-menu", "touch-screen",  "plan",
                                "customization"};
const char* const kFeelings[] = {"love", "like", "dislike", "hate",
                                 "can't stand"};
const char* const kRatings[] = {"awesome", "good",    "OK",      "bad",
                                "terrible", "mind-blowing", "amazing",
                                "horrible"};

template <size_t N>
const char* Pick(Rng* rng, const char* const (&words)[N]) {
  return words[rng->Next() % N];
}

std::string RandomText(Rng* rng) {
  std::string out = " ";
  out += Pick(rng, kFeelings);
  out += " ";
  out += Pick(rng, kVendors);
  out += " the ";
  out += Pick(rng, kAspects);
  out += " is ";
  out += Pick(rng, kRatings);
  int64_t extra = rng->Uniform(1, 3);
  for (int64_t i = 0; i < extra; ++i) {
    out += " ";
    out += Pick(rng, kAspects);
  }
  return out;
}

Value MakeUser(int64_t id, Rng* rng, UserRow* row) {
  row->id = id;
  row->name = std::string(Pick(rng, kFirstNames)) + Pick(rng, kLastNames);
  row->city = Pick(rng, kCities);
  row->state = Pick(rng, kStates);
  std::vector<Value> friends;
  for (int64_t i = rng->Uniform(1, 10); i > 0; --i) {
    friends.push_back(Value::Int64(rng->Uniform(0, 99999)));
  }
  std::vector<Value> jobs;
  for (int64_t i = rng->Uniform(1, 3); i > 0; --i) {
    auto start = static_cast<int32_t>(asterix::adm::DaysFromCivil(
        static_cast<int>(rng->Uniform(2002, 2011)),
        static_cast<int>(rng->Uniform(1, 12)),
        static_cast<int>(rng->Uniform(1, 28))));
    RecordBuilder job;
    job.Add("organization-name", Value::String(Pick(rng, kOrgs)))
        .Add("start-date", Value::Date(start));
    if (rng->Next() % 2 == 0) {
      job.Add("end-date",
              Value::Date(start + static_cast<int32_t>(rng->Uniform(0, 1999))));
    }
    jobs.push_back(job.Build());
  }
  char zip[8];
  std::snprintf(zip, sizeof(zip), "%05d",
                static_cast<int>(rng->Uniform(10000, 99998)));
  return RecordBuilder()
      .Add("id", Value::Int64(id))
      .Add("alias", Value::String("u" + std::to_string(id)))
      .Add("name", Value::String(row->name))
      .Add("user-since", Value::Datetime(UserSinceMs(id)))
      .Add("address",
           RecordBuilder()
               .Add("street",
                    Value::String(std::to_string(rng->Uniform(100, 998)) +
                                  " " + Pick(rng, kStreets)))
               .Add("city", Value::String(row->city))
               .Add("state", Value::String(row->state))
               .Add("zip", Value::String(zip))
               .Add("country", Value::String("USA"))
               .Build())
      .Add("friend-ids", Value::Bag(std::move(friends)))
      .Add("employment", Value::OrderedList(std::move(jobs)))
      .Build();
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

Value MakeMessage(int64_t id, int64_t author, Rng* rng, MessageRow* row) {
  row->id = id;
  row->author = author;
  row->text = RandomText(rng);
  std::vector<Value> tags = {Value::String(Pick(rng, kVendors)),
                             Value::String(Pick(rng, kAspects))};
  RecordBuilder b;
  b.Add("message-id", Value::Int64(id))
      .Add("author-id", Value::Int64(author))
      .Add("timestamp", Value::Datetime(MessageTsMs(id)));
  if (rng->Next() % 3 != 0) {
    b.Add("in-response-to", Value::Int64(rng->Uniform(0, 999)));
  }
  b.Add("sender-location",
        Value::Point(24.0 + static_cast<double>(rng->Uniform(0, 24999)) / 1000,
                     66.0 + static_cast<double>(rng->Uniform(0, 57999)) / 1000))
      .Add("tags", Value::Bag(std::move(tags)))
      .Add("message", Value::String(row->text));
  return b.Build();
}

Data Generate(uint64_t seed, int64_t num_users, int64_t num_messages) {
  Data d;
  Rng rng(seed);
  d.users.reserve(static_cast<size_t>(num_users));
  d.user_rows.resize(static_cast<size_t>(num_users));
  for (int64_t i = 0; i < num_users; ++i) {
    d.users.push_back(MakeUser(i, &rng, &d.user_rows[static_cast<size_t>(i)]));
  }
  d.messages.reserve(static_cast<size_t>(num_messages));
  d.message_rows.resize(static_cast<size_t>(num_messages));
  for (int64_t i = 0; i < num_messages; ++i) {
    int64_t author = rng.Uniform(0, num_users - 1);
    d.messages.push_back(
        MakeMessage(i, author, &rng, &d.message_rows[static_cast<size_t>(i)]));
  }
  return d;
}

std::string DatetimeLiteral(int64_t epoch_ms) {
  return "datetime(\"" + asterix::adm::FormatDatetime(epoch_ms) + "\")";
}

std::string SchemaDdl(bool column) {
  const std::string with =
      column ? " with {\"storage-format\": \"column\"}" : "";
  return R"aql(
create dataverse Bench;
use dataverse Bench;
create type UserType as {
  id: int64, alias: string, name: string, user-since: datetime,
  address: { street: string, city: string, state: string, zip: string,
             country: string },
  friend-ids: {{ int64 }},
  employment: [ { organization-name: string, start-date: date,
                  end-date: date? } ]
}
create type MessageType as closed {
  message-id: int64, author-id: int64, timestamp: datetime,
  in-response-to: int64?, sender-location: point?,
  tags: {{ string }}, message: string
}
create dataset Users(UserType) primary key id)aql" +
         with + R"aql(;
create dataset Messages(MessageType) primary key message-id)aql" + with +
         R"aql(;
create dataset Inbox(MessageType) primary key message-id)aql" + with +
         R"aql(;
create index uSinceIdx on Users(user-since);
create index msTimestampIdx on Messages(timestamp);
create index msAuthorIdx on Messages(author-id) type btree;
create index inTimestampIdx on Inbox(timestamp);
create index inAuthorIdx on Inbox(author-id) type btree;
)aql";
}

}  // namespace perfbench
