#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

// Seeded generator for the benchmark's data, in the shape of the paper's
// Data definition 1: an open UserType with declared fields and a closed
// MessageType. It hands the engine ADM records and keeps a plain C++ copy of
// every field the answer checks read, so expected answers never pass
// through the engine.

#include <cstdint>
#include <string>
#include <vector>

#include "adm/value.h"

namespace perfbench {

/// SplitMix64: small, fast and identical on every platform, so a seed names
/// the same inputs everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// user-since of user id k is kUserEpochMs + k seconds; timestamp of message
/// id k is kMessageEpochMs + k seconds. A window of N seconds therefore
/// selects exactly N records, which pins every template's selectivity.
extern const int64_t kUserEpochMs;
extern const int64_t kMessageEpochMs;

struct UserRow {
  int64_t id = 0;
  std::string name;
  std::string state;
  std::string city;
};

struct MessageRow {
  int64_t id = 0;
  int64_t author = 0;
  std::string text;
};

inline int64_t UserSinceMs(int64_t id) { return kUserEpochMs + id * 1000; }
inline int64_t MessageTsMs(int64_t id) { return kMessageEpochMs + id * 1000; }

/// Generated users and messages: ADM records for the engine plus the plain
/// rows the checker computes from. users[i] and user_rows[i] have id i, as
/// do messages[i] and message_rows[i].
struct Data {
  std::vector<asterix::adm::Value> users;
  std::vector<asterix::adm::Value> messages;
  std::vector<UserRow> user_rows;
  std::vector<MessageRow> message_rows;
};

Data Generate(uint64_t seed, int64_t num_users, int64_t num_messages);

/// One message record with the given id and author (used for inserts); the
/// text and optional fields are drawn from `rng`.
asterix::adm::Value MakeMessage(int64_t id, int64_t author, Rng* rng,
                                MessageRow* row);

/// AQL datetime constructor for epoch milliseconds.
std::string DatetimeLiteral(int64_t epoch_ms);

/// Qualified dataset names. Inbox has Messages' type and indexes; the
/// analytics workloads insert into it, so their inserts leave the datasets
/// the suite reads unchanged.
inline constexpr const char* kUsers = "Bench.Users";
inline constexpr const char* kMessages = "Bench.Messages";
inline constexpr const char* kInbox = "Bench.Inbox";

/// DDL for the datasets and their secondary B-tree indexes; `column`
/// creates every dataset with {"storage-format": "column"}.
std::string SchemaDdl(bool column);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
