#ifndef ASTERIX_COMMON_LEDGER_H_
#define ASTERIX_COMMON_LEDGER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace asterix {
namespace ledger {

/// How a served request was answered (the serving layer records this per
/// client; executed queries carry their full cost breakdown too).
enum class CacheOutcome : int {
  kExecuted = 0,  // ran through the engine
  kHit = 1,       // answered from the result cache
  kCoalesced = 2, // shared another request's in-flight execution
};
const char* CacheOutcomeName(CacheOutcome outcome);

/// The client work is attributed to when no serving-layer client asked for
/// it: Execute(), Explain() and SubmitAsync(), and any empty client id.
inline constexpr char kDirectClient[] = "direct";

/// Accumulated resource usage of one query (one Execute() call), attributed
/// through the process-wide query-id plumbing: operator-task thread CPU
/// time, storage bytes read, bytes written (LSM flush/merge output + spill
/// runs), spill bytes, and admission-queue wait.
struct QueryUsage {
  uint64_t query_id = 0;
  std::string client;
  std::string statement;
  uint64_t cpu_us = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t spill_bytes = 0;
  uint64_t admission_wait_us = 0;
  uint64_t elapsed_us = 0;
  bool ok = true;
  bool finished = false;

  /// The "by bytes" ranking key: all storage traffic the query caused.
  uint64_t total_bytes() const {
    return bytes_read + bytes_written + spill_bytes;
  }
};

/// Cumulative per-client resource table ("which client is eating the
/// cluster"), folded from finished queries plus cache/coalesce outcomes.
struct ClientUsage {
  std::string client;
  uint64_t queries = 0;  // executed scripts attributed to this client
  uint64_t failures = 0;
  uint64_t cache_hits = 0;
  uint64_t coalesced = 0;
  uint64_t cpu_us = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t spill_bytes = 0;
  uint64_t admission_wait_us = 0;
};

/// Process-wide per-query resource ledger. The api layer opens an entry per
/// Execute() (Begin/Finish); the executor and storage layers accumulate
/// into it keyed by the query id they already carry (journal::
/// CurrentQueryId()), so attribution needs no new parameter plumbing. Adds
/// happen per job / per flush — never per tuple — so one mutex suffices.
/// Finished entries are retained in a bounded ring for "top queries by
/// cpu/bytes"; per-client totals are cumulative until Reset().
class ResourceLedger {
 public:
  explicit ResourceLedger(size_t retain_finished = 256);

  /// The process-wide ledger every layer accumulates into.
  static ResourceLedger& Default();

  void Begin(uint64_t query_id, const std::string& client,
             const std::string& statement);
  void AddCpu(uint64_t query_id, uint64_t us);
  void AddBytesRead(uint64_t query_id, uint64_t n);
  void AddBytesWritten(uint64_t query_id, uint64_t n);
  void AddSpill(uint64_t query_id, uint64_t n);
  void AddAdmissionWait(uint64_t query_id, uint64_t us);
  void Finish(uint64_t query_id, bool ok, uint64_t elapsed_us);

  /// Accounts a cache-served or coalesced request (which never executes,
  /// so it has no Begin/Finish pair) to the client table.
  void RecordServed(const std::string& client, CacheOutcome outcome);

  /// Top-N queries (live and retained-finished) by CPU or by total bytes.
  std::vector<QueryUsage> TopByCpu(size_t n) const;
  std::vector<QueryUsage> TopByBytes(size_t n) const;
  std::vector<ClientUsage> Clients() const;

  /// `{ "by_cpu": [ {...}, ... ], "by_bytes": [ {...}, ... ] }`.
  std::string TopJson(size_t n) const;
  /// JSON array of the cumulative per-client table.
  std::string ClientsJson() const;

  /// Drops all state (bench epochs, tests).
  void Reset();

 private:
  QueryUsage* FindLocked(uint64_t query_id);
  std::vector<QueryUsage> SnapshotLocked() const;

  size_t retain_;
  mutable std::mutex mu_;
  std::map<uint64_t, QueryUsage> live_;
  std::deque<QueryUsage> finished_;  // bounded by retain_
  std::map<std::string, ClientUsage> clients_;
};

}  // namespace ledger
}  // namespace asterix

#endif  // ASTERIX_COMMON_LEDGER_H_
