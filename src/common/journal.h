#ifndef ASTERIX_COMMON_JOURNAL_H_
#define ASTERIX_COMMON_JOURNAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace asterix {
namespace journal {

/// Structured runtime events posted by subsystems into the in-memory event
/// journal. Names are hierarchical ("lsm.flush.start") so the JSON snapshot
/// greps well.
enum class EventKind : uint8_t {
  kQueryStart = 0,
  kQueryFinish,
  kJobAdmit,
  kJobStart,
  kJobFinish,
  kLsmFlushStart,
  kLsmFlushEnd,
  kLsmMergeStart,
  kLsmMergeEnd,
  kSpill,
  kSpillReload,
  kBackpressure,
  kLockWait,
  kAdmissionGrant,
  kAdmissionReject,
  kCacheHit,
  kCacheStore,
  kCacheInvalidate,
  kCoalesce,
  kRateLimit,
  kWriteStall,
  kHealth,
  kCompactionSchedule,
  kCompactionStart,
  kCompactionFinish,
};

const char* EventKindName(EventKind kind);

/// One journal entry as observed by a reader. `a` and `b` are kind-specific
/// payloads (documented per kind in DESIGN.md — e.g. bytes in/out for LSM
/// flush/merge end, wait_us/resource for lock waits). `query_id` is the
/// originating query's id, or 0 when no query context applies (background
/// work, boot-time activity).
struct Event {
  uint64_t seq = 0;       // global post order, 1-based
  uint64_t ts_us = 0;     // microseconds since journal creation
  uint64_t query_id = 0;  // originating query, 0 if none
  EventKind kind = EventKind::kQueryStart;
  uint64_t a = 0;
  uint64_t b = 0;
  char label[24] = {0};  // NUL-terminated, truncated subsystem label
};

/// Lock-free MPMC ring buffer of the last `capacity` events. Post() costs one
/// relaxed fetch_add to reserve a slot, one CAS to claim it, plus relaxed
/// stores of the payload — no mutex, no allocation — so per-tuple and
/// per-page paths can afford it. Writers may lap readers: each slot is a
/// seqlock (publish sequence stored last with release order), so Snapshot()
/// simply drops slots it catches mid-overwrite instead of blocking anyone.
/// A writer that finds its slot still being filled, or already holding a
/// later lap, drops its event rather than share the slot.
class Journal {
 public:
  /// Capacity is rounded up to a power of two, minimum 64.
  explicit Journal(size_t capacity);

  /// Records an event tagged with CurrentQueryId(). Safe from any thread.
  void Post(EventKind kind, uint64_t a = 0, uint64_t b = 0,
            const char* label = nullptr);

  /// Copies out every still-valid event with seq > min_seq, in seq order.
  /// Events overwritten or mid-write during the scan are skipped.
  std::vector<Event> Snapshot(uint64_t min_seq = 0) const;

  /// JSON array of Snapshot(min_seq) — the introspection wire format.
  std::string SnapshotJson(uint64_t min_seq = 0) const;

  /// Total events ever posted (== seq of the most recent event).
  uint64_t posted() const { return head_.load(std::memory_order_relaxed); }
  size_t capacity() const { return mask_ + 1; }

  /// Events lapped by a writer before ANY Snapshot() had a chance to read
  /// them, plus events dropped because their slot was busy with another lap
  /// — the journal's blind spot. Overwrites of already-snapshot-visible
  /// events are normal ring behavior and not counted; a growing value here
  /// means the ring is too small for the event rate vs. the scrape cadence.
  uint64_t overwrite_drops() const {
    return overwrite_drops_.load(std::memory_order_relaxed);
  }

  /// Process-wide journal all subsystems post into. Capacity comes from
  /// ASTERIX_JOURNAL_EVENTS (default 65536).
  static Journal& Default();

 private:
  // Each payload field is a relaxed atomic so concurrent overwrite vs.
  // snapshot copy is a benign race in the memory model, not a data race;
  // the seqlock decides whether the copied bytes are used.
  struct Slot {
    std::atomic<uint64_t> seq{0};  // 0 = never written, ~0 = write in flight
    std::atomic<uint64_t> ts_us{0};
    std::atomic<uint64_t> query_id{0};
    std::atomic<uint64_t> kind{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<uint64_t> label_words[3] = {{0}, {0}, {0}};
  };
  static constexpr uint64_t kWriting = ~0ull;

  uint64_t NowUs() const;

  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
  // Highest head_ observed at the start of any Snapshot(): events at or
  // below this seq were reachable by at least one reader. Overwriting a
  // published event above the floor counts as a drop. Mutable because
  // Snapshot() is logically const but advances the floor.
  mutable std::atomic<uint64_t> snapshot_floor_{0};
  std::atomic<uint64_t> overwrite_drops_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// Monotonically-assigned query ids, process-wide, starting at 1.
uint64_t NextQueryId();

/// The query id attached to work running on this thread (0 when none).
/// Propagated onto executor-pool threads by the task wrappers in
/// Cluster::ExecuteJob, so storage/txn/channel code can post query-tagged
/// events without parameter plumbing.
uint64_t CurrentQueryId();

/// RAII: sets this thread's current query id, restoring the previous value
/// on destruction (queries can nest through the interpreter fallback).
class ScopedQueryId {
 public:
  explicit ScopedQueryId(uint64_t id);
  ~ScopedQueryId();
  ScopedQueryId(const ScopedQueryId&) = delete;
  ScopedQueryId& operator=(const ScopedQueryId&) = delete;

 private:
  uint64_t prev_;
};

}  // namespace journal
}  // namespace asterix

#endif  // ASTERIX_COMMON_JOURNAL_H_
