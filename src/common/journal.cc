#include "common/journal.h"

#include <algorithm>
#include <cstdlib>

#include "common/string_utils.h"

namespace asterix {
namespace journal {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kQueryStart:
      return "query.start";
    case EventKind::kQueryFinish:
      return "query.finish";
    case EventKind::kJobAdmit:
      return "job.admit";
    case EventKind::kJobStart:
      return "job.start";
    case EventKind::kJobFinish:
      return "job.finish";
    case EventKind::kLsmFlushStart:
      return "lsm.flush.start";
    case EventKind::kLsmFlushEnd:
      return "lsm.flush.end";
    case EventKind::kLsmMergeStart:
      return "lsm.merge.start";
    case EventKind::kLsmMergeEnd:
      return "lsm.merge.end";
    case EventKind::kSpill:
      return "spill.write";
    case EventKind::kSpillReload:
      return "spill.reload";
    case EventKind::kBackpressure:
      return "channel.backpressure";
    case EventKind::kLockWait:
      return "lock.wait";
    case EventKind::kAdmissionGrant:
      return "admission.grant";
    case EventKind::kAdmissionReject:
      return "admission.reject";
    case EventKind::kCacheHit:
      return "cache.hit";
    case EventKind::kCacheStore:
      return "cache.store";
    case EventKind::kCacheInvalidate:
      return "cache.invalidate";
    case EventKind::kCoalesce:
      return "coalesce.join";
    case EventKind::kRateLimit:
      return "rate.limit";
    case EventKind::kWriteStall:
      return "lsm.write.stall";
    case EventKind::kHealth:
      return "health.transition";
    case EventKind::kCompactionSchedule:
      return "compaction.schedule";
    case EventKind::kCompactionStart:
      return "compaction.start";
    case EventKind::kCompactionFinish:
      return "compaction.finish";
  }
  return "unknown";
}

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

thread_local uint64_t tls_query_id = 0;

}  // namespace

Journal::Journal(size_t capacity)
    : mask_(RoundUpPow2(capacity) - 1),
      slots_(std::make_unique<Slot[]>(mask_ + 1)),
      epoch_(std::chrono::steady_clock::now()) {}

uint64_t Journal::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Journal::Post(EventKind kind, uint64_t a, uint64_t b, const char* label) {
  uint64_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx & mask_];
  // Writers a whole ring apart (idx, idx + capacity) target the same slot,
  // so the slot is claimed by CAS: one writer at a time stores a payload.
  // A slot another writer is filling, or one that already holds a later
  // lap, keeps its event and this one is dropped, counted as lost history.
  uint64_t old = slot.seq.load(std::memory_order_relaxed);
  do {
    if (old == kWriting || old > idx) {
      overwrite_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  } while (!slot.seq.compare_exchange_weak(old, kWriting,
                                           std::memory_order_relaxed));
  // Payload stores must not become visible before the claim: a reader that
  // sees any of them then also sees kWriting on its seq re-check.
  std::atomic_thread_fence(std::memory_order_release);
  // Lapping a published event that no Snapshot() could have seen yet is a
  // silent loss of history; count it so StatusJson can surface the blind
  // spot. A benign race (a concurrent Snapshot that just started) at worst
  // over-counts by the in-flight scan, which errs on the honest side.
  if (old != 0 && old > snapshot_floor_.load(std::memory_order_relaxed)) {
    overwrite_drops_.fetch_add(1, std::memory_order_relaxed);
  }
  slot.ts_us.store(NowUs(), std::memory_order_relaxed);
  slot.query_id.store(tls_query_id, std::memory_order_relaxed);
  slot.kind.store(static_cast<uint64_t>(kind), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  uint64_t words[3] = {0, 0, 0};
  if (label != nullptr) {
    char buf[24] = {0};
    size_t n = 0;
    while (n < sizeof(buf) - 1 && label[n] != '\0') {
      buf[n] = label[n];
      ++n;
    }
    std::memcpy(words, buf, sizeof(buf));
  }
  for (int i = 0; i < 3; ++i) {
    slot.label_words[i].store(words[i], std::memory_order_relaxed);
  }
  // Publish: seq = idx + 1 (1-based so 0 can mean "never written").
  slot.seq.store(idx + 1, std::memory_order_release);
}

std::vector<Event> Journal::Snapshot(uint64_t min_seq) const {
  // Advance the "some reader got this far" floor to the current head:
  // everything posted before this point is now fair game for overwrite
  // without counting as a drop.
  uint64_t head = head_.load(std::memory_order_relaxed);
  uint64_t floor = snapshot_floor_.load(std::memory_order_relaxed);
  while (floor < head && !snapshot_floor_.compare_exchange_weak(
                             floor, head, std::memory_order_relaxed)) {
  }
  std::vector<Event> out;
  size_t cap = mask_ + 1;
  out.reserve(cap);
  for (size_t i = 0; i < cap; ++i) {
    const Slot& slot = slots_[i];
    uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || before == kWriting || before <= min_seq) continue;
    Event e;
    e.seq = before;
    e.ts_us = slot.ts_us.load(std::memory_order_relaxed);
    e.query_id = slot.query_id.load(std::memory_order_relaxed);
    e.kind = static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
    e.a = slot.a.load(std::memory_order_relaxed);
    e.b = slot.b.load(std::memory_order_relaxed);
    uint64_t words[3];
    for (int w = 0; w < 3; ++w) {
      words[w] = slot.label_words[w].load(std::memory_order_relaxed);
    }
    std::memcpy(e.label, words, sizeof(e.label));
    e.label[sizeof(e.label) - 1] = '\0';
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    out.push_back(e);
  }
  std::sort(out.begin(), out.end(),
            [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return out;
}

std::string Journal::SnapshotJson(uint64_t min_seq) const {
  std::vector<Event> events = Snapshot(min_seq);
  std::string out = "[ ";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (i) out += ", ";
    out += "{ \"seq\": " + std::to_string(e.seq) +
           ", \"ts_us\": " + std::to_string(e.ts_us) + ", \"kind\": \"" +
           EventKindName(e.kind) +
           "\", \"query_id\": " + std::to_string(e.query_id) +
           ", \"a\": " + std::to_string(e.a) +
           ", \"b\": " + std::to_string(e.b) + ", \"label\": ";
    AppendJsonString(e.label, &out);
    out += " }";
  }
  out += " ]";
  return out;
}

Journal& Journal::Default() {
  static Journal* instance = [] {
    size_t capacity = 65536;
    if (const char* env = std::getenv("ASTERIX_JOURNAL_EVENTS")) {
      long v = std::atol(env);
      if (v > 0) capacity = static_cast<size_t>(v);
    }
    return new Journal(capacity);
  }();
  return *instance;
}

uint64_t NextQueryId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t CurrentQueryId() { return tls_query_id; }

ScopedQueryId::ScopedQueryId(uint64_t id) : prev_(tls_query_id) {
  tls_query_id = id;
}

ScopedQueryId::~ScopedQueryId() { tls_query_id = prev_; }

}  // namespace journal
}  // namespace asterix
