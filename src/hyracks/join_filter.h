#ifndef ASTERIX_HYRACKS_JOIN_FILTER_H_
#define ASTERIX_HYRACKS_JOIN_FILTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "storage/scan_filter.h"

namespace asterix {
namespace hyracks {

/// A hash join's build keys, pushed into its probe side's scan as a runtime
/// filter. Every instance of the join hands over the 64-bit hashes of its
/// known build keys (the Hash64 over the normalized key bytes the join
/// itself probes with) when its build port closes; when the last has done
/// so, the filter seals as a Bloom filter over all of them. The probe scan
/// waits for the seal, then drops records whose key hash no build key has.
/// Keyed by the join's own hash, it compares as the join does: int32 5,
/// int64 5 and double 5.0 match, and record keys ignore field order.
///
/// A join instance that ends without closing its build port (its job
/// failed) seals the filter as pass-all at once, so no scan waits for a
/// build that will not come; so does one with more than kMaxKeys keys,
/// which caps the filter's memory. A filter serves one execution of its
/// job.
class JoinFilter {
 public:
  /// Past this many build keys the filter passes everything.
  static constexpr size_t kMaxKeys = size_t{1} << 19;

  /// `builders`: the join's instances. Each ends its build exactly once,
  /// with Publish() or Release().
  explicit JoinFilter(int builders) : pending_(builders) {}

  /// Build side: one instance's key hashes, at the close of its build port
  /// (more than kMaxKeys in all seal the filter pass-all).
  void Publish(std::vector<uint64_t> hashes);
  /// Build side: seals the filter as pass-all.
  void Release();

  /// Probe side: blocks until the filter is sealed.
  void Wait() const;
  /// After Wait(): whether every record must pass.
  bool pass_all() const { return pass_all_; }
  /// After Wait(): false when no build key has this hash.
  bool MayContain(uint64_t hash) const {
    uint64_t h = Mix(hash);
    uint64_t want = BitsOf(h);
    return (words_[(h >> 32) & mask_] & want) == want;
  }

 private:
  /// SplitMix64's finalizer: spreads FNV's weakly mixed high bits.
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Four bits of one 64-bit word: one cache line read per test, where
  /// storage::BloomFilter (tested once per point lookup, not per scanned
  /// row) divides for each of six bits anywhere in its array.
  static uint64_t BitsOf(uint64_t h) {
    return (1ull << (h & 63)) | (1ull << ((h >> 6) & 63)) |
           (1ull << ((h >> 12) & 63)) | (1ull << ((h >> 18) & 63));
  }
  /// Builds the Bloom words from hashes_ and wakes the waiters; mu_ held.
  void SealLocked();

  mutable std::mutex mu_;
  mutable std::condition_variable sealed_cv_;
  int pending_;
  bool sealed_ = false;
  bool pass_all_ = false;
  std::vector<uint64_t> hashes_;  // published so far, until the seal
  std::vector<uint64_t> words_;   // the sealed filter: 16 bits per key
  uint64_t mask_ = 0;
};

/// A probe scan's use of a sealed JoinFilter, as the storage scan's key
/// test: it drops records whose join key is NULL or MISSING (they never
/// join an inner join) or whose key hash the filter rules out. A filter
/// that does not prune is not worth its keys' separate decoding: when
/// fewer than a quarter of the first kSampleRecords tests drop, testing
/// stops and every later record passes. One scan instance owns one.
class JoinFilterProbe final : public storage::ScanKeyFilter {
 public:
  static constexpr uint64_t kSampleRecords = 4096;

  /// `fields[i]` is the record field holding the join's i-th probe key.
  /// Waits for `filter`'s seal.
  JoinFilterProbe(std::shared_ptr<const JoinFilter> filter,
                  std::vector<std::string> fields);

  bool Keep(const adm::Value* const* keys) override;
  bool active() const override { return active_; }

  /// Records dropped so far.
  uint64_t dropped() const { return dropped_; }

 private:
  std::shared_ptr<const JoinFilter> filter_;
  bool active_ = false;
  BytesWriter key_;
  uint64_t tested_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_JOIN_FILTER_H_
