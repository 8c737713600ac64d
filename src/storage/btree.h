#ifndef ASTERIX_STORAGE_BTREE_H_
#define ASTERIX_STORAGE_BTREE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "storage/bloom.h"
#include "storage/buffer_cache.h"
#include "storage/key.h"

namespace asterix {
namespace storage {

/// Compares `key` against a (possibly shorter) search bound: only the
/// bound's components participate, so a 1-component bound against a
/// (token, pk) composite key expresses a prefix range. Full-length bounds
/// degrade to ordinary key comparison.
int BoundCompare(const CompositeKey& key, const CompositeKey& bound);

/// Inclusive/exclusive range bounds for index scans; absent bound = open.
struct ScanBounds {
  std::optional<CompositeKey> lo;
  bool lo_inclusive = true;
  std::optional<CompositeKey> hi;
  bool hi_inclusive = true;
};

/// Where `key` falls against `bounds`: -1 below, 0 within, 1 above.
int BoundsPosition(const CompositeKey& key, const ScanBounds& bounds);

using EntryCallback = std::function<Status(const IndexEntry&)>;

/// A leaf entry read in place: its key, and its payload as a view into the
/// pinned leaf page (or into the reading cursor's overflow buffer). Valid
/// only inside the callback that receives it.
struct EntryView {
  const CompositeKey& key;
  bool antimatter;
  const uint8_t* payload;
  size_t payload_size;
};
using EntryViewCallback = std::function<Status(const EntryView&)>;

/// Writes an immutable, paged B+-tree file from entries that MUST be sorted
/// by key and unique. This is the bulk loader used for every LSM flush and
/// merge (LSM disk components are never updated in place).
class BTreeBuilder {
 public:
  explicit BTreeBuilder(std::string path);

  /// Adds the next entry; keys must arrive in strictly ascending order.
  Status Add(const IndexEntry& entry);

  /// Writes pages, footer, and bloom filter; the file appears atomically.
  Status Finish();

  uint64_t num_entries() const { return num_entries_; }

 private:
  Status FlushLeaf();

  std::string path_;
  std::vector<uint8_t> file_bytes_;          // pages, built in memory
  std::vector<uint8_t> overflow_;            // large payloads
  std::vector<uint8_t> leaf_buf_;            // current leaf payload
  std::vector<uint16_t> leaf_offsets_;       // current leaf entry offsets
  uint16_t leaf_count_ = 0;
  std::vector<std::pair<CompositeKey, uint32_t>> level_;  // (first key, page)
  std::vector<uint64_t> key_hashes_;
  CompositeKey first_key_of_leaf_;
  CompositeKey last_key_;
  CompositeKey min_key_, max_key_;
  uint64_t num_entries_ = 0;
  bool finished_ = false;
};

/// Read-side of the paged B+-tree; thread-safe, backed by the BufferCache.
class BTreeReader {
 public:
  static Result<std::shared_ptr<BTreeReader>> Open(BufferCache* cache,
                                                   const std::string& path);
  ~BTreeReader();

  BTreeReader(const BTreeReader&) = delete;
  BTreeReader& operator=(const BTreeReader&) = delete;

  /// Exact-match lookup of a full key. Uses the bloom filter to skip work.
  /// `found` false when absent (tombstones count as found with
  /// entry.antimatter set — LSM resolution happens above this layer).
  Status PointLookup(const CompositeKey& key, bool* found, IndexEntry* out);

  /// In-order scan of all entries within bounds.
  Status RangeScan(const ScanBounds& bounds, const EntryCallback& cb) const;
  /// RangeScan without copying payloads out of the page.
  Status RangeScanView(const ScanBounds& bounds,
                       const EntryViewCallback& cb) const;

  /// Sorted batch lookup of full keys (ascending, else InvalidArgument;
  /// duplicates allowed): `cb` gets (i, entry) for every keys[i] the tree
  /// holds, tombstones included, in ascending i. A key not above the
  /// current leaf's last key is found in that leaf; any other key seeks
  /// from the root, so the batch costs one descent per leaf it touches. The
  /// bloom filter is not consulted — callers screen keys with MayContain
  /// first, as the LSM layer does to account per key.
  Status MultiGet(const std::vector<CompositeKey>& keys,
                  const std::function<Status(size_t i, const EntryView& e)>& cb)
      const;

  uint64_t num_entries() const { return num_entries_; }
  const CompositeKey& min_key() const { return min_key_; }
  const CompositeKey& max_key() const { return max_key_; }
  uint64_t file_size_bytes() const { return file_size_; }
  bool MayContain(const CompositeKey& key) const {
    return bloom_.MayContain(HashKey(key));
  }

 private:
  class Cursor;

  BTreeReader() = default;

  BufferCache* cache_ = nullptr;
  FileId file_ = 0;
  uint32_t root_page_ = 0;
  uint32_t num_pages_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t overflow_offset_ = 0;
  uint64_t file_size_ = 0;
  CompositeKey min_key_, max_key_;
  BloomFilter bloom_ = BloomFilter::Build({});
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_BTREE_H_
