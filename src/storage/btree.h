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

  /// The one place leaf entries are decoded: a cursor over the leaf chain.
  /// It pins its current leaf page, decodes an entry's key and flags, and
  /// hands out the payload as a view into that page; an overflow payload is
  /// read into one buffer the cursor reuses.
  class Cursor {
   public:
    explicit Cursor(const BTreeReader* tree) : tree_(tree) {}

    bool Valid() const { return valid_; }
    const CompositeKey& key() const { return key_; }
    bool antimatter() const { return antimatter_; }
    size_t payload_size() const { return payload_len_; }

    /// Positions at the first entry not below `lo` in bound order (the
    /// tree's first entry when `lo` is null); invalid when there is none.
    Status Seek(const CompositeKey* lo);
    /// Moves to the next entry, following the leaf chain.
    Status Next();
    /// Positions at the first entry not below `key`, which must not be
    /// below the previous Find's key; `*found` tells whether that entry's
    /// key equals `key`. While `key` is not above the current leaf's last
    /// key, only that leaf is searched, from the current entry on;
    /// otherwise the cursor seeks from the root. So an ascending run of
    /// keys costs one descent per leaf it touches.
    Status Find(const CompositeKey& key, bool* found);

    /// Calls `cb` with the current entry as a view; valid until the cursor
    /// moves.
    template <typename F>
    Status View(F&& cb) {
      const uint8_t* data = inline_;
      if (overflow_) {
        ASTERIX_RETURN_NOT_OK(ReadOverflow());
        data = overflow_buf_.data();
      }
      return cb(EntryView{key_, antimatter_, data, payload_len_});
    }

   private:
    Result<PagePtr> Fetch(uint32_t page_no) const;
    /// Descends from the root to the leftmost leaf that can hold keys not
    /// below `key` in bound (prefix) order; the first leaf when null.
    Status Descend(const CompositeKey* key);
    /// The child of an interior page to descend into for `key`.
    Result<uint32_t> ChildFor(const PageData& page, const CompositeKey* key);
    Status LoadLeaf(PagePtr page);
    /// Where entry `i`'s bytes start in the leaf, as a reader to its end.
    Status EntryAt(uint16_t i, BytesReader* out) const;
    /// Decodes the current leaf's last key into last_key_, once per leaf.
    Status LoadLastKey();
    /// First entry index in [from, count_) whose key is not below `bound`;
    /// count_ if none.
    Result<uint16_t> LowerBound(uint16_t from, const CompositeKey& bound);
    /// Follows the leaf chain past an exhausted leaf, then decodes the
    /// entry at idx_.
    Status Settle();
    Status DecodeEntry();
    Status ReadOverflow();

    const BTreeReader* tree_;
    PagePtr page_;  // pins the current leaf
    uint32_t next_ = 0xffffffffu;  // the next leaf's page; none
    uint16_t count_ = 0;
    const uint8_t* table_ = nullptr;
    const uint8_t* entries_ = nullptr;
    size_t entries_len_ = 0;
    bool last_key_loaded_ = false;
    CompositeKey last_key_;  // the current leaf's last key, once loaded
    uint16_t idx_ = 0;
    bool valid_ = false;
    // The entry at idx_.
    CompositeKey key_;
    bool antimatter_ = false;
    bool overflow_ = false;
    const uint8_t* inline_ = nullptr;
    uint64_t overflow_off_ = 0;
    size_t payload_len_ = 0;
    std::vector<uint8_t> overflow_buf_;
    CompositeKey probe_;  // scratch key for searches
  };

 private:
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
