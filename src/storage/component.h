#ifndef ASTERIX_STORAGE_COMPONENT_H_
#define ASTERIX_STORAGE_COMPONENT_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "storage/btree.h"
#include "storage/column/projection.h"
#include "storage/key.h"
#include "storage/scan_filter.h"

namespace asterix {
namespace storage {

/// One MultiGet hit: `i` indexes the probed key batch; an antimatter hit
/// carries a Missing record.
using MultiGetCallback =
    std::function<Status(size_t i, bool antimatter, const adm::Value& record)>;

/// A pull cursor over one component's entries within a scan's bounds, in
/// key order, positioned at the first on creation. Every component kind —
/// memtable, row B+-tree, column, R-tree — reads through one, and the LSM
/// layer's newest-wins merge of them serves every key-ordered read and
/// build. Moving the cursor decodes only the entry's key; the record is
/// decoded on request, so the merge decodes winners only.
class ComponentCursor {
 public:
  virtual ~ComponentCursor() = default;

  /// False once past the last entry in bounds.
  bool Valid() const { return key_ != nullptr; }
  const CompositeKey& key() const { return *key_; }
  bool antimatter() const { return antimatter_; }

  virtual Status Next() = 0;
  /// The current entry's logical payload, as a flush wrote it: a row's
  /// record image (unframed), a column row re-serialized, an R-tree
  /// entry's MBR.
  virtual Status Payload(std::vector<uint8_t>* out) = 0;
  /// The current entry's record, with only the scan's projected fields;
  /// valid until the cursor moves. Null when `filter` (optional) is active
  /// and drops the record on its key fields: a row decodes those first and
  /// the rest only for records the filter keeps.
  virtual Status Record(ScanKeyFilter* filter, const adm::Value** out) = 0;

 protected:
  const CompositeKey* key_ = nullptr;  // the current entry's; null at end
  bool antimatter_ = false;
};

/// The newest-wins merge of an index's component cursors (the paper's LSM
/// reconciliation, §4.3), written once for every scan, count and build.
/// The winner is the newest cursor at the smallest key; Next() steps every
/// other cursor at that key past it undecoded, so only a winner is ever
/// decoded. An antimatter winner is the caller's to hide (scans) or keep
/// (merge builds). With one cursor there is no heap.
class NewestWinsMerge {
 public:
  /// `cursors` come newest first.
  explicit NewestWinsMerge(std::vector<std::unique_ptr<ComponentCursor>> cursors)
      : cursors_(std::move(cursors)) {
    for (size_t i = 0; i < cursors_.size(); ++i) {
      if (cursors_[i]->Valid()) Push(i);
    }
    Pop();
  }

  bool Valid() const { return top_ != nullptr; }
  ComponentCursor& winner() const { return *top_; }

  Status Next() {
    // Older versions of the winner's key step past it undecoded.
    while (!heap_.empty() &&
           CompareKeys(cursors_[heap_.front()]->key(), top_->key()) == 0) {
      size_t i = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), After{this});
      heap_.pop_back();
      ASTERIX_RETURN_NOT_OK(cursors_[i]->Next());
      if (cursors_[i]->Valid()) Push(i);
    }
    ASTERIX_RETURN_NOT_OK(top_->Next());
    if (top_->Valid()) {
      // Still at the smallest key: the winner stays without a heap trip.
      if (heap_.empty() || !After{this}(top_idx_, heap_.front())) {
        return Status::OK();
      }
      Push(top_idx_);
    }
    Pop();
    return Status::OK();
  }

  /// Calls `f(winner)` for every winner in key order.
  template <typename F>
  Status ForEach(F&& f) {
    while (Valid()) {
      ASTERIX_RETURN_NOT_OK(f(*top_));
      ASTERIX_RETURN_NOT_OK(Next());
    }
    return Status::OK();
  }

 private:
  /// Heap order: by key, the newer (lower-indexed) cursor first on ties.
  struct After {
    const NewestWinsMerge* m;
    bool operator()(size_t a, size_t b) const {
      int c = CompareKeys(m->cursors_[a]->key(), m->cursors_[b]->key());
      return c != 0 ? c > 0 : a > b;
    }
  };
  void Push(size_t i) {
    heap_.push_back(i);
    std::push_heap(heap_.begin(), heap_.end(), After{this});
  }
  /// Makes the heap's smallest cursor the winner; none when it is empty.
  void Pop() {
    top_ = nullptr;
    if (heap_.empty()) return;
    std::pop_heap(heap_.begin(), heap_.end(), After{this});
    top_idx_ = heap_.back();
    heap_.pop_back();
    top_ = cursors_[top_idx_].get();
  }

  std::vector<std::unique_ptr<ComponentCursor>> cursors_;
  std::vector<size_t> heap_;  // the other valid cursors
  size_t top_idx_ = 0;
  ComponentCursor* top_ = nullptr;  // the winner; null at end
};

/// The read interface every LSM disk component satisfies, whatever its
/// physical layout. The LSM layer (LsmBTree) resolves across components
/// through this interface only, so row-major B+-tree components and
/// column-major components interoperate inside one index — e.g. while a
/// dataset converts formats, or for secondary indexes that stay row-major.
class DiskComponentReader {
 public:
  virtual ~DiskComponentReader() = default;

  /// A cursor over the entries within `bounds`, tombstones included, whose
  /// records carry only `proj`'s fields. A column component skips a row
  /// group that min/max stats prove dead for `proj.ranges` only when the
  /// group's key span misses every `exclusions` interval (the other
  /// components' key ranges), so no skipped row can let an older version
  /// win. Each entry the cursor steps over is counted into `stats`
  /// (optional). `bounds`, `proj` and `stats` must outlive the cursor.
  virtual Result<std::unique_ptr<ComponentCursor>> Scan(
      const ScanBounds& bounds, const column::Projection& proj,
      std::vector<column::KeyInterval> exclusions,
      column::ProjectedScanStats* stats) const = 0;

  /// The closed key interval the component's entries span, tombstones
  /// included; empty when it holds none.
  virtual Status KeyRange(std::optional<column::KeyInterval>* out) const = 0;

  /// Batch lookup of `keys` (ascending; duplicates allowed). For each key
  /// the component holds, `cb` gets its entry in ascending `i`, with only
  /// the projection's fields materialized. Row components resolve the
  /// batch with one sorted B+-tree MultiGet (one descent per leaf); column
  /// components decode each touched row group once, and only the projected
  /// columns.
  virtual Status MultiGet(const std::vector<CompositeKey>& keys,
                          const column::Projection& proj,
                          const MultiGetCallback& cb) const = 0;

  /// Bloom-filter screen for point lookups.
  virtual bool MayContain(const CompositeKey& key) const = 0;
};

/// What an index structure plugs into the shared LSM core (the paper's
/// LSM-ification framework, §4.3): its component file suffix, how a
/// flush's or merge's entries become a component file, and how a finished
/// file opens for reading. The core owns everything else — memtables,
/// seqs, validity markers, merge policy, scheduling, recovery, accounting.
class ComponentLayout {
 public:
  virtual ~ComponentLayout() = default;
  virtual const char* suffix() const = 0;
  /// Writes a component file at `path`. `feed` hands its callback every
  /// entry in ascending key order (the newest-wins merge of a flush's
  /// memtable or of a merge's inputs).
  virtual Status Build(const std::string& path,
                       const std::function<Status(const EntryCallback&)>& feed,
                       uint64_t* num_entries) const = 0;
  virtual Status Open(const std::string& path,
                      std::shared_ptr<DiskComponentReader>* out) const = 0;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_COMPONENT_H_
