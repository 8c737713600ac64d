#ifndef ASTERIX_STORAGE_COMPONENT_H_
#define ASTERIX_STORAGE_COMPONENT_H_

#include "storage/btree.h"
#include "storage/column/projection.h"
#include "storage/key.h"

namespace asterix {
namespace storage {

/// One MultiGet hit: `i` indexes the probed key batch; an antimatter hit
/// carries a Missing record.
using MultiGetCallback =
    std::function<Status(size_t i, bool antimatter, const adm::Value& record)>;

/// The read interface every LSM disk component satisfies, whatever its
/// physical layout. The LSM layer (LsmBTree) resolves across components
/// through this interface only, so row-major B+-tree components and
/// column-major components interoperate inside one index — e.g. while a
/// dataset converts formats, or for secondary indexes that stay row-major.
class DiskComponentReader {
 public:
  virtual ~DiskComponentReader() = default;

  /// Exact-match lookup (tombstones report found with antimatter set; LSM
  /// resolution happens above).
  virtual Status PointLookup(const CompositeKey& key, bool* found,
                             IndexEntry* out) = 0;

  /// In-order scan of all entries within bounds, payloads fully
  /// materialized.
  virtual Status RangeScan(const ScanBounds& bounds,
                           const EntryCallback& cb) const = 0;

  /// Column-aware scan: materializes only the projection's fields as record
  /// values. Row components read every payload byte but decode only the
  /// projected fields, in place in the leaf page; column components touch
  /// only the needed column pages. When `allow_pruning`, page groups proven
  /// empty by min/max stats may be skipped wholesale — only sound when the
  /// caller does not need this component's rows for cross-component LSM
  /// resolution.
  virtual Status ProjectedScan(const ScanBounds& bounds,
                               const column::Projection& proj,
                               bool allow_pruning,
                               const column::ProjectedEntryCallback& cb,
                               column::ProjectedScanStats* stats) const = 0;

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
  /// entry in ascending key order (a memtable, or a merge's newest-wins
  /// resolution of its inputs).
  virtual Status Build(const std::string& path,
                       const std::function<Status(const EntryCallback&)>& feed,
                       uint64_t* num_entries) const = 0;
  virtual Status Open(const std::string& path,
                      std::shared_ptr<DiskComponentReader>* out) const = 0;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_COMPONENT_H_
