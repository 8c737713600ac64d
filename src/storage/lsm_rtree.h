#ifndef ASTERIX_STORAGE_LSM_RTREE_H_
#define ASTERIX_STORAGE_LSM_RTREE_H_

#include <string>

#include "storage/lsm.h"
#include "storage/rtree.h"

namespace asterix {
namespace storage {

/// LSM-ified R-tree for secondary spatial indexes: a thin layer over the
/// shared LSM core (LsmBTree). Entries are keyed by the referencing primary
/// key, so deletes (antimatter by pk) cancel older spatial entries, and the
/// payload is the indexed value's MBR. Disk components are immutable
/// STR-packed R-trees (`.rtr`); flushes, merges, merge policies, the
/// compaction scheduler, recovery and accounting are the core's.
class LsmRTree {
 public:
  LsmRTree(BufferCache* cache, const std::string& dir, const std::string& name,
           LsmOptions options);

  Status Open() { return tree_.Open(); }

  /// Inserts/updates the spatial entry for `pk`.
  Status Upsert(const CompositeKey& pk, const Mbr& mbr, uint64_t lsn);
  /// Antimatter for `pk`. The deleted entry's MBR must be supplied so the
  /// tombstone is discovered by the same spatial searches that would find
  /// the cancelled entry in older components.
  Status Delete(const CompositeKey& pk, const Mbr& old_mbr, uint64_t lsn);

  Status Flush() { return tree_.Flush(); }

  /// All live primary keys whose MBR overlaps `query`, LSM-resolved, in pk
  /// order.
  Status Search(const Mbr& query, const RTreeCallback& cb) const;

  size_t mem_entries() const { return tree_.mem_entries(); }
  size_t num_disk_components() const { return tree_.num_disk_components(); }
  uint64_t total_disk_bytes() const { return tree_.total_disk_bytes(); }
  uint64_t flushed_lsn() const { return tree_.flushed_lsn(); }

 private:
  LsmBTree tree_;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_LSM_RTREE_H_
