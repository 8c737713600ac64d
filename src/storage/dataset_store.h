#ifndef ASTERIX_STORAGE_DATASET_STORE_H_
#define ASTERIX_STORAGE_DATASET_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "adm/type.h"
#include "adm/value.h"
#include "common/version_clock.h"
#include "storage/inverted.h"
#include "storage/lsm.h"
#include "storage/lsm_rtree.h"
#include "txn/txn_manager.h"

namespace asterix {
namespace storage {

/// Kinds of secondary indexes (paper §2.2): default btree, rtree for
/// spatial fields, keyword and ngram(k) inverted text indexes.
enum class IndexKind { kBTree, kRTree, kKeyword, kNgram };

/// Declarative secondary-index definition.
struct IndexDef {
  std::string name;
  IndexKind kind = IndexKind::kBTree;
  std::vector<std::string> fields;  // dotted paths allowed ("address.city")
  size_t gram_length = 3;           // ngram only
};

/// Everything the storage layer needs to know about a dataset.
struct DatasetDef {
  uint32_t dataset_id = 0;
  std::string dataverse;
  std::string name;
  adm::DatatypePtr type;  // record type the dataset enforces
  std::vector<std::string> primary_key_fields;
  /// Paper SS2.1: "AsterixDB's next release will offer auto-generated keys"
  /// — this implementation has them: inserts lacking the key field get a
  /// fresh uuid value injected before storage.
  bool autogenerated_key = false;
  std::vector<IndexDef> secondary_indexes;
  /// Primary-index disk layout, chosen at create time via the DDL's
  /// `with {"storage-format": "column"}` clause. Secondary indexes always
  /// stay row-major (their entries are keys, not wide records).
  StorageFormat storage_format = StorageFormat::kRow;
  /// LZ-compress primary disk components (`with {"compression": "lz"}`).
  bool compress = false;
  /// Merge-policy name (`with {"merge-policy": "tiered"}`), applied to the
  /// primary and every secondary index of the dataset. Empty = the
  /// instance-wide default from LsmOptions.
  std::string merge_policy;
};

/// Resolves a dotted field path inside a record value; MISSING when absent.
const adm::Value& ExtractFieldPath(const adm::Value& record,
                                   const std::string& path);

/// Process-unique uuid value for auto-generated keys.
adm::Value GenerateUuidKey();

/// One storage partition of one dataset: the primary LSM B+-tree (keyed on
/// primary key, payload = schema-serialized record) plus node-local
/// secondary indexes whose entries reference rows by primary key. All
/// mutations are record-level ACID transactions: X-lock on the primary key,
/// WAL logical log record, apply to every index, commit.
class DatasetPartition {
 public:
  DatasetPartition(BufferCache* cache, std::string dir, const DatasetDef& def,
                   uint32_t partition_no, txn::TxnManager* txns,
                   LsmOptions options);

  /// Opens/recovers all index components (validity-bit rule) and replays
  /// committed WAL tail operations newer than each index's flushed LSN.
  Status Open();

  // -- Mutators ---------------------------------------------------------------
  /// One-record ACID insert. Fails with AlreadyExists on duplicate key.
  Status Insert(const adm::Value& record);
  /// One-record ACID delete by primary key; `found` reports liveness.
  Status DeleteByKey(const CompositeKey& pk, bool* found);
  /// Non-transactional bulk load used by `load dataset` and feeds in batch
  /// mode: validates, applies to all indexes with a single WAL entry per
  /// record batch boundary, no per-record locking.
  Status LoadBulk(const std::vector<adm::Value>& records);

  // -- Readers -----------------------------------------------------------------
  /// Whole-record fetch of one key: a one-key MultiGet.
  Status PointLookup(const CompositeKey& pk, bool* found, adm::Value* record);
  /// Batch primary fetch of `pks` (ascending; duplicates allowed) in one
  /// LSM pass, materializing only the projection's fields: `cb(i, record)`
  /// gets every live pks[i] in ascending `i`. With `txn` != 0 (the paper's
  /// secondary-index post-validation path) the batch's S record locks come
  /// first; they are held until the caller releases the transaction's
  /// locks, and the caller re-checks its predicate on the fetched records.
  Status MultiGet(txn::TxnId txn, const std::vector<CompositeKey>& pks,
                  const column::Projection& projection,
                  const std::function<Status(size_t, adm::Value)>& cb);
  /// Every live record, in primary-key order: ProjectedScan over all
  /// fields.
  Status ScanAll(const std::function<Status(const adm::Value&)>& cb);
  /// Primary scan materializing only the projection's fields; on columnar
  /// datasets this reads only the touched column pages (plus min/max page
  /// skipping in the steady state), on row datasets it deserializes whole
  /// records and projects. `stats` (optional) reports bytes read/skipped.
  /// `filter` (optional) drops records on their key fields after LSM
  /// resolution (LsmBTree::ProjectedScan).
  Status ProjectedScan(const ScanBounds& bounds,
                       const column::Projection& projection,
                       const std::function<Status(const adm::Value&)>& cb,
                       column::ProjectedScanStats* stats,
                       ScanKeyFilter* filter = nullptr);
  /// Vectorized primary scan: typed column batches with no row
  /// reconstruction. Unimplemented unless the dataset is columnar and in
  /// its single-component steady state — callers fall back to
  /// ProjectedScan and rebuild batches from rows.
  Status BatchScan(const ScanBounds& bounds,
                   const column::Projection& projection,
                   const column::BatchCallback& cb,
                   column::ProjectedScanStats* stats);
  /// Secondary B-tree scan: yields full composite entries (sk..., pk...).
  Status SecondaryRangeScan(const std::string& index_name,
                            const ScanBounds& bounds, const EntryCallback& cb);
  /// Entries of secondary B-tree `index_name` within `bounds`, counted up
  /// to `cap` without LSM resolution (LsmBTree::CountEntries).
  Status CountIndexEntries(const std::string& index_name,
                           const ScanBounds& bounds, uint64_t cap,
                           uint64_t* count);
  Status RTreeSearch(const std::string& index_name, const Mbr& query,
                     const std::function<Status(const CompositeKey& pk)>& cb);
  Status InvertedSearchToken(
      const std::string& index_name, const std::string& token,
      const std::function<Status(const CompositeKey& pk)>& cb);
  const LsmInvertedIndex* inverted_index(const std::string& index_name) const;

  // -- Maintenance --------------------------------------------------------------
  Status FlushAll();
  uint64_t PrimaryDiskBytes() const { return primary_->total_disk_bytes(); }
  uint64_t TotalDiskBytes() const;
  uint64_t ApproxRecordCount() const { return primary_->num_logical_entries(); }
  size_t PrimaryComponents() const { return primary_->num_disk_components(); }

  const DatasetDef& def() const { return def_; }
  uint32_t partition_no() const { return partition_no_; }
  /// Key the lock manager uses for a primary key in this partition.
  uint64_t LockResource(const CompositeKey& pk) const;

  /// Builds the primary key vector from a record (TypeError when a key
  /// field is absent).
  Result<CompositeKey> PrimaryKeyOf(const adm::Value& record) const;

 private:
  struct SecondaryBTree {
    IndexDef def;
    std::unique_ptr<LsmBTree> tree;
  };
  struct SecondaryRTree {
    IndexDef def;
    std::unique_ptr<LsmRTree> tree;
  };
  struct SecondaryInverted {
    IndexDef def;
    std::unique_ptr<LsmInvertedIndex> index;
  };

  Status ApplyInsert(const CompositeKey& pk, const adm::Value& record,
                     uint64_t lsn, bool to_primary);
  Status ApplyDelete(const CompositeKey& pk, const adm::Value& old_record,
                     uint64_t lsn, bool to_primary);
  Status ReplayWal();
  Result<std::vector<uint8_t>> SerializeRecord(const adm::Value& record) const;
  Result<adm::Value> DeserializeRecord(const std::vector<uint8_t>& bytes) const;

  BufferCache* cache_;
  std::string dir_;
  DatasetDef def_;
  uint32_t partition_no_;
  txn::TxnManager* txns_;
  LsmOptions options_;

  std::unique_ptr<LsmBTree> primary_;
  std::vector<SecondaryBTree> btrees_;
  std::vector<SecondaryRTree> rtrees_;
  std::vector<SecondaryInverted> inverted_;
};

/// A dataset hash-partitioned across `num_partitions` storage partitions on
/// its primary key (the paper's sharding rule). Secondary indexes are
/// node-local: probes fan out to every partition.
class PartitionedDataset {
 public:
  PartitionedDataset(BufferCache* cache, const std::string& base_dir,
                     DatasetDef def, uint32_t num_partitions,
                     txn::TxnManager* txns, LsmOptions options);

  Status Open();

  uint32_t PartitionOf(const CompositeKey& pk) const;
  DatasetPartition* partition(uint32_t i) { return partitions_[i].get(); }
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(partitions_.size());
  }
  const DatasetDef& def() const { return def_; }

  /// Routed single-record operations.
  Status Insert(const adm::Value& record);
  Status DeleteByKey(const CompositeKey& pk, bool* found);
  Status PointLookup(const CompositeKey& pk, bool* found, adm::Value* record);
  Status LoadBulk(const std::vector<adm::Value>& records);
  Status FlushAll();

  uint64_t TotalPrimaryDiskBytes() const;
  uint64_t ApproxRecordCount() const;

 private:
  BufferCache* cache_;
  DatasetDef def_;
  std::vector<std::unique_ptr<DatasetPartition>> partitions_;
  /// Process-wide mutation counter for "dataverse.name", bumped after every
  /// committed write so result-cache entries that read this dataset can be
  /// revalidated lock-free. Bump-after-commit + record-before-read is what
  /// makes a stale cache hit impossible (see server/result_cache.h).
  vclock::VersionClock::Cell* version_cell_;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_DATASET_STORE_H_
