#ifndef ASTERIX_STORAGE_COLUMN_COLUMN_COMPONENT_H_
#define ASTERIX_STORAGE_COLUMN_COLUMN_COMPONENT_H_

#include <memory>
#include <string>
#include <vector>

#include "adm/serde.h"
#include "adm/type.h"
#include "adm/value.h"
#include "storage/bloom.h"
#include "storage/buffer_cache.h"
#include "storage/column/batch.h"
#include "storage/component.h"

namespace asterix {
namespace storage {
namespace column {

/// Rows per page group. Every column is paged on the same fixed row
/// boundaries, so one group index addresses the matching page of every
/// column — projections read a vertical slice, min/max pruning skips a
/// horizontal one.
constexpr uint32_t kRowsPerGroup = 256;

/// Trailing magic of a column component file ("ACF1").
constexpr uint32_t kColumnMagic = 0x31464341u;

/// One column of the inferred per-component schema. Following the columnar
/// LSM document-store design (Alkowaileet & Carey), the schema is inferred
/// from the records of each flushed/merged component: declared fields get
/// dedicated columns up front; open fields earn their own ("promoted")
/// column when every occurrence in the component shares one primitive type;
/// whatever remains rides in the catch-all variant column, which also
/// preserves the open fields' original order via references to promoted
/// columns.
struct ColumnDesc {
  enum class Kind : uint8_t {
    kTyped = 0,     // declared field of primitive type; untagged payloads
    kVariant = 1,   // declared field of record/list/any type; typed payloads
    kPromoted = 2,  // open field with one inferred primitive type
    kCatchAll = 3,  // residual open fields: (name, tagged value) in order
  };

  struct Page {
    uint64_t offset = 0;       // absolute file offset of the page blob
    uint32_t stored_size = 0;  // on-disk size (after optional compression)
    uint32_t row_start = 0;
    uint32_t row_count = 0;
    uint32_t present_count = 0;  // rows with a concrete (non-null) value
    bool has_stats = false;
    adm::Value min, max;  // over present values; only scalar columns
  };

  std::string name;  // field name; "" for the catch-all column
  Kind kind = Kind::kTyped;
  adm::TypeTag tag = adm::TypeTag::kAny;  // kTyped/kPromoted element tag
  std::vector<Page> pages;
};

/// Bulk loader for a column component, the columnar counterpart of
/// BTreeBuilder: rows must arrive in strictly ascending key order (they do —
/// flush iterates the memory component, merge emits in merge order).
/// Payloads are the schema-aware (SerializeTyped) record images the row
/// format stores; the builder decodes them once, infers the component
/// schema, and writes the column-major file atomically in Finish().
class ColumnComponentBuilder {
 public:
  ColumnComponentBuilder(std::string path, adm::DatatypePtr type,
                         bool compress);

  Status Add(const IndexEntry& entry);
  Status Finish();

  uint64_t num_entries() const { return rows_.size(); }

 private:
  struct Row {
    CompositeKey key;
    bool antimatter = false;
    adm::Value record;  // Missing for antimatter rows
  };

  Status InferSchema(std::vector<ColumnDesc>* cols) const;
  void AppendPage(const std::vector<uint8_t>& raw, ColumnDesc::Page* pg);

  std::string path_;
  adm::DatatypePtr type_;
  bool compress_ = false;
  std::vector<Row> rows_;
  std::vector<uint8_t> file_;
  bool finished_ = false;
};

/// Read side of a column component. The key section (one antimatter byte +
/// serialized key per row) is loaded at Open; column pages are fetched
/// lazily per scan through the BufferCache, so a projected scan's I/O is
/// proportional to the columns it touches, not the record width.
class ColumnComponentReader : public DiskComponentReader {
 public:
  static Result<std::shared_ptr<ColumnComponentReader>> Open(
      BufferCache* cache, const std::string& path, adm::DatatypePtr type);
  ~ColumnComponentReader() override;

  ColumnComponentReader(const ColumnComponentReader&) = delete;
  ColumnComponentReader& operator=(const ColumnComponentReader&) = delete;

  Status PointLookup(const CompositeKey& key, bool* found,
                     IndexEntry* out) override;
  Status RangeScan(const ScanBounds& bounds,
                   const EntryCallback& cb) const override;
  Status ProjectedScan(const ScanBounds& bounds, const Projection& proj,
                       bool allow_pruning, const ProjectedEntryCallback& cb,
                       ProjectedScanStats* stats) const override;
  /// Finds the keys in the key spine, then decodes each touched row group
  /// once, and only its projected columns (PointLookup is the one-key,
  /// whole-record call of this path).
  Status MultiGet(const std::vector<CompositeKey>& keys, const Projection& proj,
                  const MultiGetCallback& cb) const override;
  bool MayContain(const CompositeKey& key) const override {
    return bloom_.MayContain(HashKey(key));
  }

  /// ProjectedScan with min/max pruning that stays sound on multi-component
  /// scans: a row group is skipped only when its key span is additionally
  /// disjoint from every `exclusions` interval (the key ranges the other
  /// components cover), so no pruned row can resurrect a stale version.
  Status ProjectedScanPruned(const ScanBounds& bounds, const Projection& proj,
                             const std::vector<KeyInterval>& exclusions,
                             const ProjectedEntryCallback& cb,
                             ProjectedScanStats* stats) const;

  /// Vectorized scan: decodes the projected columns of each surviving row
  /// group straight into typed ColumnBatch lanes — no per-row record
  /// reconstruction. The selection vector excludes antimatter rows. Returns
  /// Unimplemented when the projection cannot be satisfied from dedicated
  /// columns alone (whole-record projections, or a field that may live in
  /// the catch-all column); callers fall back to the row path.
  /// `exclusions` as in ProjectedScanPruned (nullptr = prune freely).
  Status BatchScan(const ScanBounds& bounds, const Projection& proj,
                   const std::vector<KeyInterval>* exclusions,
                   const BatchCallback& cb, ProjectedScanStats* stats) const;

  /// The closed key interval this component covers; false when empty.
  bool KeyRange(CompositeKey* lo, CompositeKey* hi) const;

  uint64_t num_entries() const { return keys_.size(); }
  const std::vector<ColumnDesc>& schema() const { return cols_; }
  /// Total bytes of column-page data (the denominator of bytes_skipped).
  uint64_t data_bytes() const { return data_bytes_; }

 private:
  ColumnComponentReader() = default;

  /// One row's catch-all content: inline (name, value) pairs interleaved
  /// with references into promoted columns, preserving record order.
  struct CatchEntry {
    bool is_ref = false;
    uint32_t col = 0;     // promoted column index when is_ref
    std::string name;     // inline name
    adm::Value value;     // inline value
  };
  /// Decoded page of one column for one row group.
  struct DecodedColumn {
    std::vector<uint8_t> presence;           // 0 missing, 1 null, 2 present
    std::vector<adm::Value> values;          // aligned with rows; value cols
    std::vector<std::vector<CatchEntry>> catchall;  // catch-all col only
  };

  Status FetchPage(const ColumnDesc::Page& pg,
                   std::vector<uint8_t>* raw) const;
  Status ScanImpl(const ScanBounds& bounds, const Projection& proj,
                  bool allow_pruning,
                  const std::vector<KeyInterval>* exclusions,
                  const ProjectedEntryCallback& cb,
                  ProjectedScanStats* stats) const;
  /// Rows [r0, r1) of the key spine satisfying `bounds`.
  void BoundRows(const ScanBounds& bounds, size_t* r0, size_t* r1) const;
  /// Whether row group `g` (rows [lo, hi) in bounds) is provably dead for
  /// `proj.ranges` AND safe to skip given `exclusions`.
  bool GroupPrunable(size_t g, const Projection& proj, size_t lo, size_t hi,
                     const std::vector<KeyInterval>* exclusions) const;
  Status DecodeGroup(size_t col_idx, size_t group, DecodedColumn* out) const;
  /// Reads the listed columns for `group` into `cols_out` (indexed like
  /// cols_; untouched entries stay empty) and updates stats: the pages read
  /// and their bytes, and the group's other pages as bytes skipped.
  Status ReadGroup(size_t group, const std::vector<char>& needed,
                   std::vector<DecodedColumn>* cols_out,
                   ProjectedScanStats* stats) const;
  /// Which columns (indexed like cols_) `proj` must decode: a field without
  /// a dedicated column may live in the catch-all.
  std::vector<char> NeededColumns(const Projection& proj) const;
  /// Stored bytes of every column's page in `group`.
  uint64_t GroupBytes(size_t group) const;
  adm::Value AssembleRow(size_t row, size_t group, const Projection& proj,
                         const std::vector<char>& needed,
                         const std::vector<DecodedColumn>& dec) const;
  size_t NumGroups() const {
    return (keys_.size() + kRowsPerGroup - 1) / kRowsPerGroup;
  }
  uint64_t AvgKeyBytes() const {
    return keys_.empty() ? 0 : keys_bytes_ / keys_.size();
  }

  BufferCache* cache_ = nullptr;
  FileId file_ = 0;
  adm::DatatypePtr type_;
  std::vector<ColumnDesc> cols_;
  int catchall_idx_ = -1;
  std::vector<std::pair<CompositeKey, bool>> keys_;  // (key, antimatter)
  uint64_t keys_bytes_ = 0;
  uint64_t data_bytes_ = 0;
  BloomFilter bloom_ = BloomFilter::Build({});
  std::vector<adm::DatatypePtr> col_types_;  // decode type per column
};

}  // namespace column
}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_COLUMN_COLUMN_COMPONENT_H_
