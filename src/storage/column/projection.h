#ifndef ASTERIX_STORAGE_COLUMN_PROJECTION_H_
#define ASTERIX_STORAGE_COLUMN_PROJECTION_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adm/value.h"
#include "storage/key.h"

namespace asterix {
namespace storage {
namespace column {

/// A sargable single-field range predicate ($t.f op const) pushed into a
/// scan. Used only for per-page min/max skipping — the Select above the scan
/// still evaluates the exact predicate, so ranges are hints, never filters.
struct FieldRange {
  std::string field;
  std::optional<adm::Value> lo;
  bool lo_inclusive = true;
  std::optional<adm::Value> hi;
  bool hi_inclusive = true;
};

/// A closed key interval [lo, hi] some other LSM component covers. Used to
/// keep min/max pruning sound on multi-component scans: a row group may be
/// skipped only when its key span is disjoint from every other component's
/// interval — otherwise dropping the group could let a stale older version
/// of one of its rows win the newest-wins merge.
struct KeyInterval {
  CompositeKey lo, hi;
};

/// The required-field set of a datasource scan, computed by the optimizer's
/// projection-pushdown rule. `all_fields` (the default) requests whole
/// records; otherwise only the named top-level fields are materialized.
struct Projection {
  bool all_fields = true;
  std::vector<std::string> fields;
  std::vector<FieldRange> ranges;

  static Projection All() { return Projection{}; }
  static Projection Of(std::vector<std::string> names) {
    Projection p;
    p.all_fields = false;
    p.fields = std::move(names);
    return p;
  }

  bool Wants(std::string_view name) const;
  /// "" when whole-record; else "project=[id,name] range=[time>=c]".
  std::string ToString() const;
};

/// Per-scan accounting, surfaced through EXPLAIN ANALYZE (bytes_read on the
/// scan operator's span) and the storage.column.* counters.
struct ProjectedScanStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_skipped = 0;  // bytes avoided vs materializing everything
  uint64_t pages_read = 0;
  uint64_t pages_pruned = 0;  // page groups skipped via min/max stats
};

/// Row from a projected scan: the antimatter flag rides along so the LSM
/// layer above can resolve across components.
using ProjectedEntryCallback = std::function<Status(
    const CompositeKey& key, bool antimatter, const adm::Value& record)>;

/// True when values spanning [min, max] may satisfy the range — i.e. the
/// page cannot be skipped. min/max compare via the ADM total order, so the
/// caller must first establish the range constants and the column share a
/// comparison class (SameCompareClass) for the answer to be meaningful.
bool RangeMayMatch(const FieldRange& r, const adm::Value& min,
                   const adm::Value& max);

/// True when the ADM total order between values of these two tags coincides
/// with AQL comparison semantics (both numeric, both string, or the same
/// temporal point type). Min/max pruning is only sound within one class.
bool SameCompareClass(adm::TypeTag a, adm::TypeTag b);

}  // namespace column
}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_COLUMN_PROJECTION_H_
