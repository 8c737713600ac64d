#ifndef ASTERIX_HYRACKS_TUPLE_H_
#define ASTERIX_HYRACKS_TUPLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "adm/value.h"
#include "common/status.h"
#include "storage/column/batch.h"

namespace asterix {
namespace hyracks {

/// A tuple flowing through the dataflow: a fixed-width vector of ADM values.
/// Column meanings are assigned by the compiler (variable -> column index).
using Tuple = std::vector<adm::Value>;

/// Evaluates one scalar over a tuple (compiled expression).
using TupleEval = std::function<Result<adm::Value>(const Tuple&)>;
/// Tuple comparator returning <0/0/>0 (sorts, merges).
using TupleCompare = std::function<int(const Tuple&, const Tuple&)>;

/// A batch of tuples; the unit connectors move between operator instances.
/// Batching amortizes queue synchronization the way byte frames amortize
/// network calls in the real system. A frame may instead carry one typed
/// columnar batch (the vectorized path): `batch` set, `tuples` empty. Batch
/// frames only traverse 1:1 connectors, fused or not — partitioning/merging
/// connectors need per-tuple routing, so producers materialize rows first.
struct Frame {
  std::vector<Tuple> tuples;
  std::shared_ptr<storage::column::ColumnBatch> batch;
};

constexpr size_t kDefaultFrameTuples = 256;

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_TUPLE_H_
