#ifndef ASTERIX_HYRACKS_OPERATORS_H_
#define ASTERIX_HYRACKS_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hyracks/job.h"
#include "hyracks/join_filter.h"
#include "hyracks/vector/kernels.h"
#include "storage/dataset_store.h"

namespace asterix {
namespace hyracks {

/// Aggregate call compiled into a group-by/aggregate operator.
struct AggSpec {
  std::string function;  // count/min/max/sum/avg, sql-*, or listify
  TupleEval input;       // evaluated per input tuple (ignored for count)
};

/// Local/global split of an aggregation (Figure 6's design point).
enum class AggMode {
  kComplete,  // one-shot aggregation
  kLocal,     // emit partial state records
  kGlobal,    // combine partial state records into finals
};

/// A hash join's filter as its probe-side scan takes it: the JoinFilter
/// and, in the join's probe-key order, the record field holding each key.
/// Empty (no filter) by default.
struct ScanJoinFilter {
  std::shared_ptr<const JoinFilter> filter;
  std::vector<std::string> fields;

  /// "" without a filter; else "join-filter=[author-id]".
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Factory helpers. Each returns a fully-populated OperatorDescriptor; the
// caller adds it to a JobSpec and wires connectors.
// ---------------------------------------------------------------------------

/// Emits a fixed set of tuples from instance 0 (constant sources, DML
/// payloads, `1+1` queries).
OperatorDescriptor MakeValueScan(std::vector<Tuple> tuples);

/// Full scan of a partitioned dataset: instance p scans storage partition p,
/// emitting [record] tuples. parallelism = #partitions.
/// `projection` restricts which record fields are materialized: on columnar
/// datasets only the touched column pages are read (with min/max page
/// skipping for range predicates); on row datasets the whole record is read
/// and trimmed. Physical bytes read are reported to the emitter for
/// EXPLAIN ANALYZE. With a join filter the scan is a hash join's probe
/// input: each instance waits for the filter's seal before its first record
/// and drops the records it rules out (JoinFilterProbe), counting them on
/// its span.
OperatorDescriptor MakeDatasetScan(
    storage::PartitionedDataset* dataset,
    storage::column::Projection projection = storage::column::Projection::All(),
    ScanJoinFilter join_filter = {});

/// Primary-index range scan with constant bounds; emits [record]. The same
/// scan source as MakeDatasetScan, bounded; see there for projection and
/// join-filter semantics.
OperatorDescriptor MakePrimaryRangeScan(
    storage::PartitionedDataset* dataset, storage::ScanBounds bounds,
    storage::column::Projection projection = storage::column::Projection::All(),
    ScanJoinFilter join_filter = {});

/// Primary-index lookups driven by input tuples: `key_columns` name the
/// input columns holding the primary key; each match emits
/// input-tuple ++ [record], in input order. Each input frame is one batch:
/// its keys are sorted and de-duplicated per storage partition and fetched
/// with one MultiGet, so a columnar row group is decoded once per batch.
/// `projection` restricts the fetched fields as in MakeDatasetScan. With
/// `locked`, the batch's S record locks are taken first (the paper's
/// secondary-index post-validation protocol).
OperatorDescriptor MakePrimarySearch(
    storage::PartitionedDataset* dataset, txn::TxnManager* txns,
    std::vector<int> key_columns, bool locked,
    storage::column::Projection projection = storage::column::Projection::All());

/// Secondary B-tree index range scan with constant bounds; emits the
/// referenced primary keys as [pk...] tuples. Runs on every partition
/// (secondary indexes are node-local).
OperatorDescriptor MakeSecondarySearch(storage::PartitionedDataset* dataset,
                                       std::string index_name,
                                       storage::ScanBounds bounds,
                                       size_t pk_arity);

/// Secondary B-tree lookups driven by input tuples: per input tuple,
/// `key_eval` yields the secondary key value; every matching index entry
/// emits input ++ [pk...]. This is the index side of an index nested-loop
/// join.
OperatorDescriptor MakeSecondaryProbe(storage::PartitionedDataset* dataset,
                                      std::string index_name,
                                      TupleEval key_eval, size_t pk_arity);

/// R-tree search with a constant query rectangle; emits [pk...].
OperatorDescriptor MakeRTreeSearch(storage::PartitionedDataset* dataset,
                                   std::string index_name, storage::Mbr query,
                                   size_t pk_arity);

/// Inverted-index occurrence search: candidates matching at least
/// `min_matches` of `tokens`; emits [pk...].
OperatorDescriptor MakeInvertedSearch(storage::PartitionedDataset* dataset,
                                      std::string index_name,
                                      std::vector<std::string> tokens,
                                      size_t min_matches, size_t pk_arity);

/// Filters tuples by a boolean predicate (three-valued: only TRUE passes).
OperatorDescriptor MakeSelect(int parallelism, TupleEval predicate);

/// Appends computed columns; with `project`, reorders/subsets first.
OperatorDescriptor MakeAssign(int parallelism, std::vector<TupleEval> exprs);

/// Keeps only the named columns, in order.
OperatorDescriptor MakeProject(int parallelism, std::vector<int> columns);

/// Blocking external merge sort: buffers tuples until `spill_budget_tuples`
/// or the instance's byte MemoryBudget trips, spilling sorted runs to disk
/// and heap-merging them k ways (the production behaviour a memory-bounded
/// sort needs). `limit` enables top-k truncation of the output.
OperatorDescriptor MakeSort(int parallelism, TupleCompare compare,
                            std::optional<size_t> limit = std::nullopt,
                            size_t spill_budget_tuples = 1u << 18);

/// Hybrid/Grace hash join: port 0 = build, port 1 = probe. Emits
/// build-tuple ++ probe-tuple. `left_outer` emits nulls ++ probe for probe
/// tuples without a match (port semantics: outer side is the PROBE side).
/// Build tuples go into per-hash-partition open-addressing tables keyed by
/// serialized normalized key bytes; when the instance's MemoryBudget trips,
/// whole partitions spill to scratch runs and are joined recursively. With
/// `filter` (inner joins only, `parallelism` builders), every instance
/// hands the hashes of its known build keys, spilled or not, to the filter
/// when its build port closes, and releases it as pass-all if it ends
/// without closing that port.
OperatorDescriptor MakeHybridHashJoin(int parallelism,
                                      std::vector<TupleEval> build_keys,
                                      std::vector<TupleEval> probe_keys,
                                      size_t build_arity, bool left_outer,
                                      std::shared_ptr<JoinFilter> filter = {});

/// Nested-loop join: port 0 buffered, port 1 streamed, predicate over the
/// concatenated tuple (build columns first). Budgeted: build tuples past
/// the instance's MemoryBudget spill to a run and are joined block-at-a-time
/// against a re-scanned probe run (block nested-loop), with left-outer
/// emission deferred behind per-probe matched flags.
OperatorDescriptor MakeNestedLoopJoin(int parallelism, TupleEval predicate,
                                      size_t build_arity, bool left_outer);

/// Hash group-by; emits [keys..., one column per aggregate]. mode=kLocal
/// emits partial-state columns; kGlobal consumes them; kComplete does both
/// at once. A listify aggregate collects a bag per group (the `group by ...
/// with $v` semantics whose materialization cost the paper's pilots
/// exposed). Budgeted: when the instance's MemoryBudget trips, hash
/// partitions of group state spill to disk as partial-aggregate tuples and
/// are merged back (Aggregator::Combine) on a recursive pass; a collected
/// bag is charged per value and concatenated back.
OperatorDescriptor MakeHashGroupBy(int parallelism, std::vector<TupleEval> keys,
                                   std::vector<AggSpec> aggs, AggMode mode);

/// Ungrouped aggregation (the Figure 6 local-avg/global-avg pair).
OperatorDescriptor MakeAggregate(int parallelism, std::vector<AggSpec> aggs,
                                 AggMode mode);

/// Hash-based duplicate elimination: on `keys` when given, else on whole
/// tuples. Set semantics over serialized normalized key bytes (no per-key
/// Value vectors); emits the first occurrence of each key as it streams by,
/// spilling hash partitions under memory pressure.
OperatorDescriptor MakeDistinct(int parallelism,
                                std::vector<TupleEval> keys = {});

/// Offset/limit; run with parallelism 1 after a merging connector.
OperatorDescriptor MakeLimit(size_t limit, size_t offset = 0);

/// Expands a collection-valued expression: for each element e of
/// `collection_eval(t)`, emits t ++ [e]. Unknown/empty collections emit
/// nothing unless `outer`, which then emits t ++ [missing].
OperatorDescriptor MakeUnnest(int parallelism, TupleEval collection_eval,
                              bool outer, bool with_position = false);

/// Transactional insert sink: instance p inserts records routed to storage
/// partition p (connector must hash on primary key). Emits one [count]
/// tuple per instance.
OperatorDescriptor MakeInsert(storage::PartitionedDataset* dataset,
                              int record_column);

/// Transactional delete sink keyed by primary key columns.
OperatorDescriptor MakeDelete(storage::PartitionedDataset* dataset,
                              std::vector<int> key_columns);

/// Collects all tuples into `sink` (parallelism 1; the query result).
OperatorDescriptor MakeResultSink(std::shared_ptr<std::vector<Tuple>> sink);

// ---------------------------------------------------------------------------
// Vectorized operators (typed columnar batches + selection vectors). The
// lowering pass in algebricks emits these for filter/aggregate pipelines
// over columnar datasets; everything else keeps the row-at-a-time operators.
// ---------------------------------------------------------------------------

/// One lowered ungrouped aggregate: the function (count/min/max/sum/avg or
/// sql-*) plus the top-level record field it reads. Empty `field` counts
/// whole rows (count over the record variable).
struct VectorAggSpec {
  std::string function;
  std::string field;
};

/// Columnar batch scan: instance p scans storage partition p, emitting typed
/// ColumnBatch frames (no row reconstruction when the partition is in
/// columnar steady state; otherwise assembled rows are re-batched through
/// BatchBuilder — same data, same order). `projection` must name explicit
/// fields (the lanes). With a join filter, each instance waits for its seal
/// before scanning; the pipeline's vector-materialize tests the rows.
OperatorDescriptor MakeVectorScan(storage::PartitionedDataset* dataset,
                                  storage::column::Projection projection,
                                  storage::ScanBounds bounds = {},
                                  ScanJoinFilter join_filter = {});

/// Vectorized filter: refines each batch's selection vector in place with
/// the lowered predicate kernel and forwards the surviving batch. Like the
/// other vectorized operators it takes batches only, fed across 1:1
/// connectors from a vector scan; a frame without a batch fails the job
/// with Status::Internal.
OperatorDescriptor MakeVectorSelect(int parallelism,
                                    std::shared_ptr<vector::PredNode> pred);

/// Vectorized ungrouped aggregation over batches. mode=kLocal emits the
/// partial-state tuple the existing global Aggregator combines; kComplete
/// emits finals directly (semantics are interpreter-exact either way).
OperatorDescriptor MakeVectorAggregate(int parallelism,
                                       std::vector<VectorAggSpec> aggs,
                                       AggMode mode);

/// Ends a vectorized pipeline: materializes each batch's selected rows into
/// [record] tuples for row-oriented consumers (late materialization — only
/// rows still selected here are ever rebuilt). With a join filter, a row
/// whose key lanes the filter rules out is dropped before it is rebuilt.
OperatorDescriptor MakeVectorMaterialize(int parallelism,
                                         ScanJoinFilter join_filter = {});

/// Hash function over selected columns, for partitioning connectors.
std::function<uint64_t(const Tuple&)> HashOnColumns(std::vector<int> columns);

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_OPERATORS_H_
