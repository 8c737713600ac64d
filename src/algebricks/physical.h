#ifndef ASTERIX_ALGEBRICKS_PHYSICAL_H_
#define ASTERIX_ALGEBRICKS_PHYSICAL_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "algebricks/logical.h"
#include "algebricks/rules.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"

namespace asterix {
namespace algebricks {

/// Translates optimized logical plans into Hyracks jobs: assigns variables
/// to tuple columns, picks physical operators (hybrid hash join for
/// equijoins, index pipelines for annotated scans, local/global aggregate
/// splits), and introduces connectors/exchanges — the paper's "code
/// generation translates the resulting physical query plan into a
/// corresponding Hyracks Job".
class PhysicalCompiler {
 public:
  using DatasetResolver =
      std::function<storage::PartitionedDataset*(const std::string& qualified)>;

  PhysicalCompiler(hyracks::Cluster* cluster, txn::TxnManager* txns,
                   DatasetResolver resolver,
                   EvalContext::DatasetScanFn subplan_scan,
                   OptimizerOptions options)
      : cluster_(cluster),
        txns_(txns),
        resolver_(std::move(resolver)),
        subplan_scan_(std::move(subplan_scan)),
        options_(options) {}

  /// Compiles a plan ending in kDistribute. The job's result-sink collects
  /// one single-column tuple per result value into `sink`.
  Result<hyracks::JobSpec> Compile(
      const LogicalOpPtr& plan,
      std::shared_ptr<std::vector<hyracks::Tuple>> sink);

 private:
  /// A compiled subtree: the producing operator, its parallelism, and the
  /// variable -> column mapping of its output tuples.
  struct Stream {
    int op_id = -1;
    int parallelism = 1;
    std::map<std::string, int> schema;
    int width = 0;
    hyracks::TupleCompare sorted;  // set when per-partition sorted (merge key)
  };

  Result<Stream> CompileOp(const LogicalOpPtr& op, hyracks::JobSpec* job);
  Result<Stream> CompileScan(const LogicalOpPtr& op, hyracks::JobSpec* job);
  Result<Stream> CompileJoin(const LogicalOpPtr& op, hyracks::JobSpec* job);
  Result<Stream> CompileGroupBy(const LogicalOpPtr& op, hyracks::JobSpec* job);

  /// Estimated rows of a join input that is a select chain over a dataset
  /// scan: the dataset's live entries, lowered to the entries of a
  /// single-field B-tree index within each of the scan's pushed ranges.
  /// Each count stops at `cap`, and a count that reaches it estimates
  /// `cap` rows (at least that many). nullopt for any other input.
  std::optional<uint64_t> EstimateRows(const LogicalOpPtr& op,
                                       uint64_t cap) const;
  /// The join filter planned for `scan` (a probe input's scan), or none.
  hyracks::ScanJoinFilter JoinFilterFor(const LogicalOp* scan) const;

  /// Vectorized lowering: if `op` is a chain of selects (possibly empty)
  /// over a columnar scan with pushed-down fields and every predicate has a
  /// kernel, emits vector-scan -> vector-select* and returns its stream
  /// (typed batches flowing). nullopt = not lowerable; the caller compiles
  /// the interpreted plan and nothing was added to the job.
  std::optional<Stream> TryCompileVectorSource(const LogicalOpPtr& op,
                                               hyracks::JobSpec* job);
  /// Scalar-aggregation shape: ungrouped aggregates whose arguments are
  /// plain field reads over a vectorizable source. Emits the full
  /// vector-scan -> vector-select* -> vector-local-aggregate pipeline plus
  /// the interpreted global combine.
  std::optional<Stream> TryCompileVectorAggregate(const LogicalOpPtr& op,
                                                  hyracks::JobSpec* job);

  /// Compiles an expression against a stream schema into a tuple evaluator
  /// (binds only the expression's free variables unless it contains a
  /// subplan, which gets the whole environment).
  hyracks::TupleEval CompileExpr(const ExprPtr& e, const Stream& s) const;

  static bool HasSubplanExpr(const ExprPtr& e);

  hyracks::Cluster* cluster_;
  txn::TxnManager* txns_;
  DatasetResolver resolver_;
  EvalContext::DatasetScanFn subplan_scan_;
  OptimizerOptions options_;
  /// Hash-join filters planned so far, by the probe input's logical scan.
  std::map<const LogicalOp*, hyracks::ScanJoinFilter> join_filters_;
};

}  // namespace algebricks
}  // namespace asterix

#endif  // ASTERIX_ALGEBRICKS_PHYSICAL_H_
