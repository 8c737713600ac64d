#ifndef ASTERIX_HYRACKS_JOB_H_
#define ASTERIX_HYRACKS_JOB_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hyracks/channel.h"

namespace asterix {
namespace hyracks {

class MemoryBudget;

/// Routed output of an operator instance; the executor wires it to the
/// operator's outgoing connector.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Push(Tuple tuple) = 0;
  /// Pushes a typed columnar batch downstream (the vectorized path). The
  /// default materializes the selected rows into single-column record
  /// tuples; batch-aware emitters forward the batch itself over 1:1 routes.
  virtual void PushBatch(std::shared_ptr<storage::column::ColumnBatch> batch);
  /// Flushes buffered frames (executor also flushes at operator close).
  virtual void Flush() = 0;
  /// Storage bytes this operator instance read; scan operators report
  /// their physical I/O here so profiles can show bytes-read per scan.
  virtual void AddBytesRead(uint64_t) {}
  /// Memory quota for this operator instance — its share of the job's
  /// op_memory_budget_bytes — or null when running unbudgeted (tests and
  /// benches that drive operators directly). Budget-aware operators
  /// (join/group-by/distinct/sort) charge their build state against it and
  /// spill when it trips.
  virtual MemoryBudget* memory_budget() { return nullptr; }
  /// Spill accounting: bytes written to scratch runs and partitions evicted.
  virtual void AddSpill(uint64_t /*bytes*/, uint64_t /*partitions*/) {}
  /// Peak serialized hash-build footprint (arena + table, summed across
  /// recursion levels) — the EXPLAIN ANALYZE "hash_build_bytes" signal.
  virtual void AddHashBuildBytes(uint64_t) {}
  /// Vectorization accounting: batches processed, rows surviving the
  /// selection vector, and rows carried — feeds OperatorSpan's `batches` /
  /// `selected_ratio`.
  virtual void AddBatchStats(uint64_t /*batches*/, uint64_t /*rows_selected*/,
                             uint64_t /*rows_total*/) {}
  /// Microseconds spent inside vectorized kernels (filter/aggregate loops).
  virtual void AddKernelTime(uint64_t /*us*/) {}
  /// Records a hash join's filter dropped before they were emitted (the
  /// join's probe-side scan or vector-materialize).
  virtual void AddFilterDropped(uint64_t /*records*/) {}
  /// The first failure of a stage fused downstream of this operator (OK
  /// while none failed). Once set, pushes are dropped; a producing loop
  /// returns it to stop early instead of feeding a failed pipeline.
  virtual Status status() const { return Status::OK(); }
};

/// A per-partition runtime instance of an operator with inputs: whoever
/// drives it hands it frames by input port, then closes each port. Ports
/// are fed one at a time in port order, each to its end, so a blocking
/// port takes the lowest number (a join's build is port 0, its probe port
/// 1). Fused behind a 1:1 connector, a one-input operator's Consume() runs
/// on the producer's thread; behind channels, the executor's one
/// channel-draining loop drives it. Everything it produces goes to the
/// emitter it was constructed with.
class PushOperator {
 public:
  PushOperator() = default;
  PushOperator(const PushOperator&) = delete;
  PushOperator& operator=(const PushOperator&) = delete;
  virtual ~PushOperator() = default;
  /// Consumes one frame of input `port`. A frame may carry a columnar
  /// batch instead of tuples (see Frame); row operators materialize its
  /// rows.
  virtual Status Consume(int port, Frame& frame) = 0;
  /// End of input `port`: an operator produces what the port's end
  /// completes (a blocking operator's output follows its last port).
  virtual Status Close(int port) = 0;
};

/// Builds partition `partition`'s instance around its routed output.
using PushFactory =
    std::function<std::unique_ptr<PushOperator>(int partition, Emitter* out)>;

/// A source: produces partition `partition`'s output with no input. It
/// should stop early once `out->status()` fails.
using SourceFn = std::function<Status(int partition, Emitter* out)>;

/// Declarative operator description in a Hyracks job DAG. `blocking_ports`
/// exposes the operator's activity structure to the scheduler: those ports
/// must be fully consumed before the operator can produce output (e.g. the
/// Join Build activity of a HybridHash join, or a sort's run-generation
/// activity) — the paper's Operator -> Activities expansion.
struct OperatorDescriptor {
  int id = 0;
  std::string name;
  int parallelism = 1;
  int num_inputs = 0;
  std::vector<int> blocking_ports;
  /// Operators without inputs: the source each instance runs.
  SourceFn source;
  /// True for operators that build unbounded in-memory state (hash join,
  /// hash group-by, distinct, sort); the executor divides the job's memory
  /// budget across the instances of exactly these operators.
  bool memory_intensive = false;
  /// Operators with inputs: the push-form instance. The executor fuses a
  /// one-input operator into its producer's pipeline across a 1:1
  /// connector, and drives it from channels everywhere else.
  PushFactory push;
};

/// The six connector types the paper lists for Hyracks.
enum class ConnectorType {
  kOneToOne,
  kMToNPartitioning,
  kMToNReplicating,
  kMToNPartitioningMerging,
  kLocalityAwareMToNPartitioning,
  kHashPartitioningShuffle,
};

const char* ConnectorTypeName(ConnectorType t);

struct ConnectorDescriptor {
  int id = 0;
  ConnectorType type = ConnectorType::kOneToOne;
  int src_op = -1;
  int dst_op = -1;
  int dst_port = 0;
  /// Hash of the partitioning key (partitioning connectors).
  std::function<uint64_t(const Tuple&)> partition_hash;
  /// Sorted-merge order at the destination (merging connector).
  TupleCompare merge_compare;
  /// Custom source->destination mapping (locality-aware connector).
  std::function<int(int src_partition, int num_dst)> locality_map;
};

/// A Hyracks job: a DAG of operators and connectors, compiled from an AQL
/// statement by Algebricks, executed by the cluster executor.
struct JobSpec {
  std::vector<OperatorDescriptor> operators;
  std::vector<ConnectorDescriptor> connectors;

  /// The originating query's id (0 = no query context, e.g. internal jobs).
  /// The executor re-publishes it as the current query id on every worker
  /// thread running this job's operator instances, so storage/txn/channel
  /// journal events land tagged with the right query.
  uint64_t query_id = 0;

  /// Adds an operator, assigning its id.
  int AddOperator(OperatorDescriptor op);
  /// Connects src's output to dst's input port.
  int Connect(ConnectorType type, int src_op, int dst_op, int dst_port = 0,
              std::function<uint64_t(const Tuple&)> hash = nullptr,
              TupleCompare merge = nullptr);

  const OperatorDescriptor* FindOperator(int id) const;

  /// Figure-6-style rendering: one line per operator (bottom-up data flow
  /// is top-down in the listing), connectors shown as "1:1" / "n:1 ..."
  /// edges.
  std::string ToString() const;
};

/// How plan listings label an input edge of a join-like operator (more
/// than one input, some blocking): "build" into a blocking port, "probe"
/// into the others; "" for every other operator.
const char* PortRole(const OperatorDescriptor& op, int port);

/// One activity of an operator after expansion (the paper: "Operators are
/// expanded into their constituent Activities").
struct Activity {
  int op_id;
  std::string name;      // e.g. "join-build", "join-probe", "sort", "output"
  bool produces_output;  // probe/output activities feed downstream
};

/// Stages: groups of activities that can run concurrently, in dependency
/// order. Blocking ports force the consuming activity into a later stage
/// than its producers.
struct StagePlan {
  std::vector<std::vector<Activity>> stages;
  std::string ToString() const;
};

/// Expands operators to activities and layers them into stages following
/// blocking constraints.
StagePlan ComputeStages(const JobSpec& job);

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_JOB_H_
