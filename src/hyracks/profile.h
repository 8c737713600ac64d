#ifndef ASTERIX_HYRACKS_PROFILE_H_
#define ASTERIX_HYRACKS_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace asterix {
namespace hyracks {

struct JobSpec;

/// What one operator instance (one partition of one operator) did during a
/// job: its wall-clock span relative to job submission and its tuple/frame
/// traffic. Filled in by the executor; the worker thread running the
/// instance's pipeline owns its span exclusively until the job joins.
struct OperatorSpan {
  int op_id = 0;
  std::string op_name;
  int instance = 0;  // partition index of this instance
  int node = 0;      // node the instance ran on
  /// The head operator of the pipeline that ran this instance (op_id when
  /// the instance heads its own). One task runs each (pipeline, instance).
  int pipeline = -1;
  double start_ms = 0;  // relative to job submission (its pipeline's start)
  double end_ms = 0;    // when the instance ended its output
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t frames_flushed = 0;
  /// Storage bytes physically read by this instance (scan operators; zero
  /// for compute-only operators). On columnar scans this excludes pages
  /// skipped by projection/min-max pruning.
  uint64_t bytes_read = 0;
  /// Wall time blocked pulling input frames (waiting on upstream). Only a
  /// pipeline head reads a channel; fused instances never wait for input.
  uint64_t input_wait_us = 0;
  /// Wall time blocked pushing output frames into full channels — the
  /// backpressure this instance absorbed from downstream.
  uint64_t output_wait_us = 0;
  /// Serialized bytes this instance wrote to spill scratch runs when its
  /// memory budget tripped (join/group-by/distinct partitions, sort runs).
  uint64_t spill_bytes = 0;
  /// Hash partitions evicted to disk (0 = everything stayed in memory).
  uint64_t spilled_partitions = 0;
  /// Serialized hash-build footprint (key arena + table + tuple estimate),
  /// summed across recursion levels of a budgeted hash operator.
  uint64_t hash_build_bytes = 0;
  /// Typed columnar batches this instance processed (0 = vectorization did
  /// not engage here).
  uint64_t batches = 0;
  /// Rows surviving / carried across those batches' selection vectors —
  /// their ratio is the EXPLAIN ANALYZE `selected_ratio`.
  uint64_t vec_rows_selected = 0;
  uint64_t vec_rows_total = 0;
  /// Microseconds inside vectorized kernels (filter/aggregate tight loops).
  uint64_t kernel_us = 0;
  /// Records a hash join's filter dropped here (a probe-side scan or its
  /// vector-materialize): with tuples_out, the rows the scan produced.
  uint64_t filter_dropped = 0;
  /// Thread CPU time (CLOCK_THREAD_CPUTIME_ID) charged to this instance —
  /// actual compute, as opposed to the wall-clock span, which also contains
  /// waits. A pipeline's task charges every microsecond of its thread's CPU
  /// to the instance running at the time, so the spans of a job sum to its
  /// tasks' CPU.
  uint64_t cpu_us = 0;
  bool ok = true;

  double elapsed_ms() const { return end_ms - start_ms; }
  double selected_ratio() const {
    return vec_rows_total == 0
               ? 0
               : static_cast<double>(vec_rows_selected) /
                     static_cast<double>(vec_rows_total);
  }
};

/// Per-connector hop counts: every tuple that crossed the connector, and
/// the subset whose hop crossed node boundaries.
struct ConnectorHops {
  int conn_id = 0;
  std::string type;
  int src_op = -1;
  int dst_op = -1;
  uint64_t tuples = 0;
  uint64_t network_tuples = 0;
};

/// Per-operator rollup across instances (what EXPLAIN ANALYZE prints).
struct OperatorRollup {
  int op_id = 0;
  std::string name;
  int instances = 0;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t frames_flushed = 0;
  uint64_t bytes_read = 0;
  uint64_t input_wait_us = 0;
  uint64_t output_wait_us = 0;
  uint64_t spill_bytes = 0;
  uint64_t spilled_partitions = 0;
  uint64_t hash_build_bytes = 0;
  uint64_t batches = 0;
  uint64_t vec_rows_selected = 0;
  uint64_t vec_rows_total = 0;
  uint64_t kernel_us = 0;
  uint64_t filter_dropped = 0;
  uint64_t cpu_us = 0;
  double elapsed_ms = 0;  // max instance span (critical-path view)

  double selected_ratio() const {
    return vec_rows_total == 0
               ? 0
               : static_cast<double>(vec_rows_selected) /
                     static_cast<double>(vec_rows_total);
  }
};

/// Where a query's wall-clock time went, one microsecond span per lifecycle
/// phase. The executor fills admission (ExecuteJob entry — including the
/// modeled startup cost and task wiring — until workers begin) and execute
/// (worker wall time); the api layer fills parse, optimize, and result
/// (sink draining) around the job.
struct PhaseSpans {
  uint64_t parse_us = 0;
  uint64_t optimize_us = 0;
  uint64_t admission_us = 0;
  uint64_t execute_us = 0;
  uint64_t result_us = 0;

  bool any() const {
    return parse_us | optimize_us | admission_us | execute_us | result_us;
  }
};

/// The execution profile of one Hyracks job: one span per operator instance
/// per partition plus per-connector hop counts and per-phase query spans.
/// Attached to JobStats by the executor; rendered as JSON, as a Chrome
/// trace, or as an annotated plan.
struct JobProfile {
  uint64_t job_id = 0;
  uint64_t query_id = 0;  // originating query (0 = none)
  double elapsed_ms = 0;
  double startup_ms = 0;  // modeled job generation/distribution overhead
  int num_nodes = 0;
  PhaseSpans phases;
  std::vector<OperatorSpan> spans;
  std::vector<ConnectorHops> connectors;

  /// Aggregates spans by operator, preserving first-seen (spec) order.
  std::vector<OperatorRollup> Rollup() const;

  /// Total output tuples of an operator across its instances.
  uint64_t TuplesOut(int op_id) const;
  uint64_t TuplesIn(int op_id) const;

  /// Plain JSON rendering (bench output, MetricsJson companions).
  std::string ToJson() const;

  /// Chrome trace_event JSON ("X" complete events, one per operator
  /// instance; pid = node, tid = instance). Loadable in chrome://tracing
  /// and Perfetto.
  std::string ToChromeTrace() const;
};

/// Figure-6-style job listing annotated with actuals from `profile`:
/// per-operator output tuples, max instance ms, instance count, and
/// per-connector hop/network counts on the edges.
std::string AnnotatePlan(const JobSpec& job, const JobProfile& profile);

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_PROFILE_H_
