#ifndef ASTERIX_HYRACKS_CLUSTER_H_
#define ASTERIX_HYRACKS_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hyracks/executor_pool.h"
#include "hyracks/job.h"
#include "hyracks/profile.h"
#include "server/admission.h"

namespace asterix {
namespace hyracks {

/// Default per-job operator memory budget: the ASTERIX_OP_MEMORY_BUDGET
/// environment variable when set (bytes), else 0 (unbounded). The env knob
/// lets CI run the whole suite under an artificially tiny budget to stress
/// every spill path without per-test configuration.
size_t DefaultOpMemoryBudgetBytes();

/// Default slow-query threshold: ASTERIX_SLOW_QUERY_US when set
/// (microseconds), else 0 (slow-query logging disabled).
int64_t DefaultSlowQueryUs();

/// Shape of the simulated shared-nothing cluster: the paper's testbed is 10
/// nodes x 3 data disks = 30 partitions; defaults here scale that down.
struct ClusterConfig {
  int num_nodes = 2;
  int partitions_per_node = 2;
  /// Fixed per-job scheduling overhead in microseconds, modeling Hyracks
  /// job generation + task distribution + start-up (the cost Table 4 shows
  /// dominating single-record inserts). The simulated executor also pays a
  /// real cost for thread spawning; this constant stands in for the RPC and
  /// class-loading work a real cluster adds.
  int job_startup_us = 1200;
  /// When non-empty, the executor writes one Chrome trace_event JSON file
  /// per job (job_<id>.trace.json) into this directory — the optional trace
  /// sink for chrome://tracing / Perfetto inspection.
  std::string trace_dir;
  /// Frames a connector channel may queue before producers block
  /// (backpressure). 0 = unbounded. The bound is per channel for FIFO
  /// channels and per producer for merging channels. Generous by default —
  /// a channel holds at most capacity x kDefaultFrameTuples tuples — but
  /// finite, so a fast producer can no longer grow memory without limit.
  size_t channel_capacity_frames = 64;
  /// Per-job memory budget for operator build state, divided evenly across
  /// the job's memory-intensive operator instances (hash join, hash
  /// group-by, distinct, sort). An instance that exceeds its share spills
  /// hash partitions / sort runs to scratch files instead of growing. 0 =
  /// unbounded (no spilling unless an operator's own caps trip).
  size_t op_memory_budget_bytes = DefaultOpMemoryBudgetBytes();
  /// Queries whose end-to-end wall time exceeds this threshold (in
  /// microseconds) get their full annotated profile appended as a JSON line
  /// to the instance's slow-query log. 0 = disabled.
  int64_t slow_query_us = DefaultSlowQueryUs();
  /// Cluster-wide memory pool gating job admission. When > 0, each job with
  /// memory-intensive operators must be granted its operator budget out of
  /// this pool before it runs (FIFO queue, kOverloaded on overflow or
  /// timeout), and the *grant* — not op_memory_budget_bytes directly — is
  /// what gets divided across the job's instances. 0 = no admission gate;
  /// every job budgets independently as before. The queue bound and wait
  /// timeout are AdmissionOptions' defaults.
  size_t cluster_memory_pool_bytes = 0;
};

/// Post-execution statistics used by benches and tests.
struct JobStats {
  double elapsed_ms = 0;
  /// Tuples that crossed a connector (any distance).
  uint64_t connector_tuples = 0;
  /// Tuples whose connector hop crossed node boundaries — the "network
  /// traffic" the local/global aggregation split minimizes (Figure 6).
  uint64_t network_tuples = 0;
  /// Always-on execution profile: per-operator-instance spans, per-connector
  /// hop counts, and query-phase spans (the EXPLAIN ANALYZE backbone).
  /// Mutable so the api layer can fill in query-level phases (parse,
  /// optimize, result) it alone can measure, after the executor returns.
  std::shared_ptr<JobProfile> profile;
};

/// Point-in-time view of one job currently inside ExecuteJob (StatusJson).
struct ActiveJobSnapshot {
  uint64_t job_id = 0;
  uint64_t query_id = 0;
  double elapsed_ms = 0;  // since ExecuteJob entry
  int instances = 0;      // operator instances scheduled
  /// Live bytes charged against the job's operator memory budgets, summed
  /// across its instances.
  uint64_t budget_used_bytes = 0;
};

/// The Cluster Controller plus its Node Controllers: accepts Hyracks jobs,
/// expands and schedules them, runs every operator instance on a worker
/// thread of the node that owns its partition, and wires connectors as
/// in-memory channels (counting cross-node hops).
class Cluster {
 public:
  explicit Cluster(ClusterConfig config)
      : config_(config),
        // Two threads per partition at boot; the pool grows on demand past
        // that and never shrinks.
        pool_(static_cast<size_t>(config.num_nodes *
                                  config.partitions_per_node * 2)),
        admission_(
            server::AdmissionOptions{config.cluster_memory_pool_bytes}) {}

  int num_partitions() const {
    return config_.num_nodes * config_.partitions_per_node;
  }
  int num_nodes() const { return config_.num_nodes; }
  int NodeOfPartition(int partition) const {
    return partition / config_.partitions_per_node;
  }
  const ClusterConfig& config() const { return config_; }

  /// Runs the job to completion. Any operator failure cancels the job and
  /// surfaces the first failure status.
  Result<JobStats> ExecuteJob(const JobSpec& job);

  /// Total jobs executed (diagnostics).
  uint64_t jobs_executed() const { return jobs_executed_.load(); }

  /// The persistent executor pool (thread-reuse diagnostics for tests).
  const ExecutorPool& pool() const { return pool_; }

  /// Jobs currently executing, with live memory-budget usage (StatusJson).
  std::vector<ActiveJobSnapshot> ActiveJobs() const;

  /// The cluster-wide memory-pool gate ExecuteJob acquires from (pool
  /// occupancy and queue depth for StatusJson; disabled when
  /// cluster_memory_pool_bytes == 0).
  server::AdmissionController& admission() { return admission_; }
  const server::AdmissionController& admission() const { return admission_; }

 private:
  struct ActiveJob {
    uint64_t query_id = 0;
    std::chrono::steady_clock::time_point start;
    int instances = 0;
    std::shared_ptr<std::atomic<uint64_t>> budget_used;
  };

  ClusterConfig config_;
  std::atomic<uint64_t> jobs_executed_{0};
  ExecutorPool pool_;
  server::AdmissionController admission_;
  mutable std::mutex active_mu_;
  std::map<uint64_t, ActiveJob> active_jobs_;  // keyed by job id
};

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_CLUSTER_H_
