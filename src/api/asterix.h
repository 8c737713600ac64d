#ifndef ASTERIX_API_ASTERIX_H_
#define ASTERIX_API_ASTERIX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "algebricks/physical.h"
#include "aql/parser.h"
#include "common/timeseries.h"
#include "feeds/feeds.h"
#include "hyracks/cluster.h"
#include "metadata/metadata.h"
#include "server/coalescer.h"
#include "server/rate_limiter.h"
#include "server/result_cache.h"
#include "server/watchdog.h"

namespace asterix {
namespace api {

/// Instance-wide configuration.
struct InstanceConfig {
  std::string base_dir;  // data directory (WAL, components, metadata)
  hyracks::ClusterConfig cluster;
  storage::LsmOptions lsm;
  algebricks::OptimizerOptions optimizer;
  /// Simulated WAL flush latency with group commit (0 = disabled).
  int64_t group_commit_latency_us = 0;
  /// Serving layer (src/server): capacity of the plan-keyed result cache
  /// consulted by Serve(). 0 disables caching (Serve still coalesces).
  uint64_t result_cache_bytes = 8ull << 20;
  /// Per-client steady-state request allowance for Serve() (requests/sec).
  /// 0 disables rate limiting.
  double rate_limit_qps = 0.0;
  /// Token-bucket burst capacity; 0 means max(rate_limit_qps, 1).
  double rate_limit_burst = 0.0;
  /// Continuous monitoring: a background sampler snapshots the metrics
  /// registry into a bounded ring every monitor_interval_ms and the health
  /// watchdog re-evaluates its derived conditions on each sample. Costs one
  /// registry walk per interval; nothing rides any query hot path.
  bool enable_monitoring = true;
  uint64_t monitor_interval_ms = 100;
  /// Ring capacity in samples (600 x 100ms = one minute of history).
  size_t monitor_ring_samples = 600;
  /// WatchdogOptions thresholds for the health conditions.
  server::WatchdogOptions watchdog;
  /// Background LSM maintenance: when true (the default), Boot() creates a
  /// shared compaction scheduler (CompactionScheduler::Options' defaults)
  /// and every index flushes/merges off the ingest path — writers rotate to
  /// a fresh memtable instead of paying the flush inline. Set false (or
  /// export ASTERIX_INGEST_SYNC=1) to restore fully synchronous
  /// maintenance, where flushes stall the writer — the A/B knob
  /// bench_ingest compares against.
  bool async_compaction = true;
};

/// Result of executing an AQL script: the last query statement's values
/// plus compilation artifacts for EXPLAIN-style introspection.
struct ExecutionResult {
  std::vector<adm::Value> values;
  std::string logical_plan;   // optimized Algebricks plan
  std::string job_plan;       // Hyracks job rendering (Figure 6 style)
  std::string stage_plan;     // activity/stage decomposition
  /// Job plan annotated with actuals (per-operator tuples in/out, elapsed
  /// ms, per-connector hop counts) — what EXPLAIN ANALYZE returns. Filled
  /// whenever a query ran on the compiled path.
  std::string profiled_plan;
  hyracks::JobStats stats;    // last executed job's stats
  bool used_compiled_path = false;  // false = reference interpreter fallback
  /// Serve() provenance: answered from the result cache without executing.
  bool from_cache = false;
  /// Serve() provenance: attached to another client's identical in-flight
  /// execution and shares its result.
  bool coalesced = false;
};

/// Per-request options for Serve()/ServeAsync().
struct ServeOptions {
  /// The requesting client: the rate limiter's token bucket, the resource
  /// ledger's row, and the session its `use`/`set` statements persist in.
  std::string client_id = "default";
};

/// Lifecycle phase an in-flight query is currently in (the StatusJson
/// `phase` field and the span names on hyracks::PhaseSpans).
enum class QueryPhase : int {
  kParse = 0,
  kOptimize = 1,
  kExecute = 2,
  kResult = 3,
};
const char* QueryPhaseName(QueryPhase phase);

/// Live entry in the instance's active-query table. The executing thread
/// stores `phase` as it moves through the lifecycle; StatusJson() reads it
/// concurrently (relaxed — a momentarily stale phase is fine). The other
/// fields are immutable after registration.
struct ActiveQueryRecord {
  uint64_t query_id = 0;
  std::chrono::steady_clock::time_point start;
  std::atomic<int> phase{0};  // QueryPhase
  std::string statement;      // leading fragment of the submitted script
};

/// The system facade: a single-process AsterixDB instance simulating a
/// shared-nothing cluster (Figure 1's Cluster Controller + Node Controllers
/// + Metadata Node Controller). Statements go in as AQL text; results come
/// back as ADM values (rendered to JSON by Value::ToString).
class AsterixInstance {
 public:
  explicit AsterixInstance(InstanceConfig config);
  ~AsterixInstance();

  AsterixInstance(const AsterixInstance&) = delete;
  AsterixInstance& operator=(const AsterixInstance&) = delete;

  /// Opens/creates the instance: bootstraps metadata, re-instantiates
  /// datasets recorded there, and recovers from the WAL.
  Status Boot();

  /// Runs a full AQL script (any mix of DDL/DML/queries), synchronously,
  /// as the ledger's "direct" client: its `use`/`set` statements carry over
  /// to later Execute(), Explain() and SubmitAsync() calls, not to Serve().
  Result<ExecutionResult> Execute(const std::string& aql);

  /// The concurrent serving entry point: Execute() in the session of
  /// `opts.client_id`, behind the server-layer pipeline — per-client
  /// token-bucket rate limiting (kRateLimited), the plan-keyed result cache
  /// (read-only scripts whose dependency versions still match are answered
  /// without executing), and single-flight request coalescing (identical
  /// concurrent read-only scripts share one execution). Read-only means
  /// queries plus any `use`/`set`, which the parse applies to the client's
  /// session even when the answer comes from the cache. Mutating scripts
  /// pass straight through; job admission (kOverloaded) applies underneath
  /// either way.
  Result<ExecutionResult> Serve(const std::string& aql,
                                const ServeOptions& opts = {});

  /// Serve() on a background thread; same handle protocol as SubmitAsync.
  Result<uint64_t> ServeAsync(const std::string& aql,
                              const ServeOptions& opts = {});

  /// Asynchronous submission: returns a handle immediately (paper §4: the
  /// client can request status/results via the handle).
  Result<uint64_t> SubmitAsync(const std::string& aql);
  enum class AsyncState { kRunning, kDone, kFailed };
  AsyncState PollAsync(uint64_t handle);
  /// Blocks for an async result and releases the handle.
  Result<ExecutionResult> GetAsyncResult(uint64_t handle);

  /// Compiles (but does not run) the last query in the script (EXPLAIN).
  Result<ExecutionResult> Explain(const std::string& aql);

  /// JSON snapshot of the process-wide metrics registry: storage (LSM
  /// flush/merge, bloom, buffer cache), txn (WAL, locks), feeds, and
  /// Hyracks counters/histograms. The monitoring endpoint.
  static std::string MetricsJson();

  /// Live runtime introspection: active queries (phase + elapsed), active
  /// jobs with memory-budget usage, executor-pool occupancy, channel queue
  /// depth, per-dataset LSM component counts, p50/p95/p99 latency
  /// percentiles, windowed per-second rates from the monitoring ring, top
  /// queries by CPU and bytes, the per-client resource table, and the
  /// health watchdog's summary. The "what is the system doing right now"
  /// endpoint, complementing the cumulative MetricsJson().
  std::string StatusJson();

  /// The monitoring ring's trailing samples as JSON (0 = all). Bench
  /// drivers embed this so a run's metric trajectory rides along in
  /// BENCH_*.json. Empty-ring JSON when monitoring is disabled.
  std::string HistoryJson(size_t max_samples = 0);

  /// Prometheus text exposition (format 0.0.4) of the metrics registry.
  static std::string MetricsPrometheus();

  /// Monitoring handles (null when enable_monitoring is false).
  monitor::MetricsSampler* sampler() { return sampler_.get(); }
  server::HealthWatchdog* watchdog() { return watchdog_.get(); }

  /// Background compaction scheduler (null when async_compaction is false
  /// or ASTERIX_INGEST_SYNC=1 forced inline maintenance at boot).
  storage::CompactionScheduler* compaction() { return compaction_.get(); }

  /// Where slow queries are logged (one JSON line per over-threshold query;
  /// see ClusterConfig::slow_query_us).
  std::string SlowQueryLogPath() const;

  // -- Direct handles (examples/benches/feeds) ----------------------------------
  storage::PartitionedDataset* FindDataset(const std::string& qualified);
  metadata::MetadataManager* metadata() { return metadata_.get(); }
  hyracks::Cluster* cluster() { return cluster_.get(); }
  feeds::FeedManager* feeds() { return feeds_.get(); }
  txn::TxnManager* txns() { return txns_.get(); }
  storage::BufferCache* buffer_cache() { return cache_.get(); }

  /// The push adaptor of a connected push/socket feed (to push records at),
  /// by qualified name: "Dataverse.feed".
  feeds::PushAdaptor* FeedInput(const std::string& qualified_feed);

  /// Flushes every dataset's memory components (no log truncation).
  Status FlushAll();

  /// Checkpoint: flushes every index (data + catalogs) so all committed
  /// work lives in valid disk components, then truncates the WAL — recovery
  /// afterwards needs only the validity bits, not replay.
  Status Checkpoint();

  /// Total primary-index bytes of one dataset after FlushAll (Table 2).
  Result<uint64_t> DatasetPrimaryBytes(const std::string& qualified);

 private:
  class Catalog;
  class ReadSetRecorder;
  struct Request;

  /// A copy of the client's stored session (the defaults if it has none).
  aql::ParserContext SessionOf(const std::string& client);
  /// Parses the script exactly once, in the request's copy of its client's
  /// session and under ddl_mu_ held shared: parse-time UDF lookup reads the
  /// function catalog that create/drop function change exclusively. The
  /// copy is written back only when the script parses and has a `set` or
  /// `use`.
  Result<std::vector<aql::Statement>> Parse(const std::string& aql,
                                            Request* req);
  /// Runs parsed statements as one registered query (active-query table,
  /// journal, resource ledger, slow-query log); a parse failure is
  /// registered as a failed query. `run` = false compiles queries without
  /// running them and rejects every other statement (Explain()).
  Result<ExecutionResult> Run(const std::string& aql,
                              const Result<std::vector<aql::Statement>>& parsed,
                              Request* req, bool run);
  /// Appends a JSON line with the full annotated profile when the query's
  /// wall time crossed ClusterConfig::slow_query_us.
  void MaybeLogSlowQuery(uint64_t query_id, const std::string& statement,
                         uint64_t elapsed_us,
                         const hyracks::PhaseSpans& phases,
                         const Result<ExecutionResult>& result);

  Status ExecuteStatement(const aql::Statement& st, bool run, Request* req,
                          ExecutionResult* last);
  Status ExecuteDdl(const aql::Statement& st);
  /// Post-commit serving invalidation for a DDL statement: bumps the
  /// catalog epoch (and the target dataset's version cell, when the
  /// statement names one) and eagerly drops dependent cache entries.
  void InvalidateServingAfterDdl(const aql::Statement& st);
  /// Registers an async task and returns its handle (SubmitAsync and
  /// ServeAsync share the bookkeeping the destructor drains).
  Result<uint64_t> LaunchAsync(std::function<Result<ExecutionResult>()> run);
  Status FlushAllInternal();
  Status ExecuteInsert(const aql::Statement& st, Request* req,
                       ExecutionResult* last);
  Status ExecuteDelete(const aql::Statement& st, Request* req,
                       ExecutionResult* last);
  Status ExecuteLoad(const aql::Statement& st);
  Status ConnectFeedStatement(const aql::Statement& st,
                              const aql::ParserContext& session);
  /// Optimizes and compiles a logical plan, then (when `run`) executes it:
  /// on the cluster, or in the reference interpreter when the plan does not
  /// compile. Queries and a delete's victim search both go through here.
  Status ExecutePlan(const algebricks::LogicalOpPtr& plan, bool run,
                     Request* req, ExecutionResult* out);
  Status InstantiateDataset(const storage::DatasetDef& def);

  /// Dataset scan hook for the interpreter/subplans: internal, metadata,
  /// and external datasets. Records what it reads into `read_set` when one
  /// is given.
  Status ScanDataset(const std::string& qualified, ReadSetRecorder* read_set,
                     const std::function<Status(const adm::Value&)>& cb);

  InstanceConfig config_;
  /// Background compaction pool shared by every LSM index in the instance
  /// (datasets and metadata catalogs alike). Declared before cache_ and the
  /// dataset map so it is destroyed LAST: trees detach from it in their
  /// destructors, so the workers must outlive every tree.
  std::unique_ptr<storage::CompactionScheduler> compaction_;
  std::unique_ptr<storage::BufferCache> cache_;
  std::unique_ptr<txn::TxnManager> txns_;
  std::unique_ptr<hyracks::Cluster> cluster_;
  std::unique_ptr<metadata::MetadataManager> metadata_;
  std::unique_ptr<feeds::FeedManager> feeds_;
  std::map<std::string, std::unique_ptr<storage::PartitionedDataset>> datasets_;
  std::map<std::string, feeds::PushAdaptor*> feed_inputs_;
  /// Statement-level DDL/query lock: DDL and feed connection hold it
  /// exclusively (they mutate datasets_ and tear down dataset instances);
  /// queries, DML, and introspection hold it shared. This is what makes
  /// concurrent Serve()/SubmitAsync() against DDL churn safe — previously
  /// the datasets_ map raced.
  std::shared_mutex ddl_mu_;

  /// Continuous monitoring: watchdog first (the sampler's observer refers
  /// to it), then the sampler whose thread drives it. The destructor stops
  /// the sampler before any subsystem it probes is torn down.
  std::unique_ptr<server::HealthWatchdog> watchdog_;
  std::unique_ptr<monitor::MetricsSampler> sampler_;

  /// Serving layer (Serve/ServeAsync). The cache payload is a whole
  /// ExecutionResult; the coalescer shares the leader's Result so followers
  /// inherit failures too.
  std::unique_ptr<server::ResultCache<ExecutionResult>> result_cache_;
  server::RequestCoalescer<Result<ExecutionResult>> coalescer_;
  std::unique_ptr<server::RateLimiter> rate_limiter_;
  /// Per-client sessions, keyed by ServeOptions::client_id (Execute(),
  /// Explain() and SubmitAsync() use ledger::kDirectClient). Holds only
  /// sessions that differ from the defaults; no hook is stored.
  std::mutex sessions_mu_;
  std::map<std::string, aql::ParserContext> sessions_;
  uint32_t next_dataset_id_ = 100;

  /// Queries currently running their statements, keyed by query id
  /// (StatusJson).
  mutable std::mutex queries_mu_;
  std::map<uint64_t, std::shared_ptr<ActiveQueryRecord>> active_queries_;
  /// Serializes slow-query log appends so concurrent async queries never
  /// interleave within a JSON line.
  std::mutex slow_log_mu_;

  std::mutex async_mu_;
  uint64_t next_handle_ = 1;
  std::map<uint64_t,
           std::shared_future<std::shared_ptr<Result<ExecutionResult>>>>
      async_;
  /// Async submissions not yet finished; the destructor blocks until this
  /// drains so no background script outlives the instance it runs against.
  size_t async_inflight_ = 0;  // guarded by async_mu_
  std::condition_variable async_cv_;
};

/// Renders result values as a JSON array string.
std::string ResultsToJson(const std::vector<adm::Value>& values);

}  // namespace api
}  // namespace asterix

#endif  // ASTERIX_API_ASTERIX_H_
