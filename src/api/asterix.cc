#include "api/asterix.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/env.h"
#include "common/journal.h"
#include "common/ledger.h"
#include "common/metrics.h"
#include "common/string_utils.h"
#include "common/version_clock.h"
#include "external/external.h"
#include "hyracks/operators.h"

namespace asterix {
namespace api {

using adm::Value;
using algebricks::EvalContext;
using algebricks::LogicalOp;
using algebricks::LogicalOpPtr;

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kParse:
      return "parse";
    case QueryPhase::kOptimize:
      return "optimize";
    case QueryPhase::kExecute:
      return "execute";
    case QueryPhase::kResult:
      return "result";
  }
  return "unknown";
}

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return static_cast<double>(ElapsedUs(since)) / 1000.0;
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

void AppendPhasesJson(std::string* out, const hyracks::PhaseSpans& ph) {
  *out += "{ \"parse_us\": " + std::to_string(ph.parse_us) +
          ", \"optimize_us\": " + std::to_string(ph.optimize_us) +
          ", \"admission_wait_us\": " + std::to_string(ph.admission_us) +
          ", \"execute_us\": " + std::to_string(ph.execute_us) +
          ", \"result_us\": " + std::to_string(ph.result_us) + " }";
}

/// A one-line label for a submitted script: the leading fragment with
/// whitespace collapsed, capped for log/status readability.
std::string StatementLabel(const std::string& aql) {
  std::string label;
  label.reserve(std::min<size_t>(aql.size(), 160));
  bool in_ws = true;
  for (char c : aql) {
    bool ws = c == ' ' || c == '\n' || c == '\r' || c == '\t';
    if (ws) {
      if (!in_ws) label.push_back(' ');
      in_ws = true;
    } else {
      label.push_back(c);
      in_ws = false;
    }
    if (label.size() >= 160) break;
  }
  while (!label.empty() && label.back() == ' ') label.pop_back();
  return label;
}

/// Per-query accounting carried on the executing thread across the
/// parse / optimize / execute / result phases. Execute() stacks one on the
/// call frame; ExecuteQuery/Insert/Delete reach it through the thread-local
/// so phase spans accumulate across a multi-statement script.
struct QueryTracker {
  hyracks::PhaseSpans phases;
  ActiveQueryRecord* record = nullptr;
};

thread_local QueryTracker* tls_query_tracker = nullptr;

class QueryTrackerScope {
 public:
  explicit QueryTrackerScope(QueryTracker* t) : prev_(tls_query_tracker) {
    tls_query_tracker = t;
  }
  ~QueryTrackerScope() { tls_query_tracker = prev_; }

 private:
  QueryTracker* prev_;
};

void SetQueryPhase(QueryPhase phase) {
  QueryTracker* t = tls_query_tracker;
  if (t != nullptr && t->record != nullptr) {
    t->record->phase.store(static_cast<int>(phase), std::memory_order_relaxed);
  }
}

/// Version cell covering everything resolved through the metadata catalogs
/// (functions, types, external/metadata datasets). Every DDL statement
/// bumps it after commit.
constexpr char kCatalogEpoch[] = "__catalog__";

/// Collects the read set of one cacheable execution: every dataset the
/// query resolves, pinned to its version *at resolution time* (i.e. before
/// any data is read). Writers bump versions after commit, so a recorded
/// dep whose version still matches at Lookup() proves no mutation landed
/// in between. Thread-safe because compiled jobs evaluate subplan scans on
/// executor-pool threads; ExecuteQuery re-publishes the active recorder on
/// those threads via the scan callback.
class ReadSetRecorder {
 public:
  void RecordDataset(const std::string& qualified) {
    vclock::VersionClock::Cell* cell =
        vclock::VersionClock::Default().GetCell(qualified);
    uint64_t version = cell->load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(mu_);
    deps_.emplace(qualified, server::CacheDep{qualified, cell, version});
  }
  void RecordCatalog() { RecordDataset(kCatalogEpoch); }
  /// External datasets read files the version clock cannot see: results
  /// depending on them must never be cached.
  void MarkUncacheable() { uncacheable_.store(true, std::memory_order_relaxed); }
  bool uncacheable() const {
    return uncacheable_.load(std::memory_order_relaxed);
  }
  std::vector<server::CacheDep> TakeDeps() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<server::CacheDep> out;
    out.reserve(deps_.size());
    for (auto& [name, dep] : deps_) {
      (void)name;
      out.push_back(dep);
    }
    return out;
  }

 private:
  std::mutex mu_;
  std::map<std::string, server::CacheDep> deps_;  // first resolution wins
  std::atomic<bool> uncacheable_{false};
};

thread_local ReadSetRecorder* tls_read_set = nullptr;

/// Publishes a recorder on the current thread (and restores the previous
/// one on exit) — used both on the serving thread for the leader execution
/// and on pool worker threads running subplan scans for that execution.
class ReadSetScope {
 public:
  explicit ReadSetScope(ReadSetRecorder* r) : prev_(tls_read_set) {
    tls_read_set = r;
  }
  ~ReadSetScope() { tls_read_set = prev_; }

 private:
  ReadSetRecorder* prev_;
};

/// Whitespace-normalized script text: the textual half of the cache /
/// coalescing key ("the same statement modulo formatting").
std::string NormalizeScript(const std::string& aql) {
  std::string out;
  out.reserve(aql.size());
  bool in_ws = true;
  for (char c : aql) {
    bool ws = c == ' ' || c == '\n' || c == '\r' || c == '\t';
    if (ws) {
      if (!in_ws) out.push_back(' ');
      in_ws = true;
    } else {
      out.push_back(c);
      in_ws = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

/// Rough retained size of a cached result, for the cache's byte budget.
uint64_t EstimateResultBytes(const ExecutionResult& r) {
  uint64_t bytes = r.logical_plan.size() + r.job_plan.size() +
                   r.stage_plan.size() + r.profiled_plan.size() + 64;
  for (const auto& v : r.values) {
    std::string s;
    v.AppendTo(&s);
    bytes += s.size() + 32;
  }
  return bytes;
}

/// Stamps the query-level spans (parse/optimize/result) onto a finished
/// job's profile — the executor already filled admission/execute — and folds
/// the executor-measured spans into the per-query tracker.
void StampProfilePhases(hyracks::JobStats* stats, uint64_t optimize_us,
                        uint64_t result_us) {
  QueryTracker* tracker = tls_query_tracker;
  if (tracker != nullptr) {
    tracker->phases.result_us += result_us;
    if (stats->profile) {
      tracker->phases.admission_us += stats->profile->phases.admission_us;
      tracker->phases.execute_us += stats->profile->phases.execute_us;
    }
  }
  if (stats->profile) {
    stats->profile->phases.optimize_us = optimize_us;
    stats->profile->phases.result_us = result_us;
    stats->profile->phases.parse_us =
        tracker != nullptr ? tracker->phases.parse_us : 0;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Rule catalog over the live datasets
// ---------------------------------------------------------------------------

class AsterixInstance::Catalog : public algebricks::RuleCatalog {
 public:
  explicit Catalog(AsterixInstance* instance) : instance_(instance) {}

  const algebricks::CatalogDataset* FindDataset(
      const std::string& qualified) const override {
    // The optimizer resolving a dataset counts as reading it: record the
    // dependency before any data (or index metadata) is consulted.
    if (ReadSetRecorder* rs = tls_read_set) rs->RecordDataset(qualified);
    auto it = cache_.find(qualified);
    if (it != cache_.end()) return &it->second;
    auto dsit = instance_->datasets_.find(qualified);
    if (dsit == instance_->datasets_.end()) return nullptr;
    const storage::DatasetDef& def = dsit->second->def();
    algebricks::CatalogDataset cd;
    cd.qualified_name = qualified;
    cd.pk_fields = def.primary_key_fields;
    for (const auto& ix : def.secondary_indexes) {
      algebricks::CatalogIndex ci;
      ci.name = ix.name;
      ci.fields = ix.fields;
      ci.gram_length = ix.gram_length;
      switch (ix.kind) {
        case storage::IndexKind::kBTree:
          ci.kind = algebricks::CatalogIndex::Kind::kBTree;
          break;
        case storage::IndexKind::kRTree:
          ci.kind = algebricks::CatalogIndex::Kind::kRTree;
          break;
        case storage::IndexKind::kKeyword:
          ci.kind = algebricks::CatalogIndex::Kind::kKeyword;
          break;
        case storage::IndexKind::kNgram:
          ci.kind = algebricks::CatalogIndex::Kind::kNgram;
          break;
      }
      cd.indexes.push_back(std::move(ci));
    }
    auto [cit, ok] = cache_.emplace(qualified, std::move(cd));
    (void)ok;
    return &cit->second;
  }

 private:
  AsterixInstance* instance_;
  mutable std::map<std::string, algebricks::CatalogDataset> cache_;
};

// ---------------------------------------------------------------------------

AsterixInstance::AsterixInstance(InstanceConfig config)
    : config_(std::move(config)) {}

AsterixInstance::~AsterixInstance() {
  // Stop the sampler first: its probes read the cluster and admission
  // controller, which the members below tear down.
  if (sampler_) sampler_->Stop();
  // Join every in-flight async submission first: a background script must
  // not run against datasets this destructor is about to tear down.
  {
    std::unique_lock<std::mutex> lock(async_mu_);
    async_cv_.wait(lock, [&] { return async_inflight_ == 0; });
  }
  // Drain feeds before tearing down datasets they write into.
  if (feeds_) feeds_->AwaitAll();
}

Status AsterixInstance::Boot() {
  ASTERIX_RETURN_NOT_OK(env::CreateDirs(config_.base_dir));
  // Register the columnar-storage counters up front so MetricsJson() lists
  // them (at zero) even before the first columnar dataset sees traffic.
  auto& reg = metrics::MetricsRegistry::Default();
  for (const char* name :
       {"storage.column.pages_read", "storage.column.bytes_read",
        "storage.column.bytes_skipped", "storage.column.pages_pruned_minmax",
        "storage.column.bytes_flushed", "storage.column.bytes_merged"}) {
    reg.GetCounter(name);
  }
  // Background compaction pool, created before any LSM tree exists and
  // wired into the LsmOptions every index (metadata catalogs included) is
  // constructed with. ASTERIX_INGEST_SYNC=1 forces the pre-PR-10 fully
  // synchronous maintenance (the bench_ingest A/B baseline).
  const char* sync_env = std::getenv("ASTERIX_INGEST_SYNC");
  bool sync_forced = sync_env != nullptr && sync_env[0] == '1';
  if (config_.async_compaction && !sync_forced) {
    storage::CompactionScheduler::Options copts;
    copts.threads = config_.cluster.compaction_threads;
    copts.queue_limit = config_.cluster.compaction_queue_limit;
    compaction_ = std::make_unique<storage::CompactionScheduler>(copts);
    config_.lsm.scheduler = compaction_.get();
  } else {
    config_.lsm.scheduler = nullptr;
  }
  cache_ = std::make_unique<storage::BufferCache>(1u << 16);
  txns_ = std::make_unique<txn::TxnManager>(config_.base_dir + "/wal.log",
                                            config_.lock_timeout_ms,
                                            config_.group_commit_latency_us);
  cluster_ = std::make_unique<hyracks::Cluster>(config_.cluster);
  feeds_ = std::make_unique<feeds::FeedManager>();
  metadata_ = std::make_unique<metadata::MetadataManager>(
      cache_.get(), config_.base_dir, txns_.get(), config_.lsm);
  ASTERIX_RETURN_NOT_OK(metadata_->Bootstrap());

  // Re-instantiate datasets recorded in the catalogs (instance restart).
  ASTERIX_ASSIGN_OR_RETURN(auto defs, metadata_->ListInternalDatasets());
  for (auto& [def, type_name] : defs) {
    (void)type_name;
    next_dataset_id_ = std::max(next_dataset_id_, def.dataset_id + 1);
    ASTERIX_RETURN_NOT_OK(InstantiateDataset(def));
  }

  parser_ctx_ = aql::ParserContext();
  parser_ctx_.find_function = [this](const std::string& dv,
                                     const std::string& name, size_t arity) {
    // Resolving a UDF ties the execution to the catalog epoch: dropping or
    // redefining any function bumps it and invalidates dependent entries.
    if (ReadSetRecorder* rs = tls_read_set) rs->RecordCatalog();
    return metadata_->FindFunction(dv, name, arity);
  };

  result_cache_ = std::make_unique<server::ResultCache<ExecutionResult>>(
      config_.result_cache_bytes);
  rate_limiter_ = std::make_unique<server::RateLimiter>(
      server::RateLimiterOptions{config_.rate_limit_qps,
                                 config_.rate_limit_burst});

  if (config_.enable_monitoring) {
    watchdog_ = std::make_unique<server::HealthWatchdog>(config_.watchdog);
    monitor::MetricsSampler::Options sopts;
    sopts.interval_ms = config_.monitor_interval_ms;
    sopts.ring_capacity = config_.monitor_ring_samples;
    sampler_ = std::make_unique<monitor::MetricsSampler>(&reg, sopts);
    // Probe: export instance state that has no metric of its own into
    // gauges, so it rides the same ring the watchdog evaluates. Runs on the
    // sampler thread against subsystems the destructor keeps alive.
    sampler_->AddProbe([this, &reg] {
      const hyracks::ExecutorPool& pool = cluster_->pool();
      static metrics::Gauge* busy = reg.GetGauge("hyracks.pool.busy_threads");
      static metrics::Gauge* queued = reg.GetGauge("hyracks.pool.queued_tasks");
      busy->Set(static_cast<int64_t>(pool.busy_threads()));
      queued->Set(static_cast<int64_t>(pool.queued_tasks()));
      const server::AdmissionController& adm = cluster_->admission();
      static metrics::Gauge* pool_bytes =
          reg.GetGauge("server.admission.pool_bytes");
      static metrics::Gauge* queue_limit =
          reg.GetGauge("server.admission.queue_limit");
      pool_bytes->Set(static_cast<int64_t>(adm.pool_bytes()));
      queue_limit->Set(static_cast<int64_t>(adm.max_queue()));
      const journal::Journal& j = journal::Journal::Default();
      static metrics::Gauge* drops = reg.GetGauge("journal.overwrite_drops");
      static metrics::Gauge* posted = reg.GetGauge("journal.posted");
      drops->Set(static_cast<int64_t>(j.overwrite_drops()));
      posted->Set(static_cast<int64_t>(j.posted()));
      // Compaction backlog: scheduler-authoritative queue/running depth at
      // sample time (the gauges the watchdog's backlog condition reads).
      if (compaction_) {
        static metrics::Gauge* cq =
            reg.GetGauge("storage.compaction.queued");
        static metrics::Gauge* cr =
            reg.GetGauge("storage.compaction.running");
        cq->Set(static_cast<int64_t>(compaction_->queued()));
        cr->Set(static_cast<int64_t>(compaction_->running()));
      }
    });
    sampler_->SetObserver([this](const monitor::TimeSeriesRing& ring) {
      watchdog_->Evaluate(ring);
    });
    sampler_->Start();
  }
  return Status::OK();
}

Status AsterixInstance::InstantiateDataset(const storage::DatasetDef& def) {
  std::string qualified = def.dataverse + "." + def.name;
  auto ds = std::make_unique<storage::PartitionedDataset>(
      cache_.get(), config_.base_dir + "/data", def,
      static_cast<uint32_t>(cluster_->num_partitions()), txns_.get(),
      config_.lsm);
  ASTERIX_RETURN_NOT_OK(ds->Open());
  datasets_[qualified] = std::move(ds);
  return Status::OK();
}

storage::PartitionedDataset* AsterixInstance::FindDataset(
    const std::string& qualified) {
  auto it = datasets_.find(qualified);
  if (it != datasets_.end()) return it->second.get();
  return metadata_->MetadataDataset(qualified);
}

Status AsterixInstance::ScanDataset(
    const std::string& qualified,
    const std::function<Status(const Value&)>& cb) {
  ReadSetRecorder* rs = tls_read_set;
  storage::PartitionedDataset* ds = nullptr;
  if (auto it = datasets_.find(qualified); it != datasets_.end()) {
    ds = it->second.get();
    if (rs != nullptr) rs->RecordDataset(qualified);
  } else if ((ds = metadata_->MetadataDataset(qualified)) != nullptr) {
    // Metadata datasets change with DDL, which bumps the catalog epoch.
    if (rs != nullptr) rs->RecordCatalog();
  }
  if (ds != nullptr) {
    for (uint32_t p = 0; p < ds->num_partitions(); ++p) {
      ASTERIX_RETURN_NOT_OK(ds->partition(p)->ScanAll(cb));
    }
    return Status::OK();
  }
  if (const auto* ext = metadata_->FindExternalDataset(qualified)) {
    // External files mutate outside the version clock's sight — results
    // that read them must not be cached.
    if (rs != nullptr) rs->MarkUncacheable();
    return external::ReadExternalData(ext->adaptor, ext->params, ext->type, cb);
  }
  return Status::NotFound("no such dataset: " + qualified);
}

Result<ExecutionResult> AsterixInstance::Execute(const std::string& aql) {
  // Every Execute() call is one query: it gets a process-unique id that the
  // thread-local journal context carries through parse, compile, job
  // execution (re-published on pool worker threads), storage, and txn code,
  // so every journal event and profile span ties back to this request.
  const uint64_t query_id = journal::NextQueryId();
  journal::ScopedQueryId query_scope(query_id);

  auto record = std::make_shared<ActiveQueryRecord>();
  record->query_id = query_id;
  record->start = std::chrono::steady_clock::now();
  record->statement = StatementLabel(aql);
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    active_queries_[query_id] = record;
  }
  journal::Journal::Default().Post(journal::EventKind::kQueryStart,
                                   aql.size());
  // Open the resource-ledger entry the executor and storage layers will
  // charge (by query id) while this script runs.
  ledger::ResourceLedger::Default().Begin(query_id, ledger::CurrentClient(),
                                          record->statement);
  static metrics::Counter* queries_counter =
      metrics::MetricsRegistry::Default().GetCounter("api.queries");
  queries_counter->Inc();

  QueryTracker tracker;
  tracker.record = record.get();
  Result<ExecutionResult> result = [&] {
    QueryTrackerScope tracker_scope(&tracker);
    return ExecuteScript(aql);
  }();

  uint64_t elapsed_us = ElapsedUs(record->start);
  journal::Journal::Default().Post(journal::EventKind::kQueryFinish,
                                   elapsed_us, result.ok() ? 0 : 1);
  ledger::ResourceLedger::Default().Finish(query_id, result.ok(), elapsed_us);
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    active_queries_.erase(query_id);
  }
  MaybeLogSlowQuery(query_id, record->statement, elapsed_us, tracker.phases,
                    result);
  return result;
}

Result<ExecutionResult> AsterixInstance::ExecuteScript(const std::string& aql) {
  SetQueryPhase(QueryPhase::kParse);
  auto parse_start = std::chrono::steady_clock::now();
  // The parser context carries cross-statement session state (current
  // dataverse, sim function); concurrent Execute() calls — SubmitAsync runs
  // scripts on pool threads — must not mutate it unsynchronized.
  Result<std::vector<aql::Statement>> stmts_r = [&] {
    std::lock_guard<std::mutex> lock(parser_mu_);
    return aql::ParseAql(aql, &parser_ctx_);
  }();
  if (QueryTracker* tracker = tls_query_tracker) {
    tracker->phases.parse_us += ElapsedUs(parse_start);
  }
  if (!stmts_r.ok()) return stmts_r.status();
  ExecutionResult last;
  for (const auto& st : stmts_r.value()) {
    SetQueryPhase(QueryPhase::kExecute);
    ASTERIX_RETURN_NOT_OK(ExecuteStatement(st, &last));
  }
  return last;
}

void AsterixInstance::MaybeLogSlowQuery(uint64_t query_id,
                                        const std::string& statement,
                                        uint64_t elapsed_us,
                                        const hyracks::PhaseSpans& phases,
                                        const Result<ExecutionResult>& result) {
  int64_t threshold = config_.cluster.slow_query_us;
  if (threshold <= 0 || elapsed_us < static_cast<uint64_t>(threshold)) return;
  const hyracks::JobProfile* profile =
      result.ok() && result.value().stats.profile
          ? result.value().stats.profile.get()
          : nullptr;
  std::string line = "{ \"query_id\": " + std::to_string(query_id) +
                     ", \"elapsed_us\": " + std::to_string(elapsed_us) +
                     ", \"ok\": " + (result.ok() ? "true" : "false") +
                     ", \"statement\": ";
  AppendJsonString(statement, &line);
  line += ", \"phases\": ";
  AppendPhasesJson(&line, phases);
  line += ", \"profile\": ";
  line += profile != nullptr ? profile->ToJson() : "null";
  line += " }\n";
  std::lock_guard<std::mutex> lock(slow_log_mu_);
  (void)env::AppendFile(SlowQueryLogPath(), line.data(), line.size());
}

std::string AsterixInstance::SlowQueryLogPath() const {
  return config_.base_dir + "/slow_query.log";
}

bool AsterixInstance::ClassifyForServing(const std::string& aql,
                                         std::string* key) {
  std::lock_guard<std::mutex> lock(parser_mu_);
  // Session state that changes how the same text parses/resolves is part
  // of the key: identical scripts under different dataverses (or sim
  // settings) are different queries.
  *key = NormalizeScript(aql) + '\x1f' + parser_ctx_.dataverse + '\x1f' +
         parser_ctx_.sim_function + '\x1f' +
         std::to_string(parser_ctx_.sim_threshold);
  aql::ParserContext probe_ctx = parser_ctx_;
  auto stmts_r = aql::ParseAql(aql, &probe_ctx);
  if (!stmts_r.ok() || stmts_r.value().empty()) return false;
  for (const auto& st : stmts_r.value()) {
    // Only pure read-only scripts qualify: a `set`/`use` statement mutates
    // session state a cache hit would silently skip, and EXPLAIN output
    // should always reflect the live optimizer.
    if (st.kind != aql::Statement::Kind::kQuery || st.explain) return false;
  }
  return true;
}

Result<ExecutionResult> AsterixInstance::Serve(const std::string& aql,
                                               const ServeOptions& opts) {
  // Attribute everything below — including the Execute() path's ledger
  // entry — to the requesting client.
  ledger::ScopedClient client_scope(opts.client_id);
  if (rate_limiter_ && rate_limiter_->enabled()) {
    ASTERIX_RETURN_NOT_OK(rate_limiter_->Admit(opts.client_id));
  }
  std::string key;
  if (!ClassifyForServing(aql, &key)) {
    // Mutations, DDL, and session statements go straight through; job
    // admission still gates them underneath.
    return Execute(aql);
  }

  if (result_cache_ && result_cache_->enabled()) {
    if (std::shared_ptr<const ExecutionResult> hit =
            result_cache_->Lookup(key)) {
      ExecutionResult out = *hit;
      out.from_cache = true;
      // Cache hits never reach Execute(), so the per-client table is the
      // only place this request's outcome is recorded.
      ledger::ResourceLedger::Default().RecordServed(
          opts.client_id, ledger::CacheOutcome::kHit);
      return out;
    }
  }

  auto ticket = coalescer_.Join(key);
  if (!ticket.leader()) {
    std::shared_ptr<const Result<ExecutionResult>> shared = ticket.Wait();
    Result<ExecutionResult> r = *shared;
    if (r.ok()) r.value().coalesced = true;
    ledger::ResourceLedger::Default().RecordServed(
        opts.client_id, ledger::CacheOutcome::kCoalesced);
    return r;
  }

  // Leader: execute with the read set recorded, cache on success, and hand
  // every follower the shared result (errors included).
  ReadSetRecorder recorder;
  Result<ExecutionResult> result = [&] {
    ReadSetScope scope(&recorder);
    return Execute(aql);
  }();
  if (result.ok() && !recorder.uncacheable() && result_cache_ &&
      result_cache_->enabled()) {
    auto payload = std::make_shared<ExecutionResult>(result.value());
    result_cache_->Insert(key, payload, EstimateResultBytes(*payload),
                          recorder.TakeDeps());
  }
  coalescer_.Publish(key, std::make_shared<Result<ExecutionResult>>(result));
  return result;
}

Result<uint64_t> AsterixInstance::LaunchAsync(
    std::function<Result<ExecutionResult>()> run) {
  std::lock_guard<std::mutex> lock(async_mu_);
  uint64_t handle = next_handle_++;
  ++async_inflight_;
  async_[handle] =
      std::async(std::launch::async,
                 [this, run = std::move(run)] {
                   auto result =
                       std::make_shared<Result<ExecutionResult>>(run());
                   {
                     std::lock_guard<std::mutex> inner(async_mu_);
                     --async_inflight_;
                     // Notify under the lock: the destructor destroys this
                     // condvar the moment its wait sees inflight == 0, so an
                     // unlocked notify could broadcast into freed memory.
                     async_cv_.notify_all();
                   }
                   return result;
                 })
          .share();
  return handle;
}

Result<uint64_t> AsterixInstance::SubmitAsync(const std::string& aql) {
  return LaunchAsync([this, aql] { return Execute(aql); });
}

Result<uint64_t> AsterixInstance::ServeAsync(const std::string& aql,
                                             const ServeOptions& opts) {
  return LaunchAsync([this, aql, opts] { return Serve(aql, opts); });
}

AsterixInstance::AsyncState AsterixInstance::PollAsync(uint64_t handle) {
  std::shared_future<std::shared_ptr<Result<ExecutionResult>>> fut;
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    auto it = async_.find(handle);
    if (it == async_.end()) return AsyncState::kFailed;
    fut = it->second;
  }
  if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    return AsyncState::kRunning;
  }
  return fut.get()->ok() ? AsyncState::kDone : AsyncState::kFailed;
}

Result<ExecutionResult> AsterixInstance::GetAsyncResult(uint64_t handle) {
  std::shared_future<std::shared_ptr<Result<ExecutionResult>>> fut;
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    auto it = async_.find(handle);
    if (it == async_.end()) return Status::NotFound("no such result handle");
    fut = it->second;
  }
  auto result = fut.get();
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    async_.erase(handle);
  }
  return *result;
}

std::string AsterixInstance::MetricsJson() {
  return metrics::MetricsRegistry::Default().ToJson();
}

std::string AsterixInstance::StatusJson() {
  auto& reg = metrics::MetricsRegistry::Default();
  // Shared against DDL: the datasets_ walk below must not race a drop.
  std::shared_lock<std::shared_mutex> ddl_lock(ddl_mu_);
  std::string out = "{ ";

  out += "\"active_queries\": [ ";
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    bool first = true;
    for (const auto& [id, rec] : active_queries_) {
      if (!first) out += ", ";
      first = false;
      out += "{ \"query_id\": " + std::to_string(id) + ", \"phase\": \"";
      out += QueryPhaseName(
          static_cast<QueryPhase>(rec->phase.load(std::memory_order_relaxed)));
      out += "\", \"elapsed_ms\": ";
      AppendDouble(&out, ElapsedMs(rec->start));
      out += ", \"statement\": ";
      AppendJsonString(rec->statement, &out);
      out += " }";
    }
  }
  out += " ], ";

  out += "\"active_jobs\": [ ";
  {
    bool first = true;
    for (const auto& j : cluster_->ActiveJobs()) {
      if (!first) out += ", ";
      first = false;
      out += "{ \"job_id\": " + std::to_string(j.job_id) +
             ", \"query_id\": " + std::to_string(j.query_id) +
             ", \"elapsed_ms\": ";
      AppendDouble(&out, j.elapsed_ms);
      out += ", \"instances\": " + std::to_string(j.instances) +
             ", \"budget_used_bytes\": " +
             std::to_string(j.budget_used_bytes) + " }";
    }
  }
  out += " ], ";

  const hyracks::ExecutorPool& pool = cluster_->pool();
  out += "\"executor_pool\": { \"threads_alive\": " +
         std::to_string(pool.threads_alive()) +
         ", \"busy_threads\": " + std::to_string(pool.busy_threads()) +
         ", \"queued_tasks\": " + std::to_string(pool.queued_tasks()) +
         ", \"threads_created\": " + std::to_string(pool.threads_created()) +
         " }, ";

  out += "\"channels\": { \"queued_frames\": " +
         std::to_string(reg.GetGauge("hyracks.queued_frames")->value()) +
         " }, ";

  out += "\"datasets\": [ ";
  {
    bool first = true;
    for (const auto& [name, ds] : datasets_) {
      size_t components = 0;
      uint64_t records = 0;
      for (uint32_t p = 0; p < ds->num_partitions(); ++p) {
        components += ds->partition(p)->PrimaryComponents();
        records += ds->partition(p)->ApproxRecordCount();
      }
      if (!first) out += ", ";
      first = false;
      out += "{ \"name\": ";
      AppendJsonString(name, &out);
      out += ", \"partitions\": " + std::to_string(ds->num_partitions()) +
             ", \"disk_components\": " + std::to_string(components) +
             ", \"records\": " + std::to_string(records) + " }";
    }
  }
  out += " ], ";

  out += "\"latency_us\": { ";
  {
    const struct {
      const char* json_key;
      const char* metric;
    } kHistograms[] = {
        {"job", "hyracks.job_us"},
        {"lsm_flush", "storage.lsm.flush_us"},
        {"lsm_merge", "storage.lsm.merge_us"},
        {"lock_wait", "txn.lock.wait_us"},
    };
    bool first = true;
    for (const auto& h : kHistograms) {
      const metrics::Histogram* hist = reg.GetHistogram(h.metric);
      if (!first) out += ", ";
      first = false;
      out += std::string("\"") + h.json_key +
             "\": { \"count\": " + std::to_string(hist->count()) +
             ", \"p50\": ";
      AppendDouble(&out, hist->Percentile(0.50));
      out += ", \"p95\": ";
      AppendDouble(&out, hist->Percentile(0.95));
      out += ", \"p99\": ";
      AppendDouble(&out, hist->Percentile(0.99));
      out += " }";
    }
  }
  out += " }, ";

  out += "\"compaction\": " +
         (compaction_ ? compaction_->StatsJson()
                      : std::string("{ \"enabled\": false }")) +
         ", ";

  out += "\"server\": { \"admission\": " + cluster_->admission().StatsJson() +
         ", \"result_cache\": " +
         (result_cache_ ? result_cache_->StatsJson() : std::string("null")) +
         ", \"coalesce_inflight\": " + std::to_string(coalescer_.inflight()) +
         ", \"rate_limit_clients\": " +
         std::to_string(rate_limiter_ ? rate_limiter_->clients() : 0) +
         " }, ";

  // Windowed per-second rates from the monitoring ring: trends, not
  // cumulative totals. Curated to the load-bearing series; the full set is
  // in HistoryJson().
  out += "\"rates\": ";
  if (sampler_) {
    const uint64_t w = config_.watchdog.window_us;
    const monitor::TimeSeriesRing& ring = sampler_->ring();
    const struct {
      const char* json_key;
      const char* series;
    } kRates[] = {
        {"queries_per_sec", "api.queries"},
        {"jobs_per_sec", "hyracks.jobs"},
        {"connector_tuples_per_sec", "hyracks.connector_tuples"},
        {"cpu_us_per_sec", "hyracks.cpu_us"},
        {"cache_hits_per_sec", "server.cache.hits"},
        {"lsm_flush_bytes_per_sec", "storage.lsm.bytes_flushed"},
        {"backpressure_us_per_sec", "hyracks.backpressure_wait_us.sum"},
        {"write_stall_us_per_sec", "storage.lsm.write_stall_us.sum"},
    };
    out += "{ \"window_us\": " + std::to_string(ring.CoveredWindowUs(w));
    for (const auto& r : kRates) {
      out += std::string(", \"") + r.json_key + "\": ";
      AppendDouble(&out, ring.WindowedRate(r.series, w));
    }
    out += " }, ";
  } else {
    out += "null, ";
  }

  const auto& led = ledger::ResourceLedger::Default();
  out += "\"top_queries\": " + led.TopJson(5) + ", ";
  out += "\"clients\": " + led.ClientsJson() + ", ";

  out += "\"health\": ";
  out += watchdog_ ? watchdog_->SummaryJson() : std::string("null");
  out += ", ";

  {
    uint64_t ingested =
        reg.GetCounter("storage.lsm.bytes_ingested")->value();
    int64_t amp_x1000 =
        reg.GetGauge("storage.lsm.write_amplification_x1000")->value();
    const metrics::Histogram* stall =
        reg.GetHistogram("storage.lsm.write_stall_us");
    out += "\"storage\": { \"bytes_ingested\": " + std::to_string(ingested) +
           ", \"write_amplification\": ";
    AppendDouble(&out, static_cast<double>(amp_x1000) / 1000.0);
    out += ", \"write_stalls\": " + std::to_string(stall->count()) +
           ", \"write_stall_us_total\": " + std::to_string(stall->sum()) +
           " }, ";
  }

  const journal::Journal& j = journal::Journal::Default();
  out += "\"journal\": { \"posted\": " + std::to_string(j.posted()) +
         ", \"capacity\": " + std::to_string(j.capacity()) +
         ", \"overwrite_drops\": " + std::to_string(j.overwrite_drops()) +
         " } }";
  return out;
}

std::string AsterixInstance::HistoryJson(size_t max_samples) {
  if (!sampler_) return "{ \"samples\": 0, \"data\": [ ] }";
  return sampler_->ring().HistoryJson(max_samples);
}

std::string AsterixInstance::MetricsPrometheus() {
  return metrics::MetricsRegistry::Default().ToPrometheus();
}

Result<ExecutionResult> AsterixInstance::Explain(const std::string& aql) {
  Result<std::vector<aql::Statement>> stmts_r = [&] {
    std::lock_guard<std::mutex> lock(parser_mu_);
    return aql::ParseAql(aql, &parser_ctx_);
  }();
  if (!stmts_r.ok()) return stmts_r.status();
  ExecutionResult out;
  std::shared_lock<std::shared_mutex> ddl_lock(ddl_mu_);
  for (const auto& st : stmts_r.value()) {
    if (st.kind == aql::Statement::Kind::kQuery) {
      ASTERIX_RETURN_NOT_OK(ExecuteQuery(st, /*run=*/false, &out));
    } else if (st.kind == aql::Statement::Kind::kSet ||
               st.kind == aql::Statement::Kind::kUseDataverse) {
      // Context-only statements already applied by the parser.
    } else {
      return Status::InvalidArgument("explain supports query statements only");
    }
  }
  return out;
}

Status AsterixInstance::ExecuteStatement(const aql::Statement& st,
                                         ExecutionResult* last) {
  using K = aql::Statement::Kind;
  switch (st.kind) {
    case K::kSet:
    case K::kUseDataverse:
      return Status::OK();  // applied by the parser context
    case K::kCreateDataverse:
    case K::kDropDataverse:
    case K::kCreateType:
    case K::kCreateDataset:
    case K::kCreateExternalDataset:
    case K::kDropDataset:
    case K::kCreateIndex:
    case K::kDropIndex:
    case K::kCreateFunction:
    case K::kDropFunction:
    case K::kCreateFeed: {
      // DDL rewires datasets_ and tears down dataset instances: exclusive
      // against every concurrent query/DML (which hold ddl_mu_ shared).
      std::unique_lock<std::shared_mutex> ddl_lock(ddl_mu_);
      Status s = ExecuteDdl(st);
      if (s.ok()) InvalidateServingAfterDdl(st);
      return s;
    }
    case K::kConnectFeed: {
      std::unique_lock<std::shared_mutex> ddl_lock(ddl_mu_);
      Status s = ConnectFeedStatement(st);
      if (s.ok()) vclock::VersionClock::Default().Bump(kCatalogEpoch);
      return s;
    }
    case K::kLoad: {
      std::shared_lock<std::shared_mutex> lock(ddl_mu_);
      return ExecuteLoad(st);
    }
    case K::kInsert: {
      std::shared_lock<std::shared_mutex> lock(ddl_mu_);
      return ExecuteInsert(st, last);
    }
    case K::kDelete: {
      std::shared_lock<std::shared_mutex> lock(ddl_mu_);
      return ExecuteDelete(st, last);
    }
    case K::kQuery: {
      std::shared_lock<std::shared_mutex> lock(ddl_mu_);
      if (st.explain) {
        // EXPLAIN returns the plan text as the statement's single value;
        // EXPLAIN ANALYZE runs the query first and returns the plan
        // annotated with actuals.
        ASTERIX_RETURN_NOT_OK(ExecuteQuery(st, /*run=*/st.analyze, last));
        std::string text;
        if (st.analyze && !last->profiled_plan.empty()) {
          text = last->profiled_plan;
        } else if (!last->job_plan.empty()) {
          text = last->job_plan;
        } else {
          text = last->logical_plan;
        }
        last->values.clear();
        last->values.push_back(Value::String(std::move(text)));
        return Status::OK();
      }
      return ExecuteQuery(st, /*run=*/true, last);
    }
  }
  return Status::Internal("unreachable statement kind");
}

void AsterixInstance::InvalidateServingAfterDdl(const aql::Statement& st) {
  // Bump-after-commit: the statement's effects are durable by now, so a
  // reader that validates against the new versions can only see new state.
  auto& clock = vclock::VersionClock::Default();
  clock.Bump(kCatalogEpoch);
  if (!st.dataset.empty()) {
    clock.Bump(st.dataset);
    if (result_cache_) result_cache_->InvalidateDataset(st.dataset);
  }
}

Status AsterixInstance::ExecuteDdl(const aql::Statement& st) {
  using K = aql::Statement::Kind;
  switch (st.kind) {
    case K::kCreateDataverse:
      return metadata_->CreateDataverse(st.name, st.if_exists);
    case K::kDropDataverse: {
      // Tear down the dataverse's datasets (files + instances).
      std::vector<std::string> victims;
      for (const auto& [qualified, ds] : datasets_) {
        (void)ds;
        if (qualified.rfind(st.name + ".", 0) == 0) victims.push_back(qualified);
      }
      for (const auto& q : victims) {
        datasets_.erase(q);
        env::RemoveAll(config_.base_dir + "/data/" + q);
        // Per-dataset serving invalidation; the caller's catalog-epoch bump
        // covers everything resolved through the dropped dataverse.
        vclock::VersionClock::Default().Bump(q);
        if (result_cache_) result_cache_->InvalidateDataset(q);
      }
      return metadata_->DropDataverse(st.name, st.if_exists);
    }
    case K::kCreateType:
      if (!metadata_->DataverseExists(st.dataverse)) {
        return Status::NotFound("dataverse " + st.dataverse);
      }
      return metadata_->CreateDatatype(st.dataverse, st.name, st.type_expr);
    case K::kCreateDataset: {
      if (datasets_.count(st.dataset)) {
        return Status::AlreadyExists("dataset " + st.dataset);
      }
      ASTERIX_ASSIGN_OR_RETURN(adm::DatatypePtr type,
                               metadata_->GetDatatype(st.dataverse, st.type_name));
      storage::DatasetDef def;
      def.dataset_id = next_dataset_id_++;
      def.dataverse = st.dataverse;
      def.name = st.name;
      def.type = type;
      def.primary_key_fields = st.primary_key;
      def.autogenerated_key = st.autogenerated_key;
      for (const auto& [key, value] : st.with_params) {
        if (key == "storage-format") {
          if (value == "row") {
            def.storage_format = storage::StorageFormat::kRow;
          } else if (value == "column") {
            def.storage_format = storage::StorageFormat::kColumn;
          } else {
            return Status::InvalidArgument(
                "storage-format must be \"row\" or \"column\", got \"" +
                value + "\"");
          }
        } else if (key == "compression") {
          if (value == "none") {
            def.compress = false;
          } else if (value == "lz") {
            def.compress = true;
          } else {
            return Status::InvalidArgument(
                "compression must be \"none\" or \"lz\", got \"" + value +
                "\"");
          }
        } else if (key == "merge-policy") {
          storage::MergePolicy policy;
          if (!storage::MergePolicyFromName(value, &policy)) {
            return Status::InvalidArgument(
                "merge-policy must be \"none\", \"constant\", \"prefix\" or "
                "\"tiered\", got \"" +
                value + "\"");
          }
          def.merge_policy = value;
        } else {
          return Status::InvalidArgument("unknown dataset option \"" + key +
                                         "\"");
        }
      }
      ASTERIX_RETURN_NOT_OK(metadata_->RegisterDataset(def, st.type_name));
      return InstantiateDataset(def);
    }
    case K::kCreateExternalDataset: {
      ASTERIX_ASSIGN_OR_RETURN(adm::DatatypePtr type,
                               metadata_->GetDatatype(st.dataverse, st.type_name));
      metadata::ExternalDatasetDef def;
      def.qualified_name = st.dataset;
      def.type = type;
      def.adaptor = st.adaptor;
      def.params = st.adaptor_params;
      return metadata_->RegisterExternalDataset(def, st.type_name);
    }
    case K::kDropDataset: {
      auto it = datasets_.find(st.dataset);
      if (it == datasets_.end()) {
        if (metadata_->FindExternalDataset(st.dataset)) {
          return metadata_->UnregisterDataset(st.dataset);
        }
        if (st.if_exists) return Status::OK();
        return Status::NotFound("dataset " + st.dataset);
      }
      datasets_.erase(it);
      env::RemoveAll(config_.base_dir + "/data/" + st.dataset);
      return metadata_->UnregisterDataset(st.dataset);
    }
    case K::kCreateIndex: {
      auto it = datasets_.find(st.dataset);
      if (it == datasets_.end()) return Status::NotFound("dataset " + st.dataset);
      storage::IndexDef ix;
      ix.name = st.name;
      ix.fields = st.index_fields;
      ix.gram_length = st.gram_length;
      if (st.index_kind == "btree") ix.kind = storage::IndexKind::kBTree;
      else if (st.index_kind == "rtree") ix.kind = storage::IndexKind::kRTree;
      else if (st.index_kind == "keyword") ix.kind = storage::IndexKind::kKeyword;
      else if (st.index_kind == "ngram") ix.kind = storage::IndexKind::kNgram;
      else return Status::InvalidArgument("index type " + st.index_kind);
      // Rebuild the dataset instance with the new index and reload existing
      // data into it (index creation on a populated dataset).
      storage::DatasetDef def = it->second->def();
      for (const auto& existing : def.secondary_indexes) {
        if (existing.name == ix.name) {
          return Status::AlreadyExists("index " + ix.name);
        }
      }
      std::vector<Value> existing_records;
      for (uint32_t p = 0; p < it->second->num_partitions(); ++p) {
        ASTERIX_RETURN_NOT_OK(it->second->partition(p)->ScanAll(
            [&](const Value& rec) {
              existing_records.push_back(rec);
              return Status::OK();
            }));
      }
      def.secondary_indexes.push_back(ix);
      datasets_.erase(it);
      env::RemoveAll(config_.base_dir + "/data/" + st.dataset);
      ASTERIX_RETURN_NOT_OK(metadata_->RegisterIndex(st.dataset, ix));
      ASTERIX_RETURN_NOT_OK(InstantiateDataset(def));
      if (!existing_records.empty()) {
        ASTERIX_RETURN_NOT_OK(datasets_[st.dataset]->LoadBulk(existing_records));
      }
      return Status::OK();
    }
    case K::kDropIndex: {
      auto it = datasets_.find(st.dataset);
      if (it == datasets_.end()) {
        if (st.if_exists) return Status::OK();
        return Status::NotFound("dataset " + st.dataset);
      }
      storage::DatasetDef def = it->second->def();
      auto ix = std::find_if(def.secondary_indexes.begin(),
                             def.secondary_indexes.end(),
                             [&](const storage::IndexDef& d) {
                               return d.name == st.name;
                             });
      if (ix == def.secondary_indexes.end()) {
        if (st.if_exists) return Status::OK();
        return Status::NotFound("index " + st.name + " on " + st.dataset);
      }
      def.secondary_indexes.erase(ix);
      // Rebuild the dataset instance without the index (mirror of create
      // index on a populated dataset).
      std::vector<Value> existing_records;
      for (uint32_t p = 0; p < it->second->num_partitions(); ++p) {
        ASTERIX_RETURN_NOT_OK(it->second->partition(p)->ScanAll(
            [&](const Value& rec) {
              existing_records.push_back(rec);
              return Status::OK();
            }));
      }
      datasets_.erase(it);
      env::RemoveAll(config_.base_dir + "/data/" + st.dataset);
      ASTERIX_RETURN_NOT_OK(
          metadata_->UnregisterIndex(st.dataset, st.name, st.if_exists));
      ASTERIX_RETURN_NOT_OK(InstantiateDataset(def));
      if (!existing_records.empty()) {
        ASTERIX_RETURN_NOT_OK(datasets_[st.dataset]->LoadBulk(existing_records));
      }
      return Status::OK();
    }
    case K::kDropFunction:
      return metadata_->UnregisterFunction(st.dataverse, st.name, st.if_exists);
    case K::kCreateFunction: {
      aql::FunctionDef def;
      def.dataverse = st.dataverse;
      def.name = st.name;
      def.params = st.function_params;
      def.body = st.function_body;
      return metadata_->RegisterFunction(def);
    }
    case K::kCreateFeed: {
      metadata::FeedDef def;
      def.dataverse = st.dataverse;
      def.name = st.name;
      def.adaptor = st.adaptor;
      def.params = st.adaptor_params;
      def.applied_function = st.feed_function;
      return metadata_->RegisterFeed(def);
    }
    default:
      return Status::Internal("not a DDL statement");
  }
}

Status AsterixInstance::ConnectFeedStatement(const aql::Statement& st) {
  std::string feed_name = st.name;
  std::string dataverse = st.dataverse;
  if (auto dot = feed_name.find('.'); dot != std::string::npos) {
    dataverse = feed_name.substr(0, dot);
    feed_name = feed_name.substr(dot + 1);
  }
  const metadata::FeedDef* def = metadata_->FindFeed(dataverse, feed_name);
  if (!def) return Status::NotFound("feed " + feed_name);
  storage::PartitionedDataset* target = FindDataset(st.dataset);
  if (!target) return Status::NotFound("dataset " + st.dataset);

  // The compute-stage transform from the feed's applied UDF.
  feeds::FeedTransform transform;
  if (!def->applied_function.empty()) {
    const aql::FunctionDef* fn =
        metadata_->FindFunction(dataverse, def->applied_function, 1);
    if (!fn) {
      return Status::NotFound("feed function " + def->applied_function);
    }
    aql::ParserContext fn_ctx = parser_ctx_;
    fn_ctx.dataverse = fn->dataverse;
    auto body_r = aql::ParseAqlExpression(fn->body, &fn_ctx);
    if (!body_r.ok()) return body_r.status();
    auto body = body_r.take();
    std::string param = fn->params[0];
    auto scan_fn = [this](const std::string& q,
                          const std::function<Status(const Value&)>& cb) {
      return ScanDataset(q, cb);
    };
    transform = [body, param, scan_fn](const Value& record) -> Result<Value> {
      EvalContext ctx(scan_fn);
      ctx.Bind(param, record);
      return algebricks::EvalExpr(*body, ctx);
    };
  }

  std::string conn_name = dataverse + "." + feed_name;
  if (def->adaptor == "socket_adaptor" || def->adaptor == "push_adaptor") {
    auto adaptor = std::make_unique<feeds::PushAdaptor>();
    feeds::PushAdaptor* input = adaptor.get();
    auto conn_r = feeds_->ConnectPrimary(conn_name, std::move(adaptor),
                                         transform, target);
    if (!conn_r.ok()) return conn_r.status();
    feed_inputs_[conn_name] = input;
    return Status::OK();
  }
  if (def->adaptor == "localfs" || def->adaptor == "file_feed") {
    auto path_it = def->params.find("path");
    if (path_it == def->params.end()) {
      return Status::InvalidArgument("file feed requires 'path'");
    }
    auto adaptor_r =
        feeds::FileReplayAdaptor::Open(external::ResolveLocalPath(path_it->second));
    if (!adaptor_r.ok()) return adaptor_r.status();
    auto conn_r = feeds_->ConnectPrimary(conn_name, adaptor_r.take(),
                                         transform, target);
    return conn_r.ok() ? Status::OK() : conn_r.status();
  }
  if (def->adaptor == "secondary") {
    auto src_it = def->params.find("source-feed");
    if (src_it == def->params.end()) {
      return Status::InvalidArgument("secondary feed requires 'source-feed'");
    }
    auto conn_r = feeds_->ConnectSecondary(
        conn_name, dataverse + "." + src_it->second, transform, target);
    return conn_r.ok() ? Status::OK() : conn_r.status();
  }
  return Status::NotImplemented("feed adaptor " + def->adaptor);
}

feeds::PushAdaptor* AsterixInstance::FeedInput(const std::string& feed_name) {
  std::string key = feed_name.find('.') != std::string::npos
                        ? feed_name
                        : parser_ctx_.dataverse + "." + feed_name;
  auto it = feed_inputs_.find(key);
  return it == feed_inputs_.end() ? nullptr : it->second;
}

Status AsterixInstance::ExecuteLoad(const aql::Statement& st) {
  storage::PartitionedDataset* ds = FindDataset(st.dataset);
  if (!ds) return Status::NotFound("dataset " + st.dataset);
  std::vector<Value> records;
  ASTERIX_RETURN_NOT_OK(external::ReadExternalData(
      st.adaptor, st.adaptor_params, ds->def().type, [&](const Value& rec) {
        records.push_back(rec);
        return Status::OK();
      }));
  ASTERIX_RETURN_NOT_OK(ds->LoadBulk(records));
  return ds->FlushAll();
}

Status AsterixInstance::ExecuteInsert(const aql::Statement& st,
                                      ExecutionResult* last) {
  storage::PartitionedDataset* ds = FindDataset(st.dataset);
  if (!ds) return Status::NotFound("dataset " + st.dataset);
  // Evaluate the payload expression: a record, or a collection of records
  // (e.g. an inserted subquery).
  EvalContext ctx([this](const std::string& q,
                         const std::function<Status(const Value&)>& cb) {
    return ScanDataset(q, cb);
  });
  auto payload_r = algebricks::EvalExpr(*st.expr, ctx);
  if (!payload_r.ok()) return payload_r.status();
  std::vector<hyracks::Tuple> rows;
  if (payload_r.value().IsList()) {
    for (const auto& rec : payload_r.value().AsList()) rows.push_back({rec});
  } else {
    rows.push_back({payload_r.take()});
  }
  size_t batch = rows.size();

  // One Hyracks job per insert statement: the whole batch shares the job
  // start-up overhead (the Table 4 batching effect).
  hyracks::JobSpec job;
  int src = job.AddOperator(hyracks::MakeValueScan(std::move(rows)));
  int ins = job.AddOperator(hyracks::MakeInsert(ds, 0));
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  int res = job.AddOperator(hyracks::MakeResultSink(sink));
  std::vector<std::string> pk = ds->def().primary_key_fields;
  job.Connect(hyracks::ConnectorType::kMToNPartitioning, src, ins, 0,
              [pk](const hyracks::Tuple& t) {
                storage::CompositeKey key;
                for (const auto& f : pk) {
                  key.push_back(storage::ExtractFieldPath(t[0], f));
                }
                return storage::HashKey(key);
              });
  job.Connect(hyracks::ConnectorType::kMToNReplicating, ins, res);
  job.query_id = journal::CurrentQueryId();
  auto stats_r = cluster_->ExecuteJob(job);
  if (!stats_r.ok()) return stats_r.status();
  last->stats = stats_r.take();
  StampProfilePhases(&last->stats, 0, 0);
  last->values = {Value::Int64(static_cast<int64_t>(batch))};
  return Status::OK();
}

Status AsterixInstance::ExecuteDelete(const aql::Statement& st,
                                      ExecutionResult* last) {
  storage::PartitionedDataset* ds = FindDataset(st.dataset);
  if (!ds) return Status::NotFound("dataset " + st.dataset);
  // Find matching primary keys with a read plan, then delete via a job.
  auto scan = algebricks::MakeOp(LogicalOp::Kind::kDataSourceScan);
  scan->dataset = st.dataset;
  scan->var = st.var;
  LogicalOpPtr tip = scan;
  if (st.expr) {
    auto sel = algebricks::MakeOp(LogicalOp::Kind::kSelect);
    sel->inputs = {tip};
    sel->expr = st.expr;
    tip = sel;
  }
  auto dist = algebricks::MakeOp(LogicalOp::Kind::kDistribute);
  dist->inputs = {tip};
  // Emit the pk values as a list per record.
  std::vector<algebricks::ExprPtr> pk_exprs;
  for (const auto& f : ds->def().primary_key_fields) {
    algebricks::ExprPtr fa = algebricks::Expr::Var(st.var);
    size_t start = 0;
    while (true) {
      size_t dot = f.find('.', start);
      std::string part = f.substr(start, dot - start);
      fa = algebricks::Expr::FieldAccess(fa, part);
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
    pk_exprs.push_back(fa);
  }
  dist->expr = algebricks::Expr::ListCtor(pk_exprs);

  EvalContext ctx([this](const std::string& q,
                         const std::function<Status(const Value&)>& cb) {
    return ScanDataset(q, cb);
  });
  auto keys_r = algebricks::InterpretToValues(dist, ctx);
  if (!keys_r.ok()) return keys_r.status();

  std::vector<hyracks::Tuple> rows;
  for (const auto& keylist : keys_r.value()) {
    rows.push_back(hyracks::Tuple(keylist.AsList().begin(),
                                  keylist.AsList().end()));
  }
  size_t n = rows.size();
  if (n == 0) {
    last->values = {Value::Int64(0)};
    return Status::OK();
  }
  hyracks::JobSpec job;
  int src = job.AddOperator(hyracks::MakeValueScan(std::move(rows)));
  std::vector<int> key_cols;
  for (size_t i = 0; i < ds->def().primary_key_fields.size(); ++i) {
    key_cols.push_back(static_cast<int>(i));
  }
  int del = job.AddOperator(hyracks::MakeDelete(ds, key_cols));
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  int res = job.AddOperator(hyracks::MakeResultSink(sink));
  job.Connect(hyracks::ConnectorType::kMToNPartitioning, src, del, 0,
              hyracks::HashOnColumns(key_cols));
  job.Connect(hyracks::ConnectorType::kMToNReplicating, del, res);
  job.query_id = journal::CurrentQueryId();
  auto stats_r = cluster_->ExecuteJob(job);
  if (!stats_r.ok()) return stats_r.status();
  last->stats = stats_r.take();
  StampProfilePhases(&last->stats, 0, 0);
  int64_t deleted = 0;
  for (const auto& t : *sink) deleted += t[0].AsInt();
  last->values = {Value::Int64(deleted)};
  return Status::OK();
}

Status AsterixInstance::ExecuteQuery(const aql::Statement& st, bool run,
                                     ExecutionResult* out) {
  SetQueryPhase(QueryPhase::kOptimize);
  auto optimize_start = std::chrono::steady_clock::now();
  Catalog catalog(this);
  auto plan_r = algebricks::Optimize(st.plan, catalog, config_.optimizer);
  if (!plan_r.ok()) return plan_r.status();
  LogicalOpPtr plan = plan_r.take();
  out->logical_plan = plan->ToString();
  out->values.clear();

  // Subplan scans inside compiled expressions run on executor-pool worker
  // threads: re-publish this query's read-set recorder (if any) there so
  // every dataset the execution touches lands in the cache entry's deps.
  ReadSetRecorder* recorder = tls_read_set;
  auto scan_fn = [this, recorder](const std::string& q,
                                  const std::function<Status(const Value&)>& cb) {
    ReadSetScope scope(recorder);
    return ScanDataset(q, cb);
  };

  // Physical compilation. Internal datasets compile to parallel jobs;
  // metadata and external dataset scans fall back to the reference
  // interpreter (they are small/catalog-sized).
  algebricks::PhysicalCompiler compiler(
      cluster_.get(), txns_.get(),
      [this](const std::string& q) -> storage::PartitionedDataset* {
        auto it = datasets_.find(q);
        if (it == datasets_.end()) return nullptr;
        if (ReadSetRecorder* rs = tls_read_set) rs->RecordDataset(q);
        return it->second.get();
      },
      scan_fn, config_.optimizer);
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  auto job_r = compiler.Compile(plan, sink);
  uint64_t optimize_us = ElapsedUs(optimize_start);
  if (QueryTracker* tracker = tls_query_tracker) {
    tracker->phases.optimize_us += optimize_us;
  }
  if (job_r.ok()) {
    out->job_plan = job_r.value().ToString();
    out->stage_plan = hyracks::ComputeStages(job_r.value()).ToString();
    if (!run) {
      out->used_compiled_path = true;
      return Status::OK();
    }
    job_r.value().query_id = journal::CurrentQueryId();
    SetQueryPhase(QueryPhase::kExecute);
    auto stats_r = cluster_->ExecuteJob(job_r.value());
    if (stats_r.ok()) {
      out->stats = stats_r.take();
      out->used_compiled_path = true;
      SetQueryPhase(QueryPhase::kResult);
      auto result_start = std::chrono::steady_clock::now();
      for (auto& t : *sink) out->values.push_back(std::move(t[0]));
      uint64_t result_us = ElapsedUs(result_start);
      // Stamp query-level phases onto the profile before rendering the
      // annotated plan, so EXPLAIN ANALYZE shows the full lifecycle.
      StampProfilePhases(&out->stats, optimize_us, result_us);
      if (out->stats.profile) {
        out->profiled_plan =
            hyracks::AnnotatePlan(job_r.value(), *out->stats.profile);
      }
      return Status::OK();
    }
    // Execution-level failures are real errors, not fallback material,
    // except for NotImplemented gaps.
    if (stats_r.status().code() != StatusCode::kNotImplemented) {
      return stats_r.status();
    }
  } else if (job_r.status().code() != StatusCode::kNotFound &&
             job_r.status().code() != StatusCode::kNotImplemented) {
    return job_r.status();
  }

  // Reference interpreter fallback.
  if (!run) return Status::OK();
  SetQueryPhase(QueryPhase::kExecute);
  auto interp_start = std::chrono::steady_clock::now();
  EvalContext ctx(scan_fn);
  auto values_r = algebricks::InterpretToValues(plan, ctx);
  if (QueryTracker* tracker = tls_query_tracker) {
    tracker->phases.execute_us += ElapsedUs(interp_start);
  }
  if (!values_r.ok()) return values_r.status();
  out->values = values_r.take();
  out->used_compiled_path = false;
  return Status::OK();
}

Status AsterixInstance::FlushAllInternal() {
  for (auto& [name, ds] : datasets_) {
    (void)name;
    ASTERIX_RETURN_NOT_OK(ds->FlushAll());
  }
  return Status::OK();
}

Status AsterixInstance::FlushAll() {
  std::shared_lock<std::shared_mutex> ddl_lock(ddl_mu_);
  return FlushAllInternal();
}

Status AsterixInstance::Checkpoint() {
  std::shared_lock<std::shared_mutex> ddl_lock(ddl_mu_);
  ASTERIX_RETURN_NOT_OK(FlushAllInternal());
  ASTERIX_RETURN_NOT_OK(metadata_->FlushAll());
  // Every committed operation is now inside a validity-bit-protected disk
  // component; the log carries nothing recovery still needs.
  return txns_->log().Reset();
}

Result<uint64_t> AsterixInstance::DatasetPrimaryBytes(
    const std::string& qualified) {
  std::shared_lock<std::shared_mutex> ddl_lock(ddl_mu_);
  storage::PartitionedDataset* ds = FindDataset(qualified);
  if (!ds) return Status::NotFound("dataset " + qualified);
  return ds->TotalPrimaryDiskBytes();
}

std::string ResultsToJson(const std::vector<Value>& values) {
  std::string out = "[ ";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    values[i].AppendTo(&out);
  }
  out += " ]";
  return out;
}

}  // namespace api
}  // namespace asterix
