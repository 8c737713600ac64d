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

/// Version cell covering everything resolved through the metadata catalogs
/// (types, external/metadata datasets). Every DDL statement bumps it after
/// commit.
constexpr char kCatalogEpoch[] = "__catalog__";

/// Version cell of the function catalog, which every function call's
/// resolution reads (a builtin too: a later UDF could shadow it). Only
/// statements that change the function catalog bump it, so unrelated DDL
/// keeps cached queries that call functions.
constexpr char kFunctionsEpoch[] = "__functions__";

/// Whitespace-normalized script text, cut at `max_chars`: uncapped it is
/// the textual half of the cache / coalescing key ("the same statement
/// modulo formatting"); capped it labels the query in logs and status.
std::string NormalizeScript(const std::string& aql,
                            size_t max_chars = std::string::npos) {
  std::string out;
  out.reserve(std::min(aql.size(), max_chars));
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
    if (out.size() >= max_chars) break;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

/// Length of the script label in the active-query table, the resource
/// ledger and the slow-query log.
constexpr size_t kScriptLabelChars = 160;

bool IsSessionStatement(const aql::Statement& st) {
  return st.kind == aql::Statement::Kind::kSet ||
         st.kind == aql::Statement::Kind::kUseDataverse;
}

/// Scripts Serve() may answer from the cache or share with an identical
/// concurrent request: at least one plain query, plus any `set`/`use`
/// (the parse has already applied those to the client's session). EXPLAIN
/// is excluded so its output always reflects the live optimizer.
bool IsReadOnlyScript(const std::vector<aql::Statement>& stmts) {
  bool has_query = false;
  for (const auto& st : stmts) {
    if (IsSessionStatement(st)) continue;
    if (st.kind != aql::Statement::Kind::kQuery || st.explain) return false;
    has_query = true;
  }
  return has_query;
}

/// The session fields that change how a script parses, as a key suffix.
std::string SessionKey(const aql::ParserContext& session) {
  return '\x1f' + session.dataverse + '\x1f' + session.sim_function + '\x1f' +
         std::to_string(session.sim_threshold);
}

/// The session a read-only script's answer depends on: the client's state
/// before the parse with whatever the script's leading `use`/`set`
/// statements override replaced. So `use dataverse A; …` shares one entry
/// whether or not the client was already in A.
std::string EffectiveSessionKey(aql::ParserContext session,
                                const std::vector<aql::Statement>& stmts) {
  for (const auto& st : stmts) {
    if (!IsSessionStatement(st)) break;
    aql::ApplySessionStatement(st, &session);
  }
  return SessionKey(session);
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
/// the executor-measured spans into the request's totals.
void StampProfilePhases(hyracks::JobStats* stats,
                        hyracks::PhaseSpans* request, uint64_t optimize_us,
                        uint64_t result_us) {
  request->result_us += result_us;
  if (!stats->profile) return;
  hyracks::PhaseSpans& job = stats->profile->phases;
  request->admission_us += job.admission_us;
  request->execute_us += job.execute_us;
  job.optimize_us = optimize_us;
  job.result_us = result_us;
  job.parse_us = request->parse_us;
}

/// Every record of `ds`, partition by partition: what an index DDL reloads
/// into the dataset it rebuilds.
Result<std::vector<Value>> ReadAllRecords(storage::PartitionedDataset* ds) {
  std::vector<Value> records;
  for (uint32_t p = 0; p < ds->num_partitions(); ++p) {
    ASTERIX_RETURN_NOT_OK(ds->partition(p)->ScanAll([&](const Value& rec) {
      records.push_back(rec);
      return Status::OK();
    }));
  }
  return records;
}

/// Reloads a rebuilt dataset's records. Bulk-loaded records are in no WAL,
/// so they are flushed before this returns, or a crash would lose them.
Status ReloadRecords(storage::PartitionedDataset* ds,
                     const std::vector<Value>& records) {
  if (records.empty()) return Status::OK();
  ASTERIX_RETURN_NOT_OK(ds->LoadBulk(records));
  return ds->FlushAll();
}

}  // namespace

// ---------------------------------------------------------------------------
// One request: its read set and the state passed down from its entry point
// ---------------------------------------------------------------------------

/// Collects the read set of one cacheable execution: every dataset the
/// query resolves, pinned to its version *at resolution time* (i.e. before
/// any data is read). Writers bump versions after commit, so a recorded
/// dep whose version still matches at Lookup() proves no mutation landed
/// in between. Thread-safe because compiled jobs evaluate subplan scans on
/// executor-pool threads, whose scan callback carries the recorder.
class AsterixInstance::ReadSetRecorder {
 public:
  void RecordDataset(const std::string& qualified) {
    vclock::VersionClock::Cell* cell =
        vclock::VersionClock::Default().GetCell(qualified);
    uint64_t version = cell->load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(mu_);
    deps_.emplace(qualified, server::CacheDep{qualified, cell, version});
  }
  void RecordCatalog() { RecordDataset(kCatalogEpoch); }
  void RecordFunctions() { RecordDataset(kFunctionsEpoch); }
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

/// One Execute(), Serve() or Explain() call. Its entry point builds it and
/// passes it to the parse, the statement loop and ExecutePlan; the read set
/// goes on from there to the parser's UDF hook, the optimizer's catalog,
/// the dataset resolver and ScanDataset.
struct AsterixInstance::Request {
  Request(AsterixInstance* db, std::string client_id,
          ReadSetRecorder* recorder = nullptr)
      : client(std::move(client_id)),
        session(db->SessionOf(client)),
        read_set(recorder) {}

  void SetPhase(QueryPhase phase) {
    if (record != nullptr) {
      record->phase.store(static_cast<int>(phase), std::memory_order_relaxed);
    }
  }

  const uint64_t query_id = journal::NextQueryId();
  /// Storage and executor threads find the query id through the journal's
  /// thread-local; this publishes it on the calling thread.
  const journal::ScopedQueryId query_scope{query_id};
  const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  const std::string client;
  /// A copy of the client's session; the parse applies `use`/`set` to it.
  aql::ParserContext session;
  /// Phase spans summed over every statement of the script.
  hyracks::PhaseSpans phases;
  /// Set for a cacheable Serve(): what the execution reads.
  ReadSetRecorder* read_set;
  /// The active-query entry, while Run() has the request registered.
  ActiveQueryRecord* record = nullptr;
};

// ---------------------------------------------------------------------------
// Rule catalog over the live datasets
// ---------------------------------------------------------------------------

class AsterixInstance::Catalog : public algebricks::RuleCatalog {
 public:
  Catalog(AsterixInstance* instance, ReadSetRecorder* read_set)
      : instance_(instance), read_set_(read_set) {}

  const algebricks::CatalogDataset* FindDataset(
      const std::string& qualified) const override {
    // The optimizer resolving a dataset counts as reading it: record the
    // dependency before any data (or index metadata) is consulted.
    if (read_set_ != nullptr) read_set_->RecordDataset(qualified);
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
  ReadSetRecorder* read_set_;
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
  // constructed with. ASTERIX_INGEST_SYNC=1 forces fully synchronous
  // maintenance (the bench_ingest A/B baseline).
  const char* sync_env = std::getenv("ASTERIX_INGEST_SYNC");
  bool sync_forced = sync_env != nullptr && sync_env[0] == '1';
  if (config_.async_compaction && !sync_forced) {
    compaction_ = std::make_unique<storage::CompactionScheduler>(
        storage::CompactionScheduler::Options{});
    config_.lsm.scheduler = compaction_.get();
  } else {
    config_.lsm.scheduler = nullptr;
  }
  cache_ = std::make_unique<storage::BufferCache>(1u << 16);
  txns_ = std::make_unique<txn::TxnManager>(config_.base_dir + "/wal.log",
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
    const std::string& qualified, ReadSetRecorder* rs,
    const std::function<Status(const Value&)>& cb) {
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

aql::ParserContext AsterixInstance::SessionOf(const std::string& client) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(client);
  return it == sessions_.end() ? aql::ParserContext() : it->second;
}

Result<std::vector<aql::Statement>> AsterixInstance::Parse(
    const std::string& aql, Request* req) {
  auto parse_start = std::chrono::steady_clock::now();
  // Resolving a function call ties the request to the function catalog's
  // epoch: creating or dropping any function bumps it and invalidates
  // dependent entries.
  ReadSetRecorder* rs = req->read_set;
  req->session.find_function = [this, rs](const std::string& dv,
                                          const std::string& name,
                                          size_t arity) {
    if (rs != nullptr) rs->RecordFunctions();
    return metadata_->FindFunction(dv, name, arity);
  };
  Result<std::vector<aql::Statement>> stmts_r = [&] {
    std::shared_lock<std::shared_mutex> lock(ddl_mu_);
    return aql::ParseAql(aql, &req->session);
  }();
  req->phases.parse_us += ElapsedUs(parse_start);
  if (stmts_r.ok() && std::any_of(stmts_r.value().begin(),
                                  stmts_r.value().end(), IsSessionStatement)) {
    aql::ParserContext saved = req->session;
    saved.find_function = nullptr;
    const bool is_default = SessionKey(saved) == SessionKey({});
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (is_default) {
      sessions_.erase(req->client);
    } else {
      sessions_[req->client] = std::move(saved);
    }
  }
  return stmts_r;
}

Result<ExecutionResult> AsterixInstance::Run(
    const std::string& aql, const Result<std::vector<aql::Statement>>& parsed,
    Request* req, bool run) {
  auto record = std::make_shared<ActiveQueryRecord>();
  record->query_id = req->query_id;
  record->start = req->start;
  record->statement = NormalizeScript(aql, kScriptLabelChars);
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    active_queries_[req->query_id] = record;
  }
  req->record = record.get();
  journal::Journal::Default().Post(journal::EventKind::kQueryStart,
                                   aql.size());
  // Open the resource-ledger entry the executor and storage layers will
  // charge (by query id) while this script runs.
  ledger::ResourceLedger::Default().Begin(req->query_id, req->client,
                                          record->statement);
  static metrics::Counter* queries_counter =
      metrics::MetricsRegistry::Default().GetCounter("api.queries");
  queries_counter->Inc();

  Result<ExecutionResult> result = [&]() -> Result<ExecutionResult> {
    if (!parsed.ok()) return parsed.status();
    ExecutionResult last;
    for (const auto& st : parsed.value()) {
      req->SetPhase(QueryPhase::kExecute);
      ASTERIX_RETURN_NOT_OK(ExecuteStatement(st, run, req, &last));
    }
    return last;
  }();

  uint64_t elapsed_us = ElapsedUs(req->start);
  journal::Journal::Default().Post(journal::EventKind::kQueryFinish,
                                   elapsed_us, result.ok() ? 0 : 1);
  ledger::ResourceLedger::Default().Finish(req->query_id, result.ok(),
                                           elapsed_us);
  req->record = nullptr;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    active_queries_.erase(req->query_id);
  }
  MaybeLogSlowQuery(req->query_id, record->statement, elapsed_us, req->phases,
                    result);
  return result;
}

Result<ExecutionResult> AsterixInstance::Execute(const std::string& aql) {
  Request req(this, ledger::kDirectClient);
  return Run(aql, Parse(aql, &req), &req, /*run=*/true);
}

Result<ExecutionResult> AsterixInstance::Explain(const std::string& aql) {
  Request req(this, ledger::kDirectClient);
  return Run(aql, Parse(aql, &req), &req, /*run=*/false);
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

Result<ExecutionResult> AsterixInstance::Serve(const std::string& aql,
                                               const ServeOptions& opts) {
  if (rate_limiter_ && rate_limiter_->enabled()) {
    ASTERIX_RETURN_NOT_OK(rate_limiter_->Admit(opts.client_id));
  }
  // The read set is recorded from the parse on: a UDF resolved there ties
  // the answer to the catalog epoch as of that moment.
  ReadSetRecorder recorder;
  Request req(this, opts.client_id, &recorder);
  aql::ParserContext before = req.session;
  const Result<std::vector<aql::Statement>> stmts_r = Parse(aql, &req);
  if (!stmts_r.ok() || !IsReadOnlyScript(stmts_r.value())) {
    // Mutations, DDL and EXPLAIN go straight through; job admission still
    // gates them underneath.
    req.read_set = nullptr;
    return Run(aql, stmts_r, &req, /*run=*/true);
  }
  const std::string key =
      NormalizeScript(aql) +
      EffectiveSessionKey(std::move(before), stmts_r.value());

  if (result_cache_ && result_cache_->enabled()) {
    if (std::shared_ptr<const ExecutionResult> hit =
            result_cache_->Lookup(key)) {
      ExecutionResult out = *hit;
      out.from_cache = true;
      // Cache hits never run, so the per-client table is the only place
      // this request's outcome is recorded.
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
  Result<ExecutionResult> result = Run(aql, stmts_r, &req, /*run=*/true);
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

Status AsterixInstance::ExecuteStatement(const aql::Statement& st, bool run,
                                         Request* req, ExecutionResult* last) {
  using K = aql::Statement::Kind;
  if (!run && st.kind != K::kQuery && !IsSessionStatement(st)) {
    return Status::InvalidArgument("explain supports query statements only");
  }
  switch (st.kind) {
    case K::kSet:
    case K::kUseDataverse:
      return Status::OK();  // applied to the session by the parse
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
      Status s = ConnectFeedStatement(st, req->session);
      if (s.ok()) vclock::VersionClock::Default().Bump(kCatalogEpoch);
      return s;
    }
    case K::kLoad: {
      std::shared_lock<std::shared_mutex> lock(ddl_mu_);
      return ExecuteLoad(st);
    }
    case K::kInsert: {
      std::shared_lock<std::shared_mutex> lock(ddl_mu_);
      return ExecuteInsert(st, req, last);
    }
    case K::kDelete: {
      std::shared_lock<std::shared_mutex> lock(ddl_mu_);
      return ExecuteDelete(st, req, last);
    }
    case K::kQuery: {
      std::shared_lock<std::shared_mutex> lock(ddl_mu_);
      if (st.explain) {
        // EXPLAIN returns the plan text as the statement's single value;
        // EXPLAIN ANALYZE runs the query first and returns the plan
        // annotated with actuals.
        ASTERIX_RETURN_NOT_OK(
            ExecutePlan(st.plan, /*run=*/run && st.analyze, req, last));
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
      return ExecutePlan(st.plan, run, req, last);
    }
  }
  return Status::Internal("unreachable statement kind");
}

void AsterixInstance::InvalidateServingAfterDdl(const aql::Statement& st) {
  // Bump-after-commit: the statement's effects are durable by now, so a
  // reader that validates against the new versions can only see new state.
  auto& clock = vclock::VersionClock::Default();
  clock.Bump(kCatalogEpoch);
  using K = aql::Statement::Kind;
  if (st.kind == K::kCreateFunction || st.kind == K::kDropFunction ||
      st.kind == K::kDropDataverse) {
    clock.Bump(kFunctionsEpoch);
  }
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
      ASTERIX_ASSIGN_OR_RETURN(std::vector<Value> existing_records,
                               ReadAllRecords(it->second.get()));
      def.secondary_indexes.push_back(ix);
      datasets_.erase(it);
      env::RemoveAll(config_.base_dir + "/data/" + st.dataset);
      ASTERIX_RETURN_NOT_OK(metadata_->RegisterIndex(st.dataset, ix));
      ASTERIX_RETURN_NOT_OK(InstantiateDataset(def));
      return ReloadRecords(datasets_[st.dataset].get(), existing_records);
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
      ASTERIX_ASSIGN_OR_RETURN(std::vector<Value> existing_records,
                               ReadAllRecords(it->second.get()));
      datasets_.erase(it);
      env::RemoveAll(config_.base_dir + "/data/" + st.dataset);
      ASTERIX_RETURN_NOT_OK(
          metadata_->UnregisterIndex(st.dataset, st.name, st.if_exists));
      ASTERIX_RETURN_NOT_OK(InstantiateDataset(def));
      return ReloadRecords(datasets_[st.dataset].get(), existing_records);
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

Status AsterixInstance::ConnectFeedStatement(
    const aql::Statement& st, const aql::ParserContext& session) {
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
    aql::ParserContext fn_ctx = session;
    fn_ctx.dataverse = fn->dataverse;
    auto body_r = aql::ParseAqlExpression(fn->body, &fn_ctx);
    if (!body_r.ok()) return body_r.status();
    auto body = body_r.take();
    std::string param = fn->params[0];
    // The transform runs on feed threads long after this request.
    auto scan_fn = [this](const std::string& q,
                          const std::function<Status(const Value&)>& cb) {
      return ScanDataset(q, /*read_set=*/nullptr, cb);
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

feeds::PushAdaptor* AsterixInstance::FeedInput(
    const std::string& qualified_feed) {
  // Shared against connect feed, which fills feed_inputs_ exclusively.
  std::shared_lock<std::shared_mutex> ddl_lock(ddl_mu_);
  auto it = feed_inputs_.find(qualified_feed);
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

Status AsterixInstance::ExecuteInsert(const aql::Statement& st, Request* req,
                                      ExecutionResult* last) {
  storage::PartitionedDataset* ds = FindDataset(st.dataset);
  if (!ds) return Status::NotFound("dataset " + st.dataset);
  // Evaluate the payload expression: a record, or a collection of records
  // (e.g. an inserted subquery).
  EvalContext ctx([this, rs = req->read_set](
                      const std::string& q,
                      const std::function<Status(const Value&)>& cb) {
    return ScanDataset(q, rs, cb);
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
  job.query_id = req->query_id;
  auto stats_r = cluster_->ExecuteJob(job);
  if (!stats_r.ok()) return stats_r.status();
  last->stats = stats_r.take();
  StampProfilePhases(&last->stats, &req->phases, 0, 0);
  last->values = {Value::Int64(static_cast<int64_t>(batch))};
  return Status::OK();
}

Status AsterixInstance::ExecuteDelete(const aql::Statement& st, Request* req,
                                      ExecutionResult* last) {
  storage::PartitionedDataset* ds = FindDataset(st.dataset);
  if (!ds) return Status::NotFound("dataset " + st.dataset);
  // Find the victims' primary keys with a query (scan -> select -> one pk
  // list per record) planned like any other, so a keyed delete probes the
  // primary index instead of reading every partition; then delete them
  // with a job.
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

  ExecutionResult victims;
  ASTERIX_RETURN_NOT_OK(ExecutePlan(dist, /*run=*/true, req, &victims));
  last->logical_plan = std::move(victims.logical_plan);
  std::vector<hyracks::Tuple> rows;
  for (const auto& keylist : victims.values) {
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
  job.query_id = req->query_id;
  auto stats_r = cluster_->ExecuteJob(job);
  if (!stats_r.ok()) return stats_r.status();
  last->stats = stats_r.take();
  StampProfilePhases(&last->stats, &req->phases, 0, 0);
  int64_t deleted = 0;
  for (const auto& t : *sink) deleted += t[0].AsInt();
  last->values = {Value::Int64(deleted)};
  return Status::OK();
}

Status AsterixInstance::ExecutePlan(const LogicalOpPtr& logical, bool run,
                                    Request* req, ExecutionResult* out) {
  req->SetPhase(QueryPhase::kOptimize);
  auto optimize_start = std::chrono::steady_clock::now();
  ReadSetRecorder* rs = req->read_set;
  Catalog catalog(this, rs);
  auto plan_r = algebricks::Optimize(logical, catalog, config_.optimizer);
  if (!plan_r.ok()) return plan_r.status();
  LogicalOpPtr plan = plan_r.take();
  out->logical_plan = plan->ToString();
  out->values.clear();

  // Subplan scans inside compiled expressions run on executor-pool worker
  // threads; the callback carries this request's read set there so every
  // dataset the execution touches lands in the cache entry's deps.
  auto scan_fn = [this, rs](const std::string& q,
                            const std::function<Status(const Value&)>& cb) {
    return ScanDataset(q, rs, cb);
  };

  // Physical compilation. Internal datasets compile to parallel jobs;
  // metadata and external dataset scans fall back to the reference
  // interpreter (they are small/catalog-sized).
  algebricks::PhysicalCompiler compiler(
      cluster_.get(), txns_.get(),
      [this, rs](const std::string& q) -> storage::PartitionedDataset* {
        auto it = datasets_.find(q);
        if (it == datasets_.end()) return nullptr;
        if (rs != nullptr) rs->RecordDataset(q);
        return it->second.get();
      },
      scan_fn, config_.optimizer);
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  auto job_r = compiler.Compile(plan, sink);
  uint64_t optimize_us = ElapsedUs(optimize_start);
  req->phases.optimize_us += optimize_us;
  if (job_r.ok()) {
    out->job_plan = job_r.value().ToString();
    out->stage_plan = hyracks::ComputeStages(job_r.value()).ToString();
    if (!run) {
      out->used_compiled_path = true;
      return Status::OK();
    }
    job_r.value().query_id = req->query_id;
    req->SetPhase(QueryPhase::kExecute);
    auto stats_r = cluster_->ExecuteJob(job_r.value());
    if (stats_r.ok()) {
      out->stats = stats_r.take();
      out->used_compiled_path = true;
      req->SetPhase(QueryPhase::kResult);
      auto result_start = std::chrono::steady_clock::now();
      for (auto& t : *sink) out->values.push_back(std::move(t[0]));
      uint64_t result_us = ElapsedUs(result_start);
      // Stamp query-level phases onto the profile before rendering the
      // annotated plan, so EXPLAIN ANALYZE shows the full lifecycle.
      StampProfilePhases(&out->stats, &req->phases, optimize_us, result_us);
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
  req->SetPhase(QueryPhase::kExecute);
  auto interp_start = std::chrono::steady_clock::now();
  EvalContext ctx(scan_fn);
  auto values_r = algebricks::InterpretToValues(plan, ctx);
  req->phases.execute_us += ElapsedUs(interp_start);
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
