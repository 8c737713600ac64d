#include "bench.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "api/asterix.h"
#include "common/metrics.h"
#include "gen.h"
#include "stats.h"
#include "suite.h"
#include "trace.h"

namespace perfbench {

using asterix::adm::Value;
using asterix::api::AsterixInstance;
using Clock = std::chrono::steady_clock;

namespace {

// Templates beyond the 19 of the suite, as indexes into AllTemplates().
constexpr int kTmplInsert = 19;
constexpr int kTmplDashboard = 20;
constexpr int kTmplProfile = 21;
constexpr int kTmplTimeline = 22;
constexpr int kTmplCheck = 23;

const std::vector<Template>& AllTemplates() {
  static const std::vector<Template> kAll = [] {
    std::vector<Template> all = SuiteTemplates();
    all.push_back({"insert", MetricClass::kInsert, ""});
    all.push_back({"dashboard", MetricClass::kDashboard, ""});
    all.push_back({"profile_lookup", MetricClass::kLookup, ""});
    all.push_back({"timeline", MetricClass::kIndexQuery, "msAuthorIdx"});
    all.push_back({"invariant", MetricClass::kCheck, ""});
    return all;
  }();
  return kAll;
}

const char* const kSecondaryIndexes[] = {"uSinceIdx", "msTimestampIdx",
                                         "msAuthorIdx"};

/// Everything a workload's size depends on. See README.md for why.
struct Scale {
  int64_t users = 20000;
  int64_t messages = 40000;
  SuiteShape shape;
  int setup_reps = 3;
  /// Analytics: suite passes per run. Each pass also carries inserts into
  /// Inbox and one round of the dashboards, so their samples spread over
  /// the whole run.
  int passes = 0;
  int inserts_per_pass = 4;
  /// oltp_mix: closed-loop clients, requests per client, authors each
  /// client owns, and suite passes after the mix.
  int clients = 4;
  int64_t requests_per_client = 0;
  int owned_authors = 50;
  int post_passes = 5;
  int insert_batch = 20;
};

Scale ScaleFor(const RunOptions& o) {
  Scale s;
  // Every run does a fixed amount of work sized from --seconds, so that it
  // lasts about that long on the reference machine (README.md): passes or
  // requests per nominal second, never work until a deadline. A faster
  // engine finishes sooner; with a deadline it would ingest more and then
  // measure a larger database.
  auto per_second = [&](double rate) {
    return std::max<int64_t>(3, std::lround(o.seconds * rate));
  };
  s.passes = static_cast<int>(
      per_second(o.workload == "analytics_column" ? 0.6 : 1.0));
  s.requests_per_client = per_second(150);
  if (o.tiny) {
    s.users = 600;
    s.messages = 1200;
    s.shape = {30, 20, 120, 30, 200, 2};
    s.setup_reps = 1;
    s.passes = 2;
    s.inserts_per_pass = 2;
    s.requests_per_client = 40;
    s.owned_authors = 5;
    s.post_passes = 1;
  }
  return s;
}

asterix::api::InstanceConfig MakeConfig(const std::string& dir, bool oltp) {
  asterix::api::InstanceConfig c;
  c.base_dir = dir;
  c.cluster.num_nodes = 2;
  c.cluster.partitions_per_node = 2;
  // The default models a real cluster's per-job RPC with a sleep; it is not
  // work the engine does.
  c.cluster.job_startup_us = 0;
  c.cluster.op_memory_budget_bytes = 0;
  c.cluster.slow_query_us = 0;
  if (oltp) {
    // Small memory components so flush and merge cycle many times; a
    // result cache smaller than the set of distinct results; an admission
    // pool large enough that no job waits or is rejected.
    c.lsm.mem_budget_bytes = 128u << 10;
    c.result_cache_bytes = 1u << 20;
    c.cluster.cluster_memory_pool_bytes = 1ull << 30;
  }
  return c;
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// CPU time of the calling thread or of the whole process, in milliseconds.
/// With the hypervisor's steal accounting, these clocks do not advance while
/// a virtual CPU waits for the host, which wall time does.
double CpuMs(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      uint64_t n = it->file_size(size_ec);
      if (!size_ec) total += n;
    }
  }
  return total;
}

/// Per-layer sums gathered by the traced run, per client then merged.
struct LayerAcc {
  // Samples of the calls the traced run times itself; reported as medians,
  // since the first call into a layer pays its one-time initialisation.
  std::vector<double> parse_us;
  std::vector<double> compile_us;
  std::vector<double> lookup_us;
  uint64_t phase_us[5] = {};
  uint64_t profiles = 0;
  uint64_t cpu_us = 0;
  uint64_t wait_us = 0;
  uint64_t bytes_read = 0;
  uint64_t batches = 0;
  uint64_t kernel_us = 0;
  uint64_t vec_selected = 0;
  uint64_t vec_total = 0;
  uint64_t index_lookup_pages = 0;
  uint64_t index_lookups = 0;
  std::set<int> index_plans;

  void Merge(const LayerAcc& o) {
    parse_us.insert(parse_us.end(), o.parse_us.begin(), o.parse_us.end());
    compile_us.insert(compile_us.end(), o.compile_us.begin(),
                      o.compile_us.end());
    lookup_us.insert(lookup_us.end(), o.lookup_us.begin(), o.lookup_us.end());
    for (int i = 0; i < 5; ++i) phase_us[i] += o.phase_us[i];
    profiles += o.profiles;
    cpu_us += o.cpu_us;
    wait_us += o.wait_us;
    bytes_read += o.bytes_read;
    batches += o.batches;
    kernel_us += o.kernel_us;
    vec_selected += o.vec_selected;
    vec_total += o.vec_total;
    index_lookup_pages += o.index_lookup_pages;
    index_lookups += o.index_lookups;
    index_plans.insert(o.index_plans.begin(), o.index_plans.end());
  }
};

/// Samples per template.
using Samples = std::vector<std::vector<double>>;

/// One closed-loop client: its wall-clock and CPU-time samples per template,
/// its operation counts, and (traced run) its per-layer sums.
struct Client {
  std::string id = "client-0";
  Samples latency_ms = Samples(AllTemplates().size());
  Samples cpu_ms = Samples(AllTemplates().size());
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool wrong = false;
  /// Layer sums are gathered only in a workload's main phase.
  bool gather = false;
  LayerAcc acc;
  std::vector<std::string> errors;

  void Note(const std::string& what) {
    if (errors.size() < 5) errors.push_back(what);
  }
  void Merge(const Client& o) {
    for (size_t t = 0; t < latency_ms.size(); ++t) {
      latency_ms[t].insert(latency_ms[t].end(), o.latency_ms[t].begin(),
                           o.latency_ms[t].end());
      cpu_ms[t].insert(cpu_ms[t].end(), o.cpu_ms[t].begin(), o.cpu_ms[t].end());
    }
    attempted += o.attempted;
    failed += o.failed;
    wrong = wrong || o.wrong;
    acc.Merge(o.acc);
    for (const auto& e : o.errors) Note(e);
  }
};

/// A fresh instance's lifetime and the calls the benchmark makes into it.
class Runner {
 public:
  Runner(AsterixInstance* db, Tracer* tracer, bool single_client)
      : db_(db), tracer_(tracer), single_client_(single_client) {}

  /// Runs one operation through Execute() or Serve(), times it, checks its
  /// answer and, in the traced run, records spans and per-layer sums. Its
  /// CPU time is the calling thread's (parse, compile, result) plus every
  /// operator instance of the job it ran; a cached or coalesced answer ran
  /// no job of its own.
  void Run(Client* c, const Op& op, bool serve) {
    const uint64_t request = next_request_.fetch_add(1);
    const bool trace = tracer_->enabled();
    const bool is_insert = op.tmpl == kTmplInsert;
    const int64_t root = trace ? tracer_->NewId() : 0;
    const double root_start = trace ? tracer_->NowUs() : 0;
    if (trace) TraceLayerCalls(c, op, root, request, is_insert);

    static asterix::metrics::Counter* const pages =
        asterix::metrics::MetricsRegistry::Default().GetCounter(
            "storage.column.pages_read");
    const uint64_t pages_before = trace ? pages->value() : 0;
    const double call_start = trace ? tracer_->NowUs() : 0;
    asterix::api::ServeOptions sopts;
    sopts.client_id = c->id;
    const double cpu_start = CpuMs(CLOCK_THREAD_CPUTIME_ID);
    auto t0 = Clock::now();
    auto r = serve ? db_->Serve(op.aql, sopts) : db_->Execute(op.aql);
    double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
    double cpu_ms = CpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
    const uint64_t pages_after = trace ? pages->value() : 0;
    const bool ran_job = r.ok() && !r.value().from_cache &&
                         !r.value().coalesced && r.value().stats.profile;
    if (ran_job) {
      for (const auto& s : r.value().stats.profile->spans) {
        cpu_ms += static_cast<double>(s.cpu_us) / 1000;
      }
    }

    ++c->attempted;
    std::string why;
    if (!r.ok()) {
      ++c->failed;
      c->Note(AllTemplates()[static_cast<size_t>(op.tmpl)].name + ": " +
              r.status().ToString());
    } else if (!CheckAnswer(op.expected, r.value().values, &why)) {
      ++c->failed;
      c->wrong = true;
      c->Note(AllTemplates()[static_cast<size_t>(op.tmpl)].name + ": " + why);
    } else {
      c->latency_ms[static_cast<size_t>(op.tmpl)].push_back(ms);
      c->cpu_ms[static_cast<size_t>(op.tmpl)].push_back(cpu_ms);
    }
    if (!trace) return;

    const double call_end = tracer_->NowUs();
    const int64_t call = tracer_->NewId();
    tracer_->Add(call, root, request, serve ? "api.Serve" : "api.Execute",
                 call_start, call_end);
    tracer_->Add(root, 0, request,
                 "request." + AllTemplates()[static_cast<size_t>(op.tmpl)].name,
                 root_start, call_end);
    // A cached or coalesced answer carries the profile of the execution it
    // came from; it did no engine work of its own.
    if (!ran_job) return;
    const auto& profile = *r.value().stats.profile;
    tracer_->AddProfile(call, request, call_start, profile);
    if (!c->gather) return;
    LayerAcc& a = c->acc;
    const auto& ph = profile.phases;
    const uint64_t phases[5] = {ph.parse_us, ph.optimize_us, ph.admission_us,
                                ph.execute_us, ph.result_us};
    for (int i = 0; i < 5; ++i) a.phase_us[i] += phases[i];
    ++a.profiles;
    uint64_t primary_lookups = 0;
    for (const auto& s : profile.spans) {
      a.cpu_us += s.cpu_us;
      a.wait_us += s.input_wait_us + s.output_wait_us;
      a.bytes_read += s.bytes_read;
      a.batches += s.batches;
      a.kernel_us += s.kernel_us;
      a.vec_selected += s.vec_rows_selected;
      a.vec_total += s.vec_rows_total;
      if (s.op_name.find(".primary)") != std::string::npos) {
        primary_lookups += s.tuples_in;
      }
    }
    // Pages per primary lookup inside index plans: the registry delta is
    // attributable to this request only when no other client runs.
    if (single_client_ &&
        !AllTemplates()[static_cast<size_t>(op.tmpl)].index.empty()) {
      a.index_lookup_pages += pages_after - pages_before;
      a.index_lookups += primary_lookups;
    }
  }

 private:
  /// Traced run only: times the layers' public functions on the request
  /// text, outside the measured call.
  void TraceLayerCalls(Client* c, const Op& op, int64_t root, uint64_t request,
                       bool is_insert) {
    LayerAcc& a = c->acc;
    asterix::aql::ParserContext ctx;
    double t0 = tracer_->NowUs();
    auto parsed = asterix::aql::ParseAql(op.aql, &ctx);
    double t1 = tracer_->NowUs();
    tracer_->Add(tracer_->NewId(), root, request, "aql.ParseAql", t0, t1);
    if (c->gather && parsed.ok()) a.parse_us.push_back(t1 - t0);
    if (!is_insert) {
      auto plan = db_->Explain(op.aql);
      double t2 = tracer_->NowUs();
      tracer_->Add(tracer_->NewId(), root, request, "algebricks.Explain", t1,
                   t2);
      if (c->gather && plan.ok()) {
        a.compile_us.push_back((t2 - t1) - (t1 - t0));
        for (const char* ix : kSecondaryIndexes) {
          if (plan.value().job_plan.find(std::string("btree-search(") + ix) !=
              std::string::npos) {
            a.index_plans.insert(op.tmpl);
          }
        }
      }
    }
    if (op.lookup_key >= 0) {
      bool found = false;
      Value record;
      double t3 = tracer_->NowUs();
      auto st = db_->FindDataset(kUsers)->PointLookup(
          {Value::Int64(op.lookup_key)}, &found, &record);
      double t4 = tracer_->NowUs();
      tracer_->Add(tracer_->NewId(), root, request,
                   "storage.PartitionedDataset.PointLookup", t3, t4);
      if (c->gather && st.ok() && found) a.lookup_us.push_back(t4 - t3);
    }
  }

  AsterixInstance* db_;
  Tracer* tracer_;
  const bool single_client_;
  std::atomic<uint64_t> next_request_{1};
};

/// Boots an instance, creates the schema, bulk-loads and flushes: the
/// set-up that setup_s times.
std::unique_ptr<AsterixInstance> SetUp(const std::string& dir, const Data& data,
                                       bool column, bool oltp,
                                       std::string* error) {
  std::filesystem::remove_all(dir);
  auto db = std::make_unique<AsterixInstance>(MakeConfig(dir, oltp));
  auto fail = [&](const std::string& what, const asterix::Status& st) {
    *error = what + ": " + st.ToString();
    return nullptr;
  };
  if (auto st = db->Boot(); !st.ok()) return fail("boot", st);
  auto ddl = db->Execute(SchemaDdl(column));
  if (!ddl.ok()) return fail("ddl", ddl.status());
  if (auto st = db->FindDataset(kUsers)->LoadBulk(data.users); !st.ok()) {
    return fail("load users", st);
  }
  if (auto st = db->FindDataset(kMessages)->LoadBulk(data.messages);
      !st.ok()) {
    return fail("load messages", st);
  }
  if (auto st = db->FlushAll(); !st.ok()) return fail("flush", st);
  return db;
}

/// Registry scalars (counters, gauges, histogram .count/.sum) and buffer
/// cache counts at one instant.
struct Snapshot {
  std::map<std::string, int64_t> scalars;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  static Snapshot Take(AsterixInstance* db) {
    Snapshot s;
    s.scalars = asterix::metrics::MetricsRegistry::Default().SnapshotScalars();
    s.cache_hits = db->buffer_cache()->hits();
    s.cache_misses = db->buffer_cache()->misses();
    return s;
  }
  double Get(const std::string& name) const {
    auto it = scalars.find(name);
    return it == scalars.end() ? 0 : static_cast<double>(it->second);
  }
};

size_t DiskComponents(AsterixInstance* db) {
  size_t n = 0;
  for (const char* name : {kUsers, kMessages, kInbox}) {
    auto* ds = db->FindDataset(name);
    for (uint32_t p = 0; p < ds->num_partitions(); ++p) {
      n += ds->partition(p)->PrimaryComponents();
    }
  }
  return n;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Machine-wide CPU ticks: {steal, total}, from /proc/stat. On a shared
/// virtual machine, time the hypervisor gives to other guests stretches
/// every wall-clock figure; the run reports its share on stderr.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t total = 0;
  for (auto x : v) total += x;
  return {v[7], total};
}

/// What a workload hands to the metric assembly.
struct Outcome {
  std::vector<double> setup_s;
  Client all;
  uint64_t main_ops = 0;
  double main_wall_s = 0;
  double main_cpu_ms = 0;
  uint64_t disk_bytes = 0;
  size_t disk_components = 0;
  uint64_t records_written = 0;
  Snapshot before, after;
  std::pair<uint64_t, uint64_t> ticks_before, ticks_after;
};

/// Geometric mean of the class's per-template medians.
double ClassMetric(const Samples& s, MetricClass cls) {
  std::vector<double> medians;
  for (size_t t = 0; t < AllTemplates().size(); ++t) {
    if (AllTemplates()[t].cls == cls && !s[t].empty()) {
      medians.push_back(Median(s[t]));
    }
  }
  return GeoMean(medians);
}

/// The seven per-class figures, from wall-clock or CPU-time samples, with
/// the metric name stems they are reported under.
std::vector<std::pair<std::string, double>> ClassFigures(const Samples& s,
                                                         bool oltp) {
  auto median = [&](int tmpl) { return Median(s[static_cast<size_t>(tmpl)]); };
  // oltp_mix also runs the suite after the mix; its lookups and indexed
  // templates do not count here.
  return {
      {"lookup", median(oltp ? kTmplProfile : 0)},
      {"index_query", oltp ? median(kTmplTimeline)
                           : ClassMetric(s, MetricClass::kIndexQuery)},
      {"scan_query", ClassMetric(s, MetricClass::kScanQuery)},
      {"join", ClassMetric(s, MetricClass::kJoin)},
      {"join_ix", ClassMetric(s, MetricClass::kJoinIx)},
      {"insert", median(kTmplInsert)},
      {"dashboard", median(kTmplDashboard)},
  };
}

void EndToEndMetrics(const Outcome& o, bool oltp, std::vector<Metric>* m) {
  m->push_back({"setup_s", Median(o.setup_s), "s"});
  m->push_back({"disk_mb", static_cast<double>(o.disk_bytes) / (1 << 20),
                "MiB"});
  m->push_back({"cpu_ms_per_op",
                Ratio(o.main_cpu_ms, static_cast<double>(o.main_ops)), "ms"});
  for (const auto& [stem, v] : ClassFigures(o.all.cpu_ms, oltp)) {
    m->push_back({stem + "_cpu_ms", v, "ms"});
  }
}

/// Wall-clock figures of the measured phase.
void WallMetrics(const Outcome& o, bool oltp, std::vector<Metric>* m) {
  m->push_back({"wall.ops_per_s",
                Ratio(static_cast<double>(o.main_ops), o.main_wall_s),
                "ops/s"});
  for (const auto& [stem, v] : ClassFigures(o.all.latency_ms, oltp)) {
    m->push_back({"wall." + stem + "_ms", v, "ms"});
  }
}

void PerLayerMetrics(const Outcome& o, size_t spans, std::vector<Metric>* m) {
  // Insert tail latency: the highest of these percentiles that has at least
  // ten samples beyond it (p99 on oltp_mix). Too noisy on a shared machine
  // to hold within an end-to-end bound, so it is reported here.
  // With too few samples for any tail, it falls back to the median.
  const auto& inserts = o.all.latency_ms[kTmplInsert];
  double tail_pct = 50;
  double tail_ms = Median(inserts);
  for (double p : {0.99, 0.95, 0.9, 0.75}) {
    if (auto v = TailPercentile(inserts, p)) {
      tail_pct = p * 100;
      tail_ms = *v;
      break;
    }
  }
  m->push_back({"insert_tail_ms", tail_ms, "ms"});
  m->push_back({"insert_tail_pct", tail_pct, "%"});
  const LayerAcc& a = o.all.acc;
  const Snapshot& b = o.before;
  const Snapshot& e = o.after;
  auto d = [&](const std::string& name) { return e.Get(name) - b.Get(name); };
  const double ops = static_cast<double>(std::max<uint64_t>(o.main_ops, 1));
  const double profiles = static_cast<double>(std::max<uint64_t>(a.profiles, 1));
  auto per_op = [&](double v) { return v / ops; };

  m->push_back({"aql.parse_us", Median(a.parse_us), "us"});
  m->push_back({"algebricks.compile_us", Median(a.compile_us), "us"});
  m->push_back({"algebricks.index_plans",
                static_cast<double>(a.index_plans.size()), "templates"});
  const char* phase_names[5] = {"parse", "optimize", "admission", "execute",
                                "result"};
  for (int i = 0; i < 5; ++i) {
    m->push_back({std::string("api.phase.") + phase_names[i] + "_us",
                  static_cast<double>(a.phase_us[i]) / profiles, "us/query"});
  }
  m->push_back({"api.queries_profiled", static_cast<double>(a.profiles),
                "queries"});
  m->push_back({"hyracks.cpu_us", per_op(d("hyracks.cpu_us")), "us/op"});
  m->push_back({"hyracks.wait_us", static_cast<double>(a.wait_us) / profiles,
                "us/query"});
  m->push_back({"hyracks.connector_tuples",
                per_op(d("hyracks.connector_tuples")), "tuples/op"});
  m->push_back({"hyracks.network_tuples", per_op(d("hyracks.network_tuples")),
                "tuples/op"});
  m->push_back({"hyracks.hash_build_bytes",
                per_op(d("hyracks.hash_build_bytes")), "bytes/op"});
  m->push_back({"hyracks.spill_bytes", d("hyracks.spill_bytes"), "bytes"});
  m->push_back({"hyracks.pool_threads_created",
                d("hyracks.pool_threads_created"), "threads"});
  m->push_back({"vector.batches", static_cast<double>(a.batches) / profiles,
                "batches/query"});
  m->push_back({"vector.kernel_us", static_cast<double>(a.kernel_us) / profiles,
                "us/query"});
  m->push_back({"vector.selected_ratio",
                Ratio(static_cast<double>(a.vec_selected),
                      static_cast<double>(a.vec_total)),
                "ratio"});
  m->push_back({"vector.rows_carried",
                static_cast<double>(a.vec_total) / profiles, "rows/query"});
  m->push_back({"storage.lookup_us", Median(a.lookup_us), "us"});
  m->push_back({"storage.bytes_read_per_op",
                per_op(static_cast<double>(a.bytes_read)), "bytes/op"});
  const double hits = static_cast<double>(e.cache_hits - b.cache_hits);
  const double misses = static_cast<double>(e.cache_misses - b.cache_misses);
  m->push_back({"storage.cache.hit_ratio", Ratio(hits, hits + misses), "ratio"});
  m->push_back({"storage.cache.page_gets", per_op(hits + misses), "pages/op"});
  const double fps = d("storage.bloom.false_positives");
  const double negatives = d("storage.bloom.misses");
  m->push_back({"storage.bloom.false_positive_ratio",
                Ratio(fps, fps + negatives), "ratio"});
  m->push_back({"storage.bloom.absent_probes", per_op(fps + negatives),
                "probes/op"});
  m->push_back({"storage.lsm.flushes", d("storage.lsm.flushes"), "flushes"});
  m->push_back({"storage.lsm.merges", d("storage.lsm.merges"), "merges"});
  m->push_back({"storage.lsm.flush_us", d("storage.lsm.flush_us.sum"), "us"});
  m->push_back({"storage.lsm.merge_us", d("storage.lsm.merge_us.sum"), "us"});
  m->push_back({"storage.lsm.write_stall_us",
                d("storage.lsm.write_stall_us.sum"), "us"});
  m->push_back({"storage.compaction.flush_wait_us",
                d("storage.compaction.flush_wait_us.sum"), "us"});
  m->push_back({"storage.compaction.merge_wait_us",
                d("storage.compaction.merge_wait_us.sum"), "us"});
  const double ingested = d("storage.lsm.bytes_ingested");
  m->push_back({"storage.lsm.write_amp",
                Ratio(d("storage.lsm.bytes_flushed") +
                          d("storage.lsm.bytes_merged"),
                      ingested),
                "ratio"});
  m->push_back({"storage.lsm.bytes_ingested", ingested, "bytes"});
  m->push_back({"storage.disk_components",
                static_cast<double>(o.disk_components), "components"});
  m->push_back({"column.pages_read_per_op",
                per_op(d("storage.column.pages_read")), "pages/op"});
  m->push_back({"column.bytes_read", per_op(d("storage.column.bytes_read")),
                "bytes/op"});
  m->push_back({"column.bytes_skipped",
                per_op(d("storage.column.bytes_skipped")), "bytes/op"});
  m->push_back({"column.row_groups_pruned",
                per_op(d("storage.column.row_groups_pruned")), "groups/op"});
  m->push_back({"column.pages_pruned_minmax",
                per_op(d("storage.column.pages_pruned_minmax")), "pages/op"});
  m->push_back({"column.pages_per_lookup",
                Ratio(static_cast<double>(a.index_lookup_pages),
                      static_cast<double>(a.index_lookups)),
                "pages/lookup"});
  m->push_back({"column.index_lookups", static_cast<double>(a.index_lookups),
                "lookups"});
  const double records = static_cast<double>(o.records_written);
  m->push_back({"txn.wal.bytes_per_record", Ratio(d("txn.wal.bytes"), records),
                "bytes/record"});
  m->push_back({"txn.records_written", records, "records"});
  m->push_back({"txn.wal.forced_flushes", d("txn.wal.forced_flushes"),
                "flushes"});
  m->push_back({"txn.wal.group_commit_batch",
                Ratio(d("txn.wal.group_commit_batch.sum"),
                      d("txn.wal.group_commit_batch.count")),
                "commits/flush"});
  m->push_back({"txn.lock.waits", d("txn.lock.waits"), "waits"});
  m->push_back({"txn.lock.wait_us", d("txn.lock.wait_us.sum"), "us"});
  const double cache_hits = d("server.cache.hits");
  const double cache_lookups = cache_hits + d("server.cache.misses");
  m->push_back({"server.cache.hit_ratio", Ratio(cache_hits, cache_lookups),
                "ratio"});
  m->push_back({"server.cache.lookups", cache_lookups, "lookups"});
  m->push_back({"server.coalesce.followers", d("server.coalesce.followers"),
                "requests"});
  m->push_back({"server.admission.wait_us", d("server.admission.wait_us.sum"),
                "us"});
  m->push_back({"trace.spans", static_cast<double>(spans), "spans"});
}

/// End-of-run invariants: the count by a scan query and the entry count of
/// each secondary index agree with the model, and every inserted message is
/// found by its key in `inserted_into`. Index entries are counted in
/// storage: a count query through an index would also look up every record,
/// which on columnar data costs seconds per index.
void CheckInvariants(Runner* runner, Client* c, AsterixInstance* db,
                     int64_t users, int64_t messages, int64_t inbox,
                     const char* inserted_into,
                     const std::vector<int64_t>& inserted) {
  const std::pair<const char*, int64_t> datasets[] = {
      {kUsers, users}, {kMessages, messages}, {kInbox, inbox}};
  for (const auto& [name, n] : datasets) {
    Op op;
    op.tmpl = kTmplCheck;
    op.aql = std::string("count(for $r in dataset ") + name + " return $r)";
    op.expected.kind = Expected::Kind::kCount;
    op.expected.count = static_cast<uint64_t>(n);
    runner->Run(c, op, /*serve=*/false);
  }
  auto fail = [&](const std::string& what) {
    ++c->failed;
    c->wrong = true;
    c->Note(what);
  };
  const std::tuple<const char*, const char*, int64_t> indexes[] = {
      {kUsers, "uSinceIdx", users},
      {kMessages, "msTimestampIdx", messages},
      {kMessages, "msAuthorIdx", messages},
      {kInbox, "inTimestampIdx", inbox},
      {kInbox, "inAuthorIdx", inbox}};
  for (const auto& [dataset, index, n] : indexes) {
    ++c->attempted;
    auto* ds = db->FindDataset(dataset);
    int64_t entries = 0;
    bool ok = true;
    for (uint32_t p = 0; p < ds->num_partitions() && ok; ++p) {
      ok = ds->partition(p)
               ->SecondaryRangeScan(index, {},
                                    [&](const asterix::storage::IndexEntry&) {
                                      ++entries;
                                      return asterix::Status::OK();
                                    })
               .ok();
    }
    if (!ok || entries != n) {
      fail(std::string(index) + " holds " + std::to_string(entries) +
           " entries, expected " + std::to_string(n));
    }
  }

  ++c->attempted;
  auto* ds = db->FindDataset(inserted_into);
  for (int64_t id : inserted) {
    bool found = false;
    Value record;
    auto st = ds->PointLookup({Value::Int64(id)}, &found, &record);
    if (!st.ok() || !found || record.GetField("message-id").AsInt() != id) {
      fail("inserted message " + std::to_string(id) + " not found by its key");
      break;
    }
  }
}

/// Runs `reps` set-ups, keeps the last instance, and records each time.
std::unique_ptr<AsterixInstance> TimedSetUps(const RunOptions& opts,
                                             const Scale& scale,
                                             const Data& data, bool column,
                                             bool oltp, Outcome* o,
                                             std::string* error) {
  std::unique_ptr<AsterixInstance> db;
  for (int i = 0; i < scale.setup_reps; ++i) {
    db.reset();
    auto t0 = Clock::now();
    db = SetUp(opts.work_dir + "/instance", data, column, oltp, error);
    if (!db) return nullptr;
    o->setup_s.push_back(SecondsSince(t0));
  }
  return db;
}

/// Runs one untimed pass before the measured phase, so that page caches,
/// the result cache and lazily built state are warm for every seed alike.
/// Its answers are still checked and its operations still counted.
void WarmUp(Runner* runner, const std::vector<Op>& ops, Client* into) {
  Client warm;
  warm.id = into->id;
  for (const Op& op : ops) runner->Run(&warm, op, op.tmpl == kTmplDashboard);
  into->attempted += warm.attempted;
  into->failed += warm.failed;
  into->wrong = into->wrong || warm.wrong;
  for (const auto& e : warm.errors) into->Note(e);
}

/// One insert statement of `batch` new messages by `author` into `dataset`,
/// with ids from `first_id`; the generated rows are appended to `rows`.
Op MakeInsert(const char* dataset, int64_t first_id, int batch, int64_t author,
              Rng* rng, std::vector<MessageRow>* rows) {
  std::vector<Value> records;
  for (int i = 0; i < batch; ++i) {
    MessageRow row;
    records.push_back(MakeMessage(first_id + i, author, rng, &row));
    rows->push_back(row);
  }
  Op op;
  op.tmpl = kTmplInsert;
  op.aql = InsertStatement(dataset, records);
  return op;
}

bool RunAnalytics(const RunOptions& opts, const Scale& scale, bool column,
                  Tracer* tracer, Outcome* o, std::string* error) {
  Data data = Generate(opts.seed, scale.users, scale.messages);
  Model model(data);
  Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 17);
  const std::vector<Op> dashboards = MakeDashboards(model, kTmplDashboard);
  // A pass: the suite, then inserts into Inbox, then the Users dashboards,
  // which the inserts do not invalidate.
  std::vector<std::vector<Op>> passes;
  std::vector<MessageRow> inserted_rows;
  for (int i = 0; i < scale.passes; ++i) {
    auto pass =
        MakeSuitePass(model, scale.shape, scale.users, scale.messages, &rng);
    for (int k = 0; k < scale.inserts_per_pass; ++k) {
      pass.push_back(MakeInsert(
          kInbox, static_cast<int64_t>(inserted_rows.size()),
          scale.insert_batch, rng.Uniform(0, scale.users - 1), &rng,
          &inserted_rows));
    }
    pass.insert(pass.end(), dashboards.begin(), dashboards.end());
    passes.push_back(std::move(pass));
  }
  if (opts.corrupt_one_answer) passes[0][0].expected.user.name += "x";
  std::vector<Op> warm_up =
      MakeSuitePass(model, scale.shape, scale.users, scale.messages, &rng);
  warm_up.insert(warm_up.end(), dashboards.begin(), dashboards.end());

  auto db = TimedSetUps(opts, scale, data, column, false, o, error);
  if (!db) return false;
  data = Data();  // the model holds what the checks need

  Runner runner(db.get(), tracer, /*single_client=*/true);
  Client& c = o->all;
  WarmUp(&runner, warm_up, &c);
  c.gather = true;
  o->before = Snapshot::Take(db.get());
  o->ticks_before = CpuTicks();
  const double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
  auto t0 = Clock::now();
  for (const auto& pass : passes) {
    for (const Op& op : pass) {
      runner.Run(&c, op, /*serve=*/op.tmpl == kTmplDashboard);
      ++o->main_ops;
    }
  }
  o->main_wall_s = SecondsSince(t0);
  o->main_cpu_ms = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  o->ticks_after = CpuTicks();
  o->disk_components = DiskComponents(db.get());
  o->after = Snapshot::Take(db.get());
  c.gather = false;
  o->records_written = inserted_rows.size();

  if (auto st = db->FlushAll(); !st.ok()) {
    *error = "flush: " + st.ToString();
    return false;
  }
  o->disk_bytes = DirBytes(opts.work_dir + "/instance");
  std::vector<int64_t> inserted;
  for (const auto& r : inserted_rows) inserted.push_back(r.id);
  CheckInvariants(&runner, &c, db.get(), scale.users, scale.messages,
                  static_cast<int64_t>(inserted.size()), kInbox, inserted);
  return true;
}

bool RunOltp(const RunOptions& opts, const Scale& scale, Tracer* tracer,
             Outcome* o, std::string* error) {
  Data data = Generate(opts.seed, scale.users, scale.messages);
  Model model(data);
  std::vector<Op> dashboards = MakeDashboards(model, kTmplDashboard);

  // Fixed request lists. Client k owns authors k, k + clients, ...; only it
  // writes them, so its own record of what it wrote gives each timeline's
  // expected answer.
  std::vector<std::vector<Op>> lists(static_cast<size_t>(scale.clients));
  std::vector<MessageRow> inserted_rows;
  for (int k = 0; k < scale.clients; ++k) {
    Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 101 + static_cast<uint64_t>(k));
    std::map<int64_t, std::vector<int64_t>> own;  // author -> message ids
    std::vector<int64_t> owned;
    for (int j = 0; j < scale.owned_authors; ++j) {
      owned.push_back(k + int64_t{j} * scale.clients);
      own[owned.back()];
    }
    for (const MessageRow& m : data.message_rows) {
      if (own.count(m.author)) own[m.author].push_back(m.id);
    }
    int64_t next_id = int64_t{1000000} * (k + 1);
    for (int64_t i = 0; i < scale.requests_per_client; ++i) {
      int64_t roll = rng.Uniform(0, 99);
      Op op;
      if (roll < 40) {
        int64_t id = rng.Uniform(0, scale.users - 1);
        op.tmpl = kTmplProfile;
        op.aql = UserLookupQuery(id);
        op.expected = model.UserLookup(id);
        op.lookup_key = id;
      } else if (roll < 70) {
        int64_t author = owned[static_cast<size_t>(
            rng.Uniform(0, scale.owned_authors - 1))];
        op.tmpl = kTmplTimeline;
        op.aql = TimelineQuery(author);
        op.expected.kind = Expected::Kind::kIdList;
        const auto& ids = own[author];
        for (auto it = ids.rbegin(); it != ids.rend() && op.expected.ids.size() < 10;
             ++it) {
          op.expected.ids.push_back(*it);
        }
      } else if (roll < 90) {
        int64_t author = owned[static_cast<size_t>(
            rng.Uniform(0, scale.owned_authors - 1))];
        size_t before = inserted_rows.size();
        op = MakeInsert(kMessages, next_id, scale.insert_batch, author, &rng,
                        &inserted_rows);
        next_id += scale.insert_batch;
        for (size_t r = before; r < inserted_rows.size(); ++r) {
          own[author].push_back(inserted_rows[r].id);
        }
      } else {
        op = dashboards[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(dashboards.size()) - 1))];
      }
      lists[static_cast<size_t>(k)].push_back(std::move(op));
    }
  }
  Rng suite_rng(opts.seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<Op> warm_up = MakeSuitePass(model, scale.shape, scale.users,
                                          scale.messages, &suite_rng);
  warm_up.insert(warm_up.end(), dashboards.begin(), dashboards.end());
  // After the mix: Table 3 passes over the database the mix has grown.
  std::vector<int64_t> inserted;
  for (const auto& r : inserted_rows) {
    model.AddMessage(r);
    inserted.push_back(r.id);
  }
  std::vector<Op> post;
  for (int i = 0; i < scale.post_passes; ++i) {
    auto pass = MakeSuitePass(model, scale.shape, scale.users, scale.messages,
                              &suite_rng);
    post.insert(post.end(), pass.begin(), pass.end());
  }

  auto db = TimedSetUps(opts, scale, data, false, true, o, error);
  if (!db) return false;
  data = Data();

  Runner runner(db.get(), tracer, /*single_client=*/false);
  WarmUp(&runner, warm_up, &o->all);
  std::vector<Client> clients(static_cast<size_t>(scale.clients));
  o->before = Snapshot::Take(db.get());
  o->ticks_before = CpuTicks();
  const double cpu0 = CpuMs(CLOCK_PROCESS_CPUTIME_ID);
  auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int k = 0; k < scale.clients; ++k) {
      Client& c = clients[static_cast<size_t>(k)];
      c.id = "client-" + std::to_string(k);
      c.gather = true;
      threads.emplace_back([&runner, &c, &list = lists[static_cast<size_t>(k)]] {
        for (const Op& op : list) runner.Run(&c, op, /*serve=*/true);
      });
    }
    for (auto& t : threads) t.join();
  }
  o->main_wall_s = SecondsSince(t0);
  o->main_cpu_ms = CpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  o->ticks_after = CpuTicks();
  o->disk_components = DiskComponents(db.get());
  o->after = Snapshot::Take(db.get());
  for (Client& c : clients) {
    o->main_ops += c.attempted;
    c.gather = false;
    o->all.Merge(c);
  }
  o->records_written = inserted.size();

  Runner post_runner(db.get(), tracer, /*single_client=*/true);
  for (const Op& op : post) post_runner.Run(&o->all, op, /*serve=*/false);
  if (auto st = db->FlushAll(); !st.ok()) {
    *error = "flush: " + st.ToString();
    return false;
  }
  o->disk_bytes = DirBytes(opts.work_dir + "/instance");
  CheckInvariants(&post_runner, &o->all, db.get(), scale.users,
                  scale.messages + static_cast<int64_t>(inserted.size()), 0,
                  kMessages, inserted);
  return true;
}

}  // namespace

void PinEngineEnvironment() {
  // Unbounded operator memory, background compaction on, no slow-query log,
  // the journal's default ring size.
  setenv("ASTERIX_OP_MEMORY_BUDGET", "0", 1);
  setenv("ASTERIX_INGEST_SYNC", "0", 1);
  setenv("ASTERIX_SLOW_QUERY_US", "0", 1);
  setenv("ASTERIX_JOURNAL_EVENTS", "65536", 1);
}

bool RunWorkload(const RunOptions& opts, RunResult* out, std::string* error) {
  const bool oltp = opts.workload == "oltp_mix";
  if (!oltp && opts.workload != "analytics_row" &&
      opts.workload != "analytics_column") {
    *error = "unknown workload: " + opts.workload;
    return false;
  }
  std::filesystem::remove_all(opts.work_dir);
  std::filesystem::create_directories(opts.work_dir);
  const Scale scale = ScaleFor(opts);
  Tracer tracer(opts.trace);
  Outcome o;
  bool ok = oltp ? RunOltp(opts, scale, &tracer, &o, error)
                 : RunAnalytics(opts, scale, opts.workload == "analytics_column",
                                &tracer, &o, error);
  if (!ok) return false;
  for (const auto& e : o.all.errors) {
    std::fprintf(stderr, "failed operation: %s\n", e.c_str());
  }
  for (size_t t = 0; t < AllTemplates().size(); ++t) {
    const auto& v = o.all.latency_ms[t];
    if (v.empty() || AllTemplates()[t].cls == MetricClass::kCheck) continue;
    std::fprintf(stderr, "%-16s n=%-6zu median wall %.3f ms, cpu %.3f ms\n",
                 AllTemplates()[t].name.c_str(), v.size(), Median(v),
                 Median(o.all.cpu_ms[t]));
  }
  std::fprintf(stderr, "main phase %.2f s, cpu steal %.1f%%\n", o.main_wall_s,
               100 * Ratio(static_cast<double>(o.ticks_after.first -
                                               o.ticks_before.first),
                           static_cast<double>(o.ticks_after.second -
                                               o.ticks_before.second)));
  std::fprintf(stderr, "setup_s:");
  for (double s : o.setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");
  out->attempted = o.all.attempted;
  out->failed = o.all.failed;
  out->correct = !o.all.wrong;
  std::vector<Metric> wall;
  WallMetrics(o, oltp, &wall);
  for (const auto& m : wall) {
    std::fprintf(stderr, "%s %.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  if (opts.trace) {
    PerLayerMetrics(o, tracer.size(), &out->metrics);
    out->metrics.insert(out->metrics.end(), wall.begin(), wall.end());
    std::string path = opts.work_dir + "/trace-" + opts.workload + ".json";
    if (!tracer.Write(path)) {
      *error = "could not write " + path;
      return false;
    }
  } else {
    EndToEndMetrics(o, oltp, &out->metrics);
  }
  std::filesystem::remove_all(opts.work_dir + "/instance");
  return true;
}

}  // namespace perfbench
