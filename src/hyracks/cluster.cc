#include "hyracks/cluster.h"

#include <time.h>

#include <chrono>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "common/env.h"
#include "common/journal.h"
#include "common/ledger.h"
#include "common/metrics.h"
#include "hyracks/memory.h"

namespace asterix {
namespace hyracks {

size_t DefaultOpMemoryBudgetBytes() {
  const char* env = std::getenv("ASTERIX_OP_MEMORY_BUDGET");
  if (env == nullptr || *env == '\0') return 0;
  return static_cast<size_t>(std::strtoull(env, nullptr, 10));
}

int64_t DefaultSlowQueryUs() {
  const char* env = std::getenv("ASTERIX_SLOW_QUERY_US");
  if (env == nullptr || *env == '\0') return 0;
  return static_cast<int64_t>(std::strtoll(env, nullptr, 10));
}

namespace {

/// Per-connector traffic counters shared by all producer instances of the
/// connector (hence atomic). Producers accumulate in plain locals and flush
/// once per frame flush, so the cross-instance cache line is touched twice
/// per ~256 tuples instead of twice per tuple.
struct ConnCounters {
  std::atomic<uint64_t> tuples{0};
  std::atomic<uint64_t> network_tuples{0};
};

/// CPU time consumed by the calling thread, in microseconds. Read at every
/// hand-off between a pipeline's stages (per frame, never per tuple).
uint64_t ThreadCpuUs() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
}

/// Feeds one input port of a channel-fed head from its channel, frame by
/// frame, counting the tuples it takes in and the time it waits for them
/// into its span; stops at the first failure (its own or a fused stage's
/// behind `out`), then closes the port.
Status DrainChannel(InChannel* in, int port, PushOperator* op,
                    const Emitter* out, OperatorSpan* span) {
  Frame frame;
  while (true) {
    auto t0 = std::chrono::steady_clock::now();
    Result<bool> more = in->NextFrame(&frame);
    span->input_wait_us += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    span->tuples_in += frame.tuples.size();
    if (frame.batch != nullptr) span->tuples_in += frame.batch->sel.size();
    ASTERIX_RETURN_NOT_OK(op->Consume(port, frame));
    ASTERIX_RETURN_NOT_OK(out->status());
  }
  return op->Close(port);
}

class RoutingEmitter;

/// One operator instance of a pipeline: its head, or a one-input operator
/// fused behind a 1:1 connector and run on the head's thread.
struct Stage {
  const OperatorDescriptor* op = nullptr;
  OperatorSpan* span = nullptr;
  std::unique_ptr<RoutingEmitter> emitter;
  std::unique_ptr<PushOperator> push;  // null while running a source
  std::vector<Stage*> fused;  // consumers of its fused routes, route order
  bool ended = false;         // its channel routes have seen ProducerDone
};

/// The runtime of one pipeline instance, run start to end by one pool task:
/// 1:1 hand-offs inside it are plain calls on that task's thread, and every
/// microsecond of the thread's CPU is charged to the span of the stage
/// running at the time.
class Pipeline {
 public:
  explicit Pipeline(std::chrono::steady_clock::time_point job_start)
      : job_start_(job_start) {}
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Stages in pre-order: the head first, each stage before its consumers.
  std::vector<std::unique_ptr<Stage>> stages;
  /// The head's input channels by port.
  std::vector<InChannel*> inputs;

  /// Runs the head to its end, then closes the fused stages in order. On
  /// failure, fails every outgoing channel of the pipeline and cancels the
  /// head's inputs, so no producer or consumer stays blocked.
  Status Run();

  /// Hands a frame across a fused route to `s`, on this thread.
  void Deliver(Stage* s, Frame frame);

  /// The first failure of any stage (OK while none failed).
  const Status& failure() const { return failure_; }

 private:
  double SinceStartMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - job_start_)
        .count();
  }
  /// Charges the CPU used since the last switch to the current span and
  /// makes `next` current; returns the previous span.
  OperatorSpan* SwitchTo(OperatorSpan* next);
  /// Drains a channel-fed head's input ports in port order, each to its
  /// end: a join's build (port 0) before its probe (port 1).
  Status DrainInputs(Stage* head);
  void Fail(Stage* s, Status status);
  /// `s`'s input has ended and its operator has produced everything: ends
  /// its routes, then closes and ends its fused consumers.
  void End(Stage* s);

  std::chrono::steady_clock::time_point job_start_;
  OperatorSpan* charged_ = nullptr;
  uint64_t mark_us_ = 0;
  Status failure_;
};

/// Routes one operator instance's pushes through all of its outgoing
/// connectors — to the right destination channels, or straight into the
/// fused consumer of a 1:1 route — counting hops into the connector
/// counters and the instance's span.
class RoutingEmitter : public Emitter {
 public:
  struct Route {
    const ConnectorDescriptor* conn;
    // One channel per destination instance; empty on a fused route.
    std::vector<InChannel*> dst_channels;
    // Node of each destination instance (network accounting).
    std::vector<int> dst_nodes;
    ConnCounters* counters = nullptr;
    // The consumer running in this pipeline, when the route is fused.
    Stage* fused = nullptr;
  };

  RoutingEmitter(int src_instance, int src_node, std::vector<Route> routes,
                 OperatorSpan* span, MemoryBudget* budget, Pipeline* pipeline)
      : src_instance_(src_instance),
        src_node_(src_node),
        routes_(std::move(routes)),
        span_(span),
        budget_(budget),
        pipeline_(pipeline) {
    for (auto& r : routes_) {
      buffers_.emplace_back(r.fused != nullptr ? 1 : r.dst_channels.size());
    }
    pending_.resize(routes_.size());
  }

  void AddBytesRead(uint64_t n) override { span_->bytes_read += n; }

  MemoryBudget* memory_budget() override { return budget_; }

  void AddSpill(uint64_t bytes, uint64_t partitions) override {
    span_->spill_bytes += bytes;
    span_->spilled_partitions += partitions;
    journal::Journal::Default().Post(journal::EventKind::kSpill, bytes,
                                     partitions, span_->op_name.c_str());
  }

  void AddHashBuildBytes(uint64_t n) override {
    span_->hash_build_bytes += n;
  }

  void AddBatchStats(uint64_t batches, uint64_t rows_selected,
                     uint64_t rows_total) override {
    span_->batches += batches;
    span_->vec_rows_selected += rows_selected;
    span_->vec_rows_total += rows_total;
  }

  void AddKernelTime(uint64_t us) override { span_->kernel_us += us; }

  void AddFilterDropped(uint64_t n) override { span_->filter_dropped += n; }

  Status status() const override { return pipeline_->failure(); }

  /// The vectorized path: a 1:1-only route, fused or not, forwards the batch
  /// itself as a frame; any other topology needs per-tuple routing, so fall
  /// back to the base materializer (which calls Push per selected row).
  void PushBatch(
      std::shared_ptr<storage::column::ColumnBatch> batch) override {
    if (batch == nullptr || batch->sel.rows.empty()) return;
    if (routes_.empty()) {
      span_->tuples_out += batch->sel.size();
      return;
    }
    if (routes_.size() != 1 ||
        routes_[0].conn->type != ConnectorType::kOneToOne) {
      Emitter::PushBatch(std::move(batch));
      return;
    }
    size_t dst = static_cast<size_t>(src_instance_) % buffers_[0].size();
    span_->tuples_out += batch->sel.size();
    PendingCounts& pc = pending_[0];
    pc.tuples += batch->sel.size();
    if (routes_[0].dst_nodes[dst] != src_node_) {
      pc.network_tuples += batch->sel.size();
    }
    // Preserve ordering against any row tuples already buffered for dst.
    FlushBuffer(0, dst);
    Frame frame;
    frame.batch = std::move(batch);
    Send(0, dst, std::move(frame));
    FlushCounts(0);
  }

  void Push(Tuple tuple) override {
    ++span_->tuples_out;
    if (routes_.empty()) return;
    size_t last_route = routes_.size() - 1;
    for (size_t ri = 0; ri < routes_.size(); ++ri) {
      Route& r = routes_[ri];
      int n = static_cast<int>(buffers_[ri].size());
      bool last = ri == last_route;
      switch (r.conn->type) {
        case ConnectorType::kOneToOne: {
          RouteTo(ri, src_instance_ % n, tuple, last);
          break;
        }
        case ConnectorType::kMToNReplicating: {
          for (int d = 0; d < n; ++d) {
            RouteTo(ri, d, tuple, last && d == n - 1);
          }
          break;
        }
        case ConnectorType::kLocalityAwareMToNPartitioning: {
          int d = r.conn->locality_map
                      ? r.conn->locality_map(src_instance_, n)
                      : src_instance_ % n;
          RouteTo(ri, d, tuple, last);
          break;
        }
        case ConnectorType::kMToNPartitioning:
        case ConnectorType::kHashPartitioningShuffle:
        case ConnectorType::kMToNPartitioningMerging: {
          uint64_t h = r.conn->partition_hash ? r.conn->partition_hash(tuple) : 0;
          RouteTo(ri, static_cast<int>(h % static_cast<uint64_t>(n)), tuple,
                  last);
          break;
        }
      }
    }
  }

  /// Sends every buffered frame on (into fused consumers, too).
  void Flush() override {
    for (size_t ri = 0; ri < routes_.size(); ++ri) {
      for (size_t d = 0; d < buffers_[ri].size(); ++d) {
        FlushBuffer(ri, d);
      }
      FlushCounts(ri);
    }
  }

  /// End-of-stream to every destination channel. Fused consumers are
  /// closed by the pipeline instead.
  void EndChannels() {
    for (auto& r : routes_) {
      for (auto* ch : r.dst_channels) ch->ProducerDone(src_instance_);
    }
  }

  void FailAll(const Status& status) {
    for (auto& r : routes_) {
      for (auto* ch : r.dst_channels) ch->Fail(status);
    }
  }

 private:
  struct PendingCounts {
    uint64_t tuples = 0;
    uint64_t network_tuples = 0;
  };

  /// The final delivery of a tuple moves it into the route buffer; earlier
  /// ones (multiple routes, replicating fan-out) get a copy.
  void RouteTo(size_t route, int dst, Tuple& tuple, bool take) {
    if (take) {
      Deliver(route, dst, std::move(tuple));
    } else {
      Tuple copy = tuple;
      Deliver(route, dst, std::move(copy));
    }
  }

  void Deliver(size_t route, int dst, Tuple&& tuple) {
    Frame& buf = buffers_[route][static_cast<size_t>(dst)];
    buf.tuples.push_back(std::move(tuple));
    PendingCounts& pc = pending_[route];
    ++pc.tuples;
    if (routes_[route].dst_nodes[static_cast<size_t>(dst)] != src_node_) {
      ++pc.network_tuples;
    }
    if (buf.tuples.size() >= kDefaultFrameTuples) {
      FlushBuffer(route, static_cast<size_t>(dst), /*full=*/true);
      FlushCounts(route);
    }
  }

  /// Sends the buffered frame on. After a full frame the next one is
  /// reserved whole, so a long stream grows no frame vector tuple by tuple;
  /// a short one (an insert, a lookup) allocates only what it fills.
  void FlushBuffer(size_t route, size_t dst, bool full = false) {
    Frame& buf = buffers_[route][dst];
    if (buf.tuples.empty()) return;
    Frame frame = std::move(buf);
    buf = Frame{};
    if (full) buf.tuples.reserve(kDefaultFrameTuples);
    Send(route, dst, std::move(frame));
  }

  void Send(size_t route, size_t dst, Frame frame) {
    ++span_->frames_flushed;
    Route& r = routes_[route];
    if (r.fused != nullptr) {
      pipeline_->Deliver(r.fused, std::move(frame));
      return;
    }
    // Push may block on a full channel (backpressure); the wall time of the
    // whole call is this instance's blocked-on-output time.
    auto t0 = std::chrono::steady_clock::now();
    r.dst_channels[dst]->Push(src_instance_, std::move(frame));
    span_->output_wait_us += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  void FlushCounts(size_t route) {
    PendingCounts& pc = pending_[route];
    if (pc.tuples == 0) return;
    ConnCounters* c = routes_[route].counters;
    c->tuples.fetch_add(pc.tuples, std::memory_order_relaxed);
    if (pc.network_tuples > 0) {
      c->network_tuples.fetch_add(pc.network_tuples, std::memory_order_relaxed);
    }
    pc = PendingCounts{};
  }

  int src_instance_;
  int src_node_;
  std::vector<Route> routes_;
  std::vector<std::vector<Frame>> buffers_;  // [route][dst]
  std::vector<PendingCounts> pending_;       // [route], flushed per frame
  OperatorSpan* span_;
  MemoryBudget* budget_;  // may be null (operator is not memory-intensive)
  Pipeline* pipeline_;
};

OperatorSpan* Pipeline::SwitchTo(OperatorSpan* next) {
  uint64_t now = ThreadCpuUs();
  if (charged_ != nullptr) charged_->cpu_us += now - mark_us_;
  mark_us_ = now;
  OperatorSpan* prev = charged_;
  charged_ = next;
  return prev;
}

void Pipeline::Fail(Stage* s, Status status) {
  // A head stopping on a fused stage's failure returns that failure; only
  // the stage that failed first is marked.
  if (!failure_.ok()) return;
  s->span->ok = false;
  failure_ = std::move(status);
}

void Pipeline::Deliver(Stage* s, Frame frame) {
  if (!failure_.ok()) return;  // the pipeline failed: drop
  s->span->tuples_in += frame.tuples.size();
  if (frame.batch != nullptr) s->span->tuples_in += frame.batch->sel.size();
  OperatorSpan* prev = SwitchTo(s->span);
  Status st = s->push->Consume(0, frame);
  SwitchTo(prev);
  if (!st.ok()) Fail(s, std::move(st));
}

void Pipeline::End(Stage* s) {
  s->emitter->Flush();
  if (!failure_.ok()) return;
  s->emitter->EndChannels();
  s->ended = true;
  s->span->end_ms = SinceStartMs();
  for (Stage* c : s->fused) {
    OperatorSpan* prev = SwitchTo(c->span);
    Status st = c->push->Close(0);
    if (!st.ok()) {
      Fail(c, std::move(st));
    } else {
      End(c);
    }
    SwitchTo(prev);
    if (!failure_.ok()) return;
  }
}

Status Pipeline::DrainInputs(Stage* head) {
  for (size_t port = 0; port < inputs.size(); ++port) {
    if (inputs[port] == nullptr) {
      return Status::InvalidArgument(head->op->name + " has no input on port " +
                                     std::to_string(port));
    }
    ASTERIX_RETURN_NOT_OK(DrainChannel(inputs[port], static_cast<int>(port),
                                       head->push.get(), head->emitter.get(),
                                       head->span));
  }
  return Status::OK();
}

Status Pipeline::Run() {
  Stage* head = stages.front().get();
  double start_ms = SinceStartMs();
  for (auto& s : stages) s->span->start_ms = start_ms;
  mark_us_ = ThreadCpuUs();
  charged_ = head->span;
  // Instances are built and torn down on this thread, charged to the head.
  for (auto& s : stages) {
    if (s->op->push) {
      s->push = s->op->push(s->span->instance, s->emitter.get());
    }
  }
  Status st = head->push != nullptr
                  ? DrainInputs(head)
                  : head->op->source(head->span->instance, head->emitter.get());
  if (!st.ok()) Fail(head, std::move(st));
  if (failure_.ok()) End(head);
  if (!failure_.ok()) {
    for (auto& s : stages) {
      if (s->ended) continue;
      s->emitter->FailAll(failure_);
      s->emitter->EndChannels();
      s->span->end_ms = SinceStartMs();
    }
    for (InChannel* in : inputs) {
      if (in) in->CancelConsumer();
    }
  }
  for (auto& s : stages) s->push.reset();
  SwitchTo(nullptr);
  return failure_;
}

}  // namespace

std::vector<ActiveJobSnapshot> Cluster::ActiveJobs() const {
  std::vector<ActiveJobSnapshot> out;
  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(active_mu_);
  out.reserve(active_jobs_.size());
  for (const auto& [job_id, a] : active_jobs_) {
    ActiveJobSnapshot s;
    s.job_id = job_id;
    s.query_id = a.query_id;
    s.elapsed_ms =
        std::chrono::duration<double, std::milli>(now - a.start).count();
    s.instances = a.instances;
    s.budget_used_bytes = a.budget_used->load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

Result<JobStats> Cluster::ExecuteJob(const JobSpec& job) {
  auto start = std::chrono::steady_clock::now();
  auto since_start_ms = [start] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  auto since_start_us = [start] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  // The job carries its originating query id; re-publish it on this thread
  // (SubmitAsync executes on a detached thread) so admission-side journal
  // posts are tagged too.
  uint64_t query_id =
      job.query_id != 0 ? job.query_id : journal::CurrentQueryId();
  journal::ScopedQueryId query_scope(query_id);
  uint64_t job_id = jobs_executed_.load() + 1;
  journal::Journal::Default().Post(journal::EventKind::kJobAdmit, job_id);

  // Count memory-intensive instances first: they determine what this job
  // must ask the cluster-wide admission pool for. Jobs with no build state
  // (pure scans, inserts) bypass the gate entirely.
  int budgeted_instances = 0;
  for (const auto& op : job.operators) {
    if (op.memory_intensive) budgeted_instances += op.parallelism;
  }
  uint64_t declared_bytes = 0;
  if (admission_.enabled() && budgeted_instances > 0) {
    // Declare the configured per-job operator budget; with no per-job cap
    // set, ask for a quarter of the pool so up to four unbounded jobs can
    // hold grants concurrently.
    declared_bytes = config_.op_memory_budget_bytes > 0
                         ? config_.op_memory_budget_bytes
                         : admission_.pool_bytes() / 4;
    if (declared_bytes == 0) declared_bytes = 1;
  }
  // Blocks (FIFO) until the pool can cover the declaration; the wait lands
  // in phases.admission_us below. The grant is held until this frame exits.
  server::AdmissionGrant grant;
  if (declared_bytes > 0) {
    uint64_t wait_start_us = since_start_us();
    auto admitted = admission_.Acquire(declared_bytes);
    uint64_t waited_us = since_start_us() - wait_start_us;
    ledger::ResourceLedger::Default().AddAdmissionWait(query_id, waited_us);
    if (!admitted.ok()) return admitted.status();
    grant = admitted.take();
  }

  // Model the fixed job generation/distribution overhead of a real cluster.
  if (config_.job_startup_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(config_.job_startup_us));
  }

  auto profile = std::make_shared<JobProfile>();
  profile->job_id = job_id;
  profile->query_id = query_id;
  profile->num_nodes = config_.num_nodes;
  profile->startup_ms = since_start_ms();

  std::vector<ConnCounters> conn_counters(job.connectors.size());

  // A 1:1 connector fuses when its consumer is a one-input push operator
  // that nothing else feeds, at the producer's parallelism: the consumer
  // then runs inside its producer's pipeline, on the producer's thread.
  // Every other connector is an exchange and gets channels.
  std::map<int, const OperatorDescriptor*> ops;
  for (const auto& op : job.operators) ops[op.id] = &op;
  std::map<int, int> incoming;  // op id -> incoming connectors
  for (const auto& c : job.connectors) {
    if (!ops.count(c.src_op) || !ops.count(c.dst_op)) {
      return Status::InvalidArgument("dangling connector");
    }
    ++incoming[c.dst_op];
  }
  std::vector<bool> fused(job.connectors.size(), false);
  std::map<int, bool> fused_dst;  // op id -> fed by a fused connector
  for (size_t i = 0; i < job.connectors.size(); ++i) {
    const ConnectorDescriptor& c = job.connectors[i];
    const OperatorDescriptor* src = ops[c.src_op];
    const OperatorDescriptor* dst = ops[c.dst_op];
    fused[i] = c.type == ConnectorType::kOneToOne && dst->push &&
               dst->num_inputs == 1 && incoming[c.dst_op] == 1 &&
               src->parallelism == dst->parallelism;
    if (fused[i]) fused_dst[c.dst_op] = true;
  }

  // Channels: one per (exchange connector, destination instance). Owned
  // here. All are bounded by channel_capacity_frames, so a fast producer
  // blocks instead of queueing without limit.
  std::vector<std::unique_ptr<InChannel>> channel_storage;
  // (connector index) -> channels per destination instance.
  std::vector<std::vector<InChannel*>> conn_channels(job.connectors.size());
  for (size_t i = 0; i < job.connectors.size(); ++i) {
    if (fused[i]) continue;
    const ConnectorDescriptor& c = job.connectors[i];
    const OperatorDescriptor* src = ops[c.src_op];
    const OperatorDescriptor* dst = ops[c.dst_op];
    for (int d = 0; d < dst->parallelism; ++d) {
      if (c.type == ConnectorType::kMToNPartitioningMerging && c.merge_compare) {
        channel_storage.push_back(std::make_unique<MergeChannel>(
            src->parallelism, c.merge_compare, config_.channel_capacity_frames));
      } else {
        channel_storage.push_back(std::make_unique<FifoChannel>(
            src->parallelism, config_.channel_capacity_frames));
      }
      conn_channels[i].push_back(channel_storage.back().get());
    }
  }

  // Instance node mapping: storage-parallel operators put instance p on the
  // node owning partition p; singleton operators run on node 0.
  auto node_of_instance = [&](const OperatorDescriptor& op, int instance) {
    if (op.parallelism == num_partitions()) return NodeOfPartition(instance);
    return instance % config_.num_nodes;
  };

  // Lay out every instance's span up front so worker threads each write
  // only their own element (no resizing, no sharing).
  std::map<int, size_t> first_span;  // op id -> span of its instance 0
  for (const auto& op : job.operators) {
    first_span[op.id] = profile->spans.size();
    for (int inst = 0; inst < op.parallelism; ++inst) {
      OperatorSpan span;
      span.op_id = op.id;
      span.op_name = op.name;
      span.instance = inst;
      span.node = node_of_instance(op, inst);
      profile->spans.push_back(std::move(span));
    }
  }

  // Divide the job's operator memory budget evenly across the instances of
  // its memory-intensive operators (the ones that build join tables, group
  // tables, or sort buffers). Each instance gets a private MemoryBudget —
  // single-threaded by construction — and spills against it independently.
  // Under admission the divisor is the *granted* bytes, so what the pool
  // handed out is exactly what the operators are bounded by.
  size_t job_budget = grant.bytes() > 0
                          ? static_cast<size_t>(grant.bytes())
                          : config_.op_memory_budget_bytes;
  size_t per_instance_budget =
      budgeted_instances > 0 && job_budget > 0
          ? job_budget / static_cast<size_t>(budgeted_instances)
          : 0;
  if (job_budget > 0 && budgeted_instances > 0 && per_instance_budget == 0) {
    per_instance_budget = 1;  // a budget was asked for; never round to "off"
  }
  std::deque<MemoryBudget> budget_storage;  // stable addresses for tasks

  // Register the job for live introspection: StatusJson readers see its
  // query id, elapsed time, and memory-budget usage while it runs. The
  // shared atomic outlives this frame via shared_ptr, so a racing snapshot
  // after deregistration is still safe.
  auto budget_used = std::make_shared<std::atomic<uint64_t>>(0);
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    ActiveJob active;
    active.query_id = query_id;
    active.start = start;
    active.instances = static_cast<int>(profile->spans.size());
    active.budget_used = budget_used;
    active_jobs_[job_id] = std::move(active);
  }

  // One pipeline per (head operator, instance): a head is any operator not
  // fed by a fused connector; its pipeline holds it plus every stage its
  // fused routes reach.
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  std::function<Stage*(Pipeline*, const OperatorDescriptor&, int, int)>
      add_stage = [&](Pipeline* p, const OperatorDescriptor& op, int inst,
                      int head_op) -> Stage* {
    auto owned = std::make_unique<Stage>();
    Stage* stage = owned.get();
    p->stages.push_back(std::move(owned));
    stage->op = &op;
    stage->span = &profile->spans[first_span[op.id] + static_cast<size_t>(inst)];
    stage->span->pipeline = head_op;
    std::vector<RoutingEmitter::Route> routes;
    for (size_t i = 0; i < job.connectors.size(); ++i) {
      const ConnectorDescriptor& c = job.connectors[i];
      if (c.src_op != op.id) continue;
      const OperatorDescriptor* dst = ops[c.dst_op];
      RoutingEmitter::Route r;
      r.conn = &c;
      r.counters = &conn_counters[i];
      if (fused[i]) {
        r.fused = add_stage(p, *dst, inst, head_op);
        r.dst_nodes.push_back(node_of_instance(*dst, inst));
        stage->fused.push_back(r.fused);
      } else {
        r.dst_channels = conn_channels[i];
        for (int d = 0; d < dst->parallelism; ++d) {
          r.dst_nodes.push_back(node_of_instance(*dst, d));
        }
      }
      routes.push_back(std::move(r));
    }
    MemoryBudget* budget = nullptr;
    if (op.memory_intensive && per_instance_budget > 0) {
      budget_storage.emplace_back(per_instance_budget, budget_used.get());
      budget = &budget_storage.back();
    }
    stage->emitter = std::make_unique<RoutingEmitter>(
        inst, stage->span->node, std::move(routes), stage->span, budget, p);
    return stage;
  };
  for (const auto& op : job.operators) {
    if (fused_dst.count(op.id)) continue;
    for (int inst = 0; inst < op.parallelism; ++inst) {
      auto p = std::make_unique<Pipeline>(start);
      add_stage(p.get(), op, inst, op.id);
      // The head's input channels by port, drained only by its own task.
      p->inputs.assign(static_cast<size_t>(op.num_inputs), nullptr);
      for (size_t i = 0; i < job.connectors.size(); ++i) {
        const ConnectorDescriptor& c = job.connectors[i];
        if (c.dst_op != op.id) continue;
        p->inputs[static_cast<size_t>(c.dst_port)] =
            conn_channels[i][static_cast<size_t>(inst)];
      }
      pipelines.push_back(std::move(p));
    }
  }

  // One task per pipeline, handed to the persistent executor pool (which
  // grows to admit the whole job, then reuses its threads across jobs).
  // RunAll blocks until every pipeline finishes, so stack captures below
  // stay valid.
  std::vector<std::function<void()>> tasks;
  std::mutex status_mu;
  Status first_failure;
  for (auto& p : pipelines) {
    tasks.emplace_back([&, pipeline = p.get(), query_id] {
      // Tag the worker thread with the originating query so every journal
      // event posted below this frame (LSM flush/merge, lock waits, spills,
      // backpressure) carries the right query id.
      journal::ScopedQueryId task_query_scope(query_id);
      Status st = pipeline->Run();
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(status_mu);
        if (first_failure.ok()) first_failure = st;
      }
    });
  }
  // Everything up to here — modeled startup, channel wiring, task building —
  // is the job's admission wait; worker wall time is its execute span.
  profile->phases.admission_us = since_start_us();
  journal::Journal::Default().Post(journal::EventKind::kJobStart, job_id,
                                   tasks.size());
  pool_.RunAll(std::move(tasks));
  profile->phases.execute_us = since_start_us() - profile->phases.admission_us;
  ++jobs_executed_;
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_jobs_.erase(job_id);
  }

  JobStats stats;
  stats.elapsed_ms = since_start_ms();
  profile->elapsed_ms = stats.elapsed_ms;
  journal::Journal::Default().Post(journal::EventKind::kJobFinish, job_id,
                                   since_start_us());
  for (size_t i = 0; i < job.connectors.size(); ++i) {
    const ConnectorDescriptor& c = job.connectors[i];
    const ConnCounters& counters = conn_counters[i];
    ConnectorHops hops;
    hops.conn_id = c.id;
    hops.type = ConnectorTypeName(c.type);
    hops.src_op = c.src_op;
    hops.dst_op = c.dst_op;
    hops.tuples = counters.tuples.load(std::memory_order_relaxed);
    hops.network_tuples = counters.network_tuples.load(std::memory_order_relaxed);
    stats.connector_tuples += hops.tuples;
    stats.network_tuples += hops.network_tuples;
    profile->connectors.push_back(std::move(hops));
  }

  {
    auto& reg = metrics::MetricsRegistry::Default();
    static metrics::Counter* jobs = reg.GetCounter("hyracks.jobs");
    static metrics::Counter* conn_tuples =
        reg.GetCounter("hyracks.connector_tuples");
    static metrics::Counter* net_tuples =
        reg.GetCounter("hyracks.network_tuples");
    static metrics::Histogram* job_us = reg.GetHistogram("hyracks.job_us");
    static metrics::Counter* spill_bytes =
        reg.GetCounter("hyracks.spill_bytes");
    static metrics::Counter* spilled_partitions =
        reg.GetCounter("hyracks.spilled_partitions");
    static metrics::Counter* cpu_us_total = reg.GetCounter("hyracks.cpu_us");
    // Byte-scale bounds: powers of four, 1 KiB .. 1 GiB.
    static metrics::Histogram* build_bytes = [&reg] {
      std::vector<uint64_t> bounds;
      for (uint64_t b = 1024; b <= (1ull << 30); b *= 4) bounds.push_back(b);
      return reg.GetHistogram("hyracks.hash_build_bytes", std::move(bounds));
    }();
    jobs->Inc();
    conn_tuples->Inc(stats.connector_tuples);
    net_tuples->Inc(stats.network_tuples);
    job_us->Observe(static_cast<uint64_t>(stats.elapsed_ms * 1000.0));
    uint64_t job_cpu_us = 0;
    uint64_t job_bytes_read = 0;
    uint64_t job_spill_bytes = 0;
    for (const auto& span : profile->spans) {
      if (span.spill_bytes > 0) spill_bytes->Inc(span.spill_bytes);
      if (span.spilled_partitions > 0) {
        spilled_partitions->Inc(span.spilled_partitions);
      }
      if (span.hash_build_bytes > 0) build_bytes->Observe(span.hash_build_bytes);
      job_cpu_us += span.cpu_us;
      job_bytes_read += span.bytes_read;
      job_spill_bytes += span.spill_bytes;
    }
    cpu_us_total->Inc(job_cpu_us);
    // Charge the originating query's ledger entry once per job (spans were
    // joined by RunAll, so these totals are final).
    auto& led = ledger::ResourceLedger::Default();
    led.AddCpu(query_id, job_cpu_us);
    led.AddBytesRead(query_id, job_bytes_read);
    led.AddSpill(query_id, job_spill_bytes);
    led.AddBytesWritten(query_id, job_spill_bytes);
  }

  // Optional trace sink: one Chrome trace_event file per job.
  if (!config_.trace_dir.empty()) {
    (void)env::CreateDirs(config_.trace_dir);
    std::string trace = profile->ToChromeTrace();
    std::string path = config_.trace_dir + "/job_" +
                       std::to_string(profile->job_id) + ".trace.json";
    (void)env::WriteFileAtomic(path, trace.data(), trace.size());
  }

  if (!first_failure.ok()) return first_failure;
  stats.profile = std::move(profile);
  return stats;
}

}  // namespace hyracks
}  // namespace asterix
