// Google-benchmark microbenchmarks for the performance-critical primitives:
// serialization, B+-tree probes, LSM ingestion, expression evaluation, and
// compression. These guard the constants that the table-level benches'
// shapes depend on.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "adm/serde.h"
#include "algebricks/expr.h"
#include "api/asterix.h"
#include "common/compress.h"
#include "common/env.h"
#include "functions/aggregates.h"
#include "functions/arith.h"
#include "functions/similarity.h"
#include "hyracks/channel.h"
#include "hyracks/vector/kernels.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"
#include "storage/lsm.h"
#include "workload/generator.h"

namespace {

using namespace asterix;
using adm::Value;

// --- serde -------------------------------------------------------------------

void BM_SerializeTypedMessage(benchmark::State& state) {
  workload::Generator gen;
  Value msg = gen.MakeMessage(1, 100);
  auto type = workload::MessageTypeSchema();
  for (auto _ : state) {
    BytesWriter w;
    benchmark::DoNotOptimize(adm::SerializeTyped(msg, type, &w).ok());
  }
}
BENCHMARK(BM_SerializeTypedMessage);

void BM_DeserializeTypedMessage(benchmark::State& state) {
  workload::Generator gen;
  Value msg = gen.MakeMessage(1, 100);
  auto type = workload::MessageTypeSchema();
  BytesWriter w;
  if (!adm::SerializeTyped(msg, type, &w).ok()) state.SkipWithError("serde");
  for (auto _ : state) {
    BytesReader r(w.data());
    Value out;
    benchmark::DoNotOptimize(adm::DeserializeTyped(&r, type, &out).ok());
  }
}
BENCHMARK(BM_DeserializeTypedMessage);

void BM_SerializeSchemaless(benchmark::State& state) {
  workload::Generator gen;
  Value msg = gen.MakeMessage(1, 100);
  for (auto _ : state) {
    BytesWriter w;
    adm::SerializeValue(msg, &w);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_SerializeSchemaless);

// --- storage ------------------------------------------------------------------

class LsmFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (tree) return;
    dir = env::NewScratchDir("bench-micro");
    cache = std::make_unique<storage::BufferCache>(1 << 14);
    storage::LsmOptions o;
    tree = std::make_unique<storage::LsmBTree>(cache.get(), dir, "t", o);
    (void)tree->Open();
    payload.assign(120, 'x');
    for (int i = 0; i < 100000; ++i) {
      (void)tree->Upsert({Value::Int64(i)}, payload, static_cast<uint64_t>(i));
    }
    (void)tree->Flush();
  }
  void TearDown(const benchmark::State&) override {}

  static std::string dir;
  static std::unique_ptr<storage::BufferCache> cache;
  static std::unique_ptr<storage::LsmBTree> tree;
  static std::vector<uint8_t> payload;
};
std::string LsmFixture::dir;
std::unique_ptr<storage::BufferCache> LsmFixture::cache;
std::unique_ptr<storage::LsmBTree> LsmFixture::tree;
std::vector<uint8_t> LsmFixture::payload;

BENCHMARK_F(LsmFixture, PointLookupHit)(benchmark::State& state) {
  int64_t k = 0;
  for (auto _ : state) {
    bool found;
    std::vector<uint8_t> p;
    (void)tree->PointLookup({Value::Int64(k % 100000)}, &found, &p);
    benchmark::DoNotOptimize(found);
    k += 7919;
  }
}

BENCHMARK_F(LsmFixture, PointLookupMissBloomFiltered)(benchmark::State& state) {
  int64_t k = 0;
  for (auto _ : state) {
    bool found;
    std::vector<uint8_t> p;
    (void)tree->PointLookup({Value::Int64(200000 + k)}, &found, &p);
    benchmark::DoNotOptimize(found);
    ++k;
  }
}

BENCHMARK_F(LsmFixture, ShortRangeScan100)(benchmark::State& state) {
  int64_t k = 0;
  for (auto _ : state) {
    storage::ScanBounds b;
    b.lo = storage::CompositeKey{Value::Int64(k % 90000)};
    b.hi = storage::CompositeKey{Value::Int64(k % 90000 + 99)};
    size_t n = 0;
    (void)tree->RangeScan(b, [&](const storage::IndexEntry&) {
      ++n;
      return Status::OK();
    });
    benchmark::DoNotOptimize(n);
    k += 1013;
  }
}

// Row vs column disk formats scanning the same messages with a narrow
// projection: the columnar layout should touch far fewer bytes. The row
// tree also serves whole-record scans and sorted batch lookups.
class FormatFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override { Build(); }
  void TearDown(const benchmark::State&) override {}

  static void Build() {
    if (row) return;
    dir = env::NewScratchDir("bench-format");
    cache = std::make_unique<storage::BufferCache>(1 << 14);
    auto type = workload::MessageTypeSchema();
    storage::LsmOptions ro;
    ro.record_type = type;
    storage::LsmOptions co = ro;
    co.format = storage::StorageFormat::kColumn;
    row = std::make_unique<storage::LsmBTree>(cache.get(), dir, "row", ro);
    col = std::make_unique<storage::LsmBTree>(cache.get(), dir, "col", co);
    (void)row->Open();
    (void)col->Open();
    workload::Generator gen;
    for (int64_t i = 0; i < 20000; ++i) {
      Value msg = gen.MakeMessage(i, 500);
      std::vector<uint8_t> buf;
      BytesWriter w(&buf);
      if (!adm::SerializeTyped(msg, type, &w).ok()) std::abort();
      storage::CompositeKey key{Value::Int64(i)};
      (void)row->Upsert(key, buf, static_cast<uint64_t>(i));
      (void)col->Upsert(key, buf, static_cast<uint64_t>(i));
    }
    (void)row->Flush();
    (void)col->Flush();
  }

  static void RunProjectedScan(storage::LsmBTree* tree,
                               benchmark::State& state) {
    auto proj =
        storage::column::Projection::Of({"message-id", "author-id"});
    storage::column::ProjectedScanStats stats;
    size_t n = 0;
    for (auto _ : state) {
      stats = {};
      n = 0;
      (void)tree->ProjectedScan(
          storage::ScanBounds{}, proj,
          [&](const storage::CompositeKey&, bool, const Value&) {
            ++n;
            return Status::OK();
          },
          &stats);
      benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(n));
    state.counters["bytes_read"] = static_cast<double>(stats.bytes_read);
    state.counters["bytes_skipped"] = static_cast<double>(stats.bytes_skipped);
    state.counters["pages_pruned"] = static_cast<double>(stats.pages_pruned);
  }

  /// One whole-record scan of `tree`; returns the rows seen.
  static size_t WholeRecordScan(storage::LsmBTree* tree) {
    size_t n = 0;
    (void)tree->ProjectedScan(
        storage::ScanBounds{}, storage::column::Projection::All(),
        [&](const storage::CompositeKey&, bool, const Value& rec) {
          benchmark::DoNotOptimize(rec);
          ++n;
          return Status::OK();
        },
        nullptr);
    return n;
  }

  /// 256 keys spread evenly over the 20,000 stored, ascending.
  static const std::vector<storage::CompositeKey>& SortedKeys() {
    static const std::vector<storage::CompositeKey> keys = [] {
      std::vector<storage::CompositeKey> k;
      for (int64_t i = 0; i < 256; ++i) k.push_back({Value::Int64(i * 78)});
      return k;
    }();
    return keys;
  }

  /// Whole-record fetch of SortedKeys(): one sorted MultiGet when
  /// `batched`, else one one-key MultiGet (a point lookup) per key.
  /// Returns the records found.
  static size_t FetchSortedKeys(storage::LsmBTree* tree, bool batched) {
    size_t n = 0;
    auto count = [&](size_t, Value rec) {
      benchmark::DoNotOptimize(rec);
      ++n;
      return Status::OK();
    };
    const auto all = storage::column::Projection::All();
    if (batched) {
      (void)tree->MultiGet(SortedKeys(), all, count);
      return n;
    }
    for (const storage::CompositeKey& key : SortedKeys()) {
      (void)tree->MultiGet({key}, all, count);
    }
    return n;
  }

  static std::string dir;
  static std::unique_ptr<storage::BufferCache> cache;
  static std::unique_ptr<storage::LsmBTree> row, col;
};
std::string FormatFixture::dir;
std::unique_ptr<storage::BufferCache> FormatFixture::cache;
std::unique_ptr<storage::LsmBTree> FormatFixture::row;
std::unique_ptr<storage::LsmBTree> FormatFixture::col;

BENCHMARK_F(FormatFixture, ProjectedScanRowFormat)(benchmark::State& state) {
  RunProjectedScan(row.get(), state);
}

BENCHMARK_F(FormatFixture, ProjectedScanColumnFormat)(benchmark::State& state) {
  RunProjectedScan(col.get(), state);
}

BENCHMARK_F(FormatFixture, WholeRecordScanRowFormat)(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(WholeRecordScan(row.get()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(WholeRecordScan(row.get())));
}

BENCHMARK_F(FormatFixture,
            SortedMultiGet256RowFormat)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(FetchSortedKeys(row.get(), true));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}

BENCHMARK_F(FormatFixture, PointLookups256RowFormat)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(FetchSortedKeys(row.get(), false));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}

// Interpreted vs vectorized execution of the same selective
// filter-and-aggregate over one columnar dataset in steady state: the
// row-at-a-time side pays record assembly + per-row Value evaluation, the
// vectorized side runs typed-lane kernels over batches straight off the
// column pages.
constexpr size_t kVectorRows = 100000;

adm::DatatypePtr VectorBenchType() {
  std::vector<adm::FieldType> fields;
  fields.push_back(
      {"id", adm::Datatype::Primitive(adm::TypeTag::kInt64), false});
  fields.push_back(
      {"e", adm::Datatype::Primitive(adm::TypeTag::kInt64), false});
  fields.push_back(
      {"f", adm::Datatype::Primitive(adm::TypeTag::kDouble), false});
  fields.push_back(
      {"pad", adm::Datatype::Primitive(adm::TypeTag::kString), false});
  return adm::Datatype::MakeRecord("VecBenchT", std::move(fields),
                                   /*open=*/false);
}

struct VectorBenchState {
  std::string dir;
  std::unique_ptr<storage::BufferCache> cache;
  std::unique_ptr<storage::LsmBTree> tree;
};

VectorBenchState& VectorBench() {
  static auto* s = new VectorBenchState();
  if (s->tree) return *s;
  s->dir = env::NewScratchDir("bench-vector");
  s->cache = std::make_unique<storage::BufferCache>(1 << 14);
  auto type = VectorBenchType();
  storage::LsmOptions o;
  o.format = storage::StorageFormat::kColumn;
  o.record_type = type;
  o.mem_budget_bytes = 64u << 20;  // hold the whole load: one flush, one component
  o.merge_policy = storage::MergePolicy::Constant(1);
  s->tree = std::make_unique<storage::LsmBTree>(s->cache.get(), s->dir, "vec", o);
  if (!s->tree->Open().ok()) std::abort();
  for (size_t i = 0; i < kVectorRows; ++i) {
    adm::RecordBuilder b;
    b.Add("id", Value::Int64(static_cast<int64_t>(i)));
    b.Add("e", Value::Int64(static_cast<int64_t>(i % 100)));
    b.Add("f", Value::Double(static_cast<double>(i) * 0.5));
    b.Add("pad", Value::String("pppppppppppppppppppppppppppppppp"));
    std::vector<uint8_t> buf;
    BytesWriter w(&buf);
    if (!adm::SerializeTyped(b.Build(), type, &w).ok()) std::abort();
    (void)s->tree->Upsert({Value::Int64(static_cast<int64_t>(i))}, buf,
                          static_cast<uint64_t>(i) + 1);
  }
  if (!s->tree->Flush().ok()) std::abort();
  if (s->tree->num_disk_components() > 1 && !s->tree->MaybeMerge().ok()) {
    std::abort();
  }
  if (s->tree->num_disk_components() != 1) std::abort();
  return *s;
}

// sum(f) over rows with e >= 90 (10% selectivity), row at a time: assembled
// records, per-row 3VL compare, virtual aggregator Add.
double InterpretedFilterAggPass(size_t* rows_seen) {
  auto& vb = VectorBench();
  auto proj = storage::column::Projection::Of({"e", "f"});
  auto agg = functions::MakeAggregator("sum");
  size_t n = 0;
  Status st = vb.tree->ProjectedScan(
      storage::ScanBounds{}, proj,
      [&](const storage::CompositeKey&, bool, const Value& rec) {
        ++n;
        if (functions::LessEqTri(Value::Int64(90), rec.GetField("e")) ==
            functions::Tri::kTrue) {
          agg->Add(rec.GetField("f"));
        }
        return Status::OK();
      },
      nullptr);
  if (!st.ok() || n != kVectorRows) std::abort();
  *rows_seen = n;
  return agg->Finish().AsDouble();
}

// The same query through the vectorized path: typed batches off the column
// pages, selection-vector filter kernel, batch aggregate.
double VectorizedFilterAggPass(size_t* rows_seen) {
  auto& vb = VectorBench();
  auto proj = storage::column::Projection::Of({"e", "f"});
  auto pred = hyracks::vector::Cmp(hyracks::vector::CmpOp::kGe,
                                   hyracks::vector::Field("e"),
                                   hyracks::vector::Const(Value::Int64(90)));
  hyracks::vector::VectorAgg agg("sum", "f");
  size_t n = 0;
  Status st = vb.tree->BatchScan(
      storage::ScanBounds{}, proj,
      [&](const std::shared_ptr<storage::column::ColumnBatch>& batch) {
        n += batch->num_rows;
        ASTERIX_RETURN_NOT_OK(hyracks::vector::Filter(*pred, batch.get()));
        return agg.AddBatch(*batch);
      },
      nullptr);
  if (!st.ok() || n != kVectorRows) std::abort();
  *rows_seen = n;
  return agg.Finish().AsDouble();
}

void BM_FilterAggInterpreted(benchmark::State& state) {
  size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(InterpretedFilterAggPass(&n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FilterAggInterpreted)->Unit(benchmark::kMillisecond);

void BM_FilterAggVectorized(benchmark::State& state) {
  size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(VectorizedFilterAggPass(&n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FilterAggVectorized)->Unit(benchmark::kMillisecond);

void BM_LsmUpsert(benchmark::State& state) {
  std::string dir = env::NewScratchDir("bench-upsert");
  storage::BufferCache cache(1 << 14);
  storage::LsmOptions o;
  storage::LsmBTree tree(&cache, dir, "t", o);
  (void)tree.Open();
  std::vector<uint8_t> payload(120, 'x');
  int64_t k = 0;
  for (auto _ : state) {
    (void)tree.Upsert({Value::Int64(k++)}, payload, static_cast<uint64_t>(k));
  }
  state.SetItemsProcessed(k);
  env::RemoveAll(dir);
}
BENCHMARK(BM_LsmUpsert);

// --- expressions ----------------------------------------------------------------

void BM_CompiledPredicateEval(benchmark::State& state) {
  using algebricks::Expr;
  // ($m.timestamp >= C1 and $m.timestamp < C2) via the reference evaluator.
  auto cond = Expr::And(
      Expr::Compare(">=",
                    Expr::FieldAccess(Expr::Var("m"), "timestamp"),
                    Expr::Const(Value::Datetime(1000))),
      Expr::Compare("<", Expr::FieldAccess(Expr::Var("m"), "timestamp"),
                    Expr::Const(Value::Datetime(100000000))));
  workload::Generator gen;
  Value msg = gen.MakeMessage(42, 100);
  algebricks::EvalContext ctx;
  ctx.Bind("m", msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algebricks::EvalExpr(*cond, ctx).ok());
  }
}
BENCHMARK(BM_CompiledPredicateEval);

// --- similarity & compression ------------------------------------------------------

void BM_EditDistanceCheckBanded(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        functions::EditDistanceCheck("reachability", "reliability", 3));
  }
}
BENCHMARK(BM_EditDistanceCheckBanded);

// --- dataflow ----------------------------------------------------------------

// Replica of the pre-change connector runtime, kept here as the baseline the
// frame-at-a-time shuffle is measured against: every tuple crossing the
// connector pays one lock+notify on the producer side, one lock on the
// consumer side, a per-destination copy, and two shared atomic counter bumps.
class LegacyTupleChannel {
 public:
  explicit LegacyTupleChannel(int producers) : open_(producers) {}

  void Push(const hyracks::Tuple& t) {
    hyracks::Tuple copy = t;  // per-destination copy, as the old emitter did
    std::lock_guard<std::mutex> lock(mu_);
    q_.push_back(std::move(copy));
    cv_.notify_one();
  }
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    --open_;
    cv_.notify_all();
  }
  bool Next(hyracks::Tuple* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !q_.empty() || open_ == 0; });
    if (q_.empty()) return false;
    *out = std::move(q_.front());
    q_.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<hyracks::Tuple> q_;
  int open_;
};

// Hash-shuffles side x per_producer tuples through side consumers and
// returns delivered tuples per second. `framed` selects the current
// frame-at-a-time path (FifoChannel frames, moves, per-frame counter flush);
// otherwise the legacy tuple-at-a-time baseline above runs the same shuffle.
double ShuffleTuplesPerSec(bool framed, int side, int64_t per_producer) {
  const uint64_t total =
      static_cast<uint64_t>(side) * static_cast<uint64_t>(per_producer);
  std::atomic<uint64_t> conn_tuples{0};
  std::atomic<uint64_t> net_tuples{0};
  std::atomic<uint64_t> delivered{0};
  std::vector<std::thread> threads;
  auto t0 = std::chrono::steady_clock::now();

  if (framed) {
    std::vector<std::unique_ptr<hyracks::FifoChannel>> channels;
    for (int d = 0; d < side; ++d) {
      channels.push_back(std::make_unique<hyracks::FifoChannel>(side, 64));
    }
    for (int p = 0; p < side; ++p) {
      threads.emplace_back([&, p] {
        std::vector<hyracks::Frame> bufs(static_cast<size_t>(side));
        for (int64_t i = 0; i < per_producer; ++i) {
          int64_t v = p * per_producer + i;
          auto dst = static_cast<size_t>(v % side);
          bufs[dst].tuples.push_back({Value::Int64(v)});
          if (bufs[dst].tuples.size() >= hyracks::kDefaultFrameTuples) {
            uint64_t n = bufs[dst].tuples.size();
            channels[dst]->Push(p, std::move(bufs[dst]));
            bufs[dst] = hyracks::Frame{};
            conn_tuples.fetch_add(n, std::memory_order_relaxed);
            net_tuples.fetch_add(n, std::memory_order_relaxed);
          }
        }
        for (size_t d = 0; d < bufs.size(); ++d) {
          uint64_t n = bufs[d].tuples.size();
          if (n > 0) {
            channels[d]->Push(p, std::move(bufs[d]));
            conn_tuples.fetch_add(n, std::memory_order_relaxed);
            net_tuples.fetch_add(n, std::memory_order_relaxed);
          }
          channels[d]->ProducerDone(p);
        }
      });
    }
    for (int c = 0; c < side; ++c) {
      threads.emplace_back([&, c] {
        hyracks::Frame f;
        uint64_t n = 0;
        while (true) {
          auto r = channels[static_cast<size_t>(c)]->NextFrame(&f);
          if (!r.ok() || !r.value()) break;
          n += f.tuples.size();
        }
        delivered.fetch_add(n, std::memory_order_relaxed);
      });
    }
    for (auto& t : threads) t.join();
  } else {
    std::vector<std::unique_ptr<LegacyTupleChannel>> channels;
    for (int d = 0; d < side; ++d) {
      channels.push_back(std::make_unique<LegacyTupleChannel>(side));
    }
    for (int p = 0; p < side; ++p) {
      threads.emplace_back([&, p] {
        for (int64_t i = 0; i < per_producer; ++i) {
          int64_t v = p * per_producer + i;
          auto dst = static_cast<size_t>(v % side);
          channels[dst]->Push({Value::Int64(v)});
          conn_tuples.fetch_add(1, std::memory_order_relaxed);
          net_tuples.fetch_add(1, std::memory_order_relaxed);
        }
        for (auto& ch : channels) ch->Done();
      });
    }
    for (int c = 0; c < side; ++c) {
      threads.emplace_back([&, c] {
        hyracks::Tuple t;
        uint64_t n = 0;
        while (channels[static_cast<size_t>(c)]->Next(&t)) ++n;
        delivered.fetch_add(n, std::memory_order_relaxed);
      });
    }
    for (auto& t : threads) t.join();
  }

  double sec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  if (delivered.load() != total || conn_tuples.load() != total) std::abort();
  return static_cast<double>(total) / sec;
}

void BM_ShuffleFrameAtATime(benchmark::State& state) {
  constexpr int64_t kPerProducer = 50000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShuffleTuplesPerSec(true, 4, kPerProducer));
  }
  state.SetItemsProcessed(state.iterations() * 4 * kPerProducer);
}
BENCHMARK(BM_ShuffleFrameAtATime)->Unit(benchmark::kMillisecond);

void BM_ShuffleTupleAtATimeLegacy(benchmark::State& state) {
  constexpr int64_t kPerProducer = 50000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShuffleTuplesPerSec(false, 4, kPerProducer));
  }
  state.SetItemsProcessed(state.iterations() * 4 * kPerProducer);
}
BENCHMARK(BM_ShuffleTupleAtATimeLegacy)->Unit(benchmark::kMillisecond);

void BM_MergeChannelKWay(benchmark::State& state) {
  constexpr int kProducers = 8;
  constexpr int64_t kTotal = 80000;
  hyracks::TupleCompare cmp = [](const hyracks::Tuple& a,
                                 const hyracks::Tuple& b) {
    return a[0].Compare(b[0]);
  };
  for (auto _ : state) {
    hyracks::MergeChannel ch(kProducers, cmp, 64);
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        hyracks::Frame frame;
        for (int64_t v = p; v < kTotal; v += kProducers) {
          frame.tuples.push_back({Value::Int64(v)});
          if (frame.tuples.size() >= hyracks::kDefaultFrameTuples) {
            ch.Push(p, std::move(frame));
            frame = hyracks::Frame{};
          }
        }
        if (!frame.tuples.empty()) ch.Push(p, std::move(frame));
        ch.ProducerDone(p);
      });
    }
    uint64_t merged = 0;
    hyracks::Frame f;
    while (true) {
      auto r = ch.NextFrame(&f);
      if (!r.ok() || !r.value()) break;
      merged += f.tuples.size();
    }
    for (auto& t : producers) t.join();
    if (merged != kTotal) state.SkipWithError("merge lost tuples");
  }
  state.SetItemsProcessed(state.iterations() * kTotal);
}
BENCHMARK(BM_MergeChannelKWay)->Unit(benchmark::kMillisecond);

// A small pipelined job executed repeatedly on one cluster: after the first
// job the persistent executor pool serves every instance from existing
// threads, so this measures steady-state job dispatch + frame flow.
void BM_PipelineJobOnPersistentPool(benchmark::State& state) {
  static auto* cluster = new hyracks::Cluster(hyracks::ClusterConfig{1, 2, 0, ""});
  constexpr int64_t kPerScan = 10000;
  for (auto _ : state) {
    hyracks::JobSpec job;
    hyracks::OperatorDescriptor src;
    src.name = "gen";
    src.parallelism = 2;
    src.num_inputs = 0;
    src.source = [](int p, hyracks::Emitter* out) {
      for (int64_t i = 0; i < kPerScan; ++i) {
        out->Push({Value::Int64(p * kPerScan + i)});
      }
      return Status::OK();
    };
    int src_id = job.AddOperator(std::move(src));
    int sel_id = job.AddOperator(hyracks::MakeSelect(
        2, [](const hyracks::Tuple& t) -> Result<Value> {
          return Value::Boolean(t[0].AsInt() % 2 == 0);
        }));
    auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
    int sink_id = job.AddOperator(hyracks::MakeResultSink(sink));
    job.Connect(hyracks::ConnectorType::kOneToOne, src_id, sel_id);
    job.Connect(hyracks::ConnectorType::kHashPartitioningShuffle, sel_id,
                sink_id, 0, [](const hyracks::Tuple& t) {
                  return static_cast<uint64_t>(t[0].AsInt());
                });
    auto r = cluster->ExecuteJob(job);
    if (!r.ok() || sink->size() != kPerScan) {
      state.SkipWithError("pipeline job failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * kPerScan);
}
BENCHMARK(BM_PipelineJobOnPersistentPool)->Unit(benchmark::kMillisecond);

// --- budgeted hash operators -------------------------------------------------

// Replica of the pre-change hash join build — one unordered_map keyed by a
// materialized std::vector<Value> per build tuple — kept as the baseline the
// serialized-normalized-key Grace join is measured against.
struct LegacyKeyHash {
  size_t operator()(const std::vector<Value>& k) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& v : k) h = v.Hash(h);
    return static_cast<size_t>(h);
  }
};
struct LegacyKeyEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].Compare(b[i]) != 0) return false;
    }
    return true;
  }
};

hyracks::OperatorDescriptor MakeLegacyValueKeyJoinOnCol0() {
  hyracks::OperatorDescriptor op;
  op.name = "legacy-hash-join";
  op.parallelism = 1;
  op.num_inputs = 2;
  op.blocking_ports = {0};
  op.push = [](int, hyracks::Emitter* out)
      -> std::unique_ptr<hyracks::PushOperator> {
    class Legacy : public hyracks::PushOperator {
     public:
      explicit Legacy(hyracks::Emitter* out) : out_(out) {}
      Status Consume(int port, hyracks::Frame& f) override {
        for (auto& t : f.tuples) {
          if (port == 0) {
            std::vector<Value> key{t[0]};
            table_[std::move(key)].push_back(std::move(t));
            continue;
          }
          auto it = table_.find(std::vector<Value>{t[0]});
          if (it == table_.end()) continue;
          for (const auto& b : it->second) {
            hyracks::Tuple o = b;
            o.insert(o.end(), t.begin(), t.end());
            out_->Push(std::move(o));
          }
        }
        return Status::OK();
      }
      Status Close(int) override { return Status::OK(); }

     private:
      hyracks::Emitter* out_;
      std::unordered_map<std::vector<Value>, std::vector<hyracks::Tuple>,
                         LegacyKeyHash, LegacyKeyEq>
          table_;
    };
    return std::make_unique<Legacy>(out);
  };
  return op;
}

std::vector<hyracks::Tuple> JoinSide(size_t n, uint64_t key_range,
                                     uint64_t seed) {
  std::vector<hyracks::Tuple> rows;
  rows.reserve(n);
  uint64_t x = seed;
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    rows.push_back({Value::Int64(static_cast<int64_t>(x % key_range)),
                    Value::Int64(static_cast<int64_t>(i)),
                    Value::String("payload-xxxxxxxx")});
  }
  return rows;
}

hyracks::TupleEval BenchCol(int i) {
  return [i](const hyracks::Tuple& t) -> Result<Value> {
    return t[static_cast<size_t>(i)];
  };
}

// Joins `build` x `probe` on column 0 through a single-partition cluster job
// and returns input tuples per second. serialized=false runs the legacy
// vector<Value>-keyed baseline; budget_bytes>0 forces the serialized path to
// spill (Grace recursion).
double JoinTuplesPerSec(bool serialized, size_t budget_bytes,
                        const std::vector<hyracks::Tuple>& build,
                        const std::vector<hyracks::Tuple>& probe) {
  hyracks::ClusterConfig cfg{1, 1, 0, ""};
  cfg.op_memory_budget_bytes = budget_bytes;
  hyracks::Cluster cluster(cfg);
  hyracks::JobSpec job;
  int b = job.AddOperator(hyracks::MakeValueScan(build));
  int p = job.AddOperator(hyracks::MakeValueScan(probe));
  int j = serialized
              ? job.AddOperator(hyracks::MakeHybridHashJoin(
                    1, {BenchCol(0)}, {BenchCol(0)}, 3, false))
              : job.AddOperator(MakeLegacyValueKeyJoinOnCol0());
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  int d = job.AddOperator(hyracks::MakeResultSink(sink));
  job.Connect(hyracks::ConnectorType::kOneToOne, b, j, 0);
  job.Connect(hyracks::ConnectorType::kOneToOne, p, j, 1);
  job.Connect(hyracks::ConnectorType::kOneToOne, j, d);
  auto t0 = std::chrono::steady_clock::now();
  auto r = cluster.ExecuteJob(job);
  double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!r.ok() || sink->empty()) std::abort();
  return static_cast<double>(build.size() + probe.size()) / sec;
}

size_t DistinctCol0(const std::vector<hyracks::Tuple>& rows) {
  std::unordered_map<int64_t, bool> seen;
  for (const auto& t : rows) seen[t[0].AsInt()] = true;
  return seen.size();
}

double GroupByTuplesPerSec(size_t budget_bytes,
                           const std::vector<hyracks::Tuple>& rows,
                           size_t expected_groups) {
  hyracks::ClusterConfig cfg{1, 1, 0, ""};
  cfg.op_memory_budget_bytes = budget_bytes;
  hyracks::Cluster cluster(cfg);
  hyracks::JobSpec job;
  int s = job.AddOperator(hyracks::MakeValueScan(rows));
  int g = job.AddOperator(hyracks::MakeHashGroupBy(
      1, {BenchCol(0)},
      {{"count", BenchCol(1)}, {"sum", BenchCol(1)}},
      hyracks::AggMode::kComplete));
  auto sink = std::make_shared<std::vector<hyracks::Tuple>>();
  int d = job.AddOperator(hyracks::MakeResultSink(sink));
  job.Connect(hyracks::ConnectorType::kOneToOne, s, g);
  job.Connect(hyracks::ConnectorType::kOneToOne, g, d);
  auto t0 = std::chrono::steady_clock::now();
  auto r = cluster.ExecuteJob(job);
  double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!r.ok() || sink->size() != expected_groups) std::abort();
  return static_cast<double>(rows.size()) / sec;
}

constexpr size_t kJoinBenchRows = 30000;
constexpr size_t kForcedSpillBudget = 256 * 1024;

const std::vector<hyracks::Tuple>& BenchBuildSide() {
  static auto* rows =
      new std::vector<hyracks::Tuple>(JoinSide(kJoinBenchRows, 15000, 1));
  return *rows;
}
const std::vector<hyracks::Tuple>& BenchProbeSide() {
  static auto* rows =
      new std::vector<hyracks::Tuple>(JoinSide(kJoinBenchRows, 15000, 2));
  return *rows;
}

void BM_HashJoinLegacyValueKeys(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JoinTuplesPerSec(false, 0, BenchBuildSide(), BenchProbeSide()));
  }
  state.SetItemsProcessed(state.iterations() * 2 * kJoinBenchRows);
}
BENCHMARK(BM_HashJoinLegacyValueKeys)->Unit(benchmark::kMillisecond);

void BM_HashJoinSerializedKeys(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        JoinTuplesPerSec(true, 0, BenchBuildSide(), BenchProbeSide()));
  }
  state.SetItemsProcessed(state.iterations() * 2 * kJoinBenchRows);
}
BENCHMARK(BM_HashJoinSerializedKeys)->Unit(benchmark::kMillisecond);

void BM_HashJoinSerializedKeysForcedSpill(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(JoinTuplesPerSec(
        true, kForcedSpillBudget, BenchBuildSide(), BenchProbeSide()));
  }
  state.SetItemsProcessed(state.iterations() * 2 * kJoinBenchRows);
}
BENCHMARK(BM_HashJoinSerializedKeysForcedSpill)->Unit(benchmark::kMillisecond);

void BM_HashGroupByInMemory(benchmark::State& state) {
  const auto& rows = BenchBuildSide();
  const size_t groups = DistinctCol0(rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GroupByTuplesPerSec(0, rows, groups));
  }
  state.SetItemsProcessed(state.iterations() * kJoinBenchRows);
}
BENCHMARK(BM_HashGroupByInMemory)->Unit(benchmark::kMillisecond);

void BM_HashGroupByForcedSpill(benchmark::State& state) {
  const auto& rows = BenchBuildSide();
  const size_t groups = DistinctCol0(rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GroupByTuplesPerSec(kForcedSpillBudget, rows, groups));
  }
  state.SetItemsProcessed(state.iterations() * kJoinBenchRows);
}
BENCHMARK(BM_HashGroupByForcedSpill)->Unit(benchmark::kMillisecond);

void BM_LzCompressStripe(benchmark::State& state) {
  std::vector<uint8_t> data;
  for (int i = 0; i < 2000; ++i) {
    const char* rec = "verizon|voice-clarity|2014-02-20|";
    data.insert(data.end(), rec, rec + 33);
    data.push_back(static_cast<uint8_t>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzCompress(data.data(), data.size()).size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_LzCompressStripe);

}  // namespace

// Like BENCHMARK_MAIN(), plus a BENCH_micro.json metrics snapshot so the
// columnar counters the projected-scan benches bump are machine-readable.
// The JSON also records the head-to-head shuffle throughput: the current
// frame-at-a-time path vs the legacy tuple-at-a-time runtime it replaced.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  constexpr int64_t kShufflePerProducer = 100000;
  double legacy_tps = ShuffleTuplesPerSec(false, 4, kShufflePerProducer);
  double frame_tps = ShuffleTuplesPerSec(true, 4, kShufflePerProducer);
  char shuffle_json[256];
  std::snprintf(shuffle_json, sizeof(shuffle_json),
                "{ \"tuples\": %lld, "
                "\"legacy_tuple_at_a_time_tuples_per_sec\": %.0f, "
                "\"frame_at_a_time_tuples_per_sec\": %.0f, "
                "\"speedup\": %.2f }",
                static_cast<long long>(4 * kShufflePerProducer), legacy_tps,
                frame_tps, frame_tps / legacy_tps);
  std::printf("shuffle legacy=%.0f t/s frame=%.0f t/s speedup=%.2fx\n",
              legacy_tps, frame_tps, frame_tps / legacy_tps);

  // Head-to-head join/group-by runs for the machine-readable snapshot: the
  // legacy vector<Value>-keyed build vs the serialized-normalized-key build,
  // in memory and with a budget small enough to force Grace spilling.
  const size_t kHeadToHead = 100000;
  auto build = JoinSide(kHeadToHead, kHeadToHead / 2, 1);
  auto probe = JoinSide(kHeadToHead, kHeadToHead / 2, 2);
  double join_legacy = JoinTuplesPerSec(false, 0, build, probe);
  double join_serialized = JoinTuplesPerSec(true, 0, build, probe);
  double join_spill = JoinTuplesPerSec(true, kForcedSpillBudget, build, probe);
  size_t groups = DistinctCol0(build);
  double gb_mem = GroupByTuplesPerSec(0, build, groups);
  double gb_spill = GroupByTuplesPerSec(kForcedSpillBudget, build, groups);
  char hash_json[512];
  std::snprintf(
      hash_json, sizeof(hash_json),
      "{ \"tuples_per_side\": %lld, "
      "\"legacy_value_key_tuples_per_sec\": %.0f, "
      "\"serialized_key_tuples_per_sec\": %.0f, "
      "\"serialized_vs_legacy_speedup\": %.2f, "
      "\"forced_spill_tuples_per_sec\": %.0f, "
      "\"spill_budget_bytes\": %lld }",
      static_cast<long long>(kHeadToHead), join_legacy, join_serialized,
      join_serialized / join_legacy, join_spill,
      static_cast<long long>(kForcedSpillBudget));
  char gb_json[256];
  std::snprintf(gb_json, sizeof(gb_json),
                "{ \"tuples\": %lld, \"groups\": %lld, "
                "\"in_memory_tuples_per_sec\": %.0f, "
                "\"forced_spill_tuples_per_sec\": %.0f }",
                static_cast<long long>(kHeadToHead),
                static_cast<long long>(groups), gb_mem, gb_spill);
  std::printf(
      "hash join legacy=%.0f t/s serialized=%.0f t/s (%.2fx) spill=%.0f t/s\n"
      "group-by mem=%.0f t/s spill=%.0f t/s\n",
      join_legacy, join_serialized, join_serialized / join_legacy, join_spill,
      gb_mem, gb_spill);

  // Interpreted vs vectorized head-to-head on the same columnar data: both
  // paths must agree on the answer (identical accumulation order makes the
  // double sums bit-comparable), and the vectorized one must be faster.
  // Best wall time, in seconds, of `reps` runs of `pass`.
  auto timed_best_of = [](int reps, const auto& pass) {
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      pass();
      double sec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
      if (sec < best) best = sec;
    }
    return best;
  };
  size_t vec_rows = 0;
  double interp_sum = 0, vec_sum = 0;
  double interp_sec = timed_best_of(
      3, [&] { interp_sum = InterpretedFilterAggPass(&vec_rows); });
  double vec_sec = timed_best_of(
      3, [&] { vec_sum = VectorizedFilterAggPass(&vec_rows); });
  if (interp_sum != vec_sum) {
    std::fprintf(stderr, "FATAL vector exec mismatch: interp=%f vec=%f\n",
                 interp_sum, vec_sum);
    return 1;
  }
  double interp_rps = static_cast<double>(vec_rows) / interp_sec;
  double vec_rps = static_cast<double>(vec_rows) / vec_sec;
  double vec_speedup = vec_rps / interp_rps;
  char vector_json[256];
  std::snprintf(vector_json, sizeof(vector_json),
                "{ \"rows\": %lld, "
                "\"interpreted_rows_per_sec\": %.0f, "
                "\"vectorized_rows_per_sec\": %.0f, "
                "\"speedup\": %.2f }",
                static_cast<long long>(vec_rows), interp_rps, vec_rps,
                vec_speedup);
  std::printf("vector exec interpreted=%.0f rows/s vectorized=%.0f rows/s "
              "speedup=%.2fx\n",
              interp_rps, vec_rps, vec_speedup);
  if (std::getenv("ASTERIX_BENCH_REQUIRE_VECTOR_SPEEDUP") != nullptr &&
      vec_speedup < 1.0) {
    std::fprintf(stderr,
                 "FATAL vectorized path slower than interpreted (%.2fx)\n",
                 vec_speedup);
    return 1;
  }

  // Row-tree reads for the snapshot: a whole-record scan, and the same 256
  // sorted keys fetched by one MultiGet against one point lookup each, as
  // best-of-5 wall times and the buffer-cache pages each fetch reads. Keys
  // 78 apart sit in different leaves, so the batch descends once per key
  // here, like the one-key fetches.
  FormatFixture::Build();
  size_t scan_rows = 0, batch_hits = 0, single_hits = 0;
  asterix::storage::LsmBTree* row_tree = FormatFixture::row.get();
  asterix::storage::BufferCache* row_cache = FormatFixture::cache.get();
  auto page_gets = [&] { return row_cache->hits() + row_cache->misses(); };
  double scan_sec = timed_best_of(
      5, [&] { scan_rows = FormatFixture::WholeRecordScan(row_tree); });
  uint64_t gets0 = page_gets();
  double batch_sec = timed_best_of(
      5, [&] { batch_hits = FormatFixture::FetchSortedKeys(row_tree, true); });
  uint64_t gets1 = page_gets();
  double single_sec = timed_best_of(5, [&] {
    single_hits = FormatFixture::FetchSortedKeys(row_tree, false);
  });
  uint64_t batch_gets = (gets1 - gets0) / 5;
  uint64_t single_gets = (page_gets() - gets1) / 5;
  if (batch_hits != 256 || single_hits != 256) {
    std::fprintf(stderr, "FATAL row fetch found %zu/%zu of 256 keys\n",
                 batch_hits, single_hits);
    return 1;
  }
  char row_json[320];
  std::snprintf(row_json, sizeof(row_json),
                "{ \"rows\": %zu, "
                "\"whole_record_scan_rows_per_sec\": %.0f, "
                "\"sorted_multiget_256_us\": %.1f, "
                "\"sorted_multiget_256_page_gets\": %llu, "
                "\"point_lookups_256_us\": %.1f, "
                "\"point_lookups_256_page_gets\": %llu }",
                scan_rows, static_cast<double>(scan_rows) / scan_sec,
                batch_sec * 1e6, static_cast<unsigned long long>(batch_gets),
                single_sec * 1e6, static_cast<unsigned long long>(single_gets));
  std::printf("row reads: whole-record scan=%.0f rows/s, 256 keys: "
              "multiget=%.1f us (%llu pages) point-lookups=%.1f us "
              "(%llu pages)\n",
              static_cast<double>(scan_rows) / scan_sec, batch_sec * 1e6,
              static_cast<unsigned long long>(batch_gets), single_sec * 1e6,
              static_cast<unsigned long long>(single_gets));

  std::string out = "{ \"bench\": \"micro\", \"shuffle\": " +
                    std::string(shuffle_json) + ", \"hash_join\": " +
                    std::string(hash_json) + ", \"group_by\": " +
                    std::string(gb_json) + ", \"vector_exec\": " +
                    std::string(vector_json) + ", \"row_reads\": " +
                    std::string(row_json) + ", \"metrics\": " +
                    asterix::api::AsterixInstance::MetricsJson() + " }";
  auto st = asterix::env::WriteFileAtomic("BENCH_micro.json", out.data(),
                                          out.size());
  if (!st.ok()) {
    std::fprintf(stderr, "FATAL bench dump: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_micro.json\n");

  // Live-introspection artifacts: boot a tiny instance with an aggressive
  // slow-query threshold, run a short script, and leave a StatusJson
  // snapshot plus the resulting slow-query log next to the bench dumps
  // (CI uploads both).
  {
    std::string dir = asterix::env::NewScratchDir("bench_micro_status");
    asterix::api::InstanceConfig config;
    config.base_dir = dir + "/asterix";
    config.cluster.num_nodes = 2;
    config.cluster.partitions_per_node = 2;
    config.cluster.job_startup_us = 0;
    config.cluster.slow_query_us = 1;  // every query profiles into the log
    asterix::api::AsterixInstance instance(config);
    auto check = [](const asterix::Status& s, const char* what) {
      if (!s.ok()) {
        std::fprintf(stderr, "FATAL %s: %s\n", what, s.ToString().c_str());
        std::exit(1);
      }
    };
    check(instance.Boot(), "status boot");
    auto r = instance.Execute(R"aql(
create dataverse Bench; use dataverse Bench;
create type T as { id: int64, v: int64 }
create dataset D(T) primary key id;
insert into dataset D ([
  { "id": 1, "v": 2 }, { "id": 2, "v": 3 }, { "id": 3, "v": 4 },
  { "id": 4, "v": 5 }, { "id": 5, "v": 6 }, { "id": 6, "v": 7 } ]);
for $a in dataset D where $a.v > 3 return $a.id;
)aql");
    check(r.ok() ? asterix::Status::OK() : r.status(), "status script");
    std::string status = instance.StatusJson();
    check(asterix::env::WriteFileAtomic("STATUS.json", status.data(),
                                        status.size()),
          "status dump");
    std::printf("wrote STATUS.json\n");
    std::vector<uint8_t> slow_log;
    if (asterix::env::ReadFile(instance.SlowQueryLogPath(), &slow_log).ok()) {
      check(asterix::env::WriteFileAtomic("SLOW_QUERY.log", slow_log.data(),
                                          slow_log.size()),
            "slow-query dump");
      std::printf("wrote SLOW_QUERY.log\n");
    }
    asterix::env::RemoveAll(dir);
  }
  return 0;
}
