#include "hyracks/operators.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <unordered_map>

#include "adm/serde.h"
#include "common/bytes.h"
#include "common/env.h"
#include "functions/aggregates.h"
#include "functions/arith.h"
#include "hyracks/hash_table.h"
#include "hyracks/memory.h"
#include "hyracks/spill.h"

namespace asterix {
namespace hyracks {

using adm::Value;

namespace {

/// Adapter: build an OperatorInstance from a lambda.
class LambdaOperator : public OperatorInstance {
 public:
  using Fn = std::function<Status(const std::vector<InChannel*>&, Emitter*)>;
  explicit LambdaOperator(Fn fn) : fn_(std::move(fn)) {}
  Status Run(const std::vector<InChannel*>& inputs, Emitter* out) override {
    return fn_(inputs, out);
  }

 private:
  Fn fn_;
};

OperatorFactory Lambda(std::function<Status(int, const std::vector<InChannel*>&,
                                            Emitter*)> fn) {
  return [fn = std::move(fn)](int partition) {
    return std::make_unique<LambdaOperator>(
        [fn, partition](const std::vector<InChannel*>& in, Emitter* out) {
          return fn(partition, in, out);
        });
  };
}

/// Drains one input channel frame-at-a-time, invoking `fn` per frame. A
/// columnar batch that reached a row-oriented operator arrives as its
/// selected rows, so every operator is a safe vectorization boundary.
Status ForEachFrame(InChannel* in, const std::function<Status(Frame&)>& fn) {
  Frame frame;
  while (true) {
    auto r = in->NextFrame(&frame);
    if (!r.ok()) return r.status();
    if (!r.value()) return Status::OK();
    if (frame.batch != nullptr) {
      for (uint32_t row : frame.batch->sel.rows) {
        frame.tuples.push_back({frame.batch->MaterializeRow(row)});
      }
      frame.batch.reset();
    }
    ASTERIX_RETURN_NOT_OK(fn(frame));
  }
}

/// ForEachFrame, invoking `fn` per tuple. One channel synchronization buys
/// a whole frame of work, so every operator built on this helper consumes
/// input at frame granularity.
Status ForEachInput(InChannel* in, const std::function<Status(Tuple&)>& fn) {
  return ForEachFrame(in, [&](Frame& frame) {
    for (Tuple& t : frame.tuples) ASTERIX_RETURN_NOT_OK(fn(t));
    return Status::OK();
  });
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

Result<std::vector<Value>> EvalKeys(const std::vector<TupleEval>& evals,
                                    const Tuple& t) {
  std::vector<Value> keys;
  keys.reserve(evals.size());
  for (const auto& e : evals) {
    auto r = e(t);
    if (!r.ok()) return r.status();
    keys.push_back(r.take());
  }
  return keys;
}

// Aggregation core shared by the hash group-by and the ungrouped aggregate.
struct GroupState {
  std::vector<std::unique_ptr<functions::Aggregator>> aggs;
};

/// Feeds one tuple to a group's aggregators. When `grown` is given, adds to
/// it the estimated bytes of every value a collecting aggregator (listify)
/// took in, raw or out of a reloaded partial bag; no other state grows.
Status FeedGroup(GroupState* g, const std::vector<AggSpec>& specs,
                 const Tuple& t, AggMode mode, size_t key_arity,
                 size_t* grown = nullptr) {
  auto collected_bytes = [](const Value& v) {
    return EstimateValueBytes(v) + sizeof(Value);
  };
  for (size_t i = 0; i < specs.size(); ++i) {
    functions::Aggregator& agg = *g->aggs[i];
    const bool charge = grown != nullptr && agg.Collects();
    if (mode == AggMode::kGlobal) {
      // Partial columns follow the keys in the input layout.
      const Value& partial = t[key_arity + i];
      if (charge) {
        for (const Value& v : partial.AsList()) *grown += collected_bytes(v);
      }
      agg.Combine(partial);
    } else if (specs[i].input) {
      auto v = specs[i].input(t);
      if (!v.ok()) return v.status();
      if (charge) *grown += collected_bytes(v.value());
      agg.Add(v.value());
    } else {
      agg.Add(Value::Int64(1));  // count(*) style
    }
  }
  return Status::OK();
}

Tuple FinishGroup(const std::vector<Value>& keys, GroupState* g, AggMode mode) {
  Tuple out = keys;
  for (auto& a : g->aggs) {
    out.push_back(mode == AggMode::kLocal ? a->Partial() : a->Finish());
  }
  return out;
}

GroupState NewGroup(const std::vector<AggSpec>& specs) {
  GroupState g;
  for (const auto& s : specs) {
    g.aggs.push_back(functions::MakeAggregator(s.function));
  }
  return g;
}

// ---------------------------------------------------------------------------
// Budgeted hash operators (hybrid/Grace join, group-by, distinct).
//
// Shared shape: inputs hash-partition into kSpillFanout partitions by bits of
// a 64-bit hash over the serialized normalized key. Each partition owns a
// SerializedKeyTable (flat open addressing over arena-resident key bytes).
// When the instance's MemoryBudget trips, the largest resident partition is
// evicted wholesale to a SpillRun and further input for it is diverted to
// disk; spilled partitions are recursively re-processed on the next 4 hash
// bits. At kMaxSpillDepth the level builds in memory regardless (termination
// guarantee for all-equal-key skew); each level uses disjoint hash bits, so
// recursion splits what the parent level could not.
// ---------------------------------------------------------------------------

using TupleSink = std::function<Status(Tuple&)>;
using TupleSource = std::function<Status(const TupleSink&)>;

TupleSource ChannelSource(InChannel* in) {
  return [in](const TupleSink& fn) { return ForEachInput(in, fn); };
}

TupleSource RunSource(const SpillRun* run) {
  return [run](const TupleSink& fn) { return run->ForEach(fn); };
}

TupleSource EmptySource() {
  return [](const TupleSink&) { return Status::OK(); };
}

constexpr int kSpillFanout = 16;
constexpr int kSpillHashBits = 4;  // log2(kSpillFanout)
constexpr int kMaxSpillDepth = 4;

size_t SpillPartitionOf(uint64_t hash, int depth) {
  return (hash >> (depth * kSpillHashBits)) & (kSpillFanout - 1);
}

/// Serializes the evaluated key expressions (the whole tuple when `evals` is
/// empty) to the equality-normalized wire form used for hashing and memcmp
/// equality. When `unknown` is non-null it reports whether any key value was
/// Missing/Null (joins drop those; group-by/distinct treat them as values).
Status SerializeKeyOf(const std::vector<TupleEval>& evals, const Tuple& t,
                      BytesWriter* w, bool* unknown) {
  if (evals.empty()) {
    for (const auto& v : t) adm::SerializeNormalizedKey(v, w);
    return Status::OK();
  }
  for (const auto& e : evals) {
    auto r = e(t);
    if (!r.ok()) return r.status();
    if (unknown != nullptr && r.value().IsUnknown()) *unknown = true;
    adm::SerializeNormalizedKey(r.value(), w);
  }
  return Status::OK();
}

/// The spill bookkeeping every budgeted operator instance shares: its budget
/// (null when running unbudgeted), a lazily-created scratch directory, and
/// the counters reported to the emitter at close.
struct SpillContext {
  explicit SpillContext(Emitter* out, const char* scratch_prefix)
      : out(out), budget(out->memory_budget()), scratch(scratch_prefix) {}

  std::string NextRunPath() {
    return scratch.dir() + "/run" + std::to_string(run_seq_++);
  }

  void Report() {
    if (hash_build_bytes > 0) out->AddHashBuildBytes(hash_build_bytes);
    if (spill_bytes > 0 || spilled_partitions > 0) {
      out->AddSpill(spill_bytes, spilled_partitions);
    }
  }

  Emitter* out;
  MemoryBudget* budget;
  ScratchDirGuard scratch;
  uint64_t spill_bytes = 0;
  uint64_t spilled_partitions = 0;
  uint64_t hash_build_bytes = 0;

 private:
  uint64_t run_seq_ = 0;
};

// --- Hybrid/Grace hash join ------------------------------------------------

class GraceHashJoin {
 public:
  GraceHashJoin(const std::vector<TupleEval>* build_keys,
                const std::vector<TupleEval>* probe_keys, size_t build_arity,
                bool left_outer, Emitter* out)
      : build_keys_(build_keys),
        probe_keys_(probe_keys),
        build_arity_(build_arity),
        left_outer_(left_outer),
        ctx_(out, "join-spill") {}

  Status Execute(const TupleSource& build, const TupleSource& probe,
                 int depth);

  void Report() { ctx_.Report(); }

 private:
  struct Partition {
    SerializedKeyTable table;
    std::vector<Tuple> tuples;
    // Chain links: tuple index -> previously inserted tuple with the same
    // key (kNoPayload ends the chain); the table payload is the chain head.
    std::vector<uint32_t> next;
    size_t charged = 0;
    bool spilled = false;
    std::unique_ptr<SpillRun> build_run, probe_run;
  };

  /// Evicts the largest resident partition to disk. Returns false (without
  /// error) when nothing is left to evict.
  Result<bool> SpillVictim(std::vector<Partition>* parts) {
    Partition* victim = nullptr;
    for (auto& p : *parts) {
      if (p.spilled || p.tuples.empty()) continue;
      if (victim == nullptr || p.charged > victim->charged) victim = &p;
    }
    if (victim == nullptr) return false;
    victim->build_run = std::make_unique<SpillRun>(ctx_.NextRunPath());
    for (const Tuple& t : victim->tuples) {
      ASTERIX_RETURN_NOT_OK(victim->build_run->AppendTuple(t));
    }
    if (ctx_.budget != nullptr) ctx_.budget->Release(victim->charged);
    victim->charged = 0;
    victim->spilled = true;
    victim->table = SerializedKeyTable();
    std::vector<Tuple>().swap(victim->tuples);
    std::vector<uint32_t>().swap(victim->next);
    ++ctx_.spilled_partitions;
    return true;
  }

  void EmitOuter(const Tuple& probe_tuple) {
    Tuple o(build_arity_, Value::Null());
    o.insert(o.end(), probe_tuple.begin(), probe_tuple.end());
    ctx_.out->Push(std::move(o));
  }

  const std::vector<TupleEval>* build_keys_;
  const std::vector<TupleEval>* probe_keys_;
  size_t build_arity_;
  bool left_outer_;
  SpillContext ctx_;
};

Status GraceHashJoin::Execute(const TupleSource& build,
                              const TupleSource& probe, int depth) {
  const bool can_spill = ctx_.budget != nullptr && depth < kMaxSpillDepth;
  std::vector<Partition> parts(kSpillFanout);
  BytesWriter key;

  // Build: partition, insert resident, divert to runs once spilled.
  ASTERIX_RETURN_NOT_OK(build([&](Tuple& t) -> Status {
    key.Clear();
    bool unknown = false;
    ASTERIX_RETURN_NOT_OK(SerializeKeyOf(*build_keys_, t, &key, &unknown));
    if (unknown) return Status::OK();  // unknown keys never join
    uint64_t h = Hash64(key.data().data(), key.size());
    Partition& p = parts[SpillPartitionOf(h, depth)];
    if (p.spilled) return p.build_run->AppendTuple(t);
    size_t table_before = p.table.bytes();
    bool inserted;
    uint32_t* head =
        p.table.FindOrInsert(key.data().data(), key.size(), h, &inserted);
    p.next.push_back(*head);
    *head = static_cast<uint32_t>(p.tuples.size());
    size_t delta = p.table.bytes() - table_before + EstimateTupleBytes(t) +
                   sizeof(uint32_t);
    p.tuples.push_back(std::move(t));
    p.charged += delta;
    if (ctx_.budget != nullptr) {
      ctx_.budget->Charge(delta);
      while (can_spill && ctx_.budget->over_budget()) {
        ASTERIX_ASSIGN_OR_RETURN(bool spilled, SpillVictim(&parts));
        if (!spilled) break;
      }
    }
    return Status::OK();
  }));
  for (const Partition& p : parts) {
    if (!p.spilled) ctx_.hash_build_bytes += p.charged;
  }

  // Probe: resident partitions stream matches; spilled ones buffer probes.
  std::vector<uint32_t> chain;
  ASTERIX_RETURN_NOT_OK(probe([&](Tuple& t) -> Status {
    key.Clear();
    bool unknown = false;
    ASTERIX_RETURN_NOT_OK(SerializeKeyOf(*probe_keys_, t, &key, &unknown));
    if (unknown) {
      if (left_outer_) EmitOuter(t);
      return Status::OK();
    }
    uint64_t h = Hash64(key.data().data(), key.size());
    Partition& p = parts[SpillPartitionOf(h, depth)];
    if (p.spilled) {
      if (!p.probe_run) {
        p.probe_run = std::make_unique<SpillRun>(ctx_.NextRunPath());
      }
      return p.probe_run->AppendTuple(t);
    }
    const uint32_t* head = p.table.Find(key.data().data(), key.size(), h);
    if (head != nullptr) {
      // The chain is newest-first; emit matches in build-arrival order.
      chain.clear();
      for (uint32_t i = *head; i != SerializedKeyTable::kNoPayload;
           i = p.next[i]) {
        chain.push_back(i);
      }
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        Tuple o = p.tuples[*it];
        o.insert(o.end(), t.begin(), t.end());
        ctx_.out->Push(std::move(o));
      }
    } else if (left_outer_) {
      EmitOuter(t);
    }
    return Status::OK();
  }));

  // This level's resident state is dead; release it before recursing so the
  // sub-joins inherit the full budget.
  for (auto& p : parts) {
    if (p.spilled) continue;
    if (ctx_.budget != nullptr) ctx_.budget->Release(p.charged);
    p.charged = 0;
    p.table = SerializedKeyTable();
    std::vector<Tuple>().swap(p.tuples);
    std::vector<uint32_t>().swap(p.next);
  }

  for (auto& p : parts) {
    if (!p.spilled) continue;
    ASTERIX_RETURN_NOT_OK(p.build_run->Finish());
    ctx_.spill_bytes += p.build_run->bytes();
    if (p.probe_run) {
      ASTERIX_RETURN_NOT_OK(p.probe_run->Finish());
      ctx_.spill_bytes += p.probe_run->bytes();
    }
    // No probes hit the partition: nothing can join (and outer padding only
    // applies to probe tuples), so the build run is simply dropped.
    if (p.probe_run && !p.probe_run->empty()) {
      ASTERIX_RETURN_NOT_OK(Execute(RunSource(p.build_run.get()),
                                    RunSource(p.probe_run.get()), depth + 1));
    }
    p.build_run->Remove();
    if (p.probe_run) p.probe_run->Remove();
  }
  return Status::OK();
}

}  // namespace

std::function<uint64_t(const Tuple&)> HashOnColumns(std::vector<int> columns) {
  return [columns = std::move(columns)](const Tuple& t) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int c : columns) h = t[static_cast<size_t>(c)].Hash(h);
    return h;
  };
}

OperatorDescriptor MakeValueScan(std::vector<Tuple> tuples) {
  OperatorDescriptor op;
  op.name = "value-scan";
  op.parallelism = 1;
  op.num_inputs = 0;
  auto shared = std::make_shared<std::vector<Tuple>>(std::move(tuples));
  op.factory = Lambda([shared](int partition, const std::vector<InChannel*>&,
                               Emitter* out) {
    // Only instance 0 emits, so a misconfigured parallelism cannot
    // duplicate the constants.
    if (partition == 0) {
      for (const auto& t : *shared) out->Push(t);
    }
    return Status::OK();
  });
  return op;
}

OperatorDescriptor MakeUnion(int parallelism, int num_inputs) {
  OperatorDescriptor op;
  op.name = "union-all";
  op.parallelism = parallelism;
  op.num_inputs = num_inputs;
  op.factory = Lambda([num_inputs](int, const std::vector<InChannel*>& in,
                                   Emitter* out) {
    for (int port = 0; port < num_inputs; ++port) {
      ASTERIX_RETURN_NOT_OK(ForEachInput(in[static_cast<size_t>(port)],
                                         [&](Tuple& t) {
                                           out->Push(std::move(t));
                                           return Status::OK();
                                         }));
    }
    return Status::OK();
  });
  return op;
}

OperatorDescriptor MakeDatasetScan(storage::PartitionedDataset* dataset,
                                   storage::column::Projection projection) {
  OperatorDescriptor op;
  bool columnar =
      dataset->def().storage_format == storage::StorageFormat::kColumn;
  op.name = std::string(columnar ? "column-scan(" : "scan(") +
            dataset->def().name + ")";
  std::string ptag = projection.ToString();
  if (!ptag.empty()) op.name += " " + ptag;
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 0;
  auto proj = std::make_shared<storage::column::Projection>(std::move(projection));
  op.factory = Lambda([dataset, proj](int p, const std::vector<InChannel*>&,
                                      Emitter* out) {
    storage::column::ProjectedScanStats stats;
    Status st = dataset->partition(static_cast<uint32_t>(p))
                    ->ProjectedScan(storage::ScanBounds{}, *proj,
                                    [&](const Value& rec) {
                                      out->Push({rec});
                                      return Status::OK();
                                    },
                                    &stats);
    out->AddBytesRead(stats.bytes_read);
    return st;
  });
  return op;
}

OperatorDescriptor MakePrimaryRangeScan(storage::PartitionedDataset* dataset,
                                        storage::ScanBounds bounds,
                                        storage::column::Projection projection) {
  OperatorDescriptor op;
  op.name = "btree-range-scan(" + dataset->def().name + ")";
  std::string ptag = projection.ToString();
  if (!ptag.empty()) op.name += " " + ptag;
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 0;
  auto shared = std::make_shared<storage::ScanBounds>(std::move(bounds));
  auto proj = std::make_shared<storage::column::Projection>(std::move(projection));
  op.factory = Lambda([dataset, shared, proj](int p,
                                              const std::vector<InChannel*>&,
                                              Emitter* out) {
    storage::column::ProjectedScanStats stats;
    Status st = dataset->partition(static_cast<uint32_t>(p))
                    ->ProjectedScan(*shared, *proj,
                                    [&](const Value& rec) {
                                      out->Push({rec});
                                      return Status::OK();
                                    },
                                    &stats);
    out->AddBytesRead(stats.bytes_read);
    return st;
  });
  return op;
}

namespace {

/// One fetch batch: the frame's keys, grouped by storage partition, sorted
/// and de-duplicated, go to one MultiGet per partition; each input tuple
/// that finds its record is emitted, in input order, as tuple ++ [record].
Status FetchFrame(storage::PartitionedDataset* dataset, txn::TxnId txn,
                  const std::vector<int>& key_columns,
                  const storage::column::Projection& proj, Frame* frame,
                  Emitter* out) {
  std::vector<Tuple>& tuples = frame->tuples;
  // Per partition: (key, input position) pairs.
  std::vector<std::vector<std::pair<storage::CompositeKey, size_t>>> parts(
      dataset->num_partitions());
  for (size_t k = 0; k < tuples.size(); ++k) {
    storage::CompositeKey pk;
    for (int c : key_columns) pk.push_back(tuples[k][static_cast<size_t>(c)]);
    uint32_t part = dataset->PartitionOf(pk);
    parts[part].emplace_back(std::move(pk), k);
  }
  std::vector<Value> fetched(tuples.size());
  std::vector<char> hit(tuples.size(), 0);
  std::vector<storage::CompositeKey> keys;
  std::vector<size_t> first;  // keys[i]'s first entry in the sorted pairs
  for (uint32_t part = 0; part < parts.size(); ++part) {
    auto& entries = parts[part];
    if (entries.empty()) continue;
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return storage::CompareKeys(a.first, b.first) < 0;
    });
    keys.clear();
    first.clear();
    for (size_t e = 0; e < entries.size(); ++e) {
      if (keys.empty() ||
          storage::CompareKeys(keys.back(), entries[e].first) != 0) {
        keys.push_back(entries[e].first);
        first.push_back(e);
      }
    }
    ASTERIX_RETURN_NOT_OK(dataset->partition(part)->MultiGet(
        txn, keys, proj,
        [&](size_t i, Value rec) {
          size_t end = i + 1 < first.size() ? first[i + 1] : entries.size();
          for (size_t e = first[i]; e < end; ++e) {
            fetched[entries[e].second] = rec;
            hit[entries[e].second] = 1;
          }
          return Status::OK();
        }));
  }
  for (size_t k = 0; k < tuples.size(); ++k) {
    if (!hit[k]) continue;
    Tuple o = std::move(tuples[k]);
    o.push_back(std::move(fetched[k]));
    out->Push(std::move(o));
  }
  return Status::OK();
}

}  // namespace

OperatorDescriptor MakePrimarySearch(storage::PartitionedDataset* dataset,
                                     txn::TxnManager* txns,
                                     std::vector<int> key_columns, bool locked,
                                     storage::column::Projection projection) {
  OperatorDescriptor op;
  op.name = std::string("btree-search(") + dataset->def().name + ".primary)";
  std::string ptag = projection.ToString();
  if (!ptag.empty()) op.name += " " + ptag;
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 1;
  auto proj =
      std::make_shared<storage::column::Projection>(std::move(projection));
  op.factory = Lambda([dataset, txns, key_columns, locked, proj](
                          int, const std::vector<InChannel*>& in,
                          Emitter* out) {
    // One implicit read transaction per task; S locks release at commit.
    txn::TxnId t = locked ? txns->Begin() : 0;
    Status st = ForEachFrame(in[0], [&](Frame& frame) {
      return FetchFrame(dataset, t, key_columns, *proj, &frame, out);
    });
    // Read-only transaction: release the S locks; no WAL record needed.
    if (locked) txns->locks().ReleaseAll(t);
    return st;
  });
  return op;
}

OperatorDescriptor MakeSecondarySearch(storage::PartitionedDataset* dataset,
                                       std::string index_name,
                                       storage::ScanBounds bounds,
                                       size_t pk_arity) {
  OperatorDescriptor op;
  op.name = "btree-search(" + index_name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 0;
  auto shared = std::make_shared<storage::ScanBounds>(std::move(bounds));
  op.factory = Lambda([dataset, index_name, shared, pk_arity](
                          int p, const std::vector<InChannel*>&, Emitter* out) {
    return dataset->partition(static_cast<uint32_t>(p))
        ->SecondaryRangeScan(index_name, *shared,
                             [&](const storage::IndexEntry& e) {
                               Tuple t(e.key.end() - pk_arity, e.key.end());
                               out->Push(std::move(t));
                               return Status::OK();
                             });
  });
  return op;
}

OperatorDescriptor MakeSecondaryProbe(storage::PartitionedDataset* dataset,
                                      std::string index_name, TupleEval key_eval,
                                      size_t pk_arity) {
  OperatorDescriptor op;
  op.name = "btree-probe(" + index_name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 1;
  op.factory = Lambda([dataset, index_name, key_eval, pk_arity](
                          int p, const std::vector<InChannel*>& in,
                          Emitter* out) {
    return ForEachInput(in[0], [&](Tuple& tuple) {
      auto key_r = key_eval(tuple);
      if (!key_r.ok()) return key_r.status();
      if (key_r.value().IsUnknown()) return Status::OK();
      storage::ScanBounds b;
      b.lo = storage::CompositeKey{key_r.value()};
      b.hi = b.lo;
      return dataset->partition(static_cast<uint32_t>(p))
          ->SecondaryRangeScan(index_name, b, [&](const storage::IndexEntry& e) {
            Tuple o = tuple;
            o.insert(o.end(), e.key.end() - pk_arity, e.key.end());
            out->Push(std::move(o));
            return Status::OK();
          });
    });
  });
  return op;
}

OperatorDescriptor MakeRTreeSearch(storage::PartitionedDataset* dataset,
                                   std::string index_name, storage::Mbr query,
                                   size_t pk_arity) {
  OperatorDescriptor op;
  op.name = "rtree-search(" + index_name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 0;
  op.factory = Lambda([dataset, index_name, query, pk_arity](
                          int p, const std::vector<InChannel*>&, Emitter* out) {
    (void)pk_arity;
    return dataset->partition(static_cast<uint32_t>(p))
        ->RTreeSearch(index_name, query, [&](const storage::CompositeKey& pk) {
          out->Push(Tuple(pk.begin(), pk.end()));
          return Status::OK();
        });
  });
  return op;
}

OperatorDescriptor MakeInvertedSearch(storage::PartitionedDataset* dataset,
                                      std::string index_name,
                                      std::vector<std::string> tokens,
                                      size_t min_matches, size_t pk_arity) {
  OperatorDescriptor op;
  op.name = "inverted-search(" + index_name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 0;
  auto shared = std::make_shared<std::vector<std::string>>(std::move(tokens));
  op.factory = Lambda([dataset, index_name, shared, min_matches, pk_arity](
                          int p, const std::vector<InChannel*>&, Emitter* out) {
    (void)pk_arity;
    auto* ix = dataset->partition(static_cast<uint32_t>(p))
                   ->inverted_index(index_name);
    if (!ix) return Status::NotFound("no inverted index " + index_name);
    return ix->SearchTokensCount(
        *shared, [&](const storage::CompositeKey& pk, size_t count) {
          if (count >= min_matches) out->Push(Tuple(pk.begin(), pk.end()));
          return Status::OK();
        });
  });
  return op;
}

OperatorDescriptor MakeSelect(int parallelism, TupleEval predicate) {
  OperatorDescriptor op;
  op.name = "select";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.factory = Lambda([predicate](int, const std::vector<InChannel*>& in,
                                  Emitter* out) {
    return ForEachInput(in[0], [&](Tuple& t) {
      auto v = predicate(t);
      if (!v.ok()) return v.status();
      if (functions::ValueToTri(v.value()) == functions::Tri::kTrue) {
        out->Push(std::move(t));
      }
      return Status::OK();
    });
  });
  return op;
}

OperatorDescriptor MakeAssign(int parallelism, std::vector<TupleEval> exprs) {
  OperatorDescriptor op;
  op.name = "assign";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.factory = Lambda([exprs](int, const std::vector<InChannel*>& in,
                              Emitter* out) {
    return ForEachInput(in[0], [&](Tuple& t) {
      for (const auto& e : exprs) {
        auto v = e(t);
        if (!v.ok()) return v.status();
        t.push_back(v.take());
      }
      out->Push(std::move(t));
      return Status::OK();
    });
  });
  return op;
}

OperatorDescriptor MakeProject(int parallelism, std::vector<int> columns) {
  OperatorDescriptor op;
  op.name = "project";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.factory = Lambda([columns](int, const std::vector<InChannel*>& in,
                                Emitter* out) {
    return ForEachInput(in[0], [&](Tuple& t) {
      Tuple o;
      o.reserve(columns.size());
      for (int c : columns) o.push_back(t[static_cast<size_t>(c)]);
      out->Push(std::move(o));
      return Status::OK();
    });
  });
  return op;
}

OperatorDescriptor MakeSort(int parallelism, TupleCompare compare,
                            std::optional<size_t> limit,
                            size_t spill_budget_tuples) {
  OperatorDescriptor op;
  op.name = "sort";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.blocking_ports = {0};
  op.memory_intensive = true;
  op.factory = Lambda([compare, limit, spill_budget_tuples](
                          int partition, const std::vector<InChannel*>& in,
                          Emitter* out) {
    // External merge sort: sorted runs spill to disk once the in-memory
    // budget — tuple-count cap or the instance's byte budget, whichever
    // trips first — is hit; a final heap-driven k-way merge streams the
    // global order.
    MemoryBudget* budget = out->memory_budget();
    // Floor per run so a degenerate byte budget cannot degrade into one
    // run per tuple (each run costs a file and a merge stream).
    const size_t min_run_tuples = std::min<size_t>(64, spill_budget_tuples);
    std::vector<Tuple> buffer;
    size_t charged = 0;
    std::vector<std::unique_ptr<SpillRun>> runs;
    ScratchDirGuard scratch("sort-spill");
    auto sort_buffer = [&] {
      std::stable_sort(buffer.begin(), buffer.end(),
                       [&](const Tuple& a, const Tuple& b) {
                         return compare(a, b) < 0;
                       });
    };
    auto spill = [&]() -> Status {
      sort_buffer();
      auto run = std::make_unique<SpillRun>(scratch.dir() + "/run" +
                                            std::to_string(runs.size()));
      for (const auto& t : buffer) ASTERIX_RETURN_NOT_OK(run->AppendTuple(t));
      ASTERIX_RETURN_NOT_OK(run->Finish());
      runs.push_back(std::move(run));
      buffer.clear();
      if (budget != nullptr) budget->Release(charged);
      charged = 0;
      return Status::OK();
    };

    ASTERIX_RETURN_NOT_OK(ForEachInput(in[0], [&](Tuple& t) {
      if (budget != nullptr) {
        size_t d = EstimateTupleBytes(t);
        charged += d;
        budget->Charge(d);
      }
      buffer.push_back(std::move(t));
      if (buffer.size() >= spill_budget_tuples ||
          (budget != nullptr && budget->over_budget() &&
           buffer.size() >= min_run_tuples)) {
        return spill();
      }
      return Status::OK();
    }));
    (void)partition;

    if (runs.empty()) {
      // Everything fit in memory.
      sort_buffer();
      size_t n = limit.has_value() ? std::min(*limit, buffer.size())
                                   : buffer.size();
      for (size_t i = 0; i < n; ++i) out->Push(std::move(buffer[i]));
      if (budget != nullptr) budget->Release(charged);
      return Status::OK();
    }
    if (!buffer.empty()) ASTERIX_RETURN_NOT_OK(spill());

    uint64_t run_bytes = 0;
    for (const auto& run : runs) run_bytes += run->bytes();
    out->AddSpill(run_bytes, runs.size());

    // K-way merge over one streaming cursor per run (each holds at most a
    // flush-sized window of its run): a binary heap of run heads replaces
    // the O(k) scan per output tuple. Ties break toward the earlier run,
    // preserving the stable order sequential spilling produced.
    std::vector<std::unique_ptr<SpillRun::Cursor>> cursors;
    std::vector<size_t> heap;
    for (const auto& run : runs) {
      cursors.push_back(std::make_unique<SpillRun::Cursor>(*run));
      bool more = false;
      ASTERIX_RETURN_NOT_OK(cursors.back()->Next(&more));
      if (more) heap.push_back(cursors.size() - 1);
    }
    auto heap_after = [&](size_t a, size_t b) {
      int c = compare(cursors[a]->tuple(), cursors[b]->tuple());
      if (c != 0) return c > 0;  // larger head pops later
      return a > b;
    };
    std::make_heap(heap.begin(), heap.end(), heap_after);
    size_t emitted = 0;
    while (!heap.empty() && (!limit.has_value() || emitted < *limit)) {
      std::pop_heap(heap.begin(), heap.end(), heap_after);
      size_t best = heap.back();
      out->Push(std::move(cursors[best]->tuple()));
      ++emitted;
      bool more = false;
      ASTERIX_RETURN_NOT_OK(cursors[best]->Next(&more));
      if (more) {
        std::push_heap(heap.begin(), heap.end(), heap_after);
      } else {
        heap.pop_back();
      }
    }
    cursors.clear();
    for (auto& run : runs) run->Remove();
    return Status::OK();
  });
  return op;
}

OperatorDescriptor MakeHybridHashJoin(int parallelism,
                                      std::vector<TupleEval> build_keys,
                                      std::vector<TupleEval> probe_keys,
                                      size_t build_arity, bool left_outer) {
  OperatorDescriptor op;
  op.name = "hybrid-hash-join";
  op.parallelism = parallelism;
  op.num_inputs = 2;
  op.blocking_ports = {0};  // Join Build activity blocks before probing
  op.memory_intensive = true;
  op.factory = Lambda([build_keys, probe_keys, build_arity, left_outer](
                          int, const std::vector<InChannel*>& in,
                          Emitter* out) {
    GraceHashJoin join(&build_keys, &probe_keys, build_arity, left_outer, out);
    Status st =
        join.Execute(ChannelSource(in[0]), ChannelSource(in[1]), /*depth=*/0);
    join.Report();
    return st;
  });
  return op;
}

namespace {

// --- Budgeted block nested-loop join ---------------------------------------
//
// Classic block-NLJ: build tuples fill one budget-bounded resident block;
// overflow diverts to a build run. The probe side streams once against the
// resident block — and, when anything overflowed, is copied to a probe run
// so each further build block (reloaded from the run) can re-scan it.
// Left-outer emission is deferred behind per-probe matched flags: a probe
// tuple whose only match lives in a late block must not be emitted
// null-padded after an early block misses it.
class BlockNestedLoopJoin {
 public:
  BlockNestedLoopJoin(const TupleEval* predicate, size_t build_arity,
                      bool left_outer, Emitter* out)
      : predicate_(predicate),
        build_arity_(build_arity),
        left_outer_(left_outer),
        ctx_(out, "nlj-spill") {}

  Status Execute(InChannel* build_in, InChannel* probe_in);

  void Report() { ctx_.Report(); }

 private:
  /// Tests one (build, probe) pair, pushing the joined tuple on a match.
  Result<bool> Match(const Tuple& b, const Tuple& p) {
    Tuple joined = b;
    joined.insert(joined.end(), p.begin(), p.end());
    auto v = (*predicate_)(joined);
    if (!v.ok()) return v.status();
    if (functions::ValueToTri(v.value()) != functions::Tri::kTrue) return false;
    ctx_.out->Push(std::move(joined));
    return true;
  }

  const TupleEval* predicate_;
  size_t build_arity_;
  bool left_outer_;
  SpillContext ctx_;
};

Status BlockNestedLoopJoin::Execute(InChannel* build_in, InChannel* probe_in) {
  MemoryBudget* budget = ctx_.budget;
  std::vector<Tuple> block;
  size_t charged = 0;
  std::unique_ptr<SpillRun> build_run;

  // Build: resident until the budget trips, everything after to the run.
  ASTERIX_RETURN_NOT_OK(ForEachInput(build_in, [&](Tuple& t) {
    if (budget != nullptr && budget->over_budget() && !block.empty()) {
      if (!build_run) {
        build_run = std::make_unique<SpillRun>(ctx_.NextRunPath());
      }
      return build_run->AppendTuple(t);
    }
    if (budget != nullptr) {
      size_t d = EstimateTupleBytes(t);
      charged += d;
      budget->Charge(d);
    }
    block.push_back(std::move(t));
    return Status::OK();
  }));

  std::unique_ptr<SpillRun> probe_run;
  std::vector<bool> matched;  // per probe-run position, across all blocks
  if (build_run) {
    ASTERIX_RETURN_NOT_OK(build_run->Finish());
    ctx_.spill_bytes += build_run->bytes();
    ++ctx_.spilled_partitions;
    probe_run = std::make_unique<SpillRun>(ctx_.NextRunPath());
  }

  // Probe once against the resident block. With no overflow this is the
  // whole join and left-outer tuples can be emitted immediately.
  ASTERIX_RETURN_NOT_OK(ForEachInput(probe_in, [&](Tuple& t) -> Status {
    bool hit = false;
    for (const auto& b : block) {
      ASTERIX_ASSIGN_OR_RETURN(bool m, Match(b, t));
      hit = hit || m;
    }
    if (probe_run) {
      matched.push_back(hit);
      return probe_run->AppendTuple(t);
    }
    if (!hit && left_outer_) {
      Tuple o(build_arity_, Value::Null());
      o.insert(o.end(), t.begin(), t.end());
      ctx_.out->Push(std::move(o));
    }
    return Status::OK();
  }));

  if (!probe_run) {
    if (budget != nullptr) budget->Release(charged);
    return Status::OK();
  }
  ASTERIX_RETURN_NOT_OK(probe_run->Finish());
  ctx_.spill_bytes += probe_run->bytes();
  std::vector<Tuple>().swap(block);
  if (budget != nullptr) budget->Release(charged);
  charged = 0;

  // Remaining build blocks: load a budget's worth from the run (the scan
  // skips records outside the window), re-scan the probe run against it.
  uint64_t offset = 0;
  const uint64_t overflow = build_run->records();
  while (offset < overflow) {
    uint64_t idx = 0;
    uint64_t loaded = 0;
    ASTERIX_RETURN_NOT_OK(build_run->ForEach([&](Tuple& t) {
      uint64_t i = idx++;
      if (i < offset) return Status::OK();
      // The first tuple always loads, so each pass strictly advances.
      if (!block.empty() && budget != nullptr && budget->over_budget()) {
        return Status::OK();
      }
      if (budget != nullptr) {
        size_t d = EstimateTupleBytes(t);
        charged += d;
        budget->Charge(d);
      }
      block.push_back(std::move(t));
      ++loaded;
      return Status::OK();
    }));
    offset += loaded;
    uint64_t pidx = 0;
    ASTERIX_RETURN_NOT_OK(probe_run->ForEach([&](Tuple& t) -> Status {
      uint64_t i = pidx++;
      bool hit = false;
      for (const auto& b : block) {
        ASTERIX_ASSIGN_OR_RETURN(bool m, Match(b, t));
        hit = hit || m;
      }
      if (hit) matched[i] = true;
      return Status::OK();
    }));
    std::vector<Tuple>().swap(block);
    if (budget != nullptr) budget->Release(charged);
    charged = 0;
  }

  if (left_outer_) {
    uint64_t pidx = 0;
    ASTERIX_RETURN_NOT_OK(probe_run->ForEach([&](Tuple& t) {
      if (!matched[pidx++]) {
        Tuple o(build_arity_, Value::Null());
        o.insert(o.end(), t.begin(), t.end());
        ctx_.out->Push(std::move(o));
      }
      return Status::OK();
    }));
  }
  build_run->Remove();
  probe_run->Remove();
  return Status::OK();
}

}  // namespace

OperatorDescriptor MakeNestedLoopJoin(int parallelism, TupleEval predicate,
                                      size_t build_arity, bool left_outer) {
  OperatorDescriptor op;
  op.name = "nested-loop-join";
  op.parallelism = parallelism;
  op.num_inputs = 2;
  op.blocking_ports = {0};
  op.memory_intensive = true;  // buffers the build side
  op.factory = Lambda([predicate, build_arity, left_outer](
                          int, const std::vector<InChannel*>& in,
                          Emitter* out) {
    BlockNestedLoopJoin join(&predicate, build_arity, left_outer, out);
    Status st = join.Execute(in[0], in[1]);
    join.Report();
    return st;
  });
  return op;
}

namespace {

// --- Budgeted hash group-by ------------------------------------------------
//
// Spills group state, not raw input: when a partition is evicted, each of
// its groups is written as one partial tuple [keys..., Partial()...] (the
// same layout the local/global aggregation split ships over the network) and
// reloaded at the next recursion level via Aggregator::Combine. Raw input
// arriving for an already-spilled partition goes to a second run unchanged.
// A listify aggregate's partial is its bag, so a `group by ... with` group
// spills its collected values and concatenates them back on reload.
class SpillingHashGroupBy {
 public:
  SpillingHashGroupBy(const std::vector<TupleEval>* keys,
                      const std::vector<AggSpec>* aggs, AggMode mode,
                      Emitter* out)
      : keys_(keys), aggs_(aggs), mode_(mode), ctx_(out, "group-spill") {}

  /// `raw` feeds input tuples in the operator's own mode; `partials` feeds
  /// previously spilled [keys..., Partial()...] tuples (combined regardless
  /// of mode).
  Status Execute(const TupleSource& raw, const TupleSource& partials,
                 int depth);

  void Report() { ctx_.Report(); }

 private:
  struct Partition {
    SerializedKeyTable table;  // payload = index into group_keys/groups
    std::vector<std::vector<Value>> group_keys;
    std::vector<GroupState> groups;
    size_t charged = 0;
    bool spilled = false;
    std::unique_ptr<SpillRun> raw_run, partial_run;
  };

  Status Feed(std::vector<Partition>* parts, Tuple& t, bool is_partial,
              int depth, bool can_spill) {
    // Partial tuples carry their key VALUES as the leading columns (the
    // spill/kLocal layout); the key expressions only apply to raw input.
    std::vector<Value> key_values;
    if (is_partial) {
      key_values.assign(t.begin(),
                        t.begin() + static_cast<ptrdiff_t>(keys_->size()));
    } else {
      auto keys_r = EvalKeys(*keys_, t);
      if (!keys_r.ok()) return keys_r.status();
      key_values = keys_r.take();
    }
    key_.Clear();
    for (const auto& v : key_values) {
      adm::SerializeNormalizedKey(v, &key_);
    }
    uint64_t h = Hash64(key_.data().data(), key_.size());
    Partition& p = (*parts)[SpillPartitionOf(h, depth)];
    if (p.spilled) {
      auto& run = is_partial ? p.partial_run : p.raw_run;
      if (!run) run = std::make_unique<SpillRun>(ctx_.NextRunPath());
      return run->AppendTuple(t);
    }
    size_t table_before = p.table.bytes();
    bool inserted;
    uint32_t* slot =
        p.table.FindOrInsert(key_.data().data(), key_.size(), h, &inserted);
    size_t delta = 0;
    if (inserted) {
      *slot = static_cast<uint32_t>(p.groups.size());
      delta += p.table.bytes() - table_before +
               EstimateTupleBytes(key_values) + kGroupStateBytes +
               aggs_->size() * kAggregatorBytes;
      p.group_keys.push_back(std::move(key_values));
      p.groups.push_back(NewGroup(*aggs_));
    }
    // Feed before any eviction so a spilled partial always reflects this
    // tuple; eviction (below) may take this very partition. A collecting
    // aggregate grows with every tuple, so the charge (and the budget
    // check) then comes per tuple, not just per new group.
    ASTERIX_RETURN_NOT_OK(FeedGroup(&p.groups[*slot], *aggs_, t,
                                    is_partial ? AggMode::kGlobal : mode_,
                                    keys_->size(), &delta));
    if (delta == 0) return Status::OK();
    p.charged += delta;
    if (ctx_.budget != nullptr) {
      ctx_.budget->Charge(delta);
      while (can_spill && ctx_.budget->over_budget()) {
        ASTERIX_ASSIGN_OR_RETURN(bool spilled, SpillVictim(parts));
        if (!spilled) break;
      }
    }
    return Status::OK();
  }

  Result<bool> SpillVictim(std::vector<Partition>* parts) {
    Partition* victim = nullptr;
    for (auto& p : *parts) {
      if (p.spilled || p.groups.empty()) continue;
      if (victim == nullptr || p.charged > victim->charged) victim = &p;
    }
    if (victim == nullptr) return false;
    victim->partial_run = std::make_unique<SpillRun>(ctx_.NextRunPath());
    for (size_t i = 0; i < victim->groups.size(); ++i) {
      // kLocal emission = [keys..., Partial()...], the spill format.
      Tuple partial = FinishGroup(victim->group_keys[i], &victim->groups[i],
                                  AggMode::kLocal);
      ASTERIX_RETURN_NOT_OK(victim->partial_run->AppendTuple(partial));
    }
    if (ctx_.budget != nullptr) ctx_.budget->Release(victim->charged);
    victim->charged = 0;
    victim->spilled = true;
    victim->table = SerializedKeyTable();
    std::vector<std::vector<Value>>().swap(victim->group_keys);
    std::vector<GroupState>().swap(victim->groups);
    ++ctx_.spilled_partitions;
    return true;
  }

  // Aggregator state is opaque; charge a flat estimate per group/agg.
  static constexpr size_t kGroupStateBytes = 64;
  static constexpr size_t kAggregatorBytes = 96;

  const std::vector<TupleEval>* keys_;
  const std::vector<AggSpec>* aggs_;
  AggMode mode_;
  SpillContext ctx_;
  BytesWriter key_;
};

Status SpillingHashGroupBy::Execute(const TupleSource& raw,
                                    const TupleSource& partials, int depth) {
  const bool can_spill = ctx_.budget != nullptr && depth < kMaxSpillDepth;
  std::vector<Partition> parts(kSpillFanout);
  ASTERIX_RETURN_NOT_OK(partials([&](Tuple& t) {
    return Feed(&parts, t, /*is_partial=*/true, depth, can_spill);
  }));
  ASTERIX_RETURN_NOT_OK(raw([&](Tuple& t) {
    return Feed(&parts, t, /*is_partial=*/false, depth, can_spill);
  }));

  // Resident groups finish here; then free them before recursing.
  for (auto& p : parts) {
    if (p.spilled) continue;
    for (size_t i = 0; i < p.groups.size(); ++i) {
      ctx_.out->Push(FinishGroup(p.group_keys[i], &p.groups[i], mode_));
    }
    ctx_.hash_build_bytes += p.charged;
    if (ctx_.budget != nullptr) ctx_.budget->Release(p.charged);
    p.charged = 0;
    p.table = SerializedKeyTable();
    std::vector<std::vector<Value>>().swap(p.group_keys);
    std::vector<GroupState>().swap(p.groups);
  }

  for (auto& p : parts) {
    if (!p.spilled) continue;
    if (p.partial_run) {
      ASTERIX_RETURN_NOT_OK(p.partial_run->Finish());
      ctx_.spill_bytes += p.partial_run->bytes();
    }
    if (p.raw_run) {
      ASTERIX_RETURN_NOT_OK(p.raw_run->Finish());
      ctx_.spill_bytes += p.raw_run->bytes();
    }
    ASTERIX_RETURN_NOT_OK(Execute(
        p.raw_run ? RunSource(p.raw_run.get()) : EmptySource(),
        p.partial_run ? RunSource(p.partial_run.get()) : EmptySource(),
        depth + 1));
    if (p.raw_run) p.raw_run->Remove();
    if (p.partial_run) p.partial_run->Remove();
  }
  return Status::OK();
}

}  // namespace

OperatorDescriptor MakeHashGroupBy(int parallelism, std::vector<TupleEval> keys,
                                   std::vector<AggSpec> aggs, AggMode mode) {
  OperatorDescriptor op;
  op.name = "hash-group-by";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.blocking_ports = {0};
  op.memory_intensive = true;  // hash table over all groups
  op.factory = Lambda([keys = std::move(keys), aggs = std::move(aggs), mode](
                          int, const std::vector<InChannel*>& in,
                          Emitter* out) {
    SpillingHashGroupBy grouper(&keys, &aggs, mode, out);
    Status st =
        grouper.Execute(ChannelSource(in[0]), EmptySource(), /*depth=*/0);
    grouper.Report();
    return st;
  });
  return op;
}

OperatorDescriptor MakeAggregate(int parallelism, std::vector<AggSpec> aggs,
                                 AggMode mode) {
  OperatorDescriptor op;
  op.name = mode == AggMode::kLocal    ? "local-aggregate"
            : mode == AggMode::kGlobal ? "global-aggregate"
                                       : "aggregate";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.blocking_ports = {0};
  op.factory = Lambda([aggs, mode](int, const std::vector<InChannel*>& in,
                                   Emitter* out) {
    GroupState g = NewGroup(aggs);
    ASTERIX_RETURN_NOT_OK(ForEachInput(in[0], [&](Tuple& t) {
      return FeedGroup(&g, aggs, t, mode, /*key_arity=*/0);
    }));
    out->Push(FinishGroup({}, &g, mode));
    return Status::OK();
  });
  return op;
}

namespace {

// --- Budgeted distinct -----------------------------------------------------
//
// Streaming set semantics over the serialized-key table (the table IS the
// set; no values are stored): the first tuple of each key is emitted as it
// arrives. When a partition is evicted, its already-emitted keys are written
// to the run as raw key-byte markers ahead of the diverted tuples, so the
// recursion level knows which keys must stay suppressed.
class SpillingDistinct {
 public:
  SpillingDistinct(const std::vector<TupleEval>* keys, Emitter* out)
      : keys_(keys), ctx_(out, "distinct-spill") {}

  using Level =
      std::function<Status(const TupleSink&,
                           const std::function<Status(const uint8_t*, size_t)>&)>;

  Status Execute(const Level& source, int depth);

  void Report() { ctx_.Report(); }

 private:
  struct Partition {
    SerializedKeyTable table;  // membership only; payloads unused
    size_t charged = 0;
    bool spilled = false;
    std::unique_ptr<SpillRun> run;
  };

  /// Inserts key bytes into the partition's set. Returns true if new.
  bool Insert(Partition* p, const uint8_t* kb, size_t n, uint64_t h) {
    size_t table_before = p->table.bytes();
    bool inserted;
    p->table.FindOrInsert(kb, n, h, &inserted);
    if (inserted) {
      size_t delta = p->table.bytes() - table_before + 16;
      p->charged += delta;
      if (ctx_.budget != nullptr) ctx_.budget->Charge(delta);
    }
    return inserted;
  }

  Result<bool> SpillVictim(std::vector<Partition>* parts) {
    Partition* victim = nullptr;
    for (auto& p : *parts) {
      if (p.spilled || p.table.empty()) continue;
      if (victim == nullptr || p.charged > victim->charged) victim = &p;
    }
    if (victim == nullptr) return false;
    victim->run = std::make_unique<SpillRun>(ctx_.NextRunPath());
    for (const auto& e : victim->table.entries()) {
      ASTERIX_RETURN_NOT_OK(victim->run->AppendKeyBytes(e.key, e.key_len));
    }
    if (ctx_.budget != nullptr) ctx_.budget->Release(victim->charged);
    victim->charged = 0;
    victim->spilled = true;
    victim->table = SerializedKeyTable();
    ++ctx_.spilled_partitions;
    return true;
  }

  const std::vector<TupleEval>* keys_;
  SpillContext ctx_;
  BytesWriter key_;
};

Status SpillingDistinct::Execute(const Level& source, int depth) {
  const bool can_spill = ctx_.budget != nullptr && depth < kMaxSpillDepth;
  std::vector<Partition> parts(kSpillFanout);
  ASTERIX_RETURN_NOT_OK(source(
      [&](Tuple& t) -> Status {
        key_.Clear();
        ASTERIX_RETURN_NOT_OK(
            SerializeKeyOf(*keys_, t, &key_, /*unknown=*/nullptr));
        uint64_t h = Hash64(key_.data().data(), key_.size());
        Partition& p = parts[SpillPartitionOf(h, depth)];
        if (p.spilled) return p.run->AppendTuple(t);
        if (Insert(&p, key_.data().data(), key_.size(), h)) {
          ctx_.out->Push(std::move(t));
          if (ctx_.budget != nullptr) {
            while (can_spill && ctx_.budget->over_budget()) {
              ASTERIX_ASSIGN_OR_RETURN(bool spilled, SpillVictim(&parts));
              if (!spilled) break;
            }
          }
        }
        return Status::OK();
      },
      [&](const uint8_t* kb, size_t n) -> Status {
        // A key marker from the parent level: mark emitted, never emit.
        uint64_t h = Hash64(kb, n);
        Partition& p = parts[SpillPartitionOf(h, depth)];
        if (p.spilled) return p.run->AppendKeyBytes(kb, n);
        Insert(&p, kb, n, h);
        if (ctx_.budget != nullptr) {
          while (can_spill && ctx_.budget->over_budget()) {
            ASTERIX_ASSIGN_OR_RETURN(bool spilled, SpillVictim(&parts));
            if (!spilled) break;
          }
        }
        return Status::OK();
      }));

  for (auto& p : parts) {
    if (p.spilled) continue;
    ctx_.hash_build_bytes += p.charged;
    if (ctx_.budget != nullptr) ctx_.budget->Release(p.charged);
    p.charged = 0;
    p.table = SerializedKeyTable();
  }
  for (auto& p : parts) {
    if (!p.spilled) continue;
    ASTERIX_RETURN_NOT_OK(p.run->Finish());
    ctx_.spill_bytes += p.run->bytes();
    SpillRun* run = p.run.get();
    ASTERIX_RETURN_NOT_OK(Execute(
        [run](const TupleSink& on_tuple,
              const std::function<Status(const uint8_t*, size_t)>& on_key) {
          return run->ForEach(on_tuple, on_key);
        },
        depth + 1));
    p.run->Remove();
  }
  return Status::OK();
}

}  // namespace

OperatorDescriptor MakeDistinct(int parallelism, std::vector<TupleEval> keys) {
  OperatorDescriptor op;
  op.name = "distinct";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.memory_intensive = true;  // the seen-key set grows with distinct keys
  op.factory = Lambda([keys](int, const std::vector<InChannel*>& in,
                             Emitter* out) {
    SpillingDistinct distinct(&keys, out);
    Status st = distinct.Execute(
        [&in](const TupleSink& on_tuple,
              const std::function<Status(const uint8_t*, size_t)>&) {
          return ForEachInput(in[0], on_tuple);
        },
        /*depth=*/0);
    distinct.Report();
    return st;
  });
  return op;
}

OperatorDescriptor MakeLimit(size_t limit, size_t offset) {
  OperatorDescriptor op;
  op.name = "limit";
  op.parallelism = 1;
  op.num_inputs = 1;
  op.factory = Lambda([limit, offset](int, const std::vector<InChannel*>& in,
                                      Emitter* out) {
    size_t seen = 0;
    size_t emitted = 0;
    return ForEachInput(in[0], [&](Tuple& t) {
      if (seen++ < offset) return Status::OK();
      if (emitted < limit) {
        ++emitted;
        out->Push(std::move(t));
      }
      // Keep draining: channels are bounded now, so abandoning the input
      // would leave upstream producers blocked on a full channel.
      return Status::OK();
    });
  });
  return op;
}

OperatorDescriptor MakeUnnest(int parallelism, TupleEval collection_eval,
                              bool outer, bool with_position) {
  OperatorDescriptor op;
  op.name = outer ? "outer-unnest" : "unnest";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.factory = Lambda([collection_eval, outer, with_position](
                          int, const std::vector<InChannel*>& in, Emitter* out) {
    return ForEachInput(in[0], [&](Tuple& t) {
      auto v = collection_eval(t);
      if (!v.ok()) return v.status();
      const Value& coll = v.value();
      if (coll.IsList() && !coll.AsList().empty()) {
        int64_t pos = 0;
        for (const auto& item : coll.AsList()) {
          Tuple o = t;
          o.push_back(item);
          if (with_position) o.push_back(Value::Int64(++pos));
          out->Push(std::move(o));
        }
      } else if (!coll.IsList() && !coll.IsUnknown()) {
        Tuple o = std::move(t);
        o.push_back(coll);
        if (with_position) o.push_back(Value::Int64(1));
        out->Push(std::move(o));
      } else if (outer) {
        Tuple o = std::move(t);
        o.push_back(Value::Missing());
        if (with_position) o.push_back(Value::Missing());
        out->Push(std::move(o));
      }
      return Status::OK();
    });
  });
  return op;
}

OperatorDescriptor MakeInsert(storage::PartitionedDataset* dataset,
                              int record_column) {
  OperatorDescriptor op;
  op.name = "insert(" + dataset->def().name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 1;
  op.factory = Lambda([dataset, record_column](
                          int, const std::vector<InChannel*>& in, Emitter* out) {
    int64_t count = 0;
    ASTERIX_RETURN_NOT_OK(ForEachInput(in[0], [&](Tuple& t) {
      ASTERIX_RETURN_NOT_OK(
          dataset->Insert(t[static_cast<size_t>(record_column)]));
      ++count;
      return Status::OK();
    }));
    out->Push({Value::Int64(count)});
    return Status::OK();
  });
  return op;
}

OperatorDescriptor MakeDelete(storage::PartitionedDataset* dataset,
                              std::vector<int> key_columns) {
  OperatorDescriptor op;
  op.name = "delete(" + dataset->def().name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 1;
  op.factory = Lambda([dataset, key_columns](
                          int, const std::vector<InChannel*>& in, Emitter* out) {
    int64_t count = 0;
    ASTERIX_RETURN_NOT_OK(ForEachInput(in[0], [&](Tuple& t) {
      storage::CompositeKey pk;
      for (int c : key_columns) pk.push_back(t[static_cast<size_t>(c)]);
      bool found = false;
      ASTERIX_RETURN_NOT_OK(dataset->DeleteByKey(pk, &found));
      if (found) ++count;
      return Status::OK();
    }));
    out->Push({Value::Int64(count)});
    return Status::OK();
  });
  return op;
}

OperatorDescriptor MakeResultSink(std::shared_ptr<std::vector<Tuple>> sink) {
  OperatorDescriptor op;
  op.name = "result-sink";
  op.parallelism = 1;
  op.num_inputs = 1;
  auto mu = std::make_shared<std::mutex>();
  op.factory = Lambda([sink, mu](int, const std::vector<InChannel*>& in,
                                 Emitter*) {
    return ForEachInput(in[0], [&](Tuple& t) {
      std::lock_guard<std::mutex> lock(*mu);
      sink->push_back(std::move(t));
      return Status::OK();
    });
  });
  return op;
}

// ---------------------------------------------------------------------------
// Vectorized operators.
// ---------------------------------------------------------------------------

OperatorDescriptor MakeVectorScan(storage::PartitionedDataset* dataset,
                                  storage::column::Projection projection,
                                  storage::ScanBounds bounds) {
  OperatorDescriptor op;
  // Keep "column-scan(name)" as a substring: plan listings and their tests
  // recognize columnar scans by that tag.
  op.name = "vector-column-scan(" + dataset->def().name + ")";
  std::string ptag = projection.ToString();
  if (!ptag.empty()) op.name += " " + ptag;
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 0;
  auto proj = std::make_shared<storage::column::Projection>(std::move(projection));
  auto shared = std::make_shared<storage::ScanBounds>(std::move(bounds));
  op.factory = Lambda([dataset, proj, shared](int p,
                                              const std::vector<InChannel*>&,
                                              Emitter* out) {
    auto* part = dataset->partition(static_cast<uint32_t>(p));
    storage::column::ProjectedScanStats stats;
    uint64_t batches = 0, rows_selected = 0, rows_total = 0;
    auto emit =
        [&](const std::shared_ptr<storage::column::ColumnBatch>& batch) {
          if (batch == nullptr || batch->sel.empty()) return Status::OK();
          ++batches;
          rows_selected += batch->sel.size();
          rows_total += batch->num_rows;
          out->PushBatch(batch);
          return Status::OK();
        };
    Status st = part->BatchScan(*shared, *proj, emit, &stats);
    if (st.code() == StatusCode::kNotImplemented) {
      // Not in columnar steady state (memory component, multiple disk
      // components, row format, unresolved fields): assemble projected rows
      // the usual way and re-batch them. Same rows, same order.
      stats = storage::column::ProjectedScanStats{};
      storage::column::BatchBuilder builder(proj->fields);
      st = part->ProjectedScan(*shared, *proj,
                               [&](const Value& rec) {
                                 builder.Add(rec);
                                 if (builder.Full()) {
                                   return emit(builder.Take());
                                 }
                                 return Status::OK();
                               },
                               &stats);
      if (st.ok() && !builder.Empty()) st = emit(builder.Take());
    }
    out->AddBytesRead(stats.bytes_read);
    out->AddBatchStats(batches, rows_selected, rows_total);
    return st;
  });
  return op;
}

OperatorDescriptor MakeVectorSelect(int parallelism,
                                    std::shared_ptr<vector::PredNode> pred,
                                    TupleEval fallback) {
  OperatorDescriptor op;
  op.name = "vector-select";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.factory = Lambda([pred, fallback](int, const std::vector<InChannel*>& in,
                                       Emitter* out) {
    Frame frame;
    uint64_t batches = 0, rows_selected = 0, rows_total = 0, kernel_us = 0;
    while (true) {
      auto r = in[0]->NextFrame(&frame);
      if (!r.ok()) return r.status();
      if (!r.value()) break;
      for (Tuple& t : frame.tuples) {
        auto v = fallback(t);
        if (!v.ok()) return v.status();
        if (functions::ValueToTri(v.value()) == functions::Tri::kTrue) {
          out->Push(std::move(t));
        }
      }
      if (frame.batch != nullptr) {
        ++batches;
        rows_total += frame.batch->sel.size();
        auto t0 = std::chrono::steady_clock::now();
        Status st = vector::Filter(*pred, frame.batch.get());
        kernel_us += ElapsedUs(t0);
        if (!st.ok()) return st;
        rows_selected += frame.batch->sel.size();
        if (!frame.batch->sel.empty()) {
          out->PushBatch(std::move(frame.batch));
        }
      }
    }
    out->AddBatchStats(batches, rows_selected, rows_total);
    out->AddKernelTime(kernel_us);
    return Status::OK();
  });
  return op;
}

OperatorDescriptor MakeVectorAggregate(int parallelism,
                                       std::vector<VectorAggSpec> aggs,
                                       AggMode mode) {
  OperatorDescriptor op;
  // Substring-compatible with the interpreted names ("local-aggregate" /
  // "aggregate") for plan assertions.
  op.name = mode == AggMode::kLocal ? "vector-local-aggregate"
                                    : "vector-aggregate";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.blocking_ports = {0};
  op.factory = Lambda([aggs, mode](int, const std::vector<InChannel*>& in,
                                   Emitter* out) {
    std::vector<vector::VectorAgg> states;
    states.reserve(aggs.size());
    std::vector<std::string> fields;
    for (const auto& a : aggs) {
      states.emplace_back(a.function, a.field);
      if (!a.field.empty() &&
          std::find(fields.begin(), fields.end(), a.field) == fields.end()) {
        fields.push_back(a.field);
      }
    }
    uint64_t batches = 0, rows = 0, kernel_us = 0;
    auto feed = [&](const storage::column::ColumnBatch& batch) {
      ++batches;
      rows += batch.sel.size();
      auto t0 = std::chrono::steady_clock::now();
      for (auto& s : states) {
        ASTERIX_RETURN_NOT_OK(s.AddBatch(batch));
      }
      kernel_us += ElapsedUs(t0);
      return Status::OK();
    };
    Frame frame;
    Status st = Status::OK();
    while (true) {
      auto r = in[0]->NextFrame(&frame);
      if (!r.ok()) { st = r.status(); break; }
      if (!r.value()) break;
      if (!frame.tuples.empty()) {
        // Row tuples from a non-batch producer: re-batch the records so the
        // same kernels (and the same NULL/MISSING rules) apply.
        storage::column::BatchBuilder builder(fields);
        for (Tuple& t : frame.tuples) builder.Add(std::move(t[0]));
        auto b = builder.Take();
        if (b != nullptr) {
          st = feed(*b);
          if (!st.ok()) break;
        }
      }
      if (frame.batch != nullptr) {
        st = feed(*frame.batch);
        if (!st.ok()) break;
      }
    }
    out->AddBatchStats(batches, rows, rows);
    out->AddKernelTime(kernel_us);
    ASTERIX_RETURN_NOT_OK(st);
    Tuple result;
    result.reserve(states.size());
    for (const auto& s : states) {
      result.push_back(mode == AggMode::kLocal ? s.Partial() : s.Finish());
    }
    out->Push(std::move(result));
    return Status::OK();
  });
  return op;
}

OperatorDescriptor MakeVectorMaterialize(int parallelism) {
  OperatorDescriptor op;
  op.name = "vector-materialize";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.factory = Lambda([](int, const std::vector<InChannel*>& in,
                         Emitter* out) {
    Frame frame;
    uint64_t batches = 0, rows = 0;
    while (true) {
      auto r = in[0]->NextFrame(&frame);
      if (!r.ok()) return r.status();
      if (!r.value()) break;
      for (Tuple& t : frame.tuples) out->Push(std::move(t));
      if (frame.batch != nullptr) {
        ++batches;
        rows += frame.batch->sel.size();
        for (uint32_t row : frame.batch->sel.rows) {
          out->Push({frame.batch->MaterializeRow(row)});
        }
      }
    }
    out->AddBatchStats(batches, rows, rows);
    return Status::OK();
  });
  return op;
}

}  // namespace hyracks
}  // namespace asterix
