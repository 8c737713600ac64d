#include "hyracks/operators.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
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

/// Replaces a columnar batch frame by its selected rows as [record] tuples,
/// so a row-oriented operator is a safe vectorization boundary.
void MaterializeRows(Frame* frame) {
  if (frame->batch == nullptr) return;
  frame->tuples.reserve(frame->tuples.size() + frame->batch->sel.size());
  for (uint32_t row : frame->batch->sel.rows) {
    frame->tuples.push_back({frame->batch->MaterializeRow(row)});
  }
  frame->batch.reset();
}

/// Base of the one-input row operators: a batch frame arrives as its
/// selected rows, one ConsumeTuple() call each.
class RowOperator : public PushOperator {
 public:
  explicit RowOperator(Emitter* out) : out_(out) {}

  Status Consume(int, Frame& frame) final {
    MaterializeRows(&frame);
    for (Tuple& t : frame.tuples) ASTERIX_RETURN_NOT_OK(ConsumeTuple(t));
    return Status::OK();
  }
  Status Close(int) override { return Status::OK(); }

 protected:
  virtual Status ConsumeTuple(Tuple& t) = 0;

  Emitter* const out_;
};

/// A streaming row operator given as a function of (tuple, emitter).
template <typename Fn>
class TupleOperator final : public RowOperator {
 public:
  TupleOperator(Fn fn, Emitter* out) : RowOperator(out), fn_(std::move(fn)) {}

 protected:
  Status ConsumeTuple(Tuple& t) override { return fn_(t, out_); }

 private:
  Fn fn_;
};

template <typename Fn>
std::unique_ptr<PushOperator> TupleOp(Fn fn, Emitter* out) {
  return std::make_unique<TupleOperator<Fn>>(std::move(fn), out);
}

/// Push factory for a stateless streaming operator: every instance runs a
/// copy of `fn`.
template <typename Fn>
PushFactory PerTuple(Fn fn) {
  return [fn](int, Emitter* out) { return TupleOp(fn, out); };
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
//
// Port 0 builds, port 1 probes. Each recursion level is kSpillFanout
// partitions: the top level is fed by the input ports, a deeper one by a
// spilled partition's build and probe runs.

class HybridHashJoin final : public PushOperator {
 public:
  struct Keys {
    std::vector<TupleEval> build, probe;
  };

  HybridHashJoin(std::shared_ptr<const Keys> keys, size_t build_arity,
                 bool left_outer, std::shared_ptr<JoinFilter> filter,
                 Emitter* out)
      : keys_(std::move(keys)),
        build_arity_(build_arity),
        left_outer_(left_outer),
        filter_(std::move(filter)),
        ctx_(out, "join-spill"),
        top_(kSpillFanout) {}

  // Still holding the filter means the build port never closed (the job
  // failed): the probe scans waiting for it must not wait for this instance.
  ~HybridHashJoin() override {
    if (filter_ != nullptr) filter_->Release();
  }

  Status Consume(int port, Frame& frame) override {
    MaterializeRows(&frame);
    for (Tuple& t : frame.tuples) {
      ASTERIX_RETURN_NOT_OK(port == 0 ? Build(&top_, t, /*depth=*/0)
                                      : Probe(&top_, t, /*depth=*/0));
    }
    return Status::OK();
  }

  Status Close(int port) override {
    if (port == 0) {
      EndBuild(top_);
      if (filter_ != nullptr) {
        filter_->Publish(std::move(filter_hashes_));
        filter_.reset();
      }
      return Status::OK();
    }
    Status st = FinishLevel(&top_, /*depth=*/0);
    ctx_.Report();
    return st;
  }

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

  /// Partitions a build tuple: inserted while its partition is resident,
  /// diverted to the partition's run once it spilled.
  Status Build(std::vector<Partition>* parts, Tuple& t, int depth);
  /// Sums the level's resident build state into hash_build_bytes.
  void EndBuild(const std::vector<Partition>& parts);
  /// Resident partitions stream matches; spilled ones buffer the probe.
  Status Probe(std::vector<Partition>* parts, Tuple& t, int depth);
  /// Releases a level's resident state, then joins its spilled partitions
  /// one level down.
  Status FinishLevel(std::vector<Partition>* parts, int depth);

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

  std::shared_ptr<const Keys> keys_;
  size_t build_arity_;
  bool left_outer_;
  // Until the build port closes: the filter this instance fills, and the
  // hashes of its known build keys, one past the filter's cap at most (which
  // makes the filter pass everything).
  std::shared_ptr<JoinFilter> filter_;
  std::vector<uint64_t> filter_hashes_;
  SpillContext ctx_;
  BytesWriter key_;
  std::vector<uint32_t> chain_;
  std::vector<Partition> top_;  // level 0, fed by the input ports
};

Status HybridHashJoin::Build(std::vector<Partition>* parts, Tuple& t,
                             int depth) {
  key_.Clear();
  bool unknown = false;
  ASTERIX_RETURN_NOT_OK(SerializeKeyOf(keys_->build, t, &key_, &unknown));
  if (unknown) return Status::OK();  // unknown keys never join
  uint64_t h = Hash64(key_.data().data(), key_.size());
  if (depth == 0 && filter_ != nullptr &&
      filter_hashes_.size() <= JoinFilter::kMaxKeys) {
    filter_hashes_.push_back(h);
  }
  Partition& p = (*parts)[SpillPartitionOf(h, depth)];
  if (p.spilled) return p.build_run->AppendTuple(t);
  size_t table_before = p.table.bytes();
  bool inserted;
  uint32_t* head =
      p.table.FindOrInsert(key_.data().data(), key_.size(), h, &inserted);
  p.next.push_back(*head);
  *head = static_cast<uint32_t>(p.tuples.size());
  size_t delta = p.table.bytes() - table_before + EstimateTupleBytes(t) +
                 sizeof(uint32_t);
  p.tuples.push_back(std::move(t));
  p.charged += delta;
  if (ctx_.budget != nullptr) {
    ctx_.budget->Charge(delta);
    while (depth < kMaxSpillDepth && ctx_.budget->over_budget()) {
      ASTERIX_ASSIGN_OR_RETURN(bool spilled, SpillVictim(parts));
      if (!spilled) break;
    }
  }
  return Status::OK();
}

void HybridHashJoin::EndBuild(const std::vector<Partition>& parts) {
  for (const Partition& p : parts) {
    if (!p.spilled) ctx_.hash_build_bytes += p.charged;
  }
}

Status HybridHashJoin::Probe(std::vector<Partition>* parts, Tuple& t,
                             int depth) {
  key_.Clear();
  bool unknown = false;
  ASTERIX_RETURN_NOT_OK(SerializeKeyOf(keys_->probe, t, &key_, &unknown));
  if (unknown) {
    if (left_outer_) EmitOuter(t);
    return Status::OK();
  }
  uint64_t h = Hash64(key_.data().data(), key_.size());
  Partition& p = (*parts)[SpillPartitionOf(h, depth)];
  if (p.spilled) {
    if (!p.probe_run) {
      p.probe_run = std::make_unique<SpillRun>(ctx_.NextRunPath());
    }
    return p.probe_run->AppendTuple(t);
  }
  const uint32_t* head = p.table.Find(key_.data().data(), key_.size(), h);
  if (head != nullptr) {
    // The chain is newest-first; emit matches in build-arrival order.
    chain_.clear();
    for (uint32_t i = *head; i != SerializedKeyTable::kNoPayload;
         i = p.next[i]) {
      chain_.push_back(i);
    }
    for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
      Tuple o = p.tuples[*it];
      o.insert(o.end(), t.begin(), t.end());
      ctx_.out->Push(std::move(o));
    }
  } else if (left_outer_) {
    EmitOuter(t);
  }
  return Status::OK();
}

Status HybridHashJoin::FinishLevel(std::vector<Partition>* parts, int depth) {
  // This level's resident state is dead; release it before recursing so the
  // sub-joins inherit the full budget.
  for (auto& p : *parts) {
    if (p.spilled) continue;
    if (ctx_.budget != nullptr) ctx_.budget->Release(p.charged);
    p.charged = 0;
    p.table = SerializedKeyTable();
    std::vector<Tuple>().swap(p.tuples);
    std::vector<uint32_t>().swap(p.next);
  }

  for (auto& p : *parts) {
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
      std::vector<Partition> sub(kSpillFanout);
      ASTERIX_RETURN_NOT_OK(p.build_run->ForEach(
          [&](Tuple& t) { return Build(&sub, t, depth + 1); }));
      EndBuild(sub);
      ASTERIX_RETURN_NOT_OK(p.probe_run->ForEach(
          [&](Tuple& t) { return Probe(&sub, t, depth + 1); }));
      ASTERIX_RETURN_NOT_OK(FinishLevel(&sub, depth + 1));
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
  op.source = [shared](int partition, Emitter* out) {
    // Only instance 0 emits, so a misconfigured parallelism cannot
    // duplicate the constants.
    if (partition == 0) {
      for (const auto& t : *shared) out->Push(t);
    }
    return out->status();
  };
  return op;
}

namespace {

/// Appends the projection's and the join filter's tags to a scan's name.
std::string ScanName(std::string name,
                     const storage::column::Projection& projection,
                     const ScanJoinFilter& join_filter) {
  for (const std::string& tag :
       {projection.ToString(), join_filter.ToString()}) {
    if (!tag.empty()) name += " " + tag;
  }
  return name;
}

/// The primary-index scan both full and range scans run: instance p scans
/// storage partition p within `bounds`, emitting [record] tuples of the
/// projected fields and reporting the physical bytes it read. A join
/// filter's probe waits for the build, then drops what the filter rules out.
OperatorDescriptor MakeScan(std::string name,
                            storage::PartitionedDataset* dataset,
                            storage::ScanBounds bounds,
                            storage::column::Projection projection,
                            ScanJoinFilter join_filter) {
  OperatorDescriptor op;
  op.name = ScanName(std::move(name), projection, join_filter);
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 0;
  auto shared = std::make_shared<const storage::ScanBounds>(std::move(bounds));
  auto proj = std::make_shared<const storage::column::Projection>(
      std::move(projection));
  auto jf = std::make_shared<const ScanJoinFilter>(std::move(join_filter));
  op.source = [dataset, shared, proj, jf](int p, Emitter* out) {
    storage::column::ProjectedScanStats stats;
    std::optional<JoinFilterProbe> probe;
    if (jf->filter != nullptr) probe.emplace(jf->filter, jf->fields);
    Status st = dataset->partition(static_cast<uint32_t>(p))
                    ->ProjectedScan(*shared, *proj,
                                    [&](const Value& rec) {
                                      out->Push({rec});
                                      return out->status();
                                    },
                                    &stats, probe ? &*probe : nullptr);
    out->AddBytesRead(stats.bytes_read);
    if (probe) out->AddFilterDropped(probe->dropped());
    return st;
  };
  return op;
}

}  // namespace

std::string ScanJoinFilter::ToString() const {
  if (filter == nullptr) return "";
  std::string out = "join-filter=[";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += fields[i];
  }
  return out + "]";
}

OperatorDescriptor MakeDatasetScan(storage::PartitionedDataset* dataset,
                                   storage::column::Projection projection,
                                   ScanJoinFilter join_filter) {
  bool columnar =
      dataset->def().storage_format == storage::StorageFormat::kColumn;
  return MakeScan(std::string(columnar ? "column-scan(" : "scan(") +
                      dataset->def().name + ")",
                  dataset, storage::ScanBounds{}, std::move(projection),
                  std::move(join_filter));
}

OperatorDescriptor MakePrimaryRangeScan(storage::PartitionedDataset* dataset,
                                        storage::ScanBounds bounds,
                                        storage::column::Projection projection,
                                        ScanJoinFilter join_filter) {
  return MakeScan("btree-range-scan(" + dataset->def().name + ")", dataset,
                  std::move(bounds), std::move(projection),
                  std::move(join_filter));
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

/// The primary fetch: one batched MultiGet per input frame. A locked fetch
/// runs one implicit read transaction per instance, whose S locks release
/// when the input ends (or the instance is torn down on failure).
class PrimaryFetch final : public PushOperator {
 public:
  PrimaryFetch(storage::PartitionedDataset* dataset, txn::TxnManager* txns,
               std::vector<int> key_columns, bool locked,
               std::shared_ptr<const storage::column::Projection> proj,
               Emitter* out)
      : out_(out),
        dataset_(dataset),
        txns_(txns),
        key_columns_(std::move(key_columns)),
        proj_(std::move(proj)),
        locked_(locked),
        txn_(locked ? txns->Begin() : 0) {}
  ~PrimaryFetch() override { ReleaseLocks(); }

  Status Consume(int, Frame& frame) override {
    MaterializeRows(&frame);
    return FetchFrame(dataset_, txn_, key_columns_, *proj_, &frame, out_);
  }

  Status Close(int) override {
    ReleaseLocks();
    return Status::OK();
  }

 private:
  // Read-only transaction: releasing the S locks is its commit; no WAL
  // record is needed.
  void ReleaseLocks() {
    if (!locked_) return;
    txns_->locks().ReleaseAll(txn_);
    locked_ = false;
  }

  Emitter* const out_;
  storage::PartitionedDataset* dataset_;
  txn::TxnManager* txns_;
  std::vector<int> key_columns_;
  std::shared_ptr<const storage::column::Projection> proj_;
  bool locked_;
  txn::TxnId txn_;
};

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
  auto proj = std::make_shared<const storage::column::Projection>(
      std::move(projection));
  op.push = [dataset, txns, key_columns, locked, proj](int, Emitter* out) {
    return std::make_unique<PrimaryFetch>(dataset, txns, key_columns, locked,
                                          proj, out);
  };
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
  op.source = [dataset, index_name, shared, pk_arity](int p, Emitter* out) {
    return dataset->partition(static_cast<uint32_t>(p))
        ->SecondaryRangeScan(index_name, *shared,
                             [&](const storage::IndexEntry& e) {
                               Tuple t(e.key.end() - pk_arity, e.key.end());
                               out->Push(std::move(t));
                               return out->status();
                             });
  };
  return op;
}

OperatorDescriptor MakeSecondaryProbe(storage::PartitionedDataset* dataset,
                                      std::string index_name, TupleEval key_eval,
                                      size_t pk_arity) {
  OperatorDescriptor op;
  op.name = "btree-probe(" + index_name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 1;
  op.push = [dataset, index_name, key_eval, pk_arity](int p, Emitter* out) {
    auto* part = dataset->partition(static_cast<uint32_t>(p));
    auto probe = [part, index_name, key_eval, pk_arity](
                     Tuple& tuple, Emitter* emit) -> Status {
      auto key_r = key_eval(tuple);
      if (!key_r.ok()) return key_r.status();
      if (key_r.value().IsUnknown()) return Status::OK();
      storage::ScanBounds b;
      b.lo = storage::CompositeKey{key_r.value()};
      b.hi = b.lo;
      return part->SecondaryRangeScan(
          index_name, b, [&](const storage::IndexEntry& e) {
            Tuple o = tuple;
            o.insert(o.end(), e.key.end() - pk_arity, e.key.end());
            emit->Push(std::move(o));
            return Status::OK();
          });
    };
    return TupleOp(std::move(probe), out);
  };
  return op;
}

OperatorDescriptor MakeRTreeSearch(storage::PartitionedDataset* dataset,
                                   std::string index_name, storage::Mbr query,
                                   size_t pk_arity) {
  OperatorDescriptor op;
  op.name = "rtree-search(" + index_name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 0;
  (void)pk_arity;
  op.source = [dataset, index_name, query](int p, Emitter* out) {
    return dataset->partition(static_cast<uint32_t>(p))
        ->RTreeSearch(index_name, query, [&](const storage::CompositeKey& pk) {
          out->Push(Tuple(pk.begin(), pk.end()));
          return out->status();
        });
  };
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
  (void)pk_arity;
  op.source = [dataset, index_name, shared, min_matches](int p, Emitter* out) {
    auto* ix = dataset->partition(static_cast<uint32_t>(p))
                   ->inverted_index(index_name);
    if (!ix) return Status::NotFound("no inverted index " + index_name);
    return ix->SearchTokensCount(
        *shared, [&](const storage::CompositeKey& pk, size_t count) {
          if (count >= min_matches) out->Push(Tuple(pk.begin(), pk.end()));
          return out->status();
        });
  };
  return op;
}

OperatorDescriptor MakeSelect(int parallelism, TupleEval predicate) {
  OperatorDescriptor op;
  op.name = "select";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.push = PerTuple([predicate](Tuple& t, Emitter* out) -> Status {
    auto v = predicate(t);
    if (!v.ok()) return v.status();
    if (functions::ValueToTri(v.value()) == functions::Tri::kTrue) {
      out->Push(std::move(t));
    }
    return Status::OK();
  });
  return op;
}

OperatorDescriptor MakeAssign(int parallelism, std::vector<TupleEval> exprs) {
  OperatorDescriptor op;
  op.name = "assign";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.push = PerTuple([exprs](Tuple& t, Emitter* out) -> Status {
    for (const auto& e : exprs) {
      auto v = e(t);
      if (!v.ok()) return v.status();
      t.push_back(v.take());
    }
    out->Push(std::move(t));
    return Status::OK();
  });
  return op;
}

OperatorDescriptor MakeProject(int parallelism, std::vector<int> columns) {
  OperatorDescriptor op;
  op.name = "project";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.push = PerTuple([columns](Tuple& t, Emitter* out) -> Status {
    Tuple o;
    o.reserve(columns.size());
    for (int c : columns) o.push_back(t[static_cast<size_t>(c)]);
    out->Push(std::move(o));
    return Status::OK();
  });
  return op;
}

namespace {

/// External merge sort: sorted runs spill to disk once the in-memory budget
/// — tuple-count cap or the instance's byte budget, whichever trips first —
/// is hit; a final heap-driven k-way merge streams the global order.
class ExternalSort final : public RowOperator {
 public:
  ExternalSort(TupleCompare compare, std::optional<size_t> limit,
               size_t spill_budget_tuples, Emitter* out)
      : RowOperator(out),
        budget_(out->memory_budget()),
        compare_(std::move(compare)),
        limit_(limit),
        spill_budget_tuples_(spill_budget_tuples),
        // Floor per run so a degenerate byte budget cannot degrade into one
        // run per tuple (each run costs a file and a merge stream).
        min_run_tuples_(std::min<size_t>(64, spill_budget_tuples)),
        scratch_("sort-spill") {}

  ~ExternalSort() override {
    if (budget_ != nullptr) budget_->Release(charged_);
  }

  Status Close(int) override;

 protected:
  Status ConsumeTuple(Tuple& t) override {
    if (budget_ != nullptr) {
      size_t d = EstimateTupleBytes(t);
      charged_ += d;
      budget_->Charge(d);
    }
    buffer_.push_back(std::move(t));
    if (buffer_.size() >= spill_budget_tuples_ ||
        (budget_ != nullptr && budget_->over_budget() &&
         buffer_.size() >= min_run_tuples_)) {
      return Spill();
    }
    return Status::OK();
  }

 private:
  void SortBuffer() {
    std::stable_sort(buffer_.begin(), buffer_.end(),
                     [&](const Tuple& a, const Tuple& b) {
                       return compare_(a, b) < 0;
                     });
  }

  Status Spill() {
    SortBuffer();
    auto run = std::make_unique<SpillRun>(scratch_.dir() + "/run" +
                                          std::to_string(runs_.size()));
    for (const auto& t : buffer_) ASTERIX_RETURN_NOT_OK(run->AppendTuple(t));
    ASTERIX_RETURN_NOT_OK(run->Finish());
    runs_.push_back(std::move(run));
    buffer_.clear();
    if (budget_ != nullptr) budget_->Release(charged_);
    charged_ = 0;
    return Status::OK();
  }

  MemoryBudget* const budget_;  // null when running unbudgeted
  TupleCompare compare_;
  std::optional<size_t> limit_;
  size_t spill_budget_tuples_;
  size_t min_run_tuples_;
  std::vector<Tuple> buffer_;
  size_t charged_ = 0;
  std::vector<std::unique_ptr<SpillRun>> runs_;
  ScratchDirGuard scratch_;
};

Status ExternalSort::Close(int) {
  if (runs_.empty()) {
    // Everything fit in memory.
    SortBuffer();
    size_t n = limit_.has_value() ? std::min(*limit_, buffer_.size())
                                  : buffer_.size();
    for (size_t i = 0; i < n; ++i) out_->Push(std::move(buffer_[i]));
    return Status::OK();
  }
  if (!buffer_.empty()) ASTERIX_RETURN_NOT_OK(Spill());

  uint64_t run_bytes = 0;
  for (const auto& run : runs_) run_bytes += run->bytes();
  out_->AddSpill(run_bytes, runs_.size());

  // K-way merge over one streaming cursor per run (each holds at most a
  // flush-sized window of its run): a binary heap of run heads replaces
  // the O(k) scan per output tuple. Ties break toward the earlier run,
  // preserving the stable order sequential spilling produced.
  std::vector<std::unique_ptr<SpillRun::Cursor>> cursors;
  std::vector<size_t> heap;
  for (const auto& run : runs_) {
    cursors.push_back(std::make_unique<SpillRun::Cursor>(*run));
    bool more = false;
    ASTERIX_RETURN_NOT_OK(cursors.back()->Next(&more));
    if (more) heap.push_back(cursors.size() - 1);
  }
  auto heap_after = [&](size_t a, size_t b) {
    int c = compare_(cursors[a]->tuple(), cursors[b]->tuple());
    if (c != 0) return c > 0;  // larger head pops later
    return a > b;
  };
  std::make_heap(heap.begin(), heap.end(), heap_after);
  size_t emitted = 0;
  while (!heap.empty() && (!limit_.has_value() || emitted < *limit_)) {
    std::pop_heap(heap.begin(), heap.end(), heap_after);
    size_t best = heap.back();
    out_->Push(std::move(cursors[best]->tuple()));
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
  for (auto& run : runs_) run->Remove();
  return Status::OK();
}

}  // namespace

OperatorDescriptor MakeSort(int parallelism, TupleCompare compare,
                            std::optional<size_t> limit,
                            size_t spill_budget_tuples) {
  OperatorDescriptor op;
  op.name = "sort";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.blocking_ports = {0};
  op.memory_intensive = true;
  op.push = [compare, limit, spill_budget_tuples](int, Emitter* out) {
    return std::make_unique<ExternalSort>(compare, limit, spill_budget_tuples,
                                          out);
  };
  return op;
}

OperatorDescriptor MakeHybridHashJoin(int parallelism,
                                      std::vector<TupleEval> build_keys,
                                      std::vector<TupleEval> probe_keys,
                                      size_t build_arity, bool left_outer,
                                      std::shared_ptr<JoinFilter> filter) {
  OperatorDescriptor op;
  op.name = "hybrid-hash-join";
  op.parallelism = parallelism;
  op.num_inputs = 2;
  op.blocking_ports = {0};  // Join Build activity blocks before probing
  op.memory_intensive = true;
  auto keys = std::make_shared<const HybridHashJoin::Keys>(
      HybridHashJoin::Keys{std::move(build_keys), std::move(probe_keys)});
  op.push = [keys, build_arity, left_outer, filter](int, Emitter* out) {
    return std::make_unique<HybridHashJoin>(keys, build_arity, left_outer,
                                            filter, out);
  };
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
class BlockNestedLoopJoin final : public PushOperator {
 public:
  BlockNestedLoopJoin(std::shared_ptr<const TupleEval> predicate,
                      size_t build_arity, bool left_outer, Emitter* out)
      : predicate_(std::move(predicate)),
        build_arity_(build_arity),
        left_outer_(left_outer),
        ctx_(out, "nlj-spill") {}

  Status Consume(int port, Frame& frame) override {
    MaterializeRows(&frame);
    for (Tuple& t : frame.tuples) {
      ASTERIX_RETURN_NOT_OK(port == 0 ? Build(t) : Probe(t));
    }
    return Status::OK();
  }

  Status Close(int port) override {
    if (port == 0) return EndBuild();
    Status st = EndProbe();
    ctx_.Report();
    return st;
  }

 private:
  /// Build: resident until the budget trips, everything after to the run.
  Status Build(Tuple& t) {
    if (ctx_.budget != nullptr && ctx_.budget->over_budget() &&
        !block_.empty()) {
      if (!build_run_) {
        build_run_ = std::make_unique<SpillRun>(ctx_.NextRunPath());
      }
      return build_run_->AppendTuple(t);
    }
    Load(t);
    return Status::OK();
  }

  /// With overflow, the probe side is also copied to a run, so each further
  /// build block can re-scan it.
  Status EndBuild() {
    if (!build_run_) return Status::OK();
    ASTERIX_RETURN_NOT_OK(build_run_->Finish());
    ctx_.spill_bytes += build_run_->bytes();
    ++ctx_.spilled_partitions;
    probe_run_ = std::make_unique<SpillRun>(ctx_.NextRunPath());
    return Status::OK();
  }

  /// Probes once against the resident block. With no overflow this is the
  /// whole join and left-outer tuples can be emitted immediately.
  Status Probe(Tuple& t) {
    ASTERIX_ASSIGN_OR_RETURN(bool hit, MatchBlock(t));
    if (probe_run_) {
      matched_.push_back(hit);
      return probe_run_->AppendTuple(t);
    }
    if (!hit && left_outer_) EmitOuter(t);
    return Status::OK();
  }

  /// Joins the remaining build blocks against the probe run, then emits the
  /// left-outer tuples no block matched.
  Status EndProbe();

  void Load(Tuple& t) {
    if (ctx_.budget != nullptr) {
      size_t d = EstimateTupleBytes(t);
      charged_ += d;
      ctx_.budget->Charge(d);
    }
    block_.push_back(std::move(t));
  }

  void ReleaseBlock() {
    std::vector<Tuple>().swap(block_);
    if (ctx_.budget != nullptr) ctx_.budget->Release(charged_);
    charged_ = 0;
  }

  /// Tests `p` against every resident build tuple, pushing each match.
  Result<bool> MatchBlock(const Tuple& p) {
    bool hit = false;
    for (const auto& b : block_) {
      Tuple joined = b;
      joined.insert(joined.end(), p.begin(), p.end());
      auto v = (*predicate_)(joined);
      if (!v.ok()) return v.status();
      if (functions::ValueToTri(v.value()) != functions::Tri::kTrue) continue;
      ctx_.out->Push(std::move(joined));
      hit = true;
    }
    return hit;
  }

  void EmitOuter(const Tuple& p) {
    Tuple o(build_arity_, Value::Null());
    o.insert(o.end(), p.begin(), p.end());
    ctx_.out->Push(std::move(o));
  }

  std::shared_ptr<const TupleEval> predicate_;
  size_t build_arity_;
  bool left_outer_;
  SpillContext ctx_;
  std::vector<Tuple> block_;
  size_t charged_ = 0;
  std::unique_ptr<SpillRun> build_run_, probe_run_;
  std::vector<bool> matched_;  // per probe-run position, across all blocks
};

Status BlockNestedLoopJoin::EndProbe() {
  if (!probe_run_) {
    ReleaseBlock();
    return Status::OK();
  }
  ASTERIX_RETURN_NOT_OK(probe_run_->Finish());
  ctx_.spill_bytes += probe_run_->bytes();
  ReleaseBlock();

  // Remaining build blocks: load a budget's worth from the run (the scan
  // skips records outside the window), re-scan the probe run against it.
  uint64_t offset = 0;
  const uint64_t overflow = build_run_->records();
  while (offset < overflow) {
    uint64_t idx = 0;
    uint64_t loaded = 0;
    ASTERIX_RETURN_NOT_OK(build_run_->ForEach([&](Tuple& t) {
      uint64_t i = idx++;
      if (i < offset) return Status::OK();
      // The first tuple always loads, so each pass strictly advances.
      if (!block_.empty() && ctx_.budget != nullptr &&
          ctx_.budget->over_budget()) {
        return Status::OK();
      }
      Load(t);
      ++loaded;
      return Status::OK();
    }));
    offset += loaded;
    uint64_t pidx = 0;
    ASTERIX_RETURN_NOT_OK(probe_run_->ForEach([&](Tuple& t) -> Status {
      uint64_t i = pidx++;
      ASTERIX_ASSIGN_OR_RETURN(bool hit, MatchBlock(t));
      if (hit) matched_[i] = true;
      return Status::OK();
    }));
    ReleaseBlock();
  }

  if (left_outer_) {
    uint64_t pidx = 0;
    ASTERIX_RETURN_NOT_OK(probe_run_->ForEach([&](Tuple& t) {
      if (!matched_[pidx++]) EmitOuter(t);
      return Status::OK();
    }));
  }
  build_run_->Remove();
  probe_run_->Remove();
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
  auto shared = std::make_shared<const TupleEval>(std::move(predicate));
  op.push = [shared, build_arity, left_outer](int, Emitter* out) {
    return std::make_unique<BlockNestedLoopJoin>(shared, build_arity,
                                                 left_outer, out);
  };
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
class SpillingHashGroupBy final : public RowOperator {
 public:
  SpillingHashGroupBy(std::shared_ptr<const std::vector<TupleEval>> keys,
                      std::shared_ptr<const std::vector<AggSpec>> aggs,
                      AggMode mode, Emitter* out)
      : RowOperator(out),
        keys_(std::move(keys)),
        aggs_(std::move(aggs)),
        mode_(mode),
        ctx_(out, "group-spill"),
        top_(kSpillFanout) {}

  /// End of input: emits the top level's resident groups, then aggregates
  /// its spilled partitions level by level.
  Status Close(int) override {
    Status st = FinishLevel(&top_, /*depth=*/0);
    ctx_.Report();
    return st;
  }

 protected:
  /// Feeds one input tuple, in the operator's own mode, to the top level.
  Status ConsumeTuple(Tuple& t) override {
    return Feed(&top_, t, /*is_partial=*/false, /*depth=*/0,
                /*can_spill=*/ctx_.budget != nullptr);
  }

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

  /// One recursion level over a spilled partition's runs (either may be
  /// null): `raw` holds input tuples in the operator's own mode; `partials`
  /// holds spilled [keys..., Partial()...] tuples (combined regardless of
  /// mode).
  Status Execute(const SpillRun* raw, const SpillRun* partials, int depth);

  /// Emits a level's resident groups, then recurses into its spilled
  /// partitions.
  Status FinishLevel(std::vector<Partition>* parts, int depth);

  std::shared_ptr<const std::vector<TupleEval>> keys_;
  std::shared_ptr<const std::vector<AggSpec>> aggs_;
  AggMode mode_;
  SpillContext ctx_;
  BytesWriter key_;
  std::vector<Partition> top_;  // level 0, fed as input frames arrive
};

Status SpillingHashGroupBy::Execute(const SpillRun* raw,
                                    const SpillRun* partials, int depth) {
  const bool can_spill = ctx_.budget != nullptr && depth < kMaxSpillDepth;
  std::vector<Partition> parts(kSpillFanout);
  if (partials != nullptr) {
    ASTERIX_RETURN_NOT_OK(partials->ForEach([&](Tuple& t) {
      return Feed(&parts, t, /*is_partial=*/true, depth, can_spill);
    }));
  }
  if (raw != nullptr) {
    ASTERIX_RETURN_NOT_OK(raw->ForEach([&](Tuple& t) {
      return Feed(&parts, t, /*is_partial=*/false, depth, can_spill);
    }));
  }
  return FinishLevel(&parts, depth);
}

Status SpillingHashGroupBy::FinishLevel(std::vector<Partition>* parts,
                                        int depth) {
  // Resident groups finish here; then free them before recursing.
  for (auto& p : *parts) {
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

  for (auto& p : *parts) {
    if (!p.spilled) continue;
    if (p.partial_run) {
      ASTERIX_RETURN_NOT_OK(p.partial_run->Finish());
      ctx_.spill_bytes += p.partial_run->bytes();
    }
    if (p.raw_run) {
      ASTERIX_RETURN_NOT_OK(p.raw_run->Finish());
      ctx_.spill_bytes += p.raw_run->bytes();
    }
    ASTERIX_RETURN_NOT_OK(
        Execute(p.raw_run.get(), p.partial_run.get(), depth + 1));
    if (p.raw_run) p.raw_run->Remove();
    if (p.partial_run) p.partial_run->Remove();
  }
  return Status::OK();
}

/// Ungrouped aggregation: one group fed per tuple, emitted at close.
class Aggregate final : public RowOperator {
 public:
  Aggregate(std::shared_ptr<const std::vector<AggSpec>> aggs, AggMode mode,
            Emitter* out)
      : RowOperator(out),
        aggs_(std::move(aggs)),
        mode_(mode),
        group_(NewGroup(*aggs_)) {}

  Status Close(int) override {
    out_->Push(FinishGroup({}, &group_, mode_));
    return Status::OK();
  }

 protected:
  Status ConsumeTuple(Tuple& t) override {
    return FeedGroup(&group_, *aggs_, t, mode_, /*key_arity=*/0);
  }

 private:
  std::shared_ptr<const std::vector<AggSpec>> aggs_;
  AggMode mode_;
  GroupState group_;
};

}  // namespace

OperatorDescriptor MakeHashGroupBy(int parallelism, std::vector<TupleEval> keys,
                                   std::vector<AggSpec> aggs, AggMode mode) {
  OperatorDescriptor op;
  op.name = "hash-group-by";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.blocking_ports = {0};
  op.memory_intensive = true;  // hash table over all groups
  auto shared_keys =
      std::make_shared<const std::vector<TupleEval>>(std::move(keys));
  auto shared_aggs =
      std::make_shared<const std::vector<AggSpec>>(std::move(aggs));
  op.push = [shared_keys, shared_aggs, mode](int, Emitter* out) {
    return std::make_unique<SpillingHashGroupBy>(shared_keys, shared_aggs,
                                                 mode, out);
  };
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
  auto shared = std::make_shared<const std::vector<AggSpec>>(std::move(aggs));
  op.push = [shared, mode](int, Emitter* out) {
    return std::make_unique<Aggregate>(shared, mode, out);
  };
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
class SpillingDistinct final : public RowOperator {
 public:
  SpillingDistinct(std::shared_ptr<const std::vector<TupleEval>> keys,
                   Emitter* out)
      : RowOperator(out),
        keys_(std::move(keys)),
        ctx_(out, "distinct-spill"),
        top_(kSpillFanout) {}

  /// End of input: de-duplicates the top level's spilled partitions level
  /// by level.
  Status Close(int) override {
    Status st = FinishLevel(&top_, /*depth=*/0);
    ctx_.Report();
    return st;
  }

 protected:
  /// Emits `t` if its key is new to the top level.
  Status ConsumeTuple(Tuple& t) override {
    return OnTuple(&top_, t, /*depth=*/0,
                   /*can_spill=*/ctx_.budget != nullptr);
  }

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

  Status OnTuple(std::vector<Partition>* parts, Tuple& t, int depth,
                 bool can_spill) {
    key_.Clear();
    ASTERIX_RETURN_NOT_OK(
        SerializeKeyOf(*keys_, t, &key_, /*unknown=*/nullptr));
    uint64_t h = Hash64(key_.data().data(), key_.size());
    Partition& p = (*parts)[SpillPartitionOf(h, depth)];
    if (p.spilled) return p.run->AppendTuple(t);
    if (Insert(&p, key_.data().data(), key_.size(), h)) {
      ctx_.out->Push(std::move(t));
      return SpillWhileOver(parts, can_spill);
    }
    return Status::OK();
  }

  /// A key marker from the parent level: mark emitted, never emit.
  Status OnKey(std::vector<Partition>* parts, const uint8_t* kb, size_t n,
               int depth, bool can_spill) {
    uint64_t h = Hash64(kb, n);
    Partition& p = (*parts)[SpillPartitionOf(h, depth)];
    if (p.spilled) return p.run->AppendKeyBytes(kb, n);
    Insert(&p, kb, n, h);
    return SpillWhileOver(parts, can_spill);
  }

  Status SpillWhileOver(std::vector<Partition>* parts, bool can_spill) {
    if (ctx_.budget == nullptr) return Status::OK();
    while (can_spill && ctx_.budget->over_budget()) {
      ASTERIX_ASSIGN_OR_RETURN(bool spilled, SpillVictim(parts));
      if (!spilled) break;
    }
    return Status::OK();
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

  /// One recursion level over a spilled partition's run (key markers, then
  /// the tuples diverted after the spill).
  Status Execute(const SpillRun& run, int depth);

  /// Frees a level's resident sets, then recurses into its spilled
  /// partitions.
  Status FinishLevel(std::vector<Partition>* parts, int depth);

  std::shared_ptr<const std::vector<TupleEval>> keys_;
  SpillContext ctx_;
  BytesWriter key_;
  std::vector<Partition> top_;  // level 0, fed as input frames arrive
};

Status SpillingDistinct::Execute(const SpillRun& run, int depth) {
  const bool can_spill = ctx_.budget != nullptr && depth < kMaxSpillDepth;
  std::vector<Partition> parts(kSpillFanout);
  ASTERIX_RETURN_NOT_OK(run.ForEach(
      [&](Tuple& t) { return OnTuple(&parts, t, depth, can_spill); },
      [&](const uint8_t* kb, size_t n) {
        return OnKey(&parts, kb, n, depth, can_spill);
      }));
  return FinishLevel(&parts, depth);
}

Status SpillingDistinct::FinishLevel(std::vector<Partition>* parts,
                                     int depth) {
  for (auto& p : *parts) {
    if (p.spilled) continue;
    ctx_.hash_build_bytes += p.charged;
    if (ctx_.budget != nullptr) ctx_.budget->Release(p.charged);
    p.charged = 0;
    p.table = SerializedKeyTable();
  }
  for (auto& p : *parts) {
    if (!p.spilled) continue;
    ASTERIX_RETURN_NOT_OK(p.run->Finish());
    ctx_.spill_bytes += p.run->bytes();
    ASTERIX_RETURN_NOT_OK(Execute(*p.run, depth + 1));
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
  auto shared = std::make_shared<const std::vector<TupleEval>>(std::move(keys));
  op.push = [shared](int, Emitter* out) {
    return std::make_unique<SpillingDistinct>(shared, out);
  };
  return op;
}

namespace {

class Limit final : public RowOperator {
 public:
  Limit(size_t limit, size_t offset, Emitter* out)
      : RowOperator(out), limit_(limit), offset_(offset) {}

 protected:
  Status ConsumeTuple(Tuple& t) override {
    if (seen_++ < offset_) return Status::OK();
    if (emitted_ < limit_) {
      ++emitted_;
      out_->Push(std::move(t));
    }
    // Keep consuming: a channel-fed limit that abandoned its input would
    // leave upstream producers blocked on a full channel.
    return Status::OK();
  }

 private:
  size_t limit_;
  size_t offset_;
  size_t seen_ = 0;
  size_t emitted_ = 0;
};

/// Insert/delete sink: applies each tuple to the dataset and emits one
/// [count] tuple at close.
class ModifySink final : public RowOperator {
 public:
  /// Applies one tuple; true when it counts as modified.
  using Apply = std::function<Result<bool>(const Tuple&)>;
  ModifySink(Apply apply, Emitter* out)
      : RowOperator(out), apply_(std::move(apply)) {}

  Status Close(int) override {
    out_->Push({Value::Int64(count_)});
    return Status::OK();
  }

 protected:
  Status ConsumeTuple(Tuple& t) override {
    ASTERIX_ASSIGN_OR_RETURN(bool counted, apply_(t));
    if (counted) ++count_;
    return Status::OK();
  }

 private:
  Apply apply_;
  int64_t count_ = 0;
};

/// Appends every input frame to the shared result under one lock.
class ResultSink final : public PushOperator {
 public:
  ResultSink(std::shared_ptr<std::vector<Tuple>> sink,
             std::shared_ptr<std::mutex> mu)
      : sink_(std::move(sink)), mu_(std::move(mu)) {}

  Status Consume(int, Frame& frame) override {
    MaterializeRows(&frame);
    std::lock_guard<std::mutex> lock(*mu_);
    sink_->insert(sink_->end(), std::make_move_iterator(frame.tuples.begin()),
                  std::make_move_iterator(frame.tuples.end()));
    return Status::OK();
  }
  Status Close(int) override { return Status::OK(); }

 private:
  std::shared_ptr<std::vector<Tuple>> sink_;
  std::shared_ptr<std::mutex> mu_;
};

}  // namespace

OperatorDescriptor MakeLimit(size_t limit, size_t offset) {
  OperatorDescriptor op;
  op.name = "limit";
  op.parallelism = 1;
  op.num_inputs = 1;
  op.push = [limit, offset](int, Emitter* out) {
    return std::make_unique<Limit>(limit, offset, out);
  };
  return op;
}

OperatorDescriptor MakeUnnest(int parallelism, TupleEval collection_eval,
                              bool outer, bool with_position) {
  OperatorDescriptor op;
  op.name = outer ? "outer-unnest" : "unnest";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.push = PerTuple([collection_eval, outer, with_position](
                         Tuple& t, Emitter* out) -> Status {
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
  return op;
}

OperatorDescriptor MakeInsert(storage::PartitionedDataset* dataset,
                              int record_column) {
  OperatorDescriptor op;
  op.name = "insert(" + dataset->def().name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 1;
  op.push = [dataset, record_column](int, Emitter* out) {
    return std::make_unique<ModifySink>(
        [dataset, record_column](const Tuple& t) -> Result<bool> {
          ASTERIX_RETURN_NOT_OK(
              dataset->Insert(t[static_cast<size_t>(record_column)]));
          return true;
        },
        out);
  };
  return op;
}

OperatorDescriptor MakeDelete(storage::PartitionedDataset* dataset,
                              std::vector<int> key_columns) {
  OperatorDescriptor op;
  op.name = "delete(" + dataset->def().name + ")";
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 1;
  op.push = [dataset, key_columns](int, Emitter* out) {
    return std::make_unique<ModifySink>(
        [dataset, key_columns](const Tuple& t) -> Result<bool> {
          storage::CompositeKey pk;
          for (int c : key_columns) pk.push_back(t[static_cast<size_t>(c)]);
          bool found = false;
          ASTERIX_RETURN_NOT_OK(dataset->DeleteByKey(pk, &found));
          return found;
        },
        out);
  };
  return op;
}

OperatorDescriptor MakeResultSink(std::shared_ptr<std::vector<Tuple>> sink) {
  OperatorDescriptor op;
  op.name = "result-sink";
  op.parallelism = 1;
  op.num_inputs = 1;
  auto mu = std::make_shared<std::mutex>();
  op.push = [sink, mu](int, Emitter*) {
    return std::make_unique<ResultSink>(sink, mu);
  };
  return op;
}

// ---------------------------------------------------------------------------
// Vectorized operators.
// ---------------------------------------------------------------------------

OperatorDescriptor MakeVectorScan(storage::PartitionedDataset* dataset,
                                  storage::column::Projection projection,
                                  storage::ScanBounds bounds,
                                  ScanJoinFilter join_filter) {
  OperatorDescriptor op;
  // Keep "column-scan(name)" as a substring: plan listings and their tests
  // recognize columnar scans by that tag.
  op.name = ScanName("vector-column-scan(" + dataset->def().name + ")",
                     projection, join_filter);
  op.parallelism = static_cast<int>(dataset->num_partitions());
  op.num_inputs = 0;
  auto proj = std::make_shared<storage::column::Projection>(std::move(projection));
  auto shared = std::make_shared<storage::ScanBounds>(std::move(bounds));
  auto filter = join_filter.filter;
  op.source = [dataset, proj, shared, filter](int p, Emitter* out) {
    // Wait for the build before taking the tree's read lock; the
    // pipeline's vector-materialize tests the rows.
    if (filter != nullptr) filter->Wait();
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
          return out->status();
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
  };
  return op;
}

namespace {

/// Only a vector scan feeds the vectorized operators, across 1:1 connectors
/// that forward batches whole, so a frame without a batch is a plan bug.
Status NoBatchError(const char* op) {
  return Status::Internal(std::string(op) +
                          " received a frame without a batch");
}

/// Vectorized filter: batches refine their selection vector in place.
class VectorSelect final : public PushOperator {
 public:
  VectorSelect(std::shared_ptr<vector::PredNode> pred, Emitter* out)
      : out_(out), pred_(std::move(pred)) {}

  Status Consume(int, Frame& frame) override {
    if (frame.batch == nullptr) return NoBatchError("vector-select");
    ++batches_;
    rows_total_ += frame.batch->sel.size();
    auto t0 = std::chrono::steady_clock::now();
    Status st = vector::Filter(*pred_, frame.batch.get());
    kernel_us_ += ElapsedUs(t0);
    ASTERIX_RETURN_NOT_OK(st);
    rows_selected_ += frame.batch->sel.size();
    if (!frame.batch->sel.empty()) out_->PushBatch(std::move(frame.batch));
    return Status::OK();
  }

  Status Close(int) override {
    out_->AddBatchStats(batches_, rows_selected_, rows_total_);
    out_->AddKernelTime(kernel_us_);
    return Status::OK();
  }

 private:
  Emitter* const out_;
  std::shared_ptr<vector::PredNode> pred_;
  uint64_t batches_ = 0, rows_selected_ = 0, rows_total_ = 0, kernel_us_ = 0;
};

/// Vectorized ungrouped aggregation: kernels fold each batch.
class VectorAggregate final : public PushOperator {
 public:
  VectorAggregate(const std::vector<VectorAggSpec>& aggs, AggMode mode,
                  Emitter* out)
      : out_(out), mode_(mode) {
    states_.reserve(aggs.size());
    for (const auto& a : aggs) states_.emplace_back(a.function, a.field);
  }

  Status Consume(int, Frame& frame) override {
    if (frame.batch == nullptr) return NoBatchError("vector-aggregate");
    ++batches_;
    rows_ += frame.batch->sel.size();
    auto t0 = std::chrono::steady_clock::now();
    for (auto& s : states_) ASTERIX_RETURN_NOT_OK(s.AddBatch(*frame.batch));
    kernel_us_ += ElapsedUs(t0);
    return Status::OK();
  }

  Status Close(int) override {
    out_->AddBatchStats(batches_, rows_, rows_);
    out_->AddKernelTime(kernel_us_);
    Tuple result;
    result.reserve(states_.size());
    for (const auto& s : states_) {
      result.push_back(mode_ == AggMode::kLocal ? s.Partial() : s.Finish());
    }
    out_->Push(std::move(result));
    return Status::OK();
  }

 private:
  Emitter* const out_;
  AggMode mode_;
  std::vector<vector::VectorAgg> states_;
  uint64_t batches_ = 0, rows_ = 0, kernel_us_ = 0;
};

/// Late materialization: each batch's selected rows become [record] tuples.
/// With a join filter, a row is tested on its key lanes first and rebuilt
/// only if the filter keeps it.
class VectorMaterialize final : public PushOperator {
 public:
  VectorMaterialize(std::shared_ptr<const ScanJoinFilter> join_filter,
                    Emitter* out)
      : out_(out), join_filter_(std::move(join_filter)) {}

  Status Consume(int, Frame& frame) override {
    if (frame.batch == nullptr) return NoBatchError("vector-materialize");
    const storage::column::ColumnBatch& batch = *frame.batch;
    ++batches_;
    rows_ += batch.sel.size();
    if (join_filter_->filter != nullptr && !probe_) {
      probe_.emplace(join_filter_->filter, join_filter_->fields);
    }
    if (probe_ && probe_->active()) {
      lanes_.clear();
      for (const std::string& f : probe_->fields()) {
        lanes_.push_back(batch.LaneIndex(f));
      }
    }
    for (uint32_t row : batch.sel.rows) {
      if (probe_ && probe_->active() && !KeepRow(batch, row)) continue;
      out_->Push({batch.MaterializeRow(row)});
    }
    return Status::OK();
  }

  Status Close(int) override {
    out_->AddBatchStats(batches_, rows_, rows_);
    if (probe_) out_->AddFilterDropped(probe_->dropped());
    return Status::OK();
  }

 private:
  /// The filter's test of `row`'s key lanes (MISSING for a field the batch
  /// does not carry).
  bool KeepRow(const storage::column::ColumnBatch& batch, uint32_t row) {
    keys_.resize(lanes_.size());
    key_ptrs_.resize(lanes_.size());
    for (size_t i = 0; i < lanes_.size(); ++i) {
      keys_[i] = lanes_[i] < 0 ? Value::Missing()
                               : batch.FieldValue(lanes_[i], row);
      key_ptrs_[i] = &keys_[i];
    }
    return probe_->Keep(key_ptrs_.data());
  }

  Emitter* const out_;
  std::shared_ptr<const ScanJoinFilter> join_filter_;
  std::optional<JoinFilterProbe> probe_;
  std::vector<int> lanes_;  // the batch's lane of each key field, or -1
  std::vector<Value> keys_;
  std::vector<const Value*> key_ptrs_;
  uint64_t batches_ = 0, rows_ = 0;
};

}  // namespace

OperatorDescriptor MakeVectorSelect(int parallelism,
                                    std::shared_ptr<vector::PredNode> pred) {
  OperatorDescriptor op;
  op.name = "vector-select";
  op.parallelism = parallelism;
  op.num_inputs = 1;
  op.push = [pred](int, Emitter* out) {
    return std::make_unique<VectorSelect>(pred, out);
  };
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
  op.push = [aggs, mode](int, Emitter* out) {
    return std::make_unique<VectorAggregate>(aggs, mode, out);
  };
  return op;
}

OperatorDescriptor MakeVectorMaterialize(int parallelism,
                                         ScanJoinFilter join_filter) {
  OperatorDescriptor op;
  op.name = "vector-materialize";
  std::string ftag = join_filter.ToString();
  if (!ftag.empty()) op.name += " " + ftag;
  op.parallelism = parallelism;
  op.num_inputs = 1;
  auto jf = std::make_shared<const ScanJoinFilter>(std::move(join_filter));
  op.push = [jf](int, Emitter* out) {
    return std::make_unique<VectorMaterialize>(jf, out);
  };
  return op;
}

}  // namespace hyracks
}  // namespace asterix
