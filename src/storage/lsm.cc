#include "storage/lsm.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "adm/serde.h"
#include "common/compress.h"
#include "common/env.h"
#include "common/journal.h"
#include "common/ledger.h"
#include "common/metrics.h"
#include "common/string_utils.h"
#include "storage/column/column_component.h"

namespace asterix {
namespace storage {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Logical bytes accepted by Upsert/Delete — the write-amplification
/// denominator (same accounting unit mem_bytes_ uses).
metrics::Counter* IngestedCounter() {
  static metrics::Counter* c = metrics::MetricsRegistry::Default().GetCounter(
      "storage.lsm.bytes_ingested");
  return c;
}

/// Write amplification = (flushed + merged) / ingested, published x1000 in a
/// gauge (the registry holds integers). Recomputed after every flush/merge
/// from the cumulative counters, so it converges process-wide even with
/// many trees.
void UpdateWriteAmplification() {
  auto& reg = metrics::MetricsRegistry::Default();
  static metrics::Counter* flushed = reg.GetCounter("storage.lsm.bytes_flushed");
  static metrics::Counter* merged = reg.GetCounter("storage.lsm.bytes_merged");
  static metrics::Gauge* amp =
      reg.GetGauge("storage.lsm.write_amplification_x1000");
  uint64_t ingested = IngestedCounter()->value();
  if (ingested == 0) return;
  amp->Set(static_cast<int64_t>((flushed->value() + merged->value()) * 1000 /
                                ingested));
}

/// Soft-throttle curve: an ingest write that trips the budget while the
/// previous rotation is still flushing pays an escalating delay instead of
/// doing the flush itself — 50us doubling per consecutive throttled write,
/// capped at 2ms. The cap is deliberately far below a flush's own cost:
/// the throttle only has to slow refill enough that the hard ceiling
/// (3x budget) is not hit before the
/// background flush drains; pushing it higher just moves the sync design's
/// latency cliff into the async tail.
constexpr uint64_t kThrottleBaseUs = 50;
constexpr uint64_t kThrottleMaxUs = 2'000;
constexpr uint32_t kThrottleMaxLevel = 8;

/// Every stalled or throttled ingest write goes through here, whatever the
/// mechanism (inline flush in sync mode, soft throttle delay, or a
/// hard-ceiling block in async mode) — one accounting path, so the numbers
/// in `storage.lsm.write_stall_us` and the journal can't drift.
void RecordWriteStall(uint64_t stall_us, const char* tree_name) {
  static metrics::Histogram* h = metrics::MetricsRegistry::Default().GetHistogram(
      "storage.lsm.write_stall_us");
  h->Observe(stall_us);
  journal::Journal::Default().Post(journal::EventKind::kWriteStall, stall_us, 0,
                                   tree_name);
}

// Per-entry payload framing for compressed row components: [codec][bytes],
// codec 0 = raw, 1 = LZ (only kept when it actually shrinks the payload).
// Readers below this layer always hand back the unframed logical payload.
std::vector<uint8_t> EncodeRowPayload(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  std::vector<uint8_t> packed = LzCompress(payload.data(), payload.size());
  if (packed.size() < payload.size()) {
    out.reserve(packed.size() + 1);
    out.push_back(1);
    out.insert(out.end(), packed.begin(), packed.end());
  } else {
    out.reserve(payload.size() + 1);
    out.push_back(0);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  {
    auto& reg = metrics::MetricsRegistry::Default();
    static metrics::Counter* raw = reg.GetCounter("storage.compress.bytes_raw");
    static metrics::Counter* stored =
        reg.GetCounter("storage.compress.bytes_stored");
    raw->Inc(payload.size());
    stored->Inc(out.size() - 1);
  }
  return out;
}

/// The logical payload of a stored row image, read in place: `*data` points
/// into `stored` for a raw frame, or into `scratch` for an inflated one.
Status UnframeRowPayload(const uint8_t* stored, size_t size,
                         std::vector<uint8_t>* scratch, const uint8_t** data,
                         size_t* len) {
  if (size == 0) return Status::Corruption("empty framed payload");
  if (stored[0] == 0) {
    *data = stored + 1;
    *len = size - 1;
    return Status::OK();
  }
  if (stored[0] != 1) return Status::Corruption("unknown payload codec");
  ASTERIX_RETURN_NOT_OK(LzDecompress(stored + 1, size - 1, scratch));
  *data = scratch->data();
  *len = scratch->size();
  return Status::OK();
}

/// Decodes one read's record images, a row component's or a memtable's,
/// with the projection's plan. While a key filter is active it decodes the
/// filter's key fields first, and the rest only for records it keeps.
class Decoder {
 public:
  Decoder(const adm::DatatypePtr& type, const column::Projection& proj,
          bool compressed)
      : type_(type),
        compressed_(compressed),
        plan_(type, proj.all_fields, proj.fields) {}

  /// The logical payload of a stored image.
  Status Payload(const EntryView& e, std::vector<uint8_t>* out) {
    const uint8_t* data = e.payload;
    size_t len = e.payload_size;
    if (compressed_ && !e.antimatter) {
      ASTERIX_RETURN_NOT_OK(UnframeRowPayload(e.payload, e.payload_size,
                                              &scratch_, &data, &len));
    }
    out->assign(data, data + len);
    return Status::OK();
  }

  /// The record of a stored image, or null when `filter` drops it.
  Status Record(const uint8_t* stored, size_t size, ScanKeyFilter* filter,
                const adm::Value** out) {
    const uint8_t* data = stored;
    size_t len = size;
    if (compressed_) {
      ASTERIX_RETURN_NOT_OK(
          UnframeRowPayload(stored, size, &scratch_, &data, &len));
    }
    if (filter != nullptr && filter->active()) {
      if (!key_plan_.has_value()) key_plan_.emplace(type_, false, filter->fields());
      BytesReader kr(data, len);
      ASTERIX_RETURN_NOT_OK(key_plan_->DecodeFields(&kr, &keys_));
      key_ptrs_.resize(keys_.size());
      for (size_t i = 0; i < keys_.size(); ++i) key_ptrs_[i] = &keys_[i];
      if (!filter->Keep(key_ptrs_.data())) {
        *out = nullptr;
        return Status::OK();
      }
    }
    BytesReader r(data, len);
    ASTERIX_RETURN_NOT_OK(plan_.Decode(&r, &record_));
    *out = &record_;
    return Status::OK();
  }

 private:
  adm::DatatypePtr type_;
  bool compressed_;
  adm::ProjectedDecoder plan_;
  std::optional<adm::ProjectedDecoder> key_plan_;  // once a filter is active
  std::vector<adm::Value> keys_;
  std::vector<const adm::Value*> key_ptrs_;
  std::vector<uint8_t> scratch_;  // an inflated payload
  adm::Value record_;
};

/// A row component's entries within bounds, in key order: the B+-tree's
/// cursor, decoding records straight from the pinned leaf page.
class RowCursor : public ComponentCursor {
 public:
  RowCursor(const BTreeReader* tree, const ScanBounds& bounds, Decoder dec,
            column::ProjectedScanStats* stats)
      : c_(tree), bounds_(bounds), dec_(std::move(dec)), stats_(stats) {}

  Status Seek() {
    ASTERIX_RETURN_NOT_OK(c_.Seek(bounds_.lo.has_value() ? &*bounds_.lo : nullptr));
    return Settle();
  }
  Status Next() override {
    ASTERIX_RETURN_NOT_OK(c_.Next());
    return Settle();
  }
  Status Payload(std::vector<uint8_t>* out) override {
    return c_.View([&](const EntryView& e) { return dec_.Payload(e, out); });
  }
  Status Record(ScanKeyFilter* filter, const adm::Value** out) override {
    return c_.View([&](const EntryView& e) {
      return dec_.Record(e.payload, e.payload_size, filter, out);
    });
  }

 private:
  /// Steps past entries below the bounds; ends past the upper bound.
  Status Settle() {
    key_ = nullptr;
    while (c_.Valid()) {
      int where = BoundsPosition(c_.key(), bounds_);
      if (where > 0) break;
      if (where == 0) {
        key_ = &c_.key();
        antimatter_ = c_.antimatter();
        if (stats_ != nullptr) stats_->bytes_read += c_.payload_size();
        break;
      }
      ASTERIX_RETURN_NOT_OK(c_.Next());
    }
    return Status::OK();
  }

  BTreeReader::Cursor c_;
  const ScanBounds& bounds_;
  Decoder dec_;
  column::ProjectedScanStats* stats_;
};

/// A memtable's entries within bounds, in key order.
class MemCursor : public ComponentCursor {
 public:
  MemCursor(const LsmBTree::MemTable& table, const ScanBounds& bounds,
            Decoder dec, column::ProjectedScanStats* stats)
      : it_(bounds.lo.has_value() ? table.lower_bound(*bounds.lo)
                                  : table.begin()),
        end_(table.end()),
        bounds_(bounds),
        dec_(std::move(dec)),
        stats_(stats) {
    Settle();
  }

  Status Next() override {
    ++it_;
    Settle();
    return Status::OK();
  }
  Status Payload(std::vector<uint8_t>* out) override {
    *out = it_->second.payload;
    return Status::OK();
  }
  Status Record(ScanKeyFilter* filter, const adm::Value** out) override {
    const std::vector<uint8_t>& image = it_->second.payload;
    return dec_.Record(image.data(), image.size(), filter, out);
  }

 private:
  void Settle() {
    key_ = nullptr;
    for (; it_ != end_; ++it_) {
      int where = BoundsPosition(it_->first, bounds_);
      if (where > 0) break;
      if (where == 0) {
        key_ = &it_->first;
        antimatter_ = it_->second.antimatter;
        if (stats_ != nullptr) stats_->bytes_read += it_->second.payload.size();
        break;
      }
    }
  }

  LsmBTree::MemTable::const_iterator it_, end_;
  const ScanBounds& bounds_;
  Decoder dec_;
  column::ProjectedScanStats* stats_;
};

/// Adapts the row-major B+-tree component to the DiskComponentReader
/// interface. Records are decoded straight from the leaf page, only the
/// projection's fields; the row layout still reads every payload byte —
/// the cost gap the column format closes.
class RowComponentReader : public DiskComponentReader {
 public:
  RowComponentReader(std::shared_ptr<BTreeReader> btree, adm::DatatypePtr type,
                     bool compressed)
      : btree_(std::move(btree)), type_(std::move(type)),
        compressed_(compressed) {}

  Result<std::unique_ptr<ComponentCursor>> Scan(
      const ScanBounds& bounds, const column::Projection& proj,
      std::vector<column::KeyInterval>,
      column::ProjectedScanStats* stats) const override {
    auto c = std::make_unique<RowCursor>(
        btree_.get(), bounds, Decoder(type_, proj, compressed_), stats);
    ASTERIX_RETURN_NOT_OK(c->Seek());
    return std::unique_ptr<ComponentCursor>(std::move(c));
  }

  Status KeyRange(std::optional<column::KeyInterval>* out) const override {
    out->reset();
    if (btree_->num_entries() > 0) {
      *out = column::KeyInterval{btree_->min_key(), btree_->max_key()};
    }
    return Status::OK();
  }

  Status MultiGet(const std::vector<CompositeKey>& keys,
                  const column::Projection& proj,
                  const MultiGetCallback& cb) const override {
    Decoder dec(type_, proj, compressed_);
    return btree_->MultiGet(keys, [&](size_t i, const EntryView& e) {
      if (e.antimatter) return cb(i, true, adm::Value::Missing());
      const adm::Value* rec = nullptr;
      ASTERIX_RETURN_NOT_OK(dec.Record(e.payload, e.payload_size, nullptr, &rec));
      return cb(i, false, *rec);
    });
  }

  bool MayContain(const CompositeKey& key) const override {
    return btree_->MayContain(key);
  }

 private:
  std::shared_ptr<BTreeReader> btree_;
  adm::DatatypePtr type_;
  bool compressed_;
};

/// The B+-tree layouts LsmOptions select: paged row B+-trees (payloads
/// LZ-framed when compressed) or column components.
class BTreeLayout : public ComponentLayout {
 public:
  BTreeLayout(BufferCache* cache, const LsmOptions& options)
      : cache_(cache),
        column_(options.format == StorageFormat::kColumn),
        compress_(options.compress),
        type_(options.record_type) {}

  const char* suffix() const override { return column_ ? "col" : "btr"; }

  Status Build(const std::string& path,
               const std::function<Status(const EntryCallback&)>& feed,
               uint64_t* num_entries) const override {
    if (column_) {
      column::ColumnComponentBuilder builder(path, type_, compress_);
      ASTERIX_RETURN_NOT_OK(
          feed([&](const IndexEntry& e) { return builder.Add(e); }));
      ASTERIX_RETURN_NOT_OK(builder.Finish());
      *num_entries = builder.num_entries();
      return Status::OK();
    }
    BTreeBuilder builder(path);
    IndexEntry framed;
    ASTERIX_RETURN_NOT_OK(feed([&](const IndexEntry& e) {
      if (!compress_ || e.antimatter) return builder.Add(e);
      framed.key = e.key;
      framed.payload = EncodeRowPayload(e.payload);
      return builder.Add(framed);
    }));
    ASTERIX_RETURN_NOT_OK(builder.Finish());
    *num_entries = builder.num_entries();
    return Status::OK();
  }

  Status Open(const std::string& path,
              std::shared_ptr<DiskComponentReader>* out) const override {
    if (column_) {
      auto r = column::ColumnComponentReader::Open(cache_, path, type_);
      if (!r.ok()) return r.status();
      *out = r.take();
      return Status::OK();
    }
    auto r = BTreeReader::Open(cache_, path);
    if (!r.ok()) return r.status();
    *out = std::make_shared<RowComponentReader>(r.take(), type_, compress_);
    return Status::OK();
  }

 private:
  BufferCache* cache_;
  bool column_;
  bool compress_;
  adm::DatatypePtr type_;
};

/// Writes the merge's winners as a component file through `layout`, one at
/// a time. Antimatter winners stay unless `drop_antimatter`: a merge whose
/// run includes the oldest component leaves them nothing to cancel.
Status BuildComponent(const ComponentLayout& layout, const std::string& path,
                      NewestWinsMerge merge, bool drop_antimatter,
                      uint64_t* num_entries) {
  return layout.Build(
      path,
      [&](const EntryCallback& add) {
        IndexEntry e;
        return merge.ForEach([&](ComponentCursor& c) {
          if (c.antimatter() && drop_antimatter) return Status::OK();
          e.key = c.key();
          e.antimatter = c.antimatter();
          ASTERIX_RETURN_NOT_OK(c.Payload(&e.payload));
          return add(e);
        });
      },
      num_entries);
}

}  // namespace

bool MergePolicyFromName(const std::string& name, MergePolicy* out) {
  if (name == "none") {
    *out = MergePolicy::None();
  } else if (name == "constant") {
    *out = MergePolicy::Constant(5);
  } else if (name == "prefix") {
    *out = MergePolicy::Prefix(5, 256ull << 20);
  } else if (name == "tiered") {
    *out = MergePolicy::Tiered(5, 120);
  } else {
    return false;
  }
  return true;
}

const char* MergePolicyName(MergePolicy::Kind kind) {
  switch (kind) {
    case MergePolicy::Kind::kNone:
      return "none";
    case MergePolicy::Kind::kConstant:
      return "constant";
    case MergePolicy::Kind::kPrefix:
      return "prefix";
    case MergePolicy::Kind::kTiered:
      return "tiered";
  }
  return "constant";
}

// ---------------------------------------------------------------------------
// LsmLifecycle
// ---------------------------------------------------------------------------

LsmLifecycle::LsmLifecycle(std::string dir, std::string name, std::string suffix)
    : dir_(std::move(dir)), name_(std::move(name)), suffix_(std::move(suffix)) {}

std::string LsmLifecycle::ComponentPath(uint64_t seq) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), ".c%012llu.",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name_ + buf + suffix_;
}

std::string LsmLifecycle::MarkerPath(uint64_t seq) const {
  return ComponentPath(seq) + ".valid";
}

uint64_t LsmLifecycle::AllocateSeq() { return next_seq_++; }

Status LsmLifecycle::MarkValid(uint64_t seq, uint64_t num_entries,
                               uint64_t max_lsn, uint64_t sort_seq,
                               uint64_t replaces_lo, uint64_t replaces_hi) {
  BytesWriter w;
  w.PutU64(num_entries);
  w.PutU64(max_lsn);
  w.PutU64(sort_seq == 0 ? seq : sort_seq);
  w.PutU64(replaces_lo);
  w.PutU64(replaces_hi);
  return env::WriteFileAtomic(MarkerPath(seq), w.data().data(), w.size());
}

Status LsmLifecycle::RemoveComponent(const ComponentInfo& info) {
  // The marker sits next to the data file; derive it from the path rather
  // than info.seq — a merge output's sort seq differs from its file name.
  ASTERIX_RETURN_NOT_OK(env::RemoveFile(info.path + ".valid"));
  return env::RemoveFile(info.path);
}

Result<std::vector<ComponentInfo>> LsmLifecycle::Recover() {
  std::vector<std::string> names;
  ASTERIX_RETURN_NOT_OK(env::ListDir(dir_, &names));
  std::string prefix = name_ + ".c";
  struct Recovered {
    ComponentInfo info;        // info.seq is the *sort* seq
    uint64_t file_seq = 0;     // from the file name (allocation order)
    uint64_t lo = 0, hi = 0;   // replaces range; hi == 0 = not a merge output
    bool removed = false;
  };
  std::vector<Recovered> recs;
  for (const auto& fname : names) {
    if (!StartsWith(fname, prefix)) continue;
    if (fname.size() < prefix.size() + 12) continue;
    std::string digits = fname.substr(prefix.size(), 12);
    uint64_t seq = std::strtoull(digits.c_str(), nullptr, 10);
    std::string data_path = ComponentPath(seq);
    std::string data_name = data_path.substr(dir_.size() + 1);
    if (fname == data_name) {
      // Found a data file; check its validity marker. Components without a
      // validity bit are crash debris and are removed (the paper's recovery
      // rule for shadowed components).
      std::string marker = MarkerPath(seq);
      if (!env::Exists(marker)) {
        ASTERIX_RETURN_NOT_OK(env::RemoveFile(data_path));
        continue;
      }
      std::vector<uint8_t> mbytes;
      ASTERIX_RETURN_NOT_OK(env::ReadFile(marker, &mbytes));
      BytesReader mr(mbytes);
      Recovered rec;
      rec.info.seq = seq;
      rec.info.path = data_path;
      rec.info.bytes = env::FileSize(data_path);
      rec.file_seq = seq;
      ASTERIX_RETURN_NOT_OK(mr.GetU64(&rec.info.num_entries));
      ASTERIX_RETURN_NOT_OK(mr.GetU64(&rec.info.max_lsn));
      // Markers written before sort seqs carried only the two fields above;
      // for those the file seq is the sort seq and nothing is replaced.
      uint64_t sort_seq = seq;
      if (mr.remaining() >= 24) {
        ASTERIX_RETURN_NOT_OK(mr.GetU64(&sort_seq));
        ASTERIX_RETURN_NOT_OK(mr.GetU64(&rec.lo));
        ASTERIX_RETURN_NOT_OK(mr.GetU64(&rec.hi));
      }
      rec.info.seq = sort_seq;
      recs.push_back(std::move(rec));
      next_seq_ = std::max(next_seq_, seq + 1);
    }
  }
  // Complete interrupted merges: a valid output whose inputs still exist
  // (crash between marking the output and deleting the inputs) supersedes
  // the components inside its replaces range.
  //
  // A merge output's marker keeps its replaces range for the output's whole
  // lifetime, so a *stale* range can still be on disk long after its inputs
  // were deleted — and when a later merge chains on that output (the output
  // becomes the newest input of the next run), the later output inherits
  // the same sort seq, and the stale range matches it. Applying ranges
  // unconditionally would then delete both outputs (each falls inside the
  // other's range) and lose the data permanently, since flushed_lsn already
  // covers it and WAL replay will not restore it. Three rules prevent that:
  //   1. Ranges apply newest-declaring-output-first (file seqs are
  //      allocated monotonically, so the latest interrupted merge wins).
  //   2. A range only removes components whose *file* seq is older than
  //      the declaring output's — a merge's inputs always predate its
  //      output file, so this never misses a real leftover input, while a
  //      stale range can no longer reach forward at a newer output.
  //   3. A range declared by a component that was itself removed is dead
  //      (its output lost to a newer one) and is never applied.
  std::vector<size_t> order;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].hi != 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return recs[a].file_seq > recs[b].file_seq;
  });
  for (size_t oi : order) {
    const Recovered& r = recs[oi];
    if (r.removed) continue;
    for (auto& c : recs) {
      if (c.removed || c.file_seq >= r.file_seq) continue;
      if (c.info.seq >= r.lo && c.info.seq <= r.hi) {
        ASTERIX_RETURN_NOT_OK(RemoveComponent(c.info));
        c.removed = true;
      }
    }
  }
  std::vector<ComponentInfo> components;
  for (auto& rec : recs) {
    if (!rec.removed) components.push_back(std::move(rec.info));
  }
  std::sort(components.begin(), components.end(),
            [](const ComponentInfo& a, const ComponentInfo& b) {
              return a.seq < b.seq;
            });
  return components;
}

// ---------------------------------------------------------------------------
// LsmBTree
// ---------------------------------------------------------------------------

LsmBTree::LsmBTree(BufferCache* cache, const std::string& dir,
                   const std::string& name, LsmOptions options)
    : LsmBTree(dir, name, options,
               std::make_unique<BTreeLayout>(cache, options)) {}

LsmBTree::LsmBTree(const std::string& dir, const std::string& name,
                   LsmOptions options, std::unique_ptr<ComponentLayout> layout)
    : layout_(std::move(layout)),
      lifecycle_(dir, name, layout_->suffix()),
      options_(std::move(options)) {}

LsmBTree::~LsmBTree() {
  // Drops queued jobs and waits out a running one; after this no scheduler
  // worker can touch the tree. Unflushed memtable contents are dropped —
  // identical to a crash, which the WAL replay path is built for.
  if (options_.scheduler != nullptr) options_.scheduler->Release(this);
}

const std::string& LsmBTree::compaction_label() const {
  return lifecycle_.name();
}

Status LsmBTree::Open() {
  std::unique_lock lock(mu_);
  auto comps_r = lifecycle_.Recover();
  if (!comps_r.ok()) return comps_r.status();
  for (auto& info : comps_r.value()) {
    std::shared_ptr<DiskComponentReader> reader;
    ASTERIX_RETURN_NOT_OK(layout_->Open(info.path, &reader));
    flushed_lsn_ = std::max(flushed_lsn_, info.max_lsn);
    disk_.push_back(DiskComponent{std::move(info), std::move(reader)});
  }
  return Status::OK();
}

Status LsmBTree::Upsert(const CompositeKey& key, std::vector<uint8_t> payload,
                        uint64_t lsn) {
  return Apply(key, MemEntry{false, std::move(payload)}, lsn);
}

Status LsmBTree::Delete(const CompositeKey& key, uint64_t lsn,
                        std::vector<uint8_t> payload) {
  return Apply(key, MemEntry{true, std::move(payload)}, lsn);
}

Status LsmBTree::Apply(const CompositeKey& key, MemEntry entry, uint64_t lsn) {
  std::unique_lock lock(mu_);
  size_t add = (entry.antimatter ? 0 : entry.payload.size()) +
               key.size() * 16 + 32;
  mem_.insert_or_assign(key, std::move(entry));
  mem_bytes_ += add;
  IngestedCounter()->Inc(add);
  mem_max_lsn_ = std::max(mem_max_lsn_, lsn);
  return MaybeRotateLocked(lock);
}

void LsmBTree::RotateLocked() {
  auto imm = std::make_shared<ImmComponent>();
  imm->entries = std::move(mem_);
  imm->bytes = mem_bytes_;
  imm->max_lsn = mem_max_lsn_;
  mem_.clear();
  mem_bytes_ = 0;
  mem_max_lsn_ = 0;
  imm_ = std::move(imm);
  throttle_level_ = 0;
}

Status LsmBTree::MaybeRotateLocked(std::unique_lock<std::shared_mutex>& lock) {
  if (mem_bytes_ < options_.mem_budget_bytes) {
    throttle_level_ = 0;
    return Status::OK();
  }
  if (!bg_error_.ok()) return bg_error_;
  CompactionScheduler* sched = options_.scheduler;
  if (sched != nullptr) {
    if (imm_ == nullptr) {
      // Steady state: rotate to a fresh memtable and hand the immutable one
      // to the background pool — the writer pays no stall at all.
      RotateLocked();
      if (sched->Schedule(this, CompactionJobKind::kFlush)) {
        return Status::OK();
      }
      // Queue full / scheduler stopping: fall through to the inline flush
      // below so memory stays bounded (the honest-stall path).
    } else {
      // The ceiling is 3x budget: the rotated imm component already holds
      // ~1x, so anything lower leaves no soft band between the budget trip
      // and the hard block — every writer would skip the throttle and
      // stall for the whole flush.
      const size_t hard = 3 * options_.mem_budget_bytes;
      uint64_t stall_start_us = NowUs();
      if (mem_bytes_ + imm_->bytes < hard) {
        // Previous rotation still flushing: soft-throttle this writer with
        // an escalating delay instead of flushing inline.
        uint32_t level = std::min(throttle_level_, kThrottleMaxLevel);
        ++throttle_level_;
        uint64_t delay_us =
            std::min(kThrottleBaseUs << level, kThrottleMaxUs);
        lock.unlock();
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        RecordWriteStall(NowUs() - stall_start_us, lifecycle_.name().c_str());
        lock.lock();
        return bg_error_;
      }
      // Hard memory ceiling: block until the in-flight flush clears so the
      // tree cannot grow without bound when ingest outruns the pool. The
      // wait must poll: the flush that will clear imm_ may still be only
      // *queued*, and Stop()/Release() drop queued jobs without notifying
      // the tree — once the scheduler no longer accepts work for this tree,
      // nothing will ever clear imm_, so fall back to an inline flush
      // instead of blocking forever.
      for (;;) {
        if (imm_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
              return imm_ == nullptr || !bg_error_.ok();
            })) {
          break;
        }
        if (!flush_inflight_ && !sched->Accepting(this)) {
          Status st = FlushLocked();  // drains imm_ and mem_ inline
          RecordWriteStall(NowUs() - stall_start_us,
                           lifecycle_.name().c_str());
          return st;
        }
      }
      RecordWriteStall(NowUs() - stall_start_us, lifecycle_.name().c_str());
      if (!bg_error_.ok()) return bg_error_;
      RotateLocked();
      if (sched->Schedule(this, CompactionJobKind::kFlush)) {
        return Status::OK();
      }
    }
  }
  // Synchronous mode (or async fallback): the stall is the flush itself.
  uint64_t stall_start_us = NowUs();
  Status st = FlushLocked();
  RecordWriteStall(NowUs() - stall_start_us, lifecycle_.name().c_str());
  return st;
}

Status LsmBTree::BarrierLocked(std::unique_lock<std::shared_mutex>& lock) {
  imm_cv_.wait(lock, [&] {
    return (!flush_inflight_ && !merge_inflight_) || !bg_error_.ok();
  });
  return bg_error_;
}

Status LsmBTree::Flush() {
  if (options_.scheduler != nullptr) options_.scheduler->Quiesce(this);
  std::unique_lock lock(mu_);
  ASTERIX_RETURN_NOT_OK(BarrierLocked(lock));
  return FlushLocked();
}

Status LsmBTree::MaybeMerge() {
  if (options_.scheduler != nullptr) options_.scheduler->Quiesce(this);
  std::unique_lock lock(mu_);
  ASTERIX_RETURN_NOT_OK(BarrierLocked(lock));
  return RunJobLocked(CompactionJobKind::kMerge, nullptr);
}

Status LsmBTree::FlushLocked() {
  // Oldest data first: a rotated component whose background flush has not
  // started (barrier call or async fallback), then the mutable one.
  while (imm_ != nullptr || !mem_.empty()) {
    if (imm_ == nullptr) RotateLocked();
    ASTERIX_RETURN_NOT_OK(RunJobLocked(CompactionJobKind::kFlush, nullptr));
  }
  return RunJobLocked(CompactionJobKind::kMerge, nullptr);
}

Status LsmBTree::BackgroundFlush() {
  return RunBackground(CompactionJobKind::kFlush);
}

Status LsmBTree::BackgroundMerge() {
  return RunBackground(CompactionJobKind::kMerge);
}

Status LsmBTree::RunBackground(CompactionJobKind kind) {
  std::unique_lock lock(mu_);
  if (!bg_error_.ok()) return bg_error_;
  Status st = RunJobLocked(kind, &lock);
  if (bg_error_.ok()) {
    // Keep ingest ahead: if the mutable side already re-tripped its budget,
    // rotate and queue the next flush before this job counts as done (so a
    // Quiesce() waiter still sees the tree busy). Tiering may want another
    // round once a run has collapsed.
    if (imm_ == nullptr && mem_bytes_ >= options_.mem_budget_bytes &&
        options_.scheduler->Schedule(this, CompactionJobKind::kFlush)) {
      RotateLocked();
    }
    size_t first = 0, count = 0;
    if (SelectMergeRunLocked(&first, &count)) {
      options_.scheduler->Schedule(this, CompactionJobKind::kMerge);
    }
  }
  imm_cv_.notify_all();
  return st;
}

Status LsmBTree::RunJobLocked(
    CompactionJobKind kind,
    std::unique_lock<std::shared_mutex>* unlock_for_build) {
  bool merge = kind == CompactionJobKind::kMerge;
  Job job;
  if (!(merge ? SelectMergeLocked(&job) : SelectFlushLocked(&job))) {
    return Status::OK();
  }
  bool& inflight = merge ? merge_inflight_ : flush_inflight_;
  if (unlock_for_build != nullptr) {
    // Build with no tree lock held: writers keep ingesting into the fresh
    // memtable and readers keep scanning (imm_ and the merge run stay
    // visible). Concurrent flushes only append behind a merge run and no
    // other merge runs on this tree, so the run stays live and contiguous
    // until install.
    inflight = true;
    unlock_for_build->unlock();
  }
  Status st = merge ? BuildMerge(&job) : BuildFlush(&job);
  if (unlock_for_build != nullptr) {
    unlock_for_build->lock();
    inflight = false;
    if (!st.ok() && bg_error_.ok()) bg_error_ = st;
  }
  if (!st.ok()) return st;
  if (merge) return InstallMergeLocked(&job);
  InstallFlushLocked(&job);
  return Status::OK();
}

bool LsmBTree::SelectFlushLocked(Job* job) {
  if (imm_ == nullptr) return false;  // resolved by a barrier
  job->imm = imm_;
  job->file_seq = lifecycle_.AllocateSeq();
  return true;
}

bool LsmBTree::SelectMergeLocked(Job* job) {
  // Never select while a background merge is mid-build: the two could pick
  // overlapping runs, and the second install would delete files the first
  // is still reading.
  if (merge_inflight_) return false;
  size_t first = 0, count = 0;
  if (!SelectMergeRunLocked(&first, &count)) return false;
  job->inputs.assign(disk_.begin() + first, disk_.begin() + first + count);
  // Components are never inserted below the oldest, so a run that starts
  // there leaves nothing for its antimatter to cancel.
  job->includes_oldest = first == 0;
  // The fresh seq only names the output file; the component sorts at its
  // newest input's seq, so a flush installing concurrently (with a higher
  // seq, since flushes always take the latest allocation) stays newer than
  // this output both in memory and across recovery.
  job->file_seq = lifecycle_.AllocateSeq();
  return true;
}

Status LsmBTree::BuildFlush(Job* job) {
  const ImmComponent& imm = *job->imm;
  job->bytes_in = imm.bytes;
  job->start_us = NowUs();
  journal::Journal::Default().Post(journal::EventKind::kLsmFlushStart,
                                   imm.bytes, imm.entries.size(),
                                   lifecycle_.name().c_str());
  std::string path = lifecycle_.ComponentPath(job->file_seq);
  uint64_t num_entries = 0;
  // A flush is the one-cursor merge over the rotated memtable.
  const ScanBounds all_keys;
  const column::Projection all;
  std::vector<std::unique_ptr<ComponentCursor>> cursors;
  cursors.push_back(std::make_unique<MemCursor>(
      imm.entries, all_keys, Decoder(options_.record_type, all, false),
      nullptr));
  ASTERIX_RETURN_NOT_OK(BuildComponent(*layout_, path,
                                       NewestWinsMerge(std::move(cursors)),
                                       /*drop_antimatter=*/false, &num_entries));
  // The validity bit makes the new component durable *after* its data file
  // is fully written (shadowing).
  ASTERIX_RETURN_NOT_OK(
      lifecycle_.MarkValid(job->file_seq, num_entries, imm.max_lsn));
  return OpenOutput(path, job->file_seq, num_entries, imm.max_lsn, job);
}

Status LsmBTree::BuildMerge(Job* job) {
  const std::vector<DiskComponent>& inputs = job->inputs;
  job->start_us = NowUs();
  uint64_t max_lsn = 0;
  for (const auto& dc : inputs) {
    job->bytes_in += dc.info.bytes;
    max_lsn = std::max(max_lsn, dc.info.max_lsn);
  }
  journal::Journal::Default().Post(journal::EventKind::kLsmMergeStart,
                                   job->bytes_in, inputs.size(),
                                   lifecycle_.name().c_str());
  // The inputs stream through their cursors, newest first, one entry each
  // at a time; the build never holds them in memory.
  const ScanBounds all_keys;
  const column::Projection all;
  std::vector<std::unique_ptr<ComponentCursor>> cursors;
  for (size_t i = inputs.size(); i > 0; --i) {
    ASTERIX_ASSIGN_OR_RETURN(std::unique_ptr<ComponentCursor> c,
                             inputs[i - 1].reader->Scan(all_keys, all, {}, nullptr));
    cursors.push_back(std::move(c));
  }
  std::string path = lifecycle_.ComponentPath(job->file_seq);
  uint64_t num_entries = 0;
  ASTERIX_RETURN_NOT_OK(BuildComponent(*layout_, path,
                                       NewestWinsMerge(std::move(cursors)),
                                       job->includes_oldest, &num_entries));
  // The output sorts at its newest input's position, and the marker's
  // replaces range lets recovery finish the input cleanup if we crash
  // before install deletes them.
  uint64_t sort_seq = inputs.back().info.seq;
  ASTERIX_RETURN_NOT_OK(lifecycle_.MarkValid(job->file_seq, num_entries,
                                             max_lsn, sort_seq,
                                             inputs.front().info.seq,
                                             sort_seq));
  return OpenOutput(path, sort_seq, num_entries, max_lsn, job);
}

Status LsmBTree::OpenOutput(const std::string& path, uint64_t sort_seq,
                            uint64_t num_entries, uint64_t max_lsn,
                            Job* job) const {
  ComponentInfo& info = job->out.info;
  info.seq = sort_seq;
  info.path = path;
  info.num_entries = num_entries;
  info.bytes = env::FileSize(path);
  info.max_lsn = max_lsn;
  return layout_->Open(path, &job->out.reader);
}

void LsmBTree::InstallFlushLocked(Job* job) {
  RecordInstall(*job);
  flushed_lsn_ = std::max(flushed_lsn_, job->out.info.max_lsn);
  disk_.push_back(std::move(job->out));
  imm_.reset();
  throttle_level_ = 0;
  imm_cv_.notify_all();
}

Status LsmBTree::InstallMergeLocked(Job* job) {
  // Re-locate the run by seq: concurrent flush installs may have appended
  // components behind it (never inside or below it).
  const std::vector<DiskComponent>& inputs = job->inputs;
  size_t first = 0;
  while (first < disk_.size() &&
         disk_[first].info.seq != inputs.front().info.seq) {
    ++first;
  }
  bool intact = first + inputs.size() <= disk_.size();
  for (size_t i = 0; intact && i < inputs.size(); ++i) {
    intact = disk_[first + i].info.seq == inputs[i].info.seq;
  }
  if (!intact) {
    // Only another merge could have changed the run, and select refuses
    // to start one while this one is in flight.
    return Status::Internal("merge run changed during its build");
  }
  RecordInstall(*job);
  auto run = disk_.begin() + static_cast<ptrdiff_t>(first);
  disk_.erase(run, run + static_cast<ptrdiff_t>(inputs.size()));
  disk_.insert(disk_.begin() + static_cast<ptrdiff_t>(first),
               std::move(job->out));
  Status st;
  for (auto& dc : job->inputs) {
    dc.reader.reset();  // closes the file in the cache
    Status rm = lifecycle_.RemoveComponent(dc.info);
    if (!rm.ok() && st.ok()) st = rm;
  }
  return st;
}

void LsmBTree::RecordInstall(const Job& job) const {
  const bool merge = !job.inputs.empty();
  const uint64_t bytes_out = job.out.info.bytes;
  auto& reg = metrics::MetricsRegistry::Default();
  static metrics::Counter* flushes = reg.GetCounter("storage.lsm.flushes");
  static metrics::Counter* merges = reg.GetCounter("storage.lsm.merges");
  static metrics::Counter* flushed = reg.GetCounter("storage.lsm.bytes_flushed");
  static metrics::Counter* merged = reg.GetCounter("storage.lsm.bytes_merged");
  static metrics::Histogram* flush_us = reg.GetHistogram("storage.lsm.flush_us");
  static metrics::Histogram* merge_us = reg.GetHistogram("storage.lsm.merge_us");
  (merge ? merges : flushes)->Inc();
  (merge ? merged : flushed)->Inc(bytes_out);
  (merge ? merge_us : flush_us)->Observe(NowUs() - job.start_us);
  if (options_.format == StorageFormat::kColumn) {
    static metrics::Counter* col_flushed =
        reg.GetCounter("storage.column.bytes_flushed");
    static metrics::Counter* col_merged =
        reg.GetCounter("storage.column.bytes_merged");
    (merge ? col_merged : col_flushed)->Inc(bytes_out);
  }
  UpdateWriteAmplification();
  // Physical write caused by the query whose ingest tripped the job (0 =
  // background/boot work, which the ledger ignores). Background jobs run
  // under the triggering query's id (see CompactionScheduler).
  ledger::ResourceLedger::Default().AddBytesWritten(journal::CurrentQueryId(),
                                                    bytes_out);
  journal::Journal::Default().Post(merge ? journal::EventKind::kLsmMergeEnd
                                         : journal::EventKind::kLsmFlushEnd,
                                   job.bytes_in, bytes_out,
                                   lifecycle_.name().c_str());
}

bool LsmBTree::SelectMergeRunLocked(size_t* first, size_t* count) const {
  const MergePolicy& p = options_.merge_policy;
  switch (p.kind) {
    case MergePolicy::Kind::kNone:
      return false;
    case MergePolicy::Kind::kConstant:
      if (disk_.size() > p.max_components && disk_.size() >= 2) {
        *first = 0;
        *count = disk_.size();
        return true;
      }
      return false;
    case MergePolicy::Kind::kPrefix: {
      // Find the longest suffix (newest run) of components each smaller than
      // max_merge_bytes; merge it when the run exceeds max_components.
      size_t run = 0;
      uint64_t run_bytes = 0;
      for (size_t i = disk_.size(); i > 0; --i) {
        const auto& info = disk_[i - 1].info;
        if (info.bytes >= p.max_merge_bytes) break;
        if (run_bytes + info.bytes > p.max_merge_bytes) break;
        run_bytes += info.bytes;
        ++run;
      }
      if (run > p.max_components && run >= 2) {
        *first = disk_.size() - run;
        *count = run;
        return true;
      }
      return false;
    }
    case MergePolicy::Kind::kTiered: {
      // Size-ratio tiering: grow the newest run while the next-older
      // component is at most size_ratio times the total of the newer run
      // members, then merge the run once it holds more than max_components
      // members. Each component is merged O(log n) times overall instead of
      // the constant policy's every-time.
      size_t run = 1;
      uint64_t run_bytes = disk_.empty() ? 0 : disk_.back().info.bytes;
      for (size_t i = disk_.size() > 0 ? disk_.size() - 1 : 0; i > 0; --i) {
        const auto& info = disk_[i - 1].info;
        if (info.bytes * 100 >
            run_bytes * static_cast<uint64_t>(p.size_ratio_x100)) {
          break;
        }
        run_bytes += info.bytes;
        ++run;
      }
      if (!disk_.empty() && run > p.max_components && run >= 2) {
        *first = disk_.size() - run;
        *count = run;
        return true;
      }
      return false;
    }
  }
  return false;
}

Status LsmBTree::PointLookup(const CompositeKey& key, bool* found,
                             std::vector<uint8_t>* payload) const {
  std::shared_lock lock(mu_);
  *found = false;
  // The rotated component is older than mem_ but newer than any disk
  // component — it stays visible until its background flush installs.
  for (const MemTable* t : {&mem_, imm_ != nullptr ? &imm_->entries : nullptr}) {
    if (t == nullptr) continue;
    auto it = t->find(key);
    if (it == t->end()) continue;
    *found = !it->second.antimatter;
    if (*found) *payload = it->second.payload;
    return Status::OK();
  }
  auto& reg = metrics::MetricsRegistry::Default();
  static metrics::Counter* bloom_hits = reg.GetCounter("storage.bloom.hits");
  static metrics::Counter* bloom_misses = reg.GetCounter("storage.bloom.misses");
  static metrics::Counter* bloom_fps =
      reg.GetCounter("storage.bloom.false_positives");
  // Newest disk component first, a one-key cursor on each the bloom filter
  // admits (a "miss" saves the page reads; a "hit" that finds nothing is a
  // false positive).
  const column::Projection all;
  std::optional<ScanBounds> point;  // made on the first bloom hit
  for (size_t i = disk_.size(); i > 0; --i) {
    const auto& dc = disk_[i - 1];
    if (!dc.reader->MayContain(key)) {
      bloom_misses->Inc();
      continue;
    }
    bloom_hits->Inc();
    if (!point.has_value()) point = ScanBounds{key, true, key, true};
    ASTERIX_ASSIGN_OR_RETURN(std::unique_ptr<ComponentCursor> c,
                             dc.reader->Scan(*point, all, {}, nullptr));
    if (!c->Valid() || CompareKeys(c->key(), key) != 0) {
      bloom_fps->Inc();
      continue;
    }
    if (c->antimatter()) return Status::OK();
    *found = true;
    return c->Payload(payload);
  }
  return Status::OK();
}

Status LsmBTree::MultiGet(
    const std::vector<CompositeKey>& keys, const column::Projection& proj,
    const std::function<Status(size_t, adm::Value)>& cb) const {
  // Per key: open until the newest component holding it resolves it to a
  // live record or to antimatter.
  enum : uint8_t { kOpen, kLive, kDead };
  std::vector<uint8_t> state(keys.size(), kOpen);
  std::vector<adm::Value> records(keys.size());
  size_t open = keys.size();
  const adm::ProjectedDecoder dec(options_.record_type, proj.all_fields,
                                  proj.fields);
  {
    std::shared_lock lock(mu_);
    for (const MemTable* t :
         {&mem_, imm_ != nullptr ? &imm_->entries : nullptr}) {
      if (t == nullptr || t->empty()) continue;
      for (size_t i = 0; i < keys.size(); ++i) {
        if (state[i] != kOpen) continue;
        auto it = t->find(keys[i]);
        if (it == t->end()) continue;
        --open;
        if (it->second.antimatter) {
          state[i] = kDead;
          continue;
        }
        BytesReader r(it->second.payload);
        ASTERIX_RETURN_NOT_OK(dec.Decode(&r, &records[i]));
        state[i] = kLive;
      }
    }
    auto& reg = metrics::MetricsRegistry::Default();
    static metrics::Counter* bloom_hits = reg.GetCounter("storage.bloom.hits");
    static metrics::Counter* bloom_misses =
        reg.GetCounter("storage.bloom.misses");
    static metrics::Counter* bloom_fps =
        reg.GetCounter("storage.bloom.false_positives");
    // Newest disk component first, each probed with the still-open keys its
    // bloom filter admits — the same per-(key, component) accounting a
    // PointLookup of every key would do.
    std::vector<CompositeKey> probe;
    std::vector<size_t> origin;  // probe[j] is keys[origin[j]]
    for (size_t d = disk_.size(); d > 0 && open > 0; --d) {
      const DiskComponentReader& reader = *disk_[d - 1].reader;
      probe.clear();
      origin.clear();
      for (size_t i = 0; i < keys.size(); ++i) {
        if (state[i] != kOpen) continue;
        if (!reader.MayContain(keys[i])) {
          bloom_misses->Inc();
          continue;
        }
        probe.push_back(keys[i]);
        origin.push_back(i);
      }
      if (probe.empty()) continue;
      bloom_hits->Inc(probe.size());
      size_t hits = 0;
      ASTERIX_RETURN_NOT_OK(reader.MultiGet(
          probe, proj,
          [&](size_t j, bool antimatter, const adm::Value& rec) {
            size_t i = origin[j];
            state[i] = antimatter ? kDead : kLive;
            if (!antimatter) records[i] = rec;
            ++hits;
            return Status::OK();
          }));
      bloom_fps->Inc(probe.size() - hits);
      open -= hits;
    }
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    if (state[i] == kLive) ASTERIX_RETURN_NOT_OK(cb(i, std::move(records[i])));
  }
  return Status::OK();
}

Result<NewestWinsMerge> LsmBTree::ScanLocked(
    const ScanBounds& bounds, const column::Projection& proj,
    column::ProjectedScanStats* stats) const {
  // Every component's key span feeds the column cursors' exclusions, but
  // only a projection with ranges can prune.
  const bool prunes = !proj.ranges.empty();
  std::vector<std::optional<column::KeyInterval>> spans;
  // Newest first: the memtable, the rotated memtable, the disk components.
  std::vector<std::unique_ptr<ComponentCursor>> cursors;
  for (const MemTable* t : {&mem_, imm_ != nullptr ? &imm_->entries : nullptr}) {
    if (t == nullptr || t->empty()) continue;
    cursors.push_back(std::make_unique<MemCursor>(
        *t, bounds, Decoder(options_.record_type, proj, false), stats));
    if (prunes) spans.push_back(column::KeyInterval{t->begin()->first, t->rbegin()->first});
  }
  for (size_t d = disk_.size(); prunes && d > 0; --d) {
    ASTERIX_RETURN_NOT_OK(disk_[d - 1].reader->KeyRange(&spans.emplace_back()));
  }
  for (size_t d = disk_.size(); d > 0; --d) {
    std::vector<column::KeyInterval> exclusions;  // the other components'
    for (size_t j = 0; j < spans.size(); ++j) {
      if (j != cursors.size() && spans[j]) exclusions.push_back(*spans[j]);
    }
    ASTERIX_ASSIGN_OR_RETURN(
        std::unique_ptr<ComponentCursor> c,
        disk_[d - 1].reader->Scan(bounds, proj, std::move(exclusions), stats));
    cursors.push_back(std::move(c));
  }
  return NewestWinsMerge(std::move(cursors));
}

Status LsmBTree::RangeScan(const ScanBounds& bounds,
                           const EntryCallback& cb) const {
  std::shared_lock lock(mu_);
  const column::Projection all;
  ASTERIX_ASSIGN_OR_RETURN(NewestWinsMerge merge, ScanLocked(bounds, all, nullptr));
  IndexEntry e;
  return merge.ForEach([&](ComponentCursor& c) {
    if (c.antimatter()) return Status::OK();
    e.key = c.key();
    ASTERIX_RETURN_NOT_OK(c.Payload(&e.payload));
    return cb(e);
  });
}

Status LsmBTree::CountEntries(const ScanBounds& bounds, uint64_t cap,
                              uint64_t* count) const {
  std::shared_lock lock(mu_);
  // The count reads keys only: no field is decoded, no column page read.
  const column::Projection none = column::Projection::Of({});
  ASTERIX_ASSIGN_OR_RETURN(NewestWinsMerge merge,
                           ScanLocked(bounds, none, nullptr));
  uint64_t n = 0;
  while (merge.Valid() && n < cap) {
    if (!merge.winner().antimatter()) ++n;
    ASTERIX_RETURN_NOT_OK(merge.Next());
  }
  *count = n;
  return Status::OK();
}

Status LsmBTree::ProjectedScan(const ScanBounds& bounds,
                               const column::Projection& proj,
                               const column::ProjectedEntryCallback& cb,
                               column::ProjectedScanStats* stats,
                               ScanKeyFilter* filter) const {
  std::shared_lock lock(mu_);
  ASTERIX_ASSIGN_OR_RETURN(NewestWinsMerge merge,
                           ScanLocked(bounds, proj, stats));
  // Only a winner is decoded and tested: dropping a newer version before
  // resolution would let an older one win.
  return merge.ForEach([&](ComponentCursor& c) {
    if (c.antimatter()) return Status::OK();
    const adm::Value* rec = nullptr;
    ASTERIX_RETURN_NOT_OK(c.Record(filter, &rec));
    return rec != nullptr ? cb(c.key(), false, *rec) : Status::OK();
  });
}

Status LsmBTree::BatchScan(const ScanBounds& bounds,
                           const column::Projection& proj,
                           const column::BatchCallback& cb,
                           column::ProjectedScanStats* stats) const {
  std::shared_lock lock(mu_);
  if (options_.format != StorageFormat::kColumn) {
    return Status::NotImplemented("batch scan requires column storage");
  }
  // Only the steady state qualifies: one disk component and empty memory
  // components (mutable and rotated) mean no cross-component resolution, so
  // column pages can stream out as typed batches directly. Anything else
  // needs row merging — the caller falls back to ProjectedScan + batch
  // rebuilding.
  if (!mem_.empty() || imm_ != nullptr || disk_.size() > 1) {
    return Status::NotImplemented("batch scan requires a merged component");
  }
  if (disk_.empty()) return Status::OK();
  auto* col = dynamic_cast<const column::ColumnComponentReader*>(
      disk_[0].reader.get());
  if (col == nullptr) {
    return Status::NotImplemented("batch scan requires column storage");
  }
  return col->BatchScan(bounds, proj, cb, stats);
}

Status LsmBTree::VisitNewestFirst(
    const std::function<Status(const MemTable&)>& mem,
    const std::function<Status(const DiskComponentReader&)>& disk) const {
  std::shared_lock lock(mu_);
  ASTERIX_RETURN_NOT_OK(mem(mem_));
  if (imm_ != nullptr) ASTERIX_RETURN_NOT_OK(mem(imm_->entries));
  for (size_t i = disk_.size(); i > 0; --i) {
    ASTERIX_RETURN_NOT_OK(disk(*disk_[i - 1].reader));
  }
  return Status::OK();
}

size_t LsmBTree::mem_entries() const {
  std::shared_lock lock(mu_);
  return mem_.size() + (imm_ != nullptr ? imm_->entries.size() : 0);
}

size_t LsmBTree::num_disk_components() const {
  std::shared_lock lock(mu_);
  return disk_.size();
}

uint64_t LsmBTree::total_disk_bytes() const {
  std::shared_lock lock(mu_);
  uint64_t total = 0;
  for (const auto& dc : disk_) total += dc.info.bytes;
  return total;
}

uint64_t LsmBTree::num_logical_entries() const {
  std::shared_lock lock(mu_);
  uint64_t total = mem_.size() + (imm_ != nullptr ? imm_->entries.size() : 0);
  for (const auto& dc : disk_) total += dc.info.num_entries;
  return total;
}

uint64_t LsmBTree::flushed_lsn() const {
  std::shared_lock lock(mu_);
  return flushed_lsn_;
}

}  // namespace storage
}  // namespace asterix
