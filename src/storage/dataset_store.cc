#include "storage/dataset_store.h"

#include <atomic>
#include <set>
#include <random>

#include "adm/serde.h"
#include "common/env.h"
#include "common/string_utils.h"
#include "functions/spatial.h"

namespace asterix {
namespace storage {

const adm::Value& ExtractFieldPath(const adm::Value& record,
                                   const std::string& path) {
  static const adm::Value* kMissing = new adm::Value();
  const adm::Value* cur = &record;
  size_t start = 0;
  while (true) {
    size_t dot = path.find('.', start);
    std::string_view part(path.data() + start,
                          (dot == std::string::npos ? path.size() : dot) - start);
    cur = &cur->GetField(part);
    if (dot == std::string::npos) return *cur;
    if (!cur->IsRecord()) return *kMissing;
    start = dot + 1;
  }
}

adm::Value GenerateUuidKey() {
  static std::atomic<uint64_t> counter{1};
  static const uint64_t hi_seed = []() {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) | rd();
  }();
  return adm::Value::Uuid(hi_seed, counter.fetch_add(1));
}

namespace {

// Injects a generated key into a record that lacks its (single) key field.
adm::Value WithGeneratedKey(const adm::Value& record, const std::string& field) {
  auto fields = record.AsRecord().fields;
  fields.emplace_back(field, GenerateUuidKey());
  return adm::Value::Record(std::move(fields));
}

// Secondary B-tree composite key: (field values..., pk values...).
CompositeKey SecondaryKey(const IndexDef& def, const adm::Value& record,
                          const CompositeKey& pk) {
  CompositeKey key;
  key.reserve(def.fields.size() + pk.size());
  for (const auto& f : def.fields) {
    key.push_back(ExtractFieldPath(record, f));
  }
  for (const auto& k : pk) key.push_back(k);
  return key;
}

}  // namespace

DatasetPartition::DatasetPartition(BufferCache* cache, std::string dir,
                                   const DatasetDef& def, uint32_t partition_no,
                                   txn::TxnManager* txns, LsmOptions options)
    : cache_(cache),
      dir_(std::move(dir)),
      def_(def),
      partition_no_(partition_no),
      txns_(txns),
      options_(options) {
  env::CreateDirs(dir_);
  // A per-dataset merge policy (with {"merge-policy": ...}) overrides the
  // instance default for the primary AND every secondary — the dataset's
  // ingest profile is what the policy is tuned for, and all its indexes see
  // the same write stream.
  if (!def_.merge_policy.empty()) {
    MergePolicy policy;
    if (MergePolicyFromName(def_.merge_policy, &policy)) {
      options_.merge_policy = policy;
    }
  }
  // The primary tree carries the dataset's storage format, compression
  // flag, and record type; secondaries stay row-major (options_ as given —
  // their entries are composite keys, not wide records).
  LsmOptions primary_opts = options_;
  primary_opts.format = def_.storage_format;
  primary_opts.compress = def_.compress;
  primary_opts.record_type = def_.type;
  primary_ = std::make_unique<LsmBTree>(cache_, dir_, "primary", primary_opts);
  for (const auto& ix : def_.secondary_indexes) {
    switch (ix.kind) {
      case IndexKind::kBTree:
        btrees_.push_back(SecondaryBTree{
            ix, std::make_unique<LsmBTree>(cache_, dir_, ix.name, options_)});
        break;
      case IndexKind::kRTree:
        rtrees_.push_back(SecondaryRTree{
            ix, std::make_unique<LsmRTree>(cache_, dir_, ix.name, options_)});
        break;
      case IndexKind::kKeyword:
        inverted_.push_back(SecondaryInverted{
            ix, std::make_unique<LsmInvertedIndex>(
                    cache_, dir_, ix.name, LsmInvertedIndex::Tokenizer::kWord, 0,
                    options_)});
        break;
      case IndexKind::kNgram:
        inverted_.push_back(SecondaryInverted{
            ix, std::make_unique<LsmInvertedIndex>(
                    cache_, dir_, ix.name, LsmInvertedIndex::Tokenizer::kNgram,
                    ix.gram_length, options_)});
        break;
    }
  }
}

Status DatasetPartition::Open() {
  ASTERIX_RETURN_NOT_OK(primary_->Open());
  for (auto& s : btrees_) ASTERIX_RETURN_NOT_OK(s.tree->Open());
  for (auto& s : rtrees_) ASTERIX_RETURN_NOT_OK(s.tree->Open());
  for (auto& s : inverted_) ASTERIX_RETURN_NOT_OK(s.index->Open());
  return ReplayWal();
}

Result<CompositeKey> DatasetPartition::PrimaryKeyOf(
    const adm::Value& record) const {
  CompositeKey pk;
  pk.reserve(def_.primary_key_fields.size());
  for (const auto& f : def_.primary_key_fields) {
    const adm::Value& v = ExtractFieldPath(record, f);
    if (v.IsUnknown()) {
      return Status::TypeError("record lacks primary key field '" + f + "'");
    }
    pk.push_back(v);
  }
  return pk;
}

uint64_t DatasetPartition::LockResource(const CompositeKey& pk) const {
  uint64_t h = HashKey(pk);
  h = Hash64(&def_.dataset_id, sizeof(def_.dataset_id), h);
  h = Hash64(&partition_no_, sizeof(partition_no_), h);
  return h;
}

Result<std::vector<uint8_t>> DatasetPartition::SerializeRecord(
    const adm::Value& record) const {
  BytesWriter w;
  Status st = adm::SerializeTyped(record, def_.type, &w);
  if (!st.ok()) return st;
  return w.data();
}

Result<adm::Value> DatasetPartition::DeserializeRecord(
    const std::vector<uint8_t>& bytes) const {
  BytesReader r(bytes);
  adm::Value v;
  Status st = adm::DeserializeTyped(&r, def_.type, &v);
  if (!st.ok()) return st;
  return v;
}

Status DatasetPartition::ApplyInsert(const CompositeKey& pk,
                                     const adm::Value& record, uint64_t lsn,
                                     bool to_primary) {
  if (to_primary) {
    ASTERIX_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                             SerializeRecord(record));
    ASTERIX_RETURN_NOT_OK(primary_->Upsert(pk, std::move(payload), lsn));
  }
  for (auto& s : btrees_) {
    if (lsn != 0 && lsn <= s.tree->flushed_lsn()) continue;
    ASTERIX_RETURN_NOT_OK(
        s.tree->Upsert(SecondaryKey(s.def, record, pk), {}, lsn));
  }
  for (auto& s : rtrees_) {
    if (lsn != 0 && lsn <= s.tree->flushed_lsn()) continue;
    const adm::Value& v = ExtractFieldPath(record, s.def.fields[0]);
    if (v.IsUnknown()) continue;  // optional spatial field absent: no entry
    functions::GeoPoint lo, hi;
    ASTERIX_RETURN_NOT_OK(functions::SpatialMbr(v, &lo, &hi));
    ASTERIX_RETURN_NOT_OK(
        s.tree->Upsert(pk, Mbr{lo.x, lo.y, hi.x, hi.y}, lsn));
  }
  for (auto& s : inverted_) {
    if (lsn != 0 && lsn <= s.index->flushed_lsn()) continue;
    const adm::Value& v = ExtractFieldPath(record, s.def.fields[0]);
    if (v.IsUnknown()) continue;
    ASTERIX_RETURN_NOT_OK(s.index->Insert(pk, v, lsn));
  }
  return Status::OK();
}

Status DatasetPartition::ApplyDelete(const CompositeKey& pk,
                                     const adm::Value& old_record, uint64_t lsn,
                                     bool to_primary) {
  if (to_primary) {
    ASTERIX_RETURN_NOT_OK(primary_->Delete(pk, lsn));
  }
  for (auto& s : btrees_) {
    if (lsn != 0 && lsn <= s.tree->flushed_lsn()) continue;
    ASTERIX_RETURN_NOT_OK(
        s.tree->Delete(SecondaryKey(s.def, old_record, pk), lsn));
  }
  for (auto& s : rtrees_) {
    if (lsn != 0 && lsn <= s.tree->flushed_lsn()) continue;
    const adm::Value& v = ExtractFieldPath(old_record, s.def.fields[0]);
    if (v.IsUnknown()) continue;
    functions::GeoPoint lo, hi;
    ASTERIX_RETURN_NOT_OK(functions::SpatialMbr(v, &lo, &hi));
    ASTERIX_RETURN_NOT_OK(
        s.tree->Delete(pk, Mbr{lo.x, lo.y, hi.x, hi.y}, lsn));
  }
  for (auto& s : inverted_) {
    if (lsn != 0 && lsn <= s.index->flushed_lsn()) continue;
    const adm::Value& v = ExtractFieldPath(old_record, s.def.fields[0]);
    if (v.IsUnknown()) continue;
    ASTERIX_RETURN_NOT_OK(s.index->Delete(pk, v, lsn));
  }
  return Status::OK();
}

Status DatasetPartition::Insert(const adm::Value& record) {
  ASTERIX_RETURN_NOT_OK(def_.type->Validate(record));
  ASTERIX_ASSIGN_OR_RETURN(CompositeKey pk, PrimaryKeyOf(record));

  txn::TxnId t = txns_->Begin();
  Status st = txns_->locks().Acquire(t, LockResource(pk),
                                     txn::LockMode::kExclusive);
  if (!st.ok()) {
    txns_->Abort(t);
    return st;
  }
  // Duplicate-key check under the X lock.
  bool exists = false;
  std::vector<uint8_t> unused;
  st = primary_->PointLookup(pk, &exists, &unused);
  if (st.ok() && exists) {
    st = Status::AlreadyExists("duplicate primary key in " + def_.name);
  }
  if (!st.ok()) {
    txns_->Abort(t);
    return st;
  }
  // WAL first (write-ahead), then apply, then commit.
  txn::LogRecord rec;
  rec.txn_id = t;
  rec.type = txn::LogType::kUpdate;
  rec.dataset_id = def_.dataset_id;
  rec.partition = partition_no_;
  BytesWriter kw;
  SerializeKey(pk, &kw);
  rec.key = kw.data();
  auto payload_r = SerializeRecord(record);
  if (!payload_r.ok()) {
    txns_->Abort(t);
    return payload_r.status();
  }
  rec.payload = payload_r.take();
  auto lsn_r = txns_->log().Append(&rec, /*force=*/false);
  if (!lsn_r.ok()) {
    txns_->Abort(t);
    return lsn_r.status();
  }
  st = ApplyInsert(pk, record, lsn_r.value(), /*to_primary=*/true);
  if (!st.ok()) {
    txns_->Abort(t);
    return st;
  }
  return txns_->Commit(t);
}

Status DatasetPartition::DeleteByKey(const CompositeKey& pk, bool* found) {
  *found = false;
  txn::TxnId t = txns_->Begin();
  Status st = txns_->locks().Acquire(t, LockResource(pk),
                                     txn::LockMode::kExclusive);
  if (!st.ok()) {
    txns_->Abort(t);
    return st;
  }
  bool exists = false;
  std::vector<uint8_t> old_bytes;
  st = primary_->PointLookup(pk, &exists, &old_bytes);
  if (!st.ok() || !exists) {
    txns_->Abort(t);
    return st;
  }
  auto old_r = DeserializeRecord(old_bytes);
  if (!old_r.ok()) {
    txns_->Abort(t);
    return old_r.status();
  }
  txn::LogRecord rec;
  rec.txn_id = t;
  rec.type = txn::LogType::kDelete;
  rec.dataset_id = def_.dataset_id;
  rec.partition = partition_no_;
  BytesWriter kw;
  SerializeKey(pk, &kw);
  rec.key = kw.data();
  rec.payload = old_bytes;  // old image lets recovery rebuild antimatter
  auto lsn_r = txns_->log().Append(&rec, /*force=*/false);
  if (!lsn_r.ok()) {
    txns_->Abort(t);
    return lsn_r.status();
  }
  st = ApplyDelete(pk, old_r.value(), lsn_r.value(), /*to_primary=*/true);
  if (!st.ok()) {
    txns_->Abort(t);
    return st;
  }
  *found = true;
  return txns_->Commit(t);
}

Status DatasetPartition::LoadBulk(const std::vector<adm::Value>& records) {
  for (const auto& record : records) {
    ASTERIX_RETURN_NOT_OK(def_.type->Validate(record));
    ASTERIX_ASSIGN_OR_RETURN(CompositeKey pk, PrimaryKeyOf(record));
    ASTERIX_RETURN_NOT_OK(ApplyInsert(pk, record, /*lsn=*/0, /*to_primary=*/true));
  }
  return Status::OK();
}

Status DatasetPartition::PointLookup(const CompositeKey& pk, bool* found,
                                     adm::Value* record) {
  *found = false;
  return MultiGet(
      /*txn=*/0, {pk}, column::Projection::All(),
      [&](size_t, adm::Value rec) {
        *found = true;
        *record = std::move(rec);
        return Status::OK();
      });
}

Status DatasetPartition::MultiGet(
    txn::TxnId txn, const std::vector<CompositeKey>& pks,
    const column::Projection& projection,
    const std::function<Status(size_t, adm::Value)>& cb) {
  if (txn != 0) {
    std::vector<uint64_t> resources;
    resources.reserve(pks.size());
    for (const CompositeKey& pk : pks) resources.push_back(LockResource(pk));
    ASTERIX_RETURN_NOT_OK(txns_->locks().AcquireAll(txn, resources,
                                                    txn::LockMode::kShared));
  }
  return primary_->MultiGet(pks, projection, cb);
}

Status DatasetPartition::ScanAll(
    const std::function<Status(const adm::Value&)>& cb) {
  return ProjectedScan({}, column::Projection::All(), cb, nullptr);
}

Status DatasetPartition::ProjectedScan(
    const ScanBounds& bounds, const column::Projection& projection,
    const std::function<Status(const adm::Value&)>& cb,
    column::ProjectedScanStats* stats, ScanKeyFilter* filter) {
  return primary_->ProjectedScan(
      bounds, projection,
      [&](const CompositeKey&, bool, const adm::Value& record) {
        return cb(record);
      },
      stats, filter);
}

Status DatasetPartition::BatchScan(const ScanBounds& bounds,
                                   const column::Projection& projection,
                                   const column::BatchCallback& cb,
                                   column::ProjectedScanStats* stats) {
  return primary_->BatchScan(bounds, projection, cb, stats);
}

Status DatasetPartition::SecondaryRangeScan(const std::string& index_name,
                                            const ScanBounds& bounds,
                                            const EntryCallback& cb) {
  for (auto& s : btrees_) {
    if (s.def.name == index_name) return s.tree->RangeScan(bounds, cb);
  }
  return Status::NotFound("no btree index " + index_name + " on " + def_.name);
}

Status DatasetPartition::CountIndexEntries(const std::string& index_name,
                                           const ScanBounds& bounds,
                                           uint64_t cap, uint64_t* count) {
  for (auto& s : btrees_) {
    if (s.def.name == index_name) {
      return s.tree->CountEntries(bounds, cap, count);
    }
  }
  return Status::NotFound("no btree index " + index_name + " on " + def_.name);
}

Status DatasetPartition::RTreeSearch(
    const std::string& index_name, const Mbr& query,
    const std::function<Status(const CompositeKey& pk)>& cb) {
  for (auto& s : rtrees_) {
    if (s.def.name == index_name) {
      return s.tree->Search(query, [&](const RTreeEntry& e) {
        return cb(e.key);
      });
    }
  }
  return Status::NotFound("no rtree index " + index_name + " on " + def_.name);
}

Status DatasetPartition::InvertedSearchToken(
    const std::string& index_name, const std::string& token,
    const std::function<Status(const CompositeKey& pk)>& cb) {
  for (auto& s : inverted_) {
    if (s.def.name == index_name) return s.index->SearchToken(token, cb);
  }
  return Status::NotFound("no inverted index " + index_name + " on " + def_.name);
}

const LsmInvertedIndex* DatasetPartition::inverted_index(
    const std::string& index_name) const {
  for (const auto& s : inverted_) {
    if (s.def.name == index_name) return s.index.get();
  }
  return nullptr;
}

Status DatasetPartition::FlushAll() {
  ASTERIX_RETURN_NOT_OK(primary_->Flush());
  for (auto& s : btrees_) ASTERIX_RETURN_NOT_OK(s.tree->Flush());
  for (auto& s : rtrees_) ASTERIX_RETURN_NOT_OK(s.tree->Flush());
  for (auto& s : inverted_) ASTERIX_RETURN_NOT_OK(s.index->Flush());
  return Status::OK();
}

uint64_t DatasetPartition::TotalDiskBytes() const {
  uint64_t total = primary_->total_disk_bytes();
  for (const auto& s : btrees_) total += s.tree->total_disk_bytes();
  for (const auto& s : rtrees_) total += s.tree->total_disk_bytes();
  for (const auto& s : inverted_) total += s.index->total_disk_bytes();
  return total;
}

Status DatasetPartition::ReplayWal() {
  std::vector<txn::LogRecord> records;
  ASTERIX_RETURN_NOT_OK(txns_->log().ReadAll(&records));
  if (records.empty()) return Status::OK();
  // Committed transactions only (no-steal: uncommitted ops were never
  // applied durably, so they are simply dropped).
  std::set<uint64_t> committed;
  for (const auto& r : records) {
    if (r.type == txn::LogType::kCommit) committed.insert(r.txn_id);
  }
  uint64_t primary_lsn = primary_->flushed_lsn();
  for (const auto& r : records) {
    if (r.dataset_id != def_.dataset_id || r.partition != partition_no_) continue;
    if (r.type != txn::LogType::kUpdate && r.type != txn::LogType::kDelete) {
      continue;
    }
    if (!committed.count(r.txn_id)) continue;
    BytesReader kr(r.key);
    CompositeKey pk;
    ASTERIX_RETURN_NOT_OK(DeserializeKey(&kr, &pk));
    ASTERIX_ASSIGN_OR_RETURN(adm::Value record, DeserializeRecord(r.payload));
    bool to_primary = r.lsn > primary_lsn;
    // Secondaries check their own flushed LSN inside Apply*.
    if (r.type == txn::LogType::kUpdate) {
      ASTERIX_RETURN_NOT_OK(ApplyInsert(pk, record, r.lsn, to_primary));
    } else {
      ASTERIX_RETURN_NOT_OK(ApplyDelete(pk, record, r.lsn, to_primary));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PartitionedDataset
// ---------------------------------------------------------------------------

PartitionedDataset::PartitionedDataset(BufferCache* cache,
                                       const std::string& base_dir,
                                       DatasetDef def, uint32_t num_partitions,
                                       txn::TxnManager* txns, LsmOptions options)
    : cache_(cache),
      def_(std::move(def)),
      version_cell_(vclock::VersionClock::Default().GetCell(
          def_.dataverse + "." + def_.name)) {
  for (uint32_t i = 0; i < num_partitions; ++i) {
    std::string dir = base_dir + "/" + def_.dataverse + "." + def_.name + "/p" +
                      std::to_string(i);
    partitions_.push_back(std::make_unique<DatasetPartition>(
        cache_, dir, def_, i, txns, options));
  }
}

Status PartitionedDataset::Open() {
  for (auto& p : partitions_) ASTERIX_RETURN_NOT_OK(p->Open());
  return Status::OK();
}

uint32_t PartitionedDataset::PartitionOf(const CompositeKey& pk) const {
  return static_cast<uint32_t>(HashKey(pk) % partitions_.size());
}

Status PartitionedDataset::Insert(const adm::Value& record) {
  adm::Value to_insert = record;
  if (def_.autogenerated_key && record.IsRecord() &&
      def_.primary_key_fields.size() == 1 &&
      ExtractFieldPath(record, def_.primary_key_fields[0]).IsUnknown()) {
    to_insert = WithGeneratedKey(record, def_.primary_key_fields[0]);
  }
  auto pk_r = partitions_[0]->PrimaryKeyOf(to_insert);
  if (!pk_r.ok()) return pk_r.status();
  Status st = partitions_[PartitionOf(pk_r.value())]->Insert(to_insert);
  if (st.ok()) version_cell_->fetch_add(1, std::memory_order_release);
  return st;
}

Status PartitionedDataset::DeleteByKey(const CompositeKey& pk, bool* found) {
  bool was_found = false;
  Status st = partitions_[PartitionOf(pk)]->DeleteByKey(pk, &was_found);
  if (st.ok() && was_found) {
    version_cell_->fetch_add(1, std::memory_order_release);
  }
  if (found != nullptr) *found = was_found;
  return st;
}

Status PartitionedDataset::PointLookup(const CompositeKey& pk, bool* found,
                                       adm::Value* record) {
  return partitions_[PartitionOf(pk)]->PointLookup(pk, found, record);
}

Status PartitionedDataset::LoadBulk(const std::vector<adm::Value>& records) {
  std::vector<std::vector<adm::Value>> buckets(partitions_.size());
  for (const auto& record : records) {
    adm::Value r = record;
    if (def_.autogenerated_key && record.IsRecord() &&
        def_.primary_key_fields.size() == 1 &&
        ExtractFieldPath(record, def_.primary_key_fields[0]).IsUnknown()) {
      r = WithGeneratedKey(record, def_.primary_key_fields[0]);
    }
    auto pk_r = partitions_[0]->PrimaryKeyOf(r);
    if (!pk_r.ok()) return pk_r.status();
    buckets[PartitionOf(pk_r.value())].push_back(std::move(r));
  }
  for (size_t i = 0; i < partitions_.size(); ++i) {
    ASTERIX_RETURN_NOT_OK(partitions_[i]->LoadBulk(buckets[i]));
  }
  if (!records.empty()) {
    version_cell_->fetch_add(1, std::memory_order_release);
  }
  return Status::OK();
}

Status PartitionedDataset::FlushAll() {
  for (auto& p : partitions_) ASTERIX_RETURN_NOT_OK(p->FlushAll());
  return Status::OK();
}

uint64_t PartitionedDataset::TotalPrimaryDiskBytes() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += p->PrimaryDiskBytes();
  return total;
}

uint64_t PartitionedDataset::ApproxRecordCount() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += p->ApproxRecordCount();
  return total;
}

}  // namespace storage
}  // namespace asterix
