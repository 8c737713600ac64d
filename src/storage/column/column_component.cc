#include "storage/column/column_component.h"

#include <algorithm>
#include <map>

#include "common/compress.h"
#include "common/env.h"
#include "common/metrics.h"

namespace asterix {
namespace storage {
namespace column {

namespace {

constexpr uint32_t kFormatVersion = 1;
constexpr uint8_t kCodecRaw = 0;
constexpr uint8_t kCodecLz = 1;
// 2-bit presence states, packed 4 per byte.
constexpr uint8_t kRowMissing = 0;
constexpr uint8_t kRowNull = 1;
constexpr uint8_t kRowPresent = 2;

uint8_t GetPresence(const std::vector<uint8_t>& bits, size_t row) {
  return (bits[row / 4] >> ((row % 4) * 2)) & 3u;
}

void SetPresence(std::vector<uint8_t>* bits, size_t row, uint8_t state) {
  (*bits)[row / 4] |= static_cast<uint8_t>(state << ((row % 4) * 2));
}

/// Tags whose per-page min/max can drive pruning (a total order the query
/// comparison agrees with — see SameCompareClass).
bool StatsEligible(adm::TypeTag tag) {
  return adm::IsNumericTag(tag) || tag == adm::TypeTag::kString ||
         adm::IsTemporalPointTag(tag);
}

/// Open-field tags eligible for promotion to a dedicated typed column:
/// concrete scalars only (records/lists stay inline in the catch-all).
bool PromotableTag(adm::TypeTag tag) {
  return tag > adm::TypeTag::kNull && tag < adm::TypeTag::kBag;
}

struct ColumnCounters {
  metrics::Counter* pages_read;
  metrics::Counter* bytes_read;
  metrics::Counter* bytes_skipped;
  metrics::Counter* pages_pruned;
  metrics::Counter* row_groups_pruned;
};

ColumnCounters& Counters() {
  static ColumnCounters c = [] {
    auto& reg = metrics::MetricsRegistry::Default();
    return ColumnCounters{
        reg.GetCounter("storage.column.pages_read"),
        reg.GetCounter("storage.column.bytes_read"),
        reg.GetCounter("storage.column.bytes_skipped"),
        reg.GetCounter("storage.column.pages_pruned_minmax"),
        reg.GetCounter("storage.column.row_groups_pruned")};
  }();
  return c;
}

/// Folds one read's accounting into the caller's stats (optional) and the
/// storage.column.* counters.
void Publish(const ProjectedScanStats& local, uint64_t groups_pruned,
             ProjectedScanStats* stats) {
  if (stats != nullptr) {
    stats->bytes_read += local.bytes_read;
    stats->bytes_skipped += local.bytes_skipped;
    stats->pages_read += local.pages_read;
    stats->pages_pruned += local.pages_pruned;
  }
  ColumnCounters& c = Counters();
  c.pages_read->Inc(local.pages_read);
  c.bytes_read->Inc(local.bytes_read);
  c.bytes_skipped->Inc(local.bytes_skipped);
  c.pages_pruned->Inc(local.pages_pruned);
  c.row_groups_pruned->Inc(groups_pruned);
}

metrics::Counter* CompressRawCounter() {
  static metrics::Counter* c =
      metrics::MetricsRegistry::Default().GetCounter("storage.compress.bytes_raw");
  return c;
}
metrics::Counter* CompressStoredCounter() {
  static metrics::Counter* c = metrics::MetricsRegistry::Default().GetCounter(
      "storage.compress.bytes_stored");
  return c;
}

/// Per-column decode/encode type: declared fields use their declared type
/// (bit-identical payloads and widening semantics vs the row format),
/// promoted open fields their inferred primitive tag.
std::vector<adm::DatatypePtr> ResolveColumnTypes(
    const std::vector<ColumnDesc>& cols, const adm::DatatypePtr& type) {
  std::vector<adm::DatatypePtr> out;
  out.reserve(cols.size());
  for (const auto& c : cols) {
    switch (c.kind) {
      case ColumnDesc::Kind::kTyped:
      case ColumnDesc::Kind::kVariant: {
        adm::DatatypePtr ft = adm::Datatype::Any();
        if (type && type->kind() == adm::Datatype::Kind::kRecord) {
          int idx = type->FieldIndex(c.name);
          if (idx >= 0) ft = type->fields()[idx].type;
        }
        out.push_back(std::move(ft));
        break;
      }
      case ColumnDesc::Kind::kPromoted:
        out.push_back(adm::Datatype::Primitive(c.tag));
        break;
      case ColumnDesc::Kind::kCatchAll:
        out.push_back(nullptr);
        break;
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ColumnComponentBuilder
// ---------------------------------------------------------------------------

ColumnComponentBuilder::ColumnComponentBuilder(std::string path,
                                               adm::DatatypePtr type,
                                               bool compress)
    : path_(std::move(path)), type_(std::move(type)), compress_(compress) {}

Status ColumnComponentBuilder::Add(const IndexEntry& entry) {
  Row row;
  row.key = entry.key;
  row.antimatter = entry.antimatter;
  if (!entry.antimatter) {
    BytesReader r(entry.payload);
    ASTERIX_RETURN_NOT_OK(adm::DeserializeTyped(&r, type_, &row.record));
    if (!row.record.IsRecord()) {
      return Status::InvalidArgument(
          "column storage format requires record values");
    }
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status ColumnComponentBuilder::InferSchema(std::vector<ColumnDesc>* cols) const {
  cols->clear();
  bool has_declared_record =
      type_ && type_->kind() == adm::Datatype::Kind::kRecord;
  if (has_declared_record) {
    for (const auto& ft : type_->fields()) {
      ColumnDesc c;
      c.name = ft.name;
      if (ft.type && ft.type->kind() == adm::Datatype::Kind::kPrimitive &&
          !ft.type->IsAny()) {
        c.kind = ColumnDesc::Kind::kTyped;
        c.tag = ft.type->tag();
      } else {
        c.kind = ColumnDesc::Kind::kVariant;
      }
      cols->push_back(std::move(c));
    }
  }
  bool open = !has_declared_record || type_->is_open();
  if (!open) return Status::OK();

  // Gather per-name statistics over the open fields of this component's
  // rows; a name is promoted when every concrete occurrence carries one
  // scalar tag, it never repeats within a record, and it is dense enough
  // (>= 1/16 of rows) to be worth a page directory entry.
  struct OpenStat {
    uint64_t count = 0;
    adm::TypeTag tag = adm::TypeTag::kMissing;
    bool eligible = true;
  };
  std::map<std::string, OpenStat> stats;
  uint64_t matter_rows = 0;
  for (const auto& row : rows_) {
    if (row.antimatter) continue;
    ++matter_rows;
    for (const auto& f : row.record.AsRecord().fields) {
      if (has_declared_record && type_->FieldIndex(f.first) >= 0) continue;
      OpenStat& s = stats[f.first];
      ++s.count;
      const adm::Value& v = f.second;
      if (v.IsMissing()) {
        s.eligible = false;  // explicit-MISSING open fields stay inline
      } else if (!v.IsNull()) {
        if (!PromotableTag(v.tag())) {
          s.eligible = false;
        } else if (s.tag == adm::TypeTag::kMissing) {
          s.tag = v.tag();
        } else if (s.tag != v.tag()) {
          s.eligible = false;  // mixed types stay in the catch-all
        }
      }
    }
    // A duplicated name within one record cannot be promoted (one slot per
    // row); detect by comparing against distinct names seen this row.
    const auto& fields = row.record.AsRecord().fields;
    for (size_t i = 0; i < fields.size(); ++i) {
      for (size_t j = i + 1; j < fields.size(); ++j) {
        if (fields[i].first == fields[j].first) {
          auto it = stats.find(fields[i].first);
          if (it != stats.end()) it->second.eligible = false;
        }
      }
    }
  }
  for (const auto& [name, s] : stats) {
    if (!s.eligible || s.tag == adm::TypeTag::kMissing) continue;
    if (s.count * 16 < matter_rows) continue;
    ColumnDesc c;
    c.name = name;
    c.kind = ColumnDesc::Kind::kPromoted;
    c.tag = s.tag;
    cols->push_back(std::move(c));
  }
  ColumnDesc catchall;
  catchall.kind = ColumnDesc::Kind::kCatchAll;
  cols->push_back(std::move(catchall));
  return Status::OK();
}

void ColumnComponentBuilder::AppendPage(const std::vector<uint8_t>& raw,
                                        ColumnDesc::Page* pg) {
  pg->offset = file_.size();
  BytesWriter w(&file_);
  if (compress_) {
    std::vector<uint8_t> packed = LzCompress(raw.data(), raw.size());
    if (packed.size() < raw.size()) {
      w.PutU8(kCodecLz);
      w.PutBytes(packed.data(), packed.size());
    } else {
      w.PutU8(kCodecRaw);
      w.PutBytes(raw.data(), raw.size());
    }
    CompressRawCounter()->Inc(raw.size());
    CompressStoredCounter()->Inc(file_.size() - pg->offset - 1);
  } else {
    w.PutU8(kCodecRaw);
    w.PutBytes(raw.data(), raw.size());
  }
  pg->stored_size = static_cast<uint32_t>(file_.size() - pg->offset);
}

Status ColumnComponentBuilder::Finish() {
  if (finished_) return Status::Internal("column builder already finished");
  finished_ = true;
  std::vector<ColumnDesc> cols;
  ASTERIX_RETURN_NOT_OK(InferSchema(&cols));
  std::vector<adm::DatatypePtr> col_types = ResolveColumnTypes(cols, type_);
  std::map<std::string, uint32_t> promoted_idx;
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].kind == ColumnDesc::Kind::kPromoted) {
      promoted_idx[cols[i].name] = static_cast<uint32_t>(i);
    }
  }
  bool has_declared_record =
      type_ && type_->kind() == adm::Datatype::Kind::kRecord;

  size_t num_groups = (rows_.size() + kRowsPerGroup - 1) / kRowsPerGroup;
  for (size_t g = 0; g < num_groups; ++g) {
    size_t row_start = g * kRowsPerGroup;
    size_t row_count = std::min<size_t>(kRowsPerGroup, rows_.size() - row_start);
    for (size_t ci = 0; ci < cols.size(); ++ci) {
      ColumnDesc& col = cols[ci];
      ColumnDesc::Page pg;
      pg.row_start = static_cast<uint32_t>(row_start);
      pg.row_count = static_cast<uint32_t>(row_count);
      std::vector<uint8_t> raw;
      BytesWriter w(&raw);
      if (col.kind == ColumnDesc::Kind::kCatchAll) {
        // Catch-all page: per row, the open fields in record order — inline
        // (name, tagged value) or a reference into a promoted column, so
        // full reconstruction restores the exact open-field order.
        for (size_t r = row_start; r < row_start + row_count; ++r) {
          const Row& row = rows_[r];
          if (row.antimatter) {
            w.PutVarint(0);
            continue;
          }
          std::vector<const std::pair<std::string, adm::Value>*> open;
          for (const auto& f : row.record.AsRecord().fields) {
            if (has_declared_record && type_->FieldIndex(f.first) >= 0) continue;
            open.push_back(&f);
          }
          w.PutVarint(open.size());
          for (const auto* f : open) {
            auto it = promoted_idx.find(f->first);
            if (it != promoted_idx.end()) {
              w.PutU8(1);
              w.PutVarint(it->second);
            } else {
              w.PutU8(0);
              w.PutString(f->first);
              adm::SerializeValue(f->second, &w);
            }
          }
        }
      } else {
        // Value page: packed 2-bit presence states, then the concrete
        // values back to back (schema-typed, so payloads match what the
        // row format would store for the same field).
        std::vector<uint8_t> presence((row_count * 2 + 7) / 8, 0);
        BytesWriter vals;
        bool stats_ok = (col.kind == ColumnDesc::Kind::kTyped ||
                         col.kind == ColumnDesc::Kind::kPromoted) &&
                        StatsEligible(col.tag);
        for (size_t r = row_start; r < row_start + row_count; ++r) {
          const Row& row = rows_[r];
          const adm::Value& v = row.antimatter
                                    ? adm::Value::Missing()
                                    : row.record.GetField(col.name);
          size_t local = r - row_start;
          if (v.IsMissing()) {
            SetPresence(&presence, local, kRowMissing);
          } else if (v.IsNull()) {
            SetPresence(&presence, local, kRowNull);
          } else {
            SetPresence(&presence, local, kRowPresent);
            ASTERIX_RETURN_NOT_OK(adm::SerializeTyped(v, col_types[ci], &vals));
            ++pg.present_count;
            if (stats_ok) {
              if (!pg.has_stats) {
                pg.has_stats = true;
                pg.min = v;
                pg.max = v;
              } else {
                if (v.Compare(pg.min) < 0) pg.min = v;
                if (v.Compare(pg.max) > 0) pg.max = v;
              }
            }
          }
        }
        w.PutBytes(presence.data(), presence.size());
        w.PutBytes(vals.data().data(), vals.size());
      }
      AppendPage(raw, &pg);
      col.pages.push_back(std::move(pg));
    }
  }

  // Key section: one antimatter byte + the serialized key per row, in key
  // order — the merge/point-lookup spine of the component.
  uint64_t keys_offset = file_.size();
  std::vector<uint64_t> key_hashes;
  key_hashes.reserve(rows_.size());
  {
    BytesWriter w(&file_);
    for (const Row& row : rows_) {
      w.PutU8(row.antimatter ? 1 : 0);
      SerializeKey(row.key, &w);
      key_hashes.push_back(HashKey(row.key));
    }
  }
  uint64_t keys_size = file_.size() - keys_offset;

  BytesWriter footer;
  footer.PutU32(kFormatVersion);
  footer.PutVarint(rows_.size());
  footer.PutU64(keys_offset);
  footer.PutVarint(keys_size);
  BloomFilter::Build(key_hashes).AppendTo(&footer);
  footer.PutVarint(cols.size());
  for (const auto& col : cols) {
    footer.PutString(col.name);
    footer.PutU8(static_cast<uint8_t>(col.kind));
    footer.PutU8(static_cast<uint8_t>(col.tag));
    footer.PutVarint(col.pages.size());
    for (const auto& pg : col.pages) {
      footer.PutU64(pg.offset);
      footer.PutVarint(pg.stored_size);
      footer.PutVarint(pg.row_start);
      footer.PutVarint(pg.row_count);
      footer.PutVarint(pg.present_count);
      footer.PutU8(pg.has_stats ? 1 : 0);
      if (pg.has_stats) {
        adm::SerializeValue(pg.min, &footer);
        adm::SerializeValue(pg.max, &footer);
      }
    }
  }
  {
    BytesWriter w(&file_);
    w.PutBytes(footer.data().data(), footer.size());
    w.PutU32(static_cast<uint32_t>(footer.size()));
    w.PutU32(kColumnMagic);
  }
  return env::WriteFileAtomic(path_, file_.data(), file_.size());
}

// ---------------------------------------------------------------------------
// ColumnComponentReader
// ---------------------------------------------------------------------------

Result<std::shared_ptr<ColumnComponentReader>> ColumnComponentReader::Open(
    BufferCache* cache, const std::string& path, adm::DatatypePtr type) {
  std::shared_ptr<ColumnComponentReader> r(new ColumnComponentReader());
  r->cache_ = cache;
  r->type_ = std::move(type);
  ASTERIX_ASSIGN_OR_RETURN(r->file_, cache->OpenFile(path));
  uint64_t file_size = cache->FileSizeBytes(r->file_);
  if (file_size < 8) return Status::Corruption("column component too small");
  std::vector<uint8_t> tail;
  ASTERIX_RETURN_NOT_OK(cache->ReadRange(r->file_, file_size - 8, 8, &tail));
  BytesReader tr(tail);
  uint32_t footer_size = 0, magic = 0;
  ASTERIX_RETURN_NOT_OK(tr.GetU32(&footer_size));
  ASTERIX_RETURN_NOT_OK(tr.GetU32(&magic));
  if (magic != kColumnMagic) {
    return Status::Corruption("bad column component magic");
  }
  if (footer_size + 8 > file_size) {
    return Status::Corruption("bad column component footer size");
  }
  std::vector<uint8_t> fbytes;
  ASTERIX_RETURN_NOT_OK(cache->ReadRange(r->file_, file_size - 8 - footer_size,
                                         footer_size, &fbytes));
  BytesReader fr(fbytes);
  uint32_t version = 0;
  ASTERIX_RETURN_NOT_OK(fr.GetU32(&version));
  if (version != kFormatVersion) {
    return Status::Corruption("unknown column component version");
  }
  uint64_t num_rows = 0, keys_offset = 0, keys_size = 0;
  ASTERIX_RETURN_NOT_OK(fr.GetVarint(&num_rows));
  ASTERIX_RETURN_NOT_OK(fr.GetU64(&keys_offset));
  ASTERIX_RETURN_NOT_OK(fr.GetVarint(&keys_size));
  ASTERIX_ASSIGN_OR_RETURN(r->bloom_, BloomFilter::FromBytes(&fr));
  uint64_t num_cols = 0;
  ASTERIX_RETURN_NOT_OK(fr.GetVarint(&num_cols));
  for (uint64_t i = 0; i < num_cols; ++i) {
    ColumnDesc col;
    ASTERIX_RETURN_NOT_OK(fr.GetString(&col.name));
    uint8_t kind = 0, tag = 0;
    ASTERIX_RETURN_NOT_OK(fr.GetU8(&kind));
    ASTERIX_RETURN_NOT_OK(fr.GetU8(&tag));
    col.kind = static_cast<ColumnDesc::Kind>(kind);
    col.tag = static_cast<adm::TypeTag>(tag);
    uint64_t num_pages = 0;
    ASTERIX_RETURN_NOT_OK(fr.GetVarint(&num_pages));
    for (uint64_t p = 0; p < num_pages; ++p) {
      ColumnDesc::Page pg;
      uint64_t v = 0;
      ASTERIX_RETURN_NOT_OK(fr.GetU64(&pg.offset));
      ASTERIX_RETURN_NOT_OK(fr.GetVarint(&v));
      pg.stored_size = static_cast<uint32_t>(v);
      ASTERIX_RETURN_NOT_OK(fr.GetVarint(&v));
      pg.row_start = static_cast<uint32_t>(v);
      ASTERIX_RETURN_NOT_OK(fr.GetVarint(&v));
      pg.row_count = static_cast<uint32_t>(v);
      ASTERIX_RETURN_NOT_OK(fr.GetVarint(&v));
      pg.present_count = static_cast<uint32_t>(v);
      uint8_t has_stats = 0;
      ASTERIX_RETURN_NOT_OK(fr.GetU8(&has_stats));
      pg.has_stats = has_stats != 0;
      if (pg.has_stats) {
        ASTERIX_RETURN_NOT_OK(adm::DeserializeValue(&fr, &pg.min));
        ASTERIX_RETURN_NOT_OK(adm::DeserializeValue(&fr, &pg.max));
      }
      r->data_bytes_ += pg.stored_size;
      col.pages.push_back(std::move(pg));
    }
    if (col.kind == ColumnDesc::Kind::kCatchAll) {
      r->catchall_idx_ = static_cast<int>(r->cols_.size());
    }
    r->cols_.push_back(std::move(col));
  }
  r->col_types_ = ResolveColumnTypes(r->cols_, r->type_);

  std::vector<uint8_t> kbytes;
  ASTERIX_RETURN_NOT_OK(
      cache->ReadRange(r->file_, keys_offset, keys_size, &kbytes));
  r->keys_bytes_ = keys_size;
  BytesReader kr(kbytes);
  r->keys_.reserve(num_rows);
  for (uint64_t i = 0; i < num_rows; ++i) {
    uint8_t anti = 0;
    ASTERIX_RETURN_NOT_OK(kr.GetU8(&anti));
    CompositeKey key;
    ASTERIX_RETURN_NOT_OK(DeserializeKey(&kr, &key));
    r->keys_.emplace_back(std::move(key), anti != 0);
  }
  return r;
}

ColumnComponentReader::~ColumnComponentReader() {
  if (cache_ != nullptr) cache_->CloseFile(file_);
}

Status ColumnComponentReader::FetchPage(const ColumnDesc::Page& pg,
                                        std::vector<uint8_t>* raw) const {
  std::vector<uint8_t> stored;
  ASTERIX_RETURN_NOT_OK(
      cache_->ReadRange(file_, pg.offset, pg.stored_size, &stored));
  if (stored.empty()) return Status::Corruption("empty column page");
  switch (stored[0]) {
    case kCodecRaw:
      raw->assign(stored.begin() + 1, stored.end());
      return Status::OK();
    case kCodecLz:
      return LzDecompress(stored.data() + 1, stored.size() - 1, raw);
    default:
      return Status::Corruption("unknown column page codec");
  }
}

Status ColumnComponentReader::DecodeGroup(size_t col_idx, size_t group,
                                          DecodedColumn* out) const {
  const ColumnDesc& col = cols_[col_idx];
  const ColumnDesc::Page& pg = col.pages[group];
  std::vector<uint8_t> raw;
  ASTERIX_RETURN_NOT_OK(FetchPage(pg, &raw));
  BytesReader r(raw);
  if (col.kind == ColumnDesc::Kind::kCatchAll) {
    out->catchall.resize(pg.row_count);
    for (uint32_t i = 0; i < pg.row_count; ++i) {
      uint64_t n = 0;
      ASTERIX_RETURN_NOT_OK(r.GetVarint(&n));
      auto& entries = out->catchall[i];
      entries.resize(n);
      for (uint64_t e = 0; e < n; ++e) {
        uint8_t kind = 0;
        ASTERIX_RETURN_NOT_OK(r.GetU8(&kind));
        if (kind == 1) {
          uint64_t ci = 0;
          ASTERIX_RETURN_NOT_OK(r.GetVarint(&ci));
          if (ci >= cols_.size()) {
            return Status::Corruption("catch-all column reference out of range");
          }
          entries[e].is_ref = true;
          entries[e].col = static_cast<uint32_t>(ci);
        } else {
          ASTERIX_RETURN_NOT_OK(r.GetString(&entries[e].name));
          ASTERIX_RETURN_NOT_OK(adm::DeserializeValue(&r, &entries[e].value));
        }
      }
    }
    return Status::OK();
  }
  size_t presence_bytes = (pg.row_count * 2 + 7) / 8;
  out->presence.resize(pg.row_count);
  std::vector<uint8_t> packed(presence_bytes);
  ASTERIX_RETURN_NOT_OK(r.GetBytes(packed.data(), presence_bytes));
  out->values.resize(pg.row_count);
  for (uint32_t i = 0; i < pg.row_count; ++i) {
    uint8_t state = GetPresence(packed, i);
    out->presence[i] = state;
    if (state == kRowPresent) {
      ASTERIX_RETURN_NOT_OK(
          adm::DeserializeTyped(&r, col_types_[col_idx], &out->values[i]));
    } else if (state == kRowNull) {
      out->values[i] = adm::Value::Null();
    }
  }
  return Status::OK();
}

Status ColumnComponentReader::ReadGroup(size_t group,
                                        const std::vector<char>& needed,
                                        std::vector<DecodedColumn>* cols_out,
                                        ProjectedScanStats* stats) const {
  cols_out->assign(cols_.size(), DecodedColumn{});
  for (size_t ci = 0; ci < cols_.size(); ++ci) {
    if (!needed[ci]) {
      stats->bytes_skipped += cols_[ci].pages[group].stored_size;
      continue;
    }
    ASTERIX_RETURN_NOT_OK(DecodeGroup(ci, group, &(*cols_out)[ci]));
    stats->pages_read += 1;
    stats->bytes_read += cols_[ci].pages[group].stored_size;
  }
  return Status::OK();
}

std::vector<char> ColumnComponentReader::NeededColumns(
    const Projection& proj) const {
  std::vector<char> needed(cols_.size(), proj.all_fields ? 1 : 0);
  if (proj.all_fields) return needed;
  for (const auto& f : proj.fields) {
    bool found = false;
    for (size_t ci = 0; ci < cols_.size(); ++ci) {
      if (cols_[ci].kind != ColumnDesc::Kind::kCatchAll &&
          cols_[ci].name == f) {
        needed[ci] = 1;
        found = true;
        break;
      }
    }
    if (!found && catchall_idx_ >= 0) needed[catchall_idx_] = 1;
  }
  return needed;
}

uint64_t ColumnComponentReader::GroupBytes(size_t group) const {
  uint64_t bytes = 0;
  for (const auto& col : cols_) bytes += col.pages[group].stored_size;
  return bytes;
}

adm::Value ColumnComponentReader::AssembleRow(
    size_t row, size_t group, const Projection& proj,
    const std::vector<char>& needed,
    const std::vector<DecodedColumn>& dec) const {
  size_t local = row - group * kRowsPerGroup;
  std::vector<std::pair<std::string, adm::Value>> fields;
  if (proj.all_fields) {
    // Full reconstruction: declared fields in type order, then the open
    // fields in their original record order via the catch-all — exactly
    // the normalization DeserializeTyped applies to the row format.
    for (size_t ci = 0; ci < cols_.size(); ++ci) {
      const ColumnDesc& col = cols_[ci];
      if (col.kind != ColumnDesc::Kind::kTyped &&
          col.kind != ColumnDesc::Kind::kVariant) {
        continue;
      }
      if (dec[ci].presence[local] != kRowMissing) {
        fields.emplace_back(col.name, dec[ci].values[local]);
      }
    }
    if (catchall_idx_ >= 0) {
      for (const CatchEntry& e : dec[catchall_idx_].catchall[local]) {
        if (e.is_ref) {
          fields.emplace_back(cols_[e.col].name, dec[e.col].values[local]);
        } else {
          fields.emplace_back(e.name, e.value);
        }
      }
    }
  } else {
    for (size_t ci = 0; ci < cols_.size(); ++ci) {
      const ColumnDesc& col = cols_[ci];
      if (!needed[ci] || col.kind == ColumnDesc::Kind::kCatchAll) continue;
      if (!proj.Wants(col.name)) continue;
      if (dec[ci].presence[local] != kRowMissing) {
        fields.emplace_back(col.name, dec[ci].values[local]);
      }
    }
    if (catchall_idx_ >= 0 && needed[catchall_idx_]) {
      for (const CatchEntry& e : dec[catchall_idx_].catchall[local]) {
        // Promoted references resolve to their own columns above; only
        // inline residual fields can satisfy an otherwise-unknown name.
        if (!e.is_ref && proj.Wants(e.name)) {
          fields.emplace_back(e.name, e.value);
        }
      }
    }
  }
  return adm::Value::Record(std::move(fields));
}

void ColumnComponentReader::BoundRows(const ScanBounds& bounds, size_t* r0,
                                      size_t* r1) const {
  *r0 = 0;
  *r1 = keys_.size();
  if (bounds.lo.has_value()) {
    *r0 = std::partition_point(keys_.begin(), keys_.end(),
                               [&](const auto& kv) {
                                 int c = BoundCompare(kv.first, *bounds.lo);
                                 return c < 0 ||
                                        (c == 0 && !bounds.lo_inclusive);
                               }) -
          keys_.begin();
  }
  if (bounds.hi.has_value()) {
    *r1 = std::partition_point(keys_.begin(), keys_.end(),
                               [&](const auto& kv) {
                                 int c = BoundCompare(kv.first, *bounds.hi);
                                 return c < 0 ||
                                        (c == 0 && bounds.hi_inclusive);
                               }) -
          keys_.begin();
  }
}

bool ColumnComponentReader::GroupPrunable(
    size_t g, const Projection& proj, size_t lo, size_t hi,
    const std::vector<KeyInterval>* exclusions) const {
  bool prune = false;
  for (const FieldRange& range : proj.ranges) {
    const ColumnDesc* col = nullptr;
    bool field_known = false;
    for (const auto& c : cols_) {
      if (c.kind == ColumnDesc::Kind::kCatchAll) continue;
      if (c.name == range.field) {
        field_known = true;
        if (c.kind == ColumnDesc::Kind::kTyped ||
            c.kind == ColumnDesc::Kind::kPromoted) {
          col = &c;
        }
        break;
      }
    }
    if (col != nullptr) {
      const ColumnDesc::Page& pg = col->pages[g];
      // No concrete value anywhere in the group: a range predicate can
      // never be TRUE on null/missing, so the whole group is dead.
      if (pg.present_count == 0) {
        prune = true;
        break;
      }
      if (!pg.has_stats) continue;
      // Pruning by the ADM total order is only sound when the bound
      // constants and the column live in one comparison class.
      bool comparable = (!range.lo.has_value() ||
                         SameCompareClass(range.lo->tag(), col->tag)) &&
                        (!range.hi.has_value() ||
                         SameCompareClass(range.hi->tag(), col->tag));
      if (comparable && !RangeMayMatch(range, pg.min, pg.max)) {
        prune = true;
        break;
      }
    } else if (!field_known && catchall_idx_ < 0) {
      // Closed schema and the field does not exist: nothing matches.
      prune = true;
      break;
    }
  }
  if (!prune) return false;
  // Multi-component safety: skipping this group must not let another
  // component's stale version of one of its keys win the merge — only
  // prune when the group's key span is disjoint from every other
  // component's interval.
  if (exclusions != nullptr && lo < hi) {
    const CompositeKey& glo = keys_[lo].first;
    const CompositeKey& ghi = keys_[hi - 1].first;
    for (const KeyInterval& e : *exclusions) {
      if (CompareKeys(glo, e.hi) <= 0 && CompareKeys(e.lo, ghi) <= 0) {
        return false;
      }
    }
  }
  return true;
}

Status ColumnComponentReader::ScanImpl(const ScanBounds& bounds,
                                       const Projection& proj,
                                       bool allow_pruning,
                                       const std::vector<KeyInterval>* exclusions,
                                       const ProjectedEntryCallback& cb,
                                       ProjectedScanStats* stats) const {
  ProjectedScanStats local;
  uint64_t groups_pruned = 0;
  size_t r0 = 0, r1 = keys_.size();
  BoundRows(bounds, &r0, &r1);
  // Key-spine bytes are charged per row actually walked, so bytes_read
  // reflects what the scan decodes post-pruning, not what Open() mapped.
  const uint64_t avg_key_bytes = AvgKeyBytes();
  const std::vector<char> needed = NeededColumns(proj);
  const uint64_t needed_pages = std::count(needed.begin(), needed.end(), 1);

  Status cb_status;
  std::vector<DecodedColumn> dec;
  for (size_t g = r0 / kRowsPerGroup; g * kRowsPerGroup < r1; ++g) {
    size_t lo = std::max(r0, g * kRowsPerGroup);
    size_t hi = std::min<size_t>(r1, (g + 1) * kRowsPerGroup);
    // No row of the group is in bounds (a point bound between two keys):
    // none of its pages is needed.
    if (lo >= hi) continue;
    if (allow_pruning && GroupPrunable(g, proj, lo, hi, exclusions)) {
      ++groups_pruned;
      local.pages_pruned += needed_pages;
      local.bytes_skipped += GroupBytes(g) + avg_key_bytes * (hi - lo);
      continue;
    }
    ASTERIX_RETURN_NOT_OK(ReadGroup(g, needed, &dec, &local));
    local.bytes_read += avg_key_bytes * (hi - lo);
    for (size_t r = lo; r < hi; ++r) {
      const auto& [key, antimatter] = keys_[r];
      if (antimatter) {
        cb_status = cb(key, true, adm::Value::Missing());
      } else {
        cb_status = cb(key, false, AssembleRow(r, g, proj, needed, dec));
      }
      if (!cb_status.ok()) break;
    }
    if (!cb_status.ok()) break;
  }
  Publish(local, groups_pruned, stats);
  return cb_status;
}

Status ColumnComponentReader::ProjectedScan(const ScanBounds& bounds,
                                            const Projection& proj,
                                            bool allow_pruning,
                                            const ProjectedEntryCallback& cb,
                                            ProjectedScanStats* stats) const {
  return ScanImpl(bounds, proj, allow_pruning, nullptr, cb, stats);
}

Status ColumnComponentReader::ProjectedScanPruned(
    const ScanBounds& bounds, const Projection& proj,
    const std::vector<KeyInterval>& exclusions,
    const ProjectedEntryCallback& cb, ProjectedScanStats* stats) const {
  return ScanImpl(bounds, proj, /*allow_pruning=*/true, &exclusions, cb,
                  stats);
}

bool ColumnComponentReader::KeyRange(CompositeKey* lo, CompositeKey* hi) const {
  if (keys_.empty()) return false;
  *lo = keys_.front().first;
  *hi = keys_.back().first;
  return true;
}

Status ColumnComponentReader::BatchScan(const ScanBounds& bounds,
                                        const Projection& proj,
                                        const std::vector<KeyInterval>* exclusions,
                                        const BatchCallback& cb,
                                        ProjectedScanStats* stats) const {
  if (proj.all_fields) {
    return Status::NotImplemented("batch scan requires an explicit projection");
  }
  // Every projected field must resolve to a dedicated column (or be
  // provably absent under a closed schema): a field that may hide in the
  // catch-all cannot be decoded as one typed lane.
  std::vector<int> field_col(proj.fields.size(), -1);
  for (size_t fi = 0; fi < proj.fields.size(); ++fi) {
    for (size_t ci = 0; ci < cols_.size(); ++ci) {
      if (cols_[ci].kind != ColumnDesc::Kind::kCatchAll &&
          cols_[ci].name == proj.fields[fi]) {
        field_col[fi] = static_cast<int>(ci);
        break;
      }
    }
    if (field_col[fi] < 0 && catchall_idx_ >= 0) {
      return Status::NotImplemented("projected field may live in catch-all");
    }
  }

  ProjectedScanStats local;
  uint64_t groups_pruned = 0;
  size_t r0 = 0, r1 = keys_.size();
  BoundRows(bounds, &r0, &r1);
  const uint64_t avg_key_bytes = AvgKeyBytes();

  std::vector<char> needed(cols_.size(), 0);
  for (int ci : field_col) {
    if (ci >= 0) needed[static_cast<size_t>(ci)] = 1;
  }
  const uint64_t needed_pages = std::count(needed.begin(), needed.end(), 1);

  Status cb_status;
  std::vector<DecodedColumn> dec;
  for (size_t g = r0 / kRowsPerGroup; g * kRowsPerGroup < r1; ++g) {
    size_t lo = std::max(r0, g * kRowsPerGroup);
    size_t hi = std::min<size_t>(r1, (g + 1) * kRowsPerGroup);
    if (lo >= hi) continue;  // no row of the group in bounds
    if (GroupPrunable(g, proj, lo, hi, exclusions)) {
      ++groups_pruned;
      local.pages_pruned += needed_pages;
      local.bytes_skipped += GroupBytes(g) + avg_key_bytes * (hi - lo);
      continue;
    }
    ASTERIX_RETURN_NOT_OK(ReadGroup(g, needed, &dec, &local));
    local.bytes_read += avg_key_bytes * (hi - lo);

    size_t n = hi - lo;
    auto batch = std::make_shared<ColumnBatch>();
    batch->num_rows = n;
    // Lanes in schema (cols_) order so materialized records carry fields in
    // exactly the order AssembleRow would emit them.
    for (size_t ci = 0; ci < cols_.size(); ++ci) {
      if (!needed[ci]) continue;
      size_t local_lo = lo - g * kRowsPerGroup;
      std::vector<uint8_t> presence(dec[ci].presence.begin() + local_lo,
                                    dec[ci].presence.begin() + local_lo + n);
      std::vector<adm::Value> values(dec[ci].values.begin() + local_lo,
                                     dec[ci].values.begin() + local_lo + n);
      batch->lanes.push_back(
          MakeLane(cols_[ci].name, std::move(presence), &values));
    }
    // Closed-schema fields with no column: an all-MISSING lane, so kernels
    // still see the field.
    for (size_t fi = 0; fi < proj.fields.size(); ++fi) {
      if (field_col[fi] >= 0) continue;
      std::vector<uint8_t> presence(n, 0);
      std::vector<adm::Value> values(n);
      batch->lanes.push_back(
          MakeLane(proj.fields[fi], std::move(presence), &values));
    }
    batch->sel.rows.reserve(n);
    for (size_t r = lo; r < hi; ++r) {
      if (!keys_[r].second) {
        batch->sel.rows.push_back(static_cast<uint32_t>(r - lo));
      }
    }
    if (!batch->sel.empty()) {
      cb_status = cb(batch);
      if (!cb_status.ok()) break;
    }
  }

  Publish(local, groups_pruned, stats);
  return cb_status;
}

Status ColumnComponentReader::RangeScan(const ScanBounds& bounds,
                                        const EntryCallback& cb) const {
  Projection all = Projection::All();
  return ProjectedScan(
      bounds, all, /*allow_pruning=*/false,
      [&](const CompositeKey& key, bool antimatter, const adm::Value& rec) {
        IndexEntry e;
        e.key = key;
        e.antimatter = antimatter;
        if (!antimatter) {
          BytesWriter w(&e.payload);
          ASTERIX_RETURN_NOT_OK(adm::SerializeTyped(rec, type_, &w));
        }
        return cb(e);
      },
      nullptr);
}

Status ColumnComponentReader::MultiGet(const std::vector<CompositeKey>& keys,
                                       const Projection& proj,
                                       const MultiGetCallback& cb) const {
  ProjectedScanStats local;
  const uint64_t avg_key_bytes = AvgKeyBytes();
  const std::vector<char> needed = NeededColumns(proj);
  std::vector<DecodedColumn> dec;
  size_t decoded = NumGroups();  // the row group `dec` holds; none yet
  Status cb_status;
  // Keys ascend, so each spine search starts where the previous one ended
  // and the rows of one row group come together: each touched group is
  // decoded once, whatever the number of keys it serves.
  auto from = keys_.begin();
  for (size_t i = 0; i < keys.size() && cb_status.ok(); ++i) {
    from = std::partition_point(from, keys_.end(), [&](const auto& kv) {
      return CompareKeys(kv.first, keys[i]) < 0;
    });
    if (from == keys_.end()) break;
    if (CompareKeys(from->first, keys[i]) != 0) continue;
    local.bytes_read += avg_key_bytes;
    if (from->second) {
      cb_status = cb(i, true, adm::Value::Missing());
      continue;
    }
    size_t row = static_cast<size_t>(from - keys_.begin());
    size_t group = row / kRowsPerGroup;
    if (group != decoded) {
      ASTERIX_RETURN_NOT_OK(ReadGroup(group, needed, &dec, &local));
      decoded = group;
    }
    cb_status = cb(i, false, AssembleRow(row, group, proj, needed, dec));
  }
  Publish(local, /*groups_pruned=*/0, /*stats=*/nullptr);
  return cb_status;
}

Status ColumnComponentReader::PointLookup(const CompositeKey& key, bool* found,
                                          IndexEntry* out) {
  *found = false;
  return MultiGet(
      {key}, Projection::All(),
      [&](size_t, bool antimatter, const adm::Value& rec) {
        *found = true;
        out->key = key;
        out->antimatter = antimatter;
        out->payload.clear();
        if (antimatter) return Status::OK();
        BytesWriter w(&out->payload);
        return adm::SerializeTyped(rec, type_, &w);
      });
}

}  // namespace column
}  // namespace storage
}  // namespace asterix
