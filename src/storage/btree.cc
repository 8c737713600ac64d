#include "storage/btree.h"

#include <cstring>

#include "common/env.h"

namespace asterix {
namespace storage {

namespace {

constexpr uint8_t kLeafPage = 1;
constexpr uint8_t kInteriorPage = 2;
constexpr uint32_t kNoPage = 0xffffffffu;
constexpr uint32_t kFooterMagic = 0x41425431;  // "ABT1"
constexpr size_t kLeafHeaderSize = 1 + 4 + 2;  // kind + next + count
// Each leaf entry also costs a 2-byte slot in the leaf's offset table, which
// enables intra-leaf binary search on probes.
constexpr size_t kInteriorHeaderSize = 1 + 2;
// Entries whose encoded size exceeds this spill their payload to the
// overflow region so a leaf page always fits several entries.
constexpr size_t kOverflowThreshold = kPageSize / 4;

constexpr uint8_t kFlagAntimatter = 1;
constexpr uint8_t kFlagOverflow = 2;

void EncodeEntry(const IndexEntry& e, bool overflow, uint64_t overflow_off,
                 BytesWriter* w) {
  SerializeKey(e.key, w);
  uint8_t flags = 0;
  if (e.antimatter) flags |= kFlagAntimatter;
  if (overflow) flags |= kFlagOverflow;
  w->PutU8(flags);
  if (overflow) {
    w->PutU64(overflow_off);
    w->PutU32(static_cast<uint32_t>(e.payload.size()));
  } else {
    w->PutVarint(e.payload.size());
    w->PutBytes(e.payload.data(), e.payload.size());
  }
}

}  // namespace

int BoundCompare(const CompositeKey& key, const CompositeKey& bound) {
  size_t n = std::min(key.size(), bound.size());
  for (size_t i = 0; i < n; ++i) {
    int c = key[i].Compare(bound[i]);
    if (c != 0) return c;
  }
  // Key shorter than the bound: it is a strict prefix, hence less. Key at
  // least as long: its prefix meets the bound, treat as equal.
  return key.size() < bound.size() ? -1 : 0;
}

int BoundsPosition(const CompositeKey& key, const ScanBounds& bounds) {
  if (bounds.lo.has_value()) {
    int c = BoundCompare(key, *bounds.lo);
    if (c < 0 || (c == 0 && !bounds.lo_inclusive)) return -1;
  }
  if (bounds.hi.has_value()) {
    int c = BoundCompare(key, *bounds.hi);
    if (c > 0 || (c == 0 && !bounds.hi_inclusive)) return 1;
  }
  return 0;
}

BTreeBuilder::BTreeBuilder(std::string path) : path_(std::move(path)) {}

Status BTreeBuilder::FlushLeaf() {
  if (leaf_count_ == 0) return Status::OK();
  uint32_t page_no = static_cast<uint32_t>(file_bytes_.size() / kPageSize);
  std::vector<uint8_t> page(kPageSize, 0);
  page[0] = kLeafPage;
  uint32_t next = kNoPage;  // patched when the next leaf flushes
  std::memcpy(page.data() + 1, &next, 4);
  std::memcpy(page.data() + 5, &leaf_count_, 2);
  // Offset table, then the entry bytes.
  size_t table_bytes = 2 * static_cast<size_t>(leaf_count_);
  std::memcpy(page.data() + kLeafHeaderSize, leaf_offsets_.data(), table_bytes);
  std::memcpy(page.data() + kLeafHeaderSize + table_bytes, leaf_buf_.data(),
              leaf_buf_.size());
  // Patch the previous leaf's next pointer (leaves are written contiguously
  // interleaved with nothing until interior build, so the previous level_
  // entry is the previous leaf).
  if (!level_.empty()) {
    uint32_t prev_page = level_.back().second;
    std::memcpy(file_bytes_.data() + static_cast<size_t>(prev_page) * kPageSize + 1,
                &page_no, 4);
  }
  file_bytes_.insert(file_bytes_.end(), page.begin(), page.end());
  level_.emplace_back(first_key_of_leaf_, page_no);
  leaf_buf_.clear();
  leaf_offsets_.clear();
  leaf_count_ = 0;
  return Status::OK();
}

Status BTreeBuilder::Add(const IndexEntry& entry) {
  if (finished_) return Status::Internal("builder already finished");
  if (num_entries_ > 0 && CompareKeys(entry.key, last_key_) <= 0) {
    return Status::InvalidArgument("B+-tree bulk load requires strictly "
                                   "ascending unique keys");
  }
  BytesWriter w;
  bool overflow = entry.payload.size() > kOverflowThreshold;
  uint64_t ooff = overflow_.size();
  if (overflow) {
    overflow_.insert(overflow_.end(), entry.payload.begin(),
                     entry.payload.end());
  }
  EncodeEntry(entry, overflow, ooff, &w);
  if (w.size() + kLeafHeaderSize + 2 > kPageSize) {
    return Status::InvalidArgument("index entry too large for a page");
  }
  if (kLeafHeaderSize + 2 * (leaf_count_ + 1u) + leaf_buf_.size() + w.size() >
      kPageSize) {
    ASTERIX_RETURN_NOT_OK(FlushLeaf());
  }
  if (leaf_count_ == 0) first_key_of_leaf_ = entry.key;
  leaf_offsets_.push_back(static_cast<uint16_t>(leaf_buf_.size()));
  leaf_buf_.insert(leaf_buf_.end(), w.data().begin(), w.data().end());
  ++leaf_count_;
  key_hashes_.push_back(HashKey(entry.key));
  if (num_entries_ == 0) min_key_ = entry.key;
  max_key_ = entry.key;
  last_key_ = entry.key;
  ++num_entries_;
  return Status::OK();
}

Status BTreeBuilder::Finish() {
  if (finished_) return Status::Internal("builder already finished");
  finished_ = true;
  ASTERIX_RETURN_NOT_OK(FlushLeaf());
  if (level_.empty()) {
    // Empty index: synthesize an empty leaf so readers have a root.
    std::vector<uint8_t> page(kPageSize, 0);
    page[0] = kLeafPage;
    uint32_t next = kNoPage;
    std::memcpy(page.data() + 1, &next, 4);
    file_bytes_.insert(file_bytes_.end(), page.begin(), page.end());
    level_.emplace_back(CompositeKey{}, 0);
  }
  // Build interior levels bottom-up until one root remains.
  while (level_.size() > 1) {
    std::vector<std::pair<CompositeKey, uint32_t>> next_level;
    size_t i = 0;
    while (i < level_.size()) {
      // Pack children greedily into one interior page.
      std::vector<uint32_t> children{level_[i].second};
      CompositeKey group_first = level_[i].first;
      BytesWriter seps;
      std::vector<uint16_t> sep_offsets;
      size_t j = i + 1;
      while (j < level_.size()) {
        BytesWriter trial;
        SerializeKey(level_[j].first, &trial);
        size_t projected = kInteriorHeaderSize + 4 * (children.size() + 1) +
                           2 * (sep_offsets.size() + 1) + seps.size() +
                           trial.size();
        if (projected > kPageSize || children.size() >= 4096) break;
        sep_offsets.push_back(static_cast<uint16_t>(seps.size()));
        seps.PutBytes(trial.data().data(), trial.size());
        children.push_back(level_[j].second);
        ++j;
      }
      uint32_t page_no = static_cast<uint32_t>(file_bytes_.size() / kPageSize);
      std::vector<uint8_t> page(kPageSize, 0);
      page[0] = kInteriorPage;
      uint16_t count = static_cast<uint16_t>(children.size());
      std::memcpy(page.data() + 1, &count, 2);
      size_t off = kInteriorHeaderSize;
      std::memcpy(page.data() + off, children.data(), 4 * children.size());
      off += 4 * children.size();
      // Separator offset table enables binary search during descent.
      std::memcpy(page.data() + off, sep_offsets.data(),
                  2 * sep_offsets.size());
      off += 2 * sep_offsets.size();
      std::memcpy(page.data() + off, seps.data().data(), seps.size());
      file_bytes_.insert(file_bytes_.end(), page.begin(), page.end());
      next_level.emplace_back(std::move(group_first), page_no);
      i = j;
    }
    level_ = std::move(next_level);
  }

  uint32_t root = level_[0].second;
  uint32_t num_pages = static_cast<uint32_t>(file_bytes_.size() / kPageSize);
  uint64_t overflow_offset = file_bytes_.size();
  file_bytes_.insert(file_bytes_.end(), overflow_.begin(), overflow_.end());

  BytesWriter footer;
  footer.PutU32(kFooterMagic);
  footer.PutU32(root);
  footer.PutU32(num_pages);
  footer.PutU64(num_entries_);
  footer.PutU64(overflow_offset);
  SerializeKey(min_key_, &footer);
  SerializeKey(max_key_, &footer);
  BloomFilter::Build(key_hashes_).AppendTo(&footer);
  uint32_t crc = Crc32(footer.data().data(), footer.size());
  footer.PutU32(crc);

  uint32_t flen = static_cast<uint32_t>(footer.size());
  file_bytes_.insert(file_bytes_.end(), footer.data().begin(),
                     footer.data().end());
  BytesWriter tail;
  tail.PutU32(flen);
  tail.PutU32(kFooterMagic);
  file_bytes_.insert(file_bytes_.end(), tail.data().begin(), tail.data().end());

  return env::WriteFileAtomic(path_, file_bytes_.data(), file_bytes_.size());
}

Result<std::shared_ptr<BTreeReader>> BTreeReader::Open(BufferCache* cache,
                                                       const std::string& path) {
  auto file_r = cache->OpenFile(path);
  if (!file_r.ok()) return file_r.status();
  FileId file = file_r.value();
  uint64_t size = cache->FileSizeBytes(file);
  if (size < 8) return Status::Corruption("btree file too small: " + path);

  std::vector<uint8_t> tail;
  ASTERIX_RETURN_NOT_OK(cache->ReadRange(file, size - 8, 8, &tail));
  BytesReader tr(tail);
  uint32_t flen, magic;
  ASTERIX_RETURN_NOT_OK(tr.GetU32(&flen));
  ASTERIX_RETURN_NOT_OK(tr.GetU32(&magic));
  if (magic != kFooterMagic || flen + 8 > size) {
    return Status::Corruption("bad btree footer: " + path);
  }
  std::vector<uint8_t> fbytes;
  ASTERIX_RETURN_NOT_OK(cache->ReadRange(file, size - 8 - flen, flen, &fbytes));
  uint32_t stored_crc = 0;
  if (flen >= 4) std::memcpy(&stored_crc, fbytes.data() + flen - 4, 4);
  if (flen < 4 || Crc32(fbytes.data(), flen - 4) != stored_crc) {
    return Status::Corruption("btree footer checksum mismatch: " + path);
  }
  BytesReader fr(fbytes.data(), flen - 4);
  auto reader = std::shared_ptr<BTreeReader>(new BTreeReader());
  reader->cache_ = cache;
  reader->file_ = file;
  reader->file_size_ = size;
  uint32_t fmagic;
  ASTERIX_RETURN_NOT_OK(fr.GetU32(&fmagic));
  ASTERIX_RETURN_NOT_OK(fr.GetU32(&reader->root_page_));
  ASTERIX_RETURN_NOT_OK(fr.GetU32(&reader->num_pages_));
  ASTERIX_RETURN_NOT_OK(fr.GetU64(&reader->num_entries_));
  ASTERIX_RETURN_NOT_OK(fr.GetU64(&reader->overflow_offset_));
  ASTERIX_RETURN_NOT_OK(DeserializeKey(&fr, &reader->min_key_));
  ASTERIX_RETURN_NOT_OK(DeserializeKey(&fr, &reader->max_key_));
  auto bloom_r = BloomFilter::FromBytes(&fr);
  if (!bloom_r.ok()) return bloom_r.status();
  reader->bloom_ = bloom_r.take();
  return reader;
}

BTreeReader::~BTreeReader() {
  if (cache_) cache_->CloseFile(file_);
}

Status BTreeReader::LoadEntry(BytesReader* r, IndexEntry* out) const {
  ASTERIX_RETURN_NOT_OK(DeserializeKey(r, &out->key));
  uint8_t flags;
  ASTERIX_RETURN_NOT_OK(r->GetU8(&flags));
  out->antimatter = (flags & kFlagAntimatter) != 0;
  if (flags & kFlagOverflow) {
    uint64_t off;
    uint32_t len;
    ASTERIX_RETURN_NOT_OK(r->GetU64(&off));
    ASTERIX_RETURN_NOT_OK(r->GetU32(&len));
    return cache_->ReadRange(file_, overflow_offset_ + off, len, &out->payload);
  }
  uint64_t len;
  ASTERIX_RETURN_NOT_OK(r->GetVarint(&len));
  out->payload.resize(len);
  if (len > 0) {
    ASTERIX_RETURN_NOT_OK(r->GetBytes(out->payload.data(), len));
  }
  return Status::OK();
}

Result<uint32_t> BTreeReader::DescendToLeaf(const ScanBounds& bounds) const {
  uint32_t page_no = root_page_;
  for (int depth = 0; depth < 64; ++depth) {
    auto page_r = cache_->GetPage(file_, page_no);
    if (!page_r.ok()) return page_r.status();
    const PageData& page = *page_r.value();
    if (page.empty()) return Status::Corruption("empty page");
    if (page[0] == kLeafPage) return page_no;
    if (page[0] != kInteriorPage) return Status::Corruption("bad page kind");
    uint16_t count;
    std::memcpy(&count, page.data() + 1, 2);
    std::vector<uint32_t> children(count);
    std::memcpy(children.data(), page.data() + kInteriorHeaderSize, 4 * count);
    if (!bounds.lo.has_value() || count <= 1) {
      page_no = children[0];
      continue;
    }
    // Binary search the separators (count-1 of them) for the leftmost child
    // that can contain keys >= lo: child j holds keys < sep[j], so we want
    // the first j whose sep[j] >= lo (in bound-prefix order).
    const uint8_t* table = page.data() + kInteriorHeaderSize +
                           4 * static_cast<size_t>(count);
    const uint8_t* seps =
        table + 2 * (static_cast<size_t>(count) - 1);
    size_t seps_len = page.size() - static_cast<size_t>(seps - page.data());
    auto sep_at = [&](size_t j, CompositeKey* out) {
      uint16_t off;
      std::memcpy(&off, table + 2 * j, 2);
      BytesReader sr(seps + off, seps_len - off);
      return DeserializeKey(&sr, out);
    };
    size_t lo_i = 0, hi_i = static_cast<size_t>(count) - 1;
    while (lo_i < hi_i) {
      size_t mid = (lo_i + hi_i) / 2;
      CompositeKey sep;
      ASTERIX_RETURN_NOT_OK(sep_at(mid, &sep));
      if (BoundCompare(sep, *bounds.lo) < 0) {
        lo_i = mid + 1;
      } else {
        hi_i = mid;
      }
    }
    page_no = children[lo_i];
  }
  return Status::Corruption("btree too deep (cycle?)");
}

Status BTreeReader::RangeScan(const ScanBounds& bounds,
                              const EntryCallback& cb) const {
  auto leaf_r = DescendToLeaf(bounds);
  if (!leaf_r.ok()) return leaf_r.status();
  uint32_t page_no = leaf_r.value();
  bool first_leaf = true;
  while (page_no != kNoPage) {
    auto page_r = cache_->GetPage(file_, page_no);
    if (!page_r.ok()) return page_r.status();
    const PageData& page = *page_r.value();
    if (page.empty() || page[0] != kLeafPage) {
      return Status::Corruption("expected leaf page");
    }
    uint32_t next;
    uint16_t count;
    std::memcpy(&next, page.data() + 1, 4);
    std::memcpy(&count, page.data() + 5, 2);
    const uint8_t* table = page.data() + kLeafHeaderSize;
    const uint8_t* entries = table + 2 * static_cast<size_t>(count);
    size_t entries_len = page.size() - kLeafHeaderSize - 2 * static_cast<size_t>(count);
    auto entry_at = [&](uint16_t i, IndexEntry* out) {
      uint16_t off;
      std::memcpy(&off, table + 2 * static_cast<size_t>(i), 2);
      BytesReader er(entries + off, entries_len - off);
      return LoadEntry(&er, out);
    };
    uint16_t start = 0;
    if (first_leaf && bounds.lo.has_value() && count > 0) {
      // Binary search the first entry meeting the lower bound
      // (BoundCompare is monotone along the leaf's key order).
      uint16_t lo_i = 0, hi_i = count;
      while (lo_i < hi_i) {
        uint16_t mid = static_cast<uint16_t>((lo_i + hi_i) / 2);
        IndexEntry probe;
        ASTERIX_RETURN_NOT_OK(entry_at(mid, &probe));
        if (BoundCompare(probe.key, *bounds.lo) < 0) {
          lo_i = static_cast<uint16_t>(mid + 1);
        } else {
          hi_i = mid;
        }
      }
      start = lo_i;
    }
    first_leaf = false;
    for (uint16_t i = start; i < count; ++i) {
      IndexEntry e;
      ASTERIX_RETURN_NOT_OK(entry_at(i, &e));
      int where = BoundsPosition(e.key, bounds);
      if (where > 0) return Status::OK();
      if (where == 0) ASTERIX_RETURN_NOT_OK(cb(e));
    }
    page_no = next;
  }
  return Status::OK();
}

Status BTreeReader::PointLookup(const CompositeKey& key, bool* found,
                                IndexEntry* out) {
  *found = false;
  if (num_entries_ == 0) return Status::OK();
  if (!MayContain(key)) return Status::OK();
  ScanBounds bounds;
  bounds.lo = key;
  bounds.hi = key;
  Status cb_status = RangeScan(bounds, [&](const IndexEntry& e) {
    if (CompareKeys(e.key, key) == 0) {
      *found = true;
      *out = e;
    }
    return Status::OK();
  });
  return cb_status;
}

}  // namespace storage
}  // namespace asterix
