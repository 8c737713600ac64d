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
  // Owns the open file from here on, so an early error return closes it.
  auto reader = std::shared_ptr<BTreeReader>(new BTreeReader());
  reader->cache_ = cache;
  reader->file_ = file;
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

Status BTreeReader::Cursor::Seek(const CompositeKey* lo) {
  ASTERIX_RETURN_NOT_OK(Descend(lo));
  if (lo != nullptr) {
    ASTERIX_ASSIGN_OR_RETURN(idx_, LowerBound(0, *lo));
  }
  // The descent chose the leftmost leaf that can hold a match, so the first
  // match may sit past its end (on a key equal to the next leaf's first key).
  return Settle();
}

Status BTreeReader::Cursor::Next() {
  ++idx_;
  return Settle();
}

Status BTreeReader::Cursor::Find(const CompositeKey& key, bool* found) {
  bool in_leaf = false;
  if (valid_) {
    ASTERIX_RETURN_NOT_OK(LoadLastKey());
    in_leaf = CompareKeys(key, last_key_) <= 0;
  }
  if (in_leaf) {
    ASTERIX_ASSIGN_OR_RETURN(idx_, LowerBound(idx_, key));
    ASTERIX_RETURN_NOT_OK(DecodeEntry());
  } else {
    ASTERIX_RETURN_NOT_OK(Seek(&key));
  }
  *found = valid_ && CompareKeys(key_, key) == 0;
  return Status::OK();
}

Status BTreeReader::Cursor::ReadOverflow() {
  return tree_->cache_->ReadRange(tree_->file_,
                                  tree_->overflow_offset_ + overflow_off_,
                                  payload_len_, &overflow_buf_);
}

Result<PagePtr> BTreeReader::Cursor::Fetch(uint32_t page_no) const {
  auto page_r = tree_->cache_->GetPage(tree_->file_, page_no);
  if (!page_r.ok()) return page_r.status();
  PagePtr page = page_r.take();
  if (page->empty()) return Status::Corruption("empty page");
  return page;
}

Status BTreeReader::Cursor::Descend(const CompositeKey* key) {
  uint32_t page_no = tree_->root_page_;
  for (int depth = 0; depth < 64; ++depth) {
    ASTERIX_ASSIGN_OR_RETURN(PagePtr page, Fetch(page_no));
    if ((*page)[0] == kLeafPage) return LoadLeaf(std::move(page));
    ASTERIX_ASSIGN_OR_RETURN(page_no, ChildFor(*page, key));
  }
  return Status::Corruption("btree too deep (cycle?)");
}

/// Child j holds keys below sep[j], the first key of child j+1, so the
/// leftmost child that can hold keys not below `key` is the first whose sep
/// is not below it.
Result<uint32_t> BTreeReader::Cursor::ChildFor(const PageData& page,
                                               const CompositeKey* key) {
  if (page[0] != kInteriorPage || page.size() < kInteriorHeaderSize) {
    return Status::Corruption("bad page kind");
  }
  uint16_t count;
  std::memcpy(&count, page.data() + 1, 2);
  // Child pointers, then count-1 separator offsets.
  if (count == 0 || kInteriorHeaderSize + 6 * size_t{count} - 2 > page.size()) {
    return Status::Corruption("interior page overruns its page");
  }
  const uint8_t* table = page.data() + kInteriorHeaderSize + 4 * size_t{count};
  const uint8_t* seps = table + 2 * (size_t{count} - 1);
  const size_t seps_len = page.size() - static_cast<size_t>(seps - page.data());
  size_t lo = 0, hi = size_t{count} - 1;
  while (key != nullptr && lo < hi) {
    size_t mid = (lo + hi) / 2;
    uint16_t off;
    std::memcpy(&off, table + 2 * mid, 2);
    if (off >= seps_len) return Status::Corruption("separator out of range");
    BytesReader sr(seps + off, seps_len - off);
    ASTERIX_RETURN_NOT_OK(DeserializeKey(&sr, &probe_));
    if (BoundCompare(probe_, *key) >= 0) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  uint32_t child;
  std::memcpy(&child, page.data() + kInteriorHeaderSize + 4 * lo, 4);
  return child;
}

Status BTreeReader::Cursor::LoadLeaf(PagePtr page) {
  page_ = std::move(page);
  const PageData& data = *page_;
  if (data.size() < kLeafHeaderSize || data[0] != kLeafPage) {
    return Status::Corruption("expected leaf page");
  }
  std::memcpy(&next_, data.data() + 1, 4);
  std::memcpy(&count_, data.data() + 5, 2);
  size_t table_bytes = 2 * size_t{count_};
  if (kLeafHeaderSize + table_bytes > data.size()) {
    return Status::Corruption("leaf offset table overruns its page");
  }
  table_ = data.data() + kLeafHeaderSize;
  entries_ = table_ + table_bytes;
  entries_len_ = data.size() - kLeafHeaderSize - table_bytes;
  idx_ = 0;
  last_key_loaded_ = false;
  return Status::OK();
}

Status BTreeReader::Cursor::EntryAt(uint16_t i, BytesReader* out) const {
  uint16_t off;
  std::memcpy(&off, table_ + 2 * size_t{i}, 2);
  if (off >= entries_len_) {
    return Status::Corruption("leaf entry offset out of range");
  }
  *out = BytesReader(entries_ + off, entries_len_ - off);
  return Status::OK();
}

Status BTreeReader::Cursor::LoadLastKey() {
  if (last_key_loaded_) return Status::OK();
  BytesReader r(nullptr, 0);
  ASTERIX_RETURN_NOT_OK(EntryAt(static_cast<uint16_t>(count_ - 1), &r));
  ASTERIX_RETURN_NOT_OK(DeserializeKey(&r, &last_key_));
  last_key_loaded_ = true;
  return Status::OK();
}

/// BoundCompare is monotone along a leaf's key order. The entry at `from` is
/// tried first: sorted batches often land there.
Result<uint16_t> BTreeReader::Cursor::LowerBound(uint16_t from,
                                                 const CompositeKey& bound) {
  auto below = [&](uint16_t i) -> Result<bool> {
    BytesReader r(nullptr, 0);
    ASTERIX_RETURN_NOT_OK(EntryAt(i, &r));
    ASTERIX_RETURN_NOT_OK(DeserializeKey(&r, &probe_));
    return BoundCompare(probe_, bound) < 0;
  };
  if (from >= count_) return count_;
  ASTERIX_ASSIGN_OR_RETURN(bool first_below, below(from));
  if (!first_below) return from;
  uint16_t lo = static_cast<uint16_t>(from + 1), hi = count_;
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    ASTERIX_ASSIGN_OR_RETURN(bool mid_below, below(mid));
    if (mid_below) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status BTreeReader::Cursor::Settle() {
  while (idx_ >= count_) {
    if (next_ == kNoPage) {
      valid_ = false;
      return Status::OK();
    }
    ASTERIX_ASSIGN_OR_RETURN(PagePtr page, Fetch(next_));
    ASTERIX_RETURN_NOT_OK(LoadLeaf(std::move(page)));
  }
  return DecodeEntry();
}

Status BTreeReader::Cursor::DecodeEntry() {
  valid_ = true;
  BytesReader r(nullptr, 0);
  ASTERIX_RETURN_NOT_OK(EntryAt(idx_, &r));
  const uint8_t* start = entries_ + (entries_len_ - r.remaining());
  ASTERIX_RETURN_NOT_OK(DeserializeKey(&r, &key_));
  uint8_t flags;
  ASTERIX_RETURN_NOT_OK(r.GetU8(&flags));
  antimatter_ = (flags & kFlagAntimatter) != 0;
  overflow_ = (flags & kFlagOverflow) != 0;
  if (overflow_) {
    uint32_t len;
    ASTERIX_RETURN_NOT_OK(r.GetU64(&overflow_off_));
    ASTERIX_RETURN_NOT_OK(r.GetU32(&len));
    payload_len_ = len;
    return Status::OK();
  }
  uint64_t len;
  ASTERIX_RETURN_NOT_OK(r.GetVarint(&len));
  if (len > r.remaining()) return Status::Corruption("truncated leaf entry");
  inline_ = start + r.position();
  payload_len_ = static_cast<size_t>(len);
  return Status::OK();
}

Status BTreeReader::RangeScan(const ScanBounds& bounds,
                              const EntryCallback& cb) const {
  Cursor c(this);
  ASTERIX_RETURN_NOT_OK(c.Seek(bounds.lo.has_value() ? &*bounds.lo : nullptr));
  IndexEntry e;
  auto emit = [&](const EntryView& v) {
    e.key = v.key;
    e.antimatter = v.antimatter;
    e.payload.assign(v.payload, v.payload + v.payload_size);
    return cb(e);
  };
  while (c.Valid()) {
    int where = BoundsPosition(c.key(), bounds);
    if (where > 0) break;
    if (where == 0) ASTERIX_RETURN_NOT_OK(c.View(emit));
    ASTERIX_RETURN_NOT_OK(c.Next());
  }
  return Status::OK();
}

Status BTreeReader::MultiGet(
    const std::vector<CompositeKey>& keys,
    const std::function<Status(size_t i, const EntryView& e)>& cb) const {
  if (num_entries_ == 0) return Status::OK();
  Cursor c(this);
  for (size_t i = 0; i < keys.size();) {
    // Every duplicate of the key in the batch shares one resolution.
    size_t end = i + 1;
    for (; end < keys.size(); ++end) {
      int order = CompareKeys(keys[end], keys[i]);
      if (order < 0) return Status::InvalidArgument("MultiGet keys not sorted");
      if (order > 0) break;
    }
    bool found = false;
    ASTERIX_RETURN_NOT_OK(c.Find(keys[i], &found));
    if (found) {
      ASTERIX_RETURN_NOT_OK(c.View([&](const EntryView& v) {
        for (size_t j = i; j < end; ++j) ASTERIX_RETURN_NOT_OK(cb(j, v));
        return Status::OK();
      }));
    }
    i = end;
  }
  return Status::OK();
}

Status BTreeReader::PointLookup(const CompositeKey& key, bool* found,
                                IndexEntry* out) {
  *found = false;
  if (num_entries_ == 0) return Status::OK();
  if (!MayContain(key)) return Status::OK();
  Cursor c(this);
  ASTERIX_RETURN_NOT_OK(c.Find(key, found));
  if (!*found) return Status::OK();
  return c.View([&](const EntryView& v) {
    out->key = v.key;
    out->antimatter = v.antimatter;
    out->payload.assign(v.payload, v.payload + v.payload_size);
    return Status::OK();
  });
}

}  // namespace storage
}  // namespace asterix
