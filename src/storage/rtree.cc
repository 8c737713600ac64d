#include "storage/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/env.h"

namespace asterix {
namespace storage {

namespace {

constexpr uint8_t kRLeafPage = 3;
constexpr uint8_t kRInteriorPage = 4;
constexpr uint32_t kRFooterMagic = 0x41525431;  // "ART1"
constexpr size_t kHeaderSize = 1 + 2;
// Conservative per-leaf entry budget; keys are small (pk values).
constexpr size_t kLeafCapacityBytes = kPageSize - kHeaderSize;

void PutMbr(const Mbr& m, BytesWriter* w) {
  w->PutF64(m.xlo);
  w->PutF64(m.ylo);
  w->PutF64(m.xhi);
  w->PutF64(m.yhi);
}

Status GetMbr(BytesReader* r, Mbr* m) {
  ASTERIX_RETURN_NOT_OK(r->GetF64(&m->xlo));
  ASTERIX_RETURN_NOT_OK(r->GetF64(&m->ylo));
  ASTERIX_RETURN_NOT_OK(r->GetF64(&m->xhi));
  return r->GetF64(&m->yhi);
}

size_t EncodedEntrySize(const RTreeEntry& e) {
  BytesWriter w;
  PutMbr(e.mbr, &w);
  SerializeKey(e.key, &w);
  w.PutU8(0);
  return w.size();
}

}  // namespace

RTreeBuilder::RTreeBuilder(std::string path) : path_(std::move(path)) {}

void RTreeBuilder::Add(RTreeEntry entry) { entries_.push_back(std::move(entry)); }

Status RTreeBuilder::Finish() {
  if (finished_) return Status::Internal("builder already finished");
  finished_ = true;

  // --- Sort-Tile-Recursive packing -------------------------------------
  // Estimate entries per leaf from average encoded size, then slice by x
  // into vertical slabs and sort each slab by y.
  size_t n = entries_.size();
  size_t avg = 32;
  if (n > 0) {
    size_t total = 0;
    for (const auto& e : entries_) total += EncodedEntrySize(e);
    avg = std::max<size_t>(1, total / n);
  }
  size_t per_leaf = std::max<size_t>(2, kLeafCapacityBytes / (avg + 8));
  size_t num_leaves = n == 0 ? 1 : (n + per_leaf - 1) / per_leaf;
  size_t slabs = static_cast<size_t>(std::ceil(std::sqrt(
      static_cast<double>(num_leaves))));
  if (slabs == 0) slabs = 1;

  auto center_x = [](const RTreeEntry& e) { return (e.mbr.xlo + e.mbr.xhi) / 2; };
  auto center_y = [](const RTreeEntry& e) { return (e.mbr.ylo + e.mbr.yhi) / 2; };
  std::sort(entries_.begin(), entries_.end(),
            [&](const RTreeEntry& a, const RTreeEntry& b) {
              return center_x(a) < center_x(b);
            });
  size_t per_slab = slabs == 0 ? n : (n + slabs - 1) / slabs;
  for (size_t s = 0; s * per_slab < n; ++s) {
    auto begin = entries_.begin() + static_cast<ptrdiff_t>(s * per_slab);
    auto end = entries_.begin() +
               static_cast<ptrdiff_t>(std::min(n, (s + 1) * per_slab));
    std::sort(begin, end, [&](const RTreeEntry& a, const RTreeEntry& b) {
      return center_y(a) < center_y(b);
    });
  }

  // --- Write leaves ------------------------------------------------------
  std::vector<uint8_t> file_bytes;
  std::vector<std::pair<Mbr, uint32_t>> level;  // (page mbr, page no)

  auto write_page = [&](uint8_t kind, uint16_t count,
                        const std::vector<uint8_t>& body) {
    uint32_t page_no = static_cast<uint32_t>(file_bytes.size() / kPageSize);
    std::vector<uint8_t> page(kPageSize, 0);
    page[0] = kind;
    std::memcpy(page.data() + 1, &count, 2);
    if (!body.empty()) {
      std::memcpy(page.data() + kHeaderSize, body.data(), body.size());
    }
    file_bytes.insert(file_bytes.end(), page.begin(), page.end());
    return page_no;
  };

  {
    BytesWriter body;
    uint16_t count = 0;
    Mbr page_mbr;
    bool first_in_page = true;
    auto flush_leaf = [&]() {
      if (count == 0 && !level.empty()) return;
      uint32_t pno = write_page(kRLeafPage, count, body.data());
      level.emplace_back(page_mbr, pno);
      body.Clear();
      count = 0;
      first_in_page = true;
    };
    for (const auto& e : entries_) {
      BytesWriter one;
      PutMbr(e.mbr, &one);
      SerializeKey(e.key, &one);
      one.PutU8(e.antimatter ? 1 : 0);
      if (kHeaderSize + body.size() + one.size() > kPageSize && count > 0) {
        flush_leaf();
      }
      if (one.size() + kHeaderSize > kPageSize) {
        return Status::InvalidArgument("r-tree entry too large for a page");
      }
      body.PutBytes(one.data().data(), one.size());
      if (first_in_page) {
        page_mbr = e.mbr;
        first_in_page = false;
      } else {
        page_mbr.Extend(e.mbr);
      }
      ++count;
    }
    flush_leaf();
    if (level.empty()) {
      uint32_t pno = write_page(kRLeafPage, 0, {});
      level.emplace_back(Mbr{}, pno);
    }
  }

  // --- Interior levels -----------------------------------------------------
  const size_t kChildSize = 4 * 8 + 4;
  const size_t kFanout = (kPageSize - kHeaderSize) / kChildSize;
  while (level.size() > 1) {
    std::vector<std::pair<Mbr, uint32_t>> next_level;
    for (size_t i = 0; i < level.size(); i += kFanout) {
      size_t end = std::min(level.size(), i + kFanout);
      BytesWriter body;
      Mbr page_mbr = level[i].first;
      for (size_t j = i; j < end; ++j) {
        PutMbr(level[j].first, &body);
        body.PutU32(level[j].second);
        page_mbr.Extend(level[j].first);
      }
      uint32_t pno = write_page(kRInteriorPage,
                                static_cast<uint16_t>(end - i), body.data());
      next_level.emplace_back(page_mbr, pno);
    }
    level = std::move(next_level);
  }

  // --- Footer ---------------------------------------------------------------
  BytesWriter footer;
  footer.PutU32(kRFooterMagic);
  footer.PutU32(level[0].second);
  footer.PutU64(entries_.size());
  PutMbr(level[0].first, &footer);
  uint32_t crc = Crc32(footer.data().data(), footer.size());
  footer.PutU32(crc);
  uint32_t flen = static_cast<uint32_t>(footer.size());
  file_bytes.insert(file_bytes.end(), footer.data().begin(),
                    footer.data().end());
  BytesWriter tail;
  tail.PutU32(flen);
  tail.PutU32(kRFooterMagic);
  file_bytes.insert(file_bytes.end(), tail.data().begin(), tail.data().end());

  return env::WriteFileAtomic(path_, file_bytes.data(), file_bytes.size());
}

Result<std::shared_ptr<RTreeReader>> RTreeReader::Open(BufferCache* cache,
                                                       const std::string& path) {
  auto file_r = cache->OpenFile(path);
  if (!file_r.ok()) return file_r.status();
  FileId file = file_r.value();
  // Owns the open file from here on, so an early error return closes it.
  auto reader = std::shared_ptr<RTreeReader>(new RTreeReader());
  reader->cache_ = cache;
  reader->file_ = file;
  uint64_t size = cache->FileSizeBytes(file);
  if (size < 8) return Status::Corruption("rtree file too small: " + path);
  std::vector<uint8_t> tail;
  ASTERIX_RETURN_NOT_OK(cache->ReadRange(file, size - 8, 8, &tail));
  BytesReader tr(tail);
  uint32_t flen, magic;
  ASTERIX_RETURN_NOT_OK(tr.GetU32(&flen));
  ASTERIX_RETURN_NOT_OK(tr.GetU32(&magic));
  if (magic != kRFooterMagic || flen + 8 > size) {
    return Status::Corruption("bad rtree footer: " + path);
  }
  std::vector<uint8_t> fbytes;
  ASTERIX_RETURN_NOT_OK(cache->ReadRange(file, size - 8 - flen, flen, &fbytes));
  uint32_t stored_crc = 0;
  if (flen >= 4) std::memcpy(&stored_crc, fbytes.data() + flen - 4, 4);
  if (flen < 4 || Crc32(fbytes.data(), flen - 4) != stored_crc) {
    return Status::Corruption("rtree footer checksum mismatch: " + path);
  }
  BytesReader fr(fbytes.data(), flen - 4);
  reader->file_size_ = size;
  uint32_t fmagic;
  ASTERIX_RETURN_NOT_OK(fr.GetU32(&fmagic));
  ASTERIX_RETURN_NOT_OK(fr.GetU32(&reader->root_page_));
  ASTERIX_RETURN_NOT_OK(fr.GetU64(&reader->num_entries_));
  return reader;
}

RTreeReader::~RTreeReader() {
  if (cache_) cache_->CloseFile(file_);
}

Status RTreeReader::SearchPage(uint32_t page_no, const Mbr* query,
                               const RTreeCallback& cb) const {
  auto page_r = cache_->GetPage(file_, page_no);
  if (!page_r.ok()) return page_r.status();
  const PageData& page = *page_r.value();
  if (page.empty()) return Status::Corruption("empty rtree page");
  uint16_t count;
  std::memcpy(&count, page.data() + 1, 2);
  BytesReader r(page.data() + kHeaderSize, page.size() - kHeaderSize);
  if (page[0] == kRLeafPage) {
    for (uint16_t i = 0; i < count; ++i) {
      RTreeEntry e;
      ASTERIX_RETURN_NOT_OK(GetMbr(&r, &e.mbr));
      ASTERIX_RETURN_NOT_OK(DeserializeKey(&r, &e.key));
      uint8_t anti;
      ASTERIX_RETURN_NOT_OK(r.GetU8(&anti));
      e.antimatter = anti != 0;
      if (query == nullptr || e.mbr.Overlaps(*query)) {
        ASTERIX_RETURN_NOT_OK(cb(e));
      }
    }
    return Status::OK();
  }
  if (page[0] != kRInteriorPage) return Status::Corruption("bad rtree page");
  for (uint16_t i = 0; i < count; ++i) {
    Mbr child_mbr;
    uint32_t child;
    ASTERIX_RETURN_NOT_OK(GetMbr(&r, &child_mbr));
    ASTERIX_RETURN_NOT_OK(r.GetU32(&child));
    if (query == nullptr || child_mbr.Overlaps(*query)) {
      ASTERIX_RETURN_NOT_OK(SearchPage(child, query, cb));
    }
  }
  return Status::OK();
}

Status RTreeReader::Search(const Mbr& query, const RTreeCallback& cb) const {
  if (num_entries_ == 0) return Status::OK();
  return SearchPage(root_page_, &query, cb);
}

Status RTreeReader::ScanAll(const RTreeCallback& cb) const {
  if (num_entries_ == 0) return Status::OK();
  return SearchPage(root_page_, nullptr, cb);
}

}  // namespace storage
}  // namespace asterix
