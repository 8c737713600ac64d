#include "hyracks/hash_table.h"

#include <algorithm>
#include <cstring>

namespace asterix {
namespace hyracks {

const uint8_t* Arena::Append(const void* data, size_t n) {
  if (chunk_used_ + n > chunk_cap_) {
    size_t next = chunk_cap_ == 0 ? kFirstChunkBytes
                                  : std::min(chunk_cap_ * 2, kMaxChunkBytes);
    size_t cap = std::max(n, next);
    chunks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(cap));
    chunk_used_ = 0;
    chunk_cap_ = cap;
    reserved_ += cap;
  }
  uint8_t* dst = chunks_.back().get() + chunk_used_;
  if (n > 0) std::memcpy(dst, data, n);
  chunk_used_ += n;
  used_ += n;
  return dst;
}

SerializedKeyTable::SerializedKeyTable() : slots_(16, 0), mask_(15) {}

uint32_t* SerializedKeyTable::FindOrInsert(const uint8_t* key, size_t len,
                                           uint64_t hash, bool* inserted) {
  // Grow at ~0.75 load so probe chains stay short.
  if ((entries_.size() + 1) * 4 > slots_.size() * 3) Grow();
  size_t i = hash & mask_;
  while (slots_[i] != 0) {
    Entry& e = entries_[slots_[i] - 1];
    if (e.hash == hash && e.key_len == len &&
        std::memcmp(e.key, key, len) == 0) {
      *inserted = false;
      return &e.payload;
    }
    i = (i + 1) & mask_;
  }
  entries_.push_back(
      Entry{hash, arena_.Append(key, len), static_cast<uint32_t>(len),
            kNoPayload});
  slots_[i] = static_cast<uint32_t>(entries_.size());
  *inserted = true;
  return &entries_.back().payload;
}

const uint32_t* SerializedKeyTable::Find(const uint8_t* key, size_t len,
                                         uint64_t hash) const {
  size_t i = hash & mask_;
  while (slots_[i] != 0) {
    const Entry& e = entries_[slots_[i] - 1];
    if (e.hash == hash && e.key_len == len &&
        std::memcmp(e.key, key, len) == 0) {
      return &e.payload;
    }
    i = (i + 1) & mask_;
  }
  return nullptr;
}

void SerializedKeyTable::Grow() {
  std::vector<uint32_t> next(slots_.size() * 2, 0);
  size_t mask = next.size() - 1;
  for (size_t idx = 0; idx < entries_.size(); ++idx) {
    size_t i = entries_[idx].hash & mask;
    while (next[i] != 0) i = (i + 1) & mask;
    next[i] = static_cast<uint32_t>(idx + 1);
  }
  slots_ = std::move(next);
  mask_ = mask;
}

}  // namespace hyracks
}  // namespace asterix
