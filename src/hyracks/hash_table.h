#ifndef ASTERIX_HYRACKS_HASH_TABLE_H_
#define ASTERIX_HYRACKS_HASH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace asterix {
namespace hyracks {

/// Bump allocator for serialized key bytes. Chunked so appends never move
/// existing data — table entries keep stable pointers into it — and so a
/// growing build side costs no realloc copies. Chunks start small and double
/// up to kMaxChunkBytes, and are never zero-filled: a table that holds a few
/// keys (most of a small build's 16 partitions) costs one 1 KiB chunk.
class Arena {
 public:
  static constexpr size_t kFirstChunkBytes = 1024;
  static constexpr size_t kMaxChunkBytes = 64 * 1024;

  const uint8_t* Append(const void* data, size_t n);
  /// Total bytes reserved from the heap (what a budget should be charged).
  size_t reserved_bytes() const { return reserved_; }
  size_t used_bytes() const { return used_; }

 private:
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  size_t chunk_used_ = 0;
  size_t chunk_cap_ = 0;
  size_t used_ = 0;
  size_t reserved_ = 0;
};

/// Open-addressing hash table keyed by 64-bit hashes over serialized
/// normalized key bytes (adm::SerializeNormalizedKey output) held in a bump
/// arena — no per-entry Value vectors, one memcmp per probe hit. Each entry
/// carries a single uint32 payload the operator interprets (chain head for a
/// join's build tuples, group-state index for an aggregation, unused for
/// distinct). Linear probing over a power-of-two slot array of entry
/// indices; entries keep insertion order, which is also spill order.
class SerializedKeyTable {
 public:
  struct Entry {
    uint64_t hash;
    const uint8_t* key;
    uint32_t key_len;
    uint32_t payload;
  };

  SerializedKeyTable();

  /// Returns the payload slot for the key, inserting an entry with payload
  /// `kNoPayload` when absent; `*inserted` says which happened. The key
  /// bytes are copied into the arena only on insert.
  uint32_t* FindOrInsert(const uint8_t* key, size_t len, uint64_t hash,
                         bool* inserted);
  const uint32_t* Find(const uint8_t* key, size_t len, uint64_t hash) const;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Heap footprint (arena + entry and slot arrays) for budget accounting.
  size_t bytes() const {
    return arena_.reserved_bytes() + entries_.capacity() * sizeof(Entry) +
           slots_.capacity() * sizeof(uint32_t);
  }

  static constexpr uint32_t kNoPayload = 0xffffffffu;

 private:
  void Grow();

  Arena arena_;
  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;  // entry index + 1; 0 marks an empty slot
  size_t mask_;
};

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_HASH_TABLE_H_
