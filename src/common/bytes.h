#ifndef ASTERIX_COMMON_BYTES_H_
#define ASTERIX_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace asterix {

/// Append-only binary encoder used for record serialization, index pages,
/// and WAL records. All multi-byte integers are little-endian; lengths are
/// LEB128 varints so small records stay small (this matters for the Table 2
/// storage-size experiment).
class BytesWriter {
 public:
  BytesWriter() = default;
  explicit BytesWriter(std::vector<uint8_t>* sink) : external_(sink) {}

  void PutU8(uint8_t v) { Buf().push_back(v); }
  void PutU16(uint16_t v) { PutRaw(&v, 2); }
  void PutU32(uint32_t v) { PutRaw(&v, 4); }
  void PutU64(uint64_t v) { PutRaw(&v, 8); }
  void PutI32(int32_t v) { PutRaw(&v, 4); }
  void PutI64(int64_t v) { PutRaw(&v, 8); }
  void PutF32(float v) { PutRaw(&v, 4); }
  void PutF64(double v) { PutRaw(&v, 8); }

  /// Unsigned LEB128.
  void PutVarint(uint64_t v);
  /// Zig-zag encoded signed LEB128.
  void PutVarintSigned(int64_t v);
  /// Varint length prefix followed by the bytes.
  void PutString(std::string_view s);
  void PutBytes(const void* data, size_t n) { PutRaw(data, n); }

  const std::vector<uint8_t>& data() const { return Buf(); }
  size_t size() const { return Buf().size(); }
  void Clear() { Buf().clear(); }

 private:
  std::vector<uint8_t>& Buf() { return external_ ? *external_ : own_; }
  const std::vector<uint8_t>& Buf() const { return external_ ? *external_ : own_; }
  void PutRaw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    Buf().insert(Buf().end(), b, b + n);
  }

  std::vector<uint8_t> own_;
  std::vector<uint8_t>* external_ = nullptr;
};

/// Cursor-based decoder over a byte span; the inverse of BytesWriter.
/// Out-of-bounds reads return Corruption rather than crashing, so corrupt
/// disk components and WAL tails are survivable.
class BytesReader {
 public:
  BytesReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BytesReader(const std::vector<uint8_t>& v)
      : data_(v.data()), size_(v.size()) {}

  Status GetU8(uint8_t* v) { return GetRaw(v, 1); }
  Status GetU16(uint16_t* v) { return GetRaw(v, 2); }
  Status GetU32(uint32_t* v) { return GetRaw(v, 4); }
  Status GetU64(uint64_t* v) { return GetRaw(v, 8); }
  Status GetI32(int32_t* v) { return GetRaw(v, 4); }
  Status GetI64(int64_t* v) { return GetRaw(v, 8); }
  Status GetF32(float* v) { return GetRaw(v, 4); }
  Status GetF64(double* v) { return GetRaw(v, 8); }
  Status GetVarint(uint64_t* v);
  Status GetVarintSigned(int64_t* v);
  Status GetString(std::string* s);
  /// GetString without the copy: `s` views the reader's bytes, so it is
  /// valid only while they are.
  Status GetStringView(std::string_view* s);
  Status GetBytes(void* out, size_t n) { return GetRaw(out, n); }

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ >= size_; }
  Status Skip(size_t n);

 private:
  Status GetRaw(void* out, size_t n) {
    if (n > size_ - pos_) {
      return Status::Corruption("byte reader overrun");
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// CRC32 (Castagnoli polynomial, software table) over a byte span. Used to
/// checksum WAL records and disk-component footers.
uint32_t Crc32(const void* data, size_t n);

/// 64-bit FNV-1a hash; the system-wide hash for hash partitioning and hash
/// joins/groupings.
uint64_t Hash64(const void* data, size_t n, uint64_t seed = 0xcbf29ce484222325ULL);

}  // namespace asterix

#endif  // ASTERIX_COMMON_BYTES_H_
