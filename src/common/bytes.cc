#include "common/bytes.h"

namespace asterix {

void BytesWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void BytesWriter::PutVarintSigned(int64_t v) {
  uint64_t zz = (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  PutVarint(zz);
}

void BytesWriter::PutString(std::string_view s) {
  PutVarint(s.size());
  PutRaw(s.data(), s.size());
}

Status BytesReader::GetVarint(uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= size_) return Status::Corruption("truncated varint");
    uint8_t byte = data_[pos_++];
    if (shift >= 63 && byte > 1) return Status::Corruption("varint overflow");
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *v = result;
  return Status::OK();
}

Status BytesReader::GetVarintSigned(int64_t* v) {
  uint64_t zz;
  ASTERIX_RETURN_NOT_OK(GetVarint(&zz));
  *v = static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  return Status::OK();
}

Status BytesReader::GetString(std::string* s) {
  std::string_view view;
  ASTERIX_RETURN_NOT_OK(GetStringView(&view));
  s->assign(view);
  return Status::OK();
}

Status BytesReader::GetStringView(std::string_view* s) {
  uint64_t len;
  ASTERIX_RETURN_NOT_OK(GetVarint(&len));
  if (len > size_ - pos_) return Status::Corruption("truncated string");
  *s = std::string_view(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status BytesReader::Skip(size_t n) {
  if (n > size_ - pos_) return Status::Corruption("skip past end");
  pos_ += n;
  return Status::OK();
}

namespace {

// Lazily built CRC32C table (single-threaded init is fine: it is invoked
// during static-free startup paths and the table build is idempotent).
struct Crc32Table {
  uint32_t table[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
  }
};

const Crc32Table& GetCrcTable() {
  static const Crc32Table* table = new Crc32Table();
  return *table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const auto& t = GetCrcTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = t.table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint64_t Hash64(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace asterix
