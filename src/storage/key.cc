#include "storage/key.h"

namespace asterix {
namespace storage {

int CompareKeys(const CompositeKey& a, const CompositeKey& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

uint64_t HashKey(const CompositeKey& k) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& v : k) h = v.Hash(h);
  return h;
}

void SerializeKey(const CompositeKey& k, BytesWriter* w) {
  w->PutVarint(k.size());
  for (const auto& v : k) adm::SerializeValue(v, w);
}

Status DeserializeKey(BytesReader* r, CompositeKey* out) {
  uint64_t n;
  ASTERIX_RETURN_NOT_OK(r->GetVarint(&n));
  if (n > r->remaining()) return Status::Corruption("truncated key");
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    adm::Value v;
    ASTERIX_RETURN_NOT_OK(adm::DeserializeValue(r, &v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace asterix
