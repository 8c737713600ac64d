#include "hyracks/join_filter.h"

#include <algorithm>
#include <bit>

#include "adm/serde.h"

namespace asterix {
namespace hyracks {

void JoinFilter::Publish(std::vector<uint64_t> hashes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) return;
  if (hashes_.size() + hashes.size() > kMaxKeys) {
    pass_all_ = true;
    hashes_ = {};
  } else if (!pass_all_) {
    hashes_.insert(hashes_.end(), hashes.begin(), hashes.end());
  }
  if (--pending_ <= 0) SealLocked();
}

void JoinFilter::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) return;
  pass_all_ = true;
  SealLocked();
}

void JoinFilter::SealLocked() {
  if (!pass_all_) {
    // 16 bits per key in whole 64-bit words, a power of two of them.
    size_t words = std::bit_ceil(std::max<size_t>(1, hashes_.size() / 4));
    words_.assign(words, 0);
    mask_ = words - 1;
    for (uint64_t hash : hashes_) {
      uint64_t h = Mix(hash);
      words_[(h >> 32) & mask_] |= BitsOf(h);
    }
  }
  hashes_ = {};
  sealed_ = true;
  sealed_cv_.notify_all();
}

void JoinFilter::Wait() const {
  std::unique_lock<std::mutex> lock(mu_);
  sealed_cv_.wait(lock, [this] { return sealed_; });
}

JoinFilterProbe::JoinFilterProbe(std::shared_ptr<const JoinFilter> filter,
                                 std::vector<std::string> fields)
    : storage::ScanKeyFilter(std::move(fields)), filter_(std::move(filter)) {
  filter_->Wait();
  active_ = !filter_->pass_all();
}

bool JoinFilterProbe::Keep(const adm::Value* const* keys) {
  bool keep = true;
  key_.Clear();
  for (size_t i = 0; i < fields().size(); ++i) {
    if (keys[i]->IsUnknown()) {
      keep = false;
      break;
    }
    adm::SerializeNormalizedKey(*keys[i], &key_);
  }
  if (keep) keep = filter_->MayContain(Hash64(key_.data().data(), key_.size()));
  if (!keep) ++dropped_;
  if (++tested_ == kSampleRecords && dropped_ * 4 < tested_) active_ = false;
  return keep;
}

}  // namespace hyracks
}  // namespace asterix
