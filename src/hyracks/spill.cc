#include "hyracks/spill.h"

#include <algorithm>

#include "adm/serde.h"
#include "common/journal.h"

namespace asterix {
namespace hyracks {

void SerializeTuple(const Tuple& t, BytesWriter* w) {
  w->PutVarint(t.size());
  for (const auto& v : t) adm::SerializeValue(v, w);
}

Status DeserializeTuple(BytesReader* r, Tuple* out) {
  uint64_t cols;
  ASTERIX_RETURN_NOT_OK(r->GetVarint(&cols));
  out->clear();
  out->reserve(cols);
  for (uint64_t i = 0; i < cols; ++i) {
    adm::Value v;
    ASTERIX_RETURN_NOT_OK(adm::DeserializeValue(r, &v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

ScratchDirGuard::~ScratchDirGuard() {
  if (!dir_.empty()) env::RemoveAll(dir_);
}

const std::string& ScratchDirGuard::dir() {
  if (dir_.empty()) dir_ = env::NewScratchDir(prefix_);
  return dir_;
}

Status SpillRun::AppendTuple(const Tuple& t) {
  scratch_.Clear();
  SerializeTuple(t, &scratch_);
  size_t before = buf_.size();
  buf_.PutU8(kTupleRecord);
  buf_.PutVarint(scratch_.size());
  buf_.PutBytes(scratch_.data().data(), scratch_.size());
  bytes_ += buf_.size() - before;
  ++records_;
  if (buf_.size() >= kFlushBytes) return FlushBuffer();
  return Status::OK();
}

Status SpillRun::AppendKeyBytes(const uint8_t* data, size_t n) {
  size_t before = buf_.size();
  buf_.PutU8(kKeyRecord);
  buf_.PutVarint(n);
  buf_.PutBytes(data, n);
  bytes_ += buf_.size() - before;
  ++records_;
  if (buf_.size() >= kFlushBytes) return FlushBuffer();
  return Status::OK();
}

Status SpillRun::Finish() { return FlushBuffer(); }

Status SpillRun::FlushBuffer() {
  if (buf_.size() == 0) return Status::OK();
  ASTERIX_RETURN_NOT_OK(
      env::AppendFile(path_, buf_.data().data(), buf_.size()));
  buf_.Clear();
  return Status::OK();
}

void SpillRun::Cursor::Refill(size_t need) {
  if (win_.size() - pos_ >= need) return;
  // Compact the consumed prefix away and read one flush-sized chunk (never
  // more than the run has left, so small runs stay small) — more only when
  // a single record is larger than a chunk.
  win_.erase(win_.begin(), win_.begin() + static_cast<ptrdiff_t>(pos_));
  pos_ = 0;
  size_t left = static_cast<size_t>(run_.bytes_ - reloaded_);
  size_t target = std::max(need, std::min(kFlushBytes, left));
  while (!eof_ && win_.size() < target) {
    size_t old = win_.size();
    win_.resize(target);
    size_t got = file_->Read(win_.data() + old, target - old);
    win_.resize(old + got);
    reloaded_ += got;
    if (got == 0) eof_ = true;
  }
}

Status SpillRun::Cursor::Next(bool* more) {
  *more = false;
  if (run_.records_ == 0 || replayed_ == run_.records_) return Status::OK();
  if (file_ == nullptr) {
    file_ = std::make_unique<env::SequentialFileReader>(run_.path_);
    if (!file_->ok()) return Status::IOError("open spill run: " + run_.path_);
  }
  // A record header is a kind byte plus a varint length (<=10 bytes).
  Refill(11);
  if (win_.size() == pos_) return Status::Corruption("spill run truncated");
  uint8_t kind = win_[pos_];
  BytesReader hdr(win_.data() + pos_ + 1, win_.size() - pos_ - 1);
  uint64_t len;
  ASTERIX_RETURN_NOT_OK(hdr.GetVarint(&len));
  pos_ += 1 + hdr.position();
  Refill(len);
  if (win_.size() - pos_ < len) return Status::Corruption("spill run truncated");
  const uint8_t* payload = win_.data() + pos_;
  pos_ += len;
  if (kind == kTupleRecord) {
    BytesReader r(payload, len);
    ASTERIX_RETURN_NOT_OK(DeserializeTuple(&r, &tuple_));
    is_key_ = false;
  } else if (kind == kKeyRecord) {
    key_data_ = payload;
    key_size_ = len;
    is_key_ = true;
  } else {
    return Status::Corruption("bad spill record kind");
  }
  if (++replayed_ == run_.records_) {
    journal::Journal::Default().Post(journal::EventKind::kSpillReload,
                                     reloaded_, run_.records_);
  }
  *more = true;
  return Status::OK();
}

Status SpillRun::ForEach(
    const std::function<Status(Tuple&)>& on_tuple,
    const std::function<Status(const uint8_t*, size_t)>& on_key) const {
  Cursor cursor(*this);
  for (;;) {
    bool more = false;
    ASTERIX_RETURN_NOT_OK(cursor.Next(&more));
    if (!more) return Status::OK();
    if (!cursor.is_key()) {
      ASTERIX_RETURN_NOT_OK(on_tuple(cursor.tuple()));
    } else if (!on_key) {
      return Status::Corruption("unexpected key record");
    } else {
      ASTERIX_RETURN_NOT_OK(on_key(cursor.key_data(), cursor.key_size()));
    }
  }
}

void SpillRun::Remove() { env::RemoveFile(path_); }

}  // namespace hyracks
}  // namespace asterix
