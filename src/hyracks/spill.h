#ifndef ASTERIX_HYRACKS_SPILL_H_
#define ASTERIX_HYRACKS_SPILL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/env.h"
#include "common/status.h"
#include "hyracks/tuple.h"

namespace asterix {
namespace hyracks {

/// Tuple wire format shared by every operator that writes tuples to scratch
/// files (sort runs, join/group-by/distinct spill partitions): varint column
/// count followed by schemaless ADM values.
void SerializeTuple(const Tuple& t, BytesWriter* w);
Status DeserializeTuple(BytesReader* r, Tuple* out);

/// Lazily-created scratch directory removed when the guard dies. Its owner,
/// an operator instance, is torn down after success, failure and job
/// cancellation alike, so spill scratch space never outlives the instance.
class ScratchDirGuard {
 public:
  explicit ScratchDirGuard(std::string prefix) : prefix_(std::move(prefix)) {}
  ~ScratchDirGuard();
  ScratchDirGuard(const ScratchDirGuard&) = delete;
  ScratchDirGuard& operator=(const ScratchDirGuard&) = delete;

  /// Creates the directory on first use.
  const std::string& dir();
  bool created() const { return !dir_.empty(); }

 private:
  std::string prefix_;
  std::string dir_;
};

/// One spilled run on disk — a sort run or a join/group-by/distinct spill
/// partition: a stream of records appended incrementally (buffered, so
/// spilling does not itself balloon memory) and read back in order. Records
/// are either whole tuples or opaque key bytes — the latter carry a distinct
/// operator's already-emitted key markers across a spill. Every record is
/// length-prefixed, so readback streams the file frame-at-a-time through a
/// rolling window (at most one flush-sized chunk resident, growing only for
/// a single oversized record) instead of loading the whole run; each
/// complete replay posts a `spill.reload` journal event with bytes read.
class SpillRun {
 public:
  explicit SpillRun(std::string path) : path_(std::move(path)) {}

  /// Pull cursor over a finished run, for readers that interleave several
  /// runs (the external sort's k-way merge).
  class Cursor {
   public:
    explicit Cursor(const SpillRun& run) : run_(run) {}
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    /// Reads the next record; `*more` is false once the run is exhausted.
    Status Next(bool* more);
    /// The current record: a tuple (which the caller may move from), or
    /// key bytes that stay valid until the next call.
    bool is_key() const { return is_key_; }
    Tuple& tuple() { return tuple_; }
    const uint8_t* key_data() const { return key_data_; }
    size_t key_size() const { return key_size_; }

   private:
    /// Makes `need` unparsed bytes resident unless the file ends first.
    void Refill(size_t need);

    const SpillRun& run_;
    std::unique_ptr<env::SequentialFileReader> file_;
    std::vector<uint8_t> win_;  // win_[pos_..) holds unparsed bytes
    size_t pos_ = 0;
    uint64_t reloaded_ = 0;
    uint64_t replayed_ = 0;
    bool eof_ = false;
    bool is_key_ = false;
    Tuple tuple_;
    const uint8_t* key_data_ = nullptr;
    size_t key_size_ = 0;
  };

  Status AppendTuple(const Tuple& t);
  Status AppendKeyBytes(const uint8_t* data, size_t n);
  /// Flushes the buffered tail to disk; call before ForEach.
  Status Finish();

  uint64_t records() const { return records_; }
  bool empty() const { return records_ == 0; }
  /// Total serialized bytes appended (the spill_bytes a run contributes).
  uint64_t bytes() const { return bytes_; }

  /// Streams records back in append order. `on_key` may be null if the run
  /// was written without key markers.
  Status ForEach(const std::function<Status(Tuple&)>& on_tuple,
                 const std::function<Status(const uint8_t*, size_t)>& on_key =
                     nullptr) const;

  void Remove();

 private:
  static constexpr uint8_t kTupleRecord = 0;
  static constexpr uint8_t kKeyRecord = 1;
  static constexpr size_t kFlushBytes = 256 * 1024;

  Status FlushBuffer();

  std::string path_;
  BytesWriter buf_;
  BytesWriter scratch_;  // per-record staging so the length prefix is known
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_SPILL_H_
