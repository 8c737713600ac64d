#ifndef ASTERIX_STORAGE_SCAN_FILTER_H_
#define ASTERIX_STORAGE_SCAN_FILTER_H_

#include <string>
#include <vector>

#include "adm/value.h"

namespace asterix {
namespace storage {

/// A test a primary scan applies to each live record's key fields before it
/// hands the record on — a hash join's build keys pushed into its probe
/// scan. The scan tests the record LSM resolution returns, never a
/// component's row before resolution: dropping a newer version there would
/// let an older one win. A row or memtable winner has its key fields
/// decoded first and the rest of the projection only when it passes; a
/// column winner is tested assembled, so the fields must be projected.
/// One scan instance uses one filter, on one thread.
class ScanKeyFilter {
 public:
  explicit ScanKeyFilter(std::vector<std::string> fields)
      : fields_(std::move(fields)) {}
  ScanKeyFilter(const ScanKeyFilter&) = delete;
  ScanKeyFilter& operator=(const ScanKeyFilter&) = delete;
  virtual ~ScanKeyFilter() = default;

  /// The top-level fields Keep() reads, in the order it receives them.
  const std::vector<std::string>& fields() const { return fields_; }

  /// False drops the record. `keys[i]` is the value of fields()[i]
  /// (MISSING when the record has no such field).
  virtual bool Keep(const adm::Value* const* keys) = 0;

  /// False once testing stopped paying: the scan passes every later record
  /// without decoding its keys apart.
  virtual bool active() const = 0;

  /// Keep() over an assembled record's fields.
  bool KeepRecord(const adm::Value& record) {
    ptrs_.resize(fields_.size());
    for (size_t i = 0; i < fields_.size(); ++i) {
      ptrs_[i] = &record.GetField(fields_[i]);
    }
    return Keep(ptrs_.data());
  }

 private:
  std::vector<std::string> fields_;
  std::vector<const adm::Value*> ptrs_;
};

}  // namespace storage
}  // namespace asterix

#endif  // ASTERIX_STORAGE_SCAN_FILTER_H_
