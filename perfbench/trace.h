#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. The benchmark records one span
// around each call it makes into a layer's public function and hangs the
// engine's own per-query phase and operator spans under the call that ran
// them. Spans are written out once, when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "hyracks/profile.h"

namespace perfbench {

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  uint64_t request = 0;
  std::string name;
  double start_us = 0;  // since the tracer was created
  double end_us = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  double NowUs() const;
  /// Reserves a span id, so children can name their parent before the
  /// parent's own span is recorded.
  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  /// Records a finished span under a reserved id.
  void Add(int64_t id, int64_t parent, uint64_t request, std::string name,
           double start_us, double end_us);
  /// Hangs a query's phase spans and operator-instance spans under
  /// `parent`. The phases are laid end to end from `call_start_us`, and
  /// the operator spans are placed from the end of the optimize phase.
  void AddProfile(int64_t parent, uint64_t request, double call_start_us,
                  const asterix::hyracks::JobProfile& profile);
  size_t size() const;
  /// Writes every span as a JSON array; false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
