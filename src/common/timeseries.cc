#include "common/timeseries.h"

#include <algorithm>
#include <cstdio>

#include "common/string_utils.h"

namespace asterix {
namespace monitor {

namespace {

void AppendRate(double v, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  *out += buf;
}

}  // namespace

TimeSeriesRing::TimeSeriesRing(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 2)) {}

void TimeSeriesRing::Push(Sample sample) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(std::move(sample));
  while (samples_.size() > capacity_) samples_.pop_front();
}

size_t TimeSeriesRing::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

bool TimeSeriesRing::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.empty();
}

Sample TimeSeriesRing::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.empty() ? Sample{} : samples_.back();
}

int64_t TimeSeriesRing::LatestValue(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0;
  auto it = samples_.back().values.find(name);
  return it == samples_.back().values.end() ? 0 : it->second;
}

size_t TimeSeriesRing::WindowStartLocked(uint64_t window_us) const {
  // First sample inside the window; step back one so it has a baseline
  // (rates need a step, not a point).
  uint64_t latest_ts = samples_.back().ts_us;
  uint64_t cutoff = latest_ts >= window_us ? latest_ts - window_us : 0;
  size_t idx = samples_.size() - 1;
  while (idx > 0 && samples_[idx - 1].ts_us >= cutoff) --idx;
  if (idx > 0) --idx;
  return idx;
}

int64_t TimeSeriesRing::WindowedDeltaLocked(const std::string& name,
                                            uint64_t window_us,
                                            uint64_t* span_us) const {
  if (samples_.size() < 2) {
    if (span_us != nullptr) *span_us = 0;
    return 0;
  }
  size_t start = WindowStartLocked(window_us);
  if (span_us != nullptr) {
    *span_us = samples_.back().ts_us - samples_[start].ts_us;
  }
  int64_t total = 0;
  bool have_prev = false;
  int64_t prev = 0;
  for (size_t i = start; i < samples_.size(); ++i) {
    auto it = samples_[i].values.find(name);
    if (it == samples_[i].values.end()) continue;
    int64_t cur = it->second;
    if (have_prev) {
      // A counter that went backwards was Reset() between the two samples:
      // everything it now holds was counted since the reset, so the step
      // contributes the current value — never the bogus wrapped delta.
      total += cur >= prev ? cur - prev : cur;
    } else if (i != start) {
      // Series born mid-window: its first value is its delta.
      total += cur;
    }
    prev = cur;
    have_prev = true;
  }
  return total;
}

int64_t TimeSeriesRing::WindowedDelta(const std::string& name,
                                      uint64_t window_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0;
  return WindowedDeltaLocked(name, window_us, nullptr);
}

double TimeSeriesRing::WindowedRate(const std::string& name,
                                    uint64_t window_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0.0;
  uint64_t span = 0;
  int64_t delta = WindowedDeltaLocked(name, window_us, &span);
  if (span == 0) return 0.0;
  return static_cast<double>(delta) * 1e6 / static_cast<double>(span);
}

uint64_t TimeSeriesRing::CoveredWindowUs(uint64_t window_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0;
  size_t start = WindowStartLocked(window_us);
  return samples_.back().ts_us - samples_[start].ts_us;
}

std::string TimeSeriesRing::HistoryJson(size_t max_samples) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t start = 0;
  if (max_samples > 0 && samples_.size() > max_samples) {
    start = samples_.size() - max_samples;
  }
  std::string out =
      "{ \"samples\": " + std::to_string(samples_.size() - start) +
      ", \"data\": [ ";
  for (size_t i = start; i < samples_.size(); ++i) {
    if (i != start) out += ", ";
    out += "{ \"ts_us\": " + std::to_string(samples_[i].ts_us) +
           ", \"values\": { ";
    bool first = true;
    for (const auto& [name, value] : samples_[i].values) {
      if (!first) out += ", ";
      first = false;
      AppendJsonString(name, &out);
      out += ": " + std::to_string(value);
    }
    out += " } }";
  }
  out += " ] }";
  return out;
}

std::string TimeSeriesRing::RatesJson(uint64_t window_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{ \"window_us\": ";
  if (samples_.size() < 2) {
    out += "0, \"per_sec\": { } }";
    return out;
  }
  size_t start = WindowStartLocked(window_us);
  uint64_t span = samples_.back().ts_us - samples_[start].ts_us;
  out += std::to_string(span) + ", \"per_sec\": { ";
  bool first = true;
  for (const auto& [name, value] : samples_.back().values) {
    (void)value;
    uint64_t s = 0;
    int64_t delta = WindowedDeltaLocked(name, window_us, &s);
    double rate = s == 0 ? 0.0
                         : static_cast<double>(delta) * 1e6 /
                               static_cast<double>(s);
    if (!first) out += ", ";
    first = false;
    AppendJsonString(name, &out);
    out += ": ";
    AppendRate(rate, &out);
  }
  out += " } }";
  return out;
}

// ---------------------------------------------------------------------------
// MetricsSampler
// ---------------------------------------------------------------------------

MetricsSampler::MetricsSampler(metrics::MetricsRegistry* registry,
                               Options options)
    : registry_(registry),
      options_(options),
      ring_(options.ring_capacity),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.interval_ms == 0) options_.interval_ms = 100;
}

MetricsSampler::~MetricsSampler() { Stop(); }

void MetricsSampler::AddProbe(std::function<void()> probe) {
  probes_.push_back(std::move(probe));
}

void MetricsSampler::SetObserver(
    std::function<void(const TimeSeriesRing&)> observer) {
  observer_ = std::move(observer);
}

void MetricsSampler::SampleNow() {
  for (const auto& probe : probes_) probe();
  Sample s;
  s.ts_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  s.values = registry_->SnapshotScalars();
  ring_.Push(std::move(s));
  samples_.fetch_add(1, std::memory_order_relaxed);
  if (observer_) observer_(ring_);
}

void MetricsSampler::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void MetricsSampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    lock.unlock();
    SampleNow();
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                 [this] { return stop_; });
  }
}

}  // namespace monitor
}  // namespace asterix
