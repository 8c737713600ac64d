#include "common/metrics.h"

#include <algorithm>

#include "common/string_utils.h"

namespace asterix {
namespace metrics {

Histogram::Histogram(std::vector<uint64_t> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = LatencyBoundsUs();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(uint64_t value) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  size_t idx = static_cast<size_t>(it - bounds_.begin());  // overflow at end
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < value &&
         !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

double Histogram::Percentile(double q) const {
  uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double target = q * static_cast<double>(n);
  uint64_t below = 0;
  for (size_t i = 0; i < num_buckets(); ++i) {
    uint64_t c = bucket_count(i);
    if (c == 0) continue;
    if (static_cast<double>(below + c) >= target) {
      double lo = (i == 0) ? 0.0 : static_cast<double>(bounds_[i - 1]);
      double hi = (i < bounds_.size()) ? static_cast<double>(bounds_[i])
                                       : static_cast<double>(max());
      if (hi < lo) hi = lo;  // overflow bucket with a stale max snapshot
      double frac =
          (target - static_cast<double>(below)) / static_cast<double>(c);
      return lo + (hi - lo) * frac;
    }
    below += c;
  }
  return static_cast<double>(max());
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::LatencyBoundsUs() {
  std::vector<uint64_t> bounds;
  for (uint64_t b = 1; b <= (1ull << 23); b <<= 1) bounds.push_back(b);
  return bounds;  // 1us, 2us, ..., ~8.4s
}

std::vector<uint64_t> Histogram::CountBounds() {
  std::vector<uint64_t> bounds;
  for (uint64_t b = 1; b <= (1ull << 16); b <<= 1) bounds.push_back(b);
  return bounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{ \"counters\": { ";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(name, &out);
    out += ": " + std::to_string(c->value());
  }
  out += " }, \"gauges\": { ";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(name, &out);
    out += ": " + std::to_string(g->value());
  }
  out += " }, \"histograms\": { ";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ", ";
    first = false;
    AppendJsonString(name, &out);
    out += ": { \"count\": " + std::to_string(h->count()) +
           ", \"sum\": " + std::to_string(h->sum()) +
           ", \"max\": " + std::to_string(h->max()) + ", \"bounds\": [ ";
    const auto& bounds = h->bounds();
    for (size_t i = 0; i < bounds.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(bounds[i]);
    }
    out += " ], \"buckets\": [ ";
    for (size_t i = 0; i < h->num_buckets(); ++i) {
      if (i) out += ", ";
      out += std::to_string(h->bucket_count(i));
    }
    out += " ] }";
  }
  out += " } }";
  return out;
}

std::map<std::string, int64_t> MetricsRegistry::SnapshotScalars() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int64_t> out;
  for (const auto& [name, c] : counters_) {
    out[name] = static_cast<int64_t>(c->value());
  }
  for (const auto& [name, g] : gauges_) {
    out[name] = g->value();
  }
  for (const auto& [name, h] : histograms_) {
    out[name + ".count"] = static_cast<int64_t>(h->count());
    out[name + ".sum"] = static_cast<int64_t>(h->sum());
  }
  return out;
}

namespace {

/// "storage.lsm.flush_us" -> "asterix_storage_lsm_flush_us".
std::string PromName(const std::string& name) {
  std::string out = "asterix_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(c->value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(g->value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    std::string p = PromName(name);
    out += "# TYPE " + p + " histogram\n";
    // Prometheus buckets are cumulative: le="bound" counts everything at or
    // below the bound; the implicit overflow bucket becomes le="+Inf".
    uint64_t cumulative = 0;
    const auto& bounds = h->bounds();
    for (size_t i = 0; i < bounds.size(); ++i) {
      cumulative += h->bucket_count(i);
      out += p + "_bucket{le=\"" + std::to_string(bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} " + std::to_string(h->count()) + "\n";
    out += p + "_sum " + std::to_string(h->sum()) + "\n";
    out += p + "_count " + std::to_string(h->count()) + "\n";
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) {
    (void)name;
    c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    (void)name;
    g->Reset();
  }
  for (auto& [name, h] : histograms_) {
    (void)name;
    h->Reset();
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace metrics
}  // namespace asterix
