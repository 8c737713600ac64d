#include "server/watchdog.h"

#include <algorithm>
#include <cstdio>

#include "common/journal.h"
#include "common/metrics.h"
#include "common/string_utils.h"

namespace asterix {
namespace server {

namespace {

// Fixed condition order: index doubles as identity for transition tracking.
constexpr size_t kExecutorSaturation = 0;
constexpr size_t kAdmissionQueue = 1;
constexpr size_t kBackpressure = 2;
constexpr size_t kJournalDrops = 3;
constexpr size_t kMemoryPool = 4;
constexpr size_t kWriteStall = 5;
constexpr size_t kCompactionBacklog = 6;
constexpr size_t kNumConditions = 7;

const char* ConditionName(size_t idx) {
  switch (idx) {
    case kExecutorSaturation:
      return "executor_saturation";
    case kAdmissionQueue:
      return "admission_queue";
    case kBackpressure:
      return "backpressure";
    case kJournalDrops:
      return "journal_drops";
    case kMemoryPool:
      return "memory_pool";
    case kWriteStall:
      return "write_stall";
    case kCompactionBacklog:
      return "compaction_backlog";
  }
  return "unknown";
}

std::string FormatRate(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

}  // namespace

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kWarn:
      return "warn";
    case HealthState::kCritical:
      return "critical";
  }
  return "unknown";
}

HealthWatchdog::HealthWatchdog(WatchdogOptions options)
    : options_(options), conditions_(kNumConditions) {
  for (size_t i = 0; i < kNumConditions; ++i) {
    conditions_[i].name = ConditionName(i);
    conditions_[i].detail = "no data";
  }
}

void HealthWatchdog::SetCondition(size_t idx, HealthState state,
                                  std::string detail) {
  // Requires mu_. Posting a journal event under the watchdog mutex is fine:
  // Post() is lock-free and never re-enters the watchdog.
  HealthCondition& c = conditions_[idx];
  if (c.state != state) {
    journal::Journal::Default().Post(
        journal::EventKind::kHealth, static_cast<uint64_t>(state),
        static_cast<uint64_t>(c.state), c.name.c_str());
    ++transitions_;
  }
  c.state = state;
  c.detail = std::move(detail);
}

void HealthWatchdog::Evaluate(const monitor::TimeSeriesRing& ring) {
  if (ring.empty()) return;
  const uint64_t w = options_.window_us;
  monitor::Sample latest = ring.Latest();
  auto value = [&latest](const char* name) -> int64_t {
    auto it = latest.values.find(name);
    return it == latest.values.end() ? 0 : it->second;
  };

  std::lock_guard<std::mutex> lock(mu_);

  // Executor-pool saturation: every worker busy AND tasks queued behind
  // them. Transient spikes are normal (warn); a sustained streak means the
  // pool is the bottleneck (critical).
  {
    int64_t alive = value("hyracks.pool_threads");
    int64_t busy = value("hyracks.pool.busy_threads");
    int64_t queued = value("hyracks.pool.queued_tasks");
    bool saturated = alive > 0 && busy >= alive && queued > 0;
    saturated_streak_ = saturated ? saturated_streak_ + 1 : 0;
    HealthState s = HealthState::kOk;
    if (saturated) {
      s = saturated_streak_ >= options_.saturation_critical_samples
              ? HealthState::kCritical
              : HealthState::kWarn;
    }
    SetCondition(kExecutorSaturation, s,
                 std::to_string(busy) + "/" + std::to_string(alive) +
                     " workers busy, " + std::to_string(queued) +
                     " tasks queued");
  }

  // Admission queue: depth against the configured limit warns; any rejects
  // inside the window mean real work was turned away (critical).
  {
    int64_t depth = value("server.admission.queue_depth");
    int64_t limit = value("server.admission.queue_limit");
    int64_t rejects =
        ring.WindowedDelta("server.admission.rejected_queue_full", w) +
        ring.WindowedDelta("server.admission.rejected_timeout", w);
    HealthState s = HealthState::kOk;
    if (rejects > 0) {
      s = HealthState::kCritical;
    } else if (limit > 0 &&
               static_cast<double>(depth) >=
                   options_.admission_queue_warn_fraction *
                       static_cast<double>(limit)) {
      s = HealthState::kWarn;
    }
    SetCondition(kAdmissionQueue, s,
                 std::to_string(depth) + "/" + std::to_string(limit) +
                     " queued, " + std::to_string(rejects) +
                     " rejects in window");
  }

  // Sustained backpressure: producer threads blocked on full channels.
  {
    double rate = ring.WindowedRate("hyracks.backpressure_wait_us.sum", w);
    HealthState s = HealthState::kOk;
    if (rate >= options_.backpressure_critical_us_per_s) {
      s = HealthState::kCritical;
    } else if (rate >= options_.backpressure_warn_us_per_s) {
      s = HealthState::kWarn;
    }
    SetCondition(kBackpressure, s,
                 FormatRate(rate) + " backpressure us/s in window");
  }

  // Journal overwrite-drops: history being lost before any reader sees it.
  {
    int64_t drops = ring.WindowedDelta("journal.overwrite_drops", w);
    HealthState s = HealthState::kOk;
    if (drops >= options_.journal_drop_critical) {
      s = HealthState::kCritical;
    } else if (drops > 0) {
      s = HealthState::kWarn;
    }
    SetCondition(kJournalDrops, s,
                 std::to_string(drops) + " events dropped in window");
  }

  // Memory-pool exhaustion: pool fully used with jobs waiting behind it.
  {
    int64_t used = value("server.admission.used_bytes");
    int64_t pool = value("server.admission.pool_bytes");
    int64_t depth = value("server.admission.queue_depth");
    HealthState s = HealthState::kOk;
    std::string detail = "admission disabled";
    if (pool > 0) {
      double frac = static_cast<double>(used) / static_cast<double>(pool);
      if (used >= pool && depth > 0) {
        s = HealthState::kCritical;
      } else if (frac >= options_.pool_warn_fraction) {
        s = HealthState::kWarn;
      }
      detail = std::to_string(used) + "/" + std::to_string(pool) +
               " pool bytes used, " + std::to_string(depth) + " waiting";
    }
    SetCondition(kMemoryPool, s, std::move(detail));
  }

  // Write stalls: ingest writes paying synchronous flush time.
  {
    double rate = ring.WindowedRate("storage.lsm.write_stall_us.sum", w);
    HealthState s = HealthState::kOk;
    if (rate >= options_.write_stall_critical_us_per_s) {
      s = HealthState::kCritical;
    } else if (rate >= options_.write_stall_warn_us_per_s) {
      s = HealthState::kWarn;
    }
    SetCondition(kWriteStall, s,
                 FormatRate(rate) + " write-stall us/s in window");
  }

  // Compaction backlog: flush/merge jobs queued behind the background
  // worker pool. A spike is normal (warn); a sustained backlog means
  // maintenance can't keep up with ingest (critical) and write
  // amplification is about to climb.
  {
    int64_t queued = value("storage.compaction.queued");
    int64_t running = value("storage.compaction.running");
    bool backlogged = queued >= options_.compaction_backlog_warn_depth;
    backlog_streak_ = backlogged ? backlog_streak_ + 1 : 0;
    HealthState s = HealthState::kOk;
    if (backlogged) {
      s = backlog_streak_ >= options_.compaction_backlog_critical_samples
              ? HealthState::kCritical
              : HealthState::kWarn;
    }
    SetCondition(kCompactionBacklog, s,
                 std::to_string(queued) + " jobs queued, " +
                     std::to_string(running) + " running");
  }

  HealthState overall = HealthState::kOk;
  for (const auto& c : conditions_) {
    overall = std::max(overall, c.state,
                       [](HealthState a, HealthState b) {
                         return static_cast<int>(a) < static_cast<int>(b);
                       });
  }
  static metrics::Gauge* health_gauge =
      metrics::MetricsRegistry::Default().GetGauge("server.health.state");
  health_gauge->Set(static_cast<int64_t>(overall));
}

HealthState HealthWatchdog::overall() const {
  std::lock_guard<std::mutex> lock(mu_);
  HealthState overall = HealthState::kOk;
  for (const auto& c : conditions_) {
    if (static_cast<int>(c.state) > static_cast<int>(overall)) {
      overall = c.state;
    }
  }
  return overall;
}

std::vector<HealthCondition> HealthWatchdog::Conditions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conditions_;
}

uint64_t HealthWatchdog::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transitions_;
}

std::string HealthWatchdog::SummaryJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  HealthState overall = HealthState::kOk;
  for (const auto& c : conditions_) {
    if (static_cast<int>(c.state) > static_cast<int>(overall)) {
      overall = c.state;
    }
  }
  std::string out = "{ \"overall\": \"";
  out += HealthStateName(overall);
  out += "\", \"conditions\": [ ";
  for (size_t i = 0; i < conditions_.size(); ++i) {
    const HealthCondition& c = conditions_[i];
    if (i) out += ", ";
    out += "{ \"name\": ";
    AppendJsonString(c.name, &out);
    out += ", \"state\": \"";
    out += HealthStateName(c.state);
    out += "\", \"detail\": ";
    AppendJsonString(c.detail, &out);
    out += " }";
  }
  out += " ] }";
  return out;
}

}  // namespace server
}  // namespace asterix
