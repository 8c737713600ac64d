#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// The three workloads. Each builds a fresh AsterixInstance, measures, checks
// every answer against the plain-C++ model, and returns its metrics.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  /// analytics_row, analytics_column or oltp_mix.
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the run's fixed amount of work: suite passes (analytics) or
  /// requests per client (oltp_mix) per nominal second; see README.md.
  double seconds = 10;
  /// Traced run: per-layer metrics and a span file instead of end-to-end
  /// metrics.
  bool trace = false;
  /// Instance data and the span file go here; it is emptied first.
  std::string work_dir;
  /// Small data and few requests, for the self-test.
  bool tiny = false;
  /// Self-test only (analytics): corrupts the expected answer of the first
  /// record lookup, which must then count as a failed operation.
  bool corrupt_one_answer = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  /// False when any operation that did not fail returned a wrong answer;
  /// wrong answers also count in `failed`.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload; false (with `error` set) if it could not be set up.
bool RunWorkload(const RunOptions& opts, RunResult* out, std::string* error);

/// Pins every environment-driven engine default, so no exported variable
/// changes what is measured. Must run before the engine is first used.
void PinEngineEnvironment();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
