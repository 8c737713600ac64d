// Benchmark program: runs one workload and prints, as its last line, one
// JSON object with the operation counts and the metrics. See README.md.
//
//   perfbench --workload <analytics_row|analytics_column|oltp_mix>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::PinEngineEnvironment();
  perfbench::RunOptions opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      opts.workload = value;
    } else if (std::strcmp(key, "--seed") == 0) {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
    } else if (std::strcmp(key, "--seconds") == 0) {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (std::strcmp(key, "--trace") == 0) {
      opts.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(key, "--work-dir") == 0) {
      opts.work_dir = value;
    } else {
      return Usage((std::string("unknown argument ") + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in pairs");
  if (opts.workload.empty() || opts.work_dir.empty()) {
    return Usage("--workload and --work-dir are required");
  }

  perfbench::RunResult result;
  std::string error;
  if (!perfbench::RunWorkload(opts, &result, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::string metrics;
  for (const auto& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
