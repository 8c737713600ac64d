// Self-test of the benchmark's own parts: the summary statistics, the answer
// checker, and a tiny-scale pass of every workload against the engine.
//
//   perfbench_selftest <work-dir>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "adm/value.h"
#include "bench.h"
#include "stats.h"
#include "suite.h"

namespace {

using asterix::adm::RecordBuilder;
using asterix::adm::Value;
using perfbench::Expected;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestStats() {
  using perfbench::GeoMean;
  using perfbench::Median;
  using perfbench::SamplesBeyond;
  using perfbench::TailPercentile;
  Expect(Median({3, 1, 2}) == 2, "median of an odd count");
  Expect(Median({4, 1, 3, 2}) == 2.5, "median of an even count");
  Expect(Median({}) == 0, "median of nothing");
  Expect(Near(GeoMean({1, 4, 16}), 4), "geometric mean");
  Expect(GeoMean({2, 0}) == 0, "geometric mean with a zero");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(SamplesBeyond(1000, 0.99) == 10, "ten samples beyond p99 of 1000");
  auto p99 = TailPercentile(v, 0.99);
  Expect(p99.has_value() && *p99 == 990, "p99 of 1..1000 is 990");
  v.pop_back();
  Expect(SamplesBeyond(999, 0.99) == 9, "nine samples beyond p99 of 999");
  Expect(!TailPercentile(v, 0.99).has_value(),
         "p99 of 999 samples has too few beyond it");
  auto p50 = TailPercentile({10, 1, 9, 2, 8, 3, 7, 4, 6, 5, 11, 12, 13, 14,
                             15, 16, 17, 18, 19, 20},
                            0.5);
  Expect(p50.has_value() && *p50 == 10, "median by nearest rank");
}

Value Pair(int64_t author, int64_t cnt) {
  return RecordBuilder()
      .Add("author", Value::Int64(author))
      .Add("cnt", Value::Int64(cnt))
      .Build();
}

void TestChecker() {
  std::string why;
  // Top-k with a tie at the last rank: either tied author may come back.
  Expected top;
  top.kind = Expected::Kind::kTopK;
  top.top_counts = {5, 3, 2};
  top.candidates = {{7, 5}, {8, 3}, {9, 2}, {10, 2}};
  std::vector<Value> got = {Pair(7, 5), Pair(8, 3), Pair(10, 2)};
  Expect(perfbench::CheckAnswer(top, got, &why), "top-k accepts a tied author");
  got[2] = Pair(9, 2);
  Expect(perfbench::CheckAnswer(top, got, &why), "top-k accepts the other tie");
  got[2] = Pair(11, 2);
  Expect(!perfbench::CheckAnswer(top, got, &why),
         "top-k rejects an author outside the candidates");
  got[2] = Pair(8, 3);
  Expect(!perfbench::CheckAnswer(top, got, &why),
         "top-k rejects a wrong count sequence");

  Expected pairs;
  pairs.kind = Expected::Kind::kPairs;
  pairs.count = 2;
  pairs.fingerprint =
      perfbench::PairHash("Ann", "hi") + perfbench::PairHash("Bob", "yo");
  auto row = [](const char* name, const char* msg) {
    return RecordBuilder()
        .Add("name", Value::String(name))
        .Add("msg", Value::String(msg))
        .Build();
  };
  Expect(perfbench::CheckAnswer(pairs, {row("Bob", "yo"), row("Ann", "hi")},
                                &why),
         "join pairs in any order");
  Expect(!perfbench::CheckAnswer(pairs, {row("Bob", "hi"), row("Ann", "yo")},
                                 &why),
         "join pairs with swapped messages");

  Expected avg;
  avg.kind = Expected::Kind::kAvg;
  avg.avg = 30.25;
  Expect(perfbench::CheckAnswer(avg, {Value::Double(30.25 + 1e-12)}, &why),
         "average within tolerance");
  Expect(!perfbench::CheckAnswer(avg, {Value::Double(30.26)}, &why),
         "average outside tolerance");

  Expected count;
  count.kind = Expected::Kind::kCount;
  count.count = 12;
  Expect(perfbench::CheckAnswer(count, {Value::Int64(12)}, &why), "count");
  Expect(!perfbench::CheckAnswer(count, {Value::Int64(13)}, &why),
         "wrong count");
}

perfbench::RunResult RunTiny(const std::string& workload,
                             const std::string& dir, bool corrupt) {
  perfbench::RunOptions opts;
  opts.workload = workload;
  opts.seed = 7;
  opts.seconds = 0.001;
  opts.tiny = true;
  opts.work_dir = dir + "/" + workload;
  opts.corrupt_one_answer = corrupt;
  perfbench::RunResult result;
  std::string error;
  Expect(perfbench::RunWorkload(opts, &result, &error),
         workload + " runs: " + error);
  return result;
}

void TestWorkloads(const std::string& dir) {
  for (const char* w : {"analytics_row", "analytics_column", "oltp_mix"}) {
    perfbench::RunResult r = RunTiny(w, dir, false);
    Expect(r.attempted > 0 && r.failed == 0 && r.correct,
           std::string(w) + " ends with zero failures (" +
               std::to_string(r.failed) + " of " +
               std::to_string(r.attempted) + " failed)");
    for (const auto& m : r.metrics) {
      Expect(m.value > 0, std::string(w) + " reports " + m.name + " > 0");
    }
  }
  perfbench::RunResult bad = RunTiny("analytics_row", dir, true);
  Expect(bad.failed == 1 && !bad.correct,
         "a corrupted expected answer counts as one failed operation (" +
             std::to_string(bad.failed) + " failed)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <work-dir>\n");
    return 2;
  }
  perfbench::PinEngineEnvironment();
  TestStats();
  TestChecker();
  TestWorkloads(argv[1]);
  if (failures == 0) std::printf("perfbench self-test passed\n");
  return failures == 0 ? 0 : 1;
}
