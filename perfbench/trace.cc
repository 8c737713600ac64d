#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::Add(int64_t id, int64_t parent, uint64_t request,
                 std::string name, double start_us, double end_us) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = request;
  s.name = std::move(name);
  s.start_us = start_us;
  s.end_us = end_us;
  spans_.push_back(std::move(s));
}

void Tracer::AddProfile(int64_t parent, uint64_t request, double call_start_us,
                        const asterix::hyracks::JobProfile& profile) {
  const auto& ph = profile.phases;
  const std::pair<const char*, uint64_t> phases[] = {
      {"api.phase.parse", ph.parse_us},
      {"api.phase.optimize", ph.optimize_us},
      {"api.phase.admission", ph.admission_us},
      {"api.phase.execute", ph.execute_us},
      {"api.phase.result", ph.result_us}};
  double t = call_start_us;
  for (const auto& [name, us] : phases) {
    Add(NewId(), parent, request, name, t, t + static_cast<double>(us));
    t += static_cast<double>(us);
  }
  // Operator spans are timed from job submission, where admission begins.
  double job_start = call_start_us + static_cast<double>(ph.parse_us) +
                     static_cast<double>(ph.optimize_us);
  for (const auto& span : profile.spans) {
    Add(NewId(), parent, request,
        "hyracks.op." + span.op_name + "#" + std::to_string(span.instance),
        job_start + span.start_ms * 1000, job_start + span.end_ms * 1000);
  }
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name;
    for (char c : s.name) {
      if (c == '"' || c == '\\') name.push_back('\\');
      name.push_back(c);
    }
    std::fprintf(f,
                 "{\"id\": %lld, \"parent\": %lld, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), name.c_str(),
                 s.start_us, s.end_us, i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
