#include "hyracks/profile.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/string_utils.h"
#include "hyracks/job.h"

namespace asterix {
namespace hyracks {

namespace {

std::string FmtMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

std::vector<OperatorRollup> JobProfile::Rollup() const {
  std::vector<OperatorRollup> rollups;
  std::map<int, size_t> index;
  for (const auto& s : spans) {
    auto it = index.find(s.op_id);
    if (it == index.end()) {
      it = index.emplace(s.op_id, rollups.size()).first;
      OperatorRollup r;
      r.op_id = s.op_id;
      r.name = s.op_name;
      rollups.push_back(std::move(r));
    }
    OperatorRollup& r = rollups[it->second];
    ++r.instances;
    r.tuples_in += s.tuples_in;
    r.tuples_out += s.tuples_out;
    r.frames_flushed += s.frames_flushed;
    r.bytes_read += s.bytes_read;
    r.input_wait_us += s.input_wait_us;
    r.output_wait_us += s.output_wait_us;
    r.spill_bytes += s.spill_bytes;
    r.spilled_partitions += s.spilled_partitions;
    r.hash_build_bytes += s.hash_build_bytes;
    r.batches += s.batches;
    r.vec_rows_selected += s.vec_rows_selected;
    r.vec_rows_total += s.vec_rows_total;
    r.kernel_us += s.kernel_us;
    r.filter_dropped += s.filter_dropped;
    r.cpu_us += s.cpu_us;
    r.elapsed_ms = std::max(r.elapsed_ms, s.elapsed_ms());
  }
  return rollups;
}

uint64_t JobProfile::TuplesOut(int op_id) const {
  uint64_t total = 0;
  for (const auto& s : spans) {
    if (s.op_id == op_id) total += s.tuples_out;
  }
  return total;
}

uint64_t JobProfile::TuplesIn(int op_id) const {
  uint64_t total = 0;
  for (const auto& s : spans) {
    if (s.op_id == op_id) total += s.tuples_in;
  }
  return total;
}

std::string JobProfile::ToJson() const {
  std::string out = "{ \"job_id\": " + std::to_string(job_id) +
                    ", \"query_id\": " + std::to_string(query_id) +
                    ", \"elapsed_ms\": " + FmtMs(elapsed_ms) +
                    ", \"startup_ms\": " + FmtMs(startup_ms) +
                    ", \"num_nodes\": " + std::to_string(num_nodes) +
                    ", \"phases\": { \"parse_us\": " +
                    std::to_string(phases.parse_us) + ", \"optimize_us\": " +
                    std::to_string(phases.optimize_us) +
                    ", \"admission_wait_us\": " +
                    std::to_string(phases.admission_us) + ", \"execute_us\": " +
                    std::to_string(phases.execute_us) + ", \"result_us\": " +
                    std::to_string(phases.result_us) +
                    " }, \"operators\": [ ";
  bool first = true;
  for (const auto& r : Rollup()) {
    if (!first) out += ", ";
    first = false;
    out += "{ \"op\": " + std::to_string(r.op_id) + ", \"name\": ";
    AppendJsonString(r.name, &out);
    out += ", \"instances\": " + std::to_string(r.instances) +
           ", \"tuples_in\": " + std::to_string(r.tuples_in) +
           ", \"tuples_out\": " + std::to_string(r.tuples_out) +
           ", \"frames_flushed\": " + std::to_string(r.frames_flushed) +
           ", \"bytes_read\": " + std::to_string(r.bytes_read) +
           ", \"input_wait_us\": " + std::to_string(r.input_wait_us) +
           ", \"output_wait_us\": " + std::to_string(r.output_wait_us) +
           ", \"spill_bytes\": " + std::to_string(r.spill_bytes) +
           ", \"spilled_partitions\": " + std::to_string(r.spilled_partitions) +
           ", \"hash_build_bytes\": " + std::to_string(r.hash_build_bytes) +
           ", \"batches\": " + std::to_string(r.batches) +
           ", \"selected_ratio\": " + FmtMs(r.selected_ratio()) +
           ", \"kernel_us\": " + std::to_string(r.kernel_us) +
           ", \"filter_dropped\": " + std::to_string(r.filter_dropped) +
           ", \"cpu_us\": " + std::to_string(r.cpu_us) +
           ", \"elapsed_ms\": " + FmtMs(r.elapsed_ms) + " }";
  }
  out += " ], \"spans\": [ ";
  first = true;
  for (const auto& s : spans) {
    if (!first) out += ", ";
    first = false;
    out += "{ \"op\": " + std::to_string(s.op_id) + ", \"name\": ";
    AppendJsonString(s.op_name, &out);
    out += ", \"instance\": " + std::to_string(s.instance) +
           ", \"node\": " + std::to_string(s.node) +
           ", \"pipeline\": " + std::to_string(s.pipeline) +
           ", \"start_ms\": " + FmtMs(s.start_ms) +
           ", \"end_ms\": " + FmtMs(s.end_ms) +
           ", \"tuples_in\": " + std::to_string(s.tuples_in) +
           ", \"tuples_out\": " + std::to_string(s.tuples_out) +
           ", \"frames_flushed\": " + std::to_string(s.frames_flushed) +
           ", \"bytes_read\": " + std::to_string(s.bytes_read) +
           ", \"input_wait_us\": " + std::to_string(s.input_wait_us) +
           ", \"output_wait_us\": " + std::to_string(s.output_wait_us) +
           ", \"spill_bytes\": " + std::to_string(s.spill_bytes) +
           ", \"spilled_partitions\": " + std::to_string(s.spilled_partitions) +
           ", \"hash_build_bytes\": " + std::to_string(s.hash_build_bytes) +
           ", \"batches\": " + std::to_string(s.batches) +
           ", \"selected_ratio\": " + FmtMs(s.selected_ratio()) +
           ", \"kernel_us\": " + std::to_string(s.kernel_us) +
           ", \"filter_dropped\": " + std::to_string(s.filter_dropped) +
           ", \"cpu_us\": " + std::to_string(s.cpu_us) +
           ", \"ok\": " + (s.ok ? "true" : "false") + " }";
  }
  out += " ], \"connectors\": [ ";
  first = true;
  for (const auto& c : connectors) {
    if (!first) out += ", ";
    first = false;
    out += "{ \"conn\": " + std::to_string(c.conn_id) + ", \"type\": ";
    AppendJsonString(c.type, &out);
    out += ", \"src_op\": " + std::to_string(c.src_op) +
           ", \"dst_op\": " + std::to_string(c.dst_op) +
           ", \"tuples\": " + std::to_string(c.tuples) +
           ", \"network_tuples\": " + std::to_string(c.network_tuples) + " }";
  }
  out += " ] }";
  return out;
}

std::string JobProfile::ToChromeTrace() const {
  // "X" complete events: ts/dur in microseconds, pid = node, tid =
  // operator instance (partition). Metadata events name each node's row.
  std::string out = "{ \"displayTimeUnit\": \"ms\", \"traceEvents\": [ ";
  bool first = true;
  for (int n = 0; n < num_nodes; ++n) {
    if (!first) out += ", ";
    first = false;
    out += "{ \"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(n) + ", \"args\": { \"name\": \"node" +
           std::to_string(n) + "\" } }";
  }
  if (phases.any()) {
    // Query-lifecycle phases on their own row (pid = num_nodes). Trace time
    // zero is job submission, so parse/optimize sit at negative timestamps
    // and admission/execute/result line up with the operator spans below.
    if (!first) out += ", ";
    first = false;
    out += "{ \"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
           std::to_string(num_nodes) + ", \"args\": { \"name\": \"query" +
           (query_id ? std::to_string(query_id) : std::string()) + "\" } }";
    int64_t ts = -static_cast<int64_t>(phases.parse_us + phases.optimize_us);
    const struct {
      const char* name;
      uint64_t dur;
    } phase_list[] = {{"parse", phases.parse_us},
                      {"optimize", phases.optimize_us},
                      {"admission", phases.admission_us},
                      {"execute", phases.execute_us},
                      {"result", phases.result_us}};
    for (const auto& p : phase_list) {
      if (p.dur == 0) continue;
      out += ", { \"name\": \"" + std::string(p.name) +
             "\", \"cat\": \"phase\", \"ph\": \"X\", \"ts\": " +
             std::to_string(ts) + ", \"dur\": " + std::to_string(p.dur) +
             ", \"pid\": " + std::to_string(num_nodes) +
             ", \"tid\": 0, \"args\": { \"query_id\": " +
             std::to_string(query_id) + " } }";
      ts += static_cast<int64_t>(p.dur);
    }
  }
  for (const auto& s : spans) {
    if (!first) out += ", ";
    first = false;
    out += "{ \"name\": ";
    AppendJsonString(s.op_name, &out);
    out += ", \"cat\": \"operator\", \"ph\": \"X\", \"ts\": " +
           FmtMs(s.start_ms * 1000.0) +
           ", \"dur\": " + FmtMs(std::max(0.0, s.elapsed_ms()) * 1000.0) +
           ", \"pid\": " + std::to_string(s.node) +
           ", \"tid\": " + std::to_string(s.instance) +
           ", \"args\": { \"op\": " + std::to_string(s.op_id) +
           ", \"partition\": " + std::to_string(s.instance) +
           ", \"pipeline\": " + std::to_string(s.pipeline) +
           ", \"tuples_in\": " + std::to_string(s.tuples_in) +
           ", \"tuples_out\": " + std::to_string(s.tuples_out) +
           ", \"frames_flushed\": " + std::to_string(s.frames_flushed) +
           ", \"input_wait_us\": " + std::to_string(s.input_wait_us) +
           ", \"output_wait_us\": " + std::to_string(s.output_wait_us) +
           ", \"spill_bytes\": " + std::to_string(s.spill_bytes) +
           ", \"spilled_partitions\": " + std::to_string(s.spilled_partitions) +
           ", \"hash_build_bytes\": " + std::to_string(s.hash_build_bytes) +
           ", \"batches\": " + std::to_string(s.batches) +
           ", \"kernel_us\": " + std::to_string(s.kernel_us) + " } }";
  }
  out += " ] }";
  return out;
}

std::string AnnotatePlan(const JobSpec& job, const JobProfile& profile) {
  // Same topological listing as JobSpec::ToString, each operator line
  // carrying its actuals and each edge its hop counts.
  std::map<int, OperatorRollup> rollups;
  for (const auto& r : profile.Rollup()) rollups[r.op_id] = r;
  std::map<int, const ConnectorHops*> hops;
  for (const auto& c : profile.connectors) hops[c.conn_id] = &c;

  std::map<int, std::vector<const ConnectorDescriptor*>> incoming;
  for (const auto& c : job.connectors) incoming[c.dst_op].push_back(&c);

  std::vector<int> order;
  std::map<int, int> remaining;
  for (const auto& op : job.operators) remaining[op.id] = 0;
  for (const auto& c : job.connectors) ++remaining[c.dst_op];
  std::vector<int> frontier;
  for (const auto& op : job.operators) {
    if (remaining[op.id] == 0) frontier.push_back(op.id);
  }
  while (!frontier.empty()) {
    int id = frontier.back();
    frontier.pop_back();
    order.push_back(id);
    for (const auto& c : job.connectors) {
      if (c.src_op == id && --remaining[c.dst_op] == 0) {
        frontier.push_back(c.dst_op);
      }
    }
  }

  std::string out = "job profile (";
  if (profile.query_id != 0) {
    out += "query " + std::to_string(profile.query_id) + ", ";
  }
  out += "elapsed " + FmtMs(profile.elapsed_ms) + " ms, startup " +
         FmtMs(profile.startup_ms) + " ms, " +
         std::to_string(profile.num_nodes) + " nodes)\n";
  if (profile.phases.any()) {
    const PhaseSpans& p = profile.phases;
    out += "phases: parse_us=" + std::to_string(p.parse_us) +
           ", optimize_us=" + std::to_string(p.optimize_us) +
           ", admission_wait_us=" + std::to_string(p.admission_us) +
           ", execute_us=" + std::to_string(p.execute_us) +
           ", result_us=" + std::to_string(p.result_us) + "\n";
  }
  for (int id : order) {
    const OperatorDescriptor* op = job.FindOperator(id);
    for (const auto* c : incoming[id]) {
      const OperatorDescriptor* src = job.FindOperator(c->src_op);
      std::string role = PortRole(*op, c->dst_port);
      out += "  |" + std::string(ConnectorTypeName(c->type)) + "|  (from " +
             src->name + (role.empty() ? "" : ", " + role);
      auto hit = hops.find(c->id);
      if (hit != hops.end()) {
        out += ", tuples=" + std::to_string(hit->second->tuples) +
               ", network=" + std::to_string(hit->second->network_tuples);
      }
      out += ")\n";
    }
    out += op->name + "  [x" + std::to_string(op->parallelism) + "]";
    auto rit = rollups.find(id);
    if (rit != rollups.end()) {
      const OperatorRollup& r = rit->second;
      out += "  (actual: tuples_in=" + std::to_string(r.tuples_in) +
             ", tuples_out=" + std::to_string(r.tuples_out);
      if (r.bytes_read > 0) {
        out += ", bytes_read=" + std::to_string(r.bytes_read);
      }
      if (r.input_wait_us > 0) {
        out += ", input_wait_us=" + std::to_string(r.input_wait_us);
      }
      if (r.output_wait_us > 0) {
        out += ", output_wait_us=" + std::to_string(r.output_wait_us);
      }
      if (r.hash_build_bytes > 0) {
        out += ", hash_build_bytes=" + std::to_string(r.hash_build_bytes);
      }
      if (r.batches > 0) {
        char pct[32];
        std::snprintf(pct, sizeof(pct), "%.1f%%", r.selected_ratio() * 100.0);
        out += ", batches=" + std::to_string(r.batches) +
               ", selected=" + pct +
               ", kernel_us=" + std::to_string(r.kernel_us);
      }
      if (r.spilled_partitions > 0 || r.spill_bytes > 0) {
        out += ", spill_bytes=" + std::to_string(r.spill_bytes) +
               ", spilled_partitions=" + std::to_string(r.spilled_partitions);
      }
      if (r.filter_dropped > 0) {
        out += ", filter_dropped=" + std::to_string(r.filter_dropped);
      }
      out += ", ms=" + FmtMs(r.elapsed_ms) + ", instances=" +
             std::to_string(r.instances) + ")";
    }
    out += "\n";
  }
  return out;
}

}  // namespace hyracks
}  // namespace asterix
