#include "hyracks/job.h"

#include <algorithm>
#include <map>

namespace asterix {
namespace hyracks {

void Emitter::PushBatch(std::shared_ptr<storage::column::ColumnBatch> batch) {
  if (batch == nullptr) return;
  for (uint32_t row : batch->sel.rows) {
    Push({batch->MaterializeRow(row)});
  }
}

const char* ConnectorTypeName(ConnectorType t) {
  switch (t) {
    case ConnectorType::kOneToOne: return "OneToOne";
    case ConnectorType::kMToNPartitioning: return "MToNPartitioning";
    case ConnectorType::kMToNReplicating: return "MToNReplicating";
    case ConnectorType::kMToNPartitioningMerging: return "MToNPartitioningMerging";
    case ConnectorType::kLocalityAwareMToNPartitioning:
      return "LocalityAwareMToNPartitioning";
    case ConnectorType::kHashPartitioningShuffle: return "HashPartitioningShuffle";
  }
  return "?";
}

int JobSpec::AddOperator(OperatorDescriptor op) {
  op.id = static_cast<int>(operators.size());
  operators.push_back(std::move(op));
  return operators.back().id;
}

int JobSpec::Connect(ConnectorType type, int src_op, int dst_op, int dst_port,
                     std::function<uint64_t(const Tuple&)> hash,
                     TupleCompare merge) {
  ConnectorDescriptor c;
  c.id = static_cast<int>(connectors.size());
  c.type = type;
  c.src_op = src_op;
  c.dst_op = dst_op;
  c.dst_port = dst_port;
  c.partition_hash = std::move(hash);
  c.merge_compare = std::move(merge);
  connectors.push_back(std::move(c));
  return connectors.back().id;
}

const OperatorDescriptor* JobSpec::FindOperator(int id) const {
  for (const auto& op : operators) {
    if (op.id == id) return &op;
  }
  return nullptr;
}

const char* PortRole(const OperatorDescriptor& op, int port) {
  if (op.num_inputs < 2 || op.blocking_ports.empty()) return "";
  bool blocking = std::find(op.blocking_ports.begin(), op.blocking_ports.end(),
                            port) != op.blocking_ports.end();
  return blocking ? "build" : "probe";
}

std::string JobSpec::ToString() const {
  // Topological listing sources-first, each operator annotated with its
  // incoming connector edge(s) — mirrors Figure 6's rendering.
  std::string out;
  std::map<int, std::vector<const ConnectorDescriptor*>> incoming;
  for (const auto& c : connectors) incoming[c.dst_op].push_back(&c);

  std::vector<int> order;
  std::map<int, int> indegree;
  for (const auto& op : operators) indegree[op.id] = 0;
  for (const auto& c : connectors) ++indegree[c.dst_op];
  std::vector<int> frontier;
  for (const auto& op : operators) {
    if (indegree[op.id] == 0) frontier.push_back(op.id);
  }
  std::map<int, int> remaining = indegree;
  while (!frontier.empty()) {
    int id = frontier.back();
    frontier.pop_back();
    order.push_back(id);
    for (const auto& c : connectors) {
      if (c.src_op == id && --remaining[c.dst_op] == 0) {
        frontier.push_back(c.dst_op);
      }
    }
  }
  for (int id : order) {
    const OperatorDescriptor* op = FindOperator(id);
    for (const auto* c : incoming[id]) {
      const OperatorDescriptor* src = FindOperator(c->src_op);
      std::string edge;
      switch (c->type) {
        case ConnectorType::kOneToOne:
          edge = "1:1";
          break;
        case ConnectorType::kMToNReplicating:
          edge = "n:" + std::to_string(op->parallelism) + " replicating";
          break;
        case ConnectorType::kMToNPartitioningMerging:
          edge = "n:m partitioning-merging";
          break;
        default:
          edge = "n:m partitioning";
      }
      std::string role = PortRole(*op, c->dst_port);
      out += "  |" + edge + "|  (from " + src->name +
             (role.empty() ? "" : ", " + role) + ")\n";
    }
    out += op->name + "  [x" + std::to_string(op->parallelism) + "]\n";
  }
  return out;
}

StagePlan ComputeStages(const JobSpec& job) {
  // Expand to activities: an operator with blocking ports becomes
  // (consume-activity per blocking port) -> output-activity; otherwise a
  // single pipelined activity.
  StagePlan plan;
  // stage level per operator output activity.
  std::map<int, int> out_level;
  // Iterate to fixpoint (DAG, so bounded by |ops|).
  for (size_t iter = 0; iter < job.operators.size() + 1; ++iter) {
    bool changed = false;
    for (const auto& op : job.operators) {
      int level = 0;
      for (const auto& c : job.connectors) {
        if (c.dst_op != op.id) continue;
        auto it = out_level.find(c.src_op);
        int src_level = it == out_level.end() ? 0 : it->second;
        bool blocking =
            std::find(op.blocking_ports.begin(), op.blocking_ports.end(),
                      c.dst_port) != op.blocking_ports.end();
        level = std::max(level, src_level + (blocking ? 1 : 0));
      }
      if (!out_level.count(op.id) || out_level[op.id] != level) {
        out_level[op.id] = level;
        changed = true;
      }
    }
    if (!changed) break;
  }
  int max_level = 0;
  for (const auto& [id, level] : out_level) {
    (void)id;
    max_level = std::max(max_level, level);
  }
  plan.stages.resize(max_level + 1);
  for (const auto& op : job.operators) {
    int level = out_level[op.id];
    if (!op.blocking_ports.empty()) {
      // Consume-activities run one stage earlier than the output activity.
      plan.stages[std::max(0, level - 1)].push_back(
          Activity{op.id, op.name + ":build", false});
      plan.stages[level].push_back(Activity{op.id, op.name + ":emit", true});
    } else {
      plan.stages[level].push_back(Activity{op.id, op.name, true});
    }
  }
  return plan;
}

std::string StagePlan::ToString() const {
  std::string out;
  for (size_t i = 0; i < stages.size(); ++i) {
    out += "stage " + std::to_string(i) + ":";
    for (const auto& a : stages[i]) out += " " + a.name;
    out += "\n";
  }
  return out;
}

}  // namespace hyracks
}  // namespace asterix
