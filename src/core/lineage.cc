#include "core/lineage.h"

#include <set>

#include "common/logging.h"

namespace flinkless::core {

using dataflow::NodeId;
using dataflow::OpKind;
using dataflow::PlanNode;

std::string DependencyKindName(DependencyKind kind) {
  return kind == DependencyKind::kNarrow ? "narrow" : "wide";
}

LineageAnalysis::LineageAnalysis(const dataflow::Plan* plan) : plan_(plan) {
  FLINKLESS_CHECK(plan_ != nullptr, "lineage analysis needs a plan");
  kinds_.resize(plan_->num_nodes());
  // A local input keeps partition p on partition p; a shuffled or
  // broadcast one feeds every output partition from every input partition.
  for (const PlanNode& node : plan_->nodes()) {
    for (const dataflow::InputRoute& route : dataflow::InputRoutes(node)) {
      kinds_[node.id].push_back(route.kind == dataflow::InputRoute::kLocal
                                    ? DependencyKind::kNarrow
                                    : DependencyKind::kWide);
    }
  }
}

DependencyKind LineageAnalysis::KindOf(NodeId node,
                                       size_t input_index) const {
  FLINKLESS_CHECK(node >= 0 && static_cast<size_t>(node) < kinds_.size() &&
                      input_index < kinds_[node].size(),
                  "no such edge");
  return kinds_[node][input_index];
}

bool LineageAnalysis::AllNarrowUpstream(NodeId node) const {
  std::set<NodeId> visited;
  std::vector<NodeId> stack{node};
  while (!stack.empty()) {
    NodeId current = stack.back();
    stack.pop_back();
    if (!visited.insert(current).second) continue;
    const PlanNode& n = plan_->node(current);
    for (size_t i = 0; i < n.inputs.size(); ++i) {
      if (kinds_[current][i] == DependencyKind::kWide) return false;
      stack.push_back(n.inputs[i]);
    }
  }
  return true;
}

int64_t LineageAnalysis::TasksToRebuild(NodeId node, int partition,
                                        int num_partitions) const {
  FLINKLESS_CHECK(num_partitions > 0 && partition >= 0 &&
                      partition < num_partitions,
                  "bad partition arguments");
  // BFS over (node, partition) task identifiers.
  std::set<std::pair<NodeId, int>> needed;
  std::vector<std::pair<NodeId, int>> stack;
  auto push = [&](NodeId n, int p) {
    if (plan_->node(n).kind == OpKind::kSource) return;  // durable input
    if (needed.emplace(n, p).second) stack.emplace_back(n, p);
  };
  push(node, partition);
  while (!stack.empty()) {
    auto [current, p] = stack.back();
    stack.pop_back();
    const PlanNode& n = plan_->node(current);
    for (size_t i = 0; i < n.inputs.size(); ++i) {
      if (kinds_[current][i] == DependencyKind::kNarrow) {
        push(n.inputs[i], p);
      } else {
        for (int q = 0; q < num_partitions; ++q) push(n.inputs[i], q);
      }
    }
  }
  return static_cast<int64_t>(needed.size());
}

int64_t LineageAnalysis::IterativeRebuildTasks(int64_t tasks_per_superstep,
                                               int iterations) {
  // A wide dependency inside the superstep makes every partition of
  // iteration i depend on all partitions of iteration i-1, transitively
  // back to the start: the whole history is replayed.
  return tasks_per_superstep * iterations;
}

std::string LineageAnalysis::ToString() const {
  std::string out;
  for (const PlanNode& node : plan_->nodes()) {
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      const PlanNode& input = plan_->node(node.inputs[i]);
      out += "  " + node.name + " <- " + input.name + ": " +
             DependencyKindName(kinds_[node.id][i]) + "\n";
    }
  }
  return out;
}

}  // namespace flinkless::core
