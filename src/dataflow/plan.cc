#include "dataflow/plan.h"

#include <algorithm>

#include "common/logging.h"

namespace flinkless::dataflow {

std::string OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSource:
      return "Source";
    case OpKind::kMap:
      return "Map";
    case OpKind::kFlatMap:
      return "FlatMap";
    case OpKind::kFilter:
      return "Filter";
    case OpKind::kProject:
      return "Project";
    case OpKind::kReduceByKey:
      return "ReduceByKey";
    case OpKind::kGroupReduceByKey:
      return "GroupReduce";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kCoGroup:
      return "CoGroup";
    case OpKind::kCross:
      return "Cross";
    case OpKind::kUnion:
      return "Union";
  }
  return "?";
}

NodeId Plan::Add(PlanNode node) {
  node.id = static_cast<NodeId>(nodes_.size());
  for (NodeId in : node.inputs) {
    FLINKLESS_CHECK(in >= 0 && in < node.id,
                    "plan node '" << node.name << "' references input " << in
                                  << " which does not precede it");
  }
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

NodeId Plan::Source(const std::string& binding_name) {
  PlanNode n;
  n.kind = OpKind::kSource;
  n.name = binding_name;
  n.source_name = binding_name;
  return Add(std::move(n));
}

NodeId Plan::Map(NodeId input, MapFn fn, const std::string& name) {
  PlanNode n;
  n.kind = OpKind::kMap;
  n.name = name;
  n.inputs = {input};
  n.map_fn = std::move(fn);
  return Add(std::move(n));
}

NodeId Plan::FlatMap(NodeId input, FlatMapFn fn, const std::string& name) {
  PlanNode n;
  n.kind = OpKind::kFlatMap;
  n.name = name;
  n.inputs = {input};
  n.flat_map_fn = std::move(fn);
  return Add(std::move(n));
}

NodeId Plan::Filter(NodeId input, FilterFn fn, const std::string& name) {
  PlanNode n;
  n.kind = OpKind::kFilter;
  n.name = name;
  n.inputs = {input};
  n.filter_fn = std::move(fn);
  return Add(std::move(n));
}

NodeId Plan::Project(NodeId input, std::vector<int> columns,
                     const std::string& name) {
  PlanNode n;
  n.kind = OpKind::kProject;
  n.name = name;
  n.inputs = {input};
  n.project_columns = std::move(columns);
  return Add(std::move(n));
}

NodeId Plan::ReduceByKey(NodeId input, KeyColumns key, CombineFn fn,
                         const std::string& name, bool pre_combine) {
  PlanNode n;
  n.kind = OpKind::kReduceByKey;
  n.name = name;
  n.inputs = {input};
  n.left_key = std::move(key);
  n.combine_fn = std::move(fn);
  n.pre_combine = pre_combine;
  return Add(std::move(n));
}

NodeId Plan::GroupReduceByKey(NodeId input, KeyColumns key, GroupReduceFn fn,
                              const std::string& name) {
  PlanNode n;
  n.kind = OpKind::kGroupReduceByKey;
  n.name = name;
  n.inputs = {input};
  n.left_key = std::move(key);
  n.group_reduce_fn = std::move(fn);
  return Add(std::move(n));
}

NodeId Plan::Join(NodeId left, NodeId right, KeyColumns left_key,
                  KeyColumns right_key, JoinFn fn, const std::string& name) {
  PlanNode n;
  n.kind = OpKind::kJoin;
  n.name = name;
  n.inputs = {left, right};
  n.left_key = std::move(left_key);
  n.right_key = std::move(right_key);
  n.join_fn = std::move(fn);
  return Add(std::move(n));
}

NodeId Plan::CoGroup(NodeId left, NodeId right, KeyColumns left_key,
                     KeyColumns right_key, CoGroupFn fn,
                     const std::string& name) {
  PlanNode n;
  n.kind = OpKind::kCoGroup;
  n.name = name;
  n.inputs = {left, right};
  n.left_key = std::move(left_key);
  n.right_key = std::move(right_key);
  n.cogroup_fn = std::move(fn);
  return Add(std::move(n));
}

NodeId Plan::Cross(NodeId left, NodeId right, JoinFn fn,
                   const std::string& name) {
  PlanNode n;
  n.kind = OpKind::kCross;
  n.name = name;
  n.inputs = {left, right};
  n.join_fn = std::move(fn);
  return Add(std::move(n));
}

NodeId Plan::Union(NodeId left, NodeId right, const std::string& name) {
  PlanNode n;
  n.kind = OpKind::kUnion;
  n.name = name;
  n.inputs = {left, right};
  return Add(std::move(n));
}

void Plan::DeclareReduce(NodeId node, ReduceKind kind, int value_col) {
  FLINKLESS_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size(),
                  "DeclareReduce on unknown node " << node);
  PlanNode& n = nodes_[node];
  FLINKLESS_CHECK(n.kind == OpKind::kReduceByKey,
                  "DeclareReduce on '" << n.name << "' ("
                                       << OpKindName(n.kind) << ")");
  FLINKLESS_CHECK(kind != ReduceKind::kNone && value_col >= 0,
                  "DeclareReduce('" << n.name
                                    << "') needs a kind and a value column");
  n.reduce_kind = kind;
  n.reduce_value_col = value_col;
}

void Plan::Output(NodeId node, const std::string& output_name) {
  outputs_.emplace_back(output_name, node);
}

std::vector<InputRoute> InputRoutes(const PlanNode& node) {
  const InputRoute local;
  switch (node.kind) {
    case OpKind::kSource:
      return {};
    case OpKind::kMap:
    case OpKind::kFlatMap:
    case OpKind::kFilter:
    case OpKind::kProject:
      return {local};
    case OpKind::kUnion:
      return {local, local};
    case OpKind::kReduceByKey:
    case OpKind::kGroupReduceByKey:
      return {{InputRoute::kShuffled, &node.left_key, "in",
               node.kind == OpKind::kReduceByKey && node.pre_combine}};
    case OpKind::kJoin:
    case OpKind::kCoGroup:
      return {{InputRoute::kShuffled, &node.left_key, "l"},
              {InputRoute::kShuffled, &node.right_key, "r"}};
    case OpKind::kCross:
      return {local, {InputRoute::kBroadcast}};
  }
  return {};
}

std::vector<std::string> Plan::SourceNames() const {
  std::vector<std::string> names;
  for (const auto& n : nodes_) {
    if (n.kind == OpKind::kSource) names.push_back(n.source_name);
  }
  return names;
}

std::vector<bool> Plan::InvariantNodes(
    const std::vector<std::string>& volatile_bindings) const {
  std::vector<bool> invariant(nodes_.size(), false);
  for (const auto& n : nodes_) {
    if (n.kind == OpKind::kSource) {
      bool is_volatile = false;
      for (const std::string& name : volatile_bindings) {
        if (name == n.source_name) {
          is_volatile = true;
          break;
        }
      }
      invariant[n.id] = !is_volatile;
      continue;
    }
    bool all_invariant = true;
    for (NodeId in : n.inputs) {
      if (!invariant[in]) {
        all_invariant = false;
        break;
      }
    }
    invariant[n.id] = all_invariant;
  }
  return invariant;
}

std::vector<NodeId> Plan::ChainedInto() const {
  std::vector<int> consumers(nodes_.size(), 0);
  std::vector<NodeId> into(nodes_.size(), -1);
  for (const PlanNode& n : nodes_) {
    const std::vector<InputRoute> routes = InputRoutes(n);
    for (size_t i = 0; i < routes.size() && i < n.inputs.size(); ++i) {
      const NodeId in = n.inputs[i];
      const bool streams =
          routes[i].kind == InputRoute::kLocal || routes[i].pre_combine;
      into[in] = ++consumers[in] == 1 && streams ? n.id : -1;
    }
  }
  for (const auto& [name, node] : outputs_) into[node] = -1;
  for (const PlanNode& n : nodes_) {
    if (n.kind == OpKind::kSource) into[n.id] = -1;
  }
  return into;
}

Status Plan::Validate() const {
  if (outputs_.empty()) {
    return Status::FailedPrecondition("plan declares no outputs");
  }
  for (size_t i = 0; i < outputs_.size(); ++i) {
    auto [name, node] = outputs_[i];
    if (node < 0 || static_cast<size_t>(node) >= nodes_.size()) {
      return Status::OutOfRange("output '" + name + "' references node " +
                                std::to_string(node));
    }
    for (size_t j = i + 1; j < outputs_.size(); ++j) {
      if (outputs_[j].first == name) {
        return Status::AlreadyExists("duplicate output name '" + name + "'");
      }
    }
  }
  for (const auto& n : nodes_) {
    const size_t want_inputs = InputRoutes(n).size();
    if (n.inputs.size() != want_inputs) {
      return Status::FailedPrecondition(
          "node '" + n.name + "' (" + OpKindName(n.kind) + ") has " +
          std::to_string(n.inputs.size()) + " inputs, expected " +
          std::to_string(want_inputs));
    }
    for (const KeyColumns* key : {&n.left_key, &n.right_key}) {
      if (std::any_of(key->begin(), key->end(), [](int c) { return c < 0; })) {
        return Status::FailedPrecondition(OpKindName(n.kind) + " '" + n.name +
                                          "' has a negative key column");
      }
    }
    switch (n.kind) {
      case OpKind::kMap:
        if (!n.map_fn) {
          return Status::FailedPrecondition("Map '" + n.name + "' has no UDF");
        }
        break;
      case OpKind::kFlatMap:
        if (!n.flat_map_fn) {
          return Status::FailedPrecondition("FlatMap '" + n.name +
                                            "' has no UDF");
        }
        break;
      case OpKind::kFilter:
        if (!n.filter_fn) {
          return Status::FailedPrecondition("Filter '" + n.name +
                                            "' has no UDF");
        }
        break;
      case OpKind::kReduceByKey:
        if (!n.combine_fn || n.left_key.empty()) {
          return Status::FailedPrecondition("ReduceByKey '" + n.name +
                                            "' needs a key and a combiner");
        }
        break;
      case OpKind::kGroupReduceByKey:
        if (!n.group_reduce_fn || n.left_key.empty()) {
          return Status::FailedPrecondition("GroupReduce '" + n.name +
                                            "' needs a key and a UDF");
        }
        break;
      case OpKind::kJoin:
        if (!n.join_fn || n.left_key.empty() ||
            n.left_key.size() != n.right_key.size()) {
          return Status::FailedPrecondition(
              "Join '" + n.name + "' needs a UDF and matching key arities");
        }
        break;
      case OpKind::kCoGroup:
        if (!n.cogroup_fn || n.left_key.empty() ||
            n.left_key.size() != n.right_key.size()) {
          return Status::FailedPrecondition(
              "CoGroup '" + n.name + "' needs a UDF and matching key arities");
        }
        break;
      case OpKind::kCross:
        if (!n.join_fn) {
          return Status::FailedPrecondition("Cross '" + n.name +
                                            "' has no UDF");
        }
        break;
      case OpKind::kProject:
      case OpKind::kUnion:
      case OpKind::kSource:
        break;
    }
  }
  return Status::OK();
}

std::string Plan::Explain() const {
  std::string out;
  for (const auto& n : nodes_) {
    out += "  [" + std::to_string(n.id) + "] " + OpKindName(n.kind) + " '" +
           n.name + "'";
    if (!n.inputs.empty()) {
      out += " <- (";
      for (size_t i = 0; i < n.inputs.size(); ++i) {
        if (i) out += ", ";
        out += std::to_string(n.inputs[i]);
      }
      out += ")";
    }
    if (!n.left_key.empty()) {
      out += " key=[";
      for (size_t i = 0; i < n.left_key.size(); ++i) {
        if (i) out += ",";
        out += std::to_string(n.left_key[i]);
      }
      if (!n.right_key.empty()) {
        out += "]=[";
        for (size_t i = 0; i < n.right_key.size(); ++i) {
          if (i) out += ",";
          out += std::to_string(n.right_key[i]);
        }
      }
      out += "]";
    }
    out += "\n";
  }
  for (const auto& [name, node] : outputs_) {
    out += "  output '" + name + "' = [" + std::to_string(node) + "]\n";
  }
  return out;
}

}  // namespace flinkless::dataflow
