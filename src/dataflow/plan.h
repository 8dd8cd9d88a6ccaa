// Plan: the logical dataflow DAG, mirroring the operator vocabulary of the
// paper's Figure 1 (Map, Reduce, Join, plus the usual relatives). A Plan is
// built once and executed many times — iterations re-run the same plan with
// fresh bindings for its named sources.

#ifndef FLINKLESS_DATAFLOW_PLAN_H_
#define FLINKLESS_DATAFLOW_PLAN_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataflow/record.h"

namespace flinkless::dataflow {

/// Index of a node within its Plan. Plans are acyclic by construction:
/// operators can only reference nodes created before them.
using NodeId = int;

/// Record -> record.
using MapFn = std::function<Record(const Record&)>;

/// Record -> zero or more records appended to `out`.
using FlatMapFn = std::function<void(const Record&, std::vector<Record>*)>;

/// Keep the record?
using FilterFn = std::function<bool(const Record&)>;

/// Associative combiner for ReduceByKey. Both inputs share the key; the
/// result must carry the same key columns (validated by the executor).
using CombineFn = std::function<Record(const Record&, const Record&)>;

/// Full-group reducer: (key projection, all records of the group) -> record.
using GroupReduceFn =
    std::function<Record(const Record&, const std::vector<Record>&)>;

/// Joined pair -> output record.
using JoinFn = std::function<Record(const Record&, const Record&)>;

/// Per-key cogroup: (key projection, left group, right group) -> records
/// appended to `out`. Either group may be empty.
using CoGroupFn =
    std::function<void(const Record&, const std::vector<Record>&,
                       const std::vector<Record>&, std::vector<Record>*)>;

/// Operator kind of a plan node.
enum class OpKind {
  kSource,
  kMap,
  kFlatMap,
  kFilter,
  kProject,
  kReduceByKey,
  kGroupReduceByKey,
  kJoin,
  kCoGroup,
  kCross,
  kUnion,
};

/// Stable name of an operator kind ("Source", "Join", ...).
std::string OpKindName(OpKind kind);

/// Declared shape of a ReduceByKey combiner (Plan::DeclareReduce). The
/// executor uses it to run typed columnar folds: a declaration promises the
/// combiner is equivalent to the named fold over the value column, with
/// records shaped (int64 key, value) and key == {0}. kMinInt64/kMaxInt64
/// must keep the *accumulator* on ties (<= / >= comparisons), matching the
/// arrival-order record fold. kSumDouble folds sequentially in arrival
/// order (never reassociated).
enum class ReduceKind {
  kNone,
  kSumInt64,
  kSumDouble,
  kMinInt64,
  kMaxInt64,
};

/// One operator in the DAG. Only the fields relevant to its kind are set.
struct PlanNode {
  NodeId id = -1;
  OpKind kind = OpKind::kSource;
  /// Display name, e.g. "candidate-label"; shows up in Explain() and stats.
  std::string name;
  std::vector<NodeId> inputs;

  /// kSource: the binding name resolved at execution time.
  std::string source_name;

  /// Key columns. kReduceByKey/kGroupReduceByKey use `left_key`;
  /// joins/cogroups use both.
  KeyColumns left_key;
  KeyColumns right_key;

  /// kProject: columns to keep, in order.
  std::vector<int> project_columns;

  /// kReduceByKey: run the combiner before the shuffle (Flink-style
  /// pre-aggregation). Exposed so experiments can quantify its effect on
  /// message counts.
  bool pre_combine = true;

  /// kReduceByKey: declared combiner shape (Plan::DeclareReduce) and the
  /// value column it folds. kNone means undeclared — generic combine only.
  ReduceKind reduce_kind = ReduceKind::kNone;
  int reduce_value_col = -1;

  MapFn map_fn;
  FlatMapFn flat_map_fn;
  FilterFn filter_fn;
  CombineFn combine_fn;
  GroupReduceFn group_reduce_fn;
  JoinFn join_fn;
  CoGroupFn cogroup_fn;
};

/// How one input of an operator reaches the partitions that consume it.
struct InputRoute {
  enum Kind {
    /// Partition p reads partition p of the input (Map, FlatMap, Filter,
    /// Project, Union, and Cross's left side).
    kLocal,
    /// Hash-partitioned on `key` first (ReduceByKey, GroupReduceByKey, and
    /// both sides of Join and CoGroup).
    kShuffled,
    /// Copied whole to every partition (Cross's right side).
    kBroadcast,
  };
  Kind kind = kLocal;
  /// kShuffled: the node's key this input is partitioned on (`left_key`
  /// for input 0, `right_key` for input 1).
  const KeyColumns* key = nullptr;
  /// kShuffled: message-log port of the post-shuffle channel — "in" for a
  /// single-input operator, "l"/"r" for the sides of a two-input one.
  const char* port = nullptr;
  /// kShuffled: fold with the combiner before the shuffle (a ReduceByKey
  /// with `pre_combine` set).
  bool pre_combine = false;
};

/// The routes of `node`'s inputs, one entry per input its kind takes. This
/// is the single local / shuffled / broadcast decision: Plan::Validate
/// checks arities against it, and the executor, confined replay and
/// lineage analysis all move inputs by it.
std::vector<InputRoute> InputRoutes(const PlanNode& node);

/// Builder and container of the dataflow DAG.
class Plan {
 public:
  /// A named input placeholder; the executor resolves it from its bindings.
  NodeId Source(const std::string& binding_name);

  NodeId Map(NodeId input, MapFn fn, const std::string& name);
  NodeId FlatMap(NodeId input, FlatMapFn fn, const std::string& name);
  NodeId Filter(NodeId input, FilterFn fn, const std::string& name);
  NodeId Project(NodeId input, std::vector<int> columns,
                 const std::string& name);

  /// Shuffle on `key`, then fold each group with the associative `fn`.
  /// When `pre_combine` is true the fold also runs before the shuffle,
  /// reducing shuffled messages.
  NodeId ReduceByKey(NodeId input, KeyColumns key, CombineFn fn,
                     const std::string& name, bool pre_combine = true);

  /// Shuffle on `key`, then reduce each complete group at once.
  NodeId GroupReduceByKey(NodeId input, KeyColumns key, GroupReduceFn fn,
                          const std::string& name);

  /// Inner equi-join.
  NodeId Join(NodeId left, NodeId right, KeyColumns left_key,
              KeyColumns right_key, JoinFn fn, const std::string& name);

  /// Full cogroup (subsumes outer joins).
  NodeId CoGroup(NodeId left, NodeId right, KeyColumns left_key,
                 KeyColumns right_key, CoGroupFn fn, const std::string& name);

  /// Cartesian product: `fn` is applied to every (left, right) pair. The
  /// right side is broadcast to all partitions, so keep it small (it exists
  /// for scalar-broadcast patterns like PageRank's dangling mass).
  NodeId Cross(NodeId left, NodeId right, JoinFn fn, const std::string& name);

  /// Bag union (no dedup).
  NodeId Union(NodeId left, NodeId right, const std::string& name);

  /// Declares the combiner of an existing ReduceByKey node as a typed fold
  /// over `value_col` (checked; kind must not be kNone). See ReduceKind for
  /// the equivalence contract.
  void DeclareReduce(NodeId node, ReduceKind kind, int value_col);

  /// Marks `node` as a named output of the plan.
  void Output(NodeId node, const std::string& output_name);

  size_t num_nodes() const { return nodes_.size(); }
  const PlanNode& node(NodeId id) const { return nodes_[id]; }
  const std::vector<PlanNode>& nodes() const { return nodes_; }
  const std::vector<std::pair<std::string, NodeId>>& outputs() const {
    return outputs_;
  }

  /// Names of all source bindings the plan expects.
  std::vector<std::string> SourceNames() const;

  /// Loop-invariant analysis for iterative execution: entry i says whether
  /// node i reads the same data on every execution of the plan. A source is
  /// invariant unless its binding name appears in `volatile_bindings` (the
  /// bindings an iteration driver rebinds every superstep — workset,
  /// solution, state); every other node is invariant iff all of its inputs
  /// are. With a cache, the executor keeps an invariant shuffled input of a
  /// loop-variant join or cogroup (and a join build side's index) across
  /// supersteps; an invariant node itself runs every superstep.
  std::vector<bool> InvariantNodes(
      const std::vector<std::string>& volatile_bindings) const;

  /// Operator chaining (DESIGN.md §17): entry i is the node that node i
  /// streams its rows into, partition by partition, instead of
  /// materializing them, or -1 when node i is materialized. A node chains
  /// when it is not a source and not a plan output, has exactly one
  /// consumer edge, and that consumer reads it through a kLocal route or as
  /// the pre-combine input of a ReduceByKey. A cache does not change the
  /// answer: it holds shuffled inputs only, which never chain.
  std::vector<NodeId> ChainedInto() const;

  /// Structural sanity: inputs in range, arities right, at least one output,
  /// output names unique, UDFs present where required, no negative key
  /// columns.
  Status Validate() const;

  /// Human-readable DAG dump — the textual equivalent of the paper's
  /// Figure 1 dataflow drawings.
  std::string Explain() const;

 private:
  NodeId Add(PlanNode node);
  Status CheckInput(NodeId input, size_t next_id) const;

  std::vector<PlanNode> nodes_;
  std::vector<std::pair<std::string, NodeId>> outputs_;
};

}  // namespace flinkless::dataflow

#endif  // FLINKLESS_DATAFLOW_PLAN_H_
