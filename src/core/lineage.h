// Lineage analysis: why lineage-based recovery (Spark-style, paper §2.2)
// breaks down for iterative dataflows.
//
// Lineage recovery re-computes only the lost partitions by replaying their
// derivation. How much must be replayed depends on the dependency shape:
// through a *narrow* dependency (Map, Filter, ...) partition p derives from
// input partition p alone; through a *wide* dependency (Reduce, Join — any
// shuffle) it derives from ALL input partitions. The paper's observation:
// "a partition of the current iteration may depend on all partitions of the
// previous iteration (e.g. when a reducer is executed during an iteration).
// In such cases after a failure the iteration has to be restarted from
// scratch."
//
// This module classifies a Plan's dependencies and computes the
// recomputation footprint of losing one partition — the quantitative form
// of that argument (experiment C4). The classification is read off
// dataflow::InputRoutes, the same routing the executor moves data by: a
// local input is narrow, a shuffled or broadcast input is wide.

#ifndef FLINKLESS_CORE_LINEAGE_H_
#define FLINKLESS_CORE_LINEAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/plan.h"

namespace flinkless::core {

/// How an operator's output partition depends on one of its inputs.
enum class DependencyKind {
  /// Output partition p is derived from input partition p only
  /// (partition-local operators: Map, FlatMap, Filter, Project, Union).
  kNarrow,
  /// Output partition p is derived from every input partition (operators
  /// with a shuffle: ReduceByKey, GroupReduce, Join, CoGroup, and the
  /// broadcast side of Cross).
  kWide,
};

/// Stable name ("narrow" / "wide").
std::string DependencyKindName(DependencyKind kind);

/// Per-node dependency classification of a plan.
class LineageAnalysis {
 public:
  /// Classifies every edge of `plan`. The plan is borrowed and must outlive
  /// the analysis.
  explicit LineageAnalysis(const dataflow::Plan* plan);

  /// Dependency kind of edge (node <- its input_index-th input).
  DependencyKind KindOf(dataflow::NodeId node, size_t input_index) const;

  /// True when every dependency on the path from `node` up to the sources
  /// is narrow — the case where lineage recovery is cheap.
  bool AllNarrowUpstream(dataflow::NodeId node) const;

  /// Number of (operator, partition) tasks that must be re-executed to
  /// rebuild partition `partition` of `node`, assuming source data is
  /// durable (re-readable for free) and nothing else was materialized.
  /// This is the lineage-recovery cost of losing that partition.
  int64_t TasksToRebuild(dataflow::NodeId node, int partition,
                         int num_partitions) const;

  /// Tasks re-executed by lineage recovery when one partition of the
  /// iteration state is lost after `iterations` supersteps of a step plan
  /// whose state feedback passes through at least one wide dependency: the
  /// whole prefix must be replayed. `tasks_per_superstep` is the full
  /// superstep's task count (operators × partitions).
  static int64_t IterativeRebuildTasks(int64_t tasks_per_superstep,
                                       int iterations);

  /// Human-readable per-edge classification.
  std::string ToString() const;

 private:
  const dataflow::Plan* plan_;
  // kinds_[node][input_index]
  std::vector<std::vector<DependencyKind>> kinds_;
};

}  // namespace flinkless::core

#endif  // FLINKLESS_CORE_LINEAGE_H_
