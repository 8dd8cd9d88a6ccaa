// Connected Components as a delta-iterative dataflow (paper §2.2.1,
// Figure 1a): the diffusion algorithm that propagates the minimum label of
// each component through the graph (Kang et al., PEGASUS), plus the
// FixComponents compensation function that makes it optimistically
// recoverable.

#ifndef FLINKLESS_ALGOS_CONNECTED_COMPONENTS_H_
#define FLINKLESS_ALGOS_CONNECTED_COMPONENTS_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/compensation.h"
#include "dataflow/plan.h"
#include "iteration/delta_iteration.h"
#include "graph/graph.h"

namespace flinkless::algos {

/// Builds the Figure 1(a) step plan. Sources: "workset" (vertex, label)
/// updates propagating this superstep, "solution" (vertex, label) current
/// labels, "edges" (src, dst). Outputs: "delta" and "next_workset" — the
/// label improvements (the delta iteration forwards them both into the
/// solution set and to the neighbors, closing the loop of the figure).
///
/// Operators, as in the paper: label-to-neighbors (Join),
/// candidate-label (Reduce), label-update (Join).
dataflow::Plan BuildConnectedComponentsPlan();

/// FixComponents (the brown box of Figure 1a): re-initializes every lost
/// vertex to its initial label — which is provably consistent for the
/// min-label diffusion — and repopulates the workset so the restored
/// vertices *and their neighbors* propagate their labels again (§3.2).
class FixComponentsCompensation : public core::CompensationFunction {
 public:
  /// `graph` is borrowed; it provides the vertex set, the partition mapping
  /// of lost vertices, and the neighborhood needed for the recovery
  /// workset.
  explicit FixComponentsCompensation(const graph::Graph* graph);

  std::string name() const override { return "fix-components"; }

  Status Compensate(const iteration::IterationContext& ctx,
                    iteration::IterationState* state,
                    const std::vector<int>& lost) override;

 private:
  const graph::Graph* graph_;
};

/// Configuration of a Connected Components run.
struct ConnectedComponentsOptions {
  int num_partitions = 4;
  /// Executor worker threads (1 = serial, 0 = hardware concurrency).
  int num_threads = 1;
  int max_iterations = 200;
  /// Reuse the shuffled edge table and the label-to-neighbors build-side
  /// hash index across supersteps. Results are byte-identical either way
  /// (DESIGN.md §10).
  bool cache_loop_invariant = true;
  /// Log every shuffled loop-variant channel of the current superstep to
  /// an outbound message log and expose the confined-log replay hook
  /// (runtime/message_log.h, DESIGN.md §14), enabling
  /// core::ConfinedLogReplayPolicy. Results are byte-identical with the
  /// flag on or off when no failure fires.
  bool message_log = false;
  /// Byte budget for the cached artifacts (0 = unlimited): cold entries
  /// spill to the job's StableStorage and reload on access, trading
  /// simulated I/O for residency. Results are byte-identical at any
  /// budget (DESIGN.md §11).
  uint64_t memory_budget_bytes = 0;
};

/// Outcome of a Connected Components run.
struct ConnectedComponentsResult {
  /// Per-vertex component label (the minimum vertex id of the component).
  std::vector<int64_t> labels;
  int iterations = 0;
  int supersteps_executed = 0;
  bool converged = false;
  int failures_recovered = 0;
};

/// Runs Connected Components over `graph` under the given fault-tolerance
/// policy. When `true_labels` is supplied (precomputed ground truth, as the
/// demo does), every iteration records the gauge "converged_vertices" — the
/// paper's bottom-left plot.
Result<ConnectedComponentsResult> RunConnectedComponents(
    const graph::Graph& graph, const ConnectedComponentsOptions& options,
    iteration::JobEnv env, iteration::FaultTolerancePolicy* policy,
    const std::vector<int64_t>* true_labels = nullptr);

/// Per-iteration snapshot callback for the demo drivers: full label vector,
/// the partitions lost this iteration (empty when failure-free), whether a
/// failure was injected, the messages shuffled, and the converged-vertex
/// count (-1 without ground truth).
using CcSnapshotFn = std::function<void(
    int iteration, const std::vector<int64_t>& labels,
    const std::vector<int>& lost_partitions, bool failure, int64_t messages,
    int64_t converged_vertices)>;

/// RunConnectedComponents plus a per-iteration snapshot callback (the
/// terminal demo records its visual frames through this).
Result<ConnectedComponentsResult> RunConnectedComponentsWithSnapshots(
    const graph::Graph& graph, const ConnectedComponentsOptions& options,
    iteration::JobEnv env, iteration::FaultTolerancePolicy* policy,
    const std::vector<int64_t>* true_labels, CcSnapshotFn snapshot);

/// The bulk-iteration variant of Connected Components (ablation A1 in
/// DESIGN.md): recomputes every label every superstep instead of tracking a
/// workset. Converges to the same labels but processes far more records.
Result<ConnectedComponentsResult> RunConnectedComponentsBulk(
    const graph::Graph& graph, const ConnectedComponentsOptions& options,
    iteration::JobEnv env, iteration::FaultTolerancePolicy* policy,
    const std::vector<int64_t>* true_labels = nullptr);

}  // namespace flinkless::algos

#endif  // FLINKLESS_ALGOS_CONNECTED_COMPONENTS_H_
