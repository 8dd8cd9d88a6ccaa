// Single-source shortest paths (unit weights) as a delta-iterative
// dataflow. SSSP belongs to the same class of fixpoint algorithms over an
// idempotent minimum aggregation as Connected Components (Schelter et al.
// CIKM'13 "path problems"), so the same compensation idea applies:
// re-initialize lost vertices to their initial distances (infinity; 0 for
// the source) and let the neighbors re-propagate.

#ifndef FLINKLESS_ALGOS_SSSP_H_
#define FLINKLESS_ALGOS_SSSP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/compensation.h"
#include "dataflow/plan.h"
#include "iteration/delta_iteration.h"
#include "graph/graph.h"

namespace flinkless::algos {

/// Distance value standing in for "unreached" inside the dataflow.
inline constexpr int64_t kSsspInfinity = int64_t{1} << 50;

/// Builds the SSSP step plan. Sources: "workset" (vertex, dist) improved
/// vertices, "solution" (vertex, dist), "edges" (src, dst). Outputs:
/// "delta", "next_workset".
dataflow::Plan BuildSsspPlan();

/// Compensation for SSSP: lost vertices return to infinity (the source to
/// 0), and the restored vertices plus their neighbors re-propagate.
class FixDistancesCompensation : public core::CompensationFunction {
 public:
  FixDistancesCompensation(const graph::Graph* graph, int64_t source);

  std::string name() const override { return "fix-distances"; }

  Status Compensate(const iteration::IterationContext& ctx,
                    iteration::IterationState* state,
                    const std::vector<int>& lost) override;

 private:
  const graph::Graph* graph_;
  int64_t source_;
};

/// Configuration of an SSSP run.
struct SsspOptions {
  int64_t source = 0;
  int num_partitions = 4;
  /// Executor worker threads (1 = serial, 0 = hardware concurrency).
  int num_threads = 1;
  /// Log every shuffled loop-variant channel of the current superstep to
  /// an outbound message log and expose the confined-log replay hook
  /// (runtime/message_log.h, DESIGN.md §14), enabling
  /// core::ConfinedLogReplayPolicy. Results are byte-identical with the
  /// flag on or off when no failure fires.
  bool message_log = false;
  int max_iterations = 1000;
};

/// Outcome of an SSSP run.
struct SsspResult {
  /// Per-vertex hop distance from the source; -1 when unreachable.
  std::vector<int64_t> distances;
  int iterations = 0;
  int supersteps_executed = 0;
  bool converged = false;
  int failures_recovered = 0;
};

/// Runs SSSP under the given fault-tolerance policy. `true_distances`
/// (optional, from graph::ReferenceSssp) enables the "converged_vertices"
/// gauge.
Result<SsspResult> RunSssp(const graph::Graph& graph,
                           const SsspOptions& options, iteration::JobEnv env,
                           iteration::FaultTolerancePolicy* policy,
                           const std::vector<int64_t>* true_distances =
                               nullptr);

}  // namespace flinkless::algos

#endif  // FLINKLESS_ALGOS_SSSP_H_
