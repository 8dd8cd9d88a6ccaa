// PageRank as a bulk-iterative dataflow (paper §2.2.2, Figure 1b), plus the
// FixRanks compensation function: uniformly redistribute the lost
// probability mass over the lost vertices so that all ranks still sum to
// one — the consistency condition under which the algorithm provably
// converges to the correct ranking after a failure.

#ifndef FLINKLESS_ALGOS_PAGERANK_H_
#define FLINKLESS_ALGOS_PAGERANK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/compensation.h"
#include "dataflow/plan.h"
#include "iteration/bulk_iteration.h"
#include "graph/graph.h"

namespace flinkless::algos {

/// Configuration of a PageRank run.
struct PageRankOptions {
  int num_partitions = 4;
  /// Executor worker threads (1 = serial, 0 = hardware concurrency).
  int num_threads = 1;
  int max_iterations = 100;
  /// Damping factor d: next = (1-d)/n + d * (contributions + dangling/n).
  double damping = 0.85;
  /// Stop when the L1 difference of consecutive rank vectors drops below
  /// this (the paper's compare-to-old-rank check).
  double l1_tolerance = 1e-9;
  /// A vertex counts as "converged to its true rank" (the demo's
  /// bottom-left plot) when |rank - true_rank| <= converged_tolerance.
  double converged_tolerance = 1e-7;
  /// Reuse shuffled static inputs (links, dangling) and the find-neighbors
  /// build-side hash index across supersteps. Results are byte-identical
  /// either way (DESIGN.md §10).
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

/// Builds the Figure 1(b) step plan. Sources: "state" (vertex, rank),
/// "links" (src, dst, transition_probability), "dangling" (vertex) and
/// "zero_mass" (a single (0, 0.0) seed so the dangling aggregate exists
/// even without dangling vertices). Output: "next_state".
///
/// Operators, as in the paper: find-neighbors (Join), recompute-ranks
/// (Reduce); compare-to-old-rank is realized by the driver's convergence
/// hook, which sees both the previous and the next rank vector. The
/// dangling mass is aggregated and broadcast with a Cross (a Flink
/// primitive, §2.1).
dataflow::Plan BuildPageRankPlan(int64_t num_vertices, double damping);

/// How FixRanks re-initializes lost rank partitions (ablation A2 compares
/// these).
enum class RankCompensationVariant {
  /// The paper's compensation: spread the lost probability mass uniformly
  /// over the lost vertices — ranks sum to one again.
  kRedistributeLostMass,
  /// Naive: give every lost vertex 1/n; the global mass invariant breaks
  /// (the damped iteration still converges, but from a worse state).
  kUniformReinit,
  /// Drastic: reset *all* vertices to 1/n — loses all progress.
  kFullReinit,
};

/// Stable display name of a variant.
std::string RankCompensationVariantName(RankCompensationVariant variant);

/// FixRanks (the brown box of Figure 1b).
class FixRanksCompensation : public core::CompensationFunction {
 public:
  FixRanksCompensation(int64_t num_vertices,
                       RankCompensationVariant variant =
                           RankCompensationVariant::kRedistributeLostMass);

  std::string name() const override {
    return "fix-ranks/" + RankCompensationVariantName(variant_);
  }

  Status Compensate(const iteration::IterationContext& ctx,
                    iteration::IterationState* state,
                    const std::vector<int>& lost) override;

 private:
  int64_t num_vertices_;
  RankCompensationVariant variant_;
};

/// Outcome of a PageRank run.
struct PageRankResult {
  std::vector<double> ranks;
  int iterations = 0;
  int supersteps_executed = 0;
  bool converged = false;
  int failures_recovered = 0;
  /// L1 difference of the last two iterates (final convergence metric).
  double final_l1 = 0.0;
};

/// Runs PageRank over the directed `graph` under the given fault-tolerance
/// policy. When `true_ranks` is supplied, every iteration records the gauge
/// "converged_vertices"; the gauge "convergence_metric" always holds the
/// per-iteration L1 difference (the paper's bottom-right plot).
Result<PageRankResult> RunPageRank(
    const graph::Graph& graph, const PageRankOptions& options,
    iteration::JobEnv env, iteration::FaultTolerancePolicy* policy,
    const std::vector<double>* true_ranks = nullptr);

/// Per-iteration snapshot callback for the demo drivers: full rank vector,
/// the partitions lost this iteration, whether a failure was injected, the
/// L1 difference vs the previous iterate, and the converged-vertex count
/// (-1 without ground truth).
using PrSnapshotFn = std::function<void(
    int iteration, const std::vector<double>& ranks,
    const std::vector<int>& lost_partitions, bool failure, double l1_diff,
    int64_t converged_vertices)>;

/// RunPageRank plus a per-iteration snapshot callback.
Result<PageRankResult> RunPageRankWithSnapshots(
    const graph::Graph& graph, const PageRankOptions& options,
    iteration::JobEnv env, iteration::FaultTolerancePolicy* policy,
    const std::vector<double>* true_ranks, PrSnapshotFn snapshot);

}  // namespace flinkless::algos

#endif  // FLINKLESS_ALGOS_PAGERANK_H_
