// Bulk iterations: the whole intermediate dataset is recomputed every
// superstep by re-running the step plan (paper §2.1, used by PageRank).

#ifndef FLINKLESS_ITERATION_BULK_ITERATION_H_
#define FLINKLESS_ITERATION_BULK_ITERATION_H_

#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "dataflow/executor.h"
#include "dataflow/plan.h"
#include "iteration/context.h"
#include "iteration/epoch.h"
#include "iteration/policy.h"
#include "iteration/state.h"
#include "iteration/superstep_loop.h"

namespace flinkless::iteration {

/// Convergence test for bulk iterations: given the state the superstep
/// consumed and the state it produced, decide whether the computation has
/// converged; `metric` (optional output) is recorded as the
/// "convergence_metric" gauge (PageRank reports the L1 difference here,
/// matching the paper's bottom-right plot).
using BulkConvergenceFn =
    std::function<bool(const dataflow::PartitionedDataset& previous,
                       const dataflow::PartitionedDataset& next,
                       double* metric)>;

/// Per-iteration statistics enrichment (e.g. "vertices converged to their
/// true rank"). Called after failure handling, so the recorded series shows
/// the paper's plummet at failure iterations.
using BulkStatsHook =
    std::function<void(int iteration, const dataflow::PartitionedDataset& state,
                       runtime::IterationStats* stats)>;

/// Configuration of a bulk-iterative job.
struct BulkIterationConfig {
  /// Hard superstep limit (Flink's "predefined number of iterations").
  int max_iterations = 100;

  /// Key columns the state dataset is partitioned by (the vertex id).
  dataflow::KeyColumns state_key = {0};

  /// Source binding name under which the current state is visible to the
  /// step plan.
  std::string state_binding = "state";

  /// Plan output holding the next state.
  std::string next_state_output = "next_state";

  /// Optional termination criterion; absent means run max_iterations.
  BulkConvergenceFn convergence;

  /// Optional per-iteration statistics hook.
  BulkStatsHook stats_hook;

  /// Safety valve: abort if recoveries push the total executed supersteps
  /// beyond this multiple of max_iterations.
  int max_total_supersteps_factor = 20;

  /// Cache loop-invariant plan results (static shuffles, join build-side
  /// indexes) across supersteps. Outputs are byte-identical either way;
  /// only repeated work on the static bindings is skipped. See
  /// exec_cache.h / DESIGN.md §10.
  bool cache_loop_invariant = true;

  /// Log every shuffled loop-variant channel of the current superstep to an
  /// outbound message log (runtime/message_log.h, DESIGN.md §14) and expose
  /// IterationContext::replay_messages, enabling confined-log recovery
  /// (core::ConfinedLogReplayPolicy). The log rotates at each superstep
  /// boundary — only the most recent superstep's channels are retained —
  /// and shares the driver's memory budget, spilling to stable storage
  /// under pressure. Outputs are byte-identical with the flag on or off.
  bool message_log = false;

  /// Optional superstep-boundary observer (iteration/epoch.h): fired after
  /// OnJobStart (kJobStart), at each consistent superstep boundary
  /// (kEpochComplete / kRecoveryComplete) and mid-recovery
  /// (kFailureDetected). The driver blocks while the hook runs — the job
  /// server publishes read views and answers reads here. Empty = off; the
  /// hook never changes outputs, stats, or simulated charges.
  EpochHook epoch_hook;
};

/// Result of a bulk-iterative run.
struct BulkIterationResult : SuperstepLoopResult {
  dataflow::PartitionedDataset final_state;
};

class BulkHooks;

/// Drives a bulk iteration of `step_plan` under a fault-tolerance policy.
class BulkIterationDriver {
 public:
  /// `step_plan` and the datasets referenced by `static_bindings` are
  /// borrowed and must outlive the driver. The plan must have an output
  /// named config.next_state_output and may reference config.state_binding
  /// plus any of the static bindings as sources.
  BulkIterationDriver(const dataflow::Plan* step_plan,
                      dataflow::Bindings static_bindings,
                      BulkIterationConfig config,
                      dataflow::ExecOptions exec_options, JobEnv env);
  ~BulkIterationDriver();

  /// Runs to convergence (or max_iterations) from `initial`, which must be
  /// hash-partitioned by config.state_key. The policy handles any failures
  /// from env.failures. Start, then Step until false, then TakeResult.
  Result<BulkIterationResult> Run(dataflow::PartitionedDataset initial,
                                  FaultTolerancePolicy* policy);

  /// Run one turn at a time, for a caller that interleaves jobs (the job
  /// server): Start prepares the run, executes nothing, and returns the
  /// loop to step (SuperstepLoop::Step) until it returns false; TakeResult
  /// then hands out the result and releases the loop with the run's cache,
  /// message log, and executor.
  Result<SuperstepLoop*> Start(dataflow::PartitionedDataset initial,
                               FaultTolerancePolicy* policy);
  BulkIterationResult TakeResult();

 private:
  const dataflow::Plan* step_plan_;
  dataflow::Bindings static_bindings_;
  BulkIterationConfig config_;
  dataflow::ExecOptions exec_options_;
  JobEnv env_;
  std::unique_ptr<BulkHooks> hooks_;
  std::unique_ptr<SuperstepLoop> loop_;
};

}  // namespace flinkless::iteration

#endif  // FLINKLESS_ITERATION_BULK_ITERATION_H_
