// Delta iterations: a solution set holds the intermediate result, a working
// set holds pending updates; the step plan consumes the workset, emits
// updates to the solution set and the next workset, and the job terminates
// when the workset is empty (paper §2.1, used by Connected Components).

#ifndef FLINKLESS_ITERATION_DELTA_ITERATION_H_
#define FLINKLESS_ITERATION_DELTA_ITERATION_H_

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

/// Per-iteration statistics enrichment; sees the solution set and workset
/// after failure handling.
using DeltaStatsHook = std::function<void(
    int iteration, const SolutionSet& solution,
    const dataflow::PartitionedDataset& workset,
    runtime::IterationStats* stats)>;

/// Configuration of a delta-iterative job.
struct DeltaIterationConfig {
  /// Hard superstep limit.
  int max_iterations = 1000;

  /// Key columns of the solution set (and of the delta records).
  dataflow::KeyColumns solution_key = {0};

  /// Source binding names the step plan reads.
  std::string workset_binding = "workset";
  std::string solution_binding = "solution";

  /// Plan outputs: records upserted into the solution set, and the next
  /// workset.
  std::string delta_output = "delta";
  std::string next_workset_output = "next_workset";

  /// Optional per-iteration statistics hook.
  DeltaStatsHook stats_hook;

  /// Safety valve against recovery loops (multiple of max_iterations).
  int max_total_supersteps_factor = 20;

  /// Cache loop-invariant plan results (static shuffles, join build-side
  /// indexes) across supersteps. The workset and solution bindings are
  /// volatile; everything derived only from the static bindings is built
  /// once. Outputs are byte-identical either way (DESIGN.md §10).
  bool cache_loop_invariant = true;

  /// Log every shuffled loop-variant channel of the current superstep to an
  /// outbound message log (runtime/message_log.h, DESIGN.md §14) and expose
  /// IterationContext::replay_messages, enabling confined-log recovery
  /// (core::ConfinedLogReplayPolicy). The log rotates at each superstep
  /// boundary and shares the driver's memory budget, spilling to stable
  /// storage under pressure. Outputs are byte-identical with the flag on or
  /// off. The replay hook assumes the delta and next-workset outputs are
  /// co-partitioned by solution_key (true for every plan in src/algos —
  /// their final shuffle keys on the vertex id).
  bool message_log = false;

  /// Optional superstep-boundary observer (iteration/epoch.h): fired after
  /// OnJobStart (kJobStart), at each consistent superstep boundary
  /// (kEpochComplete / kRecoveryComplete) and mid-recovery
  /// (kFailureDetected). The driver blocks while the hook runs — the job
  /// server publishes read views and answers reads here. Empty = off; the
  /// hook never changes outputs, stats, or simulated charges.
  EpochHook epoch_hook;
};

/// Result of a delta-iterative run.
/// `converged` is true when the workset drained (the delta iteration's
/// convergence).
struct DeltaIterationResult : SuperstepLoopResult {
  SolutionSet final_solution;
};

class DeltaHooks;

/// Drives a delta iteration of `step_plan` under a fault-tolerance policy.
class DeltaIterationDriver {
 public:
  DeltaIterationDriver(const dataflow::Plan* step_plan,
                       dataflow::Bindings static_bindings,
                       DeltaIterationConfig config,
                       dataflow::ExecOptions exec_options, JobEnv env);
  ~DeltaIterationDriver();

  /// Runs until the workset drains (or max_iterations). `initial_solution`
  /// records are indexed by config.solution_key; `initial_workset` must have
  /// the executor's partition count. Start, then Step until false, then
  /// TakeResult.
  Result<DeltaIterationResult> Run(
      std::vector<dataflow::Record> initial_solution,
      dataflow::PartitionedDataset initial_workset,
      FaultTolerancePolicy* policy);

  /// Run one turn at a time (see BulkIterationDriver::Start).
  Result<SuperstepLoop*> Start(std::vector<dataflow::Record> initial_solution,
                               dataflow::PartitionedDataset initial_workset,
                               FaultTolerancePolicy* policy);
  DeltaIterationResult TakeResult();

 private:
  const dataflow::Plan* step_plan_;
  dataflow::Bindings static_bindings_;
  DeltaIterationConfig config_;
  dataflow::ExecOptions exec_options_;
  JobEnv env_;
  std::unique_ptr<DeltaHooks> hooks_;
  std::unique_ptr<SuperstepLoop> loop_;
};

}  // namespace flinkless::iteration

#endif  // FLINKLESS_ITERATION_DELTA_ITERATION_H_
