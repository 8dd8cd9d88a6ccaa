// The superstep loop both iteration drivers run (DESIGN.md §5, "One
// superstep loop"): environment defaults, the loop-invariant cache and
// message log, checkpoint accounting, failure injection, the policy's
// recovery action, epoch hooks, and per-superstep statistics. Bulk and
// delta iterations are one abstraction over this loop (paper §2.1); they
// differ only in what SuperstepHooks supplies — how a superstep's outputs
// become the next state, when the iteration is done, how replayed
// partitions are installed, and what a restart resets to.
//
// The loop is stepped one turn at a time (SuperstepLoop::Step), and the
// superstep is the unit a caller schedules: the drivers step one loop to
// its end, the job server (DESIGN.md §16) interleaves the turns of many
// loops on one thread.

#ifndef FLINKLESS_ITERATION_SUPERSTEP_LOOP_H_
#define FLINKLESS_ITERATION_SUPERSTEP_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/exec_cache.h"
#include "dataflow/executor.h"
#include "dataflow/plan.h"
#include "iteration/context.h"
#include "iteration/epoch.h"
#include "iteration/policy.h"
#include "iteration/state.h"
#include "runtime/memory_manager.h"
#include "runtime/message_log.h"

namespace flinkless::iteration {

/// Plan outputs of one Execute or Replay, by output name.
using PlanOutputs = std::map<std::string, dataflow::PartitionedDataset>;

/// What an iteration mode plugs into the superstep loop. Every hook runs on
/// the orchestration thread.
class SuperstepHooks {
 public:
  virtual ~SuperstepHooks() = default;

  /// The state the policy checkpoints, clears, and compensates.
  virtual IterationState* state() = 0;

  /// True when no superstep is left to run (delta: the workset drained).
  /// Checked before every superstep and once after the loop.
  virtual bool Drained() const { return false; }

  /// Adds mode-specific args to a superstep span as it opens.
  virtual void OpenSpan(runtime::TraceSpan* span) const { (void)span; }

  /// Binds the current state into `bindings` for the superstep's Execute.
  /// Whatever it binds must stay alive until Advance.
  virtual void Bind(dataflow::Bindings* bindings) = 0;

  /// Makes the superstep's outputs the next state. May add args to the
  /// superstep `span` and gauges to `stats`; sets `*converged` when the
  /// iteration's convergence test passed.
  virtual Status Advance(PlanOutputs outputs, runtime::ThreadPool* pool,
                         runtime::Tracer* tracer, runtime::TraceSpan* span,
                         runtime::IterationStats* stats, bool* converged) = 0;

  /// Installs a confined-log replay's outputs into the `lost` partitions.
  virtual Status InstallReplayed(PlanOutputs replayed,
                                 const std::vector<int>& lost) = 0;

  /// Resets the state to the job's initial state (RecoveryAction::kRestart).
  virtual void Restart() = 0;

  /// Records (bulk) or solution entries (delta) in partition `p`.
  virtual uint64_t PartitionRecords(int p) const = 0;

  /// Last word on a superstep's stats, after failure handling: refreshes
  /// state gauges and runs the mode's stats hook.
  virtual void FinishStats(int iteration, runtime::IterationStats* stats) = 0;
};

/// The loop settings both iteration configs carry.
struct SuperstepLoopOptions {
  int max_iterations = 100;
  int max_total_supersteps_factor = 20;
  bool cache_loop_invariant = true;
  bool message_log = false;
  EpochHook epoch_hook;
  /// Bindings rebound every superstep: loop-variant for the cache and the
  /// message log.
  std::vector<std::string> volatile_bindings;
};

struct SuperstepLoopResult {
  /// Highest iteration number reached (the job's logical progress).
  int iterations = 0;
  /// Total supersteps executed, counting rollback re-execution.
  int supersteps_executed = 0;
  bool converged = false;
  int failures_recovered = 0;
};

/// Runs `step_plan` superstep by superstep under `policy` until `hooks`
/// report convergence or the state is drained, or max_iterations is
/// reached. Each Step() call runs one turn:
///  * the first runs the policy's OnJobStart and fires kJobStart;
///  * each later one runs one superstep, through its kEpochComplete or
///    kRecoveryComplete;
///  * the one after the last superstep ends the run (the drained
///    convergence instant, the state gauges) and returns false.
/// A turn opens and closes all of its trace spans, so turns of different
/// loops may interleave on one thread.
class SuperstepLoop {
 public:
  /// Wires the run's environment — private defaults for absent JobEnv
  /// pieces, the loop-invariant cache, the message log, the executor — and
  /// runs nothing. `step_plan`, `static_bindings`, `policy`, and `hooks`
  /// are borrowed and must outlive the loop.
  SuperstepLoop(const dataflow::Plan& step_plan,
                const dataflow::Bindings& static_bindings,
                SuperstepLoopOptions options,
                dataflow::ExecOptions exec_options, JobEnv env,
                FaultTolerancePolicy* policy, SuperstepHooks* hooks);

  SuperstepLoop(const SuperstepLoop&) = delete;
  SuperstepLoop& operator=(const SuperstepLoop&) = delete;

  /// Runs the next turn; false once the run is over. An error ends the run
  /// too: do not step the loop again after one.
  Result<bool> Step();

  /// The run's outcome; final once Step() returned false.
  const SuperstepLoopResult& result() const { return result_; }

 private:
  Status Start();
  Status RunSuperstep();
  void Finish();
  IterationContext Context(int iteration) const;
  uint64_t StorageBytes() const;
  void FireEpoch(EpochEvent event, int epoch,
                 const std::vector<int>* lost) const;

  const dataflow::Plan& step_plan_;
  const dataflow::Bindings& static_bindings_;
  const SuperstepLoopOptions options_;
  dataflow::ExecOptions exec_options_;
  JobEnv env_;
  FaultTolerancePolicy* policy_;
  SuperstepHooks* hooks_;

  // Declaration order is teardown order in reverse: the cache and the
  // message log unregister their segments from the memory manager on
  // destruction, and the executor borrows both.
  std::unique_ptr<runtime::Cluster> own_cluster_;
  std::unique_ptr<runtime::MetricsRegistry> own_metrics_;
  runtime::MemoryManager own_memory_;
  dataflow::ExecCache cache_;
  std::unique_ptr<runtime::MessageLog> msglog_;
  std::unique_ptr<dataflow::Executor> executor_;
  std::function<Status(const std::vector<int>&)> replay_messages_;

  bool started_ = false;
  bool finished_ = false;
  /// Next superstep's iteration number (rewound by recovery).
  int iteration_ = 1;
  /// Safety valve: max_iterations * max_total_supersteps_factor, in 64 bits
  /// so that a large iteration cap cannot overflow it.
  int64_t max_supersteps_ = 0;
  /// Running count of failure-schedule ids dropped for being out of range.
  uint64_t dropped_failure_ids_ = 0;
  SuperstepLoopResult result_;
};

}  // namespace flinkless::iteration

#endif  // FLINKLESS_ITERATION_SUPERSTEP_LOOP_H_
