#include "iteration/delta_iteration.h"

#include <utility>

#include "common/logging.h"
#include "iteration/superstep_loop.h"

namespace flinkless::iteration {

using dataflow::PartitionedDataset;
using dataflow::Record;

/// Delta supersteps: the delta output is upserted into the solution set and
/// the next-workset output replaces the workset; an empty workset ends the
/// iteration.
class DeltaHooks final : public SuperstepHooks {
 public:
  DeltaHooks(const DeltaIterationConfig& config, int num_partitions,
             std::vector<Record> initial_solution,
             PartitionedDataset initial_workset)
      : config_(config),
        num_partitions_(num_partitions),
        initial_solution_(initial_solution),
        initial_workset_(initial_workset),
        state_(SolutionSet::FromRecords(std::move(initial_solution),
                                        config.solution_key, num_partitions),
               std::move(initial_workset)) {}

  IterationState* state() override { return &state_; }
  SolutionSet& solution() { return state_.solution(); }

  bool Drained() const override { return state_.workset().NumRecords() == 0; }

  void OpenSpan(runtime::TraceSpan* span) const override {
    span->AddArg("workset",
                 static_cast<int64_t>(state_.workset().NumRecords()));
  }

  void Bind(dataflow::Bindings* bindings) override {
    // The solution set's rows are a key-ordered dataset already: Execute
    // reads them in place.
    (*bindings)[config_.workset_binding] = &state_.workset();
    (*bindings)[config_.solution_binding] = &state_.solution().rows();
  }

  Status Advance(PlanOutputs outputs, runtime::ThreadPool* pool,
                 runtime::Tracer* tracer, runtime::TraceSpan* span,
                 runtime::IterationStats* stats,
                 bool* /*converged*/) override {
    PartitionedDataset* delta = nullptr;
    PartitionedDataset* workset = nullptr;
    FLINKLESS_RETURN_NOT_OK(FindOutputs(&outputs, &delta, &workset));
    // Upsert the delta into the solution set (selective update, §2.1),
    // partition-parallel on the executor's pool: deltas scatter by key hash
    // and every partition applies its own shard against its own version
    // clock, so there is no shared counter to serialize on.
    const uint64_t updates =
        state_.solution().ApplyDelta(std::move(*delta), pool, tracer);
    state_.workset() = std::move(*workset);
    stats->gauges["solution_updates"] = static_cast<double>(updates);
    if (span->active()) {
      span->AddArg("solution_updates", static_cast<int64_t>(updates));
    }
    return Status::OK();
  }

  // Recomputes the failed superstep's delta and next workset for the lost
  // partitions. Survivors already applied the full pre-failure delta
  // (ApplyDelta ran before the failure fired), so replayed delta records
  // are upserted only into lost partitions. Assumes the delta output is
  // co-partitioned by solution_key (see DeltaIterationConfig::message_log).
  Status InstallReplayed(PlanOutputs replayed,
                         const std::vector<int>& lost) override {
    PartitionedDataset* delta = nullptr;
    PartitionedDataset* workset = nullptr;
    FLINKLESS_RETURN_NOT_OK(FindOutputs(&replayed, &delta, &workset));
    std::vector<bool> is_lost(num_partitions_, false);
    for (int p : lost) is_lost[p] = true;
    for (int p : lost) {
      for (Record& record : delta->partition(p)) {
        const int target = PartitionedDataset::PartitionOf(
            record, config_.solution_key, num_partitions_);
        if (!is_lost[target]) continue;  // survivor: already applied
        state_.solution().UpsertIntoPartition(target, std::move(record));
      }
      state_.workset().partition(p) = std::move(workset->partition(p));
    }
    return Status::OK();
  }

  void Restart() override {
    state_ = DeltaState(SolutionSet::FromRecords(initial_solution_,
                                                 config_.solution_key,
                                                 num_partitions_),
                        initial_workset_);
  }

  uint64_t PartitionRecords(int p) const override {
    return state_.solution().PartitionSize(p);
  }

  void FinishStats(int iteration, runtime::IterationStats* stats) override {
    // Recovery may have repopulated the workset.
    stats->gauges["workset_size"] =
        static_cast<double>(state_.workset().NumRecords());
    if (config_.stats_hook) {
      config_.stats_hook(iteration, state_.solution(), state_.workset(),
                         stats);
    }
  }

 private:
  Status FindOutputs(PlanOutputs* outputs, PartitionedDataset** delta,
                     PartitionedDataset** workset) const {
    for (const auto& [name, slot] :
         {std::pair{&config_.delta_output, delta},
          std::pair{&config_.next_workset_output, workset}}) {
      auto it = outputs->find(*name);
      if (it == outputs->end()) {
        return Status::NotFound("step plan has no output '" + *name + "'");
      }
      *slot = &it->second;
    }
    return Status::OK();
  }

  const DeltaIterationConfig& config_;
  const int num_partitions_;
  const std::vector<Record> initial_solution_;
  const PartitionedDataset initial_workset_;
  DeltaState state_;
};

DeltaIterationDriver::DeltaIterationDriver(const dataflow::Plan* step_plan,
                                           dataflow::Bindings static_bindings,
                                           DeltaIterationConfig config,
                                           dataflow::ExecOptions exec_options,
                                           JobEnv env)
    : step_plan_(step_plan),
      static_bindings_(std::move(static_bindings)),
      config_(std::move(config)),
      exec_options_(exec_options),
      env_(std::move(env)) {
  FLINKLESS_CHECK(step_plan_ != nullptr, "delta driver needs a step plan");
}

DeltaIterationDriver::~DeltaIterationDriver() = default;

Result<DeltaIterationResult> DeltaIterationDriver::Run(
    std::vector<Record> initial_solution, PartitionedDataset initial_workset,
    FaultTolerancePolicy* policy) {
  FLINKLESS_ASSIGN_OR_RETURN(
      SuperstepLoop* loop,
      Start(std::move(initial_solution), std::move(initial_workset), policy));
  for (;;) {
    FLINKLESS_ASSIGN_OR_RETURN(bool more, loop->Step());
    if (!more) return TakeResult();
  }
}

Result<SuperstepLoop*> DeltaIterationDriver::Start(
    std::vector<Record> initial_solution, PartitionedDataset initial_workset,
    FaultTolerancePolicy* policy) {
  FLINKLESS_CHECK(policy != nullptr, "delta driver needs a policy");
  const int n = exec_options_.num_partitions;
  if (initial_workset.num_partitions() != n) {
    return Status::InvalidArgument(
        "initial workset has " +
        std::to_string(initial_workset.num_partitions()) +
        " partitions, executor expects " + std::to_string(n));
  }

  SuperstepLoopOptions loop;
  loop.max_iterations = config_.max_iterations;
  loop.max_total_supersteps_factor = config_.max_total_supersteps_factor;
  loop.cache_loop_invariant = config_.cache_loop_invariant;
  loop.message_log = config_.message_log;
  loop.epoch_hook = config_.epoch_hook;
  loop.volatile_bindings = {config_.workset_binding, config_.solution_binding};

  loop_.reset();  // a previous run's loop borrows its hooks
  hooks_ = std::make_unique<DeltaHooks>(config_, n, std::move(initial_solution),
                                        std::move(initial_workset));
  loop_ = std::make_unique<SuperstepLoop>(*step_plan_, static_bindings_,
                                          std::move(loop), exec_options_, env_,
                                          policy, hooks_.get());
  return loop_.get();
}

DeltaIterationResult DeltaIterationDriver::TakeResult() {
  FLINKLESS_CHECK(loop_ != nullptr, "TakeResult() needs a started run");
  DeltaIterationResult result{loop_->result(), std::move(hooks_->solution())};
  loop_.reset();
  hooks_.reset();
  return result;
}

}  // namespace flinkless::iteration
