#include "iteration/bulk_iteration.h"

#include <utility>

#include "common/logging.h"
#include "iteration/superstep_loop.h"

namespace flinkless::iteration {

using dataflow::PartitionedDataset;

/// Bulk supersteps: the plan's next-state output replaces the whole state.
class BulkHooks final : public SuperstepHooks {
 public:
  BulkHooks(const BulkIterationConfig& config, PartitionedDataset initial)
      : config_(config), initial_(initial), state_(std::move(initial)) {}

  IterationState* state() override { return &state_; }
  PartitionedDataset& data() { return state_.data(); }

  void Bind(dataflow::Bindings* bindings) override {
    (*bindings)[config_.state_binding] = &state_.data();
  }

  Status Advance(PlanOutputs outputs, runtime::ThreadPool* /*pool*/,
                 runtime::Tracer* /*tracer*/, runtime::TraceSpan* /*span*/,
                 runtime::IterationStats* stats, bool* converged) override {
    auto it = outputs.find(config_.next_state_output);
    if (it == outputs.end()) return MissingOutput();
    PartitionedDataset next = std::move(it->second);
    if (config_.convergence) {
      double metric = 0.0;
      *converged = config_.convergence(state_.data(), next, &metric);
      stats->gauges["convergence_metric"] = metric;
    }
    state_.data() = std::move(next);
    return Status::OK();
  }

  Status InstallReplayed(PlanOutputs replayed,
                         const std::vector<int>& lost) override {
    auto it = replayed.find(config_.next_state_output);
    if (it == replayed.end()) return MissingOutput();
    for (int p : lost) {
      state_.data().partition(p) = std::move(it->second.partition(p));
    }
    return Status::OK();
  }

  void Restart() override { state_ = BulkState(initial_); }

  uint64_t PartitionRecords(int p) const override {
    return state_.data().partition(p).size();
  }

  void FinishStats(int iteration, runtime::IterationStats* stats) override {
    if (config_.stats_hook) config_.stats_hook(iteration, state_.data(), stats);
  }

 private:
  Status MissingOutput() const {
    return Status::NotFound("step plan has no output '" +
                            config_.next_state_output + "'");
  }

  const BulkIterationConfig& config_;
  const PartitionedDataset initial_;
  BulkState state_;
};

BulkIterationDriver::BulkIterationDriver(const dataflow::Plan* step_plan,
                                         dataflow::Bindings static_bindings,
                                         BulkIterationConfig config,
                                         dataflow::ExecOptions exec_options,
                                         JobEnv env)
    : step_plan_(step_plan),
      static_bindings_(std::move(static_bindings)),
      config_(std::move(config)),
      exec_options_(exec_options),
      env_(std::move(env)) {
  FLINKLESS_CHECK(step_plan_ != nullptr, "bulk driver needs a step plan");
}

BulkIterationDriver::~BulkIterationDriver() = default;

Result<BulkIterationResult> BulkIterationDriver::Run(
    PartitionedDataset initial, FaultTolerancePolicy* policy) {
  FLINKLESS_ASSIGN_OR_RETURN(SuperstepLoop* loop,
                             Start(std::move(initial), policy));
  for (;;) {
    FLINKLESS_ASSIGN_OR_RETURN(bool more, loop->Step());
    if (!more) return TakeResult();
  }
}

Result<SuperstepLoop*> BulkIterationDriver::Start(
    PartitionedDataset initial, FaultTolerancePolicy* policy) {
  FLINKLESS_CHECK(policy != nullptr, "bulk driver needs a policy");
  const int n = exec_options_.num_partitions;
  if (initial.num_partitions() != n) {
    return Status::InvalidArgument(
        "initial state has " + std::to_string(initial.num_partitions()) +
        " partitions, executor expects " + std::to_string(n));
  }

  SuperstepLoopOptions loop;
  loop.max_iterations = config_.max_iterations;
  loop.max_total_supersteps_factor = config_.max_total_supersteps_factor;
  loop.cache_loop_invariant = config_.cache_loop_invariant;
  loop.message_log = config_.message_log;
  loop.epoch_hook = config_.epoch_hook;
  loop.volatile_bindings = {config_.state_binding};

  loop_.reset();  // a previous run's loop borrows its hooks
  hooks_ = std::make_unique<BulkHooks>(config_, std::move(initial));
  loop_ = std::make_unique<SuperstepLoop>(*step_plan_, static_bindings_,
                                          std::move(loop), exec_options_, env_,
                                          policy, hooks_.get());
  return loop_.get();
}

BulkIterationResult BulkIterationDriver::TakeResult() {
  FLINKLESS_CHECK(loop_ != nullptr, "TakeResult() needs a started run");
  BulkIterationResult result{loop_->result(), std::move(hooks_->data())};
  loop_.reset();
  hooks_.reset();
  return result;
}

}  // namespace flinkless::iteration
