#include "iteration/superstep_loop.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/logging.h"

namespace flinkless::iteration {

SuperstepLoop::SuperstepLoop(const dataflow::Plan& step_plan,
                             const dataflow::Bindings& static_bindings,
                             SuperstepLoopOptions options,
                             dataflow::ExecOptions exec_options, JobEnv env,
                             FaultTolerancePolicy* policy,
                             SuperstepHooks* hooks)
    : step_plan_(step_plan),
      static_bindings_(static_bindings),
      options_(std::move(options)),
      exec_options_(exec_options),
      env_(std::move(env)),
      policy_(policy),
      hooks_(hooks),
      own_memory_(exec_options.memory_budget_bytes),
      cache_(options_.volatile_bindings),
      max_supersteps_(int64_t{options_.max_iterations} *
                      std::max(1, options_.max_total_supersteps_factor)) {
  const int n = exec_options_.num_partitions;

  // Private defaults for optional environment pieces.
  if (env_.cluster == nullptr) {
    own_cluster_ =
        std::make_unique<runtime::Cluster>(n, env_.clock, env_.costs);
    env_.cluster = own_cluster_.get();
  }
  if (env_.metrics == nullptr) {
    own_metrics_ = std::make_unique<runtime::MetricsRegistry>();
    env_.metrics = own_metrics_.get();
  }
  if (env_.memory == nullptr) env_.memory = &own_memory_;

  // The tracer may arrive via either the env or the exec options; make both
  // agree so the executor and the driver record into the same timeline.
  if (exec_options_.tracer == nullptr) exec_options_.tracer = env_.tracer;

  // Metrics v2 flows the same two ways; either injection point wins and
  // every layer (executor, cache, memory manager, driver) records into the
  // same sink.
  if (exec_options_.metrics == nullptr) {
    exec_options_.metrics = env_.metrics_sink;
  }
  runtime::MetricsSink* metrics = exec_options_.metrics;

  // Loop-invariant cache for this run: only the volatile bindings change
  // between supersteps, so everything derived purely from the static
  // bindings is shuffled/indexed once and reused (DESIGN.md §10).
  // Budgeted residency for the cached artifacts (DESIGN.md §11): cold
  // entries spill to the job's stable storage once serialized residency
  // exceeds memory_budget_bytes. Attached even with an unlimited budget so
  // peak residency is always measured (no spills happen then). A JobEnv-
  // supplied manager (the multi-job server's shared budget) wins over the
  // private one; its metrics sink is the server's to set, so only the
  // private manager is wired to this run's sink here.
  own_memory_.set_metrics(metrics);
  cache_.set_metrics(metrics);
  if (options_.cache_loop_invariant && exec_options_.cache == nullptr) {
    exec_options_.cache = &cache_;
  }
  if (exec_options_.cache == &cache_ && env_.storage != nullptr) {
    cache_.AttachMemoryManager(env_.memory, env_.storage, env_.job_id);
  }
  // Outbound message log for confined-log recovery (DESIGN.md §14): the
  // volatile bindings are exactly the loop-variant inputs.
  if (options_.message_log) {
    msglog_ = std::make_unique<runtime::MessageLog>(options_.volatile_bindings);
    msglog_->set_metrics(metrics);
    if (env_.storage != nullptr) {
      msglog_->AttachMemoryManager(env_.memory, env_.storage, env_.job_id);
    }
    exec_options_.message_log = msglog_.get();
  }
  executor_ = std::make_unique<dataflow::Executor>(exec_options_);

  // Confined-log replay hook: rebuild the lost partitions' share of the
  // failed superstep's outputs from its logged channels and install them.
  // The failed superstep's *input* state is gone (the loop already
  // advanced), but Replay never needs it — demand stops at the logged
  // variant channels.
  if (msglog_ != nullptr) {
    replay_messages_ = [this](const std::vector<int>& lost) -> Status {
      FLINKLESS_ASSIGN_OR_RETURN(
          PlanOutputs replayed,
          executor_->Replay(step_plan_, static_bindings_, lost, msglog_.get(),
                            nullptr));
      return hooks_->InstallReplayed(std::move(replayed), lost);
    };
  }
}

IterationContext SuperstepLoop::Context(int iteration) const {
  IterationContext ctx;
  ctx.iteration = iteration;
  ctx.num_partitions = exec_options_.num_partitions;
  ctx.clock = env_.clock;
  ctx.costs = env_.costs;
  ctx.storage = env_.storage;
  ctx.cluster = env_.cluster;
  ctx.pool = executor_->pool();
  ctx.tracer = exec_options_.tracer;
  ctx.job_id = env_.job_id;
  ctx.replay_messages = replay_messages_;
  return ctx;
}

uint64_t SuperstepLoop::StorageBytes() const {
  return env_.storage != nullptr ? env_.storage->bytes_written() : 0;
}

void SuperstepLoop::FireEpoch(EpochEvent event, int epoch,
                              const std::vector<int>* lost) const {
  if (!options_.epoch_hook) return;
  EpochInfo info;
  info.event = event;
  info.epoch = epoch;
  info.state = hooks_->state();
  info.lost = lost;
  options_.epoch_hook(info);
}

Result<bool> SuperstepLoop::Step() {
  if (finished_) return false;
  if (!started_) {
    started_ = true;
    FLINKLESS_RETURN_NOT_OK(Start());
    return true;
  }
  if (!result_.converged && iteration_ <= options_.max_iterations &&
      !hooks_->Drained()) {
    FLINKLESS_RETURN_NOT_OK(RunSuperstep());
    return true;
  }
  Finish();
  finished_ = true;
  return false;
}

Status SuperstepLoop::Start() {
  runtime::Tracer* tracer = exec_options_.tracer;
  runtime::MetricsSink* metrics = exec_options_.metrics;
  const uint64_t start_bytes_before = StorageBytes();
  {
    runtime::TraceSpan start_span(tracer, runtime::SpanKind::kCheckpoint,
                                  policy_->name());
    FLINKLESS_RETURN_NOT_OK(policy_->OnJobStart(Context(0), hooks_->state()));
    const uint64_t bytes = StorageBytes() - start_bytes_before;
    if (bytes > 0) {
      start_span.AddArg("bytes", static_cast<int64_t>(bytes));
      if (metrics != nullptr) {
        metrics->Count(runtime::metric::kInitialCheckpointBytes, -1, bytes);
      }
    } else {
      start_span.Cancel();  // the policy wrote nothing at job start
    }
  }
  FireEpoch(EpochEvent::kJobStart, 0, nullptr);
  return Status::OK();
}

Status SuperstepLoop::RunSuperstep() {
  const int n = exec_options_.num_partitions;
  runtime::Tracer* tracer = exec_options_.tracer;
  runtime::MetricsSink* metrics = exec_options_.metrics;
  runtime::MemoryManager& memory = *env_.memory;
  IterationState* state = hooks_->state();
  const int iteration = iteration_;

  if (result_.supersteps_executed >= max_supersteps_) {
    return Status::Aborted("job '" + env_.job_id + "' exceeded " +
                           std::to_string(max_supersteps_) +
                           " supersteps (recovery loop?); aborting");
  }
  ++result_.supersteps_executed;

  std::array<int64_t, runtime::kNumCharges> charges_before{};
  if (env_.clock != nullptr) {
    for (int c = 0; c < runtime::kNumCharges; ++c) {
      charges_before[c] = env_.clock->Of(static_cast<runtime::Charge>(c));
    }
  }
  runtime::WallTimer wall;
  const runtime::MemoryManager::Stats mem_before = memory.stats();

  if (tracer != nullptr) tracer->set_iteration(iteration);
  runtime::TraceSpan iter_span(tracer, runtime::SpanKind::kIteration,
                               "superstep");
  if (iter_span.active()) {
    iter_span.AddArg("iteration", iteration);
    hooks_->OpenSpan(&iter_span);
  }

  // Rotate the message log: confined-log recovery only ever replays the
  // superstep that failed, so earlier channels (and their spilled blobs)
  // are dropped before this superstep appends its own.
  if (msglog_ != nullptr) msglog_->BeginSuperstep(iteration);

  dataflow::Bindings bindings = static_bindings_;
  hooks_->Bind(&bindings);
  dataflow::ExecStats exec_stats;
  FLINKLESS_ASSIGN_OR_RETURN(
      PlanOutputs outputs,
      executor_->Execute(step_plan_, bindings, &exec_stats));
  if (iter_span.active()) {
    iter_span.AddArg("records",
                     static_cast<int64_t>(exec_stats.records_processed));
    iter_span.AddArg("messages",
                     static_cast<int64_t>(exec_stats.messages_shuffled));
  }

  runtime::IterationStats istats;
  bool converged = false;
  FLINKLESS_RETURN_NOT_OK(hooks_->Advance(std::move(outputs),
                                          executor_->pool(), tracer,
                                          &iter_span, &istats, &converged));

  // Superstep boundary: no cached entry is in use any more, so enforce
  // the budget with no exemption — cold artifacts (even the one touched
  // last) spill now rather than occupying residency across supersteps.
  FLINKLESS_RETURN_NOT_OK(memory.EnforceBudget(nullptr, tracer));

  istats.iteration = iteration;
  istats.records_processed = exec_stats.records_processed;
  istats.messages_shuffled = exec_stats.messages_shuffled;
  for (const auto& [op_name, count] : exec_stats.node_output_counts) {
    istats.gauges["out:" + op_name] = static_cast<double>(count);
  }

  std::vector<int> lost = env_.failures != nullptr
                              ? env_.failures->Fire(iteration)
                              : std::vector<int>{};
  // Sanitize the schedule: same-iteration events may repeat a partition
  // (dedupe — killing a worker twice is one failure), and hand-written
  // --fail specs may name partitions the job does not have (drop, but
  // loudly: a typo'd spec that silently fails nothing would make a
  // recovery experiment vacuously green). The running drop count is a
  // gauge, so a typo'd spec is visible in the metrics report too.
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
  const size_t in_range_before = lost.size();
  lost.erase(std::remove_if(lost.begin(), lost.end(),
                            [&](int p) { return p < 0 || p >= n; }),
             lost.end());
  if (const size_t dropped = in_range_before - lost.size(); dropped > 0) {
    dropped_failure_ids_ += dropped;
    FLOG_WARN("job '" << env_.job_id << "': failure schedule names "
                      << dropped << " partition id(s) outside [0, " << n
                      << ") at iteration " << iteration
                      << "; dropping them");
    if (metrics != nullptr) {
      metrics->SetGauge(runtime::metric::kGaugeRecoveryDroppedIds, -1,
                        static_cast<double>(dropped_failure_ids_));
    }
  }

  const uint64_t cp_before = StorageBytes();

  if (!lost.empty()) {
    istats.failure_injected = true;
    converged = false;
    ++result_.failures_recovered;
    if (metrics != nullptr) {
      for (int p : lost) {
        metrics->Count(runtime::metric::kRecoveryPartitionsLost, p);
      }
    }
    if (tracer != nullptr) {
      tracer->Instant(runtime::InstantKind::kFailureInjected, -1,
                      {{"iteration", iteration},
                       {"partitions", static_cast<int64_t>(lost.size())}});
      for (int p : lost) {
        tracer->Instant(runtime::InstantKind::kPartitionLost, p);
      }
    }
    env_.cluster->KillPartitions(lost);
    for (int p : lost) state->ClearPartition(p);
    FLINKLESS_RETURN_NOT_OK(env_.cluster->ReassignToFreshWorkers(lost));
    // Cached artifacts are hash-partitioned: losing any partition means
    // the fresh workers need a full re-scatter, so drop everything —
    // spilled entries and their blobs included, so recovery re-pays the
    // rebuild instead of reloading stale state; the next superstep
    // rebuilds from the (static) bindings.
    if (exec_options_.cache != nullptr) exec_options_.cache->Invalidate(lost);
    // Mid-recovery service point: the state is inconsistent (partitions
    // cleared, nothing restored yet) — observers keep serving their
    // previously published epoch.
    FireEpoch(EpochEvent::kFailureDetected, iteration, &lost);
    runtime::TraceSpan comp_span(tracer, runtime::SpanKind::kCompensation,
                                 policy_->name());
    if (comp_span.active()) {
      comp_span.AddArg("lost_partitions", static_cast<int64_t>(lost.size()));
    }
    FLINKLESS_ASSIGN_OR_RETURN(
        RecoveryOutcome outcome,
        policy_->OnFailure(Context(iteration), state, lost));
    comp_span.Close();
    switch (outcome.action) {
      case RecoveryAction::kContinue:
        ++iteration_;
        break;
      case RecoveryAction::kRewind:
        if (outcome.rewind_to_iteration < 0 ||
            outcome.rewind_to_iteration > iteration) {
          return Status::Internal("policy rewound to invalid iteration " +
                                  std::to_string(outcome.rewind_to_iteration));
        }
        iteration_ = outcome.rewind_to_iteration + 1;
        break;
      case RecoveryAction::kRestart:
        hooks_->Restart();
        iteration_ = 1;
        break;
      case RecoveryAction::kAbort:
        return Status::DataLoss("policy '" + policy_->name() +
                                "' aborted after losing partitions at "
                                "iteration " +
                                std::to_string(iteration));
    }
    if (metrics != nullptr) {
      // Records now standing in the lost partitions: what the recovery
      // action (compensation, checkpoint restore, or restart) put back.
      for (int p : lost) {
        const uint64_t repaired = hooks_->PartitionRecords(p);
        metrics->Count(runtime::metric::kCompensationRecords, p, repaired);
        metrics->Observe(runtime::metric::kHistCompensationRecords,
                         static_cast<int64_t>(repaired));
      }
    }
  } else {
    runtime::TraceSpan cp_span(tracer, runtime::SpanKind::kCheckpoint,
                               policy_->name());
    FLINKLESS_RETURN_NOT_OK(
        policy_->AfterIteration(Context(iteration), state));
    const uint64_t cp_bytes = StorageBytes() - cp_before;
    if (cp_bytes > 0) {
      cp_span.AddArg("bytes", static_cast<int64_t>(cp_bytes));
      cp_span.Close();
    } else {
      cp_span.Cancel();  // nothing written — don't clutter the trace
    }
    ++iteration_;
  }

  istats.bytes_checkpointed = StorageBytes() - cp_before;
  hooks_->FinishStats(iteration, &istats);
  if (env_.clock != nullptr) {
    for (int c = 0; c < runtime::kNumCharges; ++c) {
      istats.sim_time_by_charge[c] =
          env_.clock->Of(static_cast<runtime::Charge>(c)) - charges_before[c];
    }
  }
  istats.spills = memory.stats().spills - mem_before.spills;
  istats.unspills = memory.stats().unspills - mem_before.unspills;
  istats.spilled_bytes =
      memory.stats().spilled_bytes - mem_before.spilled_bytes;
  istats.peak_resident_bytes = memory.stats().peak_resident_bytes;
  istats.wall_time_ns = wall.ElapsedNs();
  env_.metrics->RecordIteration(std::move(istats));

  result_.iterations = std::max(result_.iterations, iteration);

  // Consistent superstep boundary. After the recovery switch the state
  // corresponds to iteration_ - 1 regardless of the action taken
  // (kContinue: the executed superstep; kRewind: the rewind target;
  // kRestart: 0).
  FireEpoch(lost.empty() ? EpochEvent::kEpochComplete
                         : EpochEvent::kRecoveryComplete,
            iteration_ - 1, lost.empty() ? nullptr : &lost);

  if (converged) {
    // Recorded inside the superstep's span, which it belongs to.
    if (tracer != nullptr) {
      tracer->Instant(runtime::InstantKind::kConvergenceReached, -1,
                      {{"iteration", iteration}});
    }
    result_.converged = true;
  }
  return Status::OK();
}

void SuperstepLoop::Finish() {
  // A drained state is converged too (the delta iteration's termination).
  if (!result_.converged && hooks_->Drained()) {
    result_.converged = true;
    if (exec_options_.tracer != nullptr) {
      exec_options_.tracer->Instant(runtime::InstantKind::kConvergenceReached,
                                    -1, {{"iteration", result_.iterations}});
    }
  }
  if (runtime::MetricsSink* metrics = exec_options_.metrics;
      metrics != nullptr) {
    // End-of-run per-partition state size — the balance the hash
    // partitioner achieved.
    for (int p = 0; p < exec_options_.num_partitions; ++p) {
      metrics->SetGauge(runtime::metric::kGaugeStateRecords, p,
                        static_cast<double>(hooks_->PartitionRecords(p)));
    }
  }
}

}  // namespace flinkless::iteration
