#include "iteration/superstep_loop.h"

#include <algorithm>
#include <array>
#include <memory>

#include "common/logging.h"
#include "dataflow/exec_cache.h"
#include "runtime/message_log.h"

namespace flinkless::iteration {

Result<SuperstepLoopResult> RunSuperstepLoop(
    const dataflow::Plan& step_plan, const dataflow::Bindings& static_bindings,
    const SuperstepLoopOptions& options, dataflow::ExecOptions exec_options,
    JobEnv env, FaultTolerancePolicy* policy, SuperstepHooks* hooks) {
  const int n = exec_options.num_partitions;
  IterationState* state = hooks->state();

  // Private defaults for optional environment pieces.
  std::unique_ptr<runtime::Cluster> own_cluster;
  if (env.cluster == nullptr) {
    own_cluster = std::make_unique<runtime::Cluster>(n, env.clock, env.costs);
    env.cluster = own_cluster.get();
  }
  std::unique_ptr<runtime::MetricsRegistry> own_metrics;
  if (env.metrics == nullptr) {
    own_metrics = std::make_unique<runtime::MetricsRegistry>();
    env.metrics = own_metrics.get();
  }

  // The tracer may arrive via either the env or the exec options; make both
  // agree so the executor and the driver record into the same timeline.
  if (exec_options.tracer == nullptr) exec_options.tracer = env.tracer;
  runtime::Tracer* tracer = exec_options.tracer;

  // Metrics v2 flows the same two ways; either injection point wins and
  // every layer (executor, cache, memory manager, driver) records into the
  // same sink.
  if (exec_options.metrics == nullptr) exec_options.metrics = env.metrics_sink;
  runtime::MetricsSink* metrics = exec_options.metrics;

  // Loop-invariant cache for this run: only the volatile bindings change
  // between supersteps, so everything derived purely from the static
  // bindings is shuffled/indexed once and reused (DESIGN.md §10).
  // Budgeted residency for the cached artifacts (DESIGN.md §11): cold
  // entries spill to the job's stable storage once serialized residency
  // exceeds memory_budget_bytes. Attached even with an unlimited budget so
  // peak residency is always measured (no spills happen then). Declared
  // before the cache: the cache unregisters its segments on destruction.
  // A JobEnv-supplied manager (the multi-job server's shared budget) wins
  // over the private one; its metrics sink is the server's to set, so only
  // the private manager is wired to this run's sink here.
  runtime::MemoryManager own_memory(exec_options.memory_budget_bytes);
  own_memory.set_metrics(metrics);
  runtime::MemoryManager& memory =
      env.memory != nullptr ? *env.memory : own_memory;
  dataflow::ExecCache cache(options.volatile_bindings);
  cache.set_metrics(metrics);
  if (options.cache_loop_invariant && exec_options.cache == nullptr) {
    exec_options.cache = &cache;
  }
  if (exec_options.cache == &cache && env.storage != nullptr) {
    cache.AttachMemoryManager(&memory, env.storage, env.job_id);
  }
  // Outbound message log for confined-log recovery (DESIGN.md §14): the
  // volatile bindings are exactly the loop-variant inputs. Declared after
  // `memory`: the log unregisters its segments on destruction.
  std::unique_ptr<runtime::MessageLog> msglog;
  if (options.message_log) {
    msglog = std::make_unique<runtime::MessageLog>(options.volatile_bindings);
    msglog->set_metrics(metrics);
    if (env.storage != nullptr) {
      msglog->AttachMemoryManager(&memory, env.storage, env.job_id);
    }
    exec_options.message_log = msglog.get();
  }
  dataflow::Executor executor(exec_options);

  // Confined-log replay hook: rebuild the lost partitions' share of the
  // failed superstep's outputs from its logged channels and install them.
  // The failed superstep's *input* state is gone (the loop already
  // advanced), but Replay never needs it — demand stops at the logged
  // variant channels.
  std::function<Status(const std::vector<int>&)> replay_messages;
  if (msglog != nullptr) {
    replay_messages = [&](const std::vector<int>& lost) -> Status {
      FLINKLESS_ASSIGN_OR_RETURN(
          PlanOutputs replayed,
          executor.Replay(step_plan, static_bindings, lost, msglog.get(),
                          nullptr));
      return hooks->InstallReplayed(std::move(replayed), lost);
    };
  }

  auto make_ctx = [&](int iteration) {
    IterationContext ctx;
    ctx.iteration = iteration;
    ctx.num_partitions = n;
    ctx.clock = env.clock;
    ctx.costs = env.costs;
    ctx.storage = env.storage;
    ctx.cluster = env.cluster;
    ctx.pool = executor.pool();
    ctx.tracer = tracer;
    ctx.job_id = env.job_id;
    ctx.replay_messages = replay_messages;
    return ctx;
  };
  auto storage_bytes = [&]() -> uint64_t {
    return env.storage != nullptr ? env.storage->bytes_written() : 0;
  };
  auto fire_epoch = [&](EpochEvent event, int epoch,
                        const std::vector<int>* lost) {
    if (!options.epoch_hook) return;
    EpochInfo info;
    info.event = event;
    info.epoch = epoch;
    info.state = state;
    info.lost = lost;
    options.epoch_hook(info);
  };

  const uint64_t start_bytes_before = storage_bytes();
  {
    runtime::TraceSpan start_span(tracer, runtime::SpanKind::kCheckpoint,
                                  policy->name());
    FLINKLESS_RETURN_NOT_OK(policy->OnJobStart(make_ctx(0), state));
    const uint64_t bytes = storage_bytes() - start_bytes_before;
    if (bytes > 0) {
      start_span.AddArg("bytes", static_cast<int64_t>(bytes));
      if (metrics != nullptr) {
        metrics->Count(runtime::metric::kInitialCheckpointBytes, -1, bytes);
      }
    } else {
      start_span.Cancel();  // the policy wrote nothing at job start
    }
  }
  fire_epoch(EpochEvent::kJobStart, 0, nullptr);

  // Running count of failure-schedule ids dropped for being out of range
  // (see the sanitization below) — exported as a gauge so a typo'd --fail
  // spec is visible in the metrics report, not just the log.
  uint64_t dropped_failure_ids = 0;

  SuperstepLoopResult result;
  const int max_supersteps =
      options.max_iterations * std::max(1, options.max_total_supersteps_factor);

  int iteration = 1;
  while (iteration <= options.max_iterations && !hooks->Drained()) {
    if (result.supersteps_executed >= max_supersteps) {
      return Status::Aborted("job '" + env.job_id + "' exceeded " +
                             std::to_string(max_supersteps) +
                             " supersteps (recovery loop?); aborting");
    }
    ++result.supersteps_executed;

    std::array<int64_t, runtime::kNumCharges> charges_before{};
    if (env.clock != nullptr) {
      for (int c = 0; c < runtime::kNumCharges; ++c) {
        charges_before[c] = env.clock->Of(static_cast<runtime::Charge>(c));
      }
    }
    runtime::WallTimer wall;
    const runtime::MemoryManager::Stats mem_before = memory.stats();

    if (tracer != nullptr) tracer->set_iteration(iteration);
    runtime::TraceSpan iter_span(tracer, runtime::SpanKind::kIteration,
                                 "superstep");
    if (iter_span.active()) {
      iter_span.AddArg("iteration", iteration);
      hooks->OpenSpan(&iter_span);
    }

    // Rotate the message log: confined-log recovery only ever replays the
    // superstep that failed, so earlier channels (and their spilled blobs)
    // are dropped before this superstep appends its own.
    if (msglog != nullptr) msglog->BeginSuperstep(iteration);

    dataflow::Bindings bindings = static_bindings;
    hooks->Bind(executor.pool(), &bindings);
    dataflow::ExecStats exec_stats;
    FLINKLESS_ASSIGN_OR_RETURN(
        PlanOutputs outputs,
        executor.Execute(step_plan, bindings, &exec_stats));
    if (iter_span.active()) {
      iter_span.AddArg("records",
                       static_cast<int64_t>(exec_stats.records_processed));
      iter_span.AddArg("messages",
                       static_cast<int64_t>(exec_stats.messages_shuffled));
    }

    runtime::IterationStats istats;
    bool converged = false;
    FLINKLESS_RETURN_NOT_OK(hooks->Advance(std::move(outputs), executor.pool(),
                                           tracer, &iter_span, &istats,
                                           &converged));

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

    std::vector<int> lost = env.failures != nullptr
                                ? env.failures->Fire(iteration)
                                : std::vector<int>{};
    // Sanitize the schedule: same-iteration events may repeat a partition
    // (dedupe — killing a worker twice is one failure), and hand-written
    // --fail specs may name partitions the job does not have (drop, but
    // loudly: a typo'd spec that silently fails nothing would make a
    // recovery experiment vacuously green).
    std::sort(lost.begin(), lost.end());
    lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
    const size_t in_range_before = lost.size();
    lost.erase(std::remove_if(lost.begin(), lost.end(),
                              [&](int p) { return p < 0 || p >= n; }),
               lost.end());
    if (const size_t dropped = in_range_before - lost.size(); dropped > 0) {
      dropped_failure_ids += dropped;
      FLOG_WARN("job '" << env.job_id << "': failure schedule names "
                        << dropped << " partition id(s) outside [0, " << n
                        << ") at iteration " << iteration
                        << "; dropping them");
      if (metrics != nullptr) {
        metrics->SetGauge(runtime::metric::kGaugeRecoveryDroppedIds, -1,
                          static_cast<double>(dropped_failure_ids));
      }
    }

    const uint64_t cp_before = storage_bytes();
    const int executed_iteration = iteration;

    if (!lost.empty()) {
      istats.failure_injected = true;
      converged = false;
      ++result.failures_recovered;
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
      env.cluster->KillPartitions(lost);
      for (int p : lost) state->ClearPartition(p);
      FLINKLESS_RETURN_NOT_OK(env.cluster->ReassignToFreshWorkers(lost));
      // Cached artifacts are hash-partitioned: losing any partition means
      // the fresh workers need a full re-scatter, so drop everything —
      // spilled entries and their blobs included, so recovery re-pays the
      // rebuild instead of reloading stale state; the next superstep
      // rebuilds from the (static) bindings.
      if (exec_options.cache != nullptr) exec_options.cache->Invalidate(lost);
      // Mid-recovery service point: the state is inconsistent (partitions
      // cleared, nothing restored yet) — observers keep serving their
      // previously published epoch.
      fire_epoch(EpochEvent::kFailureDetected, iteration, &lost);
      runtime::TraceSpan comp_span(tracer, runtime::SpanKind::kCompensation,
                                   policy->name());
      if (comp_span.active()) {
        comp_span.AddArg("lost_partitions", static_cast<int64_t>(lost.size()));
      }
      FLINKLESS_ASSIGN_OR_RETURN(
          RecoveryOutcome outcome,
          policy->OnFailure(make_ctx(iteration), state, lost));
      comp_span.Close();
      switch (outcome.action) {
        case RecoveryAction::kContinue:
          ++iteration;
          break;
        case RecoveryAction::kRewind:
          if (outcome.rewind_to_iteration < 0 ||
              outcome.rewind_to_iteration > iteration) {
            return Status::Internal(
                "policy rewound to invalid iteration " +
                std::to_string(outcome.rewind_to_iteration));
          }
          iteration = outcome.rewind_to_iteration + 1;
          break;
        case RecoveryAction::kRestart:
          hooks->Restart();
          iteration = 1;
          break;
        case RecoveryAction::kAbort:
          return Status::DataLoss("policy '" + policy->name() +
                                  "' aborted after losing partitions at "
                                  "iteration " +
                                  std::to_string(iteration));
      }
      if (metrics != nullptr) {
        // Records now standing in the lost partitions: what the recovery
        // action (compensation, checkpoint restore, or restart) put back.
        for (int p : lost) {
          const uint64_t repaired = hooks->PartitionRecords(p);
          metrics->Count(runtime::metric::kCompensationRecords, p, repaired);
          metrics->Observe(runtime::metric::kHistCompensationRecords,
                           static_cast<int64_t>(repaired));
        }
      }
    } else {
      runtime::TraceSpan cp_span(tracer, runtime::SpanKind::kCheckpoint,
                                 policy->name());
      FLINKLESS_RETURN_NOT_OK(
          policy->AfterIteration(make_ctx(iteration), state));
      const uint64_t cp_bytes = storage_bytes() - cp_before;
      if (cp_bytes > 0) {
        cp_span.AddArg("bytes", static_cast<int64_t>(cp_bytes));
        cp_span.Close();
      } else {
        cp_span.Cancel();  // nothing written — don't clutter the trace
      }
      ++iteration;
    }

    istats.bytes_checkpointed = storage_bytes() - cp_before;
    hooks->FinishStats(executed_iteration, &istats);
    if (env.clock != nullptr) {
      for (int c = 0; c < runtime::kNumCharges; ++c) {
        istats.sim_time_by_charge[c] =
            env.clock->Of(static_cast<runtime::Charge>(c)) - charges_before[c];
      }
    }
    istats.spills = memory.stats().spills - mem_before.spills;
    istats.unspills = memory.stats().unspills - mem_before.unspills;
    istats.spilled_bytes =
        memory.stats().spilled_bytes - mem_before.spilled_bytes;
    istats.peak_resident_bytes = memory.stats().peak_resident_bytes;
    istats.wall_time_ns = wall.ElapsedNs();
    env.metrics->RecordIteration(std::move(istats));

    result.iterations = std::max(result.iterations, executed_iteration);

    // Consistent superstep boundary. After the recovery switch the state
    // corresponds to iteration - 1 regardless of the action taken
    // (kContinue: the executed superstep; kRewind: the rewind target;
    // kRestart: 0).
    fire_epoch(lost.empty() ? EpochEvent::kEpochComplete
                            : EpochEvent::kRecoveryComplete,
               iteration - 1, lost.empty() ? nullptr : &lost);

    if (converged) {
      if (tracer != nullptr) {
        tracer->Instant(runtime::InstantKind::kConvergenceReached, -1,
                        {{"iteration", executed_iteration}});
      }
      result.converged = true;
      break;
    }
  }

  // A drained state is converged too (the delta iteration's termination).
  if (!result.converged && hooks->Drained()) {
    result.converged = true;
    if (tracer != nullptr) {
      tracer->Instant(runtime::InstantKind::kConvergenceReached, -1,
                      {{"iteration", result.iterations}});
    }
  }
  if (metrics != nullptr) {
    // End-of-run per-partition state size — the balance the hash
    // partitioner achieved.
    for (int p = 0; p < n; ++p) {
      metrics->SetGauge(runtime::metric::kGaugeStateRecords, p,
                        static_cast<double>(hooks->PartitionRecords(p)));
    }
  }
  return result;
}

}  // namespace flinkless::iteration
