// The fault-tolerance strategies compared throughout the paper:
//
//   * NoFaultTolerance   — fastest failure-free run; any failure kills the
//                          job (the baseline that motivates the work).
//   * RestartPolicy      — re-run the whole job from scratch after a
//                          failure; what lineage-based recovery degenerates
//                          to for iterative jobs with wide dependencies
//                          (paper §2.2).
//   * CheckpointRollback — the classic pessimistic approach: checkpoint the
//                          iteration state to stable storage every k
//                          iterations, restore the latest snapshot on
//                          failure and rewind (paper §2.2, Elnozahy et al.).
//   * OptimisticRecovery — the paper's contribution: no checkpoints at all;
//                          on failure, run the algorithm's compensation
//                          function and continue from the current iteration.
//
// Rollback and its confined variants share one PartitionSnapshots store and
// differ only in OnFailure.

#ifndef FLINKLESS_CORE_POLICIES_H_
#define FLINKLESS_CORE_POLICIES_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/compensation.h"
#include "iteration/policy.h"

namespace flinkless::core {

/// No checkpoints, no recovery: a failure aborts the job with DataLoss.
class NoFaultTolerancePolicy final : public iteration::FaultTolerancePolicy {
 public:
  std::string name() const override { return "none"; }
  Result<iteration::RecoveryOutcome> OnFailure(
      const iteration::IterationContext& ctx,
      iteration::IterationState* state,
      const std::vector<int>& lost) override;
};

/// No checkpoints; a failure restarts the whole job from its initial state.
class RestartPolicy final : public iteration::FaultTolerancePolicy {
 public:
  std::string name() const override { return "restart"; }
  Result<iteration::RecoveryOutcome> OnFailure(
      const iteration::IterationContext& ctx,
      iteration::IterationState* state,
      const std::vector<int>& lost) override;
};

/// Per-partition snapshots in stable storage, shared by the rollback,
/// confined and confined-log policies. An epoch holds every partition's
/// SerializePartition blob as of one iteration, keyed
/// `<job>/<tag>/<iteration:08d>/<partition:06d>`; a new epoch is written
/// whole before the previous one is deleted.
class PartitionSnapshots {
 public:
  /// `tag` is the key namespace; `interval` >= 1.
  PartitionSnapshots(std::string tag, int interval);

  int interval() const { return interval_; }
  /// Iteration of the latest complete epoch (-1 = none).
  int epoch() const { return epoch_; }

  /// Drops this job id's snapshots of earlier runs, then snapshots the
  /// initial state so a failure in the first interval can be restored.
  Status Start(const iteration::IterationContext& ctx,
               const iteration::IterationState& state);
  /// Snapshots after every interval-th iteration.
  Status AfterIteration(const iteration::IterationContext& ctx,
                        const iteration::IterationState& state);
  /// Restores `partitions` from the latest epoch (DataLoss if none).
  Status Restore(const iteration::IterationContext& ctx,
                 iteration::IterationState* state,
                 const std::vector<int>& partitions) const;

 private:
  Status Write(const iteration::IterationContext& ctx,
               const iteration::IterationState& state);
  /// The epoch's key prefix, or with `partition` >= 0 the partition's key.
  std::string Key(const std::string& job_id, int epoch,
                  int partition = -1) const;

  std::string tag_;
  int interval_;
  int epoch_ = -1;
};

/// Pessimistic rollback recovery: synchronous checkpoints of every state
/// partition to stable storage every `interval` iterations (plus iteration
/// 0), full restore + rewind on failure.
class CheckpointRollbackPolicy final
    : public iteration::FaultTolerancePolicy {
 public:
  explicit CheckpointRollbackPolicy(int interval)
      : snapshots_("ckpt", interval) {}

  std::string name() const override {
    return "rollback(k=" + std::to_string(snapshots_.interval()) + ")";
  }

  Status OnJobStart(const iteration::IterationContext& ctx,
                    iteration::IterationState* state) override {
    return snapshots_.Start(ctx, *state);
  }
  Status AfterIteration(const iteration::IterationContext& ctx,
                        iteration::IterationState* state) override {
    return snapshots_.AfterIteration(ctx, *state);
  }
  Result<iteration::RecoveryOutcome> OnFailure(
      const iteration::IterationContext& ctx,
      iteration::IterationState* state,
      const std::vector<int>& lost) override;

  /// Iteration of the most recent checkpoint (-1 before OnJobStart).
  int last_checkpoint_iteration() const { return snapshots_.epoch(); }

 private:
  PartitionSnapshots snapshots_;
};

/// Repopulates a delta iteration's workset after lost solution partitions
/// were restored from a (stale) checkpoint, so the affected region
/// re-propagates and re-converges. Mirrors what compensation functions do
/// for the workset; see MakeNeighborhoodRefresher in algos.
using WorksetRefresher = std::function<Status(
    const iteration::IterationContext& ctx, iteration::DeltaState* state,
    const std::vector<int>& lost)>;

/// Confined rollback (in the spirit of CoRAL, Vora et al.): checkpoints
/// like CheckpointRollbackPolicy, but on failure restores ONLY the lost
/// partitions from the snapshot and keeps the survivors' newer state —
/// then continues from the *current* iteration instead of rewinding.
///
/// The mixed state (survivors at iteration i, restored partitions at the
/// checkpoint's iteration k <= i) is not a consistent global snapshot; the
/// job converges anyway for exactly the class of fixpoint algorithms the
/// paper's optimistic recovery targets (self-correcting iterations). So
/// this strategy sits between rollback (pays checkpoints, loses survivors'
/// progress) and optimistic (pays nothing, loses the failed partitions'
/// progress entirely): it pays checkpoints but loses almost no progress.
class ConfinedRollbackPolicy final : public iteration::FaultTolerancePolicy {
 public:
  /// `refresher` is required for delta iterations (bulk iterations need no
  /// workset fix-up) and may be empty otherwise.
  explicit ConfinedRollbackPolicy(int interval,
                                  WorksetRefresher refresher = {})
      : snapshots_("confined", interval), refresher_(std::move(refresher)) {}

  std::string name() const override {
    return "confined(k=" + std::to_string(snapshots_.interval()) + ")";
  }

  Status OnJobStart(const iteration::IterationContext& ctx,
                    iteration::IterationState* state) override {
    return snapshots_.Start(ctx, *state);
  }
  Status AfterIteration(const iteration::IterationContext& ctx,
                        iteration::IterationState* state) override {
    return snapshots_.AfterIteration(ctx, *state);
  }
  Result<iteration::RecoveryOutcome> OnFailure(
      const iteration::IterationContext& ctx,
      iteration::IterationState* state,
      const std::vector<int>& lost) override;

 private:
  PartitionSnapshots snapshots_;
  WorksetRefresher refresher_;
};

/// Confined recovery by outbound-message-log replay (DESIGN.md §14): the
/// drivers log every shuffled loop-variant channel of the current superstep
/// (runtime/message_log.h) and expose IterationContext::replay_messages; on
/// failure this policy replays those logged messages into the lost
/// partitions and continues. The survivors never recompute anything — they
/// only wait while the replay runs — and, unlike ConfinedRollbackPolicy,
/// the rebuilt partitions are byte-identical to what the failed superstep
/// produced, so recovery is *exact*, not merely convergent.
///
/// For bulk iterations the logged messages alone determine the next state,
/// so the policy needs no checkpoints at all: zero failure-free overhead
/// beyond the log itself. A delta iteration's solution set accumulates
/// across supersteps, so the lost solution partitions are first restored
/// from a per-partition snapshot taken every `interval` iterations (like
/// ConfinedRollbackPolicy), then the replayed delta re-applies the failed
/// superstep's updates; the required `refresher` re-seeds the workset so
/// the snapshot-to-now staleness re-propagates and converges out.
class ConfinedLogReplayPolicy final : public iteration::FaultTolerancePolicy {
 public:
  /// `interval` only matters for delta iterations (bulk iterations write no
  /// checkpoints); `refresher` is required for delta iterations.
  explicit ConfinedLogReplayPolicy(int interval = 2,
                                   WorksetRefresher refresher = {})
      : snapshots_("clog", interval), refresher_(std::move(refresher)) {}

  std::string name() const override {
    return "confined-log(k=" + std::to_string(snapshots_.interval()) + ")";
  }

  Status OnJobStart(const iteration::IterationContext& ctx,
                    iteration::IterationState* state) override {
    if (state->kind() != iteration::StateKind::kDelta) return Status::OK();
    return snapshots_.Start(ctx, *state);
  }
  Status AfterIteration(const iteration::IterationContext& ctx,
                        iteration::IterationState* state) override {
    if (state->kind() != iteration::StateKind::kDelta) return Status::OK();
    return snapshots_.AfterIteration(ctx, *state);
  }
  Result<iteration::RecoveryOutcome> OnFailure(
      const iteration::IterationContext& ctx,
      iteration::IterationState* state,
      const std::vector<int>& lost) override;

 private:
  PartitionSnapshots snapshots_;
  WorksetRefresher refresher_;
};

/// Entry-level incremental checkpointing for delta iterations: each
/// checkpoint writes only the solution-set entries modified since the
/// previous checkpoint (plus the small current workset), forming a chain
/// base + delta + delta + ...; recovery replays the chain. Because
/// solution-set entries stop changing once their region of the graph
/// converges, the written bytes shrink with convergence even under hash
/// partitioning — where skipping unchanged partitions saves nothing, since
/// every partition holds some still-changing entries (EXPERIMENTS.md A4).
/// Solution sets must be upsert-only (true for Flink-style delta
/// iterations).
class DeltaCheckpointPolicy final : public iteration::FaultTolerancePolicy {
 public:
  /// Checkpoint after every `interval`-th iteration. After `compact_every`
  /// chained deltas a full snapshot is written and the chain restarts,
  /// bounding recovery replay length.
  explicit DeltaCheckpointPolicy(int interval, int compact_every = 16);

  std::string name() const override {
    return "delta-ckpt(k=" + std::to_string(interval_) + ")";
  }

  Status OnJobStart(const iteration::IterationContext& ctx,
                    iteration::IterationState* state) override;
  Status AfterIteration(const iteration::IterationContext& ctx,
                        iteration::IterationState* state) override;
  Result<iteration::RecoveryOutcome> OnFailure(
      const iteration::IterationContext& ctx,
      iteration::IterationState* state,
      const std::vector<int>& lost) override;

  /// Iteration of the most recent checkpoint (-1 before OnJobStart).
  int last_checkpoint_iteration() const { return last_checkpoint_; }

  /// Number of checkpoints in the current chain (1 = base only).
  size_t chain_length() const { return chain_.size(); }

 private:
  std::string BlobKey(const std::string& job_id, int sequence,
                      int partition) const;
  Status WriteCheckpoint(const iteration::IterationContext& ctx,
                         const iteration::DeltaState& state, bool full);

  int interval_;
  int compact_every_;
  int last_checkpoint_ = -1;
  /// Per-partition solution-set clocks as of the last checkpoint — the
  /// `since` watermark each partition's next delta is computed against.
  /// Resynced to the solution set's VersionVector() after a restore, so a
  /// recovery never inflates the next incremental delta.
  std::vector<uint64_t> last_versions_;
  /// Monotonic sequence number used in blob keys (never reused, so a
  /// compaction cannot collide with the chain it replaces).
  int next_sequence_ = 0;
  /// Sequence numbers of the chain's checkpoints, oldest (the base) first.
  std::vector<int> chain_;
};

/// The paper's optimistic recovery: zero failure-free overhead; on failure,
/// invoke the compensation function on the (partially lost) state and
/// continue with the current iteration.
class OptimisticRecoveryPolicy final
    : public iteration::FaultTolerancePolicy {
 public:
  /// `compensation` is borrowed and must outlive the policy.
  explicit OptimisticRecoveryPolicy(CompensationFunction* compensation);

  std::string name() const override {
    return "optimistic(" + compensation_->name() + ")";
  }

  Result<iteration::RecoveryOutcome> OnFailure(
      const iteration::IterationContext& ctx,
      iteration::IterationState* state,
      const std::vector<int>& lost) override;

 private:
  CompensationFunction* compensation_;
};

}  // namespace flinkless::core

#endif  // FLINKLESS_CORE_POLICIES_H_
