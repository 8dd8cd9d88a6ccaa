#include "core/policies.h"

#include <cstdio>
#include <numeric>

#include "common/byte_codec.h"
#include "common/logging.h"
#include "dataflow/block_codec.h"

namespace flinkless::core {

using iteration::IterationContext;
using iteration::IterationState;
using iteration::RecoveryOutcome;

Result<RecoveryOutcome> NoFaultTolerancePolicy::OnFailure(
    const IterationContext& ctx, IterationState* state,
    const std::vector<int>& lost) {
  (void)state;
  FLOG_WARN("job '" << ctx.job_id << "': " << lost.size()
                    << " partitions lost at iteration " << ctx.iteration
                    << " with no fault tolerance configured");
  return RecoveryOutcome::Abort();
}

Result<RecoveryOutcome> RestartPolicy::OnFailure(
    const IterationContext& ctx, IterationState* state,
    const std::vector<int>& lost) {
  (void)state;
  (void)lost;
  FLOG_INFO("job '" << ctx.job_id << "': restarting from scratch after "
                    << "failure at iteration " << ctx.iteration);
  return RecoveryOutcome::Restart();
}

namespace {

/// The one precondition every checkpointing policy shares.
Status RequireStorage(const IterationContext& ctx) {
  if (ctx.storage != nullptr) return Status::OK();
  return Status::FailedPrecondition(
      "checkpoint recovery requires stable storage in the job environment");
}

/// Re-seeds a delta iteration's workset after its lost solution partitions
/// were restored from a (stale) snapshot; bulk iterations need nothing.
Status RefreshWorkset(const WorksetRefresher& refresher,
                      const IterationContext& ctx, IterationState* state,
                      const std::vector<int>& lost) {
  if (state->kind() != iteration::StateKind::kDelta) return Status::OK();
  if (!refresher) {
    return Status::FailedPrecondition(
        "confined recovery of a delta iteration needs a workset refresher");
  }
  return refresher(ctx, static_cast<iteration::DeltaState*>(state), lost);
}

}  // namespace

PartitionSnapshots::PartitionSnapshots(std::string tag, int interval)
    : tag_(std::move(tag)), interval_(interval) {
  FLINKLESS_CHECK(interval_ >= 1, "checkpoint interval must be >= 1");
}

std::string PartitionSnapshots::Key(const std::string& job_id, int epoch,
                                    int partition) const {
  char buf[32];
  if (partition < 0) {
    std::snprintf(buf, sizeof(buf), "/%08d/", epoch);
  } else {
    std::snprintf(buf, sizeof(buf), "/%08d/%06d", epoch, partition);
  }
  return job_id + "/" + tag_ + buf;
}

Status PartitionSnapshots::Start(const IterationContext& ctx,
                                 const IterationState& state) {
  epoch_ = -1;
  FLINKLESS_RETURN_NOT_OK(RequireStorage(ctx));
  ctx.storage->DeleteWithPrefix(ctx.job_id + "/" + tag_ + "/");
  return Write(ctx, state);
}

Status PartitionSnapshots::AfterIteration(const IterationContext& ctx,
                                          const IterationState& state) {
  if (ctx.iteration % interval_ != 0) return Status::OK();
  FLINKLESS_RETURN_NOT_OK(RequireStorage(ctx));
  return Write(ctx, state);
}

Status PartitionSnapshots::Write(const IterationContext& ctx,
                                 const IterationState& state) {
  for (int p = 0; p < state.num_partitions(); ++p) {
    FLINKLESS_RETURN_NOT_OK(ctx.storage->Write(
        Key(ctx.job_id, ctx.iteration, p), state.SerializePartition(p)));
  }
  // The new epoch is complete; only now is the previous one dropped.
  if (epoch_ >= 0 && epoch_ != ctx.iteration) {
    ctx.storage->DeleteWithPrefix(Key(ctx.job_id, epoch_));
  }
  epoch_ = ctx.iteration;
  return Status::OK();
}

Status PartitionSnapshots::Restore(const IterationContext& ctx,
                                   IterationState* state,
                                   const std::vector<int>& partitions) const {
  FLINKLESS_RETURN_NOT_OK(RequireStorage(ctx));
  if (epoch_ < 0) {
    return Status::DataLoss("no checkpoint available for job '" + ctx.job_id +
                            "'");
  }
  for (int p : partitions) {
    FLINKLESS_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                               ctx.storage->Read(Key(ctx.job_id, epoch_, p)));
    FLINKLESS_RETURN_NOT_OK(state->RestorePartition(p, blob));
  }
  return Status::OK();
}

Result<RecoveryOutcome> CheckpointRollbackPolicy::OnFailure(
    const IterationContext& ctx, IterationState* state,
    const std::vector<int>& lost) {
  (void)lost;
  // Synchronous rollback: every partition is restored to the snapshot, not
  // just the lost ones — the surviving partitions' progress since the
  // checkpoint is discarded too.
  std::vector<int> all(state->num_partitions());
  std::iota(all.begin(), all.end(), 0);
  FLINKLESS_RETURN_NOT_OK(snapshots_.Restore(ctx, state, all));
  FLOG_INFO("job '" << ctx.job_id << "': rolled back from iteration "
                    << ctx.iteration << " to checkpoint at iteration "
                    << snapshots_.epoch());
  return RecoveryOutcome::Rewind(snapshots_.epoch());
}

Result<RecoveryOutcome> ConfinedRollbackPolicy::OnFailure(
    const IterationContext& ctx, IterationState* state,
    const std::vector<int>& lost) {
  // Confined restore: only the lost partitions come back from the (stale)
  // snapshot; the survivors keep their current, newer state.
  FLINKLESS_RETURN_NOT_OK(snapshots_.Restore(ctx, state, lost));
  FLINKLESS_RETURN_NOT_OK(RefreshWorkset(refresher_, ctx, state, lost));
  FLOG_INFO("job '" << ctx.job_id << "': confined restore of "
                    << lost.size() << " partitions at iteration "
                    << ctx.iteration << " (survivors keep their progress)");
  return RecoveryOutcome::Continue();
}

Result<RecoveryOutcome> ConfinedLogReplayPolicy::OnFailure(
    const IterationContext& ctx, IterationState* state,
    const std::vector<int>& lost) {
  if (!ctx.replay_messages) {
    return Status::FailedPrecondition(
        "confined-log recovery needs the driver's outbound message log: "
        "enable message_log in the iteration config (--msglog on the "
        "demos)");
  }
  // The solution set accumulates across supersteps; the log only covers
  // the failed one. Restore the lost solution partitions to the latest
  // snapshot first, let the replayed delta re-apply the failed superstep's
  // updates on top, then re-seed the workset so the snapshot-to-now
  // staleness re-propagates and converges out — like confined rollback.
  if (state->kind() == iteration::StateKind::kDelta) {
    FLINKLESS_RETURN_NOT_OK(snapshots_.Restore(ctx, state, lost));
  }
  FLINKLESS_RETURN_NOT_OK(ctx.replay_messages(lost));
  FLINKLESS_RETURN_NOT_OK(RefreshWorkset(refresher_, ctx, state, lost));
  FLOG_INFO("job '" << ctx.job_id << "': confined-log replay rebuilt "
                    << lost.size() << " partitions at iteration "
                    << ctx.iteration << " (survivors idle, no recompute)");
  return RecoveryOutcome::Continue();
}

namespace {

/// Delta-checkpoint link magic ("FLKDCP3\0" little-endian). Every link
/// starts with it; a blob without it is not a delta-checkpoint link.
constexpr uint64_t kDeltaBlobMagic = 0x00335043444b4c46ULL;

/// Version metadata framed into every blob.
struct DeltaBlobVersions {
  /// The partition clock this delta was computed against: the blob holds
  /// exactly the entries with version > since. 0 = full snapshot.
  uint64_t since = 0;
  /// The partition clock at write time. The next chain link's `since` must
  /// equal this, which is what chain-contiguity validation checks.
  uint64_t clock = 0;
};

/// Frames one partition's checkpoint link: the partition's version window,
/// then the delta snapshot's two blocks — the changed solution entries and
/// the current workset.
std::vector<uint8_t> FrameDeltaBlob(
    uint64_t since_version, uint64_t clock_at_write,
    const std::vector<dataflow::Record>& solution_entries,
    const std::vector<dataflow::Record>& workset_records) {
  std::vector<uint8_t> out;
  PutU64(kDeltaBlobMagic, &out);
  PutU64(since_version, &out);
  PutU64(clock_at_write, &out);
  dataflow::EncodeBlock(solution_entries, &out);
  dataflow::EncodeBlock(workset_records, &out);
  return out;
}

Status UnframeDeltaBlob(const std::vector<uint8_t>& blob,
                        std::vector<dataflow::Record>* solution_entries,
                        std::vector<dataflow::Record>* workset_records,
                        DeltaBlobVersions* versions) {
  size_t offset = 0;
  uint64_t magic = 0;
  if (!GetU64(blob, &offset, &magic)) {
    return Status::DataLoss("truncated delta-checkpoint blob");
  }
  if (magic != kDeltaBlobMagic) {
    return Status::DataLoss(
        "delta-checkpoint blob has no version framing (bad magic)");
  }
  if (!GetU64(blob, &offset, &versions->since) ||
      !GetU64(blob, &offset, &versions->clock)) {
    return Status::DataLoss("truncated delta-checkpoint blob header");
  }
  FLINKLESS_ASSIGN_OR_RETURN(*solution_entries,
                             dataflow::DecodeBlock(blob, &offset));
  FLINKLESS_ASSIGN_OR_RETURN(*workset_records,
                             dataflow::DecodeBlock(blob, &offset));
  if (offset != blob.size()) {
    return Status::DataLoss("delta-checkpoint blob: trailing bytes");
  }
  return Status::OK();
}

}  // namespace

DeltaCheckpointPolicy::DeltaCheckpointPolicy(int interval, int compact_every)
    : interval_(interval), compact_every_(compact_every) {
  FLINKLESS_CHECK(interval_ >= 1, "checkpoint interval must be >= 1");
  FLINKLESS_CHECK(compact_every_ >= 1, "compact_every must be >= 1");
}

std::string DeltaCheckpointPolicy::BlobKey(const std::string& job_id,
                                           int sequence,
                                           int partition) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/dckpt/%08d/%06d", sequence, partition);
  return job_id + buf;
}

Status DeltaCheckpointPolicy::WriteCheckpoint(
    const IterationContext& ctx, const iteration::DeltaState& state,
    bool full) {
  FLINKLESS_RETURN_NOT_OK(RequireStorage(ctx));
  int sequence = next_sequence_++;
  if (static_cast<int>(last_versions_.size()) != state.num_partitions()) {
    last_versions_.assign(state.num_partitions(), 0);
  }
  for (int p = 0; p < state.num_partitions(); ++p) {
    const uint64_t since = full ? 0 : last_versions_[p];
    const uint64_t clock = state.solution().version(p);
    FLINKLESS_RETURN_NOT_OK(ctx.storage->Write(
        BlobKey(ctx.job_id, sequence, p),
        FrameDeltaBlob(since, clock,
                       state.solution().EntriesSince(p, since),
                       state.workset().partition(p))));
    last_versions_[p] = clock;
  }
  if (full) {
    // The old chain is superseded.
    for (int old_sequence : chain_) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "/dckpt/%08d/", old_sequence);
      ctx.storage->DeleteWithPrefix(ctx.job_id + buf);
    }
    chain_.clear();
  }
  chain_.push_back(sequence);
  last_checkpoint_ = ctx.iteration;
  return Status::OK();
}

Status DeltaCheckpointPolicy::OnJobStart(const IterationContext& ctx,
                                         IterationState* state) {
  if (state->kind() != iteration::StateKind::kDelta) {
    return Status::InvalidArgument(
        "delta checkpointing applies to delta iterations only");
  }
  if (ctx.storage != nullptr) {
    ctx.storage->DeleteWithPrefix(ctx.job_id + "/dckpt/");
  }
  last_checkpoint_ = -1;
  last_versions_.clear();
  next_sequence_ = 0;
  chain_.clear();
  return WriteCheckpoint(ctx, *static_cast<iteration::DeltaState*>(state),
                         /*full=*/true);
}

Status DeltaCheckpointPolicy::AfterIteration(const IterationContext& ctx,
                                             IterationState* state) {
  if (ctx.iteration % interval_ != 0) return Status::OK();
  if (state->kind() != iteration::StateKind::kDelta) {
    return Status::InvalidArgument(
        "delta checkpointing applies to delta iterations only");
  }
  bool compact = static_cast<int>(chain_.size()) >= compact_every_;
  return WriteCheckpoint(ctx, *static_cast<iteration::DeltaState*>(state),
                         compact);
}

Result<RecoveryOutcome> DeltaCheckpointPolicy::OnFailure(
    const IterationContext& ctx, IterationState* state,
    const std::vector<int>& lost) {
  (void)lost;
  FLINKLESS_RETURN_NOT_OK(RequireStorage(ctx));
  if (state->kind() != iteration::StateKind::kDelta) {
    return Status::InvalidArgument(
        "delta checkpointing applies to delta iterations only");
  }
  if (chain_.empty()) {
    return Status::DataLoss("no delta checkpoint available for job '" +
                            ctx.job_id + "'");
  }
  auto* delta = static_cast<iteration::DeltaState*>(state);
  // Replay the chain per partition: base entries first, newer deltas
  // overwrite older ones; the workset comes from the newest checkpoint
  // alone. Each blob records the clock window it was cut from, so a chain
  // whose links do not abut (a lost or reordered delta) is detected instead
  // of silently restoring a hole.
  for (int p = 0; p < delta->num_partitions(); ++p) {
    delta->solution().ClearPartition(p);
    delta->workset().ClearPartition(p);
    uint64_t expected_since = 0;
    for (size_t link = 0; link < chain_.size(); ++link) {
      bool newest = link + 1 == chain_.size();
      FLINKLESS_ASSIGN_OR_RETURN(
          std::vector<uint8_t> blob,
          ctx.storage->Read(BlobKey(ctx.job_id, chain_[link], p)));
      std::vector<dataflow::Record> entries;
      std::vector<dataflow::Record> workset_records;
      DeltaBlobVersions versions;
      FLINKLESS_RETURN_NOT_OK(
          UnframeDeltaBlob(blob, &entries, &workset_records, &versions));
      if (link == 0 && versions.since != 0) {
        return Status::DataLoss(
            "delta-checkpoint chain of job '" + ctx.job_id +
            "' does not start with a full snapshot (base since=" +
            std::to_string(versions.since) + ")");
      }
      if (link > 0 && versions.since != expected_since) {
        return Status::DataLoss(
            "delta-checkpoint chain of job '" + ctx.job_id +
            "' is not contiguous for partition " + std::to_string(p) +
            ": link " + std::to_string(link) + " covers since=" +
            std::to_string(versions.since) + ", previous link ended at " +
            std::to_string(expected_since));
      }
      expected_since = versions.clock;
      for (auto& record : entries) {
        delta->solution().UpsertIntoPartition(p, std::move(record));
      }
      if (newest) delta->workset().partition(p) = std::move(workset_records);
    }
    // Realign the replayed clock with the value recorded when the newest
    // link was cut, so post-recovery deltas chain contiguously with the
    // pre-failure links (a second failure would otherwise trip the
    // contiguity check above).
    delta->solution().FastForwardClock(p, expected_since);
  }
  // Resync the watermarks to the restored clocks: the replay rebuilt each
  // partition from version 0, and the next incremental delta must capture
  // only post-restore changes — never re-ship what was just restored.
  last_versions_ = delta->solution().VersionVector();
  FLOG_INFO("job '" << ctx.job_id << "': replayed a " << chain_.size()
                    << "-link delta-checkpoint chain back to iteration "
                    << last_checkpoint_);
  return RecoveryOutcome::Rewind(last_checkpoint_);
}

OptimisticRecoveryPolicy::OptimisticRecoveryPolicy(
    CompensationFunction* compensation)
    : compensation_(compensation) {
  FLINKLESS_CHECK(compensation_ != nullptr,
                  "optimistic recovery needs a compensation function");
}

Result<RecoveryOutcome> OptimisticRecoveryPolicy::OnFailure(
    const IterationContext& ctx, IterationState* state,
    const std::vector<int>& lost) {
  // No checkpoint, no lineage: re-initialize the lost partitions through the
  // user-supplied compensation function and keep going from the current
  // iteration. The subsequent iterations of the fixpoint algorithm correct
  // the errors the data loss introduced (paper §2.2).
  FLINKLESS_RETURN_NOT_OK(compensation_->Compensate(ctx, state, lost));
  FLOG_INFO("job '" << ctx.job_id << "': compensated " << lost.size()
                    << " lost partitions at iteration " << ctx.iteration
                    << " with '" << compensation_->name() << "'");
  return RecoveryOutcome::Continue();
}

}  // namespace flinkless::core
