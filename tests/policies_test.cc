// Tests for the recovery strategies in src/core: no-FT, restart,
// checkpoint/rollback, optimistic (compensation). These pin down the
// observable contract the benchmarks rely on: what each strategy costs in
// failure-free runs and what it does on failure.

#include <gtest/gtest.h>

#include <cstdio>

#include "core/policies.h"
#include "dataflow/executor.h"
#include "iteration/bulk_iteration.h"
#include "iteration/state.h"
#include "runtime/stable_storage.h"

namespace flinkless::core {
namespace {

using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;
using iteration::BulkState;
using iteration::IterationContext;
using iteration::RecoveryAction;

IterationContext MakeContext(int iteration, int partitions,
                             runtime::StableStorage* storage,
                             const std::string& job_id = "test-job") {
  IterationContext ctx;
  ctx.iteration = iteration;
  ctx.num_partitions = partitions;
  ctx.storage = storage;
  ctx.job_id = job_id;
  return ctx;
}

BulkState MakeState(int64_t n, int parts, int64_t value) {
  std::vector<Record> records;
  for (int64_t v = 0; v < n; ++v) records.push_back(MakeRecord(v, value));
  return BulkState(PartitionedDataset::HashPartitioned(records, {0}, parts));
}

// ------------------------------------------------------------------ NoFT --

TEST(NoFaultToleranceTest, FailureAborts) {
  NoFaultTolerancePolicy policy;
  BulkState state = MakeState(8, 2, 1);
  auto outcome = policy.OnFailure(MakeContext(3, 2, nullptr), &state, {0});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->action, RecoveryAction::kAbort);
  EXPECT_EQ(policy.name(), "none");
}

TEST(NoFaultToleranceTest, NoFailureFreeSideEffects) {
  NoFaultTolerancePolicy policy;
  runtime::StableStorage storage(nullptr, nullptr);
  BulkState state = MakeState(8, 2, 1);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 2, &storage), &state).ok());
  EXPECT_EQ(storage.bytes_written(), 0u);
}

// --------------------------------------------------------------- Restart --

TEST(RestartPolicyTest, FailureRequestsRestart) {
  RestartPolicy policy;
  BulkState state = MakeState(8, 2, 1);
  auto outcome = policy.OnFailure(MakeContext(5, 2, nullptr), &state, {1});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->action, RecoveryAction::kRestart);
}

// ---------------------------------------------------- partition snapshots --

TEST(PartitionSnapshotsTest, KeepsOnlyTheLatestEpochUnderItsTag) {
  runtime::StableStorage storage(nullptr, nullptr);
  PartitionSnapshots snapshots("confined", /*interval=*/2);
  BulkState state = MakeState(8, 2, 1);
  ASSERT_TRUE(snapshots.Start(MakeContext(0, 2, &storage), state).ok());
  ASSERT_TRUE(
      snapshots.AfterIteration(MakeContext(1, 2, &storage), state).ok());
  EXPECT_EQ(snapshots.epoch(), 0);  // 1 is not a multiple of the interval
  ASSERT_TRUE(
      snapshots.AfterIteration(MakeContext(2, 2, &storage), state).ok());
  EXPECT_EQ(snapshots.epoch(), 2);
  EXPECT_EQ(storage.ListWithPrefix("test-job/"),
            (std::vector<std::string>{"test-job/confined/00000002/000000",
                                      "test-job/confined/00000002/000001"}));
}

TEST(PartitionSnapshotsTest, RestoreWithoutSnapshotIsDataLoss) {
  runtime::StableStorage storage(nullptr, nullptr);
  PartitionSnapshots snapshots("ckpt", /*interval=*/1);
  BulkState state = MakeState(4, 2, 1);
  EXPECT_TRUE(snapshots.Restore(MakeContext(1, 2, &storage), &state, {0})
                  .IsDataLoss());
}

// -------------------------------------------------------------- Rollback --

TEST(RollbackTest, CheckpointsInitialStateOnJobStart) {
  runtime::StableStorage storage(nullptr, nullptr);
  CheckpointRollbackPolicy policy(/*interval=*/2);
  BulkState state = MakeState(16, 4, 7);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 4, &storage), &state).ok());
  EXPECT_EQ(policy.last_checkpoint_iteration(), 0);
  EXPECT_EQ(storage.ListWithPrefix("test-job/ckpt/").size(), 4u);
}

TEST(RollbackTest, ChecksIntervalBeforeCheckpointing) {
  runtime::StableStorage storage(nullptr, nullptr);
  CheckpointRollbackPolicy policy(/*interval=*/3);
  BulkState state = MakeState(8, 2, 1);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  uint64_t after_start = storage.num_writes();
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 2, &storage), &state).ok());
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(2, 2, &storage), &state).ok());
  EXPECT_EQ(storage.num_writes(), after_start);  // not yet
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(3, 2, &storage), &state).ok());
  EXPECT_EQ(storage.num_writes(), after_start + 2);  // iteration 3 hits k=3
  EXPECT_EQ(policy.last_checkpoint_iteration(), 3);
}

TEST(RollbackTest, GarbageCollectsOlderCheckpoints) {
  runtime::StableStorage storage(nullptr, nullptr);
  CheckpointRollbackPolicy policy(/*interval=*/1);
  BulkState state = MakeState(8, 2, 1);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 2, &storage), &state).ok());
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(2, 2, &storage), &state).ok());
  // Only the latest snapshot (iteration 2) remains live.
  EXPECT_EQ(storage.ListWithPrefix("test-job/ckpt/").size(), 2u);
  for (const auto& key : storage.ListWithPrefix("test-job/ckpt/")) {
    EXPECT_NE(key.find("00000002"), std::string::npos);
  }
}

TEST(RollbackTest, RestoresAllPartitionsAndRewinds) {
  runtime::StableStorage storage(nullptr, nullptr);
  CheckpointRollbackPolicy policy(/*interval=*/2);
  BulkState state = MakeState(16, 4, 7);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 4, &storage), &state).ok());

  // Progress to value 9 and checkpoint at iteration 2.
  for (auto& record : state.data().partition(0)) record[1] = int64_t{9};
  for (auto& record : state.data().partition(1)) record[1] = int64_t{9};
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(2, 4, &storage), &state).ok());

  // More progress (value 11), then a failure at iteration 3.
  for (int p = 0; p < 4; ++p) {
    for (auto& record : state.data().partition(p)) record[1] = int64_t{11};
  }
  state.ClearPartition(2);
  auto outcome = policy.OnFailure(MakeContext(3, 4, &storage), &state, {2});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->action, RecoveryAction::kRewind);
  EXPECT_EQ(outcome->rewind_to_iteration, 2);

  // Every partition is back at the checkpointed state — including the
  // surviving ones that had progressed past it.
  for (const Record& r : state.data().CollectSorted()) {
    int64_t expected =
        (PartitionedDataset::PartitionOf(r, {0}, 4) <= 1) ? 9 : 7;
    EXPECT_EQ(r[1].AsInt64(), expected) << RecordToString(r);
  }
  EXPECT_EQ(state.data().NumRecords(), 16u);
}

TEST(RollbackTest, RequiresStableStorage) {
  CheckpointRollbackPolicy policy(1);
  BulkState state = MakeState(4, 2, 1);
  EXPECT_FALSE(policy.OnJobStart(MakeContext(0, 2, nullptr), &state).ok());
  EXPECT_FALSE(
      policy.OnFailure(MakeContext(1, 2, nullptr), &state, {0}).ok());
}

TEST(RollbackTest, JobStartClearsStaleCheckpoints) {
  runtime::StableStorage storage(nullptr, nullptr);
  ASSERT_TRUE(storage.Write("test-job/ckpt/99999999/000000", {1}).ok());
  CheckpointRollbackPolicy policy(1);
  BulkState state = MakeState(4, 2, 1);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  EXPECT_TRUE(storage.ListWithPrefix("test-job/ckpt/99999999").empty());
}

TEST(RollbackTest, NameIncludesInterval) {
  EXPECT_EQ(CheckpointRollbackPolicy(5).name(), "rollback(k=5)");
}

// ---------------------------------------------------- confined rollback --

TEST(ConfinedRollbackTest, RestoresOnlyLostPartitions) {
  runtime::StableStorage storage(nullptr, nullptr);
  core::ConfinedRollbackPolicy policy(/*interval=*/1);
  BulkState state = MakeState(16, 4, 7);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 4, &storage), &state).ok());

  // Progress everywhere, checkpoint, progress further, then lose part 2.
  for (int p = 0; p < 4; ++p) {
    for (auto& record : state.data().partition(p)) record[1] = int64_t{9};
  }
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 4, &storage), &state).ok());
  for (int p = 0; p < 4; ++p) {
    for (auto& record : state.data().partition(p)) record[1] = int64_t{11};
  }
  state.ClearPartition(2);
  auto outcome = policy.OnFailure(MakeContext(2, 4, &storage), &state, {2});
  ASSERT_TRUE(outcome.ok());
  // No rewind: the job continues from the current iteration.
  EXPECT_EQ(outcome->action, RecoveryAction::kContinue);
  // Lost partition is back at the checkpointed value; survivors keep their
  // newer progress — the "mixed" state confined recovery relies on.
  for (const Record& r : state.data().CollectSorted()) {
    int64_t expected =
        PartitionedDataset::PartitionOf(r, {0}, 4) == 2 ? 9 : 11;
    EXPECT_EQ(r[1].AsInt64(), expected) << RecordToString(r);
  }
  EXPECT_EQ(state.data().NumRecords(), 16u);
}

TEST(ConfinedRollbackTest, DeltaStateNeedsRefresher) {
  runtime::StableStorage storage(nullptr, nullptr);
  core::ConfinedRollbackPolicy policy(1);  // no refresher
  iteration::DeltaState state(
      iteration::SolutionSet::FromRecords({MakeRecord(int64_t{0}, int64_t{0})},
                                          {0}, 2),
      PartitionedDataset(2));
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  state.ClearPartition(0);
  auto outcome = policy.OnFailure(MakeContext(1, 2, &storage), &state, {0});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ConfinedRollbackTest, RequiresStorage) {
  core::ConfinedRollbackPolicy policy(1);
  BulkState state = MakeState(4, 2, 1);
  EXPECT_FALSE(policy.OnJobStart(MakeContext(0, 2, nullptr), &state).ok());
}

TEST(ConfinedRollbackTest, RepeatedFailuresOfSamePartitionRestoreEachTime) {
  runtime::StableStorage storage(nullptr, nullptr);
  core::ConfinedRollbackPolicy policy(/*interval=*/1);
  BulkState state = MakeState(16, 4, 7);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 4, &storage), &state).ok());
  for (int p = 0; p < 4; ++p) {
    for (auto& record : state.data().partition(p)) record[1] = int64_t{9};
  }
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 4, &storage), &state).ok());

  // Partition 2 dies, recovers, and dies again before any new checkpoint:
  // the second recovery must serve the same snapshot, not leftovers of the
  // first restore pass.
  for (int p = 0; p < 4; ++p) {
    for (auto& record : state.data().partition(p)) record[1] = int64_t{11};
  }
  state.ClearPartition(2);
  auto first = policy.OnFailure(MakeContext(2, 4, &storage), &state, {2});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->action, RecoveryAction::kContinue);

  state.ClearPartition(2);
  auto second = policy.OnFailure(MakeContext(3, 4, &storage), &state, {2});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->action, RecoveryAction::kContinue);
  for (const Record& r : state.data().CollectSorted()) {
    int64_t expected =
        PartitionedDataset::PartitionOf(r, {0}, 4) == 2 ? 9 : 11;
    EXPECT_EQ(r[1].AsInt64(), expected) << RecordToString(r);
  }
  EXPECT_EQ(state.data().NumRecords(), 16u);
}

TEST(ConfinedRollbackTest, FailureOnCheckpointIntervalIteration) {
  // A failure landing on an iteration that is itself a checkpoint multiple
  // restores from the PREVIOUS snapshot (AfterIteration for this iteration
  // has not run yet); the checkpoint written right after then captures the
  // recovered mixed state, so later failures restore post-recovery values.
  runtime::StableStorage storage(nullptr, nullptr);
  core::ConfinedRollbackPolicy policy(/*interval=*/2);
  BulkState state = MakeState(16, 4, 7);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 4, &storage), &state).ok());
  for (int p = 0; p < 4; ++p) {
    for (auto& record : state.data().partition(p)) record[1] = int64_t{9};
  }
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(2, 4, &storage), &state).ok());

  for (int p = 0; p < 4; ++p) {
    for (auto& record : state.data().partition(p)) record[1] = int64_t{11};
  }
  state.ClearPartition(1);
  auto outcome = policy.OnFailure(MakeContext(4, 4, &storage), &state, {1});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->action, RecoveryAction::kContinue);
  for (const Record& r : state.data().CollectSorted()) {
    int64_t expected =
        PartitionedDataset::PartitionOf(r, {0}, 4) == 1 ? 9 : 11;
    EXPECT_EQ(r[1].AsInt64(), expected) << RecordToString(r);
  }

  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(4, 4, &storage), &state).ok());
  state.ClearPartition(3);
  auto later = policy.OnFailure(MakeContext(5, 4, &storage), &state, {3});
  ASSERT_TRUE(later.ok());
  for (const Record& r : state.data().CollectSorted()) {
    // Partition 3's loss lands on the post-recovery snapshot: value 11.
    int64_t expected =
        PartitionedDataset::PartitionOf(r, {0}, 4) == 1 ? 9 : 11;
    EXPECT_EQ(r[1].AsInt64(), expected) << RecordToString(r);
  }
  EXPECT_EQ(state.data().NumRecords(), 16u);
}

// ------------------------------------------------ entry-level delta ckpt --

iteration::DeltaState MakeDeltaState(int64_t n, int parts) {
  std::vector<Record> records;
  for (int64_t v = 0; v < n; ++v) records.push_back(MakeRecord(v, v));
  return iteration::DeltaState(
      iteration::SolutionSet::FromRecords(records, {0}, parts),
      PartitionedDataset::HashPartitioned(records, {0}, parts));
}

TEST(DeltaCheckpointTest, RejectsBulkState) {
  runtime::StableStorage storage(nullptr, nullptr);
  DeltaCheckpointPolicy policy(1);
  BulkState bulk = MakeState(4, 2, 1);
  EXPECT_FALSE(policy.OnJobStart(MakeContext(0, 2, &storage), &bulk).ok());
}

TEST(DeltaCheckpointTest, DeltasShrinkWithFewerUpdates) {
  runtime::StableStorage storage(nullptr, nullptr);
  DeltaCheckpointPolicy policy(1);
  iteration::DeltaState state = MakeDeltaState(64, 4);
  state.workset() = PartitionedDataset(4);  // empty workset for clarity
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 4, &storage), &state).ok());
  uint64_t base_bytes = storage.bytes_written();
  EXPECT_GT(base_bytes, 0u);

  // Iteration 1 touches 4 entries, iteration 2 touches 1.
  for (int64_t v = 0; v < 4; ++v) {
    state.solution().Upsert(MakeRecord(v, v + 100));
  }
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 4, &storage), &state).ok());
  uint64_t delta1_bytes = storage.bytes_written() - base_bytes;
  state.solution().Upsert(MakeRecord(int64_t{9}, int64_t{900}));
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(2, 4, &storage), &state).ok());
  uint64_t delta2_bytes = storage.bytes_written() - base_bytes - delta1_bytes;

  EXPECT_LT(delta1_bytes, base_bytes);
  EXPECT_LT(delta2_bytes, delta1_bytes);
  EXPECT_EQ(policy.chain_length(), 3u);
}

TEST(DeltaCheckpointTest, RestoreReplaysChainExactly) {
  runtime::StableStorage storage(nullptr, nullptr);
  DeltaCheckpointPolicy policy(1);
  iteration::DeltaState state = MakeDeltaState(32, 4);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 4, &storage), &state).ok());

  // Two checkpointed iterations of updates.
  for (int64_t v = 0; v < 8; ++v) {
    state.solution().Upsert(MakeRecord(v, v + 1000));
  }
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 4, &storage), &state).ok());
  for (int64_t v = 4; v < 6; ++v) {
    state.solution().Upsert(MakeRecord(v, v + 2000));
  }
  state.workset() = PartitionedDataset::HashPartitioned(
      {MakeRecord(int64_t{5}, int64_t{2005})}, {0}, 4);
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(2, 4, &storage), &state).ok());

  // Progress past the checkpoint, then fail two partitions.
  for (int64_t v = 0; v < 32; ++v) {
    state.solution().Upsert(MakeRecord(v, int64_t{-1}));
  }
  state.ClearPartition(0);
  state.ClearPartition(2);
  auto outcome = policy.OnFailure(MakeContext(3, 4, &storage), &state,
                                  {0, 2});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->action, RecoveryAction::kRewind);
  EXPECT_EQ(outcome->rewind_to_iteration, 2);

  // The solution is exactly the checkpoint-2 state: v<4 -> +1000,
  // 4..5 -> +2000, 6..7 -> +1000, rest original.
  EXPECT_EQ(state.solution().NumEntries(), 32u);
  for (int64_t v = 0; v < 32; ++v) {
    const Record* entry = state.solution().Lookup(MakeRecord(v));
    ASSERT_NE(entry, nullptr);
    int64_t expected = v < 4 ? v + 1000 : v < 6 ? v + 2000 : v < 8 ? v + 1000
                                                                   : v;
    EXPECT_EQ((*entry)[1].AsInt64(), expected) << "vertex " << v;
  }
  // Workset restored from the newest checkpoint.
  EXPECT_EQ(state.workset().NumRecords(), 1u);
}

TEST(DeltaCheckpointTest, CompactionBoundsChainAndDropsOldBlobs) {
  runtime::StableStorage storage(nullptr, nullptr);
  DeltaCheckpointPolicy policy(1, /*compact_every=*/3);
  iteration::DeltaState state = MakeDeltaState(16, 2);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  for (int iter = 1; iter <= 6; ++iter) {
    state.solution().Upsert(MakeRecord(int64_t{iter % 16}, int64_t{iter}));
    ASSERT_TRUE(
        policy.AfterIteration(MakeContext(iter, 2, &storage), &state).ok());
  }
  EXPECT_LE(policy.chain_length(), 4u);
  // Superseded chains are garbage-collected: live blobs = chain links x
  // partitions.
  EXPECT_EQ(storage.ListWithPrefix("test-job/dckpt/").size(),
            policy.chain_length() * 2);
  // And recovery still works after compaction.
  state.ClearPartition(1);
  auto outcome = policy.OnFailure(MakeContext(7, 2, &storage), &state, {1});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(state.solution().NumEntries(), 16u);
}

TEST(DeltaCheckpointTest, PostRecoveryDeltaNoLargerThanFailureFree) {
  // Regression for the restore-marks-dirty bug: the incremental checkpoint
  // taken right after a recovery must not be inflated by the entries the
  // recovery itself restored — it must match the failure-free run's
  // checkpoint byte for byte.
  auto apply_updates = [](iteration::DeltaState* state, int round) {
    const int64_t base = round * 100;
    for (int64_t v = 0; v < 4; ++v) {
      state->solution().Upsert(MakeRecord(v, base + v));
    }
  };

  // Failure-free run.
  runtime::StableStorage storage_a(nullptr, nullptr);
  DeltaCheckpointPolicy policy_a(1);
  iteration::DeltaState state_a = MakeDeltaState(64, 4);
  state_a.workset() = PartitionedDataset(4);
  ASSERT_TRUE(policy_a.OnJobStart(MakeContext(0, 4, &storage_a), &state_a)
                  .ok());
  apply_updates(&state_a, 1);
  ASSERT_TRUE(
      policy_a.AfterIteration(MakeContext(1, 4, &storage_a), &state_a).ok());
  uint64_t before_a = storage_a.bytes_written();
  apply_updates(&state_a, 2);
  ASSERT_TRUE(
      policy_a.AfterIteration(MakeContext(2, 4, &storage_a), &state_a).ok());
  uint64_t delta2_failure_free = storage_a.bytes_written() - before_a;

  // Same run, but every partition fails right after checkpoint 1; recovery
  // replays the chain and rewinds, then iteration 2 re-executes.
  runtime::StableStorage storage_b(nullptr, nullptr);
  DeltaCheckpointPolicy policy_b(1);
  iteration::DeltaState state_b = MakeDeltaState(64, 4);
  state_b.workset() = PartitionedDataset(4);
  ASSERT_TRUE(policy_b.OnJobStart(MakeContext(0, 4, &storage_b), &state_b)
                  .ok());
  apply_updates(&state_b, 1);
  ASSERT_TRUE(
      policy_b.AfterIteration(MakeContext(1, 4, &storage_b), &state_b).ok());
  for (int p = 0; p < 4; ++p) state_b.ClearPartition(p);
  auto outcome = policy_b.OnFailure(MakeContext(2, 4, &storage_b), &state_b,
                                    {0, 1, 2, 3});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->rewind_to_iteration, 1);
  uint64_t before_b = storage_b.bytes_written();
  apply_updates(&state_b, 2);
  ASSERT_TRUE(
      policy_b.AfterIteration(MakeContext(2, 4, &storage_b), &state_b).ok());
  uint64_t delta2_post_recovery = storage_b.bytes_written() - before_b;

  EXPECT_EQ(delta2_post_recovery, delta2_failure_free);
}

TEST(DeltaCheckpointTest, SecondFailureAfterRecoveryReplaysConsistently) {
  // After a recovery, later deltas must chain contiguously onto the
  // pre-failure links (the replay realigns the partition clocks), so a
  // second failure replays the whole mixed chain without tripping the
  // contiguity validation.
  runtime::StableStorage storage(nullptr, nullptr);
  DeltaCheckpointPolicy policy(1);
  iteration::DeltaState state = MakeDeltaState(32, 4);
  state.workset() = PartitionedDataset(4);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 4, &storage), &state).ok());
  for (int64_t v = 0; v < 8; ++v) {
    state.solution().Upsert(MakeRecord(v, v + 1000));
  }
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 4, &storage), &state).ok());

  // First failure + recovery.
  for (int p = 0; p < 4; ++p) state.ClearPartition(p);
  ASSERT_TRUE(
      policy.OnFailure(MakeContext(2, 4, &storage), &state, {0, 1, 2, 3})
          .ok());

  // Progress + another incremental checkpoint on top of the replayed state.
  for (int64_t v = 8; v < 12; ++v) {
    state.solution().Upsert(MakeRecord(v, v + 2000));
  }
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(2, 4, &storage), &state).ok());

  // Second failure: the chain now mixes pre- and post-recovery links.
  for (int p = 0; p < 4; ++p) state.ClearPartition(p);
  auto outcome =
      policy.OnFailure(MakeContext(3, 4, &storage), &state, {0, 1, 2, 3});
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(state.solution().NumEntries(), 32u);
  for (int64_t v = 0; v < 32; ++v) {
    const Record* entry = state.solution().Lookup(MakeRecord(v));
    ASSERT_NE(entry, nullptr);
    int64_t expected = v < 8 ? v + 1000 : v < 12 ? v + 2000 : v;
    EXPECT_EQ((*entry)[1].AsInt64(), expected) << "vertex " << v;
  }
}

TEST(DeltaCheckpointTest, RestoreRejectsNonContiguousChain) {
  runtime::StableStorage storage(nullptr, nullptr);
  DeltaCheckpointPolicy policy(1);
  iteration::DeltaState state = MakeDeltaState(16, 2);
  state.workset() = PartitionedDataset(2);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  for (int64_t v = 0; v < 4; ++v) {
    state.solution().Upsert(MakeRecord(v, v + 100));
  }
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 2, &storage), &state).ok());

  // Corrupt the chain: overwrite the delta link of partition 0 with a copy
  // of the base link, whose `since` window (0) does not abut the base's
  // end-of-window clock. The framed versions make this detectable.
  auto base_blob = storage.Read("test-job/dckpt/00000000/000000");
  ASSERT_TRUE(base_blob.ok());
  ASSERT_TRUE(
      storage.Write("test-job/dckpt/00000001/000000", *base_blob).ok());

  state.ClearPartition(0);
  auto outcome = policy.OnFailure(MakeContext(2, 2, &storage), &state, {0});
  ASSERT_TRUE(outcome.status().IsDataLoss()) << outcome.status();
  EXPECT_NE(outcome.status().message().find("not contiguous"),
            std::string::npos)
      << outcome.status();
}

TEST(DeltaCheckpointTest, RejectsLinksWithoutVersionFraming) {
  // A link without its header is the delta snapshot's two blocks alone: no
  // version window, so the chain cannot be checked for contiguity, and the
  // restore is refused as DataLoss instead of silently restoring whatever
  // the link holds.
  runtime::StableStorage storage(nullptr, nullptr);
  DeltaCheckpointPolicy policy(1);
  iteration::DeltaState state = MakeDeltaState(8, 2);
  state.workset() = PartitionedDataset(2);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());

  // Replace the freshly written base links with unframed snapshots.
  for (int p = 0; p < 2; ++p) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "test-job/dckpt/%08d/%06d", 0, p);
    ASSERT_TRUE(storage.Write(buf, state.SerializePartition(p)).ok());
  }

  for (int p = 0; p < 2; ++p) state.ClearPartition(p);
  auto outcome = policy.OnFailure(MakeContext(1, 2, &storage), &state, {0, 1});
  ASSERT_TRUE(outcome.status().IsDataLoss()) << outcome.status();
  EXPECT_NE(outcome.status().message().find("version framing"),
            std::string::npos)
      << outcome.status();
}

TEST(DeltaCheckpointTest, RestoreRejectsRowCountBeyondTheLink) {
  // A link whose solution block claims 2^64 - 32 rows: the restore must
  // return DataLoss instead of sizing a vector by it.
  runtime::StableStorage storage(nullptr, nullptr);
  DeltaCheckpointPolicy policy(1);
  iteration::DeltaState state = MakeDeltaState(8, 2);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());

  auto put_u64 = [](uint64_t v, std::vector<uint8_t>* out) {
    for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
  };
  auto base = storage.Read("test-job/dckpt/00000000/000000");
  ASSERT_TRUE(base.ok());
  std::vector<uint8_t> corrupt(base->begin(), base->begin() + 24);
  corrupt.push_back(0);                  // rows layout
  put_u64(~uint64_t{0} - 31, &corrupt);  // 2^64 - 32
  corrupt.push_back(0);
  ASSERT_TRUE(
      storage.Write("test-job/dckpt/00000000/000000", corrupt).ok());

  state.ClearPartition(0);
  auto outcome = policy.OnFailure(MakeContext(1, 2, &storage), &state, {0});
  EXPECT_TRUE(outcome.status().IsDataLoss()) << outcome.status();
}

// ------------------------------------------------------------ Optimistic --

/// Compensation that fills lost partitions with a marker value.
class MarkerCompensation : public CompensationFunction {
 public:
  std::string name() const override { return "marker"; }
  Status Compensate(const IterationContext& ctx,
                    iteration::IterationState* state,
                    const std::vector<int>& lost) override {
    last_iteration = ctx.iteration;
    auto* bulk = static_cast<BulkState*>(state);
    for (int p : lost) {
      bulk->data().partition(p).push_back(
          MakeRecord(int64_t{-1}, int64_t{4242}));
    }
    ++invocations;
    return Status::OK();
  }
  int invocations = 0;
  int last_iteration = -1;
};

TEST(OptimisticTest, InvokesCompensationAndContinues) {
  MarkerCompensation compensation;
  OptimisticRecoveryPolicy policy(&compensation);
  BulkState state = MakeState(8, 2, 1);
  state.ClearPartition(0);
  auto outcome = policy.OnFailure(MakeContext(4, 2, nullptr), &state, {0});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->action, RecoveryAction::kContinue);
  EXPECT_EQ(compensation.invocations, 1);
  EXPECT_EQ(compensation.last_iteration, 4);
  // The compensated marker is in place.
  bool found = false;
  for (const Record& r : state.data().partition(0)) {
    found |= r[1].AsInt64() == 4242;
  }
  EXPECT_TRUE(found);
}

TEST(OptimisticTest, ZeroFailureFreeOverhead) {
  // The headline property: optimistic recovery writes nothing to stable
  // storage during failure-free execution.
  MarkerCompensation compensation;
  OptimisticRecoveryPolicy policy(&compensation);
  runtime::StableStorage storage(nullptr, nullptr);
  BulkState state = MakeState(8, 2, 1);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  for (int it = 1; it <= 10; ++it) {
    ASSERT_TRUE(
        policy.AfterIteration(MakeContext(it, 2, &storage), &state).ok());
  }
  EXPECT_EQ(storage.bytes_written(), 0u);
  EXPECT_EQ(compensation.invocations, 0);
}

TEST(OptimisticTest, PropagatesCompensationFailure) {
  class FailingCompensation : public CompensationFunction {
   public:
    std::string name() const override { return "failing"; }
    Status Compensate(const IterationContext&, iteration::IterationState*,
                      const std::vector<int>&) override {
      return Status::Internal("cannot compensate");
    }
  };
  FailingCompensation compensation;
  OptimisticRecoveryPolicy policy(&compensation);
  BulkState state = MakeState(4, 2, 1);
  auto outcome = policy.OnFailure(MakeContext(1, 2, nullptr), &state, {0});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInternal);
}

TEST(OptimisticTest, NameMentionsCompensation) {
  MarkerCompensation compensation;
  OptimisticRecoveryPolicy policy(&compensation);
  EXPECT_EQ(policy.name(), "optimistic(marker)");
}

// -------------------------------------------- end-to-end policy contrast --

TEST(PolicyContrastTest, RollbackPaysCheckpointIoOptimisticDoesNot) {
  // Identical failure-free bulk jobs; only the policy differs. Rollback
  // accumulates checkpoint I/O simulated time; optimistic accumulates none.
  Plan plan;
  auto src = plan.Source("state");
  auto next = plan.Map(
      src,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() + 1);
      },
      "inc");
  plan.Output(next, "next_state");

  auto run = [&](iteration::FaultTolerancePolicy* policy,
                 runtime::SimClock* clock,
                 runtime::StableStorage* storage) {
    runtime::CostModel costs;
    iteration::JobEnv env;
    env.clock = clock;
    env.costs = &costs;
    env.storage = storage;
    iteration::BulkIterationConfig config;
    config.max_iterations = 10;
    dataflow::ExecOptions exec;
    exec.num_partitions = 4;
    exec.clock = clock;
    exec.costs = &costs;
    iteration::BulkIterationDriver driver(&plan, {}, config, exec, env);
    std::vector<Record> records;
    for (int64_t v = 0; v < 64; ++v) records.push_back(MakeRecord(v, v));
    auto result = driver.Run(
        PartitionedDataset::HashPartitioned(records, {0}, 4), policy);
    ASSERT_TRUE(result.ok());
  };

  runtime::SimClock rollback_clock;
  runtime::CostModel costs;
  runtime::StableStorage rollback_storage(&rollback_clock, &costs);
  CheckpointRollbackPolicy rollback(2);
  run(&rollback, &rollback_clock, &rollback_storage);

  runtime::SimClock optimistic_clock;
  runtime::StableStorage optimistic_storage(&optimistic_clock, &costs);
  MarkerCompensation compensation;
  OptimisticRecoveryPolicy optimistic(&compensation);
  run(&optimistic, &optimistic_clock, &optimistic_storage);

  EXPECT_GT(rollback_clock.Of(runtime::Charge::kCheckpointIo), 0);
  EXPECT_EQ(optimistic_clock.Of(runtime::Charge::kCheckpointIo), 0);
  EXPECT_GT(rollback_clock.TotalNs(), optimistic_clock.TotalNs());
  // Identical compute/network paths.
  EXPECT_EQ(rollback_clock.Of(runtime::Charge::kCompute),
            optimistic_clock.Of(runtime::Charge::kCompute));
}


// ---------------------------------------------------------- confined-log --

TEST(ConfinedLogReplayTest, FailureWithoutDriverLogIsRejected) {
  core::ConfinedLogReplayPolicy policy(2);
  BulkState state = MakeState(8, 2, 1);
  // No ctx.replay_messages hook: the driver ran without message_log.
  auto outcome = policy.OnFailure(MakeContext(3, 2, nullptr), &state, {0});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(policy.name(), "confined-log(k=2)");
}

TEST(ConfinedLogReplayTest, BulkReplaysWithoutCheckpoints) {
  runtime::StableStorage storage(nullptr, nullptr);
  core::ConfinedLogReplayPolicy policy(2);
  BulkState state = MakeState(8, 2, 1);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(2, 2, &storage), &state).ok());
  EXPECT_EQ(storage.bytes_written(), 0u);  // bulk: zero checkpoint I/O

  std::vector<int> replayed;
  IterationContext ctx = MakeContext(3, 2, &storage);
  ctx.replay_messages = [&](const std::vector<int>& lost) {
    replayed = lost;
    return Status::OK();
  };
  auto outcome = policy.OnFailure(ctx, &state, {1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->action, RecoveryAction::kContinue);
  EXPECT_EQ(replayed, (std::vector<int>{1}));
}

TEST(ConfinedLogReplayTest, DeltaSnapshotsAndRestoresBeforeReplaying) {
  runtime::StableStorage storage(nullptr, nullptr);
  int refreshes = 0;
  bool restored_before_replay = false;
  iteration::DeltaState state = MakeDeltaState(16, 4);
  core::ConfinedLogReplayPolicy policy(
      /*interval=*/1,
      [&](const iteration::IterationContext&, iteration::DeltaState*,
          const std::vector<int>&) {
        ++refreshes;
        return Status::OK();
      });
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 4, &storage), &state).ok());
  EXPECT_EQ(storage.ListWithPrefix("test-job/clog/").size(), 4u);

  for (int64_t v = 0; v < 16; ++v) {
    state.solution().Upsert(MakeRecord(v, v + 100));
  }
  ASSERT_TRUE(
      policy.AfterIteration(MakeContext(1, 4, &storage), &state).ok());

  // Newer, uncheckpointed progress on every entry; then partition 0 dies.
  for (int64_t v = 0; v < 16; ++v) {
    state.solution().Upsert(MakeRecord(v, v + 200));
  }
  state.ClearPartition(0);
  IterationContext ctx = MakeContext(2, 4, &storage);
  ctx.replay_messages = [&](const std::vector<int>& lost) {
    // The snapshot restore must have happened already: replay upserts the
    // failed superstep's delta ON TOP of the restored entries.
    restored_before_replay = !state.solution().PartitionRecords(0).empty();
    EXPECT_EQ(lost, (std::vector<int>{0}));
    return Status::OK();
  };
  auto outcome = policy.OnFailure(ctx, &state, {0});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->action, RecoveryAction::kContinue);
  EXPECT_TRUE(restored_before_replay);
  EXPECT_EQ(refreshes, 1);
  // Lost partition is back at the iteration-1 snapshot (value v+100);
  // survivors keep the newer v+200 entries.
  for (int p = 0; p < 4; ++p) {
    for (const Record& r : state.solution().PartitionRecords(p)) {
      int64_t expected = r[0].AsInt64() + (p == 0 ? 100 : 200);
      EXPECT_EQ(r[1].AsInt64(), expected) << RecordToString(r);
    }
  }
}

TEST(ConfinedLogReplayTest, DeltaWithoutRefresherIsRejected) {
  runtime::StableStorage storage(nullptr, nullptr);
  core::ConfinedLogReplayPolicy policy(1);  // no refresher
  iteration::DeltaState state = MakeDeltaState(8, 2);
  ASSERT_TRUE(policy.OnJobStart(MakeContext(0, 2, &storage), &state).ok());
  state.ClearPartition(0);
  IterationContext ctx = MakeContext(1, 2, &storage);
  ctx.replay_messages = [](const std::vector<int>&) { return Status::OK(); };
  auto outcome = policy.OnFailure(ctx, &state, {0});
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace flinkless::core
