// Tests for the iteration layer: state containers (serialize/clear/restore),
// the solution set, and the bulk/delta drivers including failure plumbing
// with scripted policies.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"
#include "dataflow/executor.h"
#include "iteration/bulk_iteration.h"
#include "iteration/delta_iteration.h"
#include "iteration/policy.h"
#include "iteration/state.h"

namespace flinkless::iteration {
namespace {

using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

// ------------------------------------------------------------- BulkState --

TEST(BulkStateTest, SerializeRestoreRoundTrip) {
  std::vector<Record> records;
  for (int64_t i = 0; i < 20; ++i) records.push_back(MakeRecord(i, i * 2));
  BulkState state(PartitionedDataset::HashPartitioned(records, {0}, 4));

  auto blob = state.SerializePartition(1);
  auto expected = state.data().partition(1);
  state.ClearPartition(1);
  EXPECT_TRUE(state.data().partition(1).empty());
  ASSERT_TRUE(state.RestorePartition(1, blob).ok());
  EXPECT_EQ(state.data().partition(1), expected);
  EXPECT_EQ(state.kind(), StateKind::kBulk);
}

TEST(BulkStateTest, RestoreRejectsCorruptBlob) {
  BulkState state(PartitionedDataset(2));
  EXPECT_FALSE(state.RestorePartition(0, {1, 2, 3}).ok());
}

// ----------------------------------------------------------- SolutionSet --

TEST(SolutionSetTest, UpsertAndLookup) {
  SolutionSet set(4, {0});
  EXPECT_FALSE(set.Upsert(MakeRecord(int64_t{1}, int64_t{10})));
  EXPECT_FALSE(set.Upsert(MakeRecord(int64_t{2}, int64_t{20})));
  EXPECT_TRUE(set.Upsert(MakeRecord(int64_t{1}, int64_t{11})));  // replaced
  EXPECT_EQ(set.NumEntries(), 2u);

  const Record* entry = set.Lookup(MakeRecord(int64_t{1}));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ((*entry)[1].AsInt64(), 11);
  EXPECT_EQ(set.Lookup(MakeRecord(int64_t{99})), nullptr);
}

TEST(SolutionSetTest, RowsAreCoPartitioned) {
  SolutionSet set(4, {0});
  for (int64_t v = 0; v < 40; ++v) set.Upsert(MakeRecord(v, v));
  const PartitionedDataset& ds = set.rows();
  EXPECT_EQ(ds.NumRecords(), 40u);
  EXPECT_TRUE(ds.IsPartitionedBy({0}));
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(ds.partition(p), set.PartitionRecords(p));
  }
}

TEST(SolutionSetTest, FromRecordsBuildsIndex) {
  std::vector<Record> records{MakeRecord(int64_t{5}, int64_t{50}),
                              MakeRecord(int64_t{6}, int64_t{60})};
  SolutionSet set = SolutionSet::FromRecords(records, {0}, 3);
  EXPECT_EQ(set.NumEntries(), 2u);
  EXPECT_EQ((*set.Lookup(MakeRecord(int64_t{6})))[1].AsInt64(), 60);
}

TEST(SolutionSetTest, ReplacePartitionValidatesRouting) {
  SolutionSet set(4, {0});
  // Find a vertex that maps to partition 2.
  int64_t v = 0;
  while (PartitionedDataset::PartitionOf(MakeRecord(v), {0}, 4) != 2) ++v;
  EXPECT_TRUE(set.ReplacePartition(2, {MakeRecord(v, v)}).ok());
  EXPECT_EQ(set.NumEntries(), 1u);
  // Same record into the wrong partition is rejected.
  int wrong = (PartitionedDataset::PartitionOf(MakeRecord(v), {0}, 4) + 1) % 4;
  EXPECT_FALSE(set.ReplacePartition(wrong, {MakeRecord(v, v)}).ok());
  EXPECT_FALSE(set.ReplacePartition(-1, {}).ok());
}

TEST(SolutionSetTest, PartitionRecordsSortedByKey) {
  SolutionSet set(1, {0});
  set.Upsert(MakeRecord(int64_t{3}, int64_t{0}));
  set.Upsert(MakeRecord(int64_t{1}, int64_t{0}));
  set.Upsert(MakeRecord(int64_t{2}, int64_t{0}));
  auto records = set.PartitionRecords(0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0][0].AsInt64(), 1);
  EXPECT_EQ(records[2][0].AsInt64(), 3);
}

TEST(SolutionSetTest, PerPartitionVersionClocks) {
  SolutionSet set(4, {0});
  // Route three distinct keys into known partitions.
  int64_t a = 0;
  while (PartitionedDataset::PartitionOf(MakeRecord(a), {0}, 4) != 1) ++a;
  int64_t b = a + 1;
  while (PartitionedDataset::PartitionOf(MakeRecord(b), {0}, 4) != 1) ++b;
  int64_t c = 0;
  while (PartitionedDataset::PartitionOf(MakeRecord(c), {0}, 4) != 2) ++c;

  set.Upsert(MakeRecord(a, int64_t{10}));
  set.Upsert(MakeRecord(b, int64_t{20}));
  set.Upsert(MakeRecord(c, int64_t{30}));
  // Only the owning partition's clock advances.
  EXPECT_EQ(set.version(0), 0u);
  EXPECT_EQ(set.version(1), 2u);
  EXPECT_EQ(set.version(2), 1u);
  EXPECT_EQ(set.VersionVector(), (std::vector<uint64_t>{0, 2, 1, 0}));

  // EntriesSince compares against the partition's own clock.
  EXPECT_EQ(set.EntriesSince(1, 0).size(), 2u);
  EXPECT_EQ(set.EntriesSince(1, 1).size(), 1u);
  EXPECT_EQ(set.EntriesSince(1, 2).size(), 0u);
  EXPECT_EQ(set.EntriesSince(2, 0).size(), 1u);

  // Overwriting a key bumps only its partition again.
  set.Upsert(MakeRecord(a, int64_t{11}));
  EXPECT_EQ(set.version(1), 3u);
  EXPECT_EQ(set.version(2), 1u);
  EXPECT_EQ(set.EntriesSince(1, 2).size(), 1u);
}

TEST(SolutionSetTest, ReplacePartitionDoesNotMarkEntriesFresh) {
  SolutionSet set(2, {0});
  for (int64_t v = 0; v < 12; ++v) set.Upsert(MakeRecord(v, v));

  // Snapshot partition 0 and "restore" it, as a checkpoint recovery does.
  std::vector<Record> snapshot = set.PartitionRecords(0);
  const size_t entries = snapshot.size();
  set.ClearPartition(0);
  EXPECT_EQ(set.version(0), 0u);
  ASSERT_TRUE(set.ReplacePartition(0, snapshot).ok());

  // The clock restarted at the entry count, and a watermark resynced to it
  // sees nothing fresh: the restore shipped no "changes".
  EXPECT_EQ(set.version(0), static_cast<uint64_t>(entries));
  EXPECT_TRUE(set.EntriesSince(0, set.version(0)).empty());
  // EntriesSince(p, 0) still returns the whole partition (full snapshots).
  EXPECT_EQ(set.EntriesSince(0, 0).size(), entries);
  // A subsequent upsert is strictly newer than every restored entry.
  uint64_t watermark = set.version(0);
  set.Upsert(snapshot[0]);
  EXPECT_EQ(set.EntriesSince(0, watermark).size(), 1u);
  // The sibling partition's clock never moved.
  EXPECT_EQ(set.EntriesSince(1, set.version(1)).size(), 0u);
}

TEST(SolutionSetTest, ApplyDeltaMatchesSerialUpserts) {
  const int kParts = 4;
  auto make_base = [&]() {
    SolutionSet set(kParts, {0});
    for (int64_t v = 0; v < 40; ++v) set.Upsert(MakeRecord(v, v));
    return set;
  };
  std::vector<Record> delta_records;
  for (int64_t v = 5; v < 35; v += 3) {
    delta_records.push_back(MakeRecord(v, v * 100));
  }
  auto delta = PartitionedDataset::HashPartitioned(delta_records, {0}, kParts);

  SolutionSet serial = make_base();
  for (int p = 0; p < kParts; ++p) {
    for (const Record& r : delta.partition(p)) serial.Upsert(r);
  }

  for (int threads : {0, 2, 8}) {
    SolutionSet pooled = make_base();
    std::unique_ptr<runtime::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<runtime::ThreadPool>(threads);
    EXPECT_EQ(pooled.ApplyDelta(delta, pool.get()), delta.NumRecords());
    EXPECT_EQ(pooled.VersionVector(), serial.VersionVector());
    for (int p = 0; p < kParts; ++p) {
      EXPECT_EQ(pooled.PartitionRecords(p), serial.PartitionRecords(p));
      for (uint64_t since : {uint64_t{0}, serial.version(p) / 2,
                             serial.version(p)}) {
        EXPECT_EQ(pooled.EntriesSince(p, since), serial.EntriesSince(p, since))
            << "threads=" << threads << " p=" << p << " since=" << since;
      }
    }
  }
}

TEST(SolutionSetTest, FastForwardClockAdvancesWithoutTouchingEntries) {
  SolutionSet set(2, {0});
  set.Upsert(MakeRecord(int64_t{0}, int64_t{1}));
  int p = PartitionedDataset::PartitionOf(MakeRecord(int64_t{0}), {0}, 2);
  uint64_t clock = set.version(p);
  set.FastForwardClock(p, clock + 5);
  EXPECT_EQ(set.version(p), clock + 5);
  EXPECT_EQ(set.EntriesSince(p, 0).size(), 1u);
  EXPECT_TRUE(set.EntriesSince(p, clock).empty());
}

// ----------------------------------------- flat store vs a map model --

/// The solution set's contract as the map-per-partition store it replaced:
/// key projection -> (record, version) in key order, plus a clock.
class ModelSet {
 public:
  ModelSet(int num_partitions, dataflow::KeyColumns key)
      : key_(std::move(key)), parts_(num_partitions) {}

  int PartitionOf(const Record& r) const {
    return PartitionedDataset::PartitionOf(r, key_, num_partitions());
  }
  int num_partitions() const { return static_cast<int>(parts_.size()); }
  uint64_t clock(int p) const { return parts_[p].clock; }

  bool Upsert(Record r) {
    Part& part = parts_[PartitionOf(r)];
    Record k = dataflow::ExtractKey(r, key_);
    const bool replaced = part.entries.count(k) > 0;
    part.entries[k] = {std::move(r), ++part.clock};
    return replaced;
  }
  void Replace(int p, const std::vector<Record>& records) {
    Clear(p);
    for (const Record& r : records) Upsert(r);
  }
  void Clear(int p) { parts_[p] = Part(); }
  void FastForward(int p, uint64_t to) { parts_[p].clock = to; }

  std::vector<Record> Since(int p, uint64_t since) const {
    std::vector<Record> out;
    for (const auto& [k, entry] : parts_[p].entries) {
      if (entry.second > since) out.push_back(entry.first);
    }
    return out;
  }
  const Record* Find(const Record& projection) const {
    for (const Part& part : parts_) {
      auto it = part.entries.find(projection);
      if (it != part.entries.end()) return &it->second.first;
    }
    return nullptr;
  }

 private:
  struct Part {
    std::map<Record, std::pair<Record, uint64_t>, dataflow::RecordOrder>
        entries;
    uint64_t clock = 0;
  };
  dataflow::KeyColumns key_;
  std::vector<Part> parts_;
};

/// Every observable of `set` against `model`; `universe` are the key
/// projections to Lookup (present and absent).
void ExpectMatchesModel(const SolutionSet& set, const ModelSet& model,
                        const std::vector<Record>& universe) {
  ASSERT_EQ(set.num_partitions(), model.num_partitions());
  uint64_t entries = 0;
  std::vector<uint64_t> clocks;
  for (int p = 0; p < set.num_partitions(); ++p) {
    const uint64_t clock = model.clock(p);
    clocks.push_back(clock);
    ASSERT_EQ(set.version(p), clock) << "p=" << p;
    const std::vector<Record> all = model.Since(p, 0);
    ASSERT_EQ(set.PartitionRecords(p), all) << "p=" << p;
    ASSERT_EQ(set.rows().partition(p), all) << "p=" << p;
    ASSERT_EQ(set.PartitionSize(p), all.size());
    entries += all.size();
    for (uint64_t since : {uint64_t{0}, clock / 3, clock / 2,
                           clock > 0 ? clock - 1 : 0, clock}) {
      ASSERT_EQ(set.EntriesSince(p, since), model.Since(p, since))
          << "p=" << p << " since=" << since;
    }
  }
  ASSERT_EQ(set.VersionVector(), clocks);
  ASSERT_EQ(set.NumEntries(), entries);
  for (const Record& k : universe) {
    const Record* got = set.Lookup(k);
    const Record* want = model.Find(k);
    ASSERT_EQ(got == nullptr, want == nullptr) << dataflow::RecordToString(k);
    if (got != nullptr) {
      ASSERT_EQ(*got, *want);
    }
  }
}

/// Key layouts the model test runs over: CC/SSSP's single int64 column
/// (the index's flat fast path), and a (string, int64) key out of column
/// order (the generic path, whose probes read the borrowed rows).
struct KeyLayout {
  std::string name;
  dataflow::KeyColumns key;
  std::function<Record(int64_t id, int64_t value)> make;
  std::function<Record(int64_t id)> projection;
};

std::vector<KeyLayout> KeyLayouts() {
  return {
      {"int64",
       {0},
       [](int64_t id, int64_t value) { return MakeRecord(id, value); },
       [](int64_t id) { return MakeRecord(id); }},
      {"string_int64",
       {2, 0},
       [](int64_t id, int64_t value) {
         return MakeRecord(id % 7, value, "k" + std::to_string(id / 7));
       },
       [](int64_t id) {
         return MakeRecord("k" + std::to_string(id / 7), id % 7);
       }},
  };
}

TEST(SolutionSetModelTest, RandomOperationsMatchMapModel) {
  const int kParts = 4;
  const int64_t kKeys = 96;
  runtime::ThreadPool pool2(2);
  runtime::ThreadPool pool8(8);
  const std::pair<int, runtime::ThreadPool*> kPools[] = {
      {1, nullptr}, {2, &pool2}, {8, &pool8}};
  for (const KeyLayout& layout : KeyLayouts()) {
    SCOPED_TRACE(layout.name);
    Rng rng(11);
    std::vector<Record> universe;
    for (int64_t id = 0; id < kKeys + 8; ++id) {
      universe.push_back(layout.projection(id));
    }
    auto random_record = [&]() {
      return layout.make(rng.NextInRange(0, kKeys - 1),
                         rng.NextInRange(0, 1000));
    };

    // Start from a shuffled batch with repeated keys.
    std::vector<Record> initial;
    for (int i = 0; i < 40; ++i) initial.push_back(random_record());
    SolutionSet set = SolutionSet::FromRecords(initial, layout.key, kParts);
    ModelSet model(kParts, layout.key);
    for (const Record& r : initial) model.Upsert(r);
    ExpectMatchesModel(set, model, universe);

    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const int p = static_cast<int>(rng.NextBounded(kParts));
      switch (rng.NextBounded(7)) {
        case 0: {  // Upsert
          Record r = random_record();
          ASSERT_EQ(set.Upsert(r), model.Upsert(r));
          break;
        }
        case 1: {  // UpsertIntoPartition
          Record r = random_record();
          const int home = model.PartitionOf(r);
          ASSERT_EQ(set.UpsertIntoPartition(home, r), model.Upsert(r));
          break;
        }
        case 2: {  // ApplyDelta: repeated keys across source partitions
          std::vector<Record> records;
          const int n = static_cast<int>(rng.NextBounded(30));
          for (int i = 0; i < n; ++i) records.push_back(random_record());
          PartitionedDataset delta =
              PartitionedDataset::RoundRobin(records, kParts);
          for (int s = 0; s < kParts; ++s) {
            for (const Record& r : delta.partition(s)) model.Upsert(r);
          }
          const auto& [threads, pool] = kPools[rng.NextBounded(3)];
          SCOPED_TRACE("threads " + std::to_string(threads));
          ASSERT_EQ(set.ApplyDelta(std::move(delta), pool),
                    static_cast<uint64_t>(n));
          break;
        }
        case 3: {  // ReplacePartition: unsorted, with repeated keys
          std::vector<Record> records;
          const int n = static_cast<int>(rng.NextBounded(40));
          while (static_cast<int>(records.size()) < n) {
            Record r = random_record();
            if (model.PartitionOf(r) == p) records.push_back(r);
          }
          if (!records.empty()) records.push_back(records.front());
          rng.Shuffle(&records);
          model.Replace(p, records);
          ASSERT_TRUE(set.ReplacePartition(p, records).ok());
          break;
        }
        case 4:
          set.ClearPartition(p);
          model.Clear(p);
          break;
        case 5: {
          const uint64_t to = model.clock(p) + rng.NextBounded(5);
          set.FastForwardClock(p, to);
          model.FastForward(p, to);
          break;
        }
        case 6: {  // copies and moves index their own rows
          SolutionSet copy = set;
          set.ClearPartition(p);  // the copy must not read these rows
          ExpectMatchesModel(copy, model, universe);
          SolutionSet moved = std::move(copy);
          ExpectMatchesModel(moved, model, universe);
          set = moved;
          moved = SolutionSet();
          DeltaState state(std::move(set), PartitionedDataset(kParts));
          DeltaState state_copy = state;
          state = DeltaState();
          ExpectMatchesModel(state_copy.solution(), model, universe);
          set = std::move(state_copy.solution());
          break;
        }
      }
      ExpectMatchesModel(set, model, universe);
    }
  }
}

TEST(SolutionSetModelTest, NewKeysBelowTheLargestKeepKeyOrder) {
  // Keys arriving in descending order append below the partition's
  // largest every time: each call re-sorts, versions move with their rows.
  SolutionSet set(2, {0});
  ModelSet model(2, {0});
  std::vector<Record> universe;
  for (int64_t v = 30; v >= 0; --v) {
    universe.push_back(MakeRecord(v));
    ASSERT_FALSE(set.Upsert(MakeRecord(v, v * 10)));
    model.Upsert(MakeRecord(v, v * 10));
    ExpectMatchesModel(set, model, universe);
  }
  std::vector<Record> delta;
  for (int64_t v = 60; v > 20; v -= 3) delta.push_back(MakeRecord(v, -v));
  PartitionedDataset shards = PartitionedDataset::RoundRobin(delta, 2);
  for (int s = 0; s < 2; ++s) {
    for (const Record& r : shards.partition(s)) model.Upsert(r);
  }
  set.ApplyDelta(std::move(shards));
  for (int64_t v = 31; v <= 60; ++v) universe.push_back(MakeRecord(v));
  ExpectMatchesModel(set, model, universe);
}

TEST(SolutionSetDeathTest, OutOfRangePartitionDies) {
  SolutionSet set(2, {0});
  set.Upsert(MakeRecord(int64_t{0}, int64_t{1}));
  EXPECT_DEATH(set.PartitionRecords(2), "out of range");
  EXPECT_DEATH(set.ClearPartition(-1), "out of range");
  EXPECT_DEATH(set.EntriesSince(7, 0), "out of range");
  EXPECT_DEATH(set.version(-3), "out of range");
  EXPECT_DEATH(set.UpsertIntoPartition(5, MakeRecord(int64_t{0}, int64_t{1})),
               "out of range");
  // Misrouted records are a programming error too.
  int home = PartitionedDataset::PartitionOf(MakeRecord(int64_t{0}), {0}, 2);
  EXPECT_DEATH(
      set.UpsertIntoPartition((home + 1) % 2,
                              MakeRecord(int64_t{0}, int64_t{1})),
      "does not hash to partition");
  // home's clock is 1 after the Upsert; 0 would move it backwards.
  EXPECT_DEATH(set.FastForwardClock(home, 0), "cannot move backwards");
}

TEST(BulkStateDeathTest, OutOfRangePartitionDies) {
  BulkState state(PartitionedDataset(2));
  EXPECT_DEATH(state.ClearPartition(2), "out of range");
  EXPECT_DEATH(state.SerializePartition(-1), "out of range");
}

TEST(BulkStateTest, RestoreRejectsOutOfRangePartition) {
  BulkState state(PartitionedDataset(2));
  EXPECT_TRUE(state.RestorePartition(-1, {}).IsOutOfRange());
  EXPECT_TRUE(state.RestorePartition(2, {}).IsOutOfRange());
}

TEST(DeltaStateTest, RestoreRejectsOutOfRangePartition) {
  DeltaState state(SolutionSet(2, {0}), PartitionedDataset(2));
  EXPECT_TRUE(state.RestorePartition(-1, {}).IsOutOfRange());
  EXPECT_TRUE(state.RestorePartition(2, {}).IsOutOfRange());
}

// ------------------------------------------------------------ DeltaState --

TEST(DeltaStateTest, SerializeRestoreRoundTrip) {
  SolutionSet solution(3, {0});
  for (int64_t v = 0; v < 15; ++v) solution.Upsert(MakeRecord(v, v * 3));
  std::vector<Record> ws;
  for (int64_t v = 0; v < 6; ++v) ws.push_back(MakeRecord(v, v));
  DeltaState state(std::move(solution),
                   PartitionedDataset::HashPartitioned(ws, {0}, 3));

  for (int p = 0; p < 3; ++p) {
    auto blob = state.SerializePartition(p);
    auto solution_before = state.solution().PartitionRecords(p);
    auto workset_before = state.workset().partition(p);
    state.ClearPartition(p);
    EXPECT_TRUE(state.solution().PartitionRecords(p).empty());
    EXPECT_TRUE(state.workset().partition(p).empty());
    ASSERT_TRUE(state.RestorePartition(p, blob).ok());
    EXPECT_EQ(state.solution().PartitionRecords(p), solution_before);
    EXPECT_EQ(state.workset().partition(p), workset_before);
  }
  EXPECT_EQ(state.kind(), StateKind::kDelta);
}

TEST(DeltaStateTest, RestoreRejectsTruncatedBlob) {
  DeltaState state(SolutionSet(2, {0}), PartitionedDataset(2));
  EXPECT_FALSE(state.RestorePartition(0, {0, 0, 0}).ok());
}

TEST(DeltaStateTest, RestoreRejectsSolutionLengthThatWrapsTheOffset) {
  // A corrupt length of 2^64 - 8 makes `offset + length` wrap to 0; the
  // restore must still see it as truncated instead of slicing the blob.
  DeltaState state(SolutionSet(2, {0}), PartitionedDataset(2));
  std::vector<uint8_t> blob(8, 0);
  const uint64_t length = ~uint64_t{0} - 7;  // 2^64 - 8
  for (int i = 0; i < 8; ++i) blob[i] = (length >> (8 * i)) & 0xff;
  blob.push_back(0);
  EXPECT_TRUE(state.RestorePartition(0, blob).IsDataLoss());
}

// --------------------------------------------------- scripted test policy --

/// Counts hook invocations and performs a fixed action on failure.
class ScriptedPolicy : public FaultTolerancePolicy {
 public:
  explicit ScriptedPolicy(RecoveryAction action) : action_(action) {}

  std::string name() const override { return "scripted"; }

  Status OnJobStart(const IterationContext&, IterationState*) override {
    ++job_starts;
    return Status::OK();
  }
  Status AfterIteration(const IterationContext& ctx,
                        IterationState*) override {
    after_iterations.push_back(ctx.iteration);
    return Status::OK();
  }
  Result<RecoveryOutcome> OnFailure(const IterationContext& ctx,
                                    IterationState* state,
                                    const std::vector<int>& lost) override {
    failures.push_back(ctx.iteration);
    lost_counts.push_back(lost.size());
    if (action_ == RecoveryAction::kContinue) {
      if (state->kind() == StateKind::kBulk) {
        // Rebuild the lost partitions so the job can proceed.
        auto* bulk = static_cast<BulkState*>(state);
        for (int p : lost) {
          (void)bulk;
          (void)p;
        }
      }
      return RecoveryOutcome::Continue();
    }
    if (action_ == RecoveryAction::kRestart) return RecoveryOutcome::Restart();
    if (action_ == RecoveryAction::kAbort) return RecoveryOutcome::Abort();
    return RecoveryOutcome::Rewind(0);
  }

  int job_starts = 0;
  std::vector<int> after_iterations;
  std::vector<int> failures;
  std::vector<size_t> lost_counts;

 private:
  RecoveryAction action_;
};

/// A bulk step plan that doubles the value column.
Plan DoublingPlan() {
  Plan plan;
  auto state = plan.Source("state");
  auto next = plan.Map(
      state,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() * 2);
      },
      "double");
  plan.Output(next, "next_state");
  return plan;
}

PartitionedDataset OnesState(int64_t n, int parts) {
  std::vector<Record> records;
  for (int64_t v = 0; v < n; ++v) records.push_back(MakeRecord(v, int64_t{1}));
  return PartitionedDataset::HashPartitioned(records, {0}, parts);
}

// ----------------------------------------------------------- Bulk driver --

TEST(BulkDriverTest, RunsFixedIterations) {
  Plan plan = DoublingPlan();
  BulkIterationConfig config;
  config.max_iterations = 5;
  dataflow::ExecOptions exec;
  exec.num_partitions = 4;
  runtime::MetricsRegistry metrics;
  JobEnv env;
  env.metrics = &metrics;

  BulkIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kContinue);
  auto result = driver.Run(OnesState(16, 4), &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->iterations, 5);
  EXPECT_EQ(result->supersteps_executed, 5);
  EXPECT_FALSE(result->converged);  // no criterion configured
  EXPECT_EQ(policy.job_starts, 1);
  EXPECT_EQ(policy.after_iterations, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(metrics.iterations().size(), 5u);
  // Every value should be 2^5.
  for (const Record& r : result->final_state.CollectSorted()) {
    EXPECT_EQ(r[1].AsInt64(), 32);
  }
}

TEST(BulkDriverTest, ConvergenceStopsEarly) {
  Plan plan = DoublingPlan();
  BulkIterationConfig config;
  config.max_iterations = 50;
  int calls = 0;
  config.convergence = [&calls](const PartitionedDataset&,
                                const PartitionedDataset&, double* metric) {
    ++calls;
    *metric = static_cast<double>(calls);
    return calls >= 3;
  };
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  BulkIterationDriver driver(&plan, {}, config, exec, JobEnv{});
  ScriptedPolicy policy(RecoveryAction::kContinue);
  auto result = driver.Run(OnesState(8, 2), &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->iterations, 3);
}

TEST(BulkDriverTest, FailureClearsPartitionAndCallsPolicy) {
  Plan plan = DoublingPlan();
  BulkIterationConfig config;
  config.max_iterations = 3;
  dataflow::ExecOptions exec;
  exec.num_partitions = 4;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {0, 1}}});
  runtime::MetricsRegistry metrics;
  JobEnv env;
  env.failures = &failures;
  env.metrics = &metrics;

  BulkIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kContinue);
  auto result = driver.Run(OnesState(16, 4), &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(policy.failures, std::vector<int>{2});
  EXPECT_EQ(policy.lost_counts, std::vector<size_t>{2});
  EXPECT_EQ(result->failures_recovered, 1);
  EXPECT_TRUE(metrics.iterations()[1].failure_injected);
  EXPECT_FALSE(metrics.iterations()[0].failure_injected);
  // Without compensation, the cleared partitions stay empty.
  EXPECT_LT(result->final_state.NumRecords(), 16u);
}

TEST(BulkDriverTest, SimTimeByChargeDecomposesIterationTime) {
  Plan plan = DoublingPlan();
  BulkIterationConfig config;
  config.max_iterations = 4;
  runtime::SimClock clock;
  runtime::CostModel costs;
  dataflow::ExecOptions exec;
  exec.num_partitions = 4;
  exec.clock = &clock;
  exec.costs = &costs;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {1}}});
  runtime::MetricsRegistry metrics;
  JobEnv env;
  env.clock = &clock;
  env.costs = &costs;
  env.failures = &failures;
  env.metrics = &metrics;

  BulkIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kContinue);
  ASSERT_TRUE(driver.Run(OnesState(16, 4), &policy).ok());

  ASSERT_EQ(metrics.iterations().size(), 4u);
  int64_t sum = 0;
  for (const auto& it : metrics.iterations()) {
    for (int c = 0; c < runtime::kNumCharges; ++c) {
      EXPECT_GE(it.sim_time_by_charge[c], 0) << "iteration " << it.iteration;
    }
    sum += it.SimTimeNs();
    EXPECT_GT(it.SimTimeOf(runtime::Charge::kCompute), 0)
        << "iteration " << it.iteration;
    // Fresh-worker acquisition charges recovery time only on the failure
    // iteration.
    EXPECT_EQ(it.SimTimeOf(runtime::Charge::kRecovery) > 0,
              it.failure_injected)
        << "iteration " << it.iteration;
  }
  // The per-iteration series accounts for the job's simulated time exactly.
  EXPECT_EQ(sum, clock.TotalNs());
  EXPECT_EQ(metrics.ChargeSeries(runtime::Charge::kCompute).size(), 4u);
  EXPECT_GT(metrics.TotalSimTimeOf(runtime::Charge::kCompute), 0);
}

TEST(BulkDriverTest, TracerRecordsSuperstepAndRecoveryTimeline) {
  Plan plan = DoublingPlan();
  BulkIterationConfig config;
  config.max_iterations = 3;
  runtime::Tracer tracer;
  dataflow::ExecOptions exec;
  exec.num_partitions = 4;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {0, 1}}});
  JobEnv env;
  env.failures = &failures;
  env.tracer = &tracer;

  BulkIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kContinue);
  ASSERT_TRUE(driver.Run(OnesState(16, 4), &policy).ok());

  runtime::TraceSummary summary =
      runtime::TraceSummary::FromSnapshot(tracer.Flush());
  EXPECT_EQ(summary.iteration_spans, 3u);
  EXPECT_EQ(summary.InstantCount("failure.injected"), 1u);
  EXPECT_EQ(summary.InstantCount("partition.lost"), 2u);
  // ScriptedPolicy writes no checkpoints: every checkpoint span cancels,
  // but the OnFailure call still records one compensation span.
  uint64_t compensation_spans = 0;
  uint64_t checkpoint_spans = 0;
  for (const auto& e : tracer.Flush().events) {
    if (e.category == "compensation") ++compensation_spans;
    if (e.category == "checkpoint") ++checkpoint_spans;
  }
  EXPECT_EQ(compensation_spans, 1u);
  EXPECT_EQ(checkpoint_spans, 0u);
  const runtime::TraceOperatorSummary* map_op = summary.Find("double");
  ASSERT_NE(map_op, nullptr);
  EXPECT_EQ(map_op->spans, 3u);
}

TEST(BulkDriverTest, AbortPolicySurfacesDataLoss) {
  Plan plan = DoublingPlan();
  BulkIterationConfig config;
  config.max_iterations = 5;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{1, {0}}});
  JobEnv env;
  env.failures = &failures;

  BulkIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kAbort);
  auto result = driver.Run(OnesState(8, 2), &policy);
  EXPECT_TRUE(result.status().IsDataLoss());
}

TEST(BulkDriverTest, RestartResetsToInitialState) {
  Plan plan = DoublingPlan();
  BulkIterationConfig config;
  config.max_iterations = 4;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {0}}});
  JobEnv env;
  env.failures = &failures;

  BulkIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kRestart);
  auto result = driver.Run(OnesState(8, 2), &policy);
  ASSERT_TRUE(result.ok());
  // Iterations 1,2 run, failure restarts, iterations 1..4 run again:
  // final value = 2^4, total supersteps = 6.
  EXPECT_EQ(result->supersteps_executed, 6);
  for (const Record& r : result->final_state.CollectSorted()) {
    EXPECT_EQ(r[1].AsInt64(), 16);
  }
}

TEST(BulkDriverTest, MismatchedInitialPartitionsRejected) {
  Plan plan = DoublingPlan();
  BulkIterationConfig config;
  dataflow::ExecOptions exec;
  exec.num_partitions = 4;
  BulkIterationDriver driver(&plan, {}, config, exec, JobEnv{});
  ScriptedPolicy policy(RecoveryAction::kContinue);
  auto result = driver.Run(OnesState(8, 3), &policy);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BulkDriverTest, MissingOutputNameRejected) {
  Plan plan;
  auto state = plan.Source("state");
  plan.Output(state, "some_other_name");
  BulkIterationConfig config;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  BulkIterationDriver driver(&plan, {}, config, exec, JobEnv{});
  ScriptedPolicy policy(RecoveryAction::kContinue);
  EXPECT_TRUE(driver.Run(OnesState(4, 2), &policy).status().IsNotFound());
}

// ---------------------------------------------------------- Delta driver --

/// A delta step that decrements each workset value until zero; the delta
/// updates the solution to the latest value.
Plan CountdownPlan() {
  Plan plan;
  auto workset = plan.Source("workset");
  plan.Source("solution");  // present in the figure; unused by this step
  auto decremented = plan.Map(
      workset,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() - 1);
      },
      "decrement");
  auto still_positive = plan.Filter(
      decremented, [](const Record& r) { return r[1].AsInt64() > 0; },
      "positive");
  plan.Output(still_positive, "delta");
  plan.Output(still_positive, "next_workset");
  return plan;
}

TEST(DeltaDriverTest, TerminatesWhenWorksetDrains) {
  Plan plan = CountdownPlan();
  DeltaIterationConfig config;
  config.max_iterations = 50;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  runtime::MetricsRegistry metrics;
  JobEnv env;
  env.metrics = &metrics;

  std::vector<Record> solution{MakeRecord(int64_t{0}, int64_t{5}),
                               MakeRecord(int64_t{1}, int64_t{3})};
  auto workset = PartitionedDataset::HashPartitioned(solution, {0}, 2);

  DeltaIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kContinue);
  auto result = driver.Run(solution, workset, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  // Vertex 0 counts 5->4->3->2->1->(dropped at 0): the workset drains after
  // superstep 5.
  EXPECT_EQ(result->iterations, 5);
  // Solution holds the last positive value per key.
  EXPECT_EQ((*result->final_solution.Lookup(MakeRecord(int64_t{0})))[1]
                .AsInt64(),
            1);
  EXPECT_EQ((*result->final_solution.Lookup(MakeRecord(int64_t{1})))[1]
                .AsInt64(),
            1);
  // workset_size gauge decreases monotonically here.
  auto sizes = metrics.GaugeSeries("workset_size");
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_LE(sizes[i], sizes[i - 1]);
  }
}

TEST(DeltaDriverTest, EmptyInitialWorksetConvergesImmediately) {
  Plan plan = CountdownPlan();
  DeltaIterationConfig config;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  DeltaIterationDriver driver(&plan, {}, config, exec, JobEnv{});
  ScriptedPolicy policy(RecoveryAction::kContinue);
  auto result = driver.Run({MakeRecord(int64_t{0}, int64_t{9})},
                           PartitionedDataset(2), &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->supersteps_executed, 0);
  EXPECT_EQ(result->iterations, 0);
}

TEST(DeltaDriverTest, FailureLosesSolutionAndWorksetPartitions) {
  Plan plan = CountdownPlan();
  DeltaIterationConfig config;
  config.max_iterations = 50;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{1, {0}}});
  JobEnv env;
  env.failures = &failures;

  // Policy that verifies the lost partition is empty when OnFailure runs.
  class InspectingPolicy : public FaultTolerancePolicy {
   public:
    std::string name() const override { return "inspect"; }
    Result<RecoveryOutcome> OnFailure(const IterationContext&,
                                      IterationState* state,
                                      const std::vector<int>& lost) override {
      auto* delta = static_cast<DeltaState*>(state);
      for (int p : lost) {
        EXPECT_TRUE(delta->solution().PartitionRecords(p).empty());
        EXPECT_TRUE(delta->workset().partition(p).empty());
      }
      saw_failure = true;
      return RecoveryOutcome::Continue();
    }
    bool saw_failure = false;
  };

  std::vector<Record> solution;
  for (int64_t v = 0; v < 10; ++v) {
    solution.push_back(MakeRecord(v, int64_t{4}));
  }
  auto workset = PartitionedDataset::HashPartitioned(solution, {0}, 2);

  DeltaIterationDriver driver(&plan, {}, config, exec, env);
  InspectingPolicy policy;
  auto result = driver.Run(solution, workset, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(policy.saw_failure);
  EXPECT_EQ(result->failures_recovered, 1);
}

TEST(DeltaDriverTest, StatsRecordUpdatesAndOperatorCounts) {
  Plan plan = CountdownPlan();
  DeltaIterationConfig config;
  config.max_iterations = 50;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  runtime::MetricsRegistry metrics;
  JobEnv env;
  env.metrics = &metrics;

  std::vector<Record> solution{MakeRecord(int64_t{0}, int64_t{3})};
  auto workset = PartitionedDataset::HashPartitioned(solution, {0}, 2);
  DeltaIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kContinue);
  ASSERT_TRUE(driver.Run(solution, workset, &policy).ok());
  ASSERT_FALSE(metrics.iterations().empty());
  const auto& first = metrics.iterations().front();
  EXPECT_EQ(first.Gauge("solution_updates"), 1.0);
  EXPECT_GT(first.Gauge("out:decrement"), 0.0);
  EXPECT_GT(first.records_processed, 0u);
}

TEST(DeltaDriverTest, OverlappingFailureEventsCountEachPartitionOnce) {
  // Two schedule events both target iteration 3 and overlap on partition 0
  // ("3:0;3:0,1"): the driver must lose partitions {0, 1} exactly once
  // each — one partition.lost instant per partition, one loss per
  // OnFailure call.
  Plan plan = CountdownPlan();
  DeltaIterationConfig config;
  config.max_iterations = 50;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  auto failures = runtime::FailureSchedule::Parse("3:0;3:0,1");
  ASSERT_TRUE(failures.ok());
  runtime::Tracer tracer;
  JobEnv env;
  env.failures = &*failures;
  env.tracer = &tracer;

  std::vector<Record> solution;
  for (int64_t v = 0; v < 10; ++v) {
    solution.push_back(MakeRecord(v, int64_t{6}));
  }
  auto workset = PartitionedDataset::HashPartitioned(solution, {0}, 2);
  DeltaIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kContinue);
  ASSERT_TRUE(driver.Run(solution, workset, &policy).ok());

  ASSERT_EQ(policy.lost_counts.size(), 1u);
  EXPECT_EQ(policy.lost_counts[0], 2u);  // {0, 1}, partition 0 not doubled
  runtime::TraceSummary summary =
      runtime::TraceSummary::FromSnapshot(tracer.Flush());
  EXPECT_EQ(summary.InstantCount("failure.injected"), 1u);
  EXPECT_EQ(summary.InstantCount("partition.lost"), 2u);
}

TEST(DeltaDriverTest, TracerRecordsSolutionUpdatePhase) {
  // The partition-parallel upsert phase shows up as one solution.update
  // span per superstep, with per-partition child spans underneath.
  Plan plan = CountdownPlan();
  DeltaIterationConfig config;
  config.max_iterations = 50;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  runtime::Tracer tracer;
  JobEnv env;
  env.tracer = &tracer;

  std::vector<Record> solution{MakeRecord(int64_t{0}, int64_t{4}),
                               MakeRecord(int64_t{1}, int64_t{4})};
  auto workset = PartitionedDataset::HashPartitioned(solution, {0}, 2);
  DeltaIterationDriver driver(&plan, {}, config, exec, env);
  ScriptedPolicy policy(RecoveryAction::kContinue);
  auto result = driver.Run(solution, workset, &policy);
  ASSERT_TRUE(result.ok());

  auto snapshot = tracer.Flush();
  uint64_t parents = 0;
  uint64_t children = 0;
  for (const auto& e : snapshot.events) {
    if (e.category != "solution.update") continue;
    if (e.partition < 0) {
      ++parents;
      EXPECT_GE(e.Arg("records", -1), 0);
    } else {
      ++children;
    }
  }
  // Supersteps 1..3 apply non-empty deltas; superstep 4 drains the workset.
  EXPECT_EQ(parents, static_cast<uint64_t>(result->supersteps_executed));
  EXPECT_EQ(children, parents * 2);  // one child per partition
}

TEST(BulkDriverTest, RunawayRecoveryLoopAborts) {
  // A policy that restarts on every failure, plus a schedule that re-fires
  // after every restart, would loop forever; the supersteps guard stops it.
  Plan plan = DoublingPlan();
  BulkIterationConfig config;
  config.max_iterations = 3;
  config.max_total_supersteps_factor = 2;  // guard at 6 supersteps
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;

  // Rewinding schedule: a policy that rewinds the failure events too.
  class LoopingPolicy : public FaultTolerancePolicy {
   public:
    explicit LoopingPolicy(runtime::FailureSchedule* schedule)
        : schedule_(schedule) {}
    std::string name() const override { return "looping"; }
    Result<RecoveryOutcome> OnFailure(const IterationContext&,
                                      IterationState*,
                                      const std::vector<int>&) override {
      schedule_->Rewind();  // the same failure will fire again
      return RecoveryOutcome::Restart();
    }
   private:
    runtime::FailureSchedule* schedule_;
  };

  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{1, {0}}});
  JobEnv env;
  env.failures = &failures;
  BulkIterationDriver driver(&plan, {}, config, exec, env);
  LoopingPolicy policy(&failures);
  auto result = driver.Run(OnesState(4, 2), &policy);
  EXPECT_TRUE(result.status().IsAborted());
}

TEST(DeltaDriverTest, MismatchedWorksetPartitionsRejected) {
  Plan plan = CountdownPlan();
  DeltaIterationConfig config;
  dataflow::ExecOptions exec;
  exec.num_partitions = 2;
  DeltaIterationDriver driver(&plan, {}, config, exec, JobEnv{});
  ScriptedPolicy policy(RecoveryAction::kContinue);
  auto result = driver.Run({}, PartitionedDataset(3), &policy);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace flinkless::iteration
