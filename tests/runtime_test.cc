// Unit tests for src/runtime: SimClock, StableStorage, metrics, failure
// schedules, cluster bookkeeping.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/cluster.h"
#include "runtime/cost_model.h"
#include "runtime/failure.h"
#include "runtime/memory_manager.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"

namespace flinkless::runtime {
namespace {

// -------------------------------------------------------------- SimClock --

TEST(SimClockTest, AccumulatesByCategory) {
  SimClock clock;
  clock.Add(Charge::kCompute, 100);
  clock.Add(Charge::kCompute, 50);
  clock.Add(Charge::kNetwork, 30);
  EXPECT_EQ(clock.Of(Charge::kCompute), 150);
  EXPECT_EQ(clock.Of(Charge::kNetwork), 30);
  EXPECT_EQ(clock.Of(Charge::kCheckpointIo), 0);
  EXPECT_EQ(clock.TotalNs(), 180);
}

TEST(SimClockTest, ResetClearsEverything) {
  SimClock clock;
  clock.Add(Charge::kRecovery, 99);
  clock.Reset();
  EXPECT_EQ(clock.TotalNs(), 0);
}

TEST(SimClockTest, SummaryMentionsEveryCategory) {
  SimClock clock;
  clock.Add(Charge::kCheckpointIo, 2'000'000);
  std::string s = clock.Summary();
  EXPECT_NE(s.find("checkpoint_io=2ms"), std::string::npos);
  EXPECT_NE(s.find("compute=0ms"), std::string::npos);
}

TEST(WallTimerTest, MonotonicNonNegative) {
  WallTimer t;
  EXPECT_GE(t.ElapsedNs(), 0);
  int64_t first = t.ElapsedNs();
  EXPECT_GE(t.ElapsedNs(), first);
  t.Restart();
  EXPECT_GE(t.ElapsedNs(), 0);
}

// --------------------------------------------------------- StableStorage --

TEST(StableStorageTest, WriteReadRoundTrip) {
  StableStorage storage(nullptr, nullptr);
  ASSERT_TRUE(storage.Write("k", {1, 2, 3}).ok());
  auto blob = storage.Read("k");
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, (std::vector<uint8_t>{1, 2, 3}));
}

TEST(StableStorageTest, ReadMissingIsNotFound) {
  StableStorage storage(nullptr, nullptr);
  EXPECT_TRUE(storage.Read("absent").status().IsNotFound());
}

TEST(StableStorageTest, OverwriteReplacesBlob) {
  StableStorage storage(nullptr, nullptr);
  ASSERT_TRUE(storage.Write("k", {1}).ok());
  ASSERT_TRUE(storage.Write("k", {2, 3}).ok());
  EXPECT_EQ(storage.Read("k")->size(), 2u);
  EXPECT_EQ(storage.live_bytes(), 2u);
  EXPECT_EQ(storage.bytes_written(), 3u);  // cumulative
}

TEST(StableStorageTest, DeleteAndExists) {
  StableStorage storage(nullptr, nullptr);
  ASSERT_TRUE(storage.Write("k", {1}).ok());
  EXPECT_TRUE(storage.Exists("k"));
  storage.Delete("k");
  EXPECT_FALSE(storage.Exists("k"));
  storage.Delete("k");  // idempotent
}

TEST(StableStorageTest, PrefixOperations) {
  StableStorage storage(nullptr, nullptr);
  ASSERT_TRUE(storage.Write("job/ckpt/1/0", {1}).ok());
  ASSERT_TRUE(storage.Write("job/ckpt/1/1", {2}).ok());
  ASSERT_TRUE(storage.Write("job/ckpt/2/0", {3}).ok());
  ASSERT_TRUE(storage.Write("other", {4}).ok());
  auto keys = storage.ListWithPrefix("job/ckpt/1/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "job/ckpt/1/0");
  EXPECT_EQ(storage.DeleteWithPrefix("job/ckpt/"), 3u);
  EXPECT_TRUE(storage.Exists("other"));
  EXPECT_TRUE(storage.ListWithPrefix("job/").empty());
}

TEST(StableStorageTest, ChargesWriteAndReadCosts) {
  SimClock clock;
  CostModel costs;
  costs.checkpoint_write_per_byte_ns = 10;
  costs.checkpoint_read_per_byte_ns = 3;
  costs.checkpoint_sync_ns = 1000;
  StableStorage storage(&clock, &costs);
  ASSERT_TRUE(storage.Write("k", std::vector<uint8_t>(100, 0)).ok());
  EXPECT_EQ(clock.Of(Charge::kCheckpointIo), 100 * 10 + 1000);
  ASSERT_TRUE(storage.Read("k").ok());
  EXPECT_EQ(clock.Of(Charge::kCheckpointIo), 100 * 10 + 1000 + 100 * 3);
  EXPECT_EQ(storage.num_writes(), 1u);
  EXPECT_EQ(storage.bytes_read(), 100u);
}

TEST(StableStorageTest, FreeWithoutClock) {
  StableStorage storage(nullptr, nullptr);
  ASSERT_TRUE(storage.Write("k", std::vector<uint8_t>(10, 0)).ok());
  ASSERT_TRUE(storage.Read("k").ok());  // must not crash
}

// ----------------------------------------------------------------- Metrics --

TEST(MetricsTest, RecordsIterationSeries) {
  MetricsRegistry metrics;
  IterationStats s1;
  s1.iteration = 1;
  s1.messages_shuffled = 10;
  s1.gauges["g"] = 1.5;
  metrics.RecordIteration(s1);
  IterationStats s2;
  s2.iteration = 2;
  s2.messages_shuffled = 20;
  metrics.RecordIteration(s2);

  EXPECT_EQ(metrics.iterations().size(), 2u);
  EXPECT_EQ(metrics.TotalMessages(), 30u);
  auto series = metrics.GaugeSeries("g", -1.0);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0], 1.5);
  EXPECT_DOUBLE_EQ(series[1], -1.0);  // fallback for unset gauge
}

TEST(MetricsTest, GaugeFallback) {
  IterationStats s;
  s.gauges["present"] = 2.0;
  EXPECT_DOUBLE_EQ(s.Gauge("present"), 2.0);
  EXPECT_DOUBLE_EQ(s.Gauge("absent", 7.0), 7.0);
}

TEST(MetricsTest, SimTimeByChargeDefaultsZeroAndIndexesByCharge) {
  IterationStats s;
  for (int c = 0; c < kNumCharges; ++c) {
    EXPECT_EQ(s.sim_time_by_charge[c], 0);
  }
  s.sim_time_by_charge[static_cast<int>(Charge::kNetwork)] = 40;
  s.sim_time_by_charge[static_cast<int>(Charge::kRecovery)] = 7;
  EXPECT_EQ(s.SimTimeOf(Charge::kNetwork), 40);
  EXPECT_EQ(s.SimTimeOf(Charge::kRecovery), 7);
  EXPECT_EQ(s.SimTimeOf(Charge::kCompute), 0);
}

TEST(MetricsTest, ChargeSeriesAndTotals) {
  MetricsRegistry metrics;
  IterationStats s1;
  s1.iteration = 1;
  s1.sim_time_by_charge[static_cast<int>(Charge::kCompute)] = 100;
  s1.sim_time_by_charge[static_cast<int>(Charge::kCheckpointIo)] = 30;
  metrics.RecordIteration(s1);
  IterationStats s2;
  s2.iteration = 2;
  s2.sim_time_by_charge[static_cast<int>(Charge::kCompute)] = 60;
  metrics.RecordIteration(s2);

  EXPECT_EQ(metrics.ChargeSeries(Charge::kCompute),
            (std::vector<int64_t>{100, 60}));
  EXPECT_EQ(metrics.ChargeSeries(Charge::kCheckpointIo),
            (std::vector<int64_t>{30, 0}));
  EXPECT_EQ(metrics.TotalSimTimeOf(Charge::kCompute), 160);
  EXPECT_EQ(metrics.TotalSimTimeOf(Charge::kNetwork), 0);
}

// --------------------------------------------------------------- Failure --

TEST(FailureScheduleTest, FiresOncePerEvent) {
  FailureSchedule schedule(std::vector<FailureEvent>{{3, {0, 1}}});
  EXPECT_TRUE(schedule.Fire(1).empty());
  EXPECT_TRUE(schedule.Fire(2).empty());
  EXPECT_EQ(schedule.Fire(3), (std::vector<int>{0, 1}));
  EXPECT_TRUE(schedule.Fire(3).empty());  // already fired
  EXPECT_EQ(schedule.remaining(), 0u);
}

TEST(FailureScheduleTest, MergesEventsAtSameIteration) {
  FailureSchedule schedule;
  schedule.Add({2, {1}});
  schedule.Add({2, {0, 1}});
  EXPECT_EQ(schedule.Fire(2), (std::vector<int>{0, 1}));  // deduped, sorted
}

TEST(FailureScheduleTest, ParsedOverlappingEventsFireDeduplicated) {
  // Two events target iteration 3 and both list partition 0; firing must
  // report each lost partition once, or downstream accounting (partition.lost
  // instants, lost-partition metrics) double-counts the loss.
  auto schedule = FailureSchedule::Parse("3:0;3:0,1");
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->events().size(), 2u);
  EXPECT_EQ(schedule->Peek(3), (std::vector<int>{0, 1}));
  EXPECT_EQ(schedule->Fire(3), (std::vector<int>{0, 1}));
  EXPECT_TRUE(schedule->Fire(3).empty());
  EXPECT_EQ(schedule->remaining(), 0u);
}

TEST(FailureScheduleTest, PeekDoesNotConsume) {
  FailureSchedule schedule(std::vector<FailureEvent>{{5, {2}}});
  EXPECT_EQ(schedule.Peek(5), std::vector<int>{2});
  EXPECT_EQ(schedule.Fire(5), std::vector<int>{2});
  EXPECT_TRUE(schedule.Peek(5).empty());
}

TEST(FailureScheduleTest, RewindReenablesEvents) {
  FailureSchedule schedule(std::vector<FailureEvent>{{1, {0}}});
  EXPECT_FALSE(schedule.Fire(1).empty());
  schedule.Rewind();
  EXPECT_FALSE(schedule.Fire(1).empty());
}

TEST(FailureScheduleTest, ParseValidSpec) {
  auto schedule = FailureSchedule::Parse("3:0;5:1,2");
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->events().size(), 2u);
  EXPECT_EQ(schedule->Peek(3), std::vector<int>{0});
  EXPECT_EQ(schedule->Peek(5), (std::vector<int>{1, 2}));
}

TEST(FailureScheduleTest, ParseEmptyIsEmptySchedule) {
  auto schedule = FailureSchedule::Parse("  ");
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->empty());
}

TEST(FailureScheduleTest, ParseRejectsGarbage) {
  EXPECT_FALSE(FailureSchedule::Parse("nope").ok());
  EXPECT_FALSE(FailureSchedule::Parse("0:1").ok());    // iteration < 1
  EXPECT_FALSE(FailureSchedule::Parse("3:").ok());     // no partitions
  EXPECT_FALSE(FailureSchedule::Parse("3:-1").ok());   // negative partition
  EXPECT_FALSE(FailureSchedule::Parse("x:1").ok());    // bad iteration
  // Ids above INT_MAX must not narrow to partition 0 / iteration 1.
  EXPECT_FALSE(FailureSchedule::Parse("5:4294967296").ok());
  EXPECT_FALSE(FailureSchedule::Parse("4294967297:0").ok());
}

TEST(FailureScheduleTest, EventToString) {
  FailureEvent e{4, {1, 3}};
  EXPECT_EQ(e.ToString(), "iter 4: partitions [1,3]");
}

TEST(RandomFailuresTest, RespectsProbabilityExtremes) {
  Rng rng(5);
  EXPECT_TRUE(RandomFailures(10, 4, 0.0, &rng).empty());
  FailureSchedule all = RandomFailures(10, 4, 1.0, &rng);
  EXPECT_EQ(all.events().size(), 10u);
  for (int it = 1; it <= 10; ++it) {
    EXPECT_EQ(all.Peek(it).size(), 4u);
  }
}

TEST(RandomFailuresTest, DeterministicGivenSeed) {
  Rng a(99), b(99);
  auto s1 = RandomFailures(20, 4, 0.2, &a);
  auto s2 = RandomFailures(20, 4, 0.2, &b);
  ASSERT_EQ(s1.events().size(), s2.events().size());
  for (size_t i = 0; i < s1.events().size(); ++i) {
    EXPECT_EQ(s1.events()[i].iteration, s2.events()[i].iteration);
    EXPECT_EQ(s1.events()[i].partitions, s2.events()[i].partitions);
  }
}

// ---------------------------------------------------------------- Cluster --

TEST(ClusterTest, InitialAssignmentOneWorkerPerPartition) {
  Cluster cluster(4, nullptr, nullptr);
  EXPECT_EQ(cluster.num_partitions(), 4);
  EXPECT_EQ(cluster.total_workers_created(), 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_TRUE(cluster.PartitionHealthy(p));
  }
  EXPECT_EQ(*cluster.WorkerOf(0), 0);
  EXPECT_EQ(*cluster.WorkerOf(3), 3);
}

TEST(ClusterTest, WorkerOfOutOfRange) {
  Cluster cluster(2, nullptr, nullptr);
  EXPECT_FALSE(cluster.WorkerOf(-1).ok());
  EXPECT_FALSE(cluster.WorkerOf(2).ok());
  EXPECT_FALSE(cluster.PartitionHealthy(5));
}

TEST(ClusterTest, KillAndReassign) {
  Cluster cluster(3, nullptr, nullptr);
  EXPECT_EQ(cluster.KillPartitions({1, 2}), 2);
  EXPECT_FALSE(cluster.PartitionHealthy(1));
  EXPECT_TRUE(cluster.PartitionHealthy(0));
  EXPECT_EQ(cluster.KillPartitions({1}), 0);  // already dead

  ASSERT_TRUE(cluster.ReassignToFreshWorkers({1, 2}).ok());
  EXPECT_TRUE(cluster.PartitionHealthy(1));
  EXPECT_TRUE(cluster.PartitionHealthy(2));
  // Replacement workers are new identities.
  EXPECT_GE(*cluster.WorkerOf(1), 3);
  EXPECT_EQ(cluster.total_workers_created(), 5);
  EXPECT_EQ(cluster.epoch(), 1);
}

TEST(ClusterTest, ReassignHealthyPartitionIsNoop) {
  Cluster cluster(2, nullptr, nullptr);
  ASSERT_TRUE(cluster.ReassignToFreshWorkers({0}).ok());
  EXPECT_EQ(cluster.total_workers_created(), 2);
  EXPECT_EQ(cluster.epoch(), 0);
}

TEST(ClusterTest, ChargesNodeAcquisitionOncePerRecovery) {
  SimClock clock;
  CostModel costs;
  costs.node_acquisition_ns = 777;
  Cluster cluster(4, &clock, &costs);
  cluster.KillPartitions({0, 1});
  ASSERT_TRUE(cluster.ReassignToFreshWorkers({0, 1}).ok());
  EXPECT_EQ(clock.Of(Charge::kRecovery), 777);
}

TEST(ClusterTest, ReassignOutOfRangeFails) {
  Cluster cluster(2, nullptr, nullptr);
  EXPECT_FALSE(cluster.ReassignToFreshWorkers({7}).ok());
}

// ---------------------------------------------------- live_bytes counter --

// Recomputes what live_bytes() should report by walking every blob.
uint64_t BruteForceLiveBytes(StableStorage* storage) {
  uint64_t total = 0;
  for (const std::string& key : storage->ListWithPrefix("")) {
    total += storage->Read(key)->size();
  }
  return total;
}

TEST(StableStorageTest, LiveBytesCounterMatchesBruteForce) {
  StableStorage storage(nullptr, nullptr);
  EXPECT_EQ(storage.live_bytes(), 0u);

  // Writes.
  ASSERT_TRUE(storage.Write("a/1", std::vector<uint8_t>(10, 1)).ok());
  ASSERT_TRUE(storage.Write("a/2", std::vector<uint8_t>(20, 2)).ok());
  ASSERT_TRUE(storage.Write("b/1", std::vector<uint8_t>(5, 3)).ok());
  EXPECT_EQ(storage.live_bytes(), BruteForceLiveBytes(&storage));
  EXPECT_EQ(storage.live_bytes(), 35u);

  // Overwrite shrinks, then grows.
  ASSERT_TRUE(storage.Write("a/1", std::vector<uint8_t>(3, 1)).ok());
  EXPECT_EQ(storage.live_bytes(), BruteForceLiveBytes(&storage));
  ASSERT_TRUE(storage.Write("a/1", std::vector<uint8_t>(40, 1)).ok());
  EXPECT_EQ(storage.live_bytes(), BruteForceLiveBytes(&storage));

  // Delete (and idempotent re-delete of a missing key).
  storage.Delete("a/2");
  storage.Delete("a/2");
  storage.Delete("never-written");
  EXPECT_EQ(storage.live_bytes(), BruteForceLiveBytes(&storage));

  // Prefix delete.
  ASSERT_TRUE(storage.Write("a/3", std::vector<uint8_t>(7, 4)).ok());
  EXPECT_EQ(storage.DeleteWithPrefix("a/"), 2u);
  EXPECT_EQ(storage.live_bytes(), BruteForceLiveBytes(&storage));
  EXPECT_EQ(storage.live_bytes(), 5u);  // only b/1 remains

  storage.Delete("b/1");
  EXPECT_EQ(storage.live_bytes(), 0u);
}

TEST(StableStorageTest, LiveBytesTracksEmptyBlobs) {
  StableStorage storage(nullptr, nullptr);
  ASSERT_TRUE(storage.Write("empty", {}).ok());
  EXPECT_EQ(storage.live_bytes(), 0u);
  ASSERT_TRUE(storage.Write("empty", std::vector<uint8_t>(4, 0)).ok());
  EXPECT_EQ(storage.live_bytes(), 4u);
  ASSERT_TRUE(storage.Write("empty", {}).ok());
  EXPECT_EQ(storage.live_bytes(), 0u);
}

// ----------------------------------------------------------- MemoryManager --

// A segment over a byte vector "spilling" into a StableStorage, tracking
// how often it moved. Mirrors what ExecCache::Segment does, minus records.
class FakeSegment : public SpillableSegment {
 public:
  FakeSegment(std::string key, uint64_t size, StableStorage* storage)
      : key_(std::move(key)), payload_(size, 0xAB), storage_(storage) {}

  const std::string& spill_key() const override { return key_; }
  uint64_t resident_bytes() const override {
    return spilled_ ? 0 : payload_.size();
  }
  int num_partitions() const override { return 1; }
  bool spilled() const override { return spilled_; }

  Status Spill() override {
    FLINKLESS_RETURN_NOT_OK(storage_->Write(key_, payload_));
    payload_size_ = payload_.size();
    payload_.clear();
    payload_.shrink_to_fit();
    spilled_ = true;
    ++spill_count_;
    return Status::OK();
  }

  Status Unspill() override {
    auto blob = storage_->Read(key_);
    FLINKLESS_RETURN_NOT_OK(blob.status());
    payload_ = std::move(*blob);
    storage_->Delete(key_);
    spilled_ = false;
    ++unspill_count_;
    return Status::OK();
  }

  int spill_count() const { return spill_count_; }
  int unspill_count() const { return unspill_count_; }

 private:
  std::string key_;
  std::vector<uint8_t> payload_;
  uint64_t payload_size_ = 0;
  StableStorage* storage_;
  bool spilled_ = false;
  int spill_count_ = 0;
  int unspill_count_ = 0;
};

TEST(MemoryManagerTest, UnlimitedBudgetNeverSpills) {
  StableStorage storage(nullptr, nullptr);
  MemoryManager manager(0);
  FakeSegment a("spill/a", 1000, &storage);
  FakeSegment b("spill/b", 2000, &storage);
  manager.Register(&a);
  manager.Register(&b);
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_EQ(manager.stats().spills, 0u);
  EXPECT_EQ(manager.resident_bytes(), 3000u);
  EXPECT_EQ(manager.stats().peak_resident_bytes, 3000u);
  manager.Unregister(&a);
  manager.Unregister(&b);
  EXPECT_EQ(manager.num_segments(), 0u);
}

TEST(MemoryManagerTest, EvictsLeastRecentlyUsedFirst) {
  StableStorage storage(nullptr, nullptr);
  MemoryManager manager(2500);
  FakeSegment a("spill/a", 1000, &storage);
  FakeSegment b("spill/b", 1000, &storage);
  FakeSegment c("spill/c", 1000, &storage);
  manager.Register(&a);  // oldest
  manager.Register(&b);
  manager.Register(&c);  // newest
  // 3000 > 2500: exactly one eviction needed; `a` is coldest.
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_TRUE(a.spilled());
  EXPECT_FALSE(b.spilled());
  EXPECT_FALSE(c.spilled());
  EXPECT_EQ(manager.resident_bytes(), 2000u);
  EXPECT_EQ(manager.stats().spills, 1u);
  EXPECT_EQ(manager.stats().spilled_bytes, 1000u);
  EXPECT_EQ(storage.live_bytes(), 1000u);  // the spilled blob

  // Touching `b` makes `c` the coldest resident segment.
  bool reloaded = true;
  ASSERT_TRUE(manager.Touch(&b, nullptr, &reloaded).ok());
  EXPECT_FALSE(reloaded);
  MemoryManager::Stats before = manager.stats();
  FakeSegment d("spill/d", 1500, &storage);
  manager.Register(&d);
  ASSERT_TRUE(manager.EnforceBudget(&d, nullptr).ok());
  EXPECT_TRUE(c.spilled());
  EXPECT_FALSE(b.spilled());
  EXPECT_FALSE(d.spilled());
  EXPECT_EQ(manager.stats().spills, before.spills + 1);
  manager.Unregister(&a);
  manager.Unregister(&b);
  manager.Unregister(&c);
  manager.Unregister(&d);
}

TEST(MemoryManagerTest, TouchReloadsSpilledSegment) {
  StableStorage storage(nullptr, nullptr);
  MemoryManager manager(1);
  FakeSegment a("spill/a", 100, &storage);
  manager.Register(&a);
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  ASSERT_TRUE(a.spilled());
  EXPECT_EQ(storage.live_bytes(), 100u);

  bool reloaded = false;
  ASSERT_TRUE(manager.Touch(&a, nullptr, &reloaded).ok());
  EXPECT_TRUE(reloaded);
  EXPECT_FALSE(a.spilled());
  EXPECT_EQ(a.unspill_count(), 1);
  // The blob only exists while spilled.
  EXPECT_EQ(storage.live_bytes(), 0u);
  EXPECT_EQ(manager.stats().unspills, 1u);
  EXPECT_EQ(manager.stats().unspilled_bytes, 100u);
  manager.Unregister(&a);
}

TEST(MemoryManagerTest, KeepSegmentGrantsOneSegmentSlack) {
  StableStorage storage(nullptr, nullptr);
  MemoryManager manager(50);
  FakeSegment big("spill/big", 5000, &storage);
  manager.Register(&big);
  // The only segment is exempt: it stays resident even over budget.
  ASSERT_TRUE(manager.EnforceBudget(&big, nullptr).ok());
  EXPECT_FALSE(big.spilled());
  EXPECT_EQ(manager.resident_bytes(), 5000u);
  // Without the exemption it goes out.
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_TRUE(big.spilled());
  EXPECT_EQ(manager.resident_bytes(), 0u);
  manager.Unregister(&big);
}

TEST(MemoryManagerTest, TieBreaksOnSpillKey) {
  // Two segments registered... in one Register call each, so accesses are
  // unique; force a tie by constructing the manager state via equal-sized
  // evictions instead: with budget 0 everything must go, and the eviction
  // ORDER is observable through the storage write sequence.
  SimClock clock;
  CostModel costs;
  costs.checkpoint_write_per_byte_ns = 1;
  costs.checkpoint_sync_ns = 0;
  StableStorage storage(&clock, &costs);
  MemoryManager manager(10);
  FakeSegment z("spill/z", 100, &storage);
  FakeSegment a("spill/a", 100, &storage);
  manager.Register(&z);
  manager.Register(&a);
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  // Both spilled; `z` was registered first (lower access) so it went first.
  EXPECT_TRUE(z.spilled());
  EXPECT_TRUE(a.spilled());
  EXPECT_EQ(manager.stats().spills, 2u);
  manager.Unregister(&z);
  manager.Unregister(&a);
}

TEST(MemoryManagerTest, SpillChargesSimClockThroughStorage) {
  SimClock clock;
  CostModel costs;
  costs.checkpoint_write_per_byte_ns = 30;
  costs.checkpoint_read_per_byte_ns = 10;
  costs.checkpoint_sync_ns = 500;
  StableStorage storage(&clock, &costs);
  MemoryManager manager(1);
  FakeSegment a("spill/a", 200, &storage);
  manager.Register(&a);
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_EQ(clock.Of(Charge::kCheckpointIo), 200 * 30 + 500);
  bool reloaded = false;
  ASSERT_TRUE(manager.Touch(&a, nullptr, &reloaded).ok());
  EXPECT_EQ(clock.Of(Charge::kCheckpointIo), 200 * 30 + 500 + 200 * 10);
  manager.Unregister(&a);
}

}  // namespace
}  // namespace flinkless::runtime
