// The loop-invariant cache contract (DESIGN.md §10): static-ness analysis
// on the plan, cache hit/miss/invalidation behaviour across repeated
// executions, byte-identity of cached results vs a cache-less executor,
// rebinding volatile sources forcing recomputation, the simulated-time
// savings of skipped shuffles, and the copying shuffle's single gather.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/columnar.h"
#include "dataflow/exec_cache.h"
#include "dataflow/executor.h"
#include "dataflow/plan.h"
#include "runtime/cost_model.h"
#include "runtime/memory_manager.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"
#include "runtime/tracing.h"

namespace flinkless {
namespace {

using dataflow::Bindings;
using dataflow::ExecCache;
using dataflow::ExecOptions;
using dataflow::ExecStats;
using dataflow::Executor;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

constexpr int kParts = 4;

void ExpectIdenticalDatasets(const PartitionedDataset& a,
                             const PartitionedDataset& b) {
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  for (int p = 0; p < a.num_partitions(); ++p) {
    EXPECT_EQ(a.partition(p), b.partition(p)) << "partition " << p;
  }
}

/// (key, value) pairs with keys drawn from [0, key_range).
PartitionedDataset Pairs(int64_t n, int64_t key_range, int64_t salt) {
  std::vector<Record> records;
  records.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    records.push_back(MakeRecord((i * 7 + salt) % key_range, i + salt));
  }
  return PartitionedDataset::RoundRobin(std::move(records), kParts);
}

// ------------------------------------------------- static-ness analysis --

TEST(InvariantNodesTest, SourcesClassifiedByVolatileBindings) {
  Plan plan;
  auto stat = plan.Source("edges");
  auto vol = plan.Source("workset");
  plan.Output(stat, "a");
  plan.Output(vol, "b");
  auto inv = plan.InvariantNodes({"workset"});
  EXPECT_TRUE(inv[stat]);
  EXPECT_FALSE(inv[vol]);
}

TEST(InvariantNodesTest, InvarianceStopsAtTheFirstVolatileInput) {
  Plan plan;
  auto stat = plan.Source("edges");
  auto vol = plan.Source("workset");
  auto stat_map = plan.Map(
      stat, [](const Record& r) { return r; }, "static-map");
  auto stat_reduce = plan.ReduceByKey(
      stat_map, {0},
      [](const Record& a, const Record&) { return a; }, "static-reduce");
  auto joined = plan.Join(
      stat_reduce, vol, {0}, {0},
      [](const Record& l, const Record&) { return l; }, "mixed-join");
  auto tail = plan.Map(
      joined, [](const Record& r) { return r; }, "tail");
  plan.Output(tail, "out");

  auto inv = plan.InvariantNodes({"workset"});
  EXPECT_TRUE(inv[stat]);
  EXPECT_TRUE(inv[stat_map]);
  EXPECT_TRUE(inv[stat_reduce]);
  EXPECT_FALSE(inv[vol]);
  EXPECT_FALSE(inv[joined]);  // one volatile input poisons the node
  EXPECT_FALSE(inv[tail]);
}

TEST(InvariantNodesTest, NoVolatileBindingsMakesEverythingInvariant) {
  Plan plan;
  auto a = plan.Source("a");
  auto b = plan.Source("b");
  auto u = plan.Union(a, b, "u");
  plan.Output(u, "out");
  auto inv = plan.InvariantNodes({});
  EXPECT_TRUE(inv[a]);
  EXPECT_TRUE(inv[b]);
  EXPECT_TRUE(inv[u]);
}

// ------------------------------------------- cached supersteps fixture --

/// A miniature "superstep": join two static tables against a volatile
/// workset, then aggregate — the shape of PageRank's find-neighbors and
/// dangling-ranks (joining `links` and `dangling`) feeding recompute-ranks.
/// Each join's static build side is one cache entry.
Plan BuildStepPlan() {
  Plan plan;
  auto stat = plan.Source("static");
  auto stat2 = plan.Source("static2");
  auto vol = plan.Source("volatile");
  auto joined = plan.Join(
      stat, vol, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(), l[1].AsInt64() + r[1].AsInt64());
      },
      "step-join");
  auto scaled = plan.Join(
      stat2, vol, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(),
                          l[1].AsInt64() * 2 + r[1].AsInt64());
      },
      "scaled-join");
  auto both = plan.Union(joined, scaled, "both");
  auto reduced = plan.ReduceByKey(
      both, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsInt64() + b[1].AsInt64());
      },
      "step-sum");
  plan.Output(reduced, "out");
  return plan;
}

/// The fixture's bindings: both static tables read `statics`.
Bindings StepBindings(const PartitionedDataset& statics,
                      const PartitionedDataset& workset) {
  return {{"static", &statics}, {"static2", &statics}, {"volatile", &workset}};
}

/// Runs `plan` for `supersteps` executions, rebinding "volatile" each step,
/// with an optional cache; returns the per-step outputs and accumulates
/// per-step stats into `stats_out`.
std::vector<PartitionedDataset> RunSupersteps(
    const Plan& plan, const PartitionedDataset& statics,
    const std::vector<PartitionedDataset>& worksets, ExecCache* cache,
    std::vector<ExecStats>* stats_out, runtime::SimClock* clock = nullptr,
    const runtime::CostModel* costs = nullptr,
    runtime::MetricsSink* metrics = nullptr) {
  ExecOptions options;
  options.num_partitions = kParts;
  options.cache = cache;
  options.clock = clock;
  options.costs = costs;
  options.metrics = metrics;
  Executor executor(options);
  std::vector<PartitionedDataset> outs;
  for (const PartitionedDataset& workset : worksets) {
    ExecStats stats;
    auto result = executor.Execute(
        plan, StepBindings(statics, workset), &stats);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    outs.push_back(std::move(result->at("out")));
    if (stats_out != nullptr) stats_out->push_back(stats);
  }
  return outs;
}

std::vector<PartitionedDataset> MakeWorksets(int supersteps) {
  std::vector<PartitionedDataset> worksets;
  for (int s = 0; s < supersteps; ++s) {
    worksets.push_back(Pairs(600, 64, /*salt=*/100 * s + 1));
  }
  return worksets;
}

// ---------------------------------------------------- hit/miss behaviour --

TEST(ExecCacheTest, SecondSuperstepHitsTheCache) {
  Plan plan = BuildStepPlan();
  PartitionedDataset statics = Pairs(2000, 64, /*salt=*/0);
  auto worksets = MakeWorksets(3);

  ExecCache cache({"volatile"});
  std::vector<ExecStats> stats;
  runtime::MetricsSink sink;
  RunSupersteps(plan, statics, worksets, &cache, &stats, nullptr, nullptr,
                &sink);

  // Superstep 1 builds: no hits, one entry per static build side.
  EXPECT_EQ(stats[0].cache_hits, 0u);
  EXPECT_EQ(stats[0].records_not_reshuffled, 0u);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.size(), 2u);

  // Supersteps 2..n serve both static build sides and their indexes from
  // the cache; the skipped shuffles are visible in the stats.
  for (size_t s = 1; s < stats.size(); ++s) {
    EXPECT_GT(stats[s].cache_hits, 0u) << "superstep " << s;
    EXPECT_GT(stats[s].records_not_reshuffled, 0u) << "superstep " << s;
    EXPECT_LT(stats[s].messages_shuffled, stats[0].messages_shuffled)
        << "superstep " << s;
  }
  // The sink's cache.hits is the ExecStats count, published once per
  // Execute.
  EXPECT_EQ(sink.Collect().CounterTotal(runtime::metric::kCacheHits),
            stats[1].cache_hits + stats[2].cache_hits);
}

TEST(ExecCacheTest, CachedOutputsAreByteIdenticalToUncached) {
  Plan plan = BuildStepPlan();
  PartitionedDataset statics = Pairs(2000, 64, /*salt=*/0);
  auto worksets = MakeWorksets(4);

  ExecCache cache({"volatile"});
  auto cached = RunSupersteps(plan, statics, worksets, &cache, nullptr);
  auto plain = RunSupersteps(plan, statics, worksets, nullptr, nullptr);

  ASSERT_EQ(cached.size(), plain.size());
  for (size_t s = 0; s < cached.size(); ++s) {
    SCOPED_TRACE("superstep " + std::to_string(s));
    ExpectIdenticalDatasets(cached[s], plain[s]);
  }
}

TEST(ExecCacheTest, VolatileRebindChangesCachedResults) {
  // The cached static artifacts must not freeze the volatile side: two
  // supersteps with different worksets produce different outputs, each
  // matching what a fresh cache-less run over that workset produces.
  Plan plan = BuildStepPlan();
  PartitionedDataset statics = Pairs(2000, 64, /*salt=*/0);
  auto worksets = MakeWorksets(2);

  ExecCache cache({"volatile"});
  auto cached = RunSupersteps(plan, statics, worksets, &cache, nullptr);

  bool differ = false;
  for (int p = 0; p < kParts && !differ; ++p) {
    differ = cached[0].partition(p) != cached[1].partition(p);
  }
  EXPECT_TRUE(differ) << "rebinding the volatile source must change output";

  auto fresh = RunSupersteps(plan, statics, {worksets[1]}, nullptr, nullptr);
  ExpectIdenticalDatasets(cached[1], fresh[0]);
}

TEST(ExecCacheTest, InvalidateForcesRebuildWithIdenticalResults) {
  Plan plan = BuildStepPlan();
  PartitionedDataset statics = Pairs(2000, 64, /*salt=*/0);
  auto worksets = MakeWorksets(3);

  ExecOptions options;
  options.num_partitions = kParts;
  ExecCache cache({"volatile"});
  runtime::MetricsSink sink;
  cache.set_metrics(&sink);
  options.cache = &cache;
  Executor executor(options);

  auto run = [&](const PartitionedDataset& workset, ExecStats* stats) {
    auto result = executor.Execute(
        plan, StepBindings(statics, workset), stats);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result->at("out"));
  };

  ExecStats s0, s1, s2;
  run(worksets[0], &s0);
  EXPECT_EQ(cache.size(), 2u);  // one entry per static build side
  run(worksets[1], &s1);
  EXPECT_GT(s1.cache_hits, 0u);

  // A lost partition drops every entry (hash-partitioned artifacts need a
  // full re-scatter); the next superstep rebuilds and charges like the
  // first one did.
  cache.Invalidate({2});
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(sink.Collect().CounterTotal(runtime::metric::kCacheInvalidations),
            1u);

  PartitionedDataset rebuilt = run(worksets[2], &s2);
  EXPECT_EQ(s2.cache_hits, 0u);
  EXPECT_EQ(s2.records_not_reshuffled, 0u);
  EXPECT_GT(cache.size(), 0u);

  auto fresh = RunSupersteps(plan, statics, {worksets[2]}, nullptr, nullptr);
  ExpectIdenticalDatasets(rebuilt, fresh[0]);
}

TEST(ExecCacheTest, EmptyInvalidationKeepsEntries) {
  ExecCache cache({"volatile"});
  runtime::MetricsSink sink;
  cache.set_metrics(&sink);
  cache.EnsurePartitionCount(kParts);
  cache.Emplace(3, ExecCache::Role::kBuild);
  cache.Invalidate({});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(sink.Collect().CounterTotal(runtime::metric::kCacheInvalidations),
            0u);
}

TEST(ExecCacheTest, PartitionCountChangeDropsEntries) {
  ExecCache cache({"volatile"});
  cache.EnsurePartitionCount(4);
  cache.Emplace(2, ExecCache::Role::kBuild);
  cache.Emplace(2, ExecCache::Role::kProbe);
  EXPECT_EQ(cache.size(), 2u);
  cache.EnsurePartitionCount(4);  // same count: entries survive
  EXPECT_EQ(cache.size(), 2u);
  cache.EnsurePartitionCount(8);  // repartition: everything is stale
  EXPECT_EQ(cache.size(), 0u);
}

// -------------------------------------------------- simulated-time wins --

TEST(ExecCacheTest, CacheHitsSkipStaticSideCharges) {
  Plan plan = BuildStepPlan();
  PartitionedDataset statics = Pairs(4000, 64, /*salt=*/0);
  auto worksets = MakeWorksets(4);
  runtime::CostModel costs;

  runtime::SimClock cached_clock;
  ExecCache cache({"volatile"});
  RunSupersteps(plan, statics, worksets, &cache, nullptr, &cached_clock,
                &costs);

  runtime::SimClock plain_clock;
  RunSupersteps(plan, statics, worksets, nullptr, nullptr, &plain_clock,
                &costs);

  // The static side is shuffled and charged exactly once instead of once
  // per superstep: strictly less network and compute time overall.
  EXPECT_LT(cached_clock.Of(runtime::Charge::kNetwork),
            plain_clock.Of(runtime::Charge::kNetwork));
  EXPECT_LT(cached_clock.Of(runtime::Charge::kCompute),
            plain_clock.Of(runtime::Charge::kCompute));
}

// ------------------------------------------------------ cogroup caching --

TEST(ExecCacheTest, CoGroupStaticSideIsCachedAndByteIdentical) {
  Plan plan;
  auto stat = plan.Source("static");
  auto vol = plan.Source("volatile");
  auto cg = plan.CoGroup(
      stat, vol, {0}, {0},
      [](const Record& key, const std::vector<Record>& l,
         const std::vector<Record>& r, std::vector<Record>* out) {
        out->push_back(MakeRecord(key[0].AsInt64(),
                                  static_cast<int64_t>(l.size()),
                                  static_cast<int64_t>(r.size())));
      },
      "count-sides");
  plan.Output(cg, "out");

  PartitionedDataset statics = Pairs(1500, 48, /*salt=*/0);
  auto worksets = MakeWorksets(3);

  ExecCache cache({"volatile"});
  std::vector<ExecStats> stats;
  auto cached = RunSupersteps(plan, statics, worksets, &cache, &stats);
  auto plain = RunSupersteps(plan, statics, worksets, nullptr, nullptr);

  EXPECT_EQ(stats[0].cache_hits, 0u);
  EXPECT_GT(stats[1].cache_hits, 0u);
  EXPECT_GT(stats[2].cache_hits, 0u);
  for (size_t s = 0; s < cached.size(); ++s) {
    SCOPED_TRACE("superstep " + std::to_string(s));
    ExpectIdenticalDatasets(cached[s], plain[s]);
  }
}

// ----------------------------------------- volatile-build-side join path --

TEST(ExecCacheTest, ProbeSideCacheServesStaticRightInput) {
  // Static data on the RIGHT of the join exercises the kProbe role: the
  // shuffled right side is cached while the volatile left side is hashed
  // fresh every superstep.
  Plan plan;
  auto vol = plan.Source("volatile");
  auto stat = plan.Source("static");
  auto joined = plan.Join(
      vol, stat, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(), l[1].AsInt64() + r[1].AsInt64());
      },
      "probe-join");
  plan.Output(joined, "out");

  PartitionedDataset statics = Pairs(2000, 64, /*salt=*/0);
  auto worksets = MakeWorksets(3);

  ExecCache cache({"volatile"});
  std::vector<ExecStats> stats;
  auto cached = RunSupersteps(plan, statics, worksets, &cache, &stats);
  auto plain = RunSupersteps(plan, statics, worksets, nullptr, nullptr);

  EXPECT_GT(stats[1].cache_hits, 0u);
  EXPECT_GT(stats[1].records_not_reshuffled, 0u);
  for (size_t s = 0; s < cached.size(); ++s) {
    SCOPED_TRACE("superstep " + std::to_string(s));
    ExpectIdenticalDatasets(cached[s], plain[s]);
  }
}

// -------------------------------------------------- observability hooks --

TEST(ExecCacheTest, TraceMarksBuildsAndHits) {
  Plan plan = BuildStepPlan();
  PartitionedDataset statics = Pairs(1000, 32, /*salt=*/0);
  auto worksets = MakeWorksets(2);

  runtime::Tracer tracer;
  ExecOptions options;
  options.num_partitions = kParts;
  ExecCache cache({"volatile"});
  options.cache = &cache;
  options.tracer = &tracer;
  Executor executor(options);
  for (const PartitionedDataset& workset : worksets) {
    ExecStats stats;
    auto result = executor.Execute(
        plan, StepBindings(statics, workset), &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  int64_t builds = 0, hits = 0;
  for (const auto& e : tracer.Flush().events) {
    builds += e.Arg("cache_build");
    hits += e.Arg("cache_hit");
  }
  EXPECT_GT(builds, 0);
  EXPECT_GT(hits, 0);
}

TEST(ExecCacheTest, CopyingShuffleGathersOnce) {
  // A shuffle that copies routes every source once and gathers once: one
  // job-level shuffle.gather span carrying all the input's rows, with the
  // same spans at any thread count.
  const int parts = 8;
  std::vector<Record> records;
  for (int64_t i = 0; i < 4000; ++i) {
    records.push_back(MakeRecord(i % 97, i));
  }
  auto in = PartitionedDataset::RoundRobin(std::move(records), parts);

  auto gathers_of = [&](int num_threads) {
    runtime::Tracer tracer;
    ExecOptions options;
    options.num_partitions = parts;
    options.num_threads = num_threads;
    options.tracer = &tracer;
    Executor executor(options);
    ExecStats stats;
    executor.Shuffle(in, {0}, &stats);
    std::vector<std::pair<std::string, int64_t>> gathers;
    for (const auto& e : tracer.Flush().events) {
      if (e.category == "shuffle.gather" && e.partition == -1) {
        gathers.emplace_back(e.name, e.Arg("records", -1));
      }
    }
    return gathers;
  };

  const auto serial = gathers_of(1);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial[0].first, "gather");
  EXPECT_EQ(serial[0].second, 4000);
  EXPECT_EQ(serial, gathers_of(4));
}

// ------------------------------------------- spill / memory budget (§11) --

// Builds the per-partition flat index the executor builds for a cached
// join build side, over the dataset's records in place.
std::shared_ptr<std::vector<dataflow::FlatKeyIndex>> BuildIndex(
    const PartitionedDataset& ds, const dataflow::KeyColumns& key) {
  auto index =
      std::make_shared<std::vector<dataflow::FlatKeyIndex>>(ds.num_partitions());
  for (int p = 0; p < ds.num_partitions(); ++p) {
    (*index)[p].Build(ds.partition(p), key);
  }
  return index;
}

TEST(ExecCacheSpillTest, SpillRoundTripIsByteIdenticalAndRebuildsIndex) {
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  runtime::MemoryManager manager(/*budget_bytes=*/1);
  ExecCache cache({"volatile"});
  cache.AttachMemoryManager(&manager, &storage, "test-job");
  cache.EnsurePartitionCount(kParts);

  auto ds = std::make_shared<PartitionedDataset>(Pairs(500, 32, /*salt=*/3));
  ExecCache::Entry& entry = cache.Emplace(7, ExecCache::Role::kBuild);
  entry.data = ds;
  entry.index_key = {0};
  entry.flat_index = BuildIndex(*ds, {0});
  ASSERT_TRUE(
      cache.OnEntryFilled(7, ExecCache::Role::kBuild, nullptr).ok());

  // The just-filled entry has the one-segment slack: resident over budget.
  ASSERT_NE(cache.Find(7, ExecCache::Role::kBuild)->data, nullptr);
  EXPECT_GT(manager.resident_bytes(), manager.budget_bytes());

  // An unexempted pass pushes it out: resident state gone, blob written.
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_EQ(cache.Find(7, ExecCache::Role::kBuild)->data, nullptr);
  EXPECT_EQ(cache.Find(7, ExecCache::Role::kBuild)->flat_index, nullptr);
  EXPECT_GT(storage.live_bytes(), 0u);
  EXPECT_EQ(manager.stats().spills, 1u);
  const uint64_t io_after_spill = clock.Of(runtime::Charge::kCheckpointIo);
  EXPECT_GT(io_after_spill, 0u);  // the spill write is charged

  // Reload: byte-identical records, the index rebuilt over them.
  bool reloaded = false;
  auto e_or =
      cache.FindResident(7, ExecCache::Role::kBuild, nullptr, &reloaded);
  ASSERT_TRUE(e_or.ok()) << e_or.status().ToString();
  ExecCache::Entry* e = *e_or;
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(reloaded);
  ASSERT_NE(e->data, nullptr);
  ExpectIdenticalDatasets(*e->data, *ds);
  EXPECT_GT(clock.Of(runtime::Charge::kCheckpointIo), io_after_spill);

  // The rebuilt index answers every probe like one built over the original.
  const auto fresh = *BuildIndex(*ds, {0});
  ASSERT_NE(e->flat_index, nullptr);
  const std::vector<dataflow::FlatKeyIndex>& index = *e->flat_index;
  ASSERT_EQ(index.size(), fresh.size());
  for (size_t p = 0; p < fresh.size(); ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    ASSERT_EQ(index[p].heads(), fresh[p].heads());
    for (const Record& probe : ds->partition(p)) {
      const uint64_t h = dataflow::HashKey(probe, {0});
      int32_t got = index[p].FindFirst(probe, {0}, h);
      int32_t want = fresh[p].FindFirst(probe, {0}, h);
      for (; want >= 0; want = fresh[p].Next(want)) {
        ASSERT_GE(got, 0);
        // Same records, same order.
        EXPECT_EQ(e->data->partition(p)[got], ds->partition(p)[want]);
        got = index[p].Next(got);
      }
      EXPECT_EQ(got, -1);
    }
  }

  // The blob only exists while the entry is spilled.
  EXPECT_EQ(storage.live_bytes(), 0u);
  EXPECT_EQ(manager.stats().unspills, 1u);
}

TEST(ExecCacheSpillTest, FlatIndexUnspillReusesRetainedHashes) {
  runtime::StableStorage storage(nullptr, nullptr);
  runtime::MemoryManager manager(/*budget_bytes=*/1);
  ExecCache cache({"volatile"});
  cache.AttachMemoryManager(&manager, &storage, "test-job");
  cache.EnsurePartitionCount(kParts);

  auto ds = std::make_shared<PartitionedDataset>(Pairs(500, 32, /*salt=*/3));
  ExecCache::Entry& entry = cache.Emplace(5, ExecCache::Role::kBuild);
  entry.data = ds;
  entry.index_key = {0};
  entry.flat_index = BuildIndex(*ds, {0});
  std::vector<std::vector<uint64_t>> hashes(kParts);
  for (int p = 0; p < kParts; ++p) {
    hashes[p] = (*entry.flat_index)[p].row_hashes();
  }
  ASSERT_TRUE(
      cache.OnEntryFilled(5, ExecCache::Role::kBuild, nullptr).ok());
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_EQ(cache.Find(5, ExecCache::Role::kBuild)->flat_index, nullptr);
  EXPECT_EQ(cache.hash_reuses(), 0u);
  // The retained hashes live beside the entry, never in storage: the blob
  // is the serialized dataset alone, so I/O accounting is unchanged.
  const uint64_t spilled_bytes = storage.live_bytes();
  EXPECT_EQ(spilled_bytes, SerializedDatasetBytes(*ds));

  bool reloaded = false;
  auto e_or =
      cache.FindResident(5, ExecCache::Role::kBuild, nullptr, &reloaded);
  ASSERT_TRUE(e_or.ok()) << e_or.status().ToString();
  ExecCache::Entry* e = *e_or;
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(reloaded);
  ASSERT_NE(e->flat_index, nullptr);
  const std::vector<dataflow::FlatKeyIndex>& index = *e->flat_index;
  ASSERT_EQ(index.size(), static_cast<size_t>(kParts));
  // Every partition's rebuild adopted its retained hashes...
  EXPECT_EQ(cache.hash_reuses(), static_cast<uint64_t>(kParts));
  for (int p = 0; p < kParts; ++p) {
    SCOPED_TRACE("partition " + std::to_string(p));
    EXPECT_EQ(index[p].row_hashes(), hashes[p]);
    // ...and the adopted index matches a from-scratch build exactly.
    dataflow::FlatKeyIndex fresh;
    fresh.Build(e->data->partition(p), {0});
    ASSERT_EQ(index[p].heads(), fresh.heads());
    for (int32_t head : fresh.heads()) {
      for (int32_t r = head; r >= 0; r = fresh.Next(r)) {
        EXPECT_EQ(index[p].Next(r), fresh.Next(r));
      }
    }
  }
}

TEST(ExecCacheSpillTest, BudgetedSuperstepsAreByteIdenticalAndSpill) {
  Plan plan = BuildStepPlan();
  PartitionedDataset statics = Pairs(2000, 64, /*salt=*/0);
  auto worksets = MakeWorksets(4);

  auto run = [&](uint64_t budget, runtime::MemoryManager::Stats* stats_out) {
    runtime::StableStorage storage(nullptr, nullptr);
    runtime::MemoryManager manager(budget);
    ExecCache cache({"volatile"});
    cache.AttachMemoryManager(&manager, &storage, "sweep");
    auto outs = RunSupersteps(plan, statics, worksets, &cache, nullptr);
    if (stats_out != nullptr) *stats_out = manager.stats();
    if (budget == 0) {
      EXPECT_EQ(storage.live_bytes(), 0u);  // nothing spilled
    }
    return outs;
  };

  runtime::MemoryManager::Stats unlimited_stats, tiny_stats;
  auto unlimited = run(0, &unlimited_stats);
  auto tiny = run(1, &tiny_stats);

  EXPECT_EQ(unlimited_stats.spills, 0u);
  EXPECT_GT(unlimited_stats.peak_resident_bytes, 0u);
  // Budget 1 with >= 2 cached artifacts: filling one evicts the other,
  // and the next superstep's access reloads it — steady thrash.
  EXPECT_GT(tiny_stats.spills, 0u);
  EXPECT_GT(tiny_stats.unspills, 0u);
  EXPECT_EQ(tiny_stats.peak_resident_bytes,
            unlimited_stats.peak_resident_bytes);

  ASSERT_EQ(unlimited.size(), tiny.size());
  for (size_t s = 0; s < unlimited.size(); ++s) {
    SCOPED_TRACE("superstep " + std::to_string(s));
    ExpectIdenticalDatasets(unlimited[s], tiny[s]);
  }
}

TEST(ExecCacheSpillTest, InvalidateDeletesSpillBlobs) {
  runtime::StableStorage storage(nullptr, nullptr);
  runtime::MemoryManager manager(1);
  ExecCache cache({"volatile"});
  cache.AttachMemoryManager(&manager, &storage, "test-job");
  cache.EnsurePartitionCount(kParts);

  auto ds = std::make_shared<PartitionedDataset>(Pairs(200, 16, /*salt=*/1));
  cache.Emplace(0, ExecCache::Role::kProbe).data = ds;
  ASSERT_TRUE(
      cache.OnEntryFilled(0, ExecCache::Role::kProbe, nullptr).ok());
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  ASSERT_GT(storage.live_bytes(), 0u);

  // A failure drops spilled entries *and* their blobs — recovery must
  // rebuild from the sources, not reload stale state.
  uint64_t released = cache.Invalidate({1});
  EXPECT_GT(released, 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(manager.num_segments(), 0u);
  EXPECT_EQ(storage.live_bytes(), 0u);
}

TEST(ExecCacheSpillTest, SpillSpansAppearInTrace) {
  runtime::Tracer tracer;
  runtime::StableStorage storage(nullptr, nullptr);
  runtime::MemoryManager manager(1);
  ExecCache cache({"volatile"});
  cache.AttachMemoryManager(&manager, &storage, "traced");
  cache.EnsurePartitionCount(kParts);

  auto ds = std::make_shared<PartitionedDataset>(Pairs(200, 16, /*salt=*/5));
  cache.Emplace(4, ExecCache::Role::kBuild).data = ds;
  ASSERT_TRUE(
      cache.OnEntryFilled(4, ExecCache::Role::kBuild, &tracer).ok());
  ASSERT_TRUE(manager.EnforceBudget(nullptr, &tracer).ok());
  bool reloaded = false;
  ASSERT_TRUE(
      cache.FindResident(4, ExecCache::Role::kBuild, &tracer, &reloaded)
          .ok());
  ASSERT_TRUE(reloaded);

  int spill_spans = 0, unspill_spans = 0;
  auto snapshot = tracer.Flush();
  for (const auto& e : snapshot.events) {
    if (e.category == "cache.spill") {
      ++spill_spans;
      EXPECT_GT(e.Arg("bytes"), 0);
      EXPECT_EQ(e.Arg("partitions"), kParts);
    } else if (e.category == "cache.unspill") {
      ++unspill_spans;
      EXPECT_GT(e.Arg("bytes"), 0);
    }
  }
  EXPECT_EQ(spill_spans, 1);
  EXPECT_EQ(unspill_spans, 1);
}

}  // namespace
}  // namespace flinkless
