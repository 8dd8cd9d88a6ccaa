// The determinism contract of partition-parallel execution: for any
// num_threads, the executor produces byte-identical partition contents,
// identical ExecStats, and identical simulated-time charges — on plain
// plans, on full iterative jobs (Connected Components, PageRank), and on
// runs with injected failures repaired by compensation functions. Plus unit
// coverage of the ThreadPool itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "algos/connected_components.h"
#include "algos/datasets.h"
#include "algos/pagerank.h"
#include "algos/refreshers.h"
#include "core/policies.h"
#include "dataflow/executor.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "common/rng.h"
#include "iteration/delta_iteration.h"
#include "runtime/failure.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"
#include "runtime/thread_pool.h"

namespace flinkless {
namespace {

using dataflow::Bindings;
using dataflow::ExecOptions;
using dataflow::ExecStats;
using dataflow::Executor;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

// ----------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  runtime::ThreadPool pool(4);
  constexpr int kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleRanges) {
  runtime::ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](int) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsTaskExceptions) {
  runtime::ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](int i) {
                                  if (i == 13) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool survives a throwing loop and stays usable.
  std::atomic<int> sum{0};
  pool.ParallelFor(10, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, SubmitAndWaitDrainTasks) {
  runtime::ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 20);
}

TEST(ThreadPoolTest, WaitRethrowsSubmittedExceptions) {
  runtime::ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(ThreadPoolTest, FreeParallelForRunsInlineWithoutPool) {
  std::vector<int> order;
  runtime::ParallelFor(nullptr, 5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(runtime::ThreadPool::ResolveThreadCount(4), 4);
  EXPECT_EQ(runtime::ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_GE(runtime::ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_EQ(runtime::ThreadPool::ResolveThreadCount(-3), 1);
}

// ------------------------------------------- executor plan determinism --

/// Byte-level comparison: partition layout AND intra-partition order.
void ExpectIdenticalDatasets(const PartitionedDataset& a,
                             const PartitionedDataset& b) {
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  for (int p = 0; p < a.num_partitions(); ++p) {
    EXPECT_EQ(a.partition(p), b.partition(p)) << "partition " << p;
  }
}

Plan BuildMixedPlan() {
  // Touches every order-sensitive operator class: map, filter, shuffle-based
  // reduce (with pre-combine), join, group-reduce, a reduce over the whole
  // row, union.
  Plan plan;
  auto src = plan.Source("in");
  auto mapped = plan.Map(
      src,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64() % 17, r[1].AsInt64() + 1);
      },
      "mod-keys");
  auto filtered = plan.Filter(
      mapped, [](const Record& r) { return r[1].AsInt64() % 3 != 0; },
      "drop-thirds");
  auto reduced = plan.ReduceByKey(
      filtered, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsInt64() + b[1].AsInt64());
      },
      "sum", /*pre_combine=*/true);
  auto joined = plan.Join(
      reduced, filtered, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(), l[1].AsInt64(), r[1].AsInt64());
      },
      "self-join");
  auto grouped = plan.GroupReduceByKey(
      joined, {0},
      [](const Record& key, const std::vector<Record>& group) {
        return MakeRecord(key[0].AsInt64(),
                          static_cast<int64_t>(group.size()));
      },
      "group-sizes");
  auto uniq = plan.ReduceByKey(
      grouped, {0, 1}, [](const Record& a, const Record&) { return a; },
      "dedup");
  auto both = plan.Union(uniq, reduced, "union");
  plan.Output(both, "out");
  return plan;
}

class ExecutorDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorDeterminismTest, MixedPlanMatchesSerialByteForByte) {
  const int threads = GetParam();
  const int parts = 8;
  Plan plan = BuildMixedPlan();
  Rng rng(99);
  std::vector<Record> records;
  for (int64_t i = 0; i < 5000; ++i) {
    records.push_back(
        MakeRecord(static_cast<int64_t>(rng.NextBounded(512)), i));
  }
  auto in = PartitionedDataset::RoundRobin(std::move(records), parts);

  auto run = [&](int num_threads, ExecStats* stats,
                 runtime::SimClock* clock, const runtime::CostModel* costs) {
    ExecOptions options;
    options.num_partitions = parts;
    options.num_threads = num_threads;
    options.clock = clock;
    options.costs = costs;
    Executor executor(options);
    auto outs = executor.Execute(plan, {{"in", &in}}, stats);
    EXPECT_TRUE(outs.ok()) << outs.status().ToString();
    return std::move(outs->at("out"));
  };

  runtime::CostModel costs;
  runtime::SimClock serial_clock;
  ExecStats serial_stats;
  PartitionedDataset serial = run(1, &serial_stats, &serial_clock, &costs);

  runtime::SimClock parallel_clock;
  ExecStats parallel_stats;
  PartitionedDataset parallel =
      run(threads, &parallel_stats, &parallel_clock, &costs);

  ExpectIdenticalDatasets(serial, parallel);
  EXPECT_EQ(serial_stats.records_processed, parallel_stats.records_processed);
  EXPECT_EQ(serial_stats.messages_shuffled, parallel_stats.messages_shuffled);
  EXPECT_EQ(serial_stats.node_output_counts,
            parallel_stats.node_output_counts);
  // Simulated time is a pure function of the data, never of the thread
  // count (critical-path charging).
  EXPECT_EQ(serial_clock.TotalNs(), parallel_clock.TotalNs());
}

TEST_P(ExecutorDeterminismTest, ShuffleIsByteIdentical) {
  const int threads = GetParam();
  const int parts = 8;
  Rng rng(7);
  std::vector<Record> records;
  for (int64_t i = 0; i < 3000; ++i) {
    records.push_back(
        MakeRecord(static_cast<int64_t>(rng.NextBounded(100)), i));
  }
  auto in = PartitionedDataset::RoundRobin(std::move(records), parts);

  Executor serial(ExecOptions{parts, nullptr, nullptr});
  ExecOptions popt;
  popt.num_partitions = parts;
  popt.num_threads = threads;
  Executor parallel(popt);

  ExecStats s1, s2;
  PartitionedDataset base = serial.Shuffle(in, {0}, &s1);
  PartitionedDataset threaded = parallel.Shuffle(in, {0}, &s2);
  ExpectIdenticalDatasets(base, threaded);
  EXPECT_EQ(s1.messages_shuffled, s2.messages_shuffled);
}

TEST_P(ExecutorDeterminismTest, MixedSourcesGatherInSourceOrder) {
  // Even source partitions are already hash-partitioned on the key, so all
  // their rows stay; odd ones are not. Every target gathers rows from both
  // kinds of source and must see them exactly as a naive per-row routing
  // in source order places them.
  const int threads = GetParam();
  const int parts = 8;
  const dataflow::KeyColumns key = {0};
  Rng rng(31);
  std::vector<Record> hashed_rows, mixed_rows;
  for (int64_t i = 0; i < 3000; ++i) {
    Record r = MakeRecord(static_cast<int64_t>(rng.NextBounded(200)), i);
    (i % 2 == 0 ? hashed_rows : mixed_rows).push_back(std::move(r));
  }
  const PartitionedDataset hashed =
      PartitionedDataset::HashPartitioned(std::move(hashed_rows), key, parts);
  const PartitionedDataset mixed =
      PartitionedDataset::RoundRobin(std::move(mixed_rows), parts);
  PartitionedDataset in(parts);
  for (int p = 0; p < parts; ++p) {
    in.partition(p) = (p % 2 == 0 ? hashed : mixed).partition(p);
  }

  PartitionedDataset expected(parts);
  uint64_t expected_messages = 0;
  for (int p = 0; p < parts; ++p) {
    for (const Record& r : in.partition(p)) {
      const int t = PartitionedDataset::PartitionOf(r, key, parts);
      expected.partition(t).push_back(r);
      if (t != p) ++expected_messages;
    }
  }
  for (int p = 0; p < parts; p += 2) {
    ASSERT_GT(in.partition(p).size(), 0u);
    ASSERT_TRUE(std::all_of(
        in.partition(p).begin(), in.partition(p).end(), [&](const Record& r) {
          return PartitionedDataset::PartitionOf(r, key, parts) == p;
        }));
  }
  ASSERT_GT(expected_messages, 0u);

  ExecOptions options;
  options.num_partitions = parts;
  options.num_threads = threads;
  Executor executor(options);
  ExecStats stats;
  ExpectIdenticalDatasets(expected, executor.Shuffle(in, key, &stats));
  EXPECT_EQ(stats.messages_shuffled, expected_messages);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ExecutorDeterminismTest,
                         ::testing::Values(1, 2, 8));

// -------------------------------- end-to-end algorithm determinism --

struct AlgoRun {
  std::vector<int64_t> cc_labels;
  std::vector<double> pr_ranks;
  int cc_supersteps = 0;
  int pr_iterations = 0;
  uint64_t cc_messages = 0;
  uint64_t pr_messages = 0;
  int64_t cc_sim_ns = 0;
  int64_t pr_sim_ns = 0;
  uint64_t cc_spills = 0;
  uint64_t pr_spills = 0;
  uint64_t cc_unspills = 0;
  uint64_t pr_unspills = 0;
  uint64_t cc_peak_resident = 0;
  uint64_t pr_peak_resident = 0;
};

AlgoRun RunBothAlgos(int num_threads, bool with_failures,
                     bool cache_loop_invariant = true,
                     uint64_t memory_budget_bytes = 0) {
  AlgoRun out;
  Rng rng(2025);
  graph::Graph directed = graph::Rmat(9, 6, &rng);  // 512 vertices

  // ---- PageRank (bulk iteration + FixRanks compensation) ----
  {
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        with_failures
            ? std::vector<runtime::FailureEvent>{{3, {1}}, {7, {0, 2}}}
            : std::vector<runtime::FailureEvent>{});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "det-pr";

    algos::PageRankOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    options.max_iterations = 12;
    options.cache_loop_invariant = cache_loop_invariant;
    options.memory_budget_bytes = memory_budget_bytes;
    algos::FixRanksCompensation fix(directed.num_vertices());
    core::OptimisticRecoveryPolicy policy(&fix);
    auto result = algos::RunPageRank(directed, options, env, &policy, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.pr_ranks = result->ranks;
    out.pr_iterations = result->iterations;
    out.pr_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.pr_messages += it.messages_shuffled;
      out.pr_spills += it.spills;
      out.pr_unspills += it.unspills;
      out.pr_peak_resident =
          std::max(out.pr_peak_resident, it.peak_resident_bytes);
    }
    // Spill blobs live only while an entry is out; at job end everything
    // resident was dropped with the cache and every blob deleted with it.
    EXPECT_EQ(storage.ListWithPrefix("spill/").size(), 0u);
  }

  // ---- Connected Components (delta iteration + FixComponents) ----
  {
    graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
    for (const graph::Edge& e : directed.edges()) {
      Status s = undirected.AddEdge(e.src, e.dst);
      EXPECT_TRUE(s.ok());
    }
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        with_failures ? std::vector<runtime::FailureEvent>{{2, {3}}}
                      : std::vector<runtime::FailureEvent>{});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "det-cc";

    algos::ConnectedComponentsOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    options.cache_loop_invariant = cache_loop_invariant;
    options.memory_budget_bytes = memory_budget_bytes;
    algos::FixComponentsCompensation fix(&undirected);
    core::OptimisticRecoveryPolicy policy(&fix);
    auto result =
        algos::RunConnectedComponents(undirected, options, env, &policy,
                                      nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.cc_labels = result->labels;
    out.cc_supersteps = result->supersteps_executed;
    out.cc_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.cc_messages += it.messages_shuffled;
      out.cc_spills += it.spills;
      out.cc_unspills += it.unspills;
      out.cc_peak_resident =
          std::max(out.cc_peak_resident, it.peak_resident_bytes);
    }
    EXPECT_EQ(storage.ListWithPrefix("spill/").size(), 0u);
  }
  return out;
}

class AlgoDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgoDeterminismTest, FailureFreeRunsMatchSerial) {
  AlgoRun serial = RunBothAlgos(1, /*with_failures=*/false);
  AlgoRun parallel = RunBothAlgos(GetParam(), /*with_failures=*/false);
  EXPECT_EQ(serial.cc_labels, parallel.cc_labels);
  EXPECT_EQ(serial.pr_ranks, parallel.pr_ranks);
  EXPECT_EQ(serial.cc_supersteps, parallel.cc_supersteps);
  EXPECT_EQ(serial.pr_iterations, parallel.pr_iterations);
  EXPECT_EQ(serial.cc_messages, parallel.cc_messages);
  EXPECT_EQ(serial.pr_messages, parallel.pr_messages);
  EXPECT_EQ(serial.cc_sim_ns, parallel.cc_sim_ns);
  EXPECT_EQ(serial.pr_sim_ns, parallel.pr_sim_ns);
}

TEST_P(AlgoDeterminismTest, FailureAndCompensationRunsMatchSerial) {
  AlgoRun serial = RunBothAlgos(1, /*with_failures=*/true);
  AlgoRun parallel = RunBothAlgos(GetParam(), /*with_failures=*/true);
  EXPECT_EQ(serial.cc_labels, parallel.cc_labels);
  EXPECT_EQ(serial.pr_ranks, parallel.pr_ranks);
  EXPECT_EQ(serial.cc_supersteps, parallel.cc_supersteps);
  EXPECT_EQ(serial.pr_iterations, parallel.pr_iterations);
  EXPECT_EQ(serial.cc_messages, parallel.cc_messages);
  EXPECT_EQ(serial.pr_messages, parallel.pr_messages);
  EXPECT_EQ(serial.cc_sim_ns, parallel.cc_sim_ns);
  EXPECT_EQ(serial.pr_sim_ns, parallel.pr_sim_ns);
}

TEST_P(AlgoDeterminismTest, CachingIsByteInvisibleInResults) {
  // The loop-invariant cache only removes work: failure-free runs with the
  // cache on and off converge to byte-identical labels and ranks in the
  // same number of supersteps, at every thread count — while shuffling
  // strictly fewer messages and charging strictly less simulated time.
  AlgoRun cached = RunBothAlgos(GetParam(), /*with_failures=*/false,
                                /*cache_loop_invariant=*/true);
  AlgoRun plain = RunBothAlgos(GetParam(), /*with_failures=*/false,
                               /*cache_loop_invariant=*/false);
  EXPECT_EQ(cached.cc_labels, plain.cc_labels);
  EXPECT_EQ(cached.pr_ranks, plain.pr_ranks);
  EXPECT_EQ(cached.cc_supersteps, plain.cc_supersteps);
  EXPECT_EQ(cached.pr_iterations, plain.pr_iterations);
  // The drivers co-partition static inputs before the loop, so the skipped
  // shuffles move no records — caching cannot change the message counts,
  // only remove the per-superstep scatter/gather and index-build work.
  EXPECT_EQ(cached.cc_messages, plain.cc_messages);
  EXPECT_EQ(cached.pr_messages, plain.pr_messages);
  EXPECT_LT(cached.cc_sim_ns, plain.cc_sim_ns);
  EXPECT_LT(cached.pr_sim_ns, plain.pr_sim_ns);
}

TEST_P(AlgoDeterminismTest, CachingIsByteInvisibleUnderFailures) {
  // Same contract through the recovery path: failures invalidate the cache,
  // the rebuild is re-charged, and compensation still lands on the exact
  // results of the uncached run.
  AlgoRun cached = RunBothAlgos(GetParam(), /*with_failures=*/true,
                                /*cache_loop_invariant=*/true);
  AlgoRun plain = RunBothAlgos(GetParam(), /*with_failures=*/true,
                               /*cache_loop_invariant=*/false);
  EXPECT_EQ(cached.cc_labels, plain.cc_labels);
  EXPECT_EQ(cached.pr_ranks, plain.pr_ranks);
  EXPECT_EQ(cached.cc_supersteps, plain.cc_supersteps);
  EXPECT_EQ(cached.pr_iterations, plain.pr_iterations);
  EXPECT_EQ(cached.cc_messages, plain.cc_messages);
  EXPECT_EQ(cached.pr_messages, plain.pr_messages);
  EXPECT_LT(cached.cc_sim_ns, plain.cc_sim_ns);
  EXPECT_LT(cached.pr_sim_ns, plain.pr_sim_ns);
}

TEST_P(AlgoDeterminismTest, TinyBudgetSpillsStayByteInvisible) {
  // DESIGN.md §11: a memory budget far below peak residency forces spills
  // and reloads every superstep — through an injected failure that also
  // invalidates spilled entries — yet labels, ranks, and superstep counts
  // must be byte-identical to the unlimited run at every thread count.
  constexpr uint64_t kTinyBudget = 1;
  AlgoRun unlimited = RunBothAlgos(GetParam(), /*with_failures=*/true,
                                   /*cache_loop_invariant=*/true,
                                   /*memory_budget_bytes=*/0);
  AlgoRun tiny = RunBothAlgos(GetParam(), /*with_failures=*/true,
                              /*cache_loop_invariant=*/true, kTinyBudget);

  // Results are a pure function of the data, never of the budget.
  EXPECT_EQ(unlimited.cc_labels, tiny.cc_labels);
  EXPECT_EQ(unlimited.pr_ranks, tiny.pr_ranks);
  EXPECT_EQ(unlimited.cc_supersteps, tiny.cc_supersteps);
  EXPECT_EQ(unlimited.pr_iterations, tiny.pr_iterations);
  EXPECT_EQ(unlimited.cc_messages, tiny.cc_messages);
  EXPECT_EQ(unlimited.pr_messages, tiny.pr_messages);

  // The budget bites: the unlimited run never touches storage, the tiny
  // one thrashes (and pays for it in simulated I/O).
  EXPECT_EQ(unlimited.cc_spills, 0u);
  EXPECT_EQ(unlimited.pr_spills, 0u);
  EXPECT_GT(tiny.cc_spills, 0u);
  EXPECT_GT(tiny.pr_spills, 0u);
  EXPECT_GT(tiny.cc_unspills, 0u);
  EXPECT_GT(tiny.pr_unspills, 0u);
  EXPECT_GT(tiny.cc_sim_ns, unlimited.cc_sim_ns);
  EXPECT_GT(tiny.pr_sim_ns, unlimited.pr_sim_ns);
  // Peak residency is measured identically in both runs: the high-water
  // mark comes from filling the artifacts, before any eviction pass.
  EXPECT_EQ(unlimited.cc_peak_resident, tiny.cc_peak_resident);
  EXPECT_EQ(unlimited.pr_peak_resident, tiny.pr_peak_resident);
}

TEST_P(AlgoDeterminismTest, BudgetedRunsMatchSerialExactly) {
  // Per configuration (budget fixed), every observable — results, stats,
  // spill counts, and the SimClock — is identical at any thread count:
  // eviction order is logical-LRU, never wall time.
  constexpr uint64_t kTinyBudget = 1;
  AlgoRun serial = RunBothAlgos(1, /*with_failures=*/true,
                                /*cache_loop_invariant=*/true, kTinyBudget);
  AlgoRun parallel = RunBothAlgos(GetParam(), /*with_failures=*/true,
                                  /*cache_loop_invariant=*/true, kTinyBudget);
  EXPECT_EQ(serial.cc_labels, parallel.cc_labels);
  EXPECT_EQ(serial.pr_ranks, parallel.pr_ranks);
  EXPECT_EQ(serial.cc_supersteps, parallel.cc_supersteps);
  EXPECT_EQ(serial.pr_iterations, parallel.pr_iterations);
  EXPECT_EQ(serial.cc_messages, parallel.cc_messages);
  EXPECT_EQ(serial.pr_messages, parallel.pr_messages);
  EXPECT_EQ(serial.cc_spills, parallel.cc_spills);
  EXPECT_EQ(serial.pr_spills, parallel.pr_spills);
  EXPECT_EQ(serial.cc_unspills, parallel.cc_unspills);
  EXPECT_EQ(serial.pr_unspills, parallel.pr_unspills);
  EXPECT_EQ(serial.cc_peak_resident, parallel.cc_peak_resident);
  EXPECT_EQ(serial.pr_peak_resident, parallel.pr_peak_resident);
  EXPECT_EQ(serial.cc_sim_ns, parallel.cc_sim_ns);
  EXPECT_EQ(serial.pr_sim_ns, parallel.pr_sim_ns);
}

TEST_P(AlgoDeterminismTest, RecoveredResultIsCorrect) {
  // Under failures + compensation the job must still converge to the true
  // components, at any thread count.
  Rng rng(2025);
  graph::Graph directed = graph::Rmat(9, 6, &rng);
  graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
  for (const graph::Edge& e : directed.edges()) {
    Status s = undirected.AddEdge(e.src, e.dst);
    ASSERT_TRUE(s.ok());
  }
  auto truth = graph::ReferenceConnectedComponents(undirected);

  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {3}}});
  iteration::JobEnv env;
  env.failures = &failures;
  env.job_id = "det-cc-correct";
  algos::ConnectedComponentsOptions options;
  options.num_partitions = 4;
  options.num_threads = GetParam();
  algos::FixComponentsCompensation fix(&undirected);
  core::OptimisticRecoveryPolicy policy(&fix);
  auto result =
      algos::RunConnectedComponents(undirected, options, env, &policy,
                                    nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->labels, truth);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, AlgoDeterminismTest,
                         ::testing::Values(1, 2, 8));


// ------------------------------- confined-log recovery determinism --

/// Same two algorithms recovered by ConfinedLogReplayPolicy (DESIGN.md
/// §14) instead of compensation. `message_log` may only be off for
/// failure-free runs — the policy refuses to recover without the log.
AlgoRun RunBothAlgosConfinedLog(int num_threads, bool with_failures,
                                bool message_log = true,
                                uint64_t memory_budget_bytes = 0) {
  AlgoRun out;
  Rng rng(2025);
  graph::Graph directed = graph::Rmat(9, 6, &rng);  // 512 vertices

  // ---- PageRank (bulk: replay alone restores the exact state) ----
  {
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        with_failures
            ? std::vector<runtime::FailureEvent>{{3, {1}}, {7, {0, 2}}}
            : std::vector<runtime::FailureEvent>{});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "clog-pr";

    algos::PageRankOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    options.max_iterations = 12;
    options.message_log = message_log;
    options.memory_budget_bytes = memory_budget_bytes;
    core::ConfinedLogReplayPolicy policy(2);
    auto result = algos::RunPageRank(directed, options, env, &policy, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return out;
    out.pr_ranks = result->ranks;
    out.pr_iterations = result->iterations;
    out.pr_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.pr_messages += it.messages_shuffled;
      out.pr_spills += it.spills;
      out.pr_unspills += it.unspills;
    }
    // Bulk confined-log writes no checkpoints; the only storage traffic is
    // budget-driven spill, and every blob dies with its owner.
    EXPECT_EQ(storage.ListWithPrefix("clog-pr/").size(), 0u);
    EXPECT_EQ(storage.ListWithPrefix("spill/").size(), 0u);
  }

  // ---- Connected Components (delta: snapshot + replay + refresher) ----
  {
    graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
    for (const graph::Edge& e : directed.edges()) {
      Status s = undirected.AddEdge(e.src, e.dst);
      EXPECT_TRUE(s.ok());
    }
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        with_failures ? std::vector<runtime::FailureEvent>{{2, {3}}}
                      : std::vector<runtime::FailureEvent>{});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "clog-cc";

    algos::ConnectedComponentsOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    options.message_log = message_log;
    options.memory_budget_bytes = memory_budget_bytes;
    core::ConfinedLogReplayPolicy policy(
        2, algos::MakeNeighborhoodRefresher(&undirected));
    auto result =
        algos::RunConnectedComponents(undirected, options, env, &policy,
                                      nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return out;
    out.cc_labels = result->labels;
    out.cc_supersteps = result->supersteps_executed;
    out.cc_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.cc_messages += it.messages_shuffled;
      out.cc_spills += it.spills;
      out.cc_unspills += it.unspills;
    }
    EXPECT_EQ(storage.ListWithPrefix("spill/").size(), 0u);
  }
  return out;
}

class ConfinedLogDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ConfinedLogDeterminismTest, FailureFreeLoggedRunEqualsUnlogged) {
  // The acceptance contract of the message log: with no failure fired, a
  // logged run is bit-equal to an unlogged one — results, superstep
  // counts, message counts, AND simulated charges (logging is free in
  // simulated time; only wall clock pays for the copies).
  AlgoRun logged = RunBothAlgosConfinedLog(GetParam(), /*with_failures=*/false,
                                           /*message_log=*/true);
  AlgoRun unlogged = RunBothAlgosConfinedLog(GetParam(),
                                             /*with_failures=*/false,
                                             /*message_log=*/false);
  EXPECT_EQ(logged.cc_labels, unlogged.cc_labels);
  EXPECT_EQ(logged.pr_ranks, unlogged.pr_ranks);
  EXPECT_EQ(logged.cc_supersteps, unlogged.cc_supersteps);
  EXPECT_EQ(logged.pr_iterations, unlogged.pr_iterations);
  EXPECT_EQ(logged.cc_messages, unlogged.cc_messages);
  EXPECT_EQ(logged.pr_messages, unlogged.pr_messages);
  EXPECT_EQ(logged.cc_sim_ns, unlogged.cc_sim_ns);
  EXPECT_EQ(logged.pr_sim_ns, unlogged.pr_sim_ns);
}

TEST_P(ConfinedLogDeterminismTest, FailureFreeRunsMatchSerial) {
  AlgoRun serial = RunBothAlgosConfinedLog(1, /*with_failures=*/false);
  AlgoRun parallel = RunBothAlgosConfinedLog(GetParam(),
                                             /*with_failures=*/false);
  EXPECT_EQ(serial.cc_labels, parallel.cc_labels);
  EXPECT_EQ(serial.pr_ranks, parallel.pr_ranks);
  EXPECT_EQ(serial.cc_supersteps, parallel.cc_supersteps);
  EXPECT_EQ(serial.pr_iterations, parallel.pr_iterations);
  EXPECT_EQ(serial.cc_messages, parallel.cc_messages);
  EXPECT_EQ(serial.pr_messages, parallel.pr_messages);
  EXPECT_EQ(serial.cc_sim_ns, parallel.cc_sim_ns);
  EXPECT_EQ(serial.pr_sim_ns, parallel.pr_sim_ns);
}

TEST_P(ConfinedLogDeterminismTest, RecoveryRunsMatchSerial) {
  // Replay is serial by construction, but the surrounding supersteps are
  // not: the whole failed run — including the recovery charges — must be a
  // pure function of the data at any thread count.
  AlgoRun serial = RunBothAlgosConfinedLog(1, /*with_failures=*/true);
  AlgoRun parallel = RunBothAlgosConfinedLog(GetParam(),
                                             /*with_failures=*/true);
  EXPECT_EQ(serial.cc_labels, parallel.cc_labels);
  EXPECT_EQ(serial.pr_ranks, parallel.pr_ranks);
  EXPECT_EQ(serial.cc_supersteps, parallel.cc_supersteps);
  EXPECT_EQ(serial.pr_iterations, parallel.pr_iterations);
  EXPECT_EQ(serial.cc_messages, parallel.cc_messages);
  EXPECT_EQ(serial.pr_messages, parallel.pr_messages);
  EXPECT_EQ(serial.cc_sim_ns, parallel.cc_sim_ns);
  EXPECT_EQ(serial.pr_sim_ns, parallel.pr_sim_ns);
}

TEST_P(ConfinedLogDeterminismTest, BulkRecoveryIsExact) {
  // For a bulk iteration, replaying the failed superstep's logged messages
  // rebuilds the exact pre-failure state: the failed run converges on the
  // same iteration with the same ranks and the same shuffle traffic as a
  // failure-free run — nothing is recomputed, only replayed.
  AlgoRun failed = RunBothAlgosConfinedLog(GetParam(), /*with_failures=*/true);
  AlgoRun clean = RunBothAlgosConfinedLog(GetParam(), /*with_failures=*/false);
  EXPECT_EQ(failed.pr_ranks, clean.pr_ranks);
  EXPECT_EQ(failed.pr_iterations, clean.pr_iterations);
  EXPECT_EQ(failed.pr_messages, clean.pr_messages);
  // Delta CC still converges to the same labels; supersteps may differ
  // because the refresher re-propagates the restored region.
  EXPECT_EQ(failed.cc_labels, clean.cc_labels);
}

TEST_P(ConfinedLogDeterminismTest, TinyBudgetReplayStaysByteIdentical) {
  // A 1-byte budget forces every log channel (and cache entry) out to
  // storage, so recovery replays from *spilled* channels — results must
  // not move.
  AlgoRun unlimited = RunBothAlgosConfinedLog(GetParam(),
                                              /*with_failures=*/true,
                                              /*message_log=*/true,
                                              /*memory_budget_bytes=*/0);
  AlgoRun tiny = RunBothAlgosConfinedLog(GetParam(), /*with_failures=*/true,
                                         /*message_log=*/true,
                                         /*memory_budget_bytes=*/1);
  EXPECT_EQ(unlimited.cc_labels, tiny.cc_labels);
  EXPECT_EQ(unlimited.pr_ranks, tiny.pr_ranks);
  EXPECT_EQ(unlimited.cc_supersteps, tiny.cc_supersteps);
  EXPECT_EQ(unlimited.pr_iterations, tiny.pr_iterations);
  EXPECT_EQ(unlimited.cc_messages, tiny.cc_messages);
  EXPECT_EQ(unlimited.pr_messages, tiny.pr_messages);
  EXPECT_EQ(unlimited.pr_spills, 0u);
  EXPECT_GT(tiny.pr_spills, 0u);
  EXPECT_GT(tiny.pr_unspills, 0u);
  EXPECT_GT(tiny.cc_spills, 0u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ConfinedLogDeterminismTest,
                         ::testing::Values(1, 2, 8));

// ------------------------- delta-iteration solution-set determinism --

/// Everything the partition-parallel ApplyDelta path could plausibly
/// perturb: exact solution-set bytes per partition, per-partition version
/// clocks, incremental EntriesSince views, and simulated-time charges.
struct DeltaRunFingerprint {
  std::vector<std::vector<Record>> solution_parts;
  std::vector<uint64_t> versions;
  std::vector<std::vector<Record>> entries_since_mid;
  int supersteps = 0;
  int failures_recovered = 0;
  int64_t sim_total_ns = 0;
  std::vector<int64_t> sim_by_charge;
  uint64_t checkpoint_bytes = 0;
};

/// Runs Connected Components through the delta driver directly (so the
/// final SolutionSet is observable), with two failures injected. With
/// `incremental_checkpoints`, recovery replays a DeltaCheckpointPolicy
/// chain; otherwise optimistic recovery compensates the loss.
DeltaRunFingerprint RunDeltaCc(int num_threads, bool incremental_checkpoints) {
  const int parts = 4;
  Rng rng(2025);
  graph::Graph directed = graph::Rmat(9, 6, &rng);
  graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
  for (const graph::Edge& e : directed.edges()) {
    Status s = undirected.AddEdge(e.src, e.dst);
    EXPECT_TRUE(s.ok());
  }

  Plan plan = algos::BuildConnectedComponentsPlan();
  PartitionedDataset edges = algos::EdgePairs(undirected, parts);
  std::vector<Record> labels = algos::InitialLabels(undirected);
  PartitionedDataset workset =
      PartitionedDataset::HashPartitioned(labels, {0}, parts);
  Bindings statics;
  statics["edges"] = &edges;

  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::MetricsRegistry metrics;
  runtime::StableStorage storage(&clock, &costs);
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {3}}, {4, {0, 1}}});
  iteration::JobEnv env;
  env.clock = &clock;
  env.costs = &costs;
  env.metrics = &metrics;
  env.failures = &failures;
  env.storage = &storage;
  env.job_id = "det-delta-cc";

  iteration::DeltaIterationConfig config;
  config.max_iterations = 40;
  config.solution_key = {0};

  ExecOptions exec;
  exec.num_partitions = parts;
  exec.num_threads = num_threads;
  exec.clock = &clock;
  exec.costs = &costs;

  algos::FixComponentsCompensation fix(&undirected);
  core::OptimisticRecoveryPolicy optimistic(&fix);
  core::DeltaCheckpointPolicy checkpoints(/*interval=*/2);
  iteration::FaultTolerancePolicy* policy =
      incremental_checkpoints
          ? static_cast<iteration::FaultTolerancePolicy*>(&checkpoints)
          : &optimistic;

  iteration::DeltaIterationDriver driver(&plan, statics, config, exec, env);
  auto result = driver.Run(labels, workset, policy);
  EXPECT_TRUE(result.ok()) << result.status().ToString();

  DeltaRunFingerprint fp;
  if (!result.ok()) return fp;
  const iteration::SolutionSet& solution = result->final_solution;
  fp.versions = solution.VersionVector();
  for (int p = 0; p < solution.num_partitions(); ++p) {
    fp.solution_parts.push_back(solution.PartitionRecords(p));
    fp.entries_since_mid.push_back(
        solution.EntriesSince(p, solution.version(p) / 2));
  }
  fp.supersteps = result->supersteps_executed;
  fp.failures_recovered = result->failures_recovered;
  fp.sim_total_ns = clock.TotalNs();
  for (int c = 0; c < runtime::kNumCharges; ++c) {
    fp.sim_by_charge.push_back(clock.Of(static_cast<runtime::Charge>(c)));
  }
  fp.checkpoint_bytes = storage.bytes_written();
  return fp;
}

class DeltaDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaDeterminismTest, OptimisticRecoveryRunMatchesSerial) {
  DeltaRunFingerprint serial = RunDeltaCc(1, /*incremental_checkpoints=*/false);
  DeltaRunFingerprint parallel =
      RunDeltaCc(GetParam(), /*incremental_checkpoints=*/false);
  EXPECT_GT(serial.failures_recovered, 0);
  EXPECT_EQ(serial.solution_parts, parallel.solution_parts);
  EXPECT_EQ(serial.versions, parallel.versions);
  EXPECT_EQ(serial.entries_since_mid, parallel.entries_since_mid);
  EXPECT_EQ(serial.supersteps, parallel.supersteps);
  EXPECT_EQ(serial.failures_recovered, parallel.failures_recovered);
  EXPECT_EQ(serial.sim_total_ns, parallel.sim_total_ns);
  EXPECT_EQ(serial.sim_by_charge, parallel.sim_by_charge);
}

TEST_P(DeltaDeterminismTest, IncrementalCheckpointRunMatchesSerial) {
  DeltaRunFingerprint serial = RunDeltaCc(1, /*incremental_checkpoints=*/true);
  DeltaRunFingerprint parallel =
      RunDeltaCc(GetParam(), /*incremental_checkpoints=*/true);
  EXPECT_GT(serial.failures_recovered, 0);
  EXPECT_GT(serial.checkpoint_bytes, 0u);
  EXPECT_EQ(serial.solution_parts, parallel.solution_parts);
  EXPECT_EQ(serial.versions, parallel.versions);
  EXPECT_EQ(serial.entries_since_mid, parallel.entries_since_mid);
  EXPECT_EQ(serial.supersteps, parallel.supersteps);
  EXPECT_EQ(serial.failures_recovered, parallel.failures_recovered);
  EXPECT_EQ(serial.sim_total_ns, parallel.sim_total_ns);
  EXPECT_EQ(serial.sim_by_charge, parallel.sim_by_charge);
  // Incremental checkpoint I/O is data-dependent only.
  EXPECT_EQ(serial.checkpoint_bytes, parallel.checkpoint_bytes);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, DeltaDeterminismTest,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace flinkless
