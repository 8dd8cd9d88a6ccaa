// Cross-module property tests — the paper's central claim, stated as an
// invariant and swept over random graphs, random failure schedules, and all
// recovery strategies:
//
//   For the fixpoint algorithms with a correct compensation function, the
//   job converges to exactly the same result under ANY failure pattern and
//   ANY recovery strategy as it does failure-free.
//
// Plus whole-system accounting checks that the benchmark harnesses rely on.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "algos/als.h"
#include "algos/connected_components.h"
#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "algos/refreshers.h"
#include "algos/sssp.h"
#include "common/rng.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "runtime/stable_storage.h"

namespace flinkless {
namespace {

using algos::ConnectedComponentsOptions;
using algos::PageRankOptions;
using algos::SsspOptions;

enum class Strategy {
  kOptimistic,
  kRollback1,
  kRollback3,
  kRestart,
  kConfined2,
  kConfinedLog2,
  kDeltaCkpt2,  // delta iterations only: swept on CC, not on PageRank
};

std::string StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kOptimistic:
      return "optimistic";
    case Strategy::kRollback1:
      return "rollback1";
    case Strategy::kRollback3:
      return "rollback3";
    case Strategy::kRestart:
      return "restart";
    case Strategy::kConfined2:
      return "confined2";
    case Strategy::kConfinedLog2:
      return "confinedlog2";
    case Strategy::kDeltaCkpt2:
      return "deltackpt2";
  }
  return "?";
}

struct StrategyBundle {
  std::unique_ptr<core::CompensationFunction> compensation;
  std::unique_ptr<iteration::FaultTolerancePolicy> policy;
};

StrategyBundle MakeCcStrategy(Strategy s, const graph::Graph* g) {
  StrategyBundle bundle;
  switch (s) {
    case Strategy::kOptimistic:
      bundle.compensation =
          std::make_unique<algos::FixComponentsCompensation>(g);
      bundle.policy = std::make_unique<core::OptimisticRecoveryPolicy>(
          bundle.compensation.get());
      break;
    case Strategy::kRollback1:
      bundle.policy = std::make_unique<core::CheckpointRollbackPolicy>(1);
      break;
    case Strategy::kRollback3:
      bundle.policy = std::make_unique<core::CheckpointRollbackPolicy>(3);
      break;
    case Strategy::kRestart:
      bundle.policy = std::make_unique<core::RestartPolicy>();
      break;
    case Strategy::kConfined2:
      bundle.policy = std::make_unique<core::ConfinedRollbackPolicy>(
          2, algos::MakeNeighborhoodRefresher(g));
      break;
    case Strategy::kConfinedLog2:
      bundle.policy = std::make_unique<core::ConfinedLogReplayPolicy>(
          2, algos::MakeNeighborhoodRefresher(g));
      break;
    case Strategy::kDeltaCkpt2:
      bundle.policy = std::make_unique<core::DeltaCheckpointPolicy>(2);
      break;
  }
  return bundle;
}

// --------------------------------------------------------------- CC sweep --

class CcInvarianceTest
    : public ::testing::TestWithParam<std::tuple<Strategy, int>> {};

TEST_P(CcInvarianceTest, AnyFailureAnyStrategySameResult) {
  auto [strategy, seed] = GetParam();
  Rng graph_rng(seed);
  graph::Graph g = graph_rng.NextBernoulli(0.5)
                       ? graph::ErdosRenyi(60, 0.04, &graph_rng)
                       : graph::PreferentialAttachment(60, 2, &graph_rng);
  auto truth = graph::ReferenceConnectedComponents(g);

  Rng failure_rng(seed * 31 + 7);
  runtime::FailureSchedule failures =
      runtime::RandomFailures(8, 4, 0.15, &failure_rng);

  runtime::StableStorage storage(nullptr, nullptr);
  iteration::JobEnv env;
  env.failures = &failures;
  env.storage = &storage;
  env.job_id = "cc-invariance-" + StrategyName(strategy);

  StrategyBundle bundle = MakeCcStrategy(strategy, &g);
  ConnectedComponentsOptions options;
  options.num_partitions = 4;
  options.message_log = strategy == Strategy::kConfinedLog2;
  auto result =
      algos::RunConnectedComponents(g, options, env, bundle.policy.get());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->labels, truth)
      << StrategyName(strategy) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CcInvarianceTest,
    ::testing::Combine(::testing::Values(Strategy::kOptimistic,
                                         Strategy::kRollback1,
                                         Strategy::kRollback3,
                                         Strategy::kRestart,
                                         Strategy::kConfined2,
                                         Strategy::kConfinedLog2,
                                         Strategy::kDeltaCkpt2),
                       ::testing::Range(1, 7)));

// --------------------------------------------------------------- PR sweep --

class PrInvarianceTest
    : public ::testing::TestWithParam<std::tuple<Strategy, int>> {};

TEST_P(PrInvarianceTest, AnyFailureAnyStrategySameRanks) {
  auto [strategy, seed] = GetParam();
  Rng graph_rng(seed + 1000);
  graph::Graph g = graph::Rmat(6, 4, &graph_rng);
  auto truth = graph::ReferencePageRank(g, 0.85, 400, 1e-14);

  Rng failure_rng(seed * 17 + 3);
  runtime::FailureSchedule failures =
      runtime::RandomFailures(12, 4, 0.1, &failure_rng);

  runtime::StableStorage storage(nullptr, nullptr);
  iteration::JobEnv env;
  env.failures = &failures;
  env.storage = &storage;
  env.job_id = "pr-invariance-" + StrategyName(strategy);

  StrategyBundle bundle;
  switch (strategy) {
    case Strategy::kOptimistic:
      bundle.compensation = std::make_unique<algos::FixRanksCompensation>(
          g.num_vertices());
      bundle.policy = std::make_unique<core::OptimisticRecoveryPolicy>(
          bundle.compensation.get());
      break;
    case Strategy::kRollback1:
      bundle.policy = std::make_unique<core::CheckpointRollbackPolicy>(1);
      break;
    case Strategy::kRollback3:
      bundle.policy = std::make_unique<core::CheckpointRollbackPolicy>(3);
      break;
    case Strategy::kRestart:
      bundle.policy = std::make_unique<core::RestartPolicy>();
      break;
    case Strategy::kConfined2:
      bundle.policy = std::make_unique<core::ConfinedRollbackPolicy>(2);
      break;
    case Strategy::kConfinedLog2:
      bundle.policy = std::make_unique<core::ConfinedLogReplayPolicy>(2);
      break;
    case Strategy::kDeltaCkpt2:
      GTEST_FAIL() << "delta checkpoints apply to delta iterations only";
  }

  PageRankOptions options;
  options.num_partitions = 4;
  options.max_iterations = 300;
  options.message_log = strategy == Strategy::kConfinedLog2;
  auto result = algos::RunPageRank(g, options, env, bundle.policy.get());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->converged);
  double max_err = 0;
  for (size_t v = 0; v < truth.size(); ++v) {
    max_err = std::max(max_err, std::abs(result->ranks[v] - truth[v]));
  }
  EXPECT_LT(max_err, 1e-6) << StrategyName(strategy) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrInvarianceTest,
    ::testing::Combine(::testing::Values(Strategy::kOptimistic,
                                         Strategy::kRollback1,
                                         Strategy::kRestart,
                                         Strategy::kConfined2,
                                         Strategy::kConfinedLog2),
                       ::testing::Range(1, 5)));

// ------------------------------------------------------------- SSSP sweep --

class SsspInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(SsspInvarianceTest, RandomFailuresMatchBfs) {
  int seed = GetParam();
  Rng graph_rng(seed + 500);
  graph::Graph g = graph::ErdosRenyi(70, 0.05, &graph_rng);
  auto truth = graph::ReferenceSssp(g, 0);

  Rng failure_rng(seed * 13 + 1);
  runtime::FailureSchedule failures =
      runtime::RandomFailures(6, 4, 0.2, &failure_rng);
  iteration::JobEnv env;
  env.failures = &failures;

  algos::FixDistancesCompensation compensation(&g, 0);
  core::OptimisticRecoveryPolicy policy(&compensation);
  SsspOptions options;
  options.num_partitions = 4;
  auto result = algos::RunSssp(g, options, env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distances, truth) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SsspInvarianceTest, ::testing::Range(1, 9));

// -------------------------------------------------------------- ML sweep --

class MlInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(MlInvarianceTest, KMeansAndAlsSurviveRandomFailures) {
  int seed = GetParam();
  // K-Means: quality within a factor of the failure-free local optimum.
  {
    Rng rng(seed + 2000);
    auto points = algos::GenerateBlobs(3, 60, 15.0, 1.0, &rng);
    algos::KMeansOptions options;
    options.k = 3;
    options.num_partitions = 4;
    core::NoFaultTolerancePolicy noft;
    auto baseline = algos::RunKMeans(points, options, {}, &noft);
    ASSERT_TRUE(baseline.ok());

    Rng failure_rng(seed * 3 + 11);
    runtime::FailureSchedule failures =
        runtime::RandomFailures(10, 4, 0.15, &failure_rng);
    iteration::JobEnv env;
    env.failures = &failures;
    algos::ReseedCentroidsCompensation compensation(&points, options.k);
    core::OptimisticRecoveryPolicy policy(&compensation);
    auto result = algos::RunKMeans(points, options, env, &policy);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_TRUE(result->converged) << "seed " << seed;
    // K-Means is non-convex: a reseed under heavy failure can land in a
    // worse local optimum, but the result must still be a real clustering —
    // strictly better than the trivial single-cluster solution.
    auto one_cluster = algos::ReferenceKMeans(
        points, algos::InitialCentroids(points, 1), 50, 1e-9);
    EXPECT_LT(result->cost, algos::ClusteringCost(points, one_cluster))
        << "seed " << seed;
  }
  // ALS: the fit after random failures matches the failure-free RMSE.
  {
    Rng rng(seed + 3000);
    auto ratings = algos::GenerateRatings(30, 20, 3, 0.3, 0.02, &rng);
    algos::AlsOptions options;
    options.rank = 3;
    options.num_partitions = 4;
    options.max_iterations = 20;
    core::NoFaultTolerancePolicy noft;
    auto baseline = algos::RunAls(ratings, 30, 20, options, {}, &noft);
    ASSERT_TRUE(baseline.ok());

    Rng failure_rng(seed * 7 + 5);
    runtime::FailureSchedule failures =
        runtime::RandomFailures(15, 4, 0.1, &failure_rng);
    iteration::JobEnv env;
    env.failures = &failures;
    algos::ReseedFactorsCompensation compensation(30, 20, options.rank);
    core::OptimisticRecoveryPolicy policy(&compensation);
    auto result = algos::RunAls(ratings, 30, 20, options, env, &policy);
    ASSERT_TRUE(result.ok()) << "seed " << seed;
    EXPECT_NEAR(result->rmse, baseline->rmse, 0.05) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MlInvarianceTest, ::testing::Range(1, 5));

// ----------------------------------------------------- system accounting --

TEST(AccountingTest, FailureFreeOptimisticEqualsNoFtExactly) {
  // Optimistic recovery promises *optimal* failure-free performance: without
  // failures it must do exactly the work a no-fault-tolerance run does.
  graph::Graph g = graph::DemoGraph();

  auto run = [&](iteration::FaultTolerancePolicy* policy,
                 runtime::SimClock* clock,
                 runtime::MetricsRegistry* metrics) {
    runtime::CostModel costs;
    iteration::JobEnv env;
    env.clock = clock;
    env.costs = &costs;
    env.metrics = metrics;
    ConnectedComponentsOptions options;
    options.num_partitions = 4;
    auto result = algos::RunConnectedComponents(g, options, env, policy);
    ASSERT_TRUE(result.ok());
  };

  algos::FixComponentsCompensation compensation(&g);
  core::OptimisticRecoveryPolicy optimistic(&compensation);
  runtime::SimClock optimistic_clock;
  runtime::MetricsRegistry optimistic_metrics;
  run(&optimistic, &optimistic_clock, &optimistic_metrics);

  core::NoFaultTolerancePolicy noft;
  runtime::SimClock noft_clock;
  runtime::MetricsRegistry noft_metrics;
  run(&noft, &noft_clock, &noft_metrics);

  EXPECT_EQ(optimistic_clock.TotalNs(), noft_clock.TotalNs());
  EXPECT_EQ(optimistic_metrics.TotalMessages(), noft_metrics.TotalMessages());
  EXPECT_EQ(optimistic_metrics.TotalRecords(), noft_metrics.TotalRecords());
  EXPECT_EQ(optimistic_metrics.TotalCheckpointBytes(), 0u);
}

TEST(AccountingTest, RollbackChargesCheckpointBytesPerInterval) {
  graph::Graph g = graph::DemoGraph();
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.clock = &clock;
  env.costs = &costs;
  env.storage = &storage;
  env.metrics = &metrics;

  core::CheckpointRollbackPolicy policy(2);
  ConnectedComponentsOptions options;
  options.num_partitions = 4;
  ASSERT_TRUE(
      algos::RunConnectedComponents(g, options, env, &policy).ok());

  // Checkpoints at iterations 2 and 4 (plus iteration 0 at job start,
  // which is not part of the per-iteration series).
  int checkpointing_iterations = 0;
  for (const auto& it : metrics.iterations()) {
    if (it.bytes_checkpointed > 0) ++checkpointing_iterations;
    if (it.iteration % 2 != 0) {
      EXPECT_EQ(it.bytes_checkpointed, 0u);
    }
  }
  EXPECT_GT(checkpointing_iterations, 0);
  EXPECT_GT(clock.Of(runtime::Charge::kCheckpointIo), 0);
  EXPECT_EQ(metrics.TotalCheckpointBytes() > 0, true);
}

TEST(AccountingTest, SnapshotPoliciesMoveThePinnedBytesAndCharges) {
  // Rollback, confined and confined-log (k=2) on bulk PageRank (the directed
  // demo graph) and delta CC (the undirected one), one failure each. The constants pin every byte, write and nanosecond the
  // snapshot path moves, so a change to how snapshots are keyed, written or
  // restored cannot shift the I/O accounting unnoticed.
  struct Pinned {
    const char* policy;
    bool pagerank;
    int iterations;
    uint64_t bytes_written;
    uint64_t bytes_read;
    uint64_t writes;
    int64_t checkpoint_io_ns;
    int64_t recovery_ns;
  };
  const Pinned kPinned[] = {
      // policy, pagerank, iterations, written, read, writes, io_ns, rec_ns
      {"rollback", true, 34, 3960, 220, 72, 360121000, 20000000},
      {"confined", true, 102, 11440, 95, 208, 1040344150, 20000000},
      {"confined-log", true, 34, 0, 0, 0, 0, 20013850},
      {"rollback", false, 4, 1412, 428, 12, 60046640, 20000000},
      {"confined", false, 5, 1434, 222, 12, 60045240, 20000000},
      {"confined-log", false, 4, 1412, 222, 12, 60044580, 20012750},
  };
  const graph::Graph directed = graph::DemoDirectedGraph();
  const graph::Graph undirected = graph::DemoGraph();
  const auto true_ranks =
      graph::ReferencePageRank(directed, 0.85, 1000, 1e-14);
  const auto true_labels = graph::ReferenceConnectedComponents(undirected);

  for (const Pinned& pinned : kPinned) {
    const std::string policy_name = pinned.policy;
    SCOPED_TRACE((pinned.pagerank ? "pagerank " : "cc ") + policy_name);
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        std::vector<runtime::FailureEvent>{{3, {1}}});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.storage = &storage;
    env.failures = &failures;

    core::WorksetRefresher refresher;
    if (!pinned.pagerank) {
      refresher = algos::MakeNeighborhoodRefresher(&undirected);
    }
    std::unique_ptr<iteration::FaultTolerancePolicy> policy;
    if (policy_name == "rollback") {
      policy = std::make_unique<core::CheckpointRollbackPolicy>(2);
    } else if (policy_name == "confined") {
      policy = std::make_unique<core::ConfinedRollbackPolicy>(2, refresher);
    } else {
      policy = std::make_unique<core::ConfinedLogReplayPolicy>(2, refresher);
    }
    const bool message_log = policy_name == "confined-log";

    int iterations = 0;
    if (pinned.pagerank) {
      PageRankOptions options;
      options.num_partitions = 4;
      options.max_iterations = 300;
      options.message_log = message_log;
      auto result =
          algos::RunPageRank(directed, options, env, policy.get());
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result->converged);
      EXPECT_EQ(result->failures_recovered, 1);
      for (size_t v = 0; v < true_ranks.size(); ++v) {
        EXPECT_NEAR(result->ranks[v], true_ranks[v], 1e-6) << "vertex " << v;
      }
      iterations = result->iterations;
    } else {
      ConnectedComponentsOptions options;
      options.num_partitions = 4;
      options.message_log = message_log;
      auto result =
          algos::RunConnectedComponents(undirected, options, env, policy.get());
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_TRUE(result->converged);
      EXPECT_EQ(result->failures_recovered, 1);
      EXPECT_EQ(result->labels, true_labels);
      iterations = result->iterations;
    }
    EXPECT_EQ(iterations, pinned.iterations);
    EXPECT_EQ(storage.bytes_written(), pinned.bytes_written);
    EXPECT_EQ(storage.bytes_read(), pinned.bytes_read);
    EXPECT_EQ(storage.num_writes(), pinned.writes);
    EXPECT_EQ(clock.Of(runtime::Charge::kCheckpointIo),
              pinned.checkpoint_io_ns);
    EXPECT_EQ(clock.Of(runtime::Charge::kRecovery), pinned.recovery_ns);
  }
}

TEST(AccountingTest, RecoveryChargesNodeAcquisition) {
  graph::Graph g = graph::DemoGraph();
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {0}}});
  runtime::Cluster cluster(4, &clock, &costs);
  iteration::JobEnv env;
  env.clock = &clock;
  env.costs = &costs;
  env.failures = &failures;
  env.cluster = &cluster;

  algos::FixComponentsCompensation compensation(&g);
  core::OptimisticRecoveryPolicy policy(&compensation);
  ConnectedComponentsOptions options;
  options.num_partitions = 4;
  ASSERT_TRUE(algos::RunConnectedComponents(g, options, env, &policy).ok());
  EXPECT_EQ(clock.Of(runtime::Charge::kRecovery), costs.node_acquisition_ns);
  EXPECT_EQ(cluster.epoch(), 1);
  EXPECT_EQ(cluster.total_workers_created(), 5);
}

TEST(AccountingTest, DeterministicAcrossRepeatedRuns) {
  // Same seed, same schedule, same graph -> bit-identical metric series.
  Rng rng1(77), rng2(77);
  graph::Graph g1 = graph::PreferentialAttachment(50, 2, &rng1);
  graph::Graph g2 = graph::PreferentialAttachment(50, 2, &rng2);

  auto run = [](const graph::Graph& g) {
    runtime::FailureSchedule failures(
        std::vector<runtime::FailureEvent>{{2, {1}}});
    runtime::MetricsRegistry metrics;
    iteration::JobEnv env;
    env.failures = &failures;
    env.metrics = &metrics;
    algos::FixComponentsCompensation compensation(&g);
    core::OptimisticRecoveryPolicy policy(&compensation);
    ConnectedComponentsOptions options;
    options.num_partitions = 4;
    auto result = algos::RunConnectedComponents(g, options, env, &policy);
    EXPECT_TRUE(result.ok());
    std::vector<std::pair<uint64_t, uint64_t>> series;
    for (const auto& it : metrics.iterations()) {
      series.emplace_back(it.records_processed, it.messages_shuffled);
    }
    return std::make_pair(result->labels, series);
  };

  auto [labels1, series1] = run(g1);
  auto [labels2, series2] = run(g2);
  EXPECT_EQ(labels1, labels2);
  EXPECT_EQ(series1, series2);
}

}  // namespace
}  // namespace flinkless
