// PageRank on the dataflow engine: plan structure (Figure 1b), agreement
// with the reference power iteration, mass conservation, and the FixRanks
// compensation including the §3.3 plot behaviours (plummet + L1 spike) and
// the ablation variants.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "algos/datasets.h"
#include "algos/pagerank.h"
#include "common/rng.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "runtime/stable_storage.h"

namespace flinkless::algos {
namespace {

using dataflow::MakeRecord;
using dataflow::Record;

PageRankOptions Options(int parts, int max_iterations = 100) {
  PageRankOptions options;
  options.num_partitions = parts;
  options.max_iterations = max_iterations;
  return options;
}

double MaxAbsError(const std::vector<double>& a,
                   const std::vector<double>& b) {
  double err = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, std::abs(a[i] - b[i]));
  }
  return err;
}

TEST(PrPlanTest, MirrorsFigure1bOperators) {
  dataflow::Plan plan = BuildPageRankPlan(10, 0.85);
  EXPECT_TRUE(plan.Validate().ok());
  std::string text = plan.Explain();
  EXPECT_NE(text.find("Join 'find-neighbors'"), std::string::npos);
  EXPECT_NE(text.find("ReduceByKey 'recompute-ranks'"), std::string::npos);
  EXPECT_NE(text.find("Cross 'apply-teleport'"), std::string::npos);
  EXPECT_NE(text.find("output 'next_state'"), std::string::npos);
}

TEST(PrTest, RejectsUndirectedOrEmptyGraph) {
  core::NoFaultTolerancePolicy policy;
  graph::Graph undirected(4, false);
  EXPECT_EQ(RunPageRank(undirected, Options(2), {}, &policy).status().code(),
            StatusCode::kInvalidArgument);
  graph::Graph empty(0, true);
  EXPECT_EQ(RunPageRank(empty, Options(2), {}, &policy).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PrTest, UniformRanksOnCycle) {
  graph::Graph g(5, true);
  for (int64_t v = 0; v < 5; ++v) ASSERT_TRUE(g.AddEdge(v, (v + 1) % 5).ok());
  core::NoFaultTolerancePolicy policy;
  auto result = RunPageRank(g, Options(2), {}, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  for (double r : result->ranks) EXPECT_NEAR(r, 0.2, 1e-8);
}

TEST(PrTest, MatchesReferenceOnDemoGraph) {
  graph::Graph g = graph::DemoDirectedGraph();
  auto truth = graph::ReferencePageRank(g, 0.85, 300, 1e-13);
  core::NoFaultTolerancePolicy policy;
  auto result = RunPageRank(g, Options(4), {}, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_LT(MaxAbsError(result->ranks, truth), 1e-7);
}

TEST(PrTest, HandlesDanglingVerticesAndSumsToOne) {
  graph::Graph g(4, true);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 2).ok());
  // 2 and 3 are dangling.
  core::NoFaultTolerancePolicy policy;
  auto result = RunPageRank(g, Options(2), {}, &policy);
  ASSERT_TRUE(result.ok());
  double sum = std::accumulate(result->ranks.begin(), result->ranks.end(),
                               0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  auto truth = graph::ReferencePageRank(g, 0.85, 300, 1e-13);
  EXPECT_LT(MaxAbsError(result->ranks, truth), 1e-7);
}

class PrParallelismTest : public ::testing::TestWithParam<int> {};

TEST_P(PrParallelismTest, ParallelismDoesNotChangeRanks) {
  Rng rng(3);
  graph::Graph g = graph::Rmat(6, 4, &rng);
  auto truth = graph::ReferencePageRank(g, 0.85, 300, 1e-13);
  core::NoFaultTolerancePolicy policy;
  auto result = RunPageRank(g, Options(GetParam()), {}, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(MaxAbsError(result->ranks, truth), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Parallelism, PrParallelismTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(PrTest, L1SeriesDecreasesFailureFree) {
  graph::Graph g = graph::DemoDirectedGraph();
  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.metrics = &metrics;
  core::NoFaultTolerancePolicy policy;
  ASSERT_TRUE(RunPageRank(g, Options(4), env, &policy).ok());
  auto l1 = metrics.GaugeSeries("convergence_metric");
  ASSERT_GT(l1.size(), 3u);
  for (size_t i = 1; i < l1.size(); ++i) {
    EXPECT_LT(l1[i], l1[i - 1]) << "iteration " << i + 1;
  }
}

TEST(PrTest, FinalL1DoesNotDependOnTheRegistry) {
  // final_l1 comes from the run itself: a default JobEnv (no registry)
  // reports the same value as a run that records the gauge series.
  graph::Graph g = graph::DemoDirectedGraph();
  core::NoFaultTolerancePolicy policy;
  auto bare = RunPageRank(g, Options(4), iteration::JobEnv{}, &policy);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();

  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.metrics = &metrics;
  auto recorded = RunPageRank(g, Options(4), env, &policy);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();

  ASSERT_GT(bare->supersteps_executed, 1);
  EXPECT_GT(bare->final_l1, 0.0);
  EXPECT_EQ(bare->final_l1, recorded->final_l1);
  EXPECT_EQ(recorded->final_l1,
            metrics.iterations().back().Gauge("convergence_metric"));
}

// ------------------------------------------------- compensation function --

TEST(FixRanksTest, RedistributesExactlyTheLostMass) {
  const int64_t n = 32;
  const int parts = 4;
  std::vector<Record> records;
  for (int64_t v = 0; v < n; ++v) {
    records.push_back(MakeRecord(v, 1.0 / static_cast<double>(n)));
  }
  iteration::BulkState state(
      dataflow::PartitionedDataset::HashPartitioned(records, {0}, parts));

  // Count mass in partition 2, then lose it.
  double lost_mass = 0;
  size_t lost_count = state.data().partition(2).size();
  for (const Record& r : state.data().partition(2)) {
    lost_mass += r[1].AsDouble();
  }
  ASSERT_GT(lost_count, 0u);
  state.ClearPartition(2);

  FixRanksCompensation compensation(n);
  iteration::IterationContext ctx;
  ctx.num_partitions = parts;
  ASSERT_TRUE(compensation.Compensate(ctx, &state, {2}).ok());

  // Mass restored: total is 1 again, and the lost vertices share the lost
  // mass uniformly.
  double total = 0;
  for (const Record& r : state.data().Collect()) total += r[1].AsDouble();
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(state.data().partition(2).size(), lost_count);
  for (const Record& r : state.data().partition(2)) {
    EXPECT_NEAR(r[1].AsDouble(), lost_mass / lost_count, 1e-12);
  }
}

TEST(FixRanksTest, UniformReinitDoesNotConserveMass) {
  const int64_t n = 32;
  const int parts = 4;
  std::vector<Record> records;
  // Skewed ranks: vertex 0 holds most of the mass.
  for (int64_t v = 0; v < n; ++v) {
    records.push_back(MakeRecord(v, v == 0 ? 0.7 : 0.3 / (n - 1)));
  }
  iteration::BulkState state(
      dataflow::PartitionedDataset::HashPartitioned(records, {0}, parts));
  int lost = PartitionOfVertex(0, parts);  // lose the heavy vertex
  state.ClearPartition(lost);

  FixRanksCompensation compensation(n, RankCompensationVariant::kUniformReinit);
  iteration::IterationContext ctx;
  ctx.num_partitions = parts;
  ASSERT_TRUE(compensation.Compensate(ctx, &state, {lost}).ok());
  double total = 0;
  for (const Record& r : state.data().Collect()) total += r[1].AsDouble();
  EXPECT_GT(std::abs(total - 1.0), 0.01);  // invariant broken, by design
}

TEST(FixRanksTest, FullReinitResetsEverything) {
  const int64_t n = 16;
  const int parts = 2;
  std::vector<Record> records;
  for (int64_t v = 0; v < n; ++v) {
    records.push_back(MakeRecord(v, v == 0 ? 0.9 : 0.1 / (n - 1)));
  }
  iteration::BulkState state(
      dataflow::PartitionedDataset::HashPartitioned(records, {0}, parts));
  state.ClearPartition(0);

  FixRanksCompensation compensation(n, RankCompensationVariant::kFullReinit);
  iteration::IterationContext ctx;
  ctx.num_partitions = parts;
  ASSERT_TRUE(compensation.Compensate(ctx, &state, {0}).ok());
  EXPECT_EQ(state.data().NumRecords(), static_cast<uint64_t>(n));
  for (const Record& r : state.data().Collect()) {
    EXPECT_NEAR(r[1].AsDouble(), 1.0 / n, 1e-12);
  }
}

TEST(FixRanksTest, RejectsDeltaState) {
  iteration::DeltaState state(iteration::SolutionSet(2, {0}),
                              dataflow::PartitionedDataset(2));
  FixRanksCompensation compensation(8);
  iteration::IterationContext ctx;
  EXPECT_FALSE(compensation.Compensate(ctx, &state, {0}).ok());
}

// --------------------------------------------------- recovery end-to-end --

class PrRecoveryTest : public ::testing::TestWithParam<RankCompensationVariant> {
};

TEST_P(PrRecoveryTest, ConvergesToTrueRanksAfterFailure) {
  // The core claim of §2.2.2: with any mass-consistent compensation, the
  // algorithm converges to the correct result as if no failure occurred.
  graph::Graph g = graph::DemoDirectedGraph();
  auto truth = graph::ReferencePageRank(g, 0.85, 400, 1e-14);

  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{5, {1}}});
  iteration::JobEnv env;
  env.failures = &failures;

  FixRanksCompensation compensation(g.num_vertices(), GetParam());
  core::OptimisticRecoveryPolicy policy(&compensation);
  auto result = RunPageRank(g, Options(4, 200), env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->failures_recovered, 1);
  EXPECT_LT(MaxAbsError(result->ranks, truth), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, PrRecoveryTest,
    ::testing::Values(RankCompensationVariant::kRedistributeLostMass,
                      RankCompensationVariant::kUniformReinit,
                      RankCompensationVariant::kFullReinit));

TEST(PrRecoveryTest2, MassStaysOneThroughFailure) {
  Rng rng(5);
  graph::Graph g = graph::Rmat(6, 4, &rng);
  auto truth = graph::ReferencePageRank(g, 0.85, 300, 1e-13);
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{4, {0, 2}}});
  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.failures = &failures;
  env.metrics = &metrics;

  FixRanksCompensation compensation(g.num_vertices());
  core::OptimisticRecoveryPolicy policy(&compensation);
  auto result = RunPageRank(g, Options(4, 200), env, &policy, &truth);
  ASSERT_TRUE(result.ok());
  // The paper's consistency condition: the stats hook records total mass
  // after every iteration (including the compensated one) — always 1.
  for (const auto& it : metrics.iterations()) {
    EXPECT_NEAR(it.Gauge("total_mass"), 1.0, 1e-9)
        << "iteration " << it.iteration;
  }
}

TEST(PrRecoveryTest2, L1SpikesAtFailureThenRecovers) {
  // The §3.3 bottom-right plot: downward trend, spike at the iteration
  // after the failure, then downward again.
  graph::Graph g = graph::DemoDirectedGraph();
  const int fail_iter = 5;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{fail_iter, {1}}});
  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.failures = &failures;
  env.metrics = &metrics;

  FixRanksCompensation compensation(g.num_vertices());
  core::OptimisticRecoveryPolicy policy(&compensation);
  ASSERT_TRUE(RunPageRank(g, Options(4, 100), env, &policy).ok());
  auto l1 = metrics.GaugeSeries("convergence_metric");
  ASSERT_GT(l1.size(), static_cast<size_t>(fail_iter + 2));
  // Spike: the iteration right after the failure sees a larger difference
  // than the one before it.
  EXPECT_GT(l1[fail_iter], l1[fail_iter - 1]);
  // And it decays again afterwards.
  EXPECT_LT(l1[fail_iter + 1], l1[fail_iter]);
}

TEST(PrRecoveryTest2, ConvergedVerticesPlummetAfterFailure) {
  Rng rng(7);
  graph::Graph g = graph::Rmat(7, 4, &rng);
  auto truth = graph::ReferencePageRank(g, 0.85, 500, 1e-14);
  const int fail_iter = 8;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{fail_iter, {0}}});
  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.failures = &failures;
  env.metrics = &metrics;

  PageRankOptions options = Options(4, 200);
  options.converged_tolerance = 1e-4;
  FixRanksCompensation compensation(g.num_vertices());
  core::OptimisticRecoveryPolicy policy(&compensation);
  ASSERT_TRUE(RunPageRank(g, options, env, &policy, &truth).ok());
  auto converged = metrics.GaugeSeries("converged_vertices");
  ASSERT_GT(converged.size(), static_cast<size_t>(fail_iter));
  // The compensated iteration has fewer converged vertices than before it.
  EXPECT_LT(converged[fail_iter - 1], converged[fail_iter - 2]);
  // But the end of the run beats everything before the failure.
  EXPECT_GE(converged.back(), converged[fail_iter - 2]);
}

TEST(PrRecoveryTest2, RollbackMatchesTruthToo) {
  graph::Graph g = graph::DemoDirectedGraph();
  auto truth = graph::ReferencePageRank(g, 0.85, 400, 1e-14);
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{5, {1}}});
  runtime::StableStorage storage(nullptr, nullptr);
  iteration::JobEnv env;
  env.failures = &failures;
  env.storage = &storage;
  core::CheckpointRollbackPolicy policy(2);
  auto result = RunPageRank(g, Options(4, 200), env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(MaxAbsError(result->ranks, truth), 1e-6);
  EXPECT_GT(storage.bytes_read(), 0u);
}

TEST(PrSnapshotTest, FramesTrackRanksAndFailures) {
  graph::Graph g = graph::DemoDirectedGraph();
  auto truth = graph::ReferencePageRank(g, 0.85, 400, 1e-14);
  const int fail_iter = 4;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{fail_iter, {1}}});
  iteration::JobEnv env;
  env.failures = &failures;
  FixRanksCompensation compensation(g.num_vertices());
  core::OptimisticRecoveryPolicy policy(&compensation);

  int frames = 0;
  bool saw_failure_frame = false;
  auto result = RunPageRankWithSnapshots(
      g, Options(4, 60), env, &policy, &truth,
      [&](int iteration, const std::vector<double>& ranks,
          const std::vector<int>& lost, bool failure, double l1_diff,
          int64_t converged) {
        ++frames;
        EXPECT_EQ(ranks.size(), static_cast<size_t>(g.num_vertices()));
        double mass = 0;
        for (double r : ranks) mass += r;
        EXPECT_NEAR(mass, 1.0, 1e-9) << "iteration " << iteration;
        EXPECT_GE(l1_diff, 0.0);
        EXPECT_GE(converged, 0);
        if (iteration == fail_iter) {
          saw_failure_frame = true;
          EXPECT_TRUE(failure);
          EXPECT_EQ(lost, std::vector<int>{1});
        } else {
          EXPECT_FALSE(failure);
        }
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(saw_failure_frame);
  EXPECT_EQ(frames, result->iterations);
}

TEST(PrRecoveryTest2, ConfinedRollbackConvergesForBulkIterations) {
  // Bulk iterations need no workset refresher; the mixed state (stale lost
  // partitions + fresh survivors) self-corrects because the damped power
  // iteration converges from any starting vector.
  graph::Graph g = graph::DemoDirectedGraph();
  auto truth = graph::ReferencePageRank(g, 0.85, 400, 1e-14);
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{6, {1}}});
  runtime::StableStorage storage(nullptr, nullptr);
  iteration::JobEnv env;
  env.failures = &failures;
  env.storage = &storage;
  core::ConfinedRollbackPolicy policy(2);
  auto result = RunPageRank(g, Options(4, 200), env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_LT(MaxAbsError(result->ranks, truth), 1e-6);
}

TEST(PrRecoveryTest2, OptimisticNeedsFewerSuperstepsThanRestart) {
  // With a failure deep into the run, compensating beats recomputing from
  // scratch.
  Rng rng(9);
  graph::Graph g = graph::Rmat(7, 4, &rng);
  runtime::FailureSchedule f1(
      std::vector<runtime::FailureEvent>{{10, {1}}});
  iteration::JobEnv env1;
  env1.failures = &f1;
  FixRanksCompensation compensation(g.num_vertices());
  core::OptimisticRecoveryPolicy optimistic(&compensation);
  auto opt = RunPageRank(g, Options(4, 300), env1, &optimistic);
  ASSERT_TRUE(opt.ok());

  runtime::FailureSchedule f2(
      std::vector<runtime::FailureEvent>{{10, {1}}});
  iteration::JobEnv env2;
  env2.failures = &f2;
  core::RestartPolicy restart;
  auto rst = RunPageRank(g, Options(4, 300), env2, &restart);
  ASSERT_TRUE(rst.ok());

  EXPECT_LT(opt->supersteps_executed, rst->supersteps_executed);
  EXPECT_LT(MaxAbsError(opt->ranks, rst->ranks), 1e-6);  // same fixpoint
}

}  // namespace
}  // namespace flinkless::algos
