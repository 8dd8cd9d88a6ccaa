// Connected Components on the dataflow engine: plan structure (Figure 1a),
// correctness against union-find ground truth across graphs and degrees of
// parallelism, the FixComponents compensation in isolation, and the full
// failure/recovery behaviours the demo shows (§3.2).

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "algos/connected_components.h"
#include "algos/datasets.h"
#include "algos/refreshers.h"
#include "common/rng.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "runtime/stable_storage.h"

namespace flinkless::algos {
namespace {

using dataflow::MakeRecord;
using dataflow::Record;

ConnectedComponentsOptions Options(int parts) {
  ConnectedComponentsOptions options;
  options.num_partitions = parts;
  return options;
}

TEST(CcPlanTest, MirrorsFigure1aOperators) {
  dataflow::Plan plan = BuildConnectedComponentsPlan();
  EXPECT_TRUE(plan.Validate().ok());
  std::string text = plan.Explain();
  EXPECT_NE(text.find("Join 'label-to-neighbors'"), std::string::npos);
  EXPECT_NE(text.find("ReduceByKey 'candidate-label'"), std::string::npos);
  EXPECT_NE(text.find("Join 'label-update'"), std::string::npos);
  EXPECT_NE(text.find("output 'delta'"), std::string::npos);
  EXPECT_NE(text.find("output 'next_workset'"), std::string::npos);
  auto sources = plan.SourceNames();
  EXPECT_EQ(sources,
            (std::vector<std::string>{"workset", "edges", "solution"}));
}

TEST(CcTest, FailureFreeMatchesGroundTruthOnDemoGraph) {
  graph::Graph g = graph::DemoGraph();
  core::NoFaultTolerancePolicy policy;
  auto result = RunConnectedComponents(g, Options(4), {}, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->labels, graph::ReferenceConnectedComponents(g));
  EXPECT_EQ(result->failures_recovered, 0);
}

TEST(CcTest, HugeIterationCapDoesNotOverflowTheSuperstepLimit) {
  // max_iterations * max_total_supersteps_factor exceeds INT_MAX here; the
  // recovery-loop safety valve must not wrap negative and abort the job
  // before its first superstep.
  graph::Graph g = graph::DemoGraph();
  core::NoFaultTolerancePolicy policy;
  ConnectedComponentsOptions options = Options(4);
  options.max_iterations = 200'000'000;
  auto result = RunConnectedComponents(g, options, {}, &policy);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->labels, graph::ReferenceConnectedComponents(g));
}

TEST(CcTest, IsolatedVerticesKeepOwnLabels) {
  graph::Graph g(5, false);
  ASSERT_TRUE(g.AddEdge(1, 3).ok());
  core::NoFaultTolerancePolicy policy;
  auto result = RunConnectedComponents(g, Options(2), {}, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, (std::vector<int64_t>{0, 1, 2, 1, 4}));
}

TEST(CcTest, SingleVertexGraph) {
  graph::Graph g(1, false);
  core::NoFaultTolerancePolicy policy;
  auto result = RunConnectedComponents(g, Options(2), {}, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, std::vector<int64_t>{0});
}

TEST(CcTest, ChainTakesLinearIterations) {
  // Worst case for diffusion: the min label crawls one hop per iteration.
  graph::Graph g = graph::ChainGraph(12);
  core::NoFaultTolerancePolicy policy;
  auto result = RunConnectedComponents(g, Options(3), {}, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, std::vector<int64_t>(12, 0));
  EXPECT_GE(result->iterations, 11);
}

// Correctness must hold for every parallelism and graph shape.
class CcParallelismTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CcParallelismTest, MatchesUnionFindOnRandomGraph) {
  auto [parts, seed] = GetParam();
  Rng rng(seed);
  graph::Graph g = graph::ErdosRenyi(60, 0.03, &rng);
  core::NoFaultTolerancePolicy policy;
  auto result = RunConnectedComponents(g, Options(parts), {}, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, graph::ReferenceConnectedComponents(g));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CcParallelismTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(7, 21, 42)));

// ------------------------------------------------- compensation function --

TEST(FixComponentsTest, RebuildsLostPartitionWithInitialLabels) {
  graph::Graph g = graph::DemoGraph();
  const int parts = 4;
  // Build a converged solution (all labels correct).
  auto truth = graph::ReferenceConnectedComponents(g);
  std::vector<Record> converged;
  for (int64_t v = 0; v < g.num_vertices(); ++v) {
    converged.push_back(MakeRecord(v, truth[v]));
  }
  iteration::DeltaState state(
      iteration::SolutionSet::FromRecords(converged, {0}, parts),
      dataflow::PartitionedDataset(parts));

  FixComponentsCompensation compensation(&g);
  iteration::IterationContext ctx;
  ctx.num_partitions = parts;
  ASSERT_TRUE(compensation.Compensate(ctx, &state, {1}).ok());

  // Lost partition entries are back at (v, v); survivors untouched.
  for (int64_t v = 0; v < g.num_vertices(); ++v) {
    const Record* entry = state.solution().Lookup(MakeRecord(v));
    ASSERT_NE(entry, nullptr) << "vertex " << v;
    if (PartitionOfVertex(v, parts) == 1) {
      EXPECT_EQ((*entry)[1].AsInt64(), v);
    } else {
      EXPECT_EQ((*entry)[1].AsInt64(), truth[v]);
    }
  }
  // The recovery workset contains every restored vertex and its neighbors.
  std::set<int64_t> queued;
  for (int p = 0; p < parts; ++p) {
    for (const Record& r : state.workset().partition(p)) {
      queued.insert(r[0].AsInt64());
    }
  }
  for (int64_t v = 0; v < g.num_vertices(); ++v) {
    if (PartitionOfVertex(v, parts) == 1) {
      EXPECT_TRUE(queued.count(v)) << "restored vertex " << v;
      for (int64_t u : g.Neighbors(v)) {
        EXPECT_TRUE(queued.count(u)) << "neighbor " << u;
      }
    }
  }
}

TEST(FixComponentsTest, WorksetDeduplicatesAgainstSurvivors) {
  graph::Graph g = graph::ChainGraph(8);
  const int parts = 2;
  std::vector<Record> labels = InitialLabels(g);
  iteration::DeltaState state(
      iteration::SolutionSet::FromRecords(labels, {0}, parts),
      dataflow::PartitionedDataset::HashPartitioned(labels, {0}, parts));
  uint64_t workset_before = state.workset().NumRecords();

  FixComponentsCompensation compensation(&g);
  iteration::IterationContext ctx;
  ctx.num_partitions = parts;
  state.ClearPartition(0);
  ASSERT_TRUE(compensation.Compensate(ctx, &state, {0}).ok());

  // No vertex may appear twice in the workset.
  std::set<int64_t> seen;
  for (int p = 0; p < parts; ++p) {
    for (const Record& r : state.workset().partition(p)) {
      EXPECT_TRUE(seen.insert(r[0].AsInt64()).second)
          << "duplicate workset entry for " << r[0].AsInt64();
    }
  }
  EXPECT_LE(state.workset().NumRecords(), workset_before);
}

// --------------------------------------------------- recovery end-to-end --

class CcRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(CcRecoveryTest, OptimisticRecoveryConvergesToTruth) {
  const int failing_partition = GetParam();
  Rng rng(failing_partition + 100);
  graph::Graph g = graph::PreferentialAttachment(80, 2, &rng);
  auto truth = graph::ReferenceConnectedComponents(g);

  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {failing_partition}}});
  iteration::JobEnv env;
  env.failures = &failures;
  env.job_id = "cc-recovery";

  FixComponentsCompensation compensation(&g);
  core::OptimisticRecoveryPolicy policy(&compensation);
  auto result = RunConnectedComponents(g, Options(4), env, &policy, &truth);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->failures_recovered, 1);
  EXPECT_EQ(result->labels, truth);
}

INSTANTIATE_TEST_SUITE_P(Partitions, CcRecoveryTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(CcRecoveryTest2, MultipleFailuresStillConverge) {
  Rng rng(11);
  graph::Graph g = graph::ErdosRenyi(70, 0.05, &rng);
  auto truth = graph::ReferenceConnectedComponents(g);

  runtime::FailureSchedule failures(std::vector<runtime::FailureEvent>{
      {1, {0}}, {2, {1, 2}}, {4, {0, 3}}});
  iteration::JobEnv env;
  env.failures = &failures;

  FixComponentsCompensation compensation(&g);
  core::OptimisticRecoveryPolicy policy(&compensation);
  auto result = RunConnectedComponents(g, Options(4), env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failures_recovered, 3);
  EXPECT_EQ(result->labels, truth);
}

TEST(CcRecoveryTest2, RollbackAlsoConvergesToTruth) {
  graph::Graph g = graph::DemoGraph();
  auto truth = graph::ReferenceConnectedComponents(g);
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {0}}});
  runtime::StableStorage storage(nullptr, nullptr);
  iteration::JobEnv env;
  env.failures = &failures;
  env.storage = &storage;

  core::CheckpointRollbackPolicy policy(1);
  auto result = RunConnectedComponents(g, Options(4), env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, truth);
  EXPECT_GT(storage.bytes_written(), 0u);
}

TEST(CcRecoveryTest2, DeltaCheckpointPolicyConvergesToTruth) {
  Rng rng(53);
  graph::Graph g = graph::PreferentialAttachment(100, 2, &rng);
  auto truth = graph::ReferenceConnectedComponents(g);
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{3, {0, 1}}});
  runtime::StableStorage storage(nullptr, nullptr);
  iteration::JobEnv env;
  env.failures = &failures;
  env.storage = &storage;

  core::DeltaCheckpointPolicy policy(1);
  auto result = RunConnectedComponents(g, Options(4), env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, truth);
  EXPECT_GT(storage.bytes_written(), 0u);
}

TEST(CcRecoveryTest2, ConfinedRollbackConvergesToTruth) {
  Rng rng(59);
  graph::Graph g = graph::PreferentialAttachment(120, 2, &rng);
  auto truth = graph::ReferenceConnectedComponents(g);
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {1}}, {4, {0, 3}}});
  runtime::StableStorage storage(nullptr, nullptr);
  iteration::JobEnv env;
  env.failures = &failures;
  env.storage = &storage;

  core::ConfinedRollbackPolicy policy(
      2, MakeNeighborhoodRefresher(&g));
  auto result = RunConnectedComponents(g, Options(4), env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, truth);
  EXPECT_EQ(result->failures_recovered, 2);
}

TEST(CcRecoveryTest2, RestartAlsoConvergesToTruth) {
  graph::Graph g = graph::DemoGraph();
  auto truth = graph::ReferenceConnectedComponents(g);
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {1}}});
  iteration::JobEnv env;
  env.failures = &failures;

  core::RestartPolicy policy;
  auto result = RunConnectedComponents(g, Options(4), env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, truth);
}

TEST(CcRecoveryTest2, NoFtAborts) {
  graph::Graph g = graph::DemoGraph();
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{1, {0}}});
  iteration::JobEnv env;
  env.failures = &failures;
  core::NoFaultTolerancePolicy policy;
  auto result = RunConnectedComponents(g, Options(4), env, &policy);
  EXPECT_TRUE(result.status().IsDataLoss());
}

TEST(CcRecoveryTest2, FailureCausesConvergedVerticesPlummet) {
  // The §3.2 plot: converged-vertex count drops at the failure iteration
  // and messages increase afterwards.
  Rng rng(13);
  graph::Graph g = graph::PreferentialAttachment(120, 2, &rng);
  auto truth = graph::ReferenceConnectedComponents(g);

  // Failure-free baseline series.
  runtime::MetricsRegistry baseline_metrics;
  iteration::JobEnv baseline_env;
  baseline_env.metrics = &baseline_metrics;
  core::NoFaultTolerancePolicy noft;
  ASSERT_TRUE(
      RunConnectedComponents(g, Options(4), baseline_env, &noft, &truth)
          .ok());

  const int fail_iter = 3;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{fail_iter, {0}}});
  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.failures = &failures;
  env.metrics = &metrics;
  FixComponentsCompensation compensation(&g);
  core::OptimisticRecoveryPolicy policy(&compensation);
  auto result = RunConnectedComponents(g, Options(4), env, &policy, &truth);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->labels, truth);

  auto converged = metrics.GaugeSeries("converged_vertices");
  auto baseline = baseline_metrics.GaugeSeries("converged_vertices");
  ASSERT_GT(converged.size(), static_cast<size_t>(fail_iter));
  // Plummet: the failure iteration has strictly fewer converged vertices
  // than the same iteration of the failure-free run.
  EXPECT_LT(converged[fail_iter - 1], baseline[fail_iter - 1]);
  // Extra effort: recovery costs extra messages overall.
  EXPECT_GT(metrics.TotalMessages(), baseline_metrics.TotalMessages());
  // And the job runs longer than the failure-free one.
  EXPECT_GE(converged.size(), baseline.size());
}

// -------------------------------------------------------- snapshot hooks --

TEST(CcSnapshotTest, FramesAreCompleteAndMarkFailures) {
  graph::Graph g = graph::DemoGraph();
  auto truth = graph::ReferenceConnectedComponents(g);
  const int fail_iter = 2;
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{fail_iter, {0}}});
  iteration::JobEnv env;
  env.failures = &failures;
  FixComponentsCompensation compensation(&g);
  core::OptimisticRecoveryPolicy policy(&compensation);

  struct Frame {
    int iteration;
    std::vector<int64_t> labels;
    std::vector<int> lost;
    bool failure;
    int64_t converged;
  };
  std::vector<Frame> frames;
  auto result = RunConnectedComponentsWithSnapshots(
      g, Options(4), env, &policy, &truth,
      [&](int iteration, const std::vector<int64_t>& labels,
          const std::vector<int>& lost, bool failure, int64_t /*messages*/,
          int64_t converged) {
        frames.push_back({iteration, labels, lost, failure, converged});
      });
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(static_cast<int>(frames.size()), result->iterations);

  for (const Frame& frame : frames) {
    // Every vertex present in every frame (compensation keeps the solution
    // set complete).
    ASSERT_EQ(frame.labels.size(), static_cast<size_t>(g.num_vertices()));
    for (int64_t label : frame.labels) EXPECT_GE(label, 0);
    if (frame.iteration == fail_iter) {
      EXPECT_TRUE(frame.failure);
      EXPECT_EQ(frame.lost, std::vector<int>{0});
    } else {
      EXPECT_FALSE(frame.failure);
      EXPECT_TRUE(frame.lost.empty());
    }
    // The converged gauge agrees with a recount from the snapshot itself.
    int64_t recount = 0;
    for (int64_t v = 0; v < g.num_vertices(); ++v) {
      if (frame.labels[v] == truth[v]) ++recount;
    }
    EXPECT_EQ(frame.converged, recount) << "iteration " << frame.iteration;
  }
  // The last frame is the final answer.
  EXPECT_EQ(frames.back().labels, result->labels);
}

// ---------------------------------------------------------- bulk variant --

TEST(CcBulkTest, AgreesWithDeltaVariant) {
  Rng rng(17);
  graph::Graph g = graph::ErdosRenyi(50, 0.05, &rng);
  core::NoFaultTolerancePolicy policy;
  auto bulk = RunConnectedComponentsBulk(g, Options(4), {}, &policy);
  auto delta = RunConnectedComponents(g, Options(4), {}, &policy);
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(bulk->labels, delta->labels);
  EXPECT_TRUE(bulk->converged);
}

TEST(CcBulkTest, DeltaProcessesFewerRecords) {
  // The reason Flink has delta iterations (§2.1): converged parts stop
  // being recomputed.
  Rng rng(19);
  graph::Graph g = graph::PreferentialAttachment(150, 2, &rng);

  runtime::MetricsRegistry bulk_metrics, delta_metrics;
  iteration::JobEnv bulk_env, delta_env;
  bulk_env.metrics = &bulk_metrics;
  delta_env.metrics = &delta_metrics;
  core::NoFaultTolerancePolicy policy;
  ASSERT_TRUE(RunConnectedComponentsBulk(g, Options(4), bulk_env, &policy)
                  .ok());
  ASSERT_TRUE(
      RunConnectedComponents(g, Options(4), delta_env, &policy).ok());
  EXPECT_LT(delta_metrics.TotalRecords(), bulk_metrics.TotalRecords());
}

TEST(CcBulkTest, OptimisticRecoveryOnBulkVariant) {
  graph::Graph g = graph::DemoGraph();
  auto truth = graph::ReferenceConnectedComponents(g);
  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{2, {0}}});
  iteration::JobEnv env;
  env.failures = &failures;
  FixComponentsCompensation compensation(&g);
  core::OptimisticRecoveryPolicy policy(&compensation);
  auto result = RunConnectedComponentsBulk(g, Options(4), env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels, truth);
}

}  // namespace
}  // namespace flinkless::algos
