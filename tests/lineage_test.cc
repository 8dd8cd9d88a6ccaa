// Tests for the lineage analysis (core/lineage): dependency classification
// and the recomputation-footprint computation behind experiment C4.

#include <gtest/gtest.h>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "core/lineage.h"
#include "core/policies.h"

namespace flinkless::core {
namespace {

using dataflow::MakeRecord;
using dataflow::NodeId;
using dataflow::Plan;
using dataflow::Record;

Record Identity(const Record& r) { return r; }

TEST(LineageTest, MapChainIsAllNarrow) {
  Plan plan;
  auto node = plan.Source("in");
  for (int i = 0; i < 5; ++i) {
    node = plan.Map(node, Identity,
                    std::string("m").append(std::to_string(i)));
  }
  plan.Output(node, "out");

  LineageAnalysis lineage(&plan);
  EXPECT_TRUE(lineage.AllNarrowUpstream(node));
  // Rebuilding one lost partition re-executes exactly the 5 map tasks of
  // that partition, regardless of the parallelism.
  EXPECT_EQ(lineage.TasksToRebuild(node, 0, 4), 5);
  EXPECT_EQ(lineage.TasksToRebuild(node, 3, 16), 5);
}

TEST(LineageTest, ReduceIsWide) {
  Plan plan;
  auto src = plan.Source("in");
  auto reduced = plan.ReduceByKey(
      src, {0}, [](const Record& a, const Record&) { return a; }, "r");
  plan.Output(reduced, "out");

  LineageAnalysis lineage(&plan);
  EXPECT_EQ(lineage.KindOf(reduced, 0), DependencyKind::kWide);
  EXPECT_FALSE(lineage.AllNarrowUpstream(reduced));
  // The reduce task itself; its inputs are durable sources.
  EXPECT_EQ(lineage.TasksToRebuild(reduced, 0, 8), 1);
}

TEST(LineageTest, WideAfterNarrowPullsInAllUpstreamPartitions) {
  Plan plan;
  auto src = plan.Source("in");
  auto mapped = plan.Map(src, Identity, "m");
  auto reduced = plan.ReduceByKey(
      mapped, {0}, [](const Record& a, const Record&) { return a; }, "r");
  auto post = plan.Map(reduced, Identity, "post");
  plan.Output(post, "out");

  LineageAnalysis lineage(&plan);
  const int parts = 8;
  // post(p) <- reduce(p) <- map(all 8 partitions): 1 + 1 + 8 tasks.
  EXPECT_EQ(lineage.TasksToRebuild(post, 0, parts), 1 + 1 + parts);
}

TEST(LineageTest, CrossIsNarrowLeftWideRight) {
  Plan plan;
  auto left = plan.Source("l");
  auto right = plan.Source("r");
  auto crossed = plan.Cross(
      left, right, [](const Record& a, const Record&) { return a; }, "x");
  plan.Output(crossed, "out");
  LineageAnalysis lineage(&plan);
  EXPECT_EQ(lineage.KindOf(crossed, 0), DependencyKind::kNarrow);
  EXPECT_EQ(lineage.KindOf(crossed, 1), DependencyKind::kWide);
}

TEST(LineageTest, UnionIsNarrowOnBothInputs) {
  Plan plan;
  auto a = plan.Source("a");
  auto b = plan.Source("b");
  auto u = plan.Union(a, b, "u");
  plan.Output(u, "out");
  LineageAnalysis lineage(&plan);
  EXPECT_EQ(lineage.KindOf(u, 0), DependencyKind::kNarrow);
  EXPECT_EQ(lineage.KindOf(u, 1), DependencyKind::kNarrow);
  EXPECT_TRUE(lineage.AllNarrowUpstream(u));
}

TEST(LineageTest, DiamondCountsSharedWorkOnce) {
  Plan plan;
  auto src = plan.Source("in");
  auto mapped = plan.Map(src, Identity, "shared");
  auto left = plan.Filter(
      mapped, [](const Record&) { return true; }, "l");
  auto right = plan.Filter(
      mapped, [](const Record&) { return false; }, "r");
  auto joined = plan.Join(
      left, right, {0}, {0},
      [](const Record& a, const Record&) { return a; }, "j");
  plan.Output(joined, "out");

  LineageAnalysis lineage(&plan);
  const int parts = 4;
  // join(p) <- l(all) + r(all) <- shared(all): shared tasks counted once.
  // Tasks: 1 (join) + 4 (l) + 4 (r) + 4 (shared) = 13.
  EXPECT_EQ(lineage.TasksToRebuild(joined, 0, parts), 13);
}

TEST(LineageTest, CcStepPlanHasWideFeedbackPath) {
  // The §2.2 observation, verified on the actual Figure 1(a) plan: the
  // candidate-label reduce makes every output partition depend on all
  // workset partitions, so lineage cannot confine recovery to the lost
  // partition.
  Plan plan = algos::BuildConnectedComponentsPlan();
  LineageAnalysis lineage(&plan);
  NodeId delta = plan.outputs().front().second;
  EXPECT_FALSE(lineage.AllNarrowUpstream(delta));
  const int parts = 8;
  // Rebuilding one delta partition touches at least one task per partition
  // upstream of the reduce.
  EXPECT_GT(lineage.TasksToRebuild(delta, 0, parts), parts);
}

TEST(LineageTest, PageRankStepPlanIsWideToo) {
  Plan plan = algos::BuildPageRankPlan(100, 0.85);
  LineageAnalysis lineage(&plan);
  NodeId next = plan.outputs().front().second;
  EXPECT_FALSE(lineage.AllNarrowUpstream(next));
}

TEST(LineageTest, IterativeRebuildScalesWithIterations) {
  // The degenerate case: with wide feedback, recovering at iteration k
  // replays k full supersteps — exactly what RestartPolicy does.
  EXPECT_EQ(LineageAnalysis::IterativeRebuildTasks(40, 1), 40);
  EXPECT_EQ(LineageAnalysis::IterativeRebuildTasks(40, 25), 1000);
}

TEST(LineageTest, ToStringNamesEdges) {
  Plan plan;
  auto src = plan.Source("in");
  auto reduced = plan.ReduceByKey(
      src, {0}, [](const Record& a, const Record&) { return a; }, "agg");
  plan.Output(reduced, "out");
  LineageAnalysis lineage(&plan);
  std::string text = lineage.ToString();
  EXPECT_NE(text.find("agg <- in: wide"), std::string::npos);
}

TEST(LineageTest, KindNames) {
  EXPECT_EQ(DependencyKindName(DependencyKind::kNarrow), "narrow");
  EXPECT_EQ(DependencyKindName(DependencyKind::kWide), "wide");
}

}  // namespace
}  // namespace flinkless::core
