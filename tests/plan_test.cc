// Unit tests for Plan construction, validation and explanation.

#include <gtest/gtest.h>

#include <set>

#include "dataflow/plan.h"

namespace flinkless::dataflow {
namespace {

Record Identity(const Record& r) { return r; }

TEST(PlanTest, BuildLinearPipeline) {
  Plan plan;
  auto src = plan.Source("in");
  auto mapped = plan.Map(src, Identity, "m");
  auto filtered = plan.Filter(
      mapped, [](const Record&) { return true; }, "f");
  plan.Output(filtered, "out");

  EXPECT_EQ(plan.num_nodes(), 3u);
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.node(src).kind, OpKind::kSource);
  EXPECT_EQ(plan.node(mapped).inputs, std::vector<NodeId>{src});
  EXPECT_EQ(plan.SourceNames(), std::vector<std::string>{"in"});
}

TEST(PlanTest, ValidateRequiresOutput) {
  Plan plan;
  plan.Source("in");
  Status s = plan.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(PlanTest, ValidateRejectsDuplicateOutputNames) {
  Plan plan;
  auto src = plan.Source("in");
  plan.Output(src, "x");
  plan.Output(src, "x");
  EXPECT_EQ(plan.Validate().code(), StatusCode::kAlreadyExists);
}

TEST(PlanTest, SameNodeUnderTwoOutputNamesIsFine) {
  Plan plan;
  auto src = plan.Source("in");
  plan.Output(src, "a");
  plan.Output(src, "b");
  EXPECT_TRUE(plan.Validate().ok());
  EXPECT_EQ(plan.outputs().size(), 2u);
}

TEST(PlanTest, ValidateRejectsMissingUdf) {
  Plan plan;
  auto src = plan.Source("in");
  auto mapped = plan.Map(src, MapFn(), "broken");
  plan.Output(mapped, "out");
  Status s = plan.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("broken"), std::string::npos);
}

TEST(PlanTest, ValidateRejectsReduceWithoutKey) {
  Plan plan;
  auto src = plan.Source("in");
  auto reduced = plan.ReduceByKey(
      src, {}, [](const Record& a, const Record&) { return a; }, "r");
  plan.Output(reduced, "out");
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTest, ValidateRejectsJoinKeyArityMismatch) {
  Plan plan;
  auto a = plan.Source("a");
  auto b = plan.Source("b");
  auto j = plan.Join(
      a, b, {0, 1}, {0},
      [](const Record& l, const Record&) { return l; }, "j");
  plan.Output(j, "out");
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTest, ValidateRejectsCrossWithoutUdf) {
  Plan plan;
  auto a = plan.Source("a");
  auto b = plan.Source("b");
  auto c = plan.Cross(a, b, JoinFn(), "c");
  plan.Output(c, "out");
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTest, ExplainListsOperatorsAndOutputs) {
  Plan plan;
  auto w = plan.Source("workset");
  auto e = plan.Source("edges");
  auto j = plan.Join(
      w, e, {0}, {0},
      [](const Record& l, const Record&) { return l; }, "label-to-neighbors");
  auto r = plan.ReduceByKey(
      j, {0}, [](const Record& a, const Record&) { return a; },
      "candidate-label");
  plan.Output(r, "delta");

  std::string text = plan.Explain();
  EXPECT_NE(text.find("Join 'label-to-neighbors'"), std::string::npos);
  EXPECT_NE(text.find("ReduceByKey 'candidate-label'"), std::string::npos);
  EXPECT_NE(text.find("output 'delta'"), std::string::npos);
  EXPECT_NE(text.find("Source 'workset'"), std::string::npos);
}

TEST(PlanTest, OpKindNamesAreDistinct) {
  std::set<std::string> names;
  for (OpKind k :
       {OpKind::kSource, OpKind::kMap, OpKind::kFlatMap, OpKind::kFilter,
        OpKind::kProject, OpKind::kReduceByKey, OpKind::kGroupReduceByKey,
        OpKind::kJoin, OpKind::kCoGroup, OpKind::kCross, OpKind::kUnion}) {
    names.insert(OpKindName(k));
  }
  EXPECT_EQ(names.size(), 11u);
}

TEST(PlanTest, SourceNamesInOrder) {
  Plan plan;
  plan.Source("b");
  plan.Source("a");
  auto last = plan.Source("c");
  plan.Output(last, "out");
  EXPECT_EQ(plan.SourceNames(), (std::vector<std::string>{"b", "a", "c"}));
}

}  // namespace
}  // namespace flinkless::dataflow
