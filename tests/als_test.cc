// ALS matrix factorization on the dataflow engine: agreement with the
// sequential reference, reconstruction quality on synthetic low-rank data,
// and optimistic recovery via factor re-seeding.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "algos/als.h"
#include "common/rng.h"
#include "core/policies.h"
#include "runtime/cost_model.h"
#include "runtime/failure.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"

namespace flinkless::algos {
namespace {

struct TestData {
  std::vector<Rating> ratings;
  int64_t num_users;
  int64_t num_items;
};

TestData SmallDataset(uint64_t seed = 5) {
  Rng rng(seed);
  TestData data;
  data.num_users = 24;
  data.num_items = 16;
  data.ratings = GenerateRatings(data.num_users, data.num_items, /*rank=*/3,
                                 /*density=*/0.4, /*noise=*/0.01, &rng);
  return data;
}

AlsOptions Options(int parts) {
  AlsOptions options;
  options.rank = 3;
  options.num_partitions = parts;
  options.max_iterations = 25;
  return options;
}

double MaxFactorDiff(const std::vector<std::vector<double>>& a,
                     const std::vector<std::vector<double>>& b) {
  double max_diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t f = 0; f < a[i].size(); ++f) {
      max_diff = std::max(max_diff, std::abs(a[i][f] - b[i][f]));
    }
  }
  return max_diff;
}

TEST(AlsGeneratorTest, CoversEveryUserAndItem) {
  TestData data = SmallDataset();
  std::vector<bool> user_seen(data.num_users, false);
  std::vector<bool> item_seen(data.num_items, false);
  for (const Rating& r : data.ratings) {
    user_seen[r.user] = true;
    item_seen[r.item] = true;
  }
  for (bool seen : user_seen) EXPECT_TRUE(seen);
  for (bool seen : item_seen) EXPECT_TRUE(seen);
}

TEST(AlsGeneratorTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  auto r1 = GenerateRatings(10, 8, 2, 0.3, 0.0, &a);
  auto r2 = GenerateRatings(10, 8, 2, 0.3, 0.0, &b);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].user, r2[i].user);
    EXPECT_EQ(r1[i].item, r2[i].item);
    EXPECT_DOUBLE_EQ(r1[i].value, r2[i].value);
  }
}

TEST(AlsReferenceTest, FitsNoiselessLowRankDataWell) {
  Rng rng(11);
  auto ratings = GenerateRatings(20, 15, 3, 0.5, /*noise=*/0.0, &rng);
  AlsOptions options = Options(1);
  options.regularization = 1e-4;
  options.max_iterations = 80;
  AlsResult reference = ReferenceAls(ratings, 20, 15, options);
  // Rank-3 data, rank-3 model, no noise: ALS is non-convex so it need not
  // reach zero, but the fit must be tight relative to the ~0.75 mean value.
  EXPECT_LT(reference.rmse, 0.05);
}

TEST(AlsReferenceTest, RmseDecreasesWithIterations) {
  TestData data = SmallDataset();
  AlsOptions one = Options(1);
  one.max_iterations = 1;
  AlsOptions ten = Options(1);
  ten.max_iterations = 10;
  AlsResult after_one =
      ReferenceAls(data.ratings, data.num_users, data.num_items, one);
  AlsResult after_ten =
      ReferenceAls(data.ratings, data.num_users, data.num_items, ten);
  EXPECT_LT(after_ten.rmse, after_one.rmse);
}

TEST(AlsTest, MatchesReferenceFailureFree) {
  TestData data = SmallDataset();
  AlsOptions options = Options(4);
  core::NoFaultTolerancePolicy policy;
  auto result =
      RunAls(data.ratings, data.num_users, data.num_items, options, {},
             &policy);
  ASSERT_TRUE(result.ok());
  AlsResult reference =
      ReferenceAls(data.ratings, data.num_users, data.num_items, options);
  EXPECT_NEAR(result->rmse, reference.rmse, 1e-8);
  EXPECT_LT(MaxFactorDiff(result->user_factors, reference.user_factors),
            1e-6);
  EXPECT_LT(MaxFactorDiff(result->item_factors, reference.item_factors),
            1e-6);
}

TEST(AlsTest, RejectsBadInput) {
  core::NoFaultTolerancePolicy policy;
  EXPECT_FALSE(RunAls({}, 2, 2, Options(2), {}, &policy).ok());
  EXPECT_FALSE(
      RunAls({{5, 0, 1.0}}, 2, 2, Options(2), {}, &policy).ok());  // bad user
  EXPECT_FALSE(
      RunAls({{0, 9, 1.0}}, 2, 2, Options(2), {}, &policy).ok());  // bad item
}

class AlsParallelismTest : public ::testing::TestWithParam<int> {};

TEST_P(AlsParallelismTest, ParallelismDoesNotChangeFactors) {
  TestData data = SmallDataset(13);
  AlsOptions options = Options(GetParam());
  core::NoFaultTolerancePolicy policy;
  auto result = RunAls(data.ratings, data.num_users, data.num_items, options,
                       {}, &policy);
  ASSERT_TRUE(result.ok());
  AlsResult reference =
      ReferenceAls(data.ratings, data.num_users, data.num_items, options);
  EXPECT_LT(MaxFactorDiff(result->user_factors, reference.user_factors),
            1e-6);
}

INSTANTIATE_TEST_SUITE_P(Parallelism, AlsParallelismTest,
                         ::testing::Values(1, 2, 4, 8));

/// Everything an ALS run computes and charges.
struct AlsRun {
  AlsResult result;
  std::vector<runtime::IterationStats> iterations;
  std::map<runtime::Charge, int64_t> sim;
};

AlsRun RunAlsWithThreads(const TestData& data, int threads) {
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.clock = &clock;
  env.costs = &costs;
  env.metrics = &metrics;
  AlsOptions options = Options(4);
  options.num_threads = threads;
  core::NoFaultTolerancePolicy policy;
  auto result = RunAls(data.ratings, data.num_users, data.num_items, options,
                       env, &policy);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  AlsRun run;
  if (result.ok()) run.result = std::move(*result);
  run.iterations = metrics.iterations();
  for (int c = 0; c < runtime::kNumCharges; ++c) {
    const auto charge = static_cast<runtime::Charge>(c);
    run.sim[charge] = clock.Of(charge);
  }
  return run;
}

class AlsThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(AlsThreadsTest, ThreadCountDoesNotChangeFactorsStatsOrCharges) {
  // ALS's solve and gather channels move rows between partitions, so this
  // pins the shuffle's gather order at every thread count.
  TestData data = SmallDataset(23);
  const AlsRun serial = RunAlsWithThreads(data, 1);
  const AlsRun threaded = RunAlsWithThreads(data, GetParam());
  EXPECT_EQ(serial.result.user_factors, threaded.result.user_factors);
  EXPECT_EQ(serial.result.item_factors, threaded.result.item_factors);
  EXPECT_EQ(serial.result.supersteps_executed,
            threaded.result.supersteps_executed);
  ASSERT_EQ(serial.iterations.size(), threaded.iterations.size());
  uint64_t messages = 0;
  for (size_t i = 0; i < serial.iterations.size(); ++i) {
    const runtime::IterationStats& a = serial.iterations[i];
    const runtime::IterationStats& b = threaded.iterations[i];
    EXPECT_EQ(a.records_processed, b.records_processed) << "superstep " << i;
    EXPECT_EQ(a.messages_shuffled, b.messages_shuffled) << "superstep " << i;
    EXPECT_EQ(a.sim_time_by_charge, b.sim_time_by_charge) << "superstep " << i;
    messages += a.messages_shuffled;
  }
  EXPECT_GT(messages, 0u);
  EXPECT_EQ(serial.sim, threaded.sim);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, AlsThreadsTest,
                         ::testing::Values(1, 2, 8));

TEST(AlsRecoveryTest, OptimisticReseedingRecoversQuality) {
  TestData data = SmallDataset(17);
  AlsOptions options = Options(4);

  core::NoFaultTolerancePolicy noft;
  auto baseline = RunAls(data.ratings, data.num_users, data.num_items,
                         options, {}, &noft);
  ASSERT_TRUE(baseline.ok());

  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{3, {0, 2}}});
  iteration::JobEnv env;
  env.failures = &failures;
  ReseedFactorsCompensation compensation(data.num_users, data.num_items,
                                         options.rank);
  core::OptimisticRecoveryPolicy policy(&compensation);
  auto result = RunAls(data.ratings, data.num_users, data.num_items, options,
                       env, &policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failures_recovered, 1);
  // ALS re-solves the reseeded rows against their surviving counterparts in
  // the very next superstep, so the final fit matches the failure-free one.
  EXPECT_NEAR(result->rmse, baseline->rmse, 1e-4);
}

TEST(AlsRecoveryTest, RollbackReproducesBaselineExactly) {
  TestData data = SmallDataset(19);
  AlsOptions options = Options(4);
  core::NoFaultTolerancePolicy noft;
  auto baseline = RunAls(data.ratings, data.num_users, data.num_items,
                         options, {}, &noft);
  ASSERT_TRUE(baseline.ok());

  runtime::FailureSchedule failures(
      std::vector<runtime::FailureEvent>{{4, {1}}});
  runtime::StableStorage storage(nullptr, nullptr);
  iteration::JobEnv env;
  env.failures = &failures;
  env.storage = &storage;
  core::CheckpointRollbackPolicy rollback(1);
  auto result = RunAls(data.ratings, data.num_users, data.num_items, options,
                       env, &rollback);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(MaxFactorDiff(result->user_factors, baseline->user_factors),
            1e-12);
}

TEST(ReseedFactorsTest, OnlyTouchesLostPartitions) {
  const int parts = 4;
  const int rank = 2;
  std::vector<dataflow::Record> rows;
  for (int64_t kind = 0; kind < 2; ++kind) {
    for (int64_t id = 0; id < 10; ++id) {
      rows.push_back(dataflow::MakeRecord(kind, id, 42.0, 42.0));
    }
  }
  iteration::BulkState state(
      dataflow::PartitionedDataset::HashPartitioned(rows, {0, 1}, parts));
  auto untouched = state.data().partition(3);
  state.ClearPartition(0);

  ReseedFactorsCompensation compensation(10, 10, rank);
  iteration::IterationContext ctx;
  ctx.num_partitions = parts;
  ASSERT_TRUE(compensation.Compensate(ctx, &state, {0}).ok());
  EXPECT_EQ(state.data().partition(3), untouched);
  EXPECT_EQ(state.data().NumRecords(), 20u);
  // Reseeded rows carry the deterministic seeding, not the old 42s.
  for (const dataflow::Record& r : state.data().partition(0)) {
    EXPECT_LT(r[2].AsDouble(), 2.0);
  }
}

TEST(ReseedFactorsTest, RejectsDeltaState) {
  ReseedFactorsCompensation compensation(4, 4, 2);
  iteration::DeltaState state(iteration::SolutionSet(2, {0}),
                              dataflow::PartitionedDataset(2));
  iteration::IterationContext ctx;
  EXPECT_FALSE(compensation.Compensate(ctx, &state, {0}).ok());
}

TEST(InitialFactorRowTest, DeterministicAndPositive) {
  auto a = InitialFactorRow(7, 4, false);
  auto b = InitialFactorRow(7, 4, false);
  EXPECT_EQ(a, b);
  auto c = InitialFactorRow(7, 4, true);
  EXPECT_NE(a, c);  // users and items seed differently
  for (double f : a) {
    EXPECT_GT(f, 0.0);
    EXPECT_LT(f, 1.2);
  }
}

}  // namespace
}  // namespace flinkless::algos
