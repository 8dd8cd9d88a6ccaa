// Executor semantics: every operator against hand-computed expectations,
// message accounting, cost charging, and the partition-independence
// property (the same plan gives the same logical result under any degree of
// parallelism — the invariant that makes failure experiments comparable).

#include <gtest/gtest.h>

#include <algorithm>

#include "dataflow/exec_cache.h"
#include "dataflow/executor.h"
#include "runtime/message_log.h"
#include "runtime/metrics.h"
#include "runtime/tracing.h"

namespace flinkless::dataflow {
namespace {

PartitionedDataset KeyValues(std::vector<std::pair<int64_t, int64_t>> pairs,
                             int parts) {
  std::vector<Record> records;
  for (auto [k, v] : pairs) records.push_back(MakeRecord(k, v));
  return PartitionedDataset::HashPartitioned(std::move(records), {0}, parts);
}

std::vector<Record> SortedOut(
    const std::map<std::string, PartitionedDataset>& outs,
    const std::string& name) {
  auto it = outs.find(name);
  EXPECT_NE(it, outs.end());
  return it->second.CollectSorted();
}

class ExecutorTest : public ::testing::Test {
 protected:
  static constexpr int kParts = 4;
  Executor executor_{ExecOptions{kParts, nullptr, nullptr}};
};

TEST_F(ExecutorTest, SourcePassesBindingThrough) {
  Plan plan;
  auto src = plan.Source("in");
  plan.Output(src, "out");
  auto in = KeyValues({{1, 10}, {2, 20}}, kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out"),
            (std::vector<Record>{MakeRecord(int64_t{1}, int64_t{10}),
                                 MakeRecord(int64_t{2}, int64_t{20})}));
}

TEST_F(ExecutorTest, MissingBindingIsNotFound) {
  Plan plan;
  plan.Output(plan.Source("in"), "out");
  auto outs = executor_.Execute(plan, {}, nullptr);
  EXPECT_TRUE(outs.status().IsNotFound());
}

TEST_F(ExecutorTest, PartitionCountMismatchRejected) {
  Plan plan;
  plan.Output(plan.Source("in"), "out");
  auto in = KeyValues({{1, 1}}, kParts + 1);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  EXPECT_EQ(outs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExecutorTest, MapTransformsEveryRecord) {
  Plan plan;
  auto src = plan.Source("in");
  auto doubled = plan.Map(
      src,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() * 2);
      },
      "double");
  plan.Output(doubled, "out");
  auto in = KeyValues({{1, 10}, {2, 20}, {3, 30}}, kParts);
  ExecStats stats;
  auto outs = executor_.Execute(plan, {{"in", &in}}, &stats);
  ASSERT_TRUE(outs.ok());
  auto sorted = SortedOut(*outs, "out");
  EXPECT_EQ(sorted[0][1].AsInt64(), 20);
  EXPECT_EQ(stats.records_processed, 3u);
  EXPECT_EQ(stats.messages_shuffled, 0u);  // map is partition-local
  EXPECT_EQ(stats.node_output_counts.at("double"), 3u);
}

TEST_F(ExecutorTest, FlatMapCanExplodeAndDrop) {
  Plan plan;
  auto src = plan.Source("in");
  auto exploded = plan.FlatMap(
      src,
      [](const Record& r, std::vector<Record>* out) {
        for (int64_t i = 0; i < r[1].AsInt64(); ++i) {
          out->push_back(MakeRecord(r[0].AsInt64(), i));
        }
      },
      "explode");
  plan.Output(exploded, "out");
  auto in = KeyValues({{1, 3}, {2, 0}}, kParts);  // key 2 yields nothing
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out").size(), 3u);
}

TEST_F(ExecutorTest, FilterKeepsMatching) {
  Plan plan;
  auto src = plan.Source("in");
  auto kept = plan.Filter(
      src, [](const Record& r) { return r[1].AsInt64() >= 20; }, "f");
  plan.Output(kept, "out");
  auto in = KeyValues({{1, 10}, {2, 20}, {3, 30}}, kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out").size(), 2u);
}

TEST_F(ExecutorTest, ProjectReordersColumns) {
  Plan plan;
  auto src = plan.Source("in");
  auto projected = plan.Project(src, {1, 0}, "p");
  plan.Output(projected, "out");
  auto in = KeyValues({{1, 10}}, kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out")[0],
            MakeRecord(int64_t{10}, int64_t{1}));
}

TEST_F(ExecutorTest, ProjectOutOfRangeColumnFails) {
  Plan plan;
  auto src = plan.Source("in");
  plan.Output(plan.Project(src, {5}, "p"), "out");
  auto in = KeyValues({{1, 10}}, kParts);
  EXPECT_EQ(executor_.Execute(plan, {{"in", &in}}, nullptr).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(ExecutorTest, ReduceByKeySums) {
  Plan plan;
  auto src = plan.Source("in");
  auto summed = plan.ReduceByKey(
      src, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsInt64() + b[1].AsInt64());
      },
      "sum");
  plan.Output(summed, "out");
  auto in = KeyValues({{1, 1}, {1, 2}, {1, 3}, {2, 10}, {2, 20}, {3, 5}},
                      kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out"),
            (std::vector<Record>{MakeRecord(int64_t{1}, int64_t{6}),
                                 MakeRecord(int64_t{2}, int64_t{30}),
                                 MakeRecord(int64_t{3}, int64_t{5})}));
}

TEST_F(ExecutorTest, ReduceOutputIsPartitionedByKey) {
  Plan plan;
  auto src = plan.Source("in");
  auto reduced = plan.ReduceByKey(
      src, {0}, [](const Record& a, const Record&) { return a; }, "first");
  plan.Output(reduced, "out");
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t i = 0; i < 100; ++i) pairs.push_back({i % 10, i});
  auto in = PartitionedDataset::RoundRobin(
      [&] {
        std::vector<Record> records;
        for (auto [k, v] : pairs) records.push_back(MakeRecord(k, v));
        return records;
      }(),
      kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_TRUE(outs->at("out").IsPartitionedBy({0}));
}

TEST_F(ExecutorTest, CombinerChangingKeyIsInternalError) {
  Plan plan;
  auto src = plan.Source("in");
  auto bad = plan.ReduceByKey(
      src, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64() + 1000,
                          a[1].AsInt64() + b[1].AsInt64());
      },
      "bad", /*pre_combine=*/false);
  plan.Output(bad, "out");
  // Two records with the same key forced into the same group.
  auto in = KeyValues({{1, 1}, {1, 2}}, kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  EXPECT_EQ(outs.status().code(), StatusCode::kInternal);
}

// A key column outside the record fails the operator with OutOfRange
// instead of aborting the process, pre-combined or shuffled raw, chained
// or not.
TEST_F(ExecutorTest, ReduceKeyColumnPastRecordEndIsOutOfRange) {
  auto in = KeyValues({{1, 1}, {2, 2}, {1, 3}}, kParts);
  for (bool pre_combine : {true, false}) {
    Plan plan;
    auto src = plan.Source("in");
    auto passed = plan.Map(src, [](const Record& r) { return r; }, "pass");
    auto summed = plan.ReduceByKey(
        passed, {2}, [](const Record& a, const Record&) { return a; },
        "sum", pre_combine);
    plan.Output(summed, "out");
    auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
    EXPECT_EQ(outs.status().code(), StatusCode::kOutOfRange)
        << outs.status().ToString();
    EXPECT_NE(outs.status().message().find("ReduceByKey 'sum'"),
              std::string::npos)
        << outs.status().ToString();
  }
}

TEST_F(ExecutorTest, NegativeKeyColumnIsRejectedByValidate) {
  Plan plan;
  auto src = plan.Source("in");
  auto summed = plan.ReduceByKey(
      src, {-1}, [](const Record& a, const Record&) { return a; }, "sum");
  plan.Output(summed, "out");
  EXPECT_EQ(plan.Validate().code(), StatusCode::kFailedPrecondition);
  auto in = KeyValues({{1, 1}}, kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  EXPECT_EQ(outs.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ExecutorTest, JoinKeyColumnPastRecordEndIsOutOfRange) {
  Plan plan;
  auto src = plan.Source("in");
  auto joined = plan.Join(
      src, src, {0}, {5}, [](const Record& l, const Record&) { return l; },
      "self-join");
  plan.Output(joined, "out");
  auto in = KeyValues({{1, 1}, {2, 2}}, kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  EXPECT_EQ(outs.status().code(), StatusCode::kOutOfRange)
      << outs.status().ToString();
  EXPECT_NE(outs.status().message().find("Join 'self-join'"),
            std::string::npos)
      << outs.status().ToString();
}

TEST_F(ExecutorTest, ReplayRescatterKeyColumnPastRecordEndIsOutOfRange) {
  // The static side is re-shuffled from the bindings Replay is given; a
  // row too short for its key fails the replay like it fails Execute.
  Plan plan;
  auto state = plan.Source("state");
  auto edges = plan.Source("edges");
  auto joined = plan.Join(
      state, edges, {0}, {1},
      [](const Record& l, const Record& r) {
        return MakeRecord(r[0].AsInt64(), l[1].AsInt64());
      },
      "send");
  plan.Output(joined, "out");
  auto states = KeyValues({{1, 10}, {2, 20}}, kParts);
  auto good = KeyValues({{5, 1}, {6, 2}}, kParts);
  auto bad = PartitionedDataset::HashPartitioned(
      {MakeRecord(int64_t{5}), MakeRecord(int64_t{6})}, {0}, kParts);
  runtime::MessageLog log({"state"});
  ExecOptions options{kParts, nullptr, nullptr};
  options.message_log = &log;
  Executor executor(options);
  ASSERT_TRUE(
      executor.Execute(plan, {{"state", &states}, {"edges", &good}}, nullptr)
          .ok());
  auto replayed =
      executor.Replay(plan, {{"edges", &bad}}, {0, 1}, &log, nullptr);
  EXPECT_EQ(replayed.status().code(), StatusCode::kOutOfRange)
      << replayed.status().ToString();
  EXPECT_NE(replayed.status().message().find("Join 'send'"),
            std::string::npos)
      << replayed.status().ToString();
}

TEST_F(ExecutorTest, ReplayRejectsLostPartitionOutOfRange) {
  // A lost id that names no partition would rebuild nothing and return
  // OK: an empty answer that looks like a recovery.
  Plan plan;
  auto state = plan.Source("state");
  auto edges = plan.Source("edges");
  auto joined = plan.Join(
      state, edges, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(r[1].AsInt64(), l[1].AsInt64());
      },
      "send");
  plan.Output(joined, "out");
  auto states = KeyValues({{1, 10}, {2, 20}}, kParts);
  auto links = KeyValues({{1, 5}, {2, 6}}, kParts);
  runtime::MessageLog log({"state"});
  ExecOptions options{kParts, nullptr, nullptr};
  options.message_log = &log;
  Executor executor(options);
  ASSERT_TRUE(
      executor.Execute(plan, {{"state", &states}, {"edges", &links}}, nullptr)
          .ok());
  for (const std::vector<int>& lost :
       {std::vector<int>{7}, std::vector<int>{0, kParts},
        std::vector<int>{-1}}) {
    auto replayed =
        executor.Replay(plan, {{"edges", &links}}, lost, &log, nullptr);
    EXPECT_EQ(replayed.status().code(), StatusCode::kInvalidArgument)
        << replayed.status().ToString();
  }
  EXPECT_TRUE(
      executor.Replay(plan, {{"edges", &links}}, {0, 3}, &log, nullptr).ok());
}

TEST_F(ExecutorTest, PreCombineReducesMessages) {
  // 100 records, only 2 keys: with a combiner each source partition sends at
  // most 2 records; without, everything shuffles raw.
  std::vector<Record> records;
  for (int64_t i = 0; i < 100; ++i) records.push_back(MakeRecord(i % 2, i));
  auto in = PartitionedDataset::RoundRobin(records, kParts);

  auto run = [&](bool pre_combine) {
    Plan plan;
    auto src = plan.Source("in");
    auto reduced = plan.ReduceByKey(
        src, {0},
        [](const Record& a, const Record& b) {
          return MakeRecord(a[0].AsInt64(), a[1].AsInt64() + b[1].AsInt64());
        },
        "sum", pre_combine);
    plan.Output(reduced, "out");
    ExecStats stats;
    auto outs = executor_.Execute(plan, {{"in", &in}}, &stats);
    EXPECT_TRUE(outs.ok());
    return std::make_pair(stats.messages_shuffled,
                          outs->at("out").CollectSorted());
  };

  auto [with_combiner, result_a] = run(true);
  auto [without_combiner, result_b] = run(false);
  EXPECT_EQ(result_a, result_b);  // same answer
  EXPECT_LT(with_combiner, without_combiner);
  EXPECT_LE(with_combiner, 2u * kParts);
}

TEST_F(ExecutorTest, GroupReduceSeesWholeGroup) {
  Plan plan;
  auto src = plan.Source("in");
  auto counted = plan.GroupReduceByKey(
      src, {0},
      [](const Record& key, const std::vector<Record>& group) {
        return MakeRecord(key[0].AsInt64(),
                          static_cast<int64_t>(group.size()));
      },
      "count");
  plan.Output(counted, "out");
  auto in = KeyValues({{1, 0}, {1, 0}, {1, 0}, {2, 0}}, kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out"),
            (std::vector<Record>{MakeRecord(int64_t{1}, int64_t{3}),
                                 MakeRecord(int64_t{2}, int64_t{1})}));
}

TEST_F(ExecutorTest, JoinMatchesEqualKeysOnly) {
  Plan plan;
  auto left = plan.Source("l");
  auto right = plan.Source("r");
  auto joined = plan.Join(
      left, right, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(), l[1].AsInt64(), r[1].AsInt64());
      },
      "j");
  plan.Output(joined, "out");
  auto l = KeyValues({{1, 10}, {2, 20}, {4, 40}}, kParts);
  auto r = KeyValues({{1, 100}, {2, 200}, {3, 300}}, kParts);
  auto outs = executor_.Execute(plan, {{"l", &l}, {"r", &r}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out"),
            (std::vector<Record>{
                MakeRecord(int64_t{1}, int64_t{10}, int64_t{100}),
                MakeRecord(int64_t{2}, int64_t{20}, int64_t{200})}));
}

TEST_F(ExecutorTest, JoinProducesCrossProductPerKey) {
  Plan plan;
  auto left = plan.Source("l");
  auto right = plan.Source("r");
  auto joined = plan.Join(
      left, right, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[1].AsInt64(), r[1].AsInt64());
      },
      "j");
  plan.Output(joined, "out");
  auto l = KeyValues({{1, 10}, {1, 11}}, kParts);
  auto r = KeyValues({{1, 100}, {1, 101}, {1, 102}}, kParts);
  auto outs = executor_.Execute(plan, {{"l", &l}, {"r", &r}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out").size(), 6u);
}

TEST_F(ExecutorTest, JoinOnDifferentKeyColumns) {
  Plan plan;
  auto left = plan.Source("l");   // (key, payload)
  auto right = plan.Source("r");  // (payload, key)
  auto joined = plan.Join(
      left, right, {0}, {1},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(), r[0].AsInt64());
      },
      "j");
  plan.Output(joined, "out");
  auto l = KeyValues({{7, 1}}, kParts);
  std::vector<Record> right_records{MakeRecord(int64_t{99}, int64_t{7})};
  auto r = PartitionedDataset::HashPartitioned(right_records, {1}, kParts);
  auto outs = executor_.Execute(plan, {{"l", &l}, {"r", &r}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out"),
            (std::vector<Record>{MakeRecord(int64_t{7}, int64_t{99})}));
}

TEST_F(ExecutorTest, CoGroupSeesBothSidesIncludingEmpties) {
  Plan plan;
  auto left = plan.Source("l");
  auto right = plan.Source("r");
  auto cogrouped = plan.CoGroup(
      left, right, {0}, {0},
      [](const Record& key, const std::vector<Record>& lg,
         const std::vector<Record>& rg, std::vector<Record>* out) {
        out->push_back(MakeRecord(key[0].AsInt64(),
                                  static_cast<int64_t>(lg.size()),
                                  static_cast<int64_t>(rg.size())));
      },
      "cg");
  plan.Output(cogrouped, "out");
  auto l = KeyValues({{1, 0}, {1, 0}, {2, 0}}, kParts);
  auto r = KeyValues({{2, 0}, {3, 0}}, kParts);
  auto outs = executor_.Execute(plan, {{"l", &l}, {"r", &r}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out"),
            (std::vector<Record>{
                MakeRecord(int64_t{1}, int64_t{2}, int64_t{0}),
                MakeRecord(int64_t{2}, int64_t{1}, int64_t{1}),
                MakeRecord(int64_t{3}, int64_t{0}, int64_t{1})}));
}

TEST_F(ExecutorTest, CrossBroadcastsRightSide) {
  Plan plan;
  auto left = plan.Source("l");
  auto right = plan.Source("r");
  auto crossed = plan.Cross(
      left, right,
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(), l[1].AsInt64() + r[1].AsInt64());
      },
      "x");
  plan.Output(crossed, "out");
  auto l = KeyValues({{1, 10}, {2, 20}, {3, 30}}, kParts);
  auto r = KeyValues({{0, 1000}}, kParts);  // single scalar record
  ExecStats stats;
  auto outs = executor_.Execute(plan, {{"l", &l}, {"r", &r}}, &stats);
  ASSERT_TRUE(outs.ok());
  auto sorted = SortedOut(*outs, "out");
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0][1].AsInt64(), 1010);
  // One scalar broadcast to the other kParts-1 partitions.
  EXPECT_EQ(stats.messages_shuffled, static_cast<uint64_t>(kParts - 1));
}

TEST_F(ExecutorTest, CrossWithEmptyRightYieldsNothing) {
  Plan plan;
  auto left = plan.Source("l");
  auto right = plan.Source("r");
  auto crossed = plan.Cross(
      left, right, [](const Record& l, const Record&) { return l; }, "x");
  plan.Output(crossed, "out");
  auto l = KeyValues({{1, 10}}, kParts);
  PartitionedDataset r(kParts);
  auto outs = executor_.Execute(plan, {{"l", &l}, {"r", &r}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_TRUE(SortedOut(*outs, "out").empty());
}

TEST_F(ExecutorTest, UnionConcatenates) {
  Plan plan;
  auto a = plan.Source("a");
  auto b = plan.Source("b");
  plan.Output(plan.Union(a, b, "u"), "out");
  auto da = KeyValues({{1, 1}}, kParts);
  auto db = KeyValues({{1, 1}, {2, 2}}, kParts);
  auto outs = executor_.Execute(plan, {{"a", &da}, {"b", &db}}, nullptr);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(SortedOut(*outs, "out").size(), 3u);  // bag semantics, no dedup
}

TEST_F(ExecutorTest, StringKeysShuffleAndReduce) {
  Plan plan;
  auto src = plan.Source("in");
  auto counted = plan.ReduceByKey(
      src, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsString(), a[1].AsInt64() + b[1].AsInt64());
      },
      "count");
  plan.Output(counted, "out");
  std::vector<Record> words{MakeRecord("be", 1), MakeRecord("or", 1),
                            MakeRecord("not", 1), MakeRecord("to", 1),
                            MakeRecord("be", 1), MakeRecord("to", 1)};
  auto in = PartitionedDataset::RoundRobin(words, kParts);
  auto outs = executor_.Execute(plan, {{"in", &in}}, nullptr);
  ASSERT_TRUE(outs.ok());
  auto sorted = SortedOut(*outs, "out");
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0], MakeRecord("be", int64_t{2}));
  EXPECT_EQ(sorted[3], MakeRecord("to", int64_t{2}));
  EXPECT_TRUE(outs->at("out").IsPartitionedBy({0}));
}

TEST_F(ExecutorTest, ChargesComputeAndNetworkCosts) {
  runtime::SimClock clock;
  runtime::CostModel costs;
  costs.cpu_per_record_ns = 1;
  costs.network_per_record_ns = 100;
  Executor executor(ExecOptions{kParts, &clock, &costs});

  Plan plan;
  auto src = plan.Source("in");
  auto reduced = plan.ReduceByKey(
      src, {0}, [](const Record& a, const Record&) { return a; }, "r",
      /*pre_combine=*/false);
  plan.Output(reduced, "out");

  // Round-robin input guarantees records must move to their key partition.
  std::vector<Record> records;
  for (int64_t i = 0; i < 40; ++i) records.push_back(MakeRecord(i, i));
  auto in = PartitionedDataset::RoundRobin(records, kParts);
  ExecStats stats;
  ASSERT_TRUE(executor.Execute(plan, {{"in", &in}}, &stats).ok());
  EXPECT_GT(stats.messages_shuffled, 0u);
  EXPECT_EQ(clock.Of(runtime::Charge::kNetwork),
            static_cast<int64_t>(stats.messages_shuffled) * 100);
  EXPECT_GT(clock.Of(runtime::Charge::kCompute), 0);
}

TEST_F(ExecutorTest, AlreadyPartitionedProbeSideIsReadInPlace) {
  // The probe side is hash-partitioned on its join key, so its shuffle's
  // route finds nothing to move and the join reads it where it is. The
  // oracle is the same first superstep with the probe side a
  // loop-invariant cache fill, which always copies through the gather:
  // both must charge and record the same.
  Plan plan;
  auto build = plan.Source("build");
  auto probe = plan.Source("probe");
  auto joined = plan.Join(
      build, probe, {0}, {0},
      [](const Record& b, const Record& p) {
        return MakeRecord(p[0].AsInt64(), b[1].AsInt64() + p[1].AsInt64());
      },
      "joined");
  plan.Output(joined, "out");
  std::vector<Record> builds;
  for (int64_t i = 0; i < 120; ++i) builds.push_back(MakeRecord(i % 29, i));
  const PartitionedDataset build_data =
      PartitionedDataset::RoundRobin(std::move(builds), kParts);
  std::vector<std::pair<int64_t, int64_t>> probes;
  for (int64_t i = 0; i < 90; ++i) probes.emplace_back(i % 41, 3 * i);
  const PartitionedDataset probe_data = KeyValues(probes, kParts);

  struct Run {
    std::map<std::string, PartitionedDataset> out;
    ExecStats stats;
    std::map<runtime::Charge, int64_t> sim;
    runtime::MetricsSnapshot metrics;
    int gathers = 0;
  };
  auto run = [&](bool cache_probe, int threads) {
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsSink metrics;
    runtime::Tracer tracer;
    ExecCache cache({"build"});
    ExecOptions options{kParts, &clock, &costs};
    options.num_threads = threads;
    options.metrics = &metrics;
    options.tracer = &tracer;
    options.cache = cache_probe ? &cache : nullptr;
    Executor executor(options);
    Run r;
    auto out = executor.Execute(
        plan, {{"build", &build_data}, {"probe", &probe_data}}, &r.stats);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (out.ok()) r.out = std::move(*out);
    for (int ch = 0; ch < runtime::kNumCharges; ++ch) {
      const auto charge = static_cast<runtime::Charge>(ch);
      r.sim[charge] = clock.Of(charge);
    }
    r.metrics = metrics.Collect();
    for (const auto& e : tracer.Flush().events) {
      r.gathers += e.category == "shuffle.gather" && e.partition < 0 ? 1 : 0;
    }
    return r;
  };
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const Run in_place = run(false, threads);
    const Run copied = run(true, threads);
    ASSERT_EQ(in_place.out.size(), 1u);
    for (int p = 0; p < kParts; ++p) {
      EXPECT_EQ(in_place.out.at("out").partition(p),
                copied.out.at("out").partition(p));
    }
    EXPECT_GT(in_place.out.at("out").NumRecords(), 0u);
    EXPECT_EQ(in_place.stats.records_processed,
              copied.stats.records_processed);
    EXPECT_EQ(in_place.stats.messages_shuffled,
              copied.stats.messages_shuffled);
    EXPECT_EQ(in_place.sim, copied.sim);
    using runtime::metric::kHistBatchRows;
    using runtime::metric::kHistShuffleFanout;
    using runtime::metric::kShuffleFanout;
    EXPECT_EQ(in_place.metrics.counters.at(kShuffleFanout),
              copied.metrics.counters.at(kShuffleFanout));
    EXPECT_EQ(in_place.metrics.histograms.at(kHistShuffleFanout),
              copied.metrics.histograms.at(kHistShuffleFanout));
    EXPECT_EQ(in_place.metrics.histograms.at(kHistBatchRows),
              copied.metrics.histograms.at(kHistBatchRows));
    // Each copying shuffle gathers once; the in-place probe side gathers
    // nothing.
    EXPECT_EQ(in_place.gathers, 1);
    EXPECT_EQ(copied.gathers, 2);
  }
}

// Partition-independence: the same dataflow yields the same sorted output
// under every degree of parallelism.
class ParallelismInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelismInvarianceTest, WordcountStyleAggregationIsStable) {
  const int parts = GetParam();
  Plan plan;
  auto src = plan.Source("in");
  auto counted = plan.ReduceByKey(
      src, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsInt64() + b[1].AsInt64());
      },
      "count");
  plan.Output(counted, "out");

  std::vector<Record> records;
  for (int64_t i = 0; i < 500; ++i) records.push_back(MakeRecord(i % 37, 1));
  auto in = PartitionedDataset::RoundRobin(records, parts);

  Executor executor(ExecOptions{parts, nullptr, nullptr});
  auto outs = executor.Execute(plan, {{"in", &in}}, nullptr);
  ASSERT_TRUE(outs.ok());
  auto sorted = outs->at("out").CollectSorted();
  ASSERT_EQ(sorted.size(), 37u);
  for (const Record& r : sorted) {
    int64_t key = r[0].AsInt64();
    int64_t expected = 500 / 37 + (key < 500 % 37 ? 1 : 0);
    EXPECT_EQ(r[1].AsInt64(), expected) << "key " << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, ParallelismInvarianceTest,
                         ::testing::Values(1, 2, 3, 4, 7, 16));

}  // namespace
}  // namespace flinkless::dataflow
