// Columnar batch execution (DESIGN.md §12): schema inference, FlatKeyIndex
// parity with the map-based grouping it replaces, and the headline
// contract — columnar execution matches a naive std::map reference
// evaluator partition for partition, the algorithms match their reference
// solvers under each failure schedule, and every run is byte-identical
// across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "common/rng.h"
#include "core/policies.h"
#include "dataflow/columnar.h"
#include "dataflow/dataset.h"
#include "dataflow/executor.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "iteration/context.h"
#include "runtime/failure.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"

namespace flinkless {
namespace {

using dataflow::BatchSchema;
using dataflow::ExecOptions;
using dataflow::ExecStats;
using dataflow::Executor;
using dataflow::FlatKeyIndex;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;
using dataflow::ValueType;

// ------------------------------------------------------------ batch schema --

TEST(InferBatchSchemaTest, AcceptsSharedSchemaRejectsMixedRows) {
  BatchSchema schema;
  ASSERT_TRUE(dataflow::InferBatchSchema(
      {MakeRecord(int64_t{7}, 0.5, std::string("a")),
       MakeRecord(int64_t{-1}, -0.0, std::string())},
      &schema));
  EXPECT_EQ(schema, (BatchSchema{ValueType::kInt64, ValueType::kDouble,
                                 ValueType::kString}));
  // Vacuously shared: no rows, or rows without columns.
  EXPECT_TRUE(dataflow::InferBatchSchema({}, &schema));
  EXPECT_TRUE(schema.empty());
  EXPECT_TRUE(dataflow::InferBatchSchema({Record{}, Record{}}, &schema));
  EXPECT_TRUE(schema.empty());
  // Arity mismatch, and a type mismatch in one column.
  EXPECT_FALSE(dataflow::InferBatchSchema(
      {MakeRecord(int64_t{1}), MakeRecord(int64_t{1}, int64_t{2})}, &schema));
  EXPECT_FALSE(dataflow::InferBatchSchema(
      {MakeRecord(int64_t{1}, 2.0), MakeRecord(int64_t{1}, int64_t{2})},
      &schema));
  EXPECT_FALSE(dataflow::InferBatchSchema(
      {MakeRecord(std::string("a")), MakeRecord(2.0)}, &schema));
}

// ------------------------------------------------------- flat key index --

TEST(FlatKeyIndexTest, ChainsMatchGroupByKeyArrivalOrder) {
  Rng rng(11);
  std::vector<Record> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back(
        MakeRecord(static_cast<int64_t>(rng.NextBounded(64)), i));
  }
  FlatKeyIndex index;
  index.Build(rows, {0});
  ASSERT_EQ(index.num_rows(), rows.size());

  // Reference grouping: key -> row ids in arrival order.
  std::unordered_map<Record, std::vector<int32_t>, dataflow::RecordHash> ref;
  for (size_t i = 0; i < rows.size(); ++i) {
    ref[dataflow::ExtractKey(rows[i], {0})].push_back(
        static_cast<int32_t>(i));
  }
  ASSERT_EQ(index.num_groups(), ref.size());
  for (int32_t head : index.heads()) {
    std::vector<int32_t> chain;
    for (int32_t r = head; r >= 0; r = index.Next(r)) chain.push_back(r);
    EXPECT_EQ(chain, ref.at(dataflow::ExtractKey(rows[head], {0})));
  }
}

TEST(FlatKeyIndexTest, FindFirstOnStringAndCompositeKeys) {
  // Forces the generic (non-int64) hashing path.
  std::vector<Record> rows;
  rows.push_back(MakeRecord(std::string("a"), int64_t{1}, int64_t{10}));
  rows.push_back(MakeRecord(std::string("b"), int64_t{1}, int64_t{20}));
  rows.push_back(MakeRecord(std::string("a"), int64_t{1}, int64_t{30}));
  rows.push_back(MakeRecord(std::string("a"), int64_t{2}, int64_t{40}));
  FlatKeyIndex index;
  index.Build(rows, {0, 1});

  Record probe = MakeRecord(int64_t{99}, std::string("a"), int64_t{1});
  // Probe key columns differ from build key columns (join-style).
  int32_t row =
      index.FindFirst(probe, {1, 2}, dataflow::HashKey(probe, {1, 2}));
  ASSERT_EQ(row, 0);
  EXPECT_EQ(index.Next(row), 2);
  EXPECT_EQ(index.Next(2), -1);

  Record miss = MakeRecord(std::string("c"), int64_t{1});
  EXPECT_EQ(index.FindFirst(miss, {0, 1}, dataflow::HashKey(miss, {0, 1})),
            -1);
}

// --------------------------------------- columnar vs reference evaluator --

Plan BuildHotPathPlan() {
  // Every rewritten operator, with both int64 and string keys: map,
  // pre-combined reduce, join (string key), group-reduce, union.
  Plan plan;
  auto src = plan.Source("in");
  auto mapped = plan.Map(
      src,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64() % 23,
                          "g" + std::to_string(r[0].AsInt64() % 5),
                          r[1].AsInt64());
      },
      "tag");
  auto reduced = plan.ReduceByKey(
      mapped, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsString(),
                          a[2].AsInt64() + b[2].AsInt64());
      },
      "sum", /*pre_combine=*/true);
  auto joined = plan.Join(
      reduced, mapped, {1}, {1},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[1].AsString(), l[2].AsInt64(), r[2].AsInt64());
      },
      "by-tag");
  auto grouped = plan.GroupReduceByKey(
      joined, {0},
      [](const Record& key, const std::vector<Record>& group) {
        int64_t sum = 0;
        for (const Record& g : group) sum += g[2].AsInt64();
        return MakeRecord(key[0].AsString(),
                          static_cast<int64_t>(group.size()), sum);
      },
      "per-tag");
  auto both = plan.Union(reduced, grouped, "union");
  plan.Output(both, "out");
  return plan;
}

// A deliberately naive evaluator of the node kinds BuildHotPathPlan uses.
// It reproduces the engine's contracts — hash placement (PartitionOf),
// reduce/group emission in key order, join output in probe order with each
// group in arrival order — but groups with std::map, so it shares no code
// with the executor's columnar kernels.
using RefGroups =
    std::map<Record, std::vector<Record>, dataflow::RecordOrder>;

PartitionedDataset RefShuffle(const PartitionedDataset& in,
                              const dataflow::KeyColumns& key) {
  const int n = in.num_partitions();
  PartitionedDataset out(n);
  for (int p = 0; p < n; ++p) {
    for (const Record& r : in.partition(p)) {
      out.partition(PartitionedDataset::PartitionOf(r, key, n)).push_back(r);
    }
  }
  return out;
}

RefGroups RefGroup(const std::vector<Record>& rows,
                   const dataflow::KeyColumns& key) {
  RefGroups groups;
  for (const Record& r : rows) {
    groups[dataflow::ExtractKey(r, key)].push_back(r);
  }
  return groups;
}

PartitionedDataset RefReduce(const dataflow::PlanNode& node,
                             const PartitionedDataset& in) {
  PartitionedDataset out(in.num_partitions());
  for (int p = 0; p < in.num_partitions(); ++p) {
    for (const auto& [key, group] : RefGroup(in.partition(p), node.left_key)) {
      Record acc = group[0];
      for (size_t i = 1; i < group.size(); ++i) {
        acc = node.combine_fn(acc, group[i]);
      }
      out.partition(p).push_back(std::move(acc));
    }
  }
  return out;
}

PartitionedDataset RefEvaluate(const Plan& plan, const std::string& output,
                               const PartitionedDataset& source) {
  const int n = source.num_partitions();
  std::vector<PartitionedDataset> values;
  for (const dataflow::PlanNode& node : plan.nodes()) {
    PartitionedDataset out(n);
    auto in = [&](int i) -> const PartitionedDataset& {
      return values[node.inputs[i]];
    };
    switch (node.kind) {
      case dataflow::OpKind::kSource:
        out = source;
        break;
      case dataflow::OpKind::kMap:
        for (int p = 0; p < n; ++p) {
          for (const Record& r : in(0).partition(p)) {
            out.partition(p).push_back(node.map_fn(r));
          }
        }
        break;
      case dataflow::OpKind::kReduceByKey:
        out = RefReduce(node, RefShuffle(node.pre_combine
                                             ? RefReduce(node, in(0))
                                             : in(0),
                                         node.left_key));
        break;
      case dataflow::OpKind::kJoin: {
        PartitionedDataset left = RefShuffle(in(0), node.left_key);
        PartitionedDataset right = RefShuffle(in(1), node.right_key);
        for (int p = 0; p < n; ++p) {
          RefGroups build = RefGroup(left.partition(p), node.left_key);
          for (const Record& r : right.partition(p)) {
            auto it = build.find(dataflow::ExtractKey(r, node.right_key));
            if (it == build.end()) continue;
            for (const Record& l : it->second) {
              out.partition(p).push_back(node.join_fn(l, r));
            }
          }
        }
        break;
      }
      case dataflow::OpKind::kGroupReduceByKey: {
        PartitionedDataset shuffled = RefShuffle(in(0), node.left_key);
        for (int p = 0; p < n; ++p) {
          for (const auto& [key, group] :
               RefGroup(shuffled.partition(p), node.left_key)) {
            out.partition(p).push_back(node.group_reduce_fn(key, group));
          }
        }
        break;
      }
      case dataflow::OpKind::kUnion:
        for (int p = 0; p < n; ++p) {
          for (int i = 0; i < 2; ++i) {
            out.partition(p).insert(out.partition(p).end(),
                                    in(i).partition(p).begin(),
                                    in(i).partition(p).end());
          }
        }
        break;
      default:
        ADD_FAILURE() << "reference evaluator lacks node kind of '"
                      << node.name << "'";
    }
    values.push_back(std::move(out));
  }
  for (const auto& [name, node] : plan.outputs()) {
    if (name == output) return values[node];
  }
  ADD_FAILURE() << "no output '" << output << "'";
  return PartitionedDataset();
}

class ColumnarReferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ColumnarReferenceTest, HotPathPlanMatchesReferenceEvaluator) {
  const int parts = 8;
  Plan plan = BuildHotPathPlan();
  Rng rng(31);
  std::vector<Record> records;
  for (int64_t i = 0; i < 4000; ++i) {
    records.push_back(
        MakeRecord(static_cast<int64_t>(rng.NextBounded(300)), i));
  }
  auto in = PartitionedDataset::RoundRobin(std::move(records), parts);

  auto run = [&](int threads, ExecStats* stats, runtime::SimClock* clock) {
    runtime::CostModel costs;
    ExecOptions options;
    options.num_partitions = parts;
    options.num_threads = threads;
    options.clock = clock;
    options.costs = &costs;
    Executor executor(options);
    auto outs = executor.Execute(plan, {{"in", &in}}, stats);
    EXPECT_TRUE(outs.ok()) << outs.status().ToString();
    return std::move(outs->at("out"));
  };

  runtime::SimClock clock, serial_clock;
  ExecStats stats, serial_stats;
  PartitionedDataset out = run(GetParam(), &stats, &clock);
  PartitionedDataset want = RefEvaluate(plan, "out", in);
  ASSERT_EQ(out.num_partitions(), want.num_partitions());
  for (int p = 0; p < out.num_partitions(); ++p) {
    EXPECT_EQ(out.partition(p), want.partition(p)) << "partition " << p;
  }

  // And the run is identical to a serial one, accounting included.
  PartitionedDataset serial = run(1, &serial_stats, &serial_clock);
  for (int p = 0; p < out.num_partitions(); ++p) {
    EXPECT_EQ(out.partition(p), serial.partition(p)) << "partition " << p;
  }
  EXPECT_EQ(stats.records_processed, serial_stats.records_processed);
  EXPECT_EQ(stats.messages_shuffled, serial_stats.messages_shuffled);
  EXPECT_EQ(stats.node_output_counts, serial_stats.node_output_counts);
  EXPECT_EQ(clock.TotalNs(), serial_clock.TotalNs());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ColumnarReferenceTest,
                         ::testing::Values(1, 2, 8));

// ------------------------------------- algorithms vs reference solvers --

/// The failure schedules every algorithm run is checked under: none, one
/// failure, and a second failure of two partitions later on.
const std::vector<std::vector<runtime::FailureEvent>> kSchedules = {
    {},
    {{3, {1}}},
    {{3, {1}}, {7, {0, 2}}},
};

struct AlgoRun {
  std::vector<double> pr_ranks;
  std::vector<int64_t> cc_labels;
  int pr_iterations = 0;
  int cc_supersteps = 0;
  int pr_failures = 0;
  int cc_failures = 0;
  uint64_t pr_messages = 0;
  uint64_t cc_messages = 0;
  int64_t pr_sim_ns = 0;
  int64_t cc_sim_ns = 0;
};

graph::Graph AlgoGraph() {
  Rng rng(2025);
  return graph::Rmat(9, 6, &rng);  // 512 vertices
}

graph::Graph Undirected(const graph::Graph& directed) {
  graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
  for (const graph::Edge& e : directed.edges()) {
    Status s = undirected.AddEdge(e.src, e.dst);
    EXPECT_TRUE(s.ok());
  }
  return undirected;
}

AlgoRun RunAlgos(int num_threads,
                 const std::vector<runtime::FailureEvent>& schedule) {
  AlgoRun out;
  graph::Graph directed = AlgoGraph();

  {  // PageRank (bulk), failures fixed by compensation.
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(schedule);
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "ab-pr";

    algos::PageRankOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    options.l1_tolerance = 1e-12;
    options.max_iterations = 300;
    algos::FixRanksCompensation fix(directed.num_vertices());
    core::OptimisticRecoveryPolicy policy(&fix);
    auto result = algos::RunPageRank(directed, options, env, &policy, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.pr_ranks = result->ranks;
    out.pr_iterations = result->iterations;
    out.pr_failures = result->failures_recovered;
    out.pr_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.pr_messages += it.messages_shuffled;
    }
  }

  {  // Connected Components (delta), failures fixed by compensation.
    graph::Graph undirected = Undirected(directed);
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(schedule);
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "ab-cc";

    algos::ConnectedComponentsOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    algos::FixComponentsCompensation fix(&undirected);
    core::OptimisticRecoveryPolicy policy(&fix);
    auto result = algos::RunConnectedComponents(undirected, options, env,
                                                &policy, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.cc_labels = result->labels;
    out.cc_supersteps = result->supersteps_executed;
    out.cc_failures = result->failures_recovered;
    out.cc_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.cc_messages += it.messages_shuffled;
    }
  }
  return out;
}

class AlgorithmReferenceTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(AlgorithmReferenceTest, AlgorithmsMatchReferences) {
  const auto [threads, schedule] = GetParam();
  graph::Graph directed = AlgoGraph();
  AlgoRun run = RunAlgos(threads, kSchedules[schedule]);
  // Every failure scheduled within a job's run struck and was recovered
  // from (CC converges before superstep 7).
  auto within = [&](int supersteps) {
    return static_cast<int>(std::count_if(
        kSchedules[schedule].begin(), kSchedules[schedule].end(),
        [&](const runtime::FailureEvent& e) {
          return e.iteration <= supersteps;
        }));
  };
  EXPECT_EQ(run.pr_failures, within(run.pr_iterations));
  EXPECT_EQ(run.cc_failures, within(run.cc_supersteps));
  if (!kSchedules[schedule].empty()) {
    EXPECT_GT(run.cc_failures, 0);
  }
  std::vector<double> truth =
      graph::ReferencePageRank(directed, 0.85, 400, 1e-14);
  ASSERT_EQ(run.pr_ranks.size(), truth.size());
  for (size_t v = 0; v < truth.size(); ++v) {
    EXPECT_NEAR(run.pr_ranks[v], truth[v], 1e-9) << "vertex " << v;
  }
  EXPECT_EQ(run.cc_labels,
            graph::ReferenceConnectedComponents(Undirected(directed)));
}

TEST_P(AlgorithmReferenceTest, AlgorithmRunsAreIdenticalAcrossThreadCounts) {
  const auto [threads, schedule] = GetParam();
  AlgoRun serial = RunAlgos(1, kSchedules[schedule]);
  AlgoRun parallel = RunAlgos(threads, kSchedules[schedule]);
  EXPECT_EQ(serial.pr_ranks, parallel.pr_ranks);
  EXPECT_EQ(serial.cc_labels, parallel.cc_labels);
  EXPECT_EQ(serial.pr_iterations, parallel.pr_iterations);
  EXPECT_EQ(serial.cc_supersteps, parallel.cc_supersteps);
  EXPECT_EQ(serial.pr_messages, parallel.pr_messages);
  EXPECT_EQ(serial.cc_messages, parallel.cc_messages);
  EXPECT_EQ(serial.pr_sim_ns, parallel.pr_sim_ns);
  EXPECT_EQ(serial.cc_sim_ns, parallel.cc_sim_ns);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSchedules, AlgorithmReferenceTest,
    ::testing::Combine(::testing::Values(1, 2, 8),
                       ::testing::Range(size_t{0}, kSchedules.size())));


}  // namespace
}  // namespace flinkless
