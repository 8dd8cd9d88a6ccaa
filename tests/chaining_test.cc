// Operator chaining (DESIGN.md §17): a single-consumer intermediate streams
// into its consumer instead of being materialized. Chaining must be
// invisible: every shipped step plan produces the same outputs, ExecStats,
// SimClock charges and metrics as its fully materialized twin (the same
// plan with every node declared an output, since outputs never chain), at
// any thread count, with and without the loop-invariant cache. The
// streamed reduce fold keeps the typed fold's fallback and every error.
// Confined-log Replay, which runs the same loop, rebuilds every shipped
// plan's lost partitions byte for byte. A declared reduce's typed channel
// and an input read in place (DESIGN.md §12, §15) are invisible the same
// way, logged channels included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "algos/als.h"
#include "algos/connected_components.h"
#include "algos/datasets.h"
#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "common/rng.h"
#include "dataflow/exec_cache.h"
#include "dataflow/executor.h"
#include "graph/generators.h"
#include "runtime/memory_manager.h"
#include "runtime/message_log.h"
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

/// A step plan with the bindings of its first superstep.
struct StepCase {
  Plan plan;
  std::map<std::string, PartitionedDataset> data;
  std::vector<std::string> volatile_bindings;
};

PartitionedDataset Hashed(std::vector<Record> rows) {
  return PartitionedDataset::HashPartitioned(std::move(rows), {0}, kParts);
}

StepCase MakeCase(const std::string& algo) {
  Rng rng(7);
  StepCase c;
  if (algo == "pagerank") {
    graph::Graph g = graph::Rmat(8, 6, &rng);
    c.plan = algos::BuildPageRankPlan(g.num_vertices(), 0.85);
    c.data.emplace("state", algos::InitialRanks(g, kParts));
    c.data.emplace("links", algos::Links(g, kParts));
    c.data.emplace("dangling", algos::DanglingVertices(g, kParts));
    c.data.emplace("zero_mass", Hashed({MakeRecord(int64_t{0}, 0.0)}));
    c.volatile_bindings = {"state"};
  } else if (algo == "cc" || algo == "sssp") {
    graph::Graph directed = graph::Rmat(8, 4, &rng);
    graph::Graph g(directed.num_vertices(), /*directed=*/false);
    for (const graph::Edge& e : directed.edges()) {
      EXPECT_TRUE(g.AddEdge(e.src, e.dst).ok());
    }
    c.data.emplace("edges", algos::EdgePairs(g, kParts));
    std::vector<Record> workset, solution;
    for (int64_t v = 0; v < g.num_vertices(); ++v) {
      workset.push_back(MakeRecord(v, algo == "cc" ? v : v % 5));
      solution.push_back(MakeRecord(v, algo == "cc" ? v : int64_t{3}));
    }
    c.data.emplace("workset", Hashed(std::move(workset)));
    c.data.emplace("solution", Hashed(std::move(solution)));
    c.plan = algo == "cc" ? algos::BuildConnectedComponentsPlan()
                          : algos::BuildSsspPlan();
    c.volatile_bindings = {"workset", "solution"};
  } else if (algo == "kmeans") {
    std::vector<algos::Point> points =
        algos::GenerateBlobs(4, 60, 10.0, 1.0, &rng);
    std::vector<Record> rows, centroids;
    for (size_t i = 0; i < points.size(); ++i) {
      rows.push_back(
          MakeRecord(static_cast<int64_t>(i), points[i].x, points[i].y));
    }
    std::vector<algos::Point> initial = algos::InitialCentroids(points, 4);
    for (int k = 0; k < 4; ++k) {
      centroids.push_back(
          MakeRecord(int64_t{k}, initial[k].x, initial[k].y));
    }
    c.plan = algos::BuildKMeansPlan();
    c.data.emplace("points", Hashed(std::move(rows)));
    c.data.emplace("state", Hashed(std::move(centroids)));
    c.volatile_bindings = {"state"};
  } else {  // als
    const int rank = 2;
    std::vector<Record> ratings, state;
    for (const algos::Rating& r :
         algos::GenerateRatings(12, 9, rank, 0.5, 0.01, &rng)) {
      ratings.push_back(MakeRecord(r.user, r.item, r.value));
    }
    for (int64_t kind : {0, 1}) {
      for (int64_t id = 0; id < (kind == 0 ? 12 : 9); ++id) {
        Record row = MakeRecord(kind, id);
        for (double f : algos::InitialFactorRow(id, rank, kind == 1)) {
          row.emplace_back(f);
        }
        state.push_back(std::move(row));
      }
    }
    c.plan = algos::BuildAlsPlan(rank, 0.1);
    c.data.emplace("ratings", Hashed(std::move(ratings)));
    c.data.emplace("state", PartitionedDataset::HashPartitioned(
                                std::move(state), {0, 1}, kParts));
    c.volatile_bindings = {"state"};
  }
  return c;
}

/// `plan` with every non-source node also declared an output.
Plan Materialized(const Plan& plan) {
  Plan copy = plan;
  for (const auto& node : plan.nodes()) {
    if (node.kind != dataflow::OpKind::kSource) {
      copy.Output(node.id, "materialized:" + node.name);
    }
  }
  return copy;
}

/// Everything one run of three supersteps observably produced.
struct RunResult {
  std::vector<std::map<std::string, PartitionedDataset>> outputs;
  std::vector<ExecStats> stats;
  std::map<runtime::Charge, int64_t> sim;
  runtime::MetricsSnapshot metrics;
  int64_t chained_spans = 0;
};

RunResult RunSteps(const StepCase& c, const Plan& plan, int threads,
                   bool cache) {
  RunResult out;
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::MetricsSink metrics;
  runtime::Tracer tracer;
  ExecCache exec_cache(c.volatile_bindings);
  ExecOptions options;
  options.num_partitions = kParts;
  options.num_threads = threads;
  options.clock = &clock;
  options.costs = &costs;
  options.metrics = &metrics;
  options.tracer = &tracer;
  options.cache = cache ? &exec_cache : nullptr;
  Executor executor(options);

  std::map<std::string, PartitionedDataset> data = c.data;
  for (int step = 0; step < 3; ++step) {
    Bindings bindings;
    for (const auto& [name, ds] : data) bindings[name] = &ds;
    ExecStats stats;
    auto result = executor.Execute(plan, bindings, &stats);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return out;
    // Feed the bulk plans' next state back, so supersteps differ.
    if (result->count("next_state") > 0) {
      data["state"] = result->at("next_state");
    }
    out.outputs.push_back(std::move(*result));
    out.stats.push_back(std::move(stats));
  }
  for (int ch = 0; ch < runtime::kNumCharges; ++ch) {
    const auto charge = static_cast<runtime::Charge>(ch);
    out.sim[charge] = clock.Of(charge);
  }
  out.metrics = metrics.Collect();
  for (auto it = out.metrics.counters.begin();
       it != out.metrics.counters.end();) {
    it = it->first.rfind("pool.", 0) == 0 ? out.metrics.counters.erase(it)
                                          : std::next(it);
  }
  for (const auto& e : tracer.Flush().events) {
    if (e.category == "operator" && e.partition < 0) {
      out.chained_spans += e.Arg("chained") > 0 ? 1 : 0;
    }
  }
  return out;
}

void ExpectSameStats(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.records_processed, b.records_processed);
  EXPECT_EQ(a.messages_shuffled, b.messages_shuffled);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.records_not_reshuffled, b.records_not_reshuffled);
  EXPECT_EQ(a.messages_replayed, b.messages_replayed);
  EXPECT_EQ(a.node_output_counts, b.node_output_counts);
}

using CaseParam = std::tuple<std::string, int, bool>;

class ChainingTest : public ::testing::TestWithParam<CaseParam> {};

/// Every shipped step plan at 1 and 4 threads, without and with the cache.
auto StepCases() {
  return ::testing::Combine(
      ::testing::Values("pagerank", "cc", "sssp", "kmeans", "als"),
      ::testing::Values(1, 4), ::testing::Bool());
}

/// "<algo>_t<threads>_<cache|nocache>".
std::string CaseName(const ::testing::TestParamInfo<CaseParam>& info) {
  return std::get<0>(info.param) + "_t" +
         std::to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_cache" : "_nocache");
}

TEST_P(ChainingTest, ChainedRunMatchesMaterializedRun) {
  const auto& [algo, threads, cache] = GetParam();
  const StepCase c = MakeCase(algo);
  const RunResult chained = RunSteps(c, c.plan, threads, cache);
  const RunResult oracle = RunSteps(c, Materialized(c.plan), threads, cache);
  ASSERT_EQ(chained.outputs.size(), 3u);
  ASSERT_EQ(oracle.outputs.size(), 3u);

  EXPECT_GT(chained.chained_spans, 0) << "no chain ran";
  EXPECT_EQ(oracle.chained_spans, 0);
  for (size_t step = 0; step < chained.outputs.size(); ++step) {
    for (const auto& [name, ds] : chained.outputs[step]) {
      ASSERT_EQ(oracle.outputs[step].count(name), 1u) << name;
      const PartitionedDataset& want = oracle.outputs[step].at(name);
      ASSERT_EQ(ds.num_partitions(), want.num_partitions());
      for (int p = 0; p < ds.num_partitions(); ++p) {
        EXPECT_EQ(ds.partition(p), want.partition(p))
            << name << " step " << step << " partition " << p;
      }
    }
    ExpectSameStats(chained.stats[step], oracle.stats[step]);
  }
  EXPECT_EQ(chained.sim, oracle.sim);
  EXPECT_EQ(chained.metrics.counters, oracle.metrics.counters);
  EXPECT_EQ(chained.metrics.histograms, oracle.metrics.histograms);
}

INSTANTIATE_TEST_SUITE_P(StepPlans, ChainingTest, StepCases(), CaseName);

class ShippedPlanReplayTest : public ChainingTest {};

TEST_P(ShippedPlanReplayTest, ReplayedPartitionsMatchExecute) {
  // Confined-log recovery (DESIGN.md §14) of every shipped step plan: one
  // logged Execute, then Replay from the static bindings alone. The lost
  // partitions of every output are Execute's bytes, and the recovery
  // charge per lost set is pinned; it is the same at any thread count and
  // with or without the cache.
  const auto& [algo, threads, cache] = GetParam();
  const std::vector<int> kLost[3] = {{1}, {0, 3}, {0, 1, 2, 3}};
  const std::map<std::string, std::vector<int64_t>> kRecoveryNs = {
      {"pagerank", {183100, 264500, 601100}},
      {"cc", {135000, 208350, 461100}},
      {"sssp", {137500, 210050, 463600}},
      {"kmeans", {6300, 2100, 8300}},
      {"als", {3150, 12450, 21450}},
  };
  const StepCase c = MakeCase(algo);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::MessageLog log(c.volatile_bindings);
  ExecCache exec_cache(c.volatile_bindings);
  ExecOptions options;
  options.num_partitions = kParts;
  options.num_threads = threads;
  options.clock = &clock;
  options.costs = &costs;
  options.message_log = &log;
  options.cache = cache ? &exec_cache : nullptr;
  Executor executor(options);

  Bindings bindings, statics;
  for (const auto& [name, ds] : c.data) {
    bindings[name] = &ds;
    if (std::find(c.volatile_bindings.begin(), c.volatile_bindings.end(),
                  name) == c.volatile_bindings.end()) {
      statics[name] = &ds;
    }
  }
  auto executed = executor.Execute(c.plan, bindings, nullptr);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  for (int i = 0; i < 3; ++i) {
    const int64_t before = clock.Of(runtime::Charge::kRecovery);
    auto replayed = executor.Replay(c.plan, statics, kLost[i], &log, nullptr);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    for (const auto& [name, ds] : *executed) {
      for (int p : kLost[i]) {
        EXPECT_EQ(replayed->at(name).partition(p), ds.partition(p))
            << name << " partition " << p << " lost set " << i;
      }
    }
    EXPECT_EQ(clock.Of(runtime::Charge::kRecovery) - before,
              kRecoveryNs.at(algo)[i])
        << "lost set " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(StepPlans, ShippedPlanReplayTest, StepCases(),
                         CaseName);

// ------------------------------------ typed channels, in-place inputs --

/// `plan` rebuilt through the public builder without its DeclareReduce
/// calls, so every reduce folds records with its combiner. Covers the
/// operator kinds of the PageRank, CC and SSSP step plans.
Plan Undeclared(const Plan& plan) {
  using dataflow::OpKind;
  Plan copy;
  for (const dataflow::PlanNode& node : plan.nodes()) {
    const std::vector<dataflow::NodeId>& in = node.inputs;
    switch (node.kind) {
      case OpKind::kSource:
        copy.Source(node.source_name);
        break;
      case OpKind::kMap:
        copy.Map(in[0], node.map_fn, node.name);
        break;
      case OpKind::kFlatMap:
        copy.FlatMap(in[0], node.flat_map_fn, node.name);
        break;
      case OpKind::kFilter:
        copy.Filter(in[0], node.filter_fn, node.name);
        break;
      case OpKind::kProject:
        copy.Project(in[0], node.project_columns, node.name);
        break;
      case OpKind::kUnion:
        copy.Union(in[0], in[1], node.name);
        break;
      case OpKind::kCross:
        copy.Cross(in[0], in[1], node.join_fn, node.name);
        break;
      case OpKind::kJoin:
        copy.Join(in[0], in[1], node.left_key, node.right_key, node.join_fn,
                  node.name);
        break;
      case OpKind::kReduceByKey:
        copy.ReduceByKey(in[0], node.left_key, node.combine_fn, node.name,
                         node.pre_combine);
        break;
      default:
        ADD_FAILURE() << "Undeclared: unhandled operator " << node.name;
        return copy;
    }
  }
  for (const auto& [name, id] : plan.outputs()) copy.Output(id, name);
  return copy;
}

/// The declared reduces of `plan`, by name.
std::vector<std::string> DeclaredReduces(const Plan& plan) {
  std::vector<std::string> names;
  for (const dataflow::PlanNode& node : plan.nodes()) {
    if (node.reduce_kind != dataflow::ReduceKind::kNone) {
      names.push_back(node.name);
    }
  }
  return names;
}

void ExpectSameRuns(const RunResult& got, const RunResult& want) {
  ASSERT_EQ(got.outputs.size(), want.outputs.size());
  for (size_t step = 0; step < got.outputs.size(); ++step) {
    ASSERT_EQ(got.outputs[step].size(), want.outputs[step].size());
    for (const auto& [name, ds] : got.outputs[step]) {
      const PartitionedDataset& other = want.outputs[step].at(name);
      ASSERT_EQ(ds.num_partitions(), other.num_partitions());
      for (int p = 0; p < ds.num_partitions(); ++p) {
        EXPECT_EQ(ds.partition(p), other.partition(p))
            << name << " step " << step << " partition " << p;
      }
    }
    ExpectSameStats(got.stats[step], want.stats[step]);
  }
  EXPECT_EQ(got.sim, want.sim);
  EXPECT_EQ(got.metrics.counters, want.metrics.counters);
  EXPECT_EQ(got.metrics.histograms, want.metrics.histograms);
}

using DeclaredParam = std::tuple<std::string, int>;

class DeclaredReduceTest : public ::testing::TestWithParam<DeclaredParam> {};

TEST_P(DeclaredReduceTest, ShippedDeclarationChangesNothingObservable) {
  // PageRank's recompute-ranks and dangling-mass, CC's candidate-label and
  // SSSP's min-distance ship their pre-combined partials as typed pairs;
  // the same plan without the declarations ships records. Outputs,
  // ExecStats, the SimClock per charge and the metrics snapshot must not
  // tell them apart.
  const auto& [algo, threads] = GetParam();
  const StepCase c = MakeCase(algo);
  const std::map<std::string, std::vector<std::string>> kDeclared = {
      {"pagerank", {"recompute-ranks", "dangling-mass"}},
      {"cc", {"candidate-label"}},
      {"sssp", {"min-distance"}},
  };
  ASSERT_EQ(DeclaredReduces(c.plan), kDeclared.at(algo));
  const Plan undeclared = Undeclared(c.plan);
  ASSERT_TRUE(DeclaredReduces(undeclared).empty());
  ASSERT_EQ(undeclared.Explain(), c.plan.Explain());
  for (bool cache : {false, true}) {
    SCOPED_TRACE(cache ? "cache" : "no cache");
    ExpectSameRuns(RunSteps(c, c.plan, threads, cache),
                   RunSteps(c, undeclared, threads, cache));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShippedReduces, DeclaredReduceTest,
    ::testing::Combine(::testing::Values("pagerank", "cc", "sssp"),
                       ::testing::Values(1, 2, 8)),
    [](const ::testing::TestParamInfo<DeclaredParam>& info) {
      return std::get<0>(info.param) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

TEST(InPlaceTest, ConfinedLogAppendsInPlaceAndTypedChannels) {
  // The shipped plans' volatile state is hash-partitioned on the join key,
  // so its shuffles read it in place, and their declared reduces ship
  // typed pairs. Every loop-variant channel must still be logged, an
  // in-place one with the input's own bytes, and Replay must rebuild the
  // lost partitions from them byte for byte.
  for (const std::string algo : {"pagerank", "cc"}) {
    SCOPED_TRACE(algo);
    const StepCase c = MakeCase(algo);
    runtime::MessageLog log(c.volatile_bindings);
    ExecOptions options;
    options.num_partitions = kParts;
    options.num_threads = 2;
    options.message_log = &log;
    Executor executor(options);
    Bindings bindings, statics;
    for (const auto& [name, ds] : c.data) {
      bindings[name] = &ds;
      if (std::find(c.volatile_bindings.begin(), c.volatile_bindings.end(),
                    name) == c.volatile_bindings.end()) {
        statics[name] = &ds;
      }
    }
    auto executed = executor.Execute(c.plan, bindings, nullptr);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();

    const std::vector<bool> invariant =
        c.plan.InvariantNodes(c.volatile_bindings);
    int logged = 0;
    for (const dataflow::PlanNode& node : c.plan.nodes()) {
      const std::vector<dataflow::InputRoute> routes = InputRoutes(node);
      for (size_t i = 0; i < routes.size(); ++i) {
        if (routes[i].kind != dataflow::InputRoute::kShuffled ||
            invariant[node.inputs[i]]) {
          continue;
        }
        char channel[32];
        std::snprintf(channel, sizeof(channel), "n%04d.%s", node.id,
                      routes[i].port);
        ASSERT_TRUE(log.Has(channel)) << channel;
        ++logged;
        const dataflow::PlanNode& input = c.plan.node(node.inputs[i]);
        if (input.kind != dataflow::OpKind::kSource) continue;
        // A hash-partitioned volatile source was read in place.
        auto data = log.Channel(channel, nullptr);
        ASSERT_TRUE(data.ok());
        const PartitionedDataset& source = c.data.at(input.source_name);
        for (int p = 0; p < kParts; ++p) {
          EXPECT_EQ((*data)->partition(p), source.partition(p)) << channel;
        }
      }
    }
    EXPECT_EQ(logged, 4);
    for (const std::vector<int>& lost :
         {std::vector<int>{1}, std::vector<int>{0, 2, 3}}) {
      auto replayed = executor.Replay(c.plan, statics, lost, &log, nullptr);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      for (const auto& [name, ds] : *executed) {
        for (int p : lost) {
          EXPECT_EQ(replayed->at(name).partition(p), ds.partition(p))
              << name << " partition " << p;
        }
      }
    }
  }
}

TEST(InPlaceTest, ChainedJoinReadsInPlaceSideAfterItsOwnPosition) {
  // Regression: "sums" is partitioned on the join key, so "joined" reads
  // it in place; "joined" is chained into "out" and runs at out's position,
  // after its own. The executor must keep "sums" alive until then (CC's
  // candidate-label, read by label-update chained into updated-labels, is
  // the shipped instance).
  Plan plan;
  auto in = plan.Source("in");
  auto other = plan.Source("other");
  auto sums = plan.ReduceByKey(
      in, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsInt64() + b[1].AsInt64());
      },
      "sums");
  auto joined = plan.Join(
      sums, other, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(), l[1].AsInt64() * r[1].AsInt64());
      },
      "joined");
  auto out = plan.Map(joined, [](const Record& r) { return r; }, "out");
  plan.Output(out, "out");

  std::vector<Record> rows, others;
  for (int64_t i = 0; i < 300; ++i) rows.push_back(MakeRecord(i % 37, i));
  for (int64_t k = 0; k < 37; ++k) others.push_back(MakeRecord(k, k + 2));
  const PartitionedDataset data =
      PartitionedDataset::RoundRobin(std::move(rows), kParts);
  const PartitionedDataset other_data = Hashed(std::move(others));
  for (int threads : {1, 4}) {
    ExecOptions options;
    options.num_partitions = kParts;
    options.num_threads = threads;
    runtime::Tracer tracer;
    options.tracer = &tracer;
    Executor executor(options);
    const Bindings bindings = {{"in", &data}, {"other", &other_data}};
    auto chained = executor.Execute(plan, bindings, nullptr);
    auto materialized = executor.Execute(Materialized(plan), bindings, nullptr);
    ASSERT_TRUE(chained.ok()) << chained.status().ToString();
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    for (int p = 0; p < kParts; ++p) {
      EXPECT_EQ(chained->at("out").partition(p),
                materialized->at("out").partition(p));
    }
    EXPECT_EQ(chained->at("out").NumRecords(), 37u);
    // Per Execute, only the sums pre-combine gathers, in one span: both
    // join sides are read in place.
    int gathers = 0;
    for (const auto& e : tracer.Flush().events) {
      gathers += e.category == "shuffle.gather" && e.partition < 0 ? 1 : 0;
    }
    EXPECT_EQ(gathers, 2);
  }
}

TEST(ChainingSpillTest, ChainedJoinSurvivesItsBuildSideSpillingBeforeItRuns) {
  // "first" is chained into "out-first", whose position comes after the
  // "second" join: filling or reloading the second build side under a
  // one-byte budget spills the first one before the chained join's body
  // runs, so the section must read the side and index its stage pinned.
  Plan plan;
  auto static1 = plan.Source("static1");
  auto static2 = plan.Source("static2");
  auto vol = plan.Source("volatile");
  auto join = [](const Record& l, const Record& r) {
    return MakeRecord(l[1].AsInt64(), l[1].AsInt64() + r[1].AsInt64());
  };
  auto first = plan.Join(static1, vol, {0}, {0}, join, "first");
  auto second = plan.Join(static2, vol, {0}, {0}, join, "second");
  auto out = plan.Map(first, [](const Record& r) { return r; }, "out-first");
  plan.Output(out, "first");
  plan.Output(second, "second");

  std::vector<Record> s1, s2, v;
  for (int64_t k = 0; k < 200; ++k) {
    s1.push_back(MakeRecord(k % 50, k));
    s2.push_back(MakeRecord(k % 40, 3 * k));
    v.push_back(MakeRecord(k % 60, k + 1));
  }
  const PartitionedDataset d1 = Hashed(s1), d2 = Hashed(s2), dv = Hashed(v);

  auto run = [&](const Plan& p, int threads) {
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::StableStorage storage(&clock, &costs);
    runtime::MemoryManager manager(/*budget_bytes=*/1);
    ExecCache cache({"volatile"});
    cache.AttachMemoryManager(&manager, &storage, "job");
    ExecOptions options;
    options.num_partitions = kParts;
    options.num_threads = threads;
    options.clock = &clock;
    options.costs = &costs;
    options.cache = &cache;
    Executor executor(options);
    std::vector<std::map<std::string, PartitionedDataset>> outs;
    for (int step = 0; step < 2; ++step) {
      auto result = executor.Execute(
          p, {{"static1", &d1}, {"static2", &d2}, {"volatile", &dv}},
          nullptr);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) outs.push_back(std::move(*result));
    }
    EXPECT_GT(manager.stats().spills, 0u);
    return std::make_pair(outs, clock.TotalNs());
  };
  for (int threads : {1, 4}) {
    const auto [chained, chained_ns] = run(plan, threads);
    const auto [oracle, oracle_ns] = run(Materialized(plan), threads);
    ASSERT_EQ(chained.size(), 2u);
    ASSERT_EQ(oracle.size(), 2u);
    for (size_t step = 0; step < 2; ++step) {
      for (const char* name : {"first", "second"}) {
        for (int p = 0; p < kParts; ++p) {
          EXPECT_EQ(chained[step].at(name).partition(p),
                    oracle[step].at(name).partition(p));
        }
      }
    }
    EXPECT_EQ(chained_ns, oracle_ns);
  }
}

// ------------------------------------------------- the streamed fold --

PartitionedDataset KeyValues(int n) {
  std::vector<Record> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(MakeRecord(int64_t{i % 7}, 0.5 * i + 0.125));
  }
  return Hashed(std::move(rows));
}

/// Map -> ReduceByKey(pre-combine) with `map` and `combine`, the reduce
/// declared kSumDouble when `declare` is set.
Plan FoldPlan(dataflow::MapFn map, dataflow::CombineFn combine,
              bool declare) {
  Plan plan;
  auto in = plan.Source("in");
  auto mapped = plan.Map(in, std::move(map), "shape");
  auto sums = plan.ReduceByKey(mapped, {0}, std::move(combine), "sum",
                               /*pre_combine=*/true);
  if (declare) plan.DeclareReduce(sums, dataflow::ReduceKind::kSumDouble, 1);
  plan.Output(sums, "out");
  return plan;
}

Result<std::map<std::string, PartitionedDataset>> RunFold(
    const Plan& plan, const PartitionedDataset& in, int threads) {
  ExecOptions options;
  options.num_partitions = kParts;
  options.num_threads = threads;
  Executor executor(options);
  return executor.Execute(plan, {{"in", &in}}, nullptr);
}

/// Sums column 1 as a double whatever its type, keeping the key.
Record SumAny(const Record& a, const Record& b) {
  auto num = [](const dataflow::Value& v) {
    return v.is_double() ? v.AsDouble() : static_cast<double>(v.AsInt64());
  };
  return MakeRecord(a[0].AsInt64(), num(a[1]) + num(b[1]));
}

TEST(StreamedFoldTest, TypedFoldFallsBackMidPartitionWithSameOutput) {
  const PartitionedDataset in = KeyValues(400);
  // One row of the wrong shape (an int64 value) in the middle of the
  // partition holding record 200: every row before it has folded typed.
  auto map = [](const Record& r) {
    if (r[1].AsDouble() == 0.5 * 200 + 0.125) {
      return MakeRecord(r[0].AsInt64(), int64_t{3});
    }
    return r;
  };
  for (int threads : {1, 4}) {
    auto chained = RunFold(FoldPlan(map, SumAny, true), in, threads);
    auto materialized =
        RunFold(Materialized(FoldPlan(map, SumAny, true)), in, threads);
    // The generic fold over every row is the reference the declaration
    // promises to equal.
    auto generic = RunFold(FoldPlan(map, SumAny, false), in, threads);
    ASSERT_TRUE(chained.ok()) << chained.status().ToString();
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    ASSERT_TRUE(generic.ok()) << generic.status().ToString();
    for (int p = 0; p < kParts; ++p) {
      EXPECT_EQ(chained->at("out").partition(p),
                materialized->at("out").partition(p));
      EXPECT_EQ(chained->at("out").partition(p),
                generic->at("out").partition(p));
    }
    EXPECT_EQ(chained->at("out").NumRecords(), 7u);
  }
}

TEST(StreamedFoldTest, ChannelTakesRecordPathWhenOneSourceLeavesTheShape) {
  // One source partition's fold leaves the typed shape partway through, so
  // the whole channel ships records: the declared plan's outputs,
  // ExecStats, SimClock charges and metrics equal the undeclared plan's.
  const PartitionedDataset in = KeyValues(400);
  auto map = [](const Record& r) {
    if (r[1].AsDouble() == 0.5 * 200 + 0.125) {
      return MakeRecord(r[0].AsInt64(), int64_t{3});
    }
    return r;
  };
  auto run = [&](bool declare, int threads) {
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsSink metrics;
    ExecOptions options;
    options.num_partitions = kParts;
    options.num_threads = threads;
    options.clock = &clock;
    options.costs = &costs;
    options.metrics = &metrics;
    Executor executor(options);
    ExecStats stats;
    auto out = executor.Execute(FoldPlan(map, SumAny, declare), {{"in", &in}},
                                &stats);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    RunResult result;
    if (out.ok()) result.outputs.push_back(std::move(*out));
    result.stats.push_back(stats);
    for (int ch = 0; ch < runtime::kNumCharges; ++ch) {
      const auto charge = static_cast<runtime::Charge>(ch);
      result.sim[charge] = clock.Of(charge);
    }
    result.metrics = metrics.Collect();
    result.metrics.counters.erase(runtime::metric::kPoolParallelSections);
    result.metrics.counters.erase(runtime::metric::kPoolTasks);
    return result;
  };
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    const RunResult declared = run(true, threads);
    ExpectSameRuns(declared, run(false, threads));
    ASSERT_EQ(declared.outputs.size(), 1u);
    EXPECT_EQ(declared.outputs[0].at("out").NumRecords(), 7u);
  }
}

TEST(StreamedFoldTest, KeyChangingCombinerFailsLikeMaterializedRun) {
  const PartitionedDataset in = KeyValues(100);
  auto identity = [](const Record& r) { return r; };
  auto rekey = [](const Record& a, const Record& b) {
    return MakeRecord(a[0].AsInt64() + 100, a[1].AsDouble() + b[1].AsDouble());
  };
  auto chained = RunFold(FoldPlan(identity, rekey, false), in, 4);
  auto materialized =
      RunFold(Materialized(FoldPlan(identity, rekey, false)), in, 4);
  ASSERT_FALSE(chained.ok());
  EXPECT_EQ(chained.status().ToString(), materialized.status().ToString());
  EXPECT_NE(chained.status().message().find("combiner changed the key"),
            std::string::npos)
      << chained.status().ToString();
}

TEST(StreamedFoldTest, ChainedProjectErrorMatchesMaterializedRun) {
  const PartitionedDataset in = KeyValues(50);
  Plan plan;
  auto src = plan.Source("in");
  auto projected = plan.Project(src, {0, 1, 4}, "widen");
  auto doubled = plan.Map(
      projected, [](const Record& r) { return r; }, "pass");
  plan.Output(doubled, "out");
  auto chained = RunFold(plan, in, 4);
  auto materialized = RunFold(Materialized(plan), in, 4);
  ASSERT_FALSE(chained.ok());
  EXPECT_EQ(chained.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(chained.status().ToString(), materialized.status().ToString());
}

}  // namespace
}  // namespace flinkless
