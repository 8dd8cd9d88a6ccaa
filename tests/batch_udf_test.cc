// The batched UDF boundary and the int64-key fast paths (DESIGN.md §15):
// the striped index probe and cached-hash rebuild match their per-record
// equivalents; declared (typed) reduces match the generic combiner fold;
// batch Map/FlatMap impls match their record fns, fall back on
// heterogeneous input, and reject a dropped row; and on the two ported
// workloads outputs, stats and simulated time are byte-identical across
// thread counts and injected failures, with row_fallback_ops at zero.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "common/rng.h"
#include "core/policies.h"
#include "dataflow/columnar.h"
#include "dataflow/dataset.h"
#include "dataflow/executor.h"
#include "graph/generators.h"
#include "iteration/context.h"
#include "runtime/failure.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"

namespace flinkless {
namespace {

using dataflow::ColumnarBatch;
using dataflow::ExecOptions;
using dataflow::ExecStats;
using dataflow::Executor;
using dataflow::FlatKeyIndex;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;
using dataflow::ReduceKind;
using dataflow::ValueType;

/// Probe-stripe lengths for the prefix checks, from empty upward.
const std::vector<size_t> kSizes = {0, 1, 2, 3, 7, 16, 33, 100};

// ------------------------------------------------------ striped probes --

std::vector<Record> KeyedRows(size_t n, uint64_t key_space, uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(MakeRecord(static_cast<int64_t>(rng.NextBounded(key_space)),
                              static_cast<int64_t>(i)));
  }
  return rows;
}

void ExpectStripeMatchesFindFirst(const FlatKeyIndex& index,
                                  const std::vector<Record>& probes) {
  std::vector<int64_t> keys;
  ASSERT_TRUE(dataflow::ExtractKey64(probes, {0}, &keys));
  std::vector<uint64_t> hashes(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    hashes[i] = dataflow::HashInt64Key(keys[i]);
  }
  std::vector<int32_t> first(keys.size(), -2);
  index.FindFirstStripe(keys.data(), hashes.data(), keys.size(), first.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(first[i], index.FindFirst(probes[i], {0},
                                        dataflow::HashKey(probes[i], {0})))
        << "probe " << i;
  }
}

TEST(FlatKeyIndexStripeTest, FindFirstStripeMatchesFindFirst) {
  std::vector<Record> rows = KeyedRows(1500, 97, 11);
  // Probes: hits, misses, and short stripes.
  std::vector<Record> probes = KeyedRows(777, 160, 12);
  FlatKeyIndex index;
  index.Build(rows, {0});
  ASSERT_TRUE(index.key64_probe_ready());
  ExpectStripeMatchesFindFirst(index, probes);
  for (size_t n : kSizes) {
    std::vector<Record> head(probes.begin(),
                             probes.begin() + std::min(n, probes.size()));
    ExpectStripeMatchesFindFirst(index, head);
  }
}

TEST(FlatKeyIndexStripeTest, StripeHandlesAllDuplicateAndClusteredKeys) {
  // All-duplicate keys produce one long chain; adversarial key values
  // cluster hashes only if the mix function were broken — either way the
  // probe loop must terminate and match FindFirst.
  std::vector<Record> rows;
  for (int64_t i = 0; i < 300; ++i) {
    rows.push_back(MakeRecord(int64_t{42}, i));
  }
  std::vector<Record> probes;
  probes.push_back(MakeRecord(int64_t{42}, int64_t{0}));
  probes.push_back(MakeRecord(int64_t{43}, int64_t{0}));
  probes.push_back(MakeRecord(std::numeric_limits<int64_t>::min(), int64_t{0}));
  FlatKeyIndex index;
  index.Build(rows, {0});
  ASSERT_TRUE(index.key64_probe_ready());
  ExpectStripeMatchesFindFirst(index, probes);
}

TEST(FlatKeyIndexStripeTest, BuildWithHashesMatchesPlainBuild) {
  std::vector<Record> rows = KeyedRows(1200, 64, 21);
  FlatKeyIndex plain;
  plain.Build(rows, {0});

  FlatKeyIndex adopted;
  adopted.BuildWithHashes(rows, {0}, std::vector<uint64_t>(plain.row_hashes()));
  EXPECT_EQ(adopted.row_hashes(), plain.row_hashes());
  ASSERT_EQ(adopted.heads(), plain.heads());
  for (int32_t head : plain.heads()) {
    for (int32_t r = head; r >= 0; r = plain.Next(r)) {
      EXPECT_EQ(adopted.Next(r), plain.Next(r));
    }
  }

  // A size mismatch must fall back to a plain (re-hashing) Build.
  FlatKeyIndex fallback;
  fallback.BuildWithHashes(rows, {0}, std::vector<uint64_t>(3, 0));
  EXPECT_EQ(fallback.row_hashes(), plain.row_hashes());
  EXPECT_EQ(fallback.heads(), plain.heads());
}

// ------------------------------------------- executor-level equivalences --

Plan BuildTypedReducePlan(ReduceKind kind, bool declare) {
  Plan plan;
  auto src = plan.Source("in");
  dataflow::NodeId reduced;
  switch (kind) {
    case ReduceKind::kSumInt64:
      reduced = plan.ReduceByKey(
          src, {0},
          [](const Record& a, const Record& b) {
            // Wrapping add, as the typed fold does (no signed overflow).
            return MakeRecord(
                a[0].AsInt64(),
                static_cast<int64_t>(static_cast<uint64_t>(a[1].AsInt64()) +
                                     static_cast<uint64_t>(b[1].AsInt64())));
          },
          "sum64", /*pre_combine=*/true);
      break;
    case ReduceKind::kMinInt64:
      reduced = plan.ReduceByKey(
          src, {0},
          [](const Record& a, const Record& b) {
            return MakeRecord(a[0].AsInt64(),
                              std::min(a[1].AsInt64(), b[1].AsInt64()));
          },
          "min64", /*pre_combine=*/true);
      break;
    case ReduceKind::kMaxInt64:
      reduced = plan.ReduceByKey(
          src, {0},
          [](const Record& a, const Record& b) {
            return MakeRecord(a[0].AsInt64(),
                              std::max(a[1].AsInt64(), b[1].AsInt64()));
          },
          "max64", /*pre_combine=*/true);
      break;
    default:
      reduced = plan.ReduceByKey(
          src, {0},
          [](const Record& a, const Record& b) {
            return MakeRecord(a[0].AsInt64(), a[1].AsDouble() + b[1].AsDouble());
          },
          "sumf64", /*pre_combine=*/true);
      break;
  }
  if (declare) plan.DeclareReduce(reduced, kind, 1);
  plan.Output(reduced, "out");
  return plan;
}

class BatchUdfTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchUdfTest, TypedReduceMatchesGenericReduce) {
  const int threads = GetParam();
  // 150 keys, and one key: a single-group partition after the shuffle
  // (the shape of global aggregates such as PageRank's dangling mass).
  for (uint64_t key_space : {uint64_t{150}, uint64_t{1}}) {
    for (ReduceKind kind : {ReduceKind::kSumInt64, ReduceKind::kMinInt64,
                            ReduceKind::kMaxInt64, ReduceKind::kSumDouble}) {
      Rng rng(17);
      std::vector<Record> records;
      for (int64_t i = 0; i < 3000; ++i) {
        int64_t key = static_cast<int64_t>(rng.NextBounded(key_space));
        if (kind == ReduceKind::kSumDouble) {
          records.push_back(MakeRecord(key, static_cast<double>(i) * 0.5));
        } else {
          // Duplicated extremes exercise the <=/>= keep-first tie rule.
          int64_t v = (i % 11 == 0) ? std::numeric_limits<int64_t>::min() + i
                                    : static_cast<int64_t>(rng.Next() >> 1);
          records.push_back(MakeRecord(key, v));
        }
      }
      auto in = PartitionedDataset::RoundRobin(std::move(records), 8);

      auto run = [&](bool declare, ExecStats* stats, runtime::SimClock* clock,
                     const runtime::CostModel* costs) {
        Plan plan = BuildTypedReducePlan(kind, declare);
        ExecOptions options;
        options.num_partitions = 8;
        options.num_threads = threads;
        options.clock = clock;
        options.costs = costs;
        Executor executor(options);
        auto outs = executor.Execute(plan, {{"in", &in}}, stats);
        EXPECT_TRUE(outs.ok()) << outs.status().ToString();
        return std::move(outs->at("out"));
      };

      runtime::CostModel costs;
      runtime::SimClock typed_clock, generic_clock;
      ExecStats typed_stats, generic_stats;
      PartitionedDataset typed = run(true, &typed_stats, &typed_clock, &costs);
      PartitionedDataset generic =
          run(false, &generic_stats, &generic_clock, &costs);
      ASSERT_EQ(typed.num_partitions(), generic.num_partitions());
      for (int p = 0; p < typed.num_partitions(); ++p) {
        EXPECT_EQ(typed.partition(p), generic.partition(p))
            << "keys " << key_space << " kind " << static_cast<int>(kind)
            << " partition " << p;
      }
      EXPECT_EQ(typed_stats.records_processed, generic_stats.records_processed);
      EXPECT_EQ(typed_stats.messages_shuffled, generic_stats.messages_shuffled);
      EXPECT_EQ(typed_clock.TotalNs(), generic_clock.TotalNs());
    }
  }
}

TEST_P(BatchUdfTest, BatchMapImplMatchesRecordImplAndCountsModes) {
  const int threads = GetParam();
  // The same plan with and without BatchImpl: the record fns are the
  // semantic reference the batch impls must match row for row.
  auto build_plan = [](bool batched) {
    Plan plan;
    auto src = plan.Source("in");
    auto scaled = plan.Map(
        src,
        [](const Record& r) {
          return MakeRecord(r[0].AsInt64() * 3, r[1].AsDouble() + 1.0);
        },
        "scale");
    auto expanded = plan.FlatMap(
        scaled,
        [](const Record& r, std::vector<Record>* out) {
          if (r[0].AsInt64() % 2 == 0) out->push_back(r);
        },
        "evens");
    plan.Output(expanded, "out");
    if (!batched) return plan;
    plan.BatchImpl(scaled, [](const ColumnarBatch& in, ColumnarBatch* out) {
      out->Reset({ValueType::kInt64, ValueType::kDouble});
      std::vector<int64_t>& ids = out->MutableInt64Column(0);
      std::vector<double>& vals = out->MutableDoubleColumn(1);
      ids = in.Int64Column(0);
      vals = in.DoubleColumn(1);
      for (auto& id : ids) id *= 3;
      for (auto& v : vals) v += 1.0;
      out->FinishRows(in.num_rows());
    });
    plan.BatchImpl(expanded, [](const ColumnarBatch& in, ColumnarBatch* out) {
      out->Reset({ValueType::kInt64, ValueType::kDouble});
      std::vector<int64_t>& ids = out->MutableInt64Column(0);
      std::vector<double>& vals = out->MutableDoubleColumn(1);
      for (size_t i = 0; i < in.num_rows(); ++i) {
        if (in.Int64Column(0)[i] % 2 == 0) {
          ids.push_back(in.Int64Column(0)[i]);
          vals.push_back(in.DoubleColumn(1)[i]);
        }
      }
      out->FinishRows(ids.size());
    });
    return plan;
  };

  Rng rng(23);
  std::vector<Record> records;
  for (int64_t i = 0; i < 2000; ++i) {
    records.push_back(MakeRecord(static_cast<int64_t>(rng.NextBounded(500)),
                                 static_cast<double>(i)));
  }
  auto in = PartitionedDataset::RoundRobin(std::move(records), 8);

  auto run = [&](bool batched, ExecStats* stats, runtime::SimClock* clock,
                 const runtime::CostModel* costs) {
    Plan plan = build_plan(batched);
    ExecOptions options;
    options.num_partitions = 8;
    options.num_threads = threads;
    options.clock = clock;
    options.costs = costs;
    Executor executor(options);
    auto outs = executor.Execute(plan, {{"in", &in}}, stats);
    EXPECT_TRUE(outs.ok()) << outs.status().ToString();
    return std::move(outs->at("out"));
  };

  runtime::CostModel costs;
  runtime::SimClock batch_clock, record_clock;
  ExecStats batch_stats, record_stats;
  PartitionedDataset batch = run(true, &batch_stats, &batch_clock, &costs);
  PartitionedDataset record = run(false, &record_stats, &record_clock, &costs);
  ASSERT_EQ(batch.num_partitions(), record.num_partitions());
  for (int p = 0; p < batch.num_partitions(); ++p) {
    EXPECT_EQ(batch.partition(p), record.partition(p)) << "partition " << p;
  }
  EXPECT_EQ(batch_stats.records_processed, record_stats.records_processed);
  EXPECT_EQ(batch_clock.TotalNs(), record_clock.TotalNs());
  // Both declared UDFs ran batched — no record-fn fallback.
  EXPECT_EQ(batch_stats.batch_ops, 2u);
  EXPECT_EQ(batch_stats.row_fallback_ops, 0u);
  // Without batch impls the record fns run and neither mode is counted.
  EXPECT_EQ(record_stats.batch_ops, 0u);
  EXPECT_EQ(record_stats.row_fallback_ops, 0u);
}

TEST(BatchUdfTest, HeterogeneousInputFallsBackToRecordImpl) {
  Plan plan;
  auto src = plan.Source("in");
  auto first = plan.Map(
      src, [](const Record& r) { return MakeRecord(r[0].AsInt64()); },
      "first-col");
  plan.BatchImpl(first, [](const ColumnarBatch& in, ColumnarBatch* out) {
    out->Reset({ValueType::kInt64});
    out->MutableInt64Column(0) = in.Int64Column(0);
    out->FinishRows(in.num_rows());
  });
  plan.Output(first, "out");

  PartitionedDataset in(2);
  in.partition(0).push_back(MakeRecord(int64_t{1}, 2.0));
  in.partition(1).push_back(MakeRecord(int64_t{3}, std::string("mixed")));

  ExecOptions options;
  options.num_partitions = 2;
  Executor executor(options);
  ExecStats stats;
  auto outs = executor.Execute(plan, {{"in", &in}}, &stats);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  EXPECT_EQ(outs->at("out").partition(0), std::vector<Record>{MakeRecord(int64_t{1})});
  EXPECT_EQ(outs->at("out").partition(1), std::vector<Record>{MakeRecord(int64_t{3})});
  EXPECT_EQ(stats.batch_ops, 0u);
  EXPECT_EQ(stats.row_fallback_ops, 1u);
}

TEST(BatchUdfTest, BatchMapRowCountMismatchIsAnError) {
  Plan plan;
  auto src = plan.Source("in");
  auto bad = plan.Map(
      src, [](const Record& r) { return r; }, "identity");
  plan.BatchImpl(bad, [](const ColumnarBatch& in, ColumnarBatch* out) {
    // A kMap batch impl must preserve the row count; dropping rows is a
    // contract violation the executor converts into a clean error.
    out->Reset({ValueType::kInt64});
    if (in.num_rows() > 1) {
      out->MutableInt64Column(0).assign(in.num_rows() - 1, 0);
    }
    out->FinishRows(in.num_rows() > 1 ? in.num_rows() - 1 : 0);
  });
  plan.Output(bad, "out");

  std::vector<Record> records;
  for (int64_t i = 0; i < 100; ++i) records.push_back(MakeRecord(i));
  auto in = PartitionedDataset::RoundRobin(std::move(records), 2);

  ExecOptions options;
  options.num_partitions = 2;
  Executor executor(options);
  auto outs = executor.Execute(plan, {{"in", &in}}, nullptr);
  EXPECT_FALSE(outs.ok());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, BatchUdfTest, ::testing::Values(1, 2, 8));

// ------------------------------------------------ ported workloads --

struct AlgoRun {
  std::vector<double> pr_ranks;
  std::vector<int64_t> cc_labels;
  int pr_iterations = 0;
  int cc_supersteps = 0;
  uint64_t pr_messages = 0;
  uint64_t cc_messages = 0;
  int64_t pr_sim_ns = 0;
  int64_t cc_sim_ns = 0;
  uint64_t batch_ops = 0;
  uint64_t row_fallback_ops = 0;
  uint64_t schema_cache_hits = 0;
};

AlgoRun RunAlgos(int num_threads, bool with_failures) {
  AlgoRun out;
  Rng rng(2025);
  graph::Graph directed = graph::Rmat(9, 6, &rng);  // 512 vertices

  {  // PageRank (bulk) with the batched base-contribution UDF.
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::MetricsSink sink;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        with_failures ? std::vector<runtime::FailureEvent>{{3, {1}}, {7, {0, 2}}}
                      : std::vector<runtime::FailureEvent>{});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.metrics_sink = &sink;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "batch-pr";

    algos::PageRankOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    options.max_iterations = 10;
    algos::FixRanksCompensation fix(directed.num_vertices());
    core::OptimisticRecoveryPolicy policy(&fix);
    auto result = algos::RunPageRank(directed, options, env, &policy, nullptr);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.pr_ranks = result->ranks;
    out.pr_iterations = result->iterations;
    out.pr_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.pr_messages += it.messages_shuffled;
    }
    runtime::MetricsSnapshot snap = sink.Collect();
    out.batch_ops += snap.CounterTotal(runtime::metric::kExecBatchOps);
    out.row_fallback_ops +=
        snap.CounterTotal(runtime::metric::kExecRowFallbackOps);
    out.schema_cache_hits +=
        snap.CounterTotal(runtime::metric::kSchemaCacheHits);
  }

  {  // Connected components (delta) with the batched label-update UDF.
    graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
    for (const graph::Edge& e : directed.edges()) {
      Status s = undirected.AddEdge(e.src, e.dst);
      EXPECT_TRUE(s.ok());
    }
    runtime::SimClock clock;
    runtime::CostModel costs;
    runtime::MetricsRegistry metrics;
    runtime::MetricsSink sink;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        with_failures ? std::vector<runtime::FailureEvent>{{2, {3}}}
                      : std::vector<runtime::FailureEvent>{});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &metrics;
    env.metrics_sink = &sink;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "batch-cc";

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
    out.cc_sim_ns = clock.TotalNs();
    for (const auto& it : metrics.iterations()) {
      out.cc_messages += it.messages_shuffled;
    }
    runtime::MetricsSnapshot snap = sink.Collect();
    out.batch_ops += snap.CounterTotal(runtime::metric::kExecBatchOps);
    out.row_fallback_ops +=
        snap.CounterTotal(runtime::metric::kExecRowFallbackOps);
    out.schema_cache_hits +=
        snap.CounterTotal(runtime::metric::kSchemaCacheHits);
  }
  return out;
}

void ExpectRunsIdentical(const AlgoRun& a, const AlgoRun& b) {
  EXPECT_EQ(a.pr_ranks, b.pr_ranks);
  EXPECT_EQ(a.cc_labels, b.cc_labels);
  EXPECT_EQ(a.pr_iterations, b.pr_iterations);
  EXPECT_EQ(a.cc_supersteps, b.cc_supersteps);
  EXPECT_EQ(a.pr_messages, b.pr_messages);
  EXPECT_EQ(a.cc_messages, b.cc_messages);
  EXPECT_EQ(a.pr_sim_ns, b.pr_sim_ns);
  EXPECT_EQ(a.cc_sim_ns, b.cc_sim_ns);
}

class PortedWorkloadsTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(PortedWorkloadsTest, ThreadCountDoesNotChangeResults) {
  const auto [threads, failures] = GetParam();
  ExpectRunsIdentical(RunAlgos(1, failures), RunAlgos(threads, failures));
}

TEST_P(PortedWorkloadsTest, NeverFallBackToRowPath) {
  const auto [threads, failures] = GetParam();
  // The acceptance bar for the batched UDF boundary: every declared
  // Map/FlatMap on both headline workloads runs its batch impl — zero
  // row-path fallbacks.
  AlgoRun run = RunAlgos(threads, failures);
  EXPECT_GT(run.batch_ops, 0u);
  EXPECT_EQ(run.row_fallback_ops, 0u);
  // Multi-superstep runs resolve batch schemas from the per-node cache.
  EXPECT_GT(run.schema_cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndFailures, PortedWorkloadsTest,
    ::testing::Combine(::testing::Values(1, 2, 8), ::testing::Bool()));

}  // namespace
}  // namespace flinkless
