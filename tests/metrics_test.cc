// Metrics v2: histogram bucketing, sink merge semantics, exporter goldens
// (NDJSON + Prometheus text), WriteMetricsFile, and the determinism
// contract — a metrics export of a PageRank or Connected Components run is
// byte-identical at any thread count, with and without injected failures
// (DESIGN.md §13).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "common/rng.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "iteration/policy.h"
#include "runtime/metrics.h"
#include "runtime/stable_storage.h"
#include "runtime/thread_pool.h"

namespace flinkless::runtime {
namespace {

// --------------------------------------------------------------- histogram --

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds <= 0; bucket b holds [2^(b-1), 2^b - 1]; the last bucket
  // is the overflow.
  EXPECT_EQ(Histogram::BucketOf(-5), 0);
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(7), 3);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  EXPECT_EQ(Histogram::BucketOf(INT64_MAX), Histogram::kNumBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(Histogram::BucketUpperBound(11), 2047);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            INT64_MAX);
}

TEST(HistogramTest, ObserveTracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  h.Observe(5);
  h.Observe(1);
  h.Observe(100);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 106);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), 106.0 / 3.0);
}

TEST(HistogramTest, MergeMatchesSequentialObserve) {
  // The fixed bounds make the merge a plain bucket-wise sum: merging two
  // shards must equal observing the union sequentially.
  std::vector<int64_t> a = {0, 1, 3, 900};
  std::vector<int64_t> b = {2, 2, 64, 1 << 20};
  Histogram shard_a, shard_b, sequential;
  for (int64_t v : a) {
    shard_a.Observe(v);
    sequential.Observe(v);
  }
  for (int64_t v : b) {
    shard_b.Observe(v);
    sequential.Observe(v);
  }
  Histogram merged = shard_a;
  merged.MergeFrom(shard_b);
  EXPECT_EQ(merged, sequential);
}

// -------------------------------------------------------------------- sink --

TEST(MetricsSinkTest, CountersMergeAcrossPartitions) {
  MetricsSink sink;
  sink.Count(metric::kExecRecords, 0, 10);
  sink.Count(metric::kExecRecords, 1, 20);
  sink.Count(metric::kExecRecords, 0, 5);
  sink.Count(metric::kCacheHits, -1);

  MetricsSnapshot snap = sink.Collect();
  EXPECT_EQ(snap.Counter(metric::kExecRecords, 0), 15u);
  EXPECT_EQ(snap.Counter(metric::kExecRecords, 1), 20u);
  EXPECT_EQ(snap.CounterTotal(metric::kExecRecords), 35u);
  EXPECT_EQ(snap.CounterTotal(metric::kCacheHits), 1u);
  EXPECT_EQ(snap.CounterTotal("never.recorded"), 0u);
}

TEST(MetricsSinkTest, MergeFoldsLocalHistogram) {
  MetricsSink sink;
  sink.Observe(metric::kHistProbeChain, 1);
  Histogram local;
  local.Observe(2);
  local.Observe(3);
  sink.Merge(metric::kHistProbeChain, local);

  MetricsSnapshot snap = sink.Collect();
  const Histogram* merged = snap.FindHistogram(metric::kHistProbeChain);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), 3u);
  EXPECT_EQ(merged->sum(), 6);
  EXPECT_EQ(snap.FindHistogram("never.recorded"), nullptr);
}

TEST(MetricsSinkTest, GaugesLastWriteWins) {
  MetricsSink sink;
  sink.SetGauge(metric::kGaugeStateRecords, 0, 1.0);
  sink.SetGauge(metric::kGaugeStateRecords, 0, 7.0);
  sink.SetGauge(metric::kGaugeStateRecords, 1, 2.0);
  MetricsSnapshot snap = sink.Collect();
  EXPECT_DOUBLE_EQ(snap.gauges.at(metric::kGaugeStateRecords).at(0), 7.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at(metric::kGaugeStateRecords).at(1), 2.0);
}

TEST(MetricsSinkTest, ConcurrentCountsMergeDeterministically) {
  // Worker-sharded recording: the merged totals must not depend on which
  // worker recorded what, so a parallel fan-out equals the serial sum.
  MetricsSink sink;
  ThreadPool pool(4);
  ParallelFor(&pool, 64, [&](int i) {
    sink.Count(metric::kShuffleFanout, i % 4, static_cast<uint64_t>(i));
    sink.Observe(metric::kHistShuffleFanout, i);
  });
  MetricsSnapshot snap = sink.Collect();
  uint64_t expected_total = 0;
  for (int i = 0; i < 64; ++i) expected_total += static_cast<uint64_t>(i);
  EXPECT_EQ(snap.CounterTotal(metric::kShuffleFanout), expected_total);
  const Histogram* h = snap.FindHistogram(metric::kHistShuffleFanout);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 64u);
}

// --------------------------------------------------------- exporter goldens --

/// One iteration + one two-partition counter + one job-level counter + one
/// gauge + one histogram: small enough to pin the exact export bytes.
void FillGoldenData(MetricsRegistry* registry, MetricsSink* sink) {
  IterationStats it;
  it.iteration = 1;
  it.records_processed = 10;
  it.messages_shuffled = 4;
  it.sim_time_by_charge[static_cast<int>(Charge::kCompute)] = 20;
  it.sim_time_by_charge[static_cast<int>(Charge::kNetwork)] = 10;
  it.gauges["convergence_metric"] = 0.5;
  registry->RecordIteration(it);

  sink->Count(metric::kCacheHits, -1, 3);
  sink->Count(metric::kExecRecords, 0, 6);
  sink->Count(metric::kExecRecords, 1, 4);
  sink->SetGauge(metric::kGaugeStateRecords, 0, 6.0);
  sink->Observe(metric::kHistBatchRows, 1);
  sink->Observe(metric::kHistBatchRows, 6);
}

TEST(MetricsExportTest, NdjsonGolden) {
  MetricsRegistry registry;
  MetricsSink sink;
  FillGoldenData(&registry, &sink);
  std::ostringstream out;
  ExportMetricsNdjson(registry, sink.Collect(), out);
  const std::string expected =
      "{\"kind\": \"iteration\", \"iteration\": 1, \"records_processed\": 10"
      ", \"messages_shuffled\": 4, \"bytes_checkpointed\": 0"
      ", \"failure_injected\": false, \"sim_time_ns\": 30"
      ", \"sim_time_by_charge\": {\"compute\": 20, \"network\": 10, "
      "\"checkpoint_io\": 0, \"recovery\": 0}, \"spills\": 0, "
      "\"unspills\": 0, \"spilled_bytes\": 0, \"peak_resident_bytes\": 0"
      ", \"gauges\": {\"convergence_metric\": 0.5}}\n"
      "{\"kind\": \"counter\", \"name\": \"cache.hits\", \"partition\": -1, "
      "\"value\": 3}\n"
      "{\"kind\": \"counter_total\", \"name\": \"cache.hits\", \"value\": 3}\n"
      "{\"kind\": \"counter\", \"name\": \"exec.records\", \"partition\": 0, "
      "\"value\": 6}\n"
      "{\"kind\": \"counter\", \"name\": \"exec.records\", \"partition\": 1, "
      "\"value\": 4}\n"
      "{\"kind\": \"counter_total\", \"name\": \"exec.records\", \"value\": "
      "10}\n"
      "{\"kind\": \"gauge\", \"name\": \"state.records\", \"partition\": 0, "
      "\"value\": 6}\n"
      "{\"kind\": \"histogram\", \"name\": \"exec.batch_rows\", \"count\": "
      "2, \"sum\": 7, \"min\": 1, \"max\": 6, \"buckets\": [{\"le\": 1, "
      "\"count\": 1}, {\"le\": 7, \"count\": 1}]}\n"
      "{\"kind\": \"meta\", \"iterations\": 1, \"counter_families\": 2, "
      "\"gauge_families\": 1, \"histogram_families\": 1}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(MetricsExportTest, PrometheusGolden) {
  MetricsRegistry registry;
  MetricsSink sink;
  FillGoldenData(&registry, &sink);
  std::ostringstream out;
  ExportMetricsPrometheus(registry, sink.Collect(), out);
  const std::string expected =
      "# TYPE flinkless_cache_hits counter\n"
      "flinkless_cache_hits 3\n"
      "# TYPE flinkless_exec_records counter\n"
      "flinkless_exec_records{partition=\"0\"} 6\n"
      "flinkless_exec_records{partition=\"1\"} 4\n"
      "flinkless_exec_records 10\n"
      "# TYPE flinkless_state_records gauge\n"
      "flinkless_state_records{partition=\"0\"} 6\n"
      "# TYPE flinkless_exec_batch_rows histogram\n"
      "flinkless_exec_batch_rows_bucket{le=\"1\"} 1\n"
      "flinkless_exec_batch_rows_bucket{le=\"7\"} 2\n"
      "flinkless_exec_batch_rows_bucket{le=\"+Inf\"} 2\n"
      "flinkless_exec_batch_rows_sum 7\n"
      "flinkless_exec_batch_rows_count 2\n"
      "# TYPE flinkless_sim_time_ns counter\n"
      "flinkless_sim_time_ns{charge=\"compute\"} 20\n"
      "flinkless_sim_time_ns{charge=\"network\"} 10\n"
      "flinkless_sim_time_ns{charge=\"checkpoint_io\"} 0\n"
      "flinkless_sim_time_ns{charge=\"recovery\"} 0\n"
      "flinkless_sim_time_ns 30\n"
      "# TYPE flinkless_iterations_total counter\n"
      "flinkless_iterations_total 1\n"
      "# TYPE flinkless_messages_total counter\n"
      "flinkless_messages_total 4\n"
      "# TYPE flinkless_records_total counter\n"
      "flinkless_records_total 10\n"
      "# TYPE flinkless_checkpoint_bytes_total counter\n"
      "flinkless_checkpoint_bytes_total 0\n";
  EXPECT_EQ(out.str(), expected);
}

// ------------------------------------------------------- end-to-end + files --

struct AlgoExports {
  std::string pr_ndjson;
  std::string pr_prom;
  std::string cc_ndjson;
  std::string cc_prom;
};

/// Runs PageRank and Connected Components with a metrics sink installed and
/// returns both exports for both jobs. The inputs are fixed; only
/// `num_threads` and `with_failures` vary.
AlgoExports RunBothAlgosWithMetrics(int num_threads, bool with_failures) {
  AlgoExports out;
  Rng rng(77);
  graph::Graph directed = graph::Rmat(8, 6, &rng);  // 256 vertices

  {
    runtime::SimClock clock;
    runtime::CostModel costs;
    MetricsRegistry registry;
    MetricsSink sink;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        with_failures ? std::vector<runtime::FailureEvent>{{3, {1}}}
                      : std::vector<runtime::FailureEvent>{});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &registry;
    env.metrics_sink = &sink;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "metrics-pr";

    algos::PageRankOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    options.max_iterations = 8;
    algos::FixRanksCompensation fix(directed.num_vertices());
    core::OptimisticRecoveryPolicy policy(&fix);
    auto result = algos::RunPageRank(directed, options, env, &policy);
    EXPECT_TRUE(result.ok()) << result.status().ToString();

    MetricsSnapshot snap = sink.Collect();
    std::ostringstream ndjson, prom;
    ExportMetricsNdjson(registry, snap, ndjson);
    ExportMetricsPrometheus(registry, snap, prom);
    out.pr_ndjson = ndjson.str();
    out.pr_prom = prom.str();
  }

  {
    graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
    for (const graph::Edge& e : directed.edges()) {
      Status s = undirected.AddEdge(e.src, e.dst);
      EXPECT_TRUE(s.ok());
    }
    runtime::SimClock clock;
    runtime::CostModel costs;
    MetricsRegistry registry;
    MetricsSink sink;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        with_failures ? std::vector<runtime::FailureEvent>{{2, {0}}}
                      : std::vector<runtime::FailureEvent>{});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics = &registry;
    env.metrics_sink = &sink;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = "metrics-cc";

    algos::ConnectedComponentsOptions options;
    options.num_partitions = 4;
    options.num_threads = num_threads;
    algos::FixComponentsCompensation fix(&undirected);
    core::OptimisticRecoveryPolicy policy(&fix);
    auto result =
        algos::RunConnectedComponents(undirected, options, env, &policy);
    EXPECT_TRUE(result.ok()) << result.status().ToString();

    MetricsSnapshot snap = sink.Collect();
    std::ostringstream ndjson, prom;
    ExportMetricsNdjson(registry, snap, ndjson);
    ExportMetricsPrometheus(registry, snap, prom);
    out.cc_ndjson = ndjson.str();
    out.cc_prom = prom.str();
  }
  return out;
}

class MetricsDeterminismTest : public ::testing::TestWithParam<bool> {};

TEST_P(MetricsDeterminismTest, ExportsByteIdenticalAcrossThreadCounts) {
  const bool with_failures = GetParam();
  AlgoExports serial = RunBothAlgosWithMetrics(1, with_failures);

  // The serial run must actually have recorded the hot-path families.
  EXPECT_NE(serial.pr_ndjson.find("\"exec.records\""), std::string::npos);
  EXPECT_NE(serial.pr_ndjson.find("\"shuffle.fanout\""), std::string::npos);
  if (with_failures) {
    EXPECT_NE(serial.pr_ndjson.find("\"compensation.records\""),
              std::string::npos);
    EXPECT_NE(serial.cc_ndjson.find("\"recovery.partitions_lost\""),
              std::string::npos);
  }

  for (int threads : {2, 8}) {
    AlgoExports parallel = RunBothAlgosWithMetrics(threads, with_failures);
    EXPECT_EQ(parallel.pr_ndjson, serial.pr_ndjson) << "threads=" << threads;
    EXPECT_EQ(parallel.pr_prom, serial.pr_prom) << "threads=" << threads;
    EXPECT_EQ(parallel.cc_ndjson, serial.cc_ndjson) << "threads=" << threads;
    EXPECT_EQ(parallel.cc_prom, serial.cc_prom) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(FailuresOnOff, MetricsDeterminismTest,
                         ::testing::Values(false, true));

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

TEST(MetricsFileTest, WriteMetricsFileDispatchesOnExtension) {
  MetricsRegistry registry;
  MetricsSink sink;
  FillGoldenData(&registry, &sink);
  std::ostringstream ndjson, prom;
  ExportMetricsNdjson(registry, sink.Collect(), ndjson);
  ExportMetricsPrometheus(registry, sink.Collect(), prom);

  // ".prom" selects Prometheus text; any other extension selects NDJSON.
  const std::string dir = ::testing::TempDir();
  const std::string prom_path = dir + "/flinkless_metrics.prom";
  const std::string ndjson_path = dir + "/flinkless_metrics.ndjson";
  const std::string other_path = dir + "/flinkless_metrics.json";
  ASSERT_TRUE(WriteMetricsFile(registry, sink, prom_path).ok());
  ASSERT_TRUE(WriteMetricsFile(registry, sink, ndjson_path).ok());
  ASSERT_TRUE(WriteMetricsFile(registry, sink, other_path).ok());
  EXPECT_EQ(ReadFile(prom_path), prom.str());
  EXPECT_EQ(ReadFile(ndjson_path), ndjson.str());
  EXPECT_EQ(ReadFile(other_path), ndjson.str());

  EXPECT_EQ(WriteMetricsFile(registry, sink, "/nonexistent-dir/x.prom").code(),
            StatusCode::kIOError);

  std::remove(prom_path.c_str());
  std::remove(ndjson_path.c_str());
  std::remove(other_path.c_str());
}

// --------------------------------------------- initial checkpoint bytes --

/// Forwards to `inner` and measures what its OnJobStart wrote to storage.
class JobStartBytesPolicy final : public iteration::FaultTolerancePolicy {
 public:
  explicit JobStartBytesPolicy(iteration::FaultTolerancePolicy* inner)
      : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  Status OnJobStart(const iteration::IterationContext& ctx,
                    iteration::IterationState* state) override {
    const uint64_t before = ctx.storage->bytes_written();
    Status status = inner_->OnJobStart(ctx, state);
    bytes_ += ctx.storage->bytes_written() - before;
    return status;
  }
  Status AfterIteration(const iteration::IterationContext& ctx,
                        iteration::IterationState* state) override {
    return inner_->AfterIteration(ctx, state);
  }
  Result<iteration::RecoveryOutcome> OnFailure(
      const iteration::IterationContext& ctx, iteration::IterationState* state,
      const std::vector<int>& lost) override {
    return inner_->OnFailure(ctx, state, lost);
  }

  uint64_t bytes() const { return bytes_; }

 private:
  iteration::FaultTolerancePolicy* inner_;
  uint64_t bytes_ = 0;
};

TEST(InitialCheckpointBytesTest, BulkAndDeltaDriversReportOnJobStartWrites) {
  Rng rng(11);
  graph::Graph directed = graph::Rmat(7, 5, &rng);  // 128 vertices
  graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
  for (const graph::Edge& e : directed.edges()) {
    ASSERT_TRUE(undirected.AddEdge(e.src, e.dst).ok());
  }

  for (const bool delta : {false, true}) {
    SCOPED_TRACE(delta ? "delta driver" : "bulk driver");
    runtime::SimClock clock;
    runtime::CostModel costs;
    MetricsSink sink;
    runtime::StableStorage storage(&clock, &costs);
    runtime::FailureSchedule failures(
        std::vector<runtime::FailureEvent>{{3, {1}}});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.metrics_sink = &sink;
    env.failures = &failures;
    env.storage = &storage;
    env.job_id = delta ? "initial-bytes-cc" : "initial-bytes-pr";

    uint64_t job_start_bytes = 0;
    if (delta) {
      core::DeltaCheckpointPolicy inner(/*interval=*/2);
      JobStartBytesPolicy policy(&inner);
      algos::ConnectedComponentsOptions options;
      options.num_partitions = 4;
      auto result =
          algos::RunConnectedComponents(undirected, options, env, &policy);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      job_start_bytes = policy.bytes();
    } else {
      core::CheckpointRollbackPolicy inner(/*interval=*/2);
      JobStartBytesPolicy policy(&inner);
      algos::PageRankOptions options;
      options.num_partitions = 4;
      options.max_iterations = 8;
      auto result = algos::RunPageRank(directed, options, env, &policy);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      job_start_bytes = policy.bytes();
    }

    EXPECT_GT(job_start_bytes, 0u);
    EXPECT_EQ(
        sink.Collect().CounterTotal(metric::kInitialCheckpointBytes),
        job_start_bytes);
  }
}

}  // namespace
}  // namespace flinkless::runtime
