// Tracing subsystem: span nesting, ring-buffer overflow accounting,
// deterministic per-worker merge across thread counts, exporter goldens
// (Chrome trace_event + NDJSON), TraceSummary aggregation, and the
// no-behaviour-change contract (tracing must not alter outputs, ExecStats,
// or SimClock — DESIGN.md §8).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "algos/connected_components.h"
#include "algos/pagerank.h"
#include "core/policies.h"
#include "dataflow/executor.h"
#include "graph/generators.h"
#include "common/rng.h"
#include "runtime/thread_pool.h"
#include "runtime/tracing.h"

namespace flinkless::runtime {
namespace {

using dataflow::ExecOptions;
using dataflow::ExecStats;
using dataflow::Executor;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

// ----------------------------------------------------------------- spans --

TEST(TracerTest, SpanNestingRecordsParentSeq) {
  Tracer tracer;
  {
    TraceSpan outer(&tracer, SpanKind::kIteration, "superstep");
    ASSERT_TRUE(outer.active());
    {
      TraceSpan inner(&tracer, SpanKind::kOperator, "map");
      EXPECT_EQ(inner.seq(), outer.seq() + 1);
      tracer.Instant(InstantKind::kFailureInjected, -1, {{"iteration", 7}});
    }
  }
  Tracer::Snapshot snap = tracer.Flush();
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.dropped, 0u);
  // Merge order is seq order: outer (1), inner (2), instant (3) — even
  // though the inner span *closed* (= was recorded) before the outer one.
  EXPECT_EQ(snap.events[0].name, "superstep");
  EXPECT_EQ(snap.events[0].parent_seq, 0u);
  EXPECT_EQ(snap.events[1].name, "map");
  EXPECT_EQ(snap.events[1].parent_seq, snap.events[0].seq);
  EXPECT_EQ(snap.events[2].category, "failure.injected");
  // The instant fired while "map" was still open.
  EXPECT_EQ(snap.events[2].parent_seq, snap.events[1].seq);
  EXPECT_EQ(snap.events[2].Arg("iteration"), 7);
}

TEST(TracerTest, NullTracerSpanIsInert) {
  TraceSpan span(nullptr, SpanKind::kOperator, "nothing");
  EXPECT_FALSE(span.active());
  span.AddArg("ignored", 1);
  span.Close();  // must not crash
  int ran = 0;
  TracedParallelFor(nullptr, span, 3, [&](int) { ++ran; });
  EXPECT_EQ(ran, 3);  // degrades to a plain loop
}

TEST(TracerTest, CancelledSpanIsNotRecordedAndUnwindsStack) {
  Tracer tracer;
  {
    TraceSpan cancelled(&tracer, SpanKind::kCheckpoint, "empty-checkpoint");
    cancelled.Cancel();
    // The cancelled span must no longer be anyone's parent.
    TraceSpan next(&tracer, SpanKind::kOperator, "map");
    EXPECT_EQ(next.iteration(), 0);
  }
  Tracer::Snapshot snap = tracer.Flush();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].name, "map");
  EXPECT_EQ(snap.events[0].parent_seq, 0u);
}

TEST(TracerTest, IterationTagIsAppliedToSpansAndInstants) {
  Tracer tracer;
  tracer.set_iteration(4);
  { TraceSpan span(&tracer, SpanKind::kIteration, "superstep"); }
  tracer.Instant(InstantKind::kConvergenceReached);
  Tracer::Snapshot snap = tracer.Flush();
  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.events[0].iteration, 4);
  EXPECT_EQ(snap.events[1].iteration, 4);
}

// ------------------------------------------------------------- ring buffer --

TEST(TracerTest, RingOverflowKeepsNewestAndCountsDrops) {
  Tracer::Options options;
  options.per_worker_capacity = 4;
  Tracer tracer(options);
  for (int i = 0; i < 10; ++i) {
    tracer.Instant(InstantKind::kPartitionLost, i);
  }
  Tracer::Snapshot snap = tracer.Flush();
  ASSERT_EQ(snap.events.size(), 4u);
  EXPECT_EQ(snap.dropped, 6u);
  EXPECT_EQ(tracer.dropped_events(), 6u);
  // The survivors are the newest four, still in deterministic order.
  for (size_t i = 0; i < snap.events.size(); ++i) {
    EXPECT_EQ(snap.events[i].seq, 7u + i);
    EXPECT_EQ(snap.events[i].partition, 6 + static_cast<int>(i));
  }
}

// -------------------------------------------------- traced parallel loops --

TEST(TracerTest, TracedParallelForEmitsOnePartitionSpanEach) {
  Tracer tracer;
  ThreadPool pool(2);
  {
    TraceSpan parent(&tracer, SpanKind::kOperator, "map");
    TracedParallelFor(
        &pool, parent, 4, [](int) {},
        [](int p) { return int64_t{10} * p; });
  }
  Tracer::Snapshot snap = tracer.Flush();
  ASSERT_EQ(snap.events.size(), 5u);  // parent + 4 children
  const TraceEvent& parent_event = snap.events[0];
  EXPECT_EQ(parent_event.partition, -1);
  for (int p = 0; p < 4; ++p) {
    const TraceEvent& child = snap.events[1 + p];
    EXPECT_EQ(child.partition, p);  // partition order, not finish order
    EXPECT_EQ(child.name, "map");
    EXPECT_EQ(child.category, "operator");
    EXPECT_EQ(child.parent_seq, parent_event.seq);
    EXPECT_EQ(child.seq, snap.events[1].seq);  // children share the loop seq
    EXPECT_EQ(child.Arg("records"), 10 * p);
    EXPECT_GE(child.worker, 0);
    EXPECT_LE(child.worker, 2);
  }
}

// ---------------------------------------------------------------- executor --

Plan WordCountishPlan() {
  Plan plan;
  auto src = plan.Source("in");
  auto doubled = plan.Map(
      src,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() * 2);
      },
      "double");
  auto summed = plan.ReduceByKey(
      doubled, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsInt64() + b[1].AsInt64());
      },
      "sum");
  plan.Output(summed, "out");
  return plan;
}

PartitionedDataset SomeKeyValues(int n, int parts) {
  std::vector<Record> records;
  for (int i = 0; i < n; ++i) {
    records.push_back(MakeRecord(int64_t{i % 5}, int64_t{i}));
  }
  return PartitionedDataset::HashPartitioned(std::move(records), {0}, parts);
}

TEST(ExecutorTracingTest, RecordsOperatorAndShufflePhaseSpans) {
  Tracer tracer;
  ExecOptions options;
  options.num_partitions = 4;
  options.tracer = &tracer;
  Executor executor(options);

  Plan plan = WordCountishPlan();
  auto in = SomeKeyValues(40, 4);
  ExecStats stats;
  ASSERT_TRUE(executor.Execute(plan, {{"in", &in}}, &stats).ok());

  const Tracer::Snapshot snapshot = tracer.Flush();
  TraceSummary summary = TraceSummary::FromSnapshot(snapshot);
  // The Map is chained into the reduce's pre-combine: it has no span of its
  // own, and the reduce's span names it with the rows it emitted.
  EXPECT_EQ(summary.Find("double"), nullptr);
  int64_t chained_rows = -1;
  for (const auto& e : snapshot.events) {
    if (e.category == "operator" && e.name == "sum" && e.partition < 0) {
      EXPECT_EQ(e.Arg("chained"), 1);
      chained_rows = e.Arg("chained.double", -1);
    }
  }
  EXPECT_EQ(chained_rows, 40);

  const TraceOperatorSummary* reduce_op = summary.Find("sum");
  ASSERT_NE(reduce_op, nullptr);
  EXPECT_EQ(reduce_op->spans, 1u);
  EXPECT_EQ(reduce_op->records_in, 40u);
  EXPECT_EQ(reduce_op->records_out, 5u);
  // The pre-combine section's partition spans carry the streamed rows; the
  // post-shuffle section's carry the shuffled ones.
  EXPECT_EQ(reduce_op->partition_records.size(), 4u);
  uint64_t partition_sum = 0;
  for (uint64_t r : reduce_op->partition_records) partition_sum += r;
  EXPECT_GE(partition_sum, 40u);
  EXPECT_GE(reduce_op->SkewRatio(), 1.0);
  // The reduce's shuffle messages are attributed to the reduce operator and
  // agree with the executor's own accounting.
  EXPECT_EQ(reduce_op->messages, stats.messages_shuffled);
  EXPECT_GT(reduce_op->wall_total_ns, 0);
  EXPECT_LE(reduce_op->wall_self_ns, reduce_op->wall_total_ns);
}

TEST(ExecutorTracingTest, TracingDoesNotChangeOutputsStatsOrClock) {
  Plan plan = WordCountishPlan();
  auto in = SomeKeyValues(60, 4);
  CostModel costs;

  auto run = [&](Tracer* tracer, SimClock* clock) {
    ExecOptions options;
    options.num_partitions = 4;
    options.clock = clock;
    options.costs = &costs;
    options.tracer = tracer;
    Executor executor(options);
    ExecStats stats;
    auto outs = executor.Execute(plan, {{"in", &in}}, &stats);
    EXPECT_TRUE(outs.ok());
    return std::make_tuple(outs->at("out").CollectSorted(),
                           stats.records_processed, stats.messages_shuffled,
                           clock->TotalNs());
  };

  SimClock clock_off, clock_on;
  SimClock trace_clock;  // the tracer reads a *different* clock than it logs
  Tracer tracer(Tracer::Options{1 << 10, &clock_on});
  auto off = run(nullptr, &clock_off);
  auto on = run(&tracer, &clock_on);
  EXPECT_EQ(off, on);
  EXPECT_GT(std::get<3>(on), 0);
}

TEST(ExecutorTracingTest, OperatorMessagesSumToShuffledMessages) {
  // Every message of a shipped plan crosses partitions in some operator's
  // shuffle span, the routed pre-combine channels' included, so the
  // summary's per-operator messages add up to the executor's own count,
  // which each superstep's iteration span carries.
  Rng rng(5);
  const graph::Graph g = graph::Rmat(8, 6, &rng);
  for (const std::string algo : {"pagerank", "cc"}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(algo + " threads=" + std::to_string(threads));
      Tracer tracer(Tracer::Options{1 << 16, nullptr});
      iteration::JobEnv env;
      env.tracer = &tracer;
      core::NoFaultTolerancePolicy none;
      if (algo == "pagerank") {
        algos::PageRankOptions options;
        options.num_partitions = 4;
        options.num_threads = threads;
        options.max_iterations = 6;
        ASSERT_TRUE(algos::RunPageRank(g, options, env, &none).ok());
      } else {
        algos::ConnectedComponentsOptions options;
        options.num_partitions = 4;
        options.num_threads = threads;
        ASSERT_TRUE(algos::RunConnectedComponents(g, options, env, &none).ok());
      }
      const Tracer::Snapshot snapshot = tracer.Flush();
      ASSERT_EQ(snapshot.dropped, 0u);
      uint64_t shuffled = 0;
      for (const TraceEvent& e : snapshot.events) {
        if (e.category == "iteration" && e.partition < 0) {
          shuffled += static_cast<uint64_t>(e.Arg("messages"));
        }
      }
      uint64_t attributed = 0;
      for (const TraceOperatorSummary& op :
           TraceSummary::FromSnapshot(snapshot).operators) {
        attributed += op.messages;
      }
      EXPECT_GT(shuffled, 0u);
      EXPECT_EQ(attributed, shuffled);
    }
  }
}

// ------------------------------------------------------------ determinism --

/// The deterministic projection of an event: everything except wall times
/// and worker ids, which legitimately vary across thread counts.
using EventKey =
    std::tuple<int, std::string, std::string, int, int, uint64_t, uint64_t,
               std::vector<std::pair<std::string, int64_t>>>;

std::vector<EventKey> DeterministicView(const Tracer::Snapshot& snap) {
  std::vector<EventKey> keys;
  keys.reserve(snap.events.size());
  for (const TraceEvent& e : snap.events) {
    keys.emplace_back(static_cast<int>(e.kind), e.category, e.name,
                      e.partition, e.iteration, e.seq, e.parent_seq, e.args);
  }
  return keys;
}

TEST(TracingDeterminismTest, TraceIsIdenticalAcrossThreadCounts) {
  graph::Graph g = graph::DemoDirectedGraph();

  auto traced_run = [&](int threads) {
    runtime::FailureSchedule failures(
        std::vector<runtime::FailureEvent>{{3, {1}}});
    SimClock clock;
    CostModel costs;
    Tracer tracer(Tracer::Options{1 << 15, &clock});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.failures = &failures;
    env.tracer = &tracer;

    algos::PageRankOptions options;
    options.num_partitions = 4;
    options.num_threads = threads;
    options.max_iterations = 30;
    algos::FixRanksCompensation compensation(g.num_vertices());
    core::OptimisticRecoveryPolicy policy(&compensation);
    auto result = algos::RunPageRank(g, options, env, &policy);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->failures_recovered, 1);
    return std::make_tuple(DeterministicView(tracer.Flush()), result->ranks,
                           clock.TotalNs());
  };

  auto serial = traced_run(1);
  ASSERT_FALSE(std::get<0>(serial).empty());
  for (int threads : {2, 8}) {
    auto parallel = traced_run(threads);
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel))
        << "trace diverged at num_threads=" << threads;
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel));
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
  }

  // The recovery timeline is present: failure, lost partition,
  // compensation span, superstep spans.
  TraceSummary summary;
  {
    runtime::FailureSchedule failures(
        std::vector<runtime::FailureEvent>{{3, {1}}});
    SimClock clock;
    CostModel costs;
    Tracer tracer(Tracer::Options{1 << 15, &clock});
    iteration::JobEnv env;
    env.clock = &clock;
    env.costs = &costs;
    env.failures = &failures;
    env.tracer = &tracer;
    algos::PageRankOptions options;
    options.num_partitions = 4;
    options.max_iterations = 200;  // enough to converge after the failure
    algos::FixRanksCompensation compensation(g.num_vertices());
    core::OptimisticRecoveryPolicy policy(&compensation);
    auto result = algos::RunPageRank(g, options, env, &policy);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->converged);
    summary = TraceSummary::FromSnapshot(tracer.Flush());
  }
  EXPECT_EQ(summary.InstantCount("failure.injected"), 1u);
  EXPECT_EQ(summary.InstantCount("partition.lost"), 1u);
  EXPECT_EQ(summary.InstantCount("convergence.reached"), 1u);
  EXPECT_GT(summary.iteration_spans, 3u);
  EXPECT_EQ(summary.dropped_events, 0u);
}

// --------------------------------------------------------------- exporters --

Tracer::Snapshot GoldenSnapshot() {
  Tracer::Snapshot snap;
  TraceEvent span;
  span.kind = TraceEvent::Kind::kSpan;
  span.category = "operator";
  span.name = "double";
  span.wall_ts_ns = 1500;
  span.wall_dur_ns = 2500;
  span.sim_ts_ns = 100;
  span.sim_dur_ns = 50;
  span.partition = -1;
  span.worker = 0;
  span.iteration = 1;
  span.seq = 1;
  span.parent_seq = 0;
  span.args = {{"records_in", 3}};
  snap.events.push_back(span);

  TraceEvent instant;
  instant.kind = TraceEvent::Kind::kInstant;
  instant.category = "failure.injected";
  instant.name = "failure.injected";
  instant.wall_ts_ns = 3000;
  instant.partition = 2;
  instant.worker = 1;
  instant.iteration = 2;
  instant.seq = 2;
  instant.parent_seq = 0;
  snap.events.push_back(instant);
  return snap;
}

TEST(ExportTest, ChromeTraceGolden) {
  std::ostringstream out;
  ExportChromeTrace(GoldenSnapshot(), out);
  EXPECT_EQ(
      out.str(),
      "{\"traceEvents\": [\n"
      "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"thread_name\", "
      "\"args\": {\"name\": \"driver\"}},\n"
      "{\"ph\": \"M\", \"pid\": 0, \"tid\": 1, \"name\": \"thread_name\", "
      "\"args\": {\"name\": \"worker-1\"}},\n"
      "{\"name\": \"double\", \"cat\": \"operator\", \"ph\": \"X\", "
      "\"ts\": 1.500, \"dur\": 2.500, \"pid\": 0, \"tid\": 0, \"args\": "
      "{\"partition\": -1, \"iteration\": 1, \"sim_ts_ns\": 100, "
      "\"sim_dur_ns\": 50, \"records_in\": 3}},\n"
      "{\"name\": \"failure.injected\", \"cat\": \"failure.injected\", "
      "\"ph\": \"i\", \"ts\": 3.000, \"s\": \"g\", \"pid\": 0, \"tid\": 1, "
      "\"args\": {\"partition\": 2, \"iteration\": 2, \"sim_ts_ns\": 0, "
      "\"sim_dur_ns\": 0}}\n"
      "], \"displayTimeUnit\": \"ms\", \"otherData\": "
      "{\"dropped_events\": \"0\"}}\n");
}

TEST(ExportTest, NdjsonGolden) {
  Tracer::Snapshot snap = GoldenSnapshot();
  snap.dropped = 5;
  std::ostringstream out;
  ExportNdjson(snap, out);
  EXPECT_EQ(
      out.str(),
      "{\"kind\": \"span\", \"cat\": \"operator\", \"name\": \"double\", "
      "\"seq\": 1, \"parent_seq\": 0, \"partition\": -1, \"worker\": 0, "
      "\"iteration\": 1, \"wall_ts_ns\": 1500, \"wall_dur_ns\": 2500, "
      "\"sim_ts_ns\": 100, \"sim_dur_ns\": 50, \"args\": "
      "{\"records_in\": 3}}\n"
      "{\"kind\": \"instant\", \"cat\": \"failure.injected\", \"name\": "
      "\"failure.injected\", \"seq\": 2, \"parent_seq\": 0, \"partition\": "
      "2, \"worker\": 1, \"iteration\": 2, \"wall_ts_ns\": 3000, "
      "\"wall_dur_ns\": 0, \"sim_ts_ns\": 0, \"sim_dur_ns\": 0, "
      "\"args\": {}}\n"
      "{\"kind\": \"meta\", \"total_events\": 2, \"dropped_events\": 5}\n");
}

TEST(ExportTest, WriteTraceFileDispatchesOnExtension) {
  Tracer tracer;
  tracer.Instant(InstantKind::kConvergenceReached);

  std::string chrome_path = ::testing::TempDir() + "/flinkless_trace.json";
  std::string ndjson_path = ::testing::TempDir() + "/flinkless_trace.ndjson";
  ASSERT_TRUE(WriteTraceFile(tracer, chrome_path).ok());
  ASSERT_TRUE(WriteTraceFile(tracer, ndjson_path).ok());

  std::ifstream chrome(chrome_path);
  std::string chrome_first;
  std::getline(chrome, chrome_first);
  EXPECT_EQ(chrome_first, "{\"traceEvents\": [");

  std::ifstream ndjson(ndjson_path);
  std::string ndjson_first;
  std::getline(ndjson, ndjson_first);
  EXPECT_EQ(ndjson_first.rfind("{\"kind\": \"instant\"", 0), 0u);

  EXPECT_EQ(WriteTraceFile(tracer, "/nonexistent-dir/x.json").code(),
            StatusCode::kIOError);

  std::remove(chrome_path.c_str());
  std::remove(ndjson_path.c_str());
}

}  // namespace
}  // namespace flinkless::runtime
