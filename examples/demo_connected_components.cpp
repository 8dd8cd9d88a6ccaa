// The Connected Components demo of paper §3.2, in the terminal.
//
// Attendees pick a graph, pick which partitions to fail in which
// iterations, and watch the delta iteration converge: each component is a
// color, failures highlight the lost vertices, the compensation function
// restores them to their initial labels, and the bottom plots show (i) the
// number of vertices converged to their final component per iteration —
// with a plummet at the failure — and (ii) messages per iteration — with
// the post-failure bump.
//
//   ./examples/demo_connected_components                      # defaults
//   ./examples/demo_connected_components --graph=twitter --fail=3:0
//   ./examples/demo_connected_components --interactive        # n/b/p/q keys
//
// Flags: --graph=demo|twitter|chain|grid, --fail=iter:parts[;iter:parts],
//        --partitions=N, --threads=N, --delay-ms=N, --interactive,
//        --no-color,
//        --strategy=optimistic|rollback|confined|confined-log|restart|none,
//        --msglog=true|false (outbound message log; confined-log recovery
//        replays it instead of recomputing — implied by
//        --strategy=confined-log),
//        --cache=true|false,
//        --mem-budget=BYTES (spill cached artifacts beyond this),
//        --metrics-out=PATH (metrics v2 export: .prom = Prometheus text,
//        else NDJSON), --profile (critical-path profile; implied by
//        --trace), --baseline (failure-free re-run; recovery health is then
//        reported net of it)

#include <algorithm>
#include <chrono>
#include <iostream>
#include <thread>

#include "algos/connected_components.h"
#include "algos/datasets.h"
#include "algos/refreshers.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "runtime/profiler.h"
#include "runtime/stable_storage.h"
#include "viz/playback.h"
#include "viz/render.h"

using namespace flinkless;

namespace {

Result<graph::Graph> MakeGraph(const std::string& name) {
  if (name == "demo") return graph::DemoGraph();
  if (name == "chain") return graph::ChainGraph(24);
  if (name == "grid") return graph::GridGraph(5, 8);
  if (name == "twitter") {
    Rng rng(42);
    return graph::PreferentialAttachment(1000, 3, &rng);
  }
  return Status::InvalidArgument("unknown graph '" + name +
                                 "' (demo|twitter|chain|grid)");
}

void InteractiveLoop(viz::Playback<viz::ComponentsFrame>* playback,
                     viz::ColorAssigner* colors) {
  std::cout << "interactive controls: n=next  b=backward  p=play to end  "
               "q=quit\n\n";
  std::cout << viz::RenderComponents(playback->Current(), colors) << "\n";
  std::string line;
  for (;;) {
    std::cout << "[frame " << playback->position() + 1 << "/"
              << playback->size() << "] > " << std::flush;
    if (!std::getline(std::cin, line)) break;
    if (line == "q") break;
    if (line == "b") {
      playback->StepBackward();
      std::cout << viz::RenderComponents(playback->Current(), colors) << "\n";
    } else if (line == "p") {
      playback->Play();
      while (playback->StepForward()) {
        std::cout << viz::RenderComponents(playback->Current(), colors)
                  << "\n";
      }
    } else {  // default: next
      if (playback->StepForward()) {
        std::cout << viz::RenderComponents(playback->Current(), colors)
                  << "\n";
      } else {
        std::cout << "(at the last frame)\n";
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  FlagParser flags;
  std::string* graph_name =
      flags.String("graph", "demo", "demo|twitter|chain|grid");
  std::string* fail_spec = flags.String(
      "fail", "3:0", "failure schedule iter:parts[;iter:parts], '' = none");
  std::string* strategy = flags.String(
      "strategy", "optimistic",
      "optimistic|rollback|confined|confined-log|restart|none");
  int64_t* partitions = flags.Int64("partitions", 4, "degree of parallelism");
  int64_t* threads = flags.Int64(
      "threads", 1, "executor worker threads (1 = serial, 0 = all cores)");
  int64_t* delay_ms =
      flags.Int64("delay-ms", 0, "pause between frames (slow-motion demo)");
  bool* interactive =
      flags.Bool("interactive", false, "step with n/b/p/q instead of playing");
  bool* no_color = flags.Bool("no-color", false, "disable ANSI colors");
  std::string* trace_path = flags.String(
      "trace", "",
      "write an execution trace here (.json = Chrome/Perfetto, .ndjson)");
  bool* cache = flags.Bool(
      "cache", true, "reuse loop-invariant shuffles/indexes across supersteps");
  bool* msglog = flags.Bool(
      "msglog", false,
      "log outbound shuffle messages per superstep (confined-log recovery "
      "replays them; implied by --strategy=confined-log)");
  int64_t* mem_budget = flags.Int64(
      "mem-budget", 0,
      "byte budget for cached artifacts; cold entries spill to stable "
      "storage beyond it (0 = unlimited)");
  std::string* metrics_out = flags.String(
      "metrics-out", "",
      "write a metrics v2 export here (.prom = Prometheus text, else "
      "NDJSON)");
  bool* profile = flags.Bool(
      "profile", false,
      "trace the run and print the critical-path profile (implied by "
      "--trace)");
  bool* baseline = flags.Bool(
      "baseline", false,
      "re-run the job failure-free and report recovery health net of it");
  if (auto exit_code = flags.ParseMain(argc, argv)) return *exit_code;

  auto graph_or = MakeGraph(*graph_name);
  if (!graph_or.ok()) {
    std::cerr << graph_or.status() << "\n";
    return 1;
  }
  graph::Graph g = std::move(graph_or).ValueOrDie();
  auto failures_or = runtime::FailureSchedule::Parse(*fail_spec);
  if (!failures_or.ok()) {
    std::cerr << failures_or.status() << "\n";
    return 1;
  }
  runtime::FailureSchedule failures = std::move(failures_or).ValueOrDie();

  const int parts = static_cast<int>(*partitions);
  const bool small = g.num_vertices() <= 64;
  auto truth = graph::ReferenceConnectedComponents(g);

  std::cout << "Optimistic Recovery demo — Connected Components (delta "
               "iterations)\n"
            << g.ToString() << ", " << parts << " partitions, strategy "
            << *strategy << "\n";
  if (small) std::cout << viz::DescribePartitions(g.num_vertices(), parts);
  for (const auto& event : failures.events()) {
    std::cout << "scheduled failure: " << event.ToString() << "\n";
  }
  std::cout << "\n";

  // Record one frame per iteration through the stats hook.
  viz::Playback<viz::ComponentsFrame> playback;
  {
    viz::ComponentsFrame initial;
    initial.iteration = 0;
    initial.labels.resize(g.num_vertices());
    for (int64_t v = 0; v < g.num_vertices(); ++v) initial.labels[v] = v;
    initial.converged_vertices = 0;
    for (int64_t v = 0; v < g.num_vertices(); ++v) {
      if (initial.labels[v] == truth[v]) ++initial.converged_vertices;
    }
    playback.Record(std::move(initial));
  }

  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.metrics = &metrics;
  env.failures = &failures;
  env.job_id = "demo-cc";
  runtime::StableStorage storage(nullptr, nullptr);
  env.storage = &storage;
  // Metrics v2 + tracing: the demo owns the clock, sink, and tracer so the
  // dashboard, profiler, and exports below can read them after the run.
  runtime::SimClock sim_clock;
  env.clock = &sim_clock;
  runtime::CostModel costs;
  env.costs = &costs;
  runtime::MetricsSink sink;
  env.metrics_sink = &sink;
  runtime::Tracer::Options tracer_options;
  tracer_options.clock = &sim_clock;
  runtime::Tracer tracer(tracer_options);
  const bool tracing = *profile || !trace_path->empty();
  if (tracing) env.tracer = &tracer;

  algos::ConnectedComponentsOptions options;
  options.num_partitions = parts;
  options.num_threads = static_cast<int>(*threads);
  options.cache_loop_invariant = *cache;
  options.message_log = *msglog || *strategy == "confined-log";
  if (*mem_budget > 0) {
    options.memory_budget_bytes = static_cast<uint64_t>(*mem_budget);
  }

  algos::FixComponentsCompensation compensation(&g);
  // The baseline re-run (below) needs a fresh policy of the same kind, so
  // policy construction is a factory rather than a one-off.
  auto make_policy =
      [&]() -> std::unique_ptr<iteration::FaultTolerancePolicy> {
    if (*strategy == "optimistic") {
      return std::make_unique<core::OptimisticRecoveryPolicy>(&compensation);
    }
    if (*strategy == "rollback") {
      return std::make_unique<core::CheckpointRollbackPolicy>(2);
    }
    if (*strategy == "confined") {
      return std::make_unique<core::ConfinedRollbackPolicy>(
          2, algos::MakeNeighborhoodRefresher(&g));
    }
    if (*strategy == "confined-log") {
      return std::make_unique<core::ConfinedLogReplayPolicy>(
          2, algos::MakeNeighborhoodRefresher(&g));
    }
    if (*strategy == "restart") return std::make_unique<core::RestartPolicy>();
    if (*strategy == "none") {
      return std::make_unique<core::NoFaultTolerancePolicy>();
    }
    return nullptr;
  };
  std::unique_ptr<iteration::FaultTolerancePolicy> policy = make_policy();
  if (policy == nullptr) {
    std::cerr << "unknown strategy '" << *strategy << "'\n";
    return 1;
  }

  // One recorded frame per superstep, delivered through the snapshot hook.
  auto run = algos::RunConnectedComponentsWithSnapshots(
      g, options, env, policy.get(), &truth,
      [&](int iteration, const std::vector<int64_t>& labels,
          const std::vector<int>& lost_partitions, bool failure,
          int64_t messages, int64_t converged) {
        viz::ComponentsFrame frame;
        frame.iteration = iteration;
        frame.labels = labels;
        frame.failure = failure;
        frame.messages = messages;
        frame.converged_vertices = converged;
        frame.lost_vertices = viz::VerticesOfPartitions(
            g.num_vertices(), parts, lost_partitions);
        playback.Record(std::move(frame));
      });
  if (!run.ok()) {
    std::cerr << "job failed: " << run.status() << "\n";
    return 1;
  }

  viz::ColorAssigner colors(!*no_color && small);
  if (*interactive && small) {
    InteractiveLoop(&playback, &colors);
  } else if (small) {
    playback.Rewind();
    std::cout << viz::RenderComponents(playback.Current(), &colors) << "\n";
    while (playback.StepForward()) {
      if (*delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(*delay_ms));
      }
      std::cout << viz::RenderComponents(playback.Current(), &colors) << "\n";
    }
  } else {
    std::cout << "(large graph: progress tracked via statistics only, as in "
                 "the paper)\n\n";
  }

  // The two GUI plots (bottom corners of Figure 2).
  std::cout << AsciiPlot(metrics.GaugeSeries("converged_vertices"), 8,
                         "vertices converged to final component per "
                         "iteration:")
            << "\n";
  std::vector<double> message_series;
  for (const auto& it : metrics.iterations()) {
    message_series.push_back(static_cast<double>(it.messages_shuffled));
  }
  std::cout << AsciiPlot(message_series, 8, "messages per iteration:")
            << "\n";

  if (*mem_budget > 0) {
    uint64_t spills = 0, unspills = 0, spilled_bytes = 0, peak = 0;
    for (const auto& it : metrics.iterations()) {
      spills += it.spills;
      unspills += it.unspills;
      spilled_bytes += it.spilled_bytes;
      peak = std::max(peak, it.peak_resident_bytes);
    }
    std::cout << "memory budget " << *mem_budget << " bytes: spills="
              << spills << " unspills=" << unspills << " spilled_bytes="
              << spilled_bytes << " peak_resident_bytes=" << peak << "\n";
  }

  // Metrics v2 rollup: cache effectiveness, executed/shuffled records,
  // and the per-partition dashboard.
  runtime::MetricsSnapshot msnap = sink.Collect();
  std::cout << "cache: hits=" << msnap.CounterTotal(runtime::metric::kCacheHits)
            << " builds=" << msnap.CounterTotal(runtime::metric::kCacheBuilds)
            << " invalidations="
            << msnap.CounterTotal(runtime::metric::kCacheInvalidations)
            << " records_not_reshuffled="
            << msnap.CounterTotal(
                   runtime::metric::kCacheRecordsNotReshuffled)
            << "\n"
            << "exec: records="
            << msnap.CounterTotal(runtime::metric::kExecRecords)
            << " shuffled="
            << msnap.CounterTotal(runtime::metric::kShuffleFanout) << "\n\n"
            << viz::RenderMetricsDashboard(msnap) << "\n";

  // Recovery health: one block per injected failure. With --baseline the
  // same job runs once more without failures and the window costs are
  // reported net of it ("time lost to the failure" instead of gross cost).
  if (run->failures_recovered > 0) {
    runtime::MetricsRegistry baseline_registry;
    const runtime::MetricsRegistry* baseline_metrics = nullptr;
    if (*baseline) {
      runtime::FailureSchedule no_failures;
      runtime::StableStorage baseline_storage(nullptr, nullptr);
      runtime::SimClock baseline_clock;
      iteration::JobEnv baseline_env;
      baseline_env.clock = &baseline_clock;
      baseline_env.costs = &costs;
      baseline_env.metrics = &baseline_registry;
      baseline_env.failures = &no_failures;
      baseline_env.storage = &baseline_storage;
      baseline_env.job_id = "demo-cc-baseline";
      std::unique_ptr<iteration::FaultTolerancePolicy> baseline_policy =
          make_policy();
      auto base_run = algos::RunConnectedComponents(g, options, baseline_env,
                                                    baseline_policy.get());
      if (base_run.ok()) {
        baseline_metrics = &baseline_registry;
      } else {
        std::cerr << "baseline run failed: " << base_run.status() << "\n";
      }
    }
    std::cout << runtime::RenderRecoveryHealth(
                     runtime::ComputeRecoveryHealth(metrics, baseline_metrics))
              << "\n";
  }

  if (tracing) {
    std::cout << runtime::ProfileReport::FromSnapshot(tracer.Flush())
                     .RenderText()
              << "\n";
  }
  if (!trace_path->empty()) {
    if (Status s = runtime::WriteTraceFile(tracer, *trace_path); !s.ok()) {
      std::cerr << "trace export failed: " << s << "\n";
    }
  }
  if (!metrics_out->empty()) {
    if (Status s = runtime::WriteMetricsFile(metrics, sink, *metrics_out);
        !s.ok()) {
      std::cerr << "metrics export failed: " << s << "\n";
    }
  }

  std::cout << "result correct vs union-find ground truth: "
            << (run->labels == truth ? "yes" : "NO") << " ("
            << run->iterations << " iterations, " << run->failures_recovered
            << " failures recovered)\n";
  return run->labels == truth ? 0 : 1;
}
