// The PageRank demo of paper §3.3, in the terminal.
//
// Vertices are drawn as bars whose width is proportional to their PageRank
// ("the size of a vertex represents the magnitude of its PageRank value").
// A failure loses the ranks of the vertices in the failed partitions; the
// FixRanks compensation redistributes the lost probability mass uniformly
// over them, and the algorithm reconverges to the true ranks. The bottom
// plots show (i) vertices converged to their true rank per iteration — the
// plummet after the failure — and (ii) the L1 norm of the difference
// between consecutive rank estimates — downward trend with a spike at the
// failure.
//
//   ./examples/demo_pagerank
//   ./examples/demo_pagerank --graph=twitter --fail=5:0 --partitions=8
//   ./examples/demo_pagerank --interactive
//
// Flags: --graph=demo|twitter|cycle, --fail=iter:parts[;...],
//        --partitions=N, --threads=N, --max-iterations=N, --delay-ms=N,
//        --interactive,
//        --strategy=optimistic|rollback|confined|confined-log|restart|none,
//        --msglog=true|false (outbound message log; implied by
//        --strategy=confined-log),
//        --compensation=redistribute|uniform|full, --cache=true|false,
//        --mem-budget=BYTES (spill cached artifacts beyond this),
//        --metrics-out=PATH (metrics v2 export: .prom = Prometheus text,
//        else NDJSON), --profile (critical-path profile; implied by
//        --trace), --baseline (failure-free re-run; recovery health is then
//        reported net of it)
//
// Exits 1 when the job did not converge or a rank ends farther than the
// convergence tolerance from the reference ranks.

#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>

#include "algos/pagerank.h"
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
  if (name == "demo") return graph::DemoDirectedGraph();
  if (name == "cycle") {
    graph::Graph g(8, true);
    for (int64_t v = 0; v < 8; ++v) {
      FLINKLESS_RETURN_NOT_OK(g.AddEdge(v, (v + 1) % 8));
      FLINKLESS_RETURN_NOT_OK(g.AddEdge(v, (v + 3) % 8));
    }
    return g;
  }
  if (name == "twitter") {
    Rng rng(7);
    return graph::Rmat(12, 8, &rng);
  }
  return Status::InvalidArgument("unknown graph '" + name +
                                 "' (demo|twitter|cycle)");
}

void InteractiveLoop(viz::Playback<viz::RanksFrame>* playback) {
  std::cout << "interactive controls: n=next  b=backward  p=play to end  "
               "q=quit\n\n";
  std::cout << viz::RenderRanks(playback->Current()) << "\n";
  std::string line;
  for (;;) {
    std::cout << "[frame " << playback->position() + 1 << "/"
              << playback->size() << "] > " << std::flush;
    if (!std::getline(std::cin, line)) break;
    if (line == "q") break;
    if (line == "b") {
      playback->StepBackward();
      std::cout << viz::RenderRanks(playback->Current()) << "\n";
    } else if (line == "p") {
      playback->Play();
      while (playback->StepForward()) {
        std::cout << viz::RenderRanks(playback->Current()) << "\n";
      }
    } else {
      if (playback->StepForward()) {
        std::cout << viz::RenderRanks(playback->Current()) << "\n";
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
  std::string* graph_name = flags.String("graph", "demo",
                                         "demo|twitter|cycle");
  std::string* fail_spec = flags.String(
      "fail", "5:1", "failure schedule iter:parts[;iter:parts], '' = none");
  std::string* strategy = flags.String(
      "strategy", "optimistic",
      "optimistic|rollback|confined|confined-log|restart|none");
  std::string* compensation_name = flags.String(
      "compensation", "redistribute", "redistribute|uniform|full");
  int64_t* partitions = flags.Int64("partitions", 4, "degree of parallelism");
  int64_t* threads = flags.Int64(
      "threads", 1, "executor worker threads (1 = serial, 0 = all cores)");
  int64_t* max_iterations = flags.Int64("max-iterations", 40,
                                        "superstep cap");
  int64_t* delay_ms =
      flags.Int64("delay-ms", 0, "pause between frames (slow-motion demo)");
  bool* interactive =
      flags.Bool("interactive", false, "step with n/b/p/q instead of playing");
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
  const bool small = g.num_vertices() <= 32;

  algos::PageRankOptions options;
  options.num_partitions = parts;
  options.num_threads = static_cast<int>(*threads);
  options.max_iterations = static_cast<int>(*max_iterations);
  options.converged_tolerance = 1e-6;
  options.cache_loop_invariant = *cache;
  options.message_log = *msglog || *strategy == "confined-log";
  if (*mem_budget > 0) {
    options.memory_budget_bytes = static_cast<uint64_t>(*mem_budget);
  }
  auto truth = graph::ReferencePageRank(g, options.damping, 1000, 1e-14);

  std::cout << "Optimistic Recovery demo — PageRank (bulk iterations)\n"
            << g.ToString() << ", " << parts << " partitions, strategy "
            << *strategy << ", compensation " << *compensation_name << "\n";
  if (small) std::cout << viz::DescribePartitions(g.num_vertices(), parts);
  for (const auto& event : failures.events()) {
    std::cout << "scheduled failure: " << event.ToString() << "\n";
  }
  std::cout << "\n";

  algos::RankCompensationVariant variant =
      algos::RankCompensationVariant::kRedistributeLostMass;
  if (*compensation_name == "uniform") {
    variant = algos::RankCompensationVariant::kUniformReinit;
  } else if (*compensation_name == "full") {
    variant = algos::RankCompensationVariant::kFullReinit;
  } else if (*compensation_name != "redistribute") {
    std::cerr << "unknown compensation '" << *compensation_name << "'\n";
    return 1;
  }
  algos::FixRanksCompensation compensation(g.num_vertices(), variant);
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
      return std::make_unique<core::ConfinedRollbackPolicy>(2);
    }
    if (*strategy == "confined-log") {
      // Bulk iterations: no checkpoints, the logged messages rebuild the
      // lost partitions exactly.
      return std::make_unique<core::ConfinedLogReplayPolicy>(2);
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

  runtime::MetricsRegistry metrics;
  runtime::StableStorage storage(nullptr, nullptr);
  iteration::JobEnv env;
  env.metrics = &metrics;
  env.failures = &failures;
  env.storage = &storage;
  env.job_id = "demo-pagerank";
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

  viz::Playback<viz::RanksFrame> playback;
  {
    viz::RanksFrame initial;
    initial.iteration = 0;
    initial.ranks.assign(g.num_vertices(),
                         1.0 / static_cast<double>(g.num_vertices()));
    playback.Record(std::move(initial));
  }

  auto run = algos::RunPageRankWithSnapshots(
      g, options, env, policy.get(), &truth,
      [&](int iteration, const std::vector<double>& ranks,
          const std::vector<int>& lost_partitions, bool failure,
          double l1_diff, int64_t converged) {
        viz::RanksFrame frame;
        frame.iteration = iteration;
        frame.ranks = ranks;
        frame.failure = failure;
        frame.l1_diff = l1_diff;
        frame.converged_vertices = converged;
        frame.lost_vertices = viz::VerticesOfPartitions(
            g.num_vertices(), parts, lost_partitions);
        playback.Record(std::move(frame));
      });
  if (!run.ok()) {
    std::cerr << "job failed: " << run.status() << "\n";
    return 1;
  }

  if (*interactive && small) {
    InteractiveLoop(&playback);
  } else if (small) {
    playback.Rewind();
    std::cout << viz::RenderRanks(playback.Current()) << "\n";
    while (playback.StepForward()) {
      if (*delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(*delay_ms));
      }
      std::cout << viz::RenderRanks(playback.Current()) << "\n";
    }
  } else {
    std::cout << "(large graph: progress tracked via statistics only, as in "
                 "the paper)\n\n";
  }

  // The two GUI plots (bottom corners of Figure 4).
  std::cout << AsciiPlot(metrics.GaugeSeries("converged_vertices"), 8,
                         "vertices converged to true PageRank per "
                         "iteration:")
            << "\n";
  std::cout << AsciiPlot(metrics.GaugeSeries("convergence_metric"), 8,
                         "L1 norm of difference between consecutive "
                         "estimates:")
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
      baseline_env.job_id = "demo-pagerank-baseline";
      std::unique_ptr<iteration::FaultTolerancePolicy> baseline_policy =
          make_policy();
      auto base_run =
          algos::RunPageRank(g, options, baseline_env, baseline_policy.get());
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

  double max_err = 0;
  for (size_t v = 0; v < truth.size(); ++v) {
    max_err = std::max(max_err, std::abs(run->ranks[v] - truth[v]));
  }
  std::cout << "converged=" << (run->converged ? "yes" : "no") << " after "
            << run->iterations << " iterations, " << run->failures_recovered
            << " failures recovered, max |rank - true| = " << max_err << "\n";
  return run->converged && max_err <= options.converged_tolerance ? 0 : 1;
}
