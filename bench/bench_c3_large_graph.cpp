// Experiment C3: the "larger graph derived from real-world data" scenario
// (paper §3.1). The original demo uses a Twitter follower snapshot (Cha et
// al., ICWSM'10) and tracks progress "only via plots of statistics of the
// algorithms' execution". The snapshot is not redistributable, so we use a
// Twitter-like synthetic graph — RMAT with Graph500 skew — and emit the
// same statistics series (see DESIGN.md §2 for why the substitution
// preserves the plotted behaviour).

#include <algorithm>
#include <iostream>

#include "algos/connected_components.h"
#include "algos/datasets.h"
#include "algos/pagerank.h"
#include "bench_util.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/policies.h"
#include "dataflow/dataset.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "runtime/thread_pool.h"

using namespace flinkless;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  FlagParser flags;
  int64_t* scale = flags.Int64(
      "scale", 14, "RMAT scale: 2^scale vertices, 8x that many edges");
  bool* sweep_only = flags.Bool(
      "sweep-only", false,
      "run only the thread-count sweep (the CI perf-smoke subset)");
  if (auto exit_code = flags.ParseMain(argc, argv)) return *exit_code;
  bench::Banner("C3",
                "Large Twitter-like graph scenario: statistics-only "
                "tracking of PageRank and Connected Components with "
                "mid-run failures and optimistic recovery");

  const int parts = 8;
  Rng rng(2026);
  // Default: 16384 vertices, 131072 edges.
  graph::Graph g = graph::Rmat(static_cast<int>(*scale), 8, &rng);
  std::cout << "graph: " << g.ToString() << " (RMAT scale " << *scale
            << ", Graph500 skew; Twitter-snapshot substitute)\n\n";

  // ------------------------------------------------------------ PageRank --
  if (!*sweep_only) {
    algos::PageRankOptions options;
    options.num_partitions = parts;
    options.max_iterations = 25;
    options.converged_tolerance = 1e-7;
    auto truth = graph::ReferencePageRank(g, options.damping, 500, 1e-13);

    bench::JobHarness harness("c3-pagerank");
    harness.SetFailures(runtime::FailureSchedule(
        std::vector<runtime::FailureEvent>{{8, {3}}, {16, {5}}}));
    algos::FixRanksCompensation fix_ranks(g.num_vertices());
    core::OptimisticRecoveryPolicy policy(&fix_ranks);
    runtime::WallTimer wall;
    auto result =
        algos::RunPageRank(g, options, harness.Env(), &policy, &truth);
    FLINKLESS_CHECK(result.ok(), result.status().ToString());

    std::cout << "PageRank: " << result->iterations << " iterations, "
              << result->failures_recovered << " failures recovered, wall "
              << wall.ElapsedMs() << " ms, "
              << harness.clock().Summary() << "\n";
    TablePrinter table({"iteration", "converged_vertices", "l1_diff",
                        "messages", "total_mass", "failure"});
    for (const auto& it : harness.metrics().iterations()) {
      table.Row()
          .Cell(static_cast<int64_t>(it.iteration))
          .Cell(it.Gauge("converged_vertices"))
          .Cell(it.Gauge("convergence_metric"))
          .Cell(it.messages_shuffled)
          .Cell(it.Gauge("total_mass"))
          .Cell(it.failure_injected ? "yes" : "");
    }
    bench::Emit(table);
  }

  // CC needs an undirected view; reuse the RMAT edge set symmetrically.
  graph::Graph cc_graph(g.num_vertices(), /*directed=*/false);
  for (const graph::Edge& e : g.edges()) {
    Status s = cc_graph.AddEdge(e.src, e.dst);
    FLINKLESS_CHECK(s.ok(), s.ToString());
  }

  // ------------------------------------------------- Connected Components --
  if (!*sweep_only) {
    auto truth = graph::ReferenceConnectedComponents(cc_graph);

    algos::ConnectedComponentsOptions options;
    options.num_partitions = parts;

    bench::JobHarness harness("c3-cc");
    harness.SetFailures(runtime::FailureSchedule(
        std::vector<runtime::FailureEvent>{{3, {1}}}));
    algos::FixComponentsCompensation fix_components(&cc_graph);
    core::OptimisticRecoveryPolicy policy(&fix_components);
    runtime::WallTimer wall;
    auto result = algos::RunConnectedComponents(cc_graph, options,
                                                harness.Env(), &policy,
                                                &truth);
    FLINKLESS_CHECK(result.ok(), result.status().ToString());
    FLINKLESS_CHECK(result->labels == truth, "CC result incorrect");

    std::cout << "Connected Components: " << result->iterations
              << " iterations, " << result->failures_recovered
              << " failures recovered, result correct, wall "
              << wall.ElapsedMs() << " ms, " << harness.clock().Summary()
              << "\n";
    TablePrinter table({"iteration", "converged_vertices", "workset_size",
                        "messages", "solution_updates", "failure"});
    for (const auto& it : harness.metrics().iterations()) {
      table.Row()
          .Cell(static_cast<int64_t>(it.iteration))
          .Cell(it.Gauge("converged_vertices"))
          .Cell(it.Gauge("workset_size"))
          .Cell(it.messages_shuffled)
          .Cell(it.Gauge("solution_updates"))
          .Cell(it.failure_injected ? "yes" : "");
    }
    bench::Emit(table);
  }

  // ------------------------------------------------- Thread-count sweep --
  // Wall-clock scaling of the same two failure/recovery jobs over executor
  // thread counts. The determinism contract is enforced, not assumed: every
  // point must reproduce the single-threaded result bit-for-bit (for
  // PageRank that means identical doubles). Simulated time is charged
  // identically at every point; only wall time may move.
  {
    std::cout << "Thread-count sweep (hardware_concurrency="
              << runtime::ThreadPool::HardwareConcurrency() << ")\n";
    bench::JsonReport report("C3-threads");
    TablePrinter table({"algo", "threads", "wall_ms", "sim_ms", "iterations",
                        "messages", "identical"});
    std::vector<double> pr_baseline;
    std::vector<int64_t> cc_baseline;
    for (int threads : {1, 2, 4, 8}) {
      {
        algos::PageRankOptions options;
        options.num_partitions = parts;
        options.max_iterations = 25;
        options.num_threads = threads;
              bench::JobHarness harness("c3-pr-t" + std::to_string(threads));
        harness.SetFailures(runtime::FailureSchedule(
            std::vector<runtime::FailureEvent>{{8, {3}}, {16, {5}}}));
        algos::FixRanksCompensation fix_ranks(g.num_vertices());
        core::OptimisticRecoveryPolicy policy(&fix_ranks);
        runtime::WallTimer wall;
        auto result =
            algos::RunPageRank(g, options, harness.Env(), &policy, nullptr);
        FLINKLESS_CHECK(result.ok(), result.status().ToString());
        double wall_ms = wall.ElapsedMs();
        if (threads == 1) pr_baseline = result->ranks;
        bool identical = result->ranks == pr_baseline;
        FLINKLESS_CHECK(identical, "PageRank output depends on thread count");
        uint64_t messages = harness.metrics().TotalMessages();
        table.Row()
            .Cell("pagerank")
            .Cell(static_cast<int64_t>(threads))
            .Cell(wall_ms)
            .Cell(harness.clock().TotalMs())
            .Cell(static_cast<int64_t>(result->iterations))
            .Cell(messages)
            .Cell(identical ? "yes" : "NO");
        report.AddEntry()
            .Set("algo", "pagerank")
            .Set("num_threads", threads)
            .Set("wall_ms", wall_ms)
            .Set("sim_ms", harness.clock().TotalMs())
            .Set("iterations", result->iterations)
            .Set("messages_shuffled", messages)
            .Set("failures_recovered", result->failures_recovered)
            .Set("identical_to_serial", identical);
      }
      {
        algos::ConnectedComponentsOptions options;
        options.num_partitions = parts;
        options.num_threads = threads;
              bench::JobHarness harness("c3-cc-t" + std::to_string(threads));
        harness.SetFailures(runtime::FailureSchedule(
            std::vector<runtime::FailureEvent>{{3, {1}}}));
        algos::FixComponentsCompensation fix_components(&cc_graph);
        core::OptimisticRecoveryPolicy policy(&fix_components);
        runtime::WallTimer wall;
        auto result = algos::RunConnectedComponents(cc_graph, options,
                                                    harness.Env(), &policy);
        FLINKLESS_CHECK(result.ok(), result.status().ToString());
        double wall_ms = wall.ElapsedMs();
        if (threads == 1) cc_baseline = result->labels;
        bool identical = result->labels == cc_baseline;
        FLINKLESS_CHECK(identical, "CC output depends on thread count");
        uint64_t messages = harness.metrics().TotalMessages();
        table.Row()
            .Cell("connected-components")
            .Cell(static_cast<int64_t>(threads))
            .Cell(wall_ms)
            .Cell(harness.clock().TotalMs())
            .Cell(static_cast<int64_t>(result->iterations))
            .Cell(messages)
            .Cell(identical ? "yes" : "NO");
        report.AddEntry()
            .Set("algo", "connected-components")
            .Set("num_threads", threads)
            .Set("wall_ms", wall_ms)
            .Set("sim_ms", harness.clock().TotalMs())
            .Set("iterations", result->iterations)
            .Set("messages_shuffled", messages)
            .Set("failures_recovered", result->failures_recovered)
            .Set("identical_to_serial", identical);
      }
    }
    bench::Emit(table);

    // Delta-upsert phase in isolation: SolutionSet::ApplyDelta over a full
    // graph-sized delta, the exact code path the delta driver runs each
    // superstep. Wall time should drop with threads; the resulting solution
    // bytes and version clocks must not move at all.
    {
      const int rounds = 50;
      std::vector<dataflow::Record> labels = algos::InitialLabels(cc_graph);
      auto delta = dataflow::PartitionedDataset::HashPartitioned(
          labels, {0}, parts);
      TablePrinter upsert_table(
          {"phase", "threads", "wall_ms", "records_per_round", "identical"});
      std::vector<uint64_t> baseline_versions;
      for (int threads : {1, 2, 4, 8}) {
        iteration::SolutionSet solution(parts, {0});
        for (const dataflow::Record& r : labels) solution.Upsert(r);
        runtime::ThreadPool pool(threads);
        runtime::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
        // ApplyDelta consumes its argument; copy the rounds up front so the
        // timed region holds only the scatter/apply phases.
        std::vector<dataflow::PartitionedDataset> round_deltas(rounds, delta);
        runtime::WallTimer wall;
        for (dataflow::PartitionedDataset& d : round_deltas) {
          solution.ApplyDelta(std::move(d), pool_ptr, nullptr);
        }
        double wall_ms = wall.ElapsedMs();
        if (threads == 1) baseline_versions = solution.VersionVector();
        bool identical = solution.VersionVector() == baseline_versions;
        FLINKLESS_CHECK(identical,
                        "solution versions depend on thread count");
        upsert_table.Row()
            .Cell("delta-upsert")
            .Cell(static_cast<int64_t>(threads))
            .Cell(wall_ms)
            .Cell(static_cast<int64_t>(labels.size()))
            .Cell(identical ? "yes" : "NO");
        report.AddEntry()
            .Set("algo", "delta-upsert-phase")
            .Set("num_threads", threads)
            .Set("wall_ms", wall_ms)
            .Set("records_per_round", static_cast<int64_t>(labels.size()))
            .Set("rounds", rounds)
            .Set("identical_to_serial", identical);
      }
      bench::Emit(upsert_table);
    }

    const std::string json_path = "BENCH_threads.json";
    FLINKLESS_CHECK(report.WriteFile(json_path),
                    "cannot write " + json_path);
    std::cout << "json: wrote " << json_path << "\n";
  }

  // ------------------------------------------- loop-invariant cache sweep --
  // The same two failure/recovery jobs with the superstep-persistent
  // ExecCache on and off (DESIGN.md §10). Correctness is enforced: cached
  // runs must reproduce the uncached results bit-for-bit. The win shows up
  // in simulated time per superstep — the static side (links, dangling,
  // edges) is shuffled and index-built once per job instead of once per
  // superstep.
  if (!*sweep_only) {
    std::cout << "Loop-invariant cache sweep (cache off vs on)\n";
    bench::JsonReport report("C3-cache");
    TablePrinter table({"algo", "cache", "wall_ms", "sim_ms",
                        "sim_ms_per_superstep", "iterations", "identical"});
    std::vector<double> pr_baseline;
    std::vector<int64_t> cc_baseline;
    double pr_plain_step_ms = 0, cc_plain_step_ms = 0;
    for (bool cached : {false, true}) {
      {
        algos::PageRankOptions options;
        options.num_partitions = parts;
        options.max_iterations = 25;
        options.cache_loop_invariant = cached;
        bench::JobHarness harness(std::string("c3-pr-cache") +
                                  (cached ? "1" : "0"));
        harness.SetFailures(runtime::FailureSchedule(
            std::vector<runtime::FailureEvent>{{8, {3}}, {16, {5}}}));
        algos::FixRanksCompensation fix_ranks(g.num_vertices());
        core::OptimisticRecoveryPolicy policy(&fix_ranks);
        runtime::WallTimer wall;
        auto result =
            algos::RunPageRank(g, options, harness.Env(), &policy, nullptr);
        FLINKLESS_CHECK(result.ok(), result.status().ToString());
        double wall_ms = wall.ElapsedMs();
        if (!cached) pr_baseline = result->ranks;
        bool identical = result->ranks == pr_baseline;
        FLINKLESS_CHECK(identical, "caching changed the PageRank result");
        double step_ms =
            harness.clock().TotalMs() / std::max(1, result->iterations);
        if (!cached) pr_plain_step_ms = step_ms;
        table.Row()
            .Cell("pagerank")
            .Cell(cached ? "on" : "off")
            .Cell(wall_ms)
            .Cell(harness.clock().TotalMs())
            .Cell(step_ms)
            .Cell(static_cast<int64_t>(result->iterations))
            .Cell(identical ? "yes" : "NO");
        report.AddEntry()
            .Set("algo", "pagerank")
            .Set("cache_loop_invariant", cached)
            .Set("wall_ms", wall_ms)
            .Set("sim_ms", harness.clock().TotalMs())
            .Set("sim_ms_per_superstep", step_ms)
            .Set("superstep_speedup",
                 cached && step_ms > 0 ? pr_plain_step_ms / step_ms : 1.0)
            .Set("iterations", result->iterations)
            .Set("failures_recovered", result->failures_recovered)
            .Set("identical_to_uncached", identical);
      }
      {
        algos::ConnectedComponentsOptions options;
        options.num_partitions = parts;
        options.cache_loop_invariant = cached;
        bench::JobHarness harness(std::string("c3-cc-cache") +
                                  (cached ? "1" : "0"));
        harness.SetFailures(runtime::FailureSchedule(
            std::vector<runtime::FailureEvent>{{3, {1}}}));
        algos::FixComponentsCompensation fix_components(&cc_graph);
        core::OptimisticRecoveryPolicy policy(&fix_components);
        runtime::WallTimer wall;
        auto result = algos::RunConnectedComponents(cc_graph, options,
                                                    harness.Env(), &policy);
        FLINKLESS_CHECK(result.ok(), result.status().ToString());
        double wall_ms = wall.ElapsedMs();
        if (!cached) cc_baseline = result->labels;
        bool identical = result->labels == cc_baseline;
        FLINKLESS_CHECK(identical, "caching changed the CC result");
        double step_ms =
            harness.clock().TotalMs() / std::max(1, result->iterations);
        if (!cached) cc_plain_step_ms = step_ms;
        table.Row()
            .Cell("connected-components")
            .Cell(cached ? "on" : "off")
            .Cell(wall_ms)
            .Cell(harness.clock().TotalMs())
            .Cell(step_ms)
            .Cell(static_cast<int64_t>(result->iterations))
            .Cell(identical ? "yes" : "NO");
        report.AddEntry()
            .Set("algo", "connected-components")
            .Set("cache_loop_invariant", cached)
            .Set("wall_ms", wall_ms)
            .Set("sim_ms", harness.clock().TotalMs())
            .Set("sim_ms_per_superstep", step_ms)
            .Set("superstep_speedup",
                 cached && step_ms > 0 ? cc_plain_step_ms / step_ms : 1.0)
            .Set("iterations", result->iterations)
            .Set("failures_recovered", result->failures_recovered)
            .Set("identical_to_uncached", identical);
      }
    }
    bench::Emit(table);
    const std::string json_path = "BENCH_cache.json";
    FLINKLESS_CHECK(report.WriteFile(json_path),
                    "cannot write " + json_path);
    std::cout << "json: wrote " << json_path << "\n";
  }

  // --------------------------------------------- memory-budget spill sweep --
  // The budgeted MemoryManager (DESIGN.md §11) under pressure: the same two
  // failure/recovery jobs at an unlimited budget, then at 50% and 10% of
  // the peak residency the unlimited run measured. Correctness is enforced
  // bit-for-bit at every budget; the cost of the thrash shows up in
  // simulated checkpoint I/O per superstep, reported per iteration in
  // BENCH_spill.json together with the spilled bytes.
  if (!*sweep_only) {
    std::cout << "Memory-budget spill sweep (unlimited vs 50% vs 10% of "
                 "peak residency)\n";
    bench::JsonReport report("C3-spill");
    TablePrinter table({"algo", "budget", "sim_ms", "spills", "unspills",
                        "spilled_bytes", "peak_resident_bytes", "identical"});

    struct SpillPoint {
      const char* label;
      uint64_t budget;
    };
    auto budgets_of = [](uint64_t peak) {
      return std::vector<SpillPoint>{{"unlimited", 0},
                                     {"50%-of-peak", std::max<uint64_t>(
                                                         1, peak / 2)},
                                     {"10%-of-peak", std::max<uint64_t>(
                                                         1, peak / 10)}};
    };

    // ---- PageRank ----
    {
      std::vector<double> pr_baseline;
      uint64_t pr_peak = 0;
      std::vector<SpillPoint> points{{"unlimited", 0}};
      for (size_t i = 0; i < points.size(); ++i) {
        const SpillPoint point = points[i];
        algos::PageRankOptions options;
        options.num_partitions = parts;
        options.max_iterations = 25;
        options.memory_budget_bytes = point.budget;
        bench::JobHarness harness(std::string("c3-pr-spill-") + point.label);
        harness.SetFailures(runtime::FailureSchedule(
            std::vector<runtime::FailureEvent>{{8, {3}}, {16, {5}}}));
        algos::FixRanksCompensation fix_ranks(g.num_vertices());
        core::OptimisticRecoveryPolicy policy(&fix_ranks);
        auto result =
            algos::RunPageRank(g, options, harness.Env(), &policy, nullptr);
        FLINKLESS_CHECK(result.ok(), result.status().ToString());
        if (point.budget == 0) pr_baseline = result->ranks;
        bool identical = result->ranks == pr_baseline;
        FLINKLESS_CHECK(identical, "budget changed the PageRank result");

        uint64_t spills = 0, unspills = 0, spilled = 0, peak = 0;
        for (const auto& it : harness.metrics().iterations()) {
          spills += it.spills;
          unspills += it.unspills;
          spilled += it.spilled_bytes;
          peak = std::max(peak, it.peak_resident_bytes);
          report.AddEntry()
              .Set("algo", "pagerank")
              .Set("budget", point.label)
              .Set("budget_bytes", static_cast<int64_t>(point.budget))
              .Set("iteration", static_cast<int64_t>(it.iteration))
              .Set("sim_ms", static_cast<double>(it.SimTimeNs()) / 1e6)
              .Set("spilled_bytes", static_cast<int64_t>(it.spilled_bytes))
              .Set("spills", static_cast<int64_t>(it.spills))
              .Set("unspills", static_cast<int64_t>(it.unspills));
        }
        if (point.budget == 0) {
          pr_peak = peak;
          auto sized = budgets_of(pr_peak);
          points.assign(sized.begin(), sized.end());
          FLINKLESS_CHECK(spills == 0,
                          "unlimited budget must not spill");
        } else {
          FLINKLESS_CHECK(spills > 0, "budget below peak must spill");
        }
        table.Row()
            .Cell("pagerank")
            .Cell(point.label)
            .Cell(harness.clock().TotalMs())
            .Cell(spills)
            .Cell(unspills)
            .Cell(spilled)
            .Cell(peak)
            .Cell(identical ? "yes" : "NO");
      }
    }

    // ---- Connected Components ----
    {
      std::vector<int64_t> cc_baseline;
      uint64_t cc_peak = 0;
      std::vector<SpillPoint> points{{"unlimited", 0}};
      for (size_t i = 0; i < points.size(); ++i) {
        const SpillPoint point = points[i];
        algos::ConnectedComponentsOptions options;
        options.num_partitions = parts;
        options.memory_budget_bytes = point.budget;
        bench::JobHarness harness(std::string("c3-cc-spill-") + point.label);
        harness.SetFailures(runtime::FailureSchedule(
            std::vector<runtime::FailureEvent>{{3, {1}}}));
        algos::FixComponentsCompensation fix_components(&cc_graph);
        core::OptimisticRecoveryPolicy policy(&fix_components);
        auto result = algos::RunConnectedComponents(cc_graph, options,
                                                    harness.Env(), &policy);
        FLINKLESS_CHECK(result.ok(), result.status().ToString());
        if (point.budget == 0) cc_baseline = result->labels;
        bool identical = result->labels == cc_baseline;
        FLINKLESS_CHECK(identical, "budget changed the CC result");

        uint64_t spills = 0, unspills = 0, spilled = 0, peak = 0;
        for (const auto& it : harness.metrics().iterations()) {
          spills += it.spills;
          unspills += it.unspills;
          spilled += it.spilled_bytes;
          peak = std::max(peak, it.peak_resident_bytes);
          report.AddEntry()
              .Set("algo", "connected-components")
              .Set("budget", point.label)
              .Set("budget_bytes", static_cast<int64_t>(point.budget))
              .Set("iteration", static_cast<int64_t>(it.iteration))
              .Set("sim_ms", static_cast<double>(it.SimTimeNs()) / 1e6)
              .Set("spilled_bytes", static_cast<int64_t>(it.spilled_bytes))
              .Set("spills", static_cast<int64_t>(it.spills))
              .Set("unspills", static_cast<int64_t>(it.unspills));
        }
        if (point.budget == 0) {
          cc_peak = peak;
          auto sized = budgets_of(cc_peak);
          points.assign(sized.begin(), sized.end());
          FLINKLESS_CHECK(spills == 0,
                          "unlimited budget must not spill");
        } else {
          FLINKLESS_CHECK(spills > 0, "budget below peak must spill");
        }
        table.Row()
            .Cell("connected-components")
            .Cell(point.label)
            .Cell(harness.clock().TotalMs())
            .Cell(spills)
            .Cell(unspills)
            .Cell(spilled)
            .Cell(peak)
            .Cell(identical ? "yes" : "NO");
      }
    }

    bench::Emit(table);
    const std::string json_path = "BENCH_spill.json";
    FLINKLESS_CHECK(report.WriteFile(json_path),
                    "cannot write " + json_path);
    std::cout << "json: wrote " << json_path << "\n";
  }
  return 0;
}
