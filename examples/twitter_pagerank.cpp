// The "larger graph derived from real-world data" scenario of paper §3.1 as
// a standalone application: PageRank on a Twitter-like power-law graph with
// failures injected mid-run, recovered optimistically, tracked through
// statistics only (the paper does not visualize the large graph either).
//
//   ./examples/twitter_pagerank
//   ./examples/twitter_pagerank --scale=13 --edge-factor=8 --fail=8:3
//   ./examples/twitter_pagerank --strategy=rollback --checkpoint-interval=4

#include <cmath>
#include <iostream>

#include "algos/pagerank.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "runtime/stable_storage.h"

using namespace flinkless;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kInfo);
  FlagParser flags;
  int64_t* scale = flags.Int64("scale", 13, "RMAT scale (2^scale vertices)");
  int64_t* edge_factor = flags.Int64("edge-factor", 8, "edges per vertex");
  int64_t* partitions = flags.Int64("partitions", 8, "degree of parallelism");
  int64_t* max_iterations = flags.Int64("max-iterations", 30,
                                        "superstep cap");
  int64_t* checkpoint_interval =
      flags.Int64("checkpoint-interval", 2, "for --strategy=rollback");
  int64_t* seed = flags.Int64("seed", 2026, "graph generator seed");
  std::string* fail_spec =
      flags.String("fail", "8:3", "failure schedule iter:parts[;...]");
  std::string* strategy = flags.String(
      "strategy", "optimistic", "optimistic|rollback|restart|none");
  if (auto exit_code = flags.ParseMain(argc, argv)) return *exit_code;

  Rng rng(static_cast<uint64_t>(*seed));
  graph::Graph g =
      graph::Rmat(static_cast<int>(*scale), static_cast<int>(*edge_factor),
                  &rng);
  std::cout << "graph: " << g.ToString() << " (" << g.CountDangling()
            << " dangling vertices)\n";

  auto failures_or = runtime::FailureSchedule::Parse(*fail_spec);
  if (!failures_or.ok()) {
    std::cerr << failures_or.status() << "\n";
    return 1;
  }
  runtime::FailureSchedule failures = std::move(failures_or).ValueOrDie();

  algos::PageRankOptions options;
  options.num_partitions = static_cast<int>(*partitions);
  options.max_iterations = static_cast<int>(*max_iterations);
  options.converged_tolerance = 1e-7;

  std::cout << "computing reference ranks (power iteration)...\n";
  auto truth = graph::ReferencePageRank(g, options.damping, 500, 1e-13);

  algos::FixRanksCompensation compensation(g.num_vertices());
  std::unique_ptr<iteration::FaultTolerancePolicy> policy;
  if (*strategy == "optimistic") {
    policy = std::make_unique<core::OptimisticRecoveryPolicy>(&compensation);
  } else if (*strategy == "rollback") {
    policy = std::make_unique<core::CheckpointRollbackPolicy>(
        static_cast<int>(*checkpoint_interval));
  } else if (*strategy == "restart") {
    policy = std::make_unique<core::RestartPolicy>();
  } else if (*strategy == "none") {
    policy = std::make_unique<core::NoFaultTolerancePolicy>();
  } else {
    std::cerr << "unknown strategy '" << *strategy << "'\n";
    return 1;
  }

  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  runtime::MetricsRegistry metrics;
  iteration::JobEnv env;
  env.clock = &clock;
  env.costs = &costs;
  env.storage = &storage;
  env.metrics = &metrics;
  env.failures = &failures;
  env.job_id = "twitter-pagerank";

  runtime::WallTimer wall;
  auto run = algos::RunPageRank(g, options, env, policy.get(), &truth);
  if (!run.ok()) {
    std::cerr << "job failed: " << run.status() << "\n";
    return 1;
  }

  TablePrinter table({"iteration", "converged_vertices", "l1_diff",
                      "messages", "ckpt_bytes", "failure"});
  for (const auto& it : metrics.iterations()) {
    table.Row()
        .Cell(static_cast<int64_t>(it.iteration))
        .Cell(it.Gauge("converged_vertices"))
        .Cell(it.Gauge("convergence_metric"))
        .Cell(it.messages_shuffled)
        .Cell(it.bytes_checkpointed)
        .Cell(it.failure_injected ? "yes" : "");
  }
  table.PrintAscii(std::cout);

  double max_err = 0;
  for (size_t v = 0; v < truth.size(); ++v) {
    max_err = std::max(max_err, std::abs(run->ranks[v] - truth[v]));
  }
  std::cout << "\nstrategy " << policy->name() << ": " << run->iterations
            << " iterations (" << run->supersteps_executed
            << " supersteps), " << run->failures_recovered
            << " failures recovered\n"
            << "wall " << wall.ElapsedMs() << " ms, " << clock.Summary()
            << "\n"
            << "checkpointed " << FormatBytes(storage.bytes_written())
            << ", read back " << FormatBytes(storage.bytes_read()) << "\n"
            << "max |rank - true| = " << max_err << "\n";
  return 0;
}
