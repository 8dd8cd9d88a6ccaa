// Ablation A4: how far classic engineering can shrink the checkpoint
// overhead that optimistic recovery eliminates entirely.
//
// Compared on delta-iterative Connected Components, per-iteration
// checkpoint bytes and totals:
//   full        — every partition, every checkpoint;
//   entry-level — write only the solution entries modified since the last
//                 checkpoint (DeltaCheckpointPolicy's chain of deltas);
//                 shrinks with the update rate;
//   optimistic  — the paper's answer: zero bytes, always.
// Skipping partitions whose bytes did not change saves nothing here: under
// hash partitioning every partition holds vertices of still-converging
// regions, so a partition-granular mode wrote exactly the full column's
// bytes and was removed. Correctness is identical everywhere.

#include <iostream>

#include "algos/connected_components.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/reference.h"

using namespace flinkless;

int main() {
  SetLogLevel(LogLevel::kWarning);
  bench::Banner("A4",
                "Full vs entry-level checkpoints vs optimistic for delta-"
                "iterative Connected Components");

  Rng rng(12);
  graph::Graph g = graph::PreferentialAttachment(3000, 2, &rng);
  auto truth = graph::ReferenceConnectedComponents(g);
  algos::ConnectedComponentsOptions options;
  options.num_partitions = 4;

  struct RunData {
    std::vector<double> bytes_per_iteration;
    uint64_t total_bytes = 0;
    double sim_total_ms = 0;
    bool correct = false;
  };

  auto run_with = [&](const std::string& label,
                      iteration::FaultTolerancePolicy* policy) {
    bench::JobHarness harness("a4-" + label);
    harness.SetFailures(runtime::FailureSchedule(
        std::vector<runtime::FailureEvent>{{4, {1}}}));
    auto result =
        algos::RunConnectedComponents(g, options, harness.Env(), policy);
    FLINKLESS_CHECK(result.ok(), label + ": " + result.status().ToString());
    RunData data;
    for (const auto& it : harness.metrics().iterations()) {
      data.bytes_per_iteration.push_back(
          static_cast<double>(it.bytes_checkpointed));
    }
    data.total_bytes = harness.storage().bytes_written();
    data.sim_total_ms = harness.clock().TotalMs();
    data.correct = result->labels == truth;
    return data;
  };

  core::CheckpointRollbackPolicy full(1);
  RunData full_data = run_with("full", &full);
  core::DeltaCheckpointPolicy entry_level(1);
  RunData entry_data = run_with("entry-level", &entry_level);
  algos::FixComponentsCompensation compensation(&g);
  core::OptimisticRecoveryPolicy optimistic(&compensation);
  RunData opt_data = run_with("optimistic", &optimistic);

  std::cout << "workload: " << g.ToString()
            << ", checkpoint every iteration, failure at iteration 4\n\n";

  TablePrinter per_iter({"iteration", "ckpt_bytes(full)",
                         "ckpt_bytes(entry-level)",
                         "ckpt_bytes(optimistic)"});
  size_t rows = std::max({full_data.bytes_per_iteration.size(),
                          entry_data.bytes_per_iteration.size(),
                          opt_data.bytes_per_iteration.size()});
  for (size_t i = 0; i < rows; ++i) {
    auto cell = [&](const RunData& d) {
      return i < d.bytes_per_iteration.size()
                 ? static_cast<int64_t>(d.bytes_per_iteration[i])
                 : int64_t{0};
    };
    per_iter.Row()
        .Cell(static_cast<int64_t>(i + 1))
        .Cell(cell(full_data))
        .Cell(cell(entry_data))
        .Cell(cell(opt_data));
  }
  bench::Emit(per_iter);

  TablePrinter totals({"strategy", "total_ckpt_bytes", "sim_total_ms",
                       "correct"});
  totals.Row()
      .Cell("rollback(k=1) full")
      .Cell(full_data.total_bytes)
      .Cell(full_data.sim_total_ms)
      .Cell(full_data.correct ? "yes" : "NO");
  totals.Row()
      .Cell("delta-ckpt(k=1)")
      .Cell(entry_data.total_bytes)
      .Cell(entry_data.sim_total_ms)
      .Cell(entry_data.correct ? "yes" : "NO");
  totals.Row()
      .Cell("optimistic")
      .Cell(opt_data.total_bytes)
      .Cell(opt_data.sim_total_ms)
      .Cell(opt_data.correct ? "yes" : "NO");
  bench::Emit(totals);
  return 0;
}
