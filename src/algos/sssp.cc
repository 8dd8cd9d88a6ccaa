#include "algos/sssp.h"

#include <set>

#include "algos/datasets.h"
#include "common/logging.h"
#include "dataflow/executor.h"

namespace flinkless::algos {

using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

Plan BuildSsspPlan() {
  Plan plan;
  auto workset = plan.Source("workset");
  auto edges = plan.Source("edges");
  auto solution = plan.Source("solution");

  auto relaxed = plan.Join(
      workset, edges, {0}, {0},
      [](const Record& w, const Record& e) {
        return MakeRecord(e[1].AsInt64(), w[1].AsInt64() + 1);
      },
      "relax-neighbors");

  auto candidates = plan.ReduceByKey(
      relaxed, {0},
      [](const Record& a, const Record& b) {
        return a[1].AsInt64() <= b[1].AsInt64() ? a : b;
      },
      "min-distance");
  // Same min-keeping-the-accumulator-on-ties combiner as CC's
  // candidate-label: folds flat int64 columns (DESIGN.md §15).
  plan.DeclareReduce(candidates, dataflow::ReduceKind::kMinInt64, 1);

  auto compared = plan.Join(
      candidates, solution, {0}, {0},
      [](const Record& cand, const Record& cur) {
        return MakeRecord(cand[0].AsInt64(), cand[1].AsInt64(),
                          cur[1].AsInt64());
      },
      "distance-update");
  auto improved = plan.Filter(
      compared,
      [](const Record& r) { return r[1].AsInt64() < r[2].AsInt64(); },
      "distance-update-filter");
  auto delta = plan.Project(improved, {0, 1}, "updated-distances");

  plan.Output(delta, "delta");
  plan.Output(delta, "next_workset");
  return plan;
}

FixDistancesCompensation::FixDistancesCompensation(const graph::Graph* graph,
                                                   int64_t source)
    : graph_(graph), source_(source) {
  FLINKLESS_CHECK(graph_ != nullptr, "fix-distances needs the graph");
  FLINKLESS_CHECK(source_ >= 0 && source_ < graph_->num_vertices(),
                  "sssp source out of range");
}

Status FixDistancesCompensation::Compensate(
    const iteration::IterationContext& ctx, iteration::IterationState* state,
    const std::vector<int>& lost) {
  if (state->kind() != iteration::StateKind::kDelta) {
    return Status::InvalidArgument(
        "fix-distances compensates delta iterations only");
  }
  auto* delta = static_cast<iteration::DeltaState*>(state);
  const int num_partitions = delta->num_partitions();
  std::set<int> lost_set(lost.begin(), lost.end());

  // Rebuild the lost partitions in parallel: each ReplacePartition touches
  // only its own partition's rows and version clock.
  std::vector<int> lost_list(lost_set.begin(), lost_set.end());
  std::vector<std::vector<int64_t>> restored_of(lost_list.size());
  std::vector<Status> replace_status(lost_list.size());
  runtime::ParallelFor(
      ctx.pool, static_cast<int>(lost_list.size()), [&](int i) {
        const int p = lost_list[i];
        std::vector<Record> records;
        for (int64_t v = 0; v < graph_->num_vertices(); ++v) {
          if (PartitionOfVertex(v, num_partitions) == p) {
            records.push_back(
                MakeRecord(v, v == source_ ? int64_t{0} : kSsspInfinity));
            restored_of[i].push_back(v);
          }
        }
        replace_status[i] =
            delta->solution().ReplacePartition(p, std::move(records));
      });
  for (const Status& s : replace_status) {
    if (!s.ok()) return s;
  }
  std::vector<int64_t> restored;
  for (const auto& part : restored_of) {
    restored.insert(restored.end(), part.begin(), part.end());
  }

  // Restored vertices and their neighbors re-propagate their distances.
  std::set<int64_t> propagators;
  for (int64_t v : restored) {
    propagators.insert(v);
    for (int64_t u : graph_->Neighbors(v)) propagators.insert(u);
  }
  std::vector<std::set<int64_t>> queued(num_partitions);
  for (int p = 0; p < num_partitions; ++p) {
    for (const Record& r : delta->workset().partition(p)) {
      queued[p].insert(r[0].AsInt64());
    }
  }
  for (int64_t v : propagators) {
    const Record* entry = delta->solution().Lookup(MakeRecord(v));
    if (entry == nullptr) {
      return Status::Internal("vertex " + std::to_string(v) +
                              " missing from solution set after compensation");
    }
    // Vertices still at infinity have nothing useful to propagate.
    if ((*entry)[1].AsInt64() >= kSsspInfinity) continue;
    int p = PartitionOfVertex(v, num_partitions);
    if (queued[p].insert(v).second) {
      delta->workset().partition(p).push_back(*entry);
    }
  }
  return Status::OK();
}

Result<SsspResult> RunSssp(const graph::Graph& graph,
                           const SsspOptions& options, iteration::JobEnv env,
                           iteration::FaultTolerancePolicy* policy,
                           const std::vector<int64_t>* true_distances) {
  if (options.source < 0 || options.source >= graph.num_vertices()) {
    return Status::InvalidArgument("sssp source out of range");
  }
  Plan plan = BuildSsspPlan();

  PartitionedDataset edges = EdgePairs(graph, options.num_partitions);
  dataflow::Bindings statics;
  statics["edges"] = &edges;

  std::vector<Record> initial_solution;
  initial_solution.reserve(graph.num_vertices());
  for (int64_t v = 0; v < graph.num_vertices(); ++v) {
    initial_solution.push_back(
        MakeRecord(v, v == options.source ? int64_t{0} : kSsspInfinity));
  }
  PartitionedDataset initial_workset = PartitionedDataset::HashPartitioned(
      {MakeRecord(options.source, int64_t{0})}, {0}, options.num_partitions);

  iteration::DeltaIterationConfig config;
  config.max_iterations = options.max_iterations;
  config.message_log = options.message_log;
  config.solution_key = {0};
  if (true_distances != nullptr) {
    config.stats_hook = [true_distances](
                            int /*iteration*/,
                            const iteration::SolutionSet& solution,
                            const PartitionedDataset& /*workset*/,
                            runtime::IterationStats* stats) {
      int64_t converged = 0;
      for (int p = 0; p < solution.num_partitions(); ++p) {
        for (const Record& r : solution.PartitionRecords(p)) {
          int64_t v = r[0].AsInt64();
          int64_t dist = r[1].AsInt64();
          int64_t truth = (*true_distances)[v];
          if ((truth < 0 && dist >= kSsspInfinity) || dist == truth) {
            ++converged;
          }
        }
      }
      stats->gauges["converged_vertices"] = static_cast<double>(converged);
    };
  }

  dataflow::ExecOptions exec;
  exec.num_partitions = options.num_partitions;
  exec.num_threads = options.num_threads;
  exec.clock = env.clock;
  exec.costs = env.costs;

  iteration::DeltaIterationDriver driver(&plan, statics, config, exec, env);
  FLINKLESS_ASSIGN_OR_RETURN(
      iteration::DeltaIterationResult run,
      driver.Run(std::move(initial_solution), std::move(initial_workset),
                 policy));

  SsspResult result;
  std::vector<Record> entries;
  for (int p = 0; p < run.final_solution.num_partitions(); ++p) {
    auto part = run.final_solution.PartitionRecords(p);
    entries.insert(entries.end(), part.begin(), part.end());
  }
  FLINKLESS_ASSIGN_OR_RETURN(
      result.distances,
      ToInt64Vector(entries, graph.num_vertices(), kSsspInfinity));
  for (int64_t& d : result.distances) {
    if (d >= kSsspInfinity) d = -1;
  }
  result.iterations = run.iterations;
  result.supersteps_executed = run.supersteps_executed;
  result.converged = run.converged;
  result.failures_recovered = run.failures_recovered;
  return result;
}

}  // namespace flinkless::algos
