#include "algos/connected_components.h"

#include <set>
#include <unordered_map>

#include "algos/datasets.h"
#include "common/logging.h"
#include "dataflow/executor.h"
#include "iteration/bulk_iteration.h"

namespace flinkless::algos {

using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

Plan BuildConnectedComponentsPlan() {
  Plan plan;
  auto workset = plan.Source("workset");
  auto edges = plan.Source("edges");
  auto solution = plan.Source("solution");

  // Send the (updated) label of each workset vertex to its neighbors. The
  // static edge table is the join's build side so the iteration cache can
  // keep its shuffled form and hash index across supersteps; the shrinking
  // workset probes it.
  auto messages = plan.Join(
      edges, workset, {0}, {0},
      [](const Record& e, const Record& w) {
        return MakeRecord(e[1].AsInt64(), w[1].AsInt64());
      },
      "label-to-neighbors");

  // Minimum candidate label per vertex.
  auto candidates = plan.ReduceByKey(
      messages, {0},
      [](const Record& a, const Record& b) {
        return a[1].AsInt64() <= b[1].AsInt64() ? a : b;
      },
      "candidate-label");
  // The combiner is a min over column 1 keeping the accumulator on ties;
  // declaring it lets the executor fold flat int64 columns (DESIGN.md §15).
  plan.DeclareReduce(candidates, dataflow::ReduceKind::kMinInt64, 1);

  // Compare to the current label; keep only improvements.
  auto compared = plan.Join(
      candidates, solution, {0}, {0},
      [](const Record& cand, const Record& cur) {
        return MakeRecord(cand[0].AsInt64(), cand[1].AsInt64(),
                          cur[1].AsInt64());
      },
      "label-update");
  // Filter + project fused into one FlatMap: one UDF call per record
  // instead of two.
  auto delta = plan.FlatMap(
      compared,
      [](const Record& r, std::vector<Record>* out) {
        if (r[1].AsInt64() < r[2].AsInt64()) {
          out->push_back(MakeRecord(r[0].AsInt64(), r[1].AsInt64()));
        }
      },
      "updated-labels");

  // The improvements update the solution set and, as the next workset, are
  // forwarded to the neighbors in the next superstep — the feedback edge of
  // Figure 1(a).
  plan.Output(delta, "delta");
  plan.Output(delta, "next_workset");
  return plan;
}

FixComponentsCompensation::FixComponentsCompensation(
    const graph::Graph* graph)
    : graph_(graph) {
  FLINKLESS_CHECK(graph_ != nullptr, "fix-components needs the graph");
}

Status FixComponentsCompensation::Compensate(
    const iteration::IterationContext& ctx, iteration::IterationState* state,
    const std::vector<int>& lost) {
  const int num_partitions = state->num_partitions();
  std::set<int> lost_set(lost.begin(), lost.end());
  std::vector<int> lost_list(lost_set.begin(), lost_set.end());

  // Vertex ids of each lost partition (ascending), computed once; the
  // per-partition repair work below runs on the executor's pool.
  std::vector<std::vector<int64_t>> lost_members(lost_list.size());
  for (int64_t v = 0; v < graph_->num_vertices(); ++v) {
    int p = PartitionOfVertex(v, num_partitions);
    for (size_t i = 0; i < lost_list.size(); ++i) {
      if (lost_list[i] == p) {
        lost_members[i].push_back(v);
        break;
      }
    }
  }

  if (state->kind() == iteration::StateKind::kBulk) {
    // Bulk variant: restore lost vertices to their initial labels; the next
    // superstep recomputes everything anyway.
    auto* bulk = static_cast<iteration::BulkState*>(state);
    runtime::ParallelFor(
        ctx.pool, static_cast<int>(lost_list.size()), [&](int i) {
          std::vector<Record>& partition =
              bulk->data().partition(lost_list[i]);
          partition.clear();
          partition.reserve(lost_members[i].size());
          for (int64_t v : lost_members[i]) {
            partition.push_back(MakeRecord(v, v));
          }
        });
    return Status::OK();
  }

  auto* delta = static_cast<iteration::DeltaState*>(state);

  // 1. Re-initialize the lost solution partitions to the initial labels
  //    (vertex -> its own id). This is the provably consistent state of
  //    Schelter et al. [14]. Each ReplacePartition touches only its own
  //    partition's rows and version clock, so the lost partitions rebuild in
  //    parallel on the executor's pool.
  std::vector<Status> replace_status(lost_list.size());
  runtime::ParallelFor(
      ctx.pool, static_cast<int>(lost_list.size()), [&](int i) {
        std::vector<Record> initial_labels;
        initial_labels.reserve(lost_members[i].size());
        for (int64_t v : lost_members[i]) {
          initial_labels.push_back(MakeRecord(v, v));
        }
        replace_status[i] = delta->solution().ReplacePartition(
            lost_list[i], std::move(initial_labels));
      });
  for (const Status& s : replace_status) {
    if (!s.ok()) return s;
  }
  std::vector<int64_t> restored;
  for (size_t i = 0; i < lost_list.size(); ++i) {
    restored.insert(restored.end(), lost_members[i].begin(),
                    lost_members[i].end());
  }

  // 2. Repopulate the workset: the restored vertices and their neighbors
  //    must propagate their (current) labels again so the restored region
  //    re-converges (§3.2). The failure already cleared the lost workset
  //    partitions; we add the recovery records on top of the surviving
  //    ones, deduplicating by vertex.
  std::set<int64_t> propagators;
  for (int64_t v : restored) {
    propagators.insert(v);
    for (int64_t u : graph_->Neighbors(v)) propagators.insert(u);
  }

  // Group the propagators by home partition so each partition can extend
  // its own workset slice independently (solution lookups are read-only).
  std::vector<std::vector<int64_t>> propagators_of(num_partitions);
  for (int64_t v : propagators) {
    propagators_of[PartitionOfVertex(v, num_partitions)].push_back(v);
  }
  std::vector<Status> part_status(num_partitions);
  runtime::ParallelFor(ctx.pool, num_partitions, [&](int p) {
    std::set<int64_t> already_queued;
    for (const Record& r : delta->workset().partition(p)) {
      already_queued.insert(r[0].AsInt64());
    }
    for (int64_t v : propagators_of[p]) {
      const Record* entry = delta->solution().Lookup(MakeRecord(v));
      if (entry == nullptr) {
        part_status[p] = Status::Internal(
            "vertex " + std::to_string(v) +
            " missing from solution set after compensation");
        return;
      }
      if (already_queued.insert(v).second) {
        delta->workset().partition(p).push_back(*entry);
      }
    }
  });
  for (const Status& s : part_status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

namespace {

/// Shared stats hook payload: count solution entries matching the
/// precomputed true labels.
void RecordConvergedVertices(const std::vector<int64_t>& true_labels,
                             const std::vector<Record>& entries,
                             runtime::IterationStats* stats) {
  int64_t converged = 0;
  for (const Record& r : entries) {
    int64_t v = r[0].AsInt64();
    if (v >= 0 && v < static_cast<int64_t>(true_labels.size()) &&
        r[1].AsInt64() == true_labels[v]) {
      ++converged;
    }
  }
  stats->gauges["converged_vertices"] = static_cast<double>(converged);
}

}  // namespace

Result<ConnectedComponentsResult> RunConnectedComponents(
    const graph::Graph& graph, const ConnectedComponentsOptions& options,
    iteration::JobEnv env, iteration::FaultTolerancePolicy* policy,
    const std::vector<int64_t>* true_labels) {
  return RunConnectedComponentsWithSnapshots(graph, options, std::move(env),
                                             policy, true_labels,
                                             CcSnapshotFn());
}

Result<ConnectedComponentsResult> RunConnectedComponentsWithSnapshots(
    const graph::Graph& graph, const ConnectedComponentsOptions& options,
    iteration::JobEnv env, iteration::FaultTolerancePolicy* policy,
    const std::vector<int64_t>* true_labels, CcSnapshotFn snapshot) {
  Plan plan = BuildConnectedComponentsPlan();

  PartitionedDataset edges = EdgePairs(graph, options.num_partitions);
  std::vector<Record> initial_labels = InitialLabels(graph);
  // "The workset ... initially equals to the labels input."
  PartitionedDataset initial_workset = PartitionedDataset::HashPartitioned(
      initial_labels, {0}, options.num_partitions);

  dataflow::Bindings statics;
  statics["edges"] = &edges;

  iteration::DeltaIterationConfig config;
  config.max_iterations = options.max_iterations;
  config.solution_key = {0};
  config.cache_loop_invariant = options.cache_loop_invariant;
  config.message_log = options.message_log;
  const runtime::FailureSchedule* failures = env.failures;
  const int64_t num_vertices = graph.num_vertices();
  if (true_labels != nullptr || snapshot) {
    config.stats_hook = [true_labels, snapshot, failures, num_vertices](
                            int iteration,
                            const iteration::SolutionSet& solution,
                            const PartitionedDataset& /*workset*/,
                            runtime::IterationStats* stats) {
      std::vector<Record> entries;
      for (int p = 0; p < solution.num_partitions(); ++p) {
        auto part = solution.PartitionRecords(p);
        entries.insert(entries.end(), part.begin(), part.end());
      }
      if (true_labels != nullptr) {
        RecordConvergedVertices(*true_labels, entries, stats);
      }
      if (snapshot) {
        std::vector<int64_t> labels(num_vertices, -1);
        for (const Record& r : entries) {
          int64_t v = r[0].AsInt64();
          if (v >= 0 && v < num_vertices) labels[v] = r[1].AsInt64();
        }
        std::vector<int> lost_partitions;
        if (stats->failure_injected && failures != nullptr) {
          // Several schedule events can target the same iteration and list
          // overlapping partitions; report each lost partition once.
          std::set<int> unique_lost;
          for (const auto& event : failures->events()) {
            if (event.iteration == iteration) {
              unique_lost.insert(event.partitions.begin(),
                                 event.partitions.end());
            }
          }
          lost_partitions.assign(unique_lost.begin(), unique_lost.end());
        }
        snapshot(iteration, labels, lost_partitions,
                 stats->failure_injected,
                 static_cast<int64_t>(stats->messages_shuffled),
                 true_labels != nullptr
                     ? static_cast<int64_t>(
                           stats->Gauge("converged_vertices", -1))
                     : -1);
      }
    };
  }

  dataflow::ExecOptions exec;
  exec.num_partitions = options.num_partitions;
  exec.num_threads = options.num_threads;
  exec.clock = env.clock;
  exec.costs = env.costs;
  exec.memory_budget_bytes = options.memory_budget_bytes;

  iteration::DeltaIterationDriver driver(&plan, statics, config, exec, env);
  FLINKLESS_ASSIGN_OR_RETURN(
      iteration::DeltaIterationResult run,
      driver.Run(std::move(initial_labels), std::move(initial_workset),
                 policy));

  ConnectedComponentsResult result;
  std::vector<Record> entries;
  for (int p = 0; p < run.final_solution.num_partitions(); ++p) {
    auto part = run.final_solution.PartitionRecords(p);
    entries.insert(entries.end(), part.begin(), part.end());
  }
  FLINKLESS_ASSIGN_OR_RETURN(
      result.labels, ToInt64Vector(entries, graph.num_vertices(), -1));
  result.iterations = run.iterations;
  result.supersteps_executed = run.supersteps_executed;
  result.converged = run.converged;
  result.failures_recovered = run.failures_recovered;
  return result;
}

Result<ConnectedComponentsResult> RunConnectedComponentsBulk(
    const graph::Graph& graph, const ConnectedComponentsOptions& options,
    iteration::JobEnv env, iteration::FaultTolerancePolicy* policy,
    const std::vector<int64_t>* true_labels) {
  // Bulk variant: the whole label assignment is the state; each superstep
  // recomputes every vertex's label as min(own, neighbors').
  Plan plan;
  auto state = plan.Source("state");
  auto edges = plan.Source("edges");
  auto messages = plan.Join(
      edges, state, {0}, {0},
      [](const Record& e, const Record& s) {
        return MakeRecord(e[1].AsInt64(), s[1].AsInt64());
      },
      "label-to-neighbors");
  auto with_self = plan.Union(messages, state, "candidates-with-self");
  auto next = plan.ReduceByKey(
      with_self, {0},
      [](const Record& a, const Record& b) {
        return a[1].AsInt64() <= b[1].AsInt64() ? a : b;
      },
      "candidate-label");
  plan.DeclareReduce(next, dataflow::ReduceKind::kMinInt64, 1);
  plan.Output(next, "next_state");

  PartitionedDataset edge_ds = EdgePairs(graph, options.num_partitions);
  dataflow::Bindings statics;
  statics["edges"] = &edge_ds;

  iteration::BulkIterationConfig config;
  config.max_iterations = options.max_iterations;
  config.state_key = {0};
  config.cache_loop_invariant = options.cache_loop_invariant;
  config.message_log = options.message_log;
  // compare-to-previous convergence: stop when no label changed.
  config.convergence = [](const PartitionedDataset& prev,
                          const PartitionedDataset& next, double* metric) {
    std::unordered_map<int64_t, int64_t> old_labels;
    old_labels.reserve(prev.NumRecords());
    for (int p = 0; p < prev.num_partitions(); ++p) {
      for (const Record& r : prev.partition(p)) {
        old_labels[r[0].AsInt64()] = r[1].AsInt64();
      }
    }
    int64_t changed = 0;
    for (int p = 0; p < next.num_partitions(); ++p) {
      for (const Record& r : next.partition(p)) {
        auto it = old_labels.find(r[0].AsInt64());
        if (it == old_labels.end() || it->second != r[1].AsInt64()) ++changed;
      }
    }
    *metric = static_cast<double>(changed);
    return changed == 0;
  };
  if (true_labels != nullptr) {
    config.stats_hook = [true_labels](int /*iteration*/,
                                      const PartitionedDataset& data,
                                      runtime::IterationStats* stats) {
      RecordConvergedVertices(*true_labels, data.Collect(), stats);
    };
  }

  dataflow::ExecOptions exec;
  exec.num_partitions = options.num_partitions;
  exec.num_threads = options.num_threads;
  exec.clock = env.clock;
  exec.costs = env.costs;
  exec.memory_budget_bytes = options.memory_budget_bytes;

  iteration::BulkIterationDriver driver(&plan, statics, config, exec, env);
  PartitionedDataset initial = PartitionedDataset::HashPartitioned(
      InitialLabels(graph), {0}, options.num_partitions);
  FLINKLESS_ASSIGN_OR_RETURN(iteration::BulkIterationResult run,
                             driver.Run(std::move(initial), policy));

  ConnectedComponentsResult result;
  FLINKLESS_ASSIGN_OR_RETURN(
      result.labels,
      ToInt64Vector(run.final_state.Collect(), graph.num_vertices(), -1));
  result.iterations = run.iterations;
  result.supersteps_executed = run.supersteps_executed;
  result.converged = run.converged;
  result.failures_recovered = run.failures_recovered;
  return result;
}

}  // namespace flinkless::algos
