#include "algos/pagerank.h"

#include <cmath>
#include <set>

#include "algos/datasets.h"
#include "common/logging.h"
#include "dataflow/executor.h"

namespace flinkless::algos {

using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

Plan BuildPageRankPlan(int64_t num_vertices, double damping) {
  Plan plan;
  const double n = static_cast<double>(num_vertices);
  const double teleport = (1.0 - damping) / n;

  auto ranks = plan.Source("state");
  auto links = plan.Source("links");
  auto dangling = plan.Source("dangling");
  auto zero_mass = plan.Source("zero_mass");

  // Every vertex propagates a fraction of its rank to its neighbors. The
  // static link table is the join's build side so the iteration cache can
  // keep its shuffled form and hash index across supersteps; the changing
  // ranks probe it.
  auto contributions = plan.Join(
      links, ranks, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[1].AsInt64(),
                          r[1].AsDouble() * l[2].AsDouble());
      },
      "find-neighbors");

  // Vertices with no in-links would vanish from the reduce; a zero
  // contribution per vertex keeps everyone present.
  auto base = plan.Map(
      ranks,
      [](const Record& r) { return MakeRecord(r[0].AsInt64(), 0.0); },
      "base-contribution");
  auto all_contributions =
      plan.Union(contributions, base, "contributions");

  // Re-compute the rank of each vertex from its neighbors' contributions.
  auto sums = plan.ReduceByKey(
      all_contributions, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(),
                          a[1].AsDouble() + b[1].AsDouble());
      },
      "recompute-ranks");
  // The combiner is a sequential double sum over column 1; declaring it
  // lets the executor fold flat columns instead of boxed records (same
  // arrival-order association, so the bytes cannot change).
  plan.DeclareReduce(sums, dataflow::ReduceKind::kSumDouble, 1);

  // Aggregate the rank mass sitting on dangling vertices into one scalar
  // (seeded with 0.0 so the aggregate exists even without dangling
  // vertices)...
  // (static dangling list on the build side, for the same cache reuse)...
  auto dangling_ranks = plan.Join(
      dangling, ranks, {0}, {0},
      [](const Record&, const Record& r) {
        return MakeRecord(int64_t{0}, r[1].AsDouble());
      },
      "dangling-ranks");
  auto dangling_seeded =
      plan.Union(dangling_ranks, zero_mass, "dangling-seeded");
  auto dangling_mass = plan.ReduceByKey(
      dangling_seeded, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(int64_t{0}, a[1].AsDouble() + b[1].AsDouble());
      },
      "dangling-mass");
  plan.DeclareReduce(dangling_mass, dataflow::ReduceKind::kSumDouble, 1);

  // ...and broadcast it to all partitions: rank = teleport + d*contrib +
  // d*dangling/n. Keeps the global invariant sum(rank) == 1.
  auto next = plan.Cross(
      sums, dangling_mass,
      [teleport, damping, n](const Record& s, const Record& m) {
        return MakeRecord(s[0].AsInt64(),
                          teleport + damping * s[1].AsDouble() +
                              damping * m[1].AsDouble() / n);
      },
      "apply-teleport");

  plan.Output(next, "next_state");
  return plan;
}

std::string RankCompensationVariantName(RankCompensationVariant variant) {
  switch (variant) {
    case RankCompensationVariant::kRedistributeLostMass:
      return "redistribute-lost-mass";
    case RankCompensationVariant::kUniformReinit:
      return "uniform-reinit";
    case RankCompensationVariant::kFullReinit:
      return "full-reinit";
  }
  return "?";
}

FixRanksCompensation::FixRanksCompensation(int64_t num_vertices,
                                           RankCompensationVariant variant)
    : num_vertices_(num_vertices), variant_(variant) {
  FLINKLESS_CHECK(num_vertices_ > 0, "fix-ranks needs a non-empty graph");
}

Status FixRanksCompensation::Compensate(
    const iteration::IterationContext& ctx, iteration::IterationState* state,
    const std::vector<int>& lost) {
  if (state->kind() != iteration::StateKind::kBulk) {
    return Status::InvalidArgument(
        "fix-ranks compensates bulk iterations only");
  }
  auto* bulk = static_cast<iteration::BulkState*>(state);
  const int num_partitions = bulk->num_partitions();
  std::set<int> lost_set(lost.begin(), lost.end());
  const double uniform = 1.0 / static_cast<double>(num_vertices_);

  // Vertex ids per partition, computed once; record materialization then
  // runs partition-parallel on the executor's pool (compensation is
  // embarrassingly parallel — each partition repairs only itself).
  std::vector<std::vector<int64_t>> members(num_partitions);
  for (int64_t v = 0; v < num_vertices_; ++v) {
    members[PartitionOfVertex(v, num_partitions)].push_back(v);
  }

  if (variant_ == RankCompensationVariant::kFullReinit) {
    runtime::ParallelFor(ctx.pool, num_partitions, [&](int p) {
      std::vector<Record>& partition = bulk->data().partition(p);
      partition.clear();
      partition.reserve(members[p].size());
      for (int64_t v : members[p]) partition.push_back(MakeRecord(v, uniform));
    });
    return Status::OK();
  }

  // Vertices whose rank was lost (they hash into a lost partition).
  uint64_t num_lost_vertices = 0;
  for (int p : lost_set) num_lost_vertices += members[p].size();
  if (num_lost_vertices == 0) return Status::OK();

  double fill = uniform;
  if (variant_ == RankCompensationVariant::kRedistributeLostMass) {
    // Surviving probability mass; whatever is missing from 1.0 was lost.
    // Each surviving partition sums its own records; the partial sums are
    // folded in partition order so the result does not depend on the
    // thread count.
    std::vector<double> partial(num_partitions, 0.0);
    runtime::ParallelFor(ctx.pool, num_partitions, [&](int p) {
      if (lost_set.count(p) > 0) return;
      double sum = 0.0;
      for (const Record& r : bulk->data().partition(p)) {
        sum += r[1].AsDouble();
      }
      partial[p] = sum;
    });
    double surviving = 0.0;
    for (double s : partial) surviving += s;
    double lost_mass = std::max(0.0, 1.0 - surviving);
    fill = lost_mass / static_cast<double>(num_lost_vertices);
  }

  std::vector<int> lost_list(lost_set.begin(), lost_set.end());
  runtime::ParallelFor(
      ctx.pool, static_cast<int>(lost_list.size()), [&](int i) {
        int p = lost_list[i];
        std::vector<Record>& partition = bulk->data().partition(p);
        partition.clear();
        partition.reserve(members[p].size());
        for (int64_t v : members[p]) partition.push_back(MakeRecord(v, fill));
      });
  return Status::OK();
}

Result<PageRankResult> RunPageRank(const graph::Graph& graph,
                                   const PageRankOptions& options,
                                   iteration::JobEnv env,
                                   iteration::FaultTolerancePolicy* policy,
                                   const std::vector<double>* true_ranks) {
  return RunPageRankWithSnapshots(graph, options, std::move(env), policy,
                                  true_ranks, PrSnapshotFn());
}

Result<PageRankResult> RunPageRankWithSnapshots(
    const graph::Graph& graph, const PageRankOptions& options,
    iteration::JobEnv env, iteration::FaultTolerancePolicy* policy,
    const std::vector<double>* true_ranks, PrSnapshotFn snapshot) {
  if (!graph.directed()) {
    return Status::InvalidArgument("PageRank expects a directed graph");
  }
  if (graph.num_vertices() == 0) {
    return Status::InvalidArgument("PageRank expects a non-empty graph");
  }

  Plan plan = BuildPageRankPlan(graph.num_vertices(), options.damping);

  PartitionedDataset links = Links(graph, options.num_partitions);
  PartitionedDataset dangling =
      DanglingVertices(graph, options.num_partitions);
  PartitionedDataset zero_mass = PartitionedDataset::HashPartitioned(
      {MakeRecord(int64_t{0}, 0.0)}, {0}, options.num_partitions);

  dataflow::Bindings statics;
  statics["links"] = &links;
  statics["dangling"] = &dangling;
  statics["zero_mass"] = &zero_mass;

  iteration::BulkIterationConfig config;
  config.max_iterations = options.max_iterations;
  config.state_key = {0};
  config.cache_loop_invariant = options.cache_loop_invariant;
  config.message_log = options.message_log;
  const double tolerance = options.l1_tolerance;
  // The paper's compare-to-old-rank: L1 norm of the difference between the
  // current estimate and the previous one (bottom-right plot of Figure 4).
  // Ranks are indexed densely by vertex id; a vertex absent from `prev`
  // reads 0.0.
  const int64_t num_vertices = graph.num_vertices();
  double last_l1 = 0.0;  // reported as PageRankResult::final_l1
  config.convergence = [tolerance, num_vertices, &last_l1](
                           const PartitionedDataset& prev,
                           const PartitionedDataset& next, double* metric) {
    auto index_of = [num_vertices](const Record& r) {
      const int64_t v = r[0].AsInt64();
      FLINKLESS_CHECK(v >= 0 && v < num_vertices,
                      "PageRank state holds unknown vertex " << v);
      return static_cast<size_t>(v);
    };
    std::vector<double> old_ranks(static_cast<size_t>(num_vertices), 0.0);
    for (int p = 0; p < prev.num_partitions(); ++p) {
      for (const Record& r : prev.partition(p)) {
        old_ranks[index_of(r)] = r[1].AsDouble();
      }
    }
    double l1 = 0.0;
    for (int p = 0; p < next.num_partitions(); ++p) {
      for (const Record& r : next.partition(p)) {
        l1 += std::abs(r[1].AsDouble() - old_ranks[index_of(r)]);
      }
    }
    *metric = l1;
    last_l1 = l1;
    return l1 < tolerance;
  };
  if (true_ranks != nullptr || snapshot) {
    const double eps = options.converged_tolerance;
    const runtime::FailureSchedule* failures = env.failures;
    config.stats_hook = [true_ranks, eps, snapshot, failures, num_vertices](
                            int iteration, const PartitionedDataset& data,
                            runtime::IterationStats* stats) {
      int64_t converged = 0;
      double mass = 0.0;
      std::vector<double> ranks;
      if (snapshot) ranks.assign(num_vertices, 0.0);
      for (int p = 0; p < data.num_partitions(); ++p) {
        for (const Record& r : data.partition(p)) {
          int64_t v = r[0].AsInt64();
          double rank = r[1].AsDouble();
          mass += rank;
          if (snapshot && v >= 0 && v < num_vertices) ranks[v] = rank;
          if (true_ranks != nullptr &&
              v >= 0 && v < static_cast<int64_t>(true_ranks->size()) &&
              std::abs(rank - (*true_ranks)[v]) <= eps) {
            ++converged;
          }
        }
      }
      if (true_ranks != nullptr) {
        stats->gauges["converged_vertices"] = static_cast<double>(converged);
        stats->gauges["total_mass"] = mass;
      }
      if (snapshot) {
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
        snapshot(iteration, ranks, lost_partitions, stats->failure_injected,
                 stats->Gauge("convergence_metric", 0.0),
                 true_ranks != nullptr ? converged : -1);
      }
    };
  }

  dataflow::ExecOptions exec;
  exec.num_partitions = options.num_partitions;
  exec.num_threads = options.num_threads;
  exec.clock = env.clock;
  exec.costs = env.costs;
  exec.memory_budget_bytes = options.memory_budget_bytes;

  iteration::BulkIterationDriver driver(&plan, statics, config, exec, env);
  FLINKLESS_ASSIGN_OR_RETURN(
      iteration::BulkIterationResult run,
      driver.Run(InitialRanks(graph, options.num_partitions), policy));

  PageRankResult result;
  FLINKLESS_ASSIGN_OR_RETURN(
      result.ranks,
      ToDoubleVector(run.final_state.Collect(), graph.num_vertices(), 0.0));
  result.iterations = run.iterations;
  result.supersteps_executed = run.supersteps_executed;
  result.converged = run.converged;
  result.failures_recovered = run.failures_recovered;
  result.final_l1 = last_l1;
  return result;
}

}  // namespace flinkless::algos
