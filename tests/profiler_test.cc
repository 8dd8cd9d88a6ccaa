// Trace-driven profiler: critical-path extraction on a hand-built span
// tree, self-time attribution, partition-skew stats, hotspot ranking,
// recovery health computed from the per-iteration series (with and without
// a failure-free baseline), and the end-to-end acceptance check — on a
// traced recovery run the compensation span lands on a superstep's
// critical path (DESIGN.md §13).

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "common/rng.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "runtime/profiler.h"
#include "runtime/stable_storage.h"
#include "runtime/tracing.h"

namespace flinkless::runtime {
namespace {

TraceEvent Span(const char* category, const char* name, uint64_t seq,
                uint64_t parent_seq, int iteration, int partition,
                int64_t sim_dur_ns, int64_t wall_dur_ns) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kSpan;
  e.category = category;
  e.name = name;
  e.seq = seq;
  e.parent_seq = parent_seq;
  e.iteration = iteration;
  e.partition = partition;
  e.sim_dur_ns = sim_dur_ns;
  e.wall_dur_ns = wall_dur_ns;
  return e;
}

/// One superstep: an iteration span (sim 100) containing an operator span
/// (sim 30) with a two-partition parallel section (walls 10 and 25), and a
/// compensation span (sim 40). Events are in snapshot order (seq, then
/// partition).
Tracer::Snapshot HandBuiltSnapshot() {
  Tracer::Snapshot snap;
  snap.events.push_back(
      Span("iteration", "superstep", 1, 0, 1, -1, 100, 200));
  snap.events.push_back(Span("operator", "join probe", 2, 1, 1, -1, 30, 60));
  snap.events.push_back(Span("operator", "join probe", 3, 2, 1, 0, 0, 10));
  snap.events.push_back(Span("operator", "join probe", 3, 2, 1, 1, 0, 25));
  snap.events.push_back(
      Span("compensation", "fix-ranks", 4, 1, 1, -1, 40, 50));
  return snap;
}

TEST(ProfilerTest, CriticalPathPicksLongestPartition) {
  ProfileReport report = ProfileReport::FromSnapshot(HandBuiltSnapshot());
  ASSERT_EQ(report.supersteps.size(), 1u);
  const SuperstepProfile& s = report.supersteps[0];
  EXPECT_EQ(s.iteration, 1);
  EXPECT_EQ(s.sim_ns, 100);

  // Pre-order walk: operator, its critical partition, then compensation.
  ASSERT_EQ(s.critical_path.size(), 3u);
  EXPECT_EQ(s.critical_path[0].category, "operator");
  EXPECT_EQ(s.critical_path[0].partition, -1);
  EXPECT_EQ(s.critical_path[0].depth, 0);
  EXPECT_EQ(s.critical_path[0].sim_self_ns, 30);
  EXPECT_EQ(s.critical_path[1].partition, 1);  // wall 25 beats wall 10
  EXPECT_EQ(s.critical_path[1].depth, 1);
  EXPECT_EQ(s.critical_path[1].wall_self_ns, 25);
  EXPECT_EQ(s.critical_path[2].category, "compensation");
  EXPECT_EQ(s.critical_path[2].sim_self_ns, 40);

  EXPECT_TRUE(s.HasCategory("compensation"));
  EXPECT_FALSE(s.HasCategory("checkpoint"));
  EXPECT_TRUE(report.CriticalPathHasCategory("compensation"));

  // Self time by category: iteration self = 100 - 30 - 40 = 30.
  EXPECT_EQ(s.sim_self_by_category.at("iteration"), 30);
  EXPECT_EQ(s.sim_self_by_category.at("operator"), 30);
  EXPECT_EQ(s.sim_self_by_category.at("compensation"), 40);
}

TEST(ProfilerTest, OperatorAggregatesAndSkew) {
  ProfileReport report = ProfileReport::FromSnapshot(HandBuiltSnapshot());
  const OperatorProfile* op = report.Find("operator", "join probe");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->spans, 1u);
  EXPECT_EQ(op->sim_total_ns, 30);
  EXPECT_EQ(op->sim_self_ns, 30);  // partition children charge no sim time
  EXPECT_EQ(op->wall_total_ns, 60);
  // Partition children overlap the parent's wall time and are not
  // subtracted from it; only job-level children are.
  EXPECT_EQ(op->wall_self_ns, 60);
  EXPECT_EQ(op->partitions_observed, 2);
  EXPECT_EQ(op->wall_partition_max_ns, 25);
  EXPECT_EQ(op->wall_partition_median_ns, 25);  // median of {10, 25}
  EXPECT_DOUBLE_EQ(op->WallSkew(), 1.0);

  const OperatorProfile* iteration = report.Find("iteration", "superstep");
  ASSERT_NE(iteration, nullptr);
  EXPECT_EQ(iteration->sim_self_ns, 30);  // 100 - 30 - 40
  EXPECT_DOUBLE_EQ(iteration->WallSkew(), 1.0);  // no parallel sections

  // Hotspot ranking by sim self time: compensation (40) first, then the
  // two 30s tied, broken by (category, name).
  std::vector<const OperatorProfile*> hot = report.Hotspots(10);
  ASSERT_EQ(hot.size(), 3u);
  EXPECT_EQ(hot[0]->category, "compensation");
  EXPECT_EQ(hot[1]->category, "iteration");
  EXPECT_EQ(hot[2]->category, "operator");

  std::string text = report.RenderText();
  EXPECT_NE(text.find("top hotspots"), std::string::npos);
  EXPECT_NE(text.find("fix-ranks"), std::string::npos);
  EXPECT_NE(text.find("(recovery)"), std::string::npos);
}

TEST(ProfilerTest, EmptySnapshotProfilesToNothing) {
  ProfileReport report = ProfileReport::FromSnapshot(Tracer::Snapshot{});
  EXPECT_TRUE(report.supersteps.empty());
  EXPECT_TRUE(report.operators.empty());
  EXPECT_FALSE(report.CriticalPathHasCategory("compensation"));
  EXPECT_FALSE(report.RenderText().empty());
}

// --------------------------------------------------------- recovery health --

IterationStats Iter(int iteration, double convergence_metric,
                    bool failure = false, int64_t compute_ns = 100,
                    uint64_t messages = 10) {
  IterationStats it;
  it.iteration = iteration;
  it.failure_injected = failure;
  it.messages_shuffled = messages;
  it.sim_time_by_charge[static_cast<int>(Charge::kCompute)] = compute_ns;
  it.gauges["convergence_metric"] = convergence_metric;
  return it;
}

TEST(RecoveryHealthTest, WindowEndsAtReconvergence) {
  MetricsRegistry registry;
  registry.RecordIteration(Iter(1, 8.0));
  registry.RecordIteration(Iter(2, 4.0));
  // Failure: the metric spikes, then decays back under the pre-failure 4.0.
  registry.RecordIteration(Iter(3, 9.0, /*failure=*/true, 150, 30));
  registry.RecordIteration(Iter(4, 5.0, false, 120, 20));
  registry.RecordIteration(Iter(5, 3.0, false, 110, 15));
  registry.RecordIteration(Iter(6, 1.0));

  std::vector<RecoveryHealth> reports = ComputeRecoveryHealth(registry);
  ASSERT_EQ(reports.size(), 1u);
  const RecoveryHealth& r = reports[0];
  EXPECT_EQ(r.failure_iteration, 3);
  EXPECT_TRUE(r.reconverged);
  EXPECT_EQ(r.window_end_iteration, 5);  // first metric <= 4.0
  EXPECT_EQ(r.supersteps_to_reconverge, 3);
  EXPECT_FALSE(r.baseline_adjusted);
  EXPECT_EQ(r.sim_lost_ns, 150 + 120 + 110);
  EXPECT_EQ(r.messages_recomputed, 30 + 20 + 15);
  EXPECT_DOUBLE_EQ(r.pre_failure_metric, 4.0);
  EXPECT_DOUBLE_EQ(r.convergence_gap, 9.0 - 4.0);

  std::string text = RenderRecoveryHealth(reports);
  EXPECT_NE(text.find("failure @ superstep 3"), std::string::npos);
  EXPECT_NE(text.find("reconverged in 3 supersteps"), std::string::npos);
}

TEST(RecoveryHealthTest, BaselineTurnsGrossCostIntoNetCost) {
  MetricsRegistry registry;
  registry.RecordIteration(Iter(1, 8.0));
  registry.RecordIteration(Iter(2, 9.0, /*failure=*/true, 150, 30));
  registry.RecordIteration(Iter(3, 6.0, false, 120, 20));

  MetricsRegistry baseline;
  baseline.RecordIteration(Iter(1, 8.0));
  baseline.RecordIteration(Iter(2, 6.0, false, 100, 10));
  baseline.RecordIteration(Iter(3, 4.0, false, 100, 10));

  std::vector<RecoveryHealth> reports =
      ComputeRecoveryHealth(registry, &baseline);
  ASSERT_EQ(reports.size(), 1u);
  const RecoveryHealth& r = reports[0];
  EXPECT_TRUE(r.baseline_adjusted);
  // Gross window cost (150 + 120) minus the baseline's same iterations.
  EXPECT_EQ(r.sim_lost_ns, (150 - 100) + (120 - 100));
  EXPECT_EQ(r.messages_recomputed, (30 - 10) + (20 - 10));
  // Damage vs the failure-free trajectory at iteration 2: 9.0 - 6.0.
  EXPECT_DOUBLE_EQ(r.convergence_gap, 3.0);
  EXPECT_NE(RenderRecoveryHealth(reports).find("net of failure-free"),
            std::string::npos);
}

TEST(RecoveryHealthTest, UnreconvergedWindowRunsToEndOfRun) {
  MetricsRegistry registry;
  registry.RecordIteration(Iter(1, 4.0));
  registry.RecordIteration(Iter(2, 9.0, /*failure=*/true));
  registry.RecordIteration(Iter(3, 8.0));

  std::vector<RecoveryHealth> reports = ComputeRecoveryHealth(registry);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].reconverged);
  EXPECT_EQ(reports[0].window_end_iteration, 3);
  EXPECT_EQ(reports[0].supersteps_to_reconverge, 2);
  EXPECT_NE(RenderRecoveryHealth(reports).find("did not reconverge"),
            std::string::npos);

  EXPECT_TRUE(ComputeRecoveryHealth(MetricsRegistry()).empty());
  EXPECT_EQ(RenderRecoveryHealth({}), "no failures injected\n");
}

// ------------------------------------------------------------- end-to-end --

TEST(ProfilerIntegrationTest, CompensationLandsOnCriticalPathOfTracedRun) {
  // The acceptance check: trace a PageRank run with an injected failure and
  // optimistic recovery; the profiler must place the compensation span on
  // the failure superstep's critical path and aggregate it as a family.
  Rng rng(11);
  graph::Graph g = graph::Rmat(7, 5, &rng);  // 128 vertices

  SimClock clock;
  CostModel costs;
  MetricsRegistry registry;
  StableStorage storage(&clock, &costs);
  FailureSchedule failures(std::vector<FailureEvent>{{3, {1}}});
  Tracer::Options topts;
  topts.clock = &clock;
  Tracer tracer(topts);

  iteration::JobEnv env;
  env.clock = &clock;
  env.costs = &costs;
  env.metrics = &registry;
  env.failures = &failures;
  env.storage = &storage;
  env.tracer = &tracer;
  env.job_id = "profiled-pr";

  algos::PageRankOptions options;
  options.num_partitions = 4;
  options.num_threads = 2;
  options.max_iterations = 8;
  algos::FixRanksCompensation fix(g.num_vertices());
  core::OptimisticRecoveryPolicy policy(&fix);
  auto result = algos::RunPageRank(g, options, env, &policy);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->failures_recovered, 1);

  ProfileReport report = ProfileReport::FromSnapshot(tracer.Flush());
  EXPECT_FALSE(report.supersteps.empty());
  EXPECT_TRUE(report.CriticalPathHasCategory("compensation"));
  const bool found_failure_superstep = [&] {
    for (const SuperstepProfile& s : report.supersteps) {
      if (s.iteration == 3 && s.HasCategory("compensation")) return true;
    }
    return false;
  }();
  EXPECT_TRUE(found_failure_superstep);

  // The compensation family (named after the policy) was aggregated and
  // charged sim time.
  const OperatorProfile* comp = nullptr;
  for (const OperatorProfile& op : report.operators) {
    if (op.category == "compensation") comp = &op;
  }
  ASSERT_NE(comp, nullptr);
  EXPECT_GE(comp->spans, 1u);
  std::string text = report.RenderText();
  EXPECT_NE(text.find("(recovery)"), std::string::npos);
  EXPECT_NE(text.find("compensation"), std::string::npos);

  // Recovery health from the same run's series agrees there was a failure.
  std::vector<RecoveryHealth> health = ComputeRecoveryHealth(registry);
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].failure_iteration, 3);
}

}  // namespace
}  // namespace flinkless::runtime
