// JobServer tests: concurrent jobs multiplexed onto shared runtime
// services, epoch-consistent point reads (including mid-recovery), cache
// reuse across resubmissions, the spill-namespace registry, per-owner
// memory accounting, and the base-data-change re-run path. The determinism
// contract extends to serving: the full answer stream — tickets, records,
// epochs, simulated timestamps — is byte-identical at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/connected_components.h"
#include "algos/datasets.h"
#include "algos/refreshers.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/policies.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "server/job_server.h"

namespace flinkless::server {
namespace {

using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

constexpr int kParts = 4;

graph::Graph TestGraph() {
  Rng rng(2025);
  graph::Graph directed = graph::Rmat(8, 6, &rng);  // 256 vertices
  graph::Graph undirected(directed.num_vertices(), /*directed=*/false);
  for (const graph::Edge& e : directed.edges()) {
    Status s = undirected.AddEdge(e.src, e.dst);
    EXPECT_TRUE(s.ok());
  }
  return undirected;
}

/// Shared fixtures one serving scenario needs; plans/datasets/policies are
/// borrowed by the server and must outlive it.
struct CcJobFixture {
  explicit CcJobFixture(const graph::Graph& graph)
      : plan(algos::BuildConnectedComponentsPlan()),
        edges(algos::EdgePairs(graph, kParts)),
        labels(algos::InitialLabels(graph)),
        workset(PartitionedDataset::HashPartitioned(labels, {0}, kParts)),
        fix(&graph) {}

  JobSpec Spec(const std::string& job_id, const std::string& dataflow_id,
               const std::string& failures, int num_threads,
               iteration::FaultTolerancePolicy* policy) {
    JobSpec spec;
    spec.job_id = job_id;
    spec.dataflow_id = dataflow_id;
    spec.plan = &plan;
    spec.bindings["edges"] = &edges;
    spec.exec.num_partitions = kParts;
    spec.exec.num_threads = num_threads;
    spec.policy = policy;
    if (!failures.empty()) {
      auto parsed = runtime::FailureSchedule::Parse(failures);
      EXPECT_TRUE(parsed.ok());
      spec.failures = *parsed;
    }
    spec.delta.max_iterations = 40;
    spec.initial_solution = labels;
    spec.initial_workset = workset;
    return spec;
  }

  Plan plan;
  PartitionedDataset edges;
  std::vector<Record> labels;
  PartitionedDataset workset;
  algos::FixComponentsCompensation fix;
};

std::vector<int64_t> LabelsFromServer(const JobServer& server,
                                      const std::string& job_id,
                                      int64_t num_vertices) {
  auto solution = server.FinalSolution(job_id);
  EXPECT_TRUE(solution.ok()) << solution.status().ToString();
  std::vector<int64_t> out(num_vertices, -1);
  if (!solution.ok()) return out;
  for (int64_t v = 0; v < num_vertices; ++v) {
    const Record* entry = (*solution)->Lookup(MakeRecord(v));
    if (entry != nullptr) out[v] = (*entry)[1].AsInt64();
  }
  return out;
}

std::string Fingerprint(const LookupAnswer& a) {
  std::ostringstream out;
  out << a.ticket << '|' << a.job_id << '|' << a.key[0].AsInt64() << '|'
      << a.found << '|' << (a.found ? a.record[1].AsInt64() : -1) << '|'
      << a.partition << '|' << a.epoch << '|' << a.during_recovery << '|'
      << a.submit_sim_ns << '|' << a.answer_sim_ns;
  return out.str();
}

/// Everything one serving run exposes, for cross-thread-count comparison.
struct ServingRun {
  std::vector<std::string> answers;
  std::vector<int64_t> labels_a;
  std::vector<int64_t> labels_b;
  int64_t sim_total_ns = 0;
  uint64_t lookups_answered = 0;
  uint64_t answered_during_recovery = 0;
  int pumps = 0;
};

/// Two concurrent CC jobs — one with an injected failure repaired by
/// compensation — probed with a fixed key set between every pump.
ServingRun RunServingScenario(int num_threads, bool with_failures,
                              runtime::MetricsSink* metrics = nullptr) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);

  core::OptimisticRecoveryPolicy policy_a(&fixture.fix);
  core::OptimisticRecoveryPolicy policy_b(&fixture.fix);

  ServerOptions options;
  options.max_concurrent_jobs = 2;
  JobServer server(&clock, &costs, &storage, options, nullptr, metrics);
  EXPECT_TRUE(server
                  .Submit(fixture.Spec("cc-a", "cc-df-a",
                                       with_failures ? "2:3" : "",
                                       num_threads, &policy_a))
                  .ok());
  EXPECT_TRUE(server
                  .Submit(fixture.Spec("cc-b", "cc-df-b",
                                       with_failures ? "3:1" : "",
                                       num_threads, &policy_b))
                  .ok());

  ServingRun run;
  do {
    for (int64_t v = 0; v < 16; ++v) {
      EXPECT_TRUE(server.EnqueueLookup("cc-a", MakeRecord(v)).ok());
      EXPECT_TRUE(server.EnqueueLookup("cc-b", MakeRecord(v)).ok());
    }
    if (++run.pumps > 500) {
      ADD_FAILURE() << "server did not drain";
      break;
    }
  } while (server.Pump());

  for (const LookupAnswer& a : server.TakeAnswers()) {
    run.answers.push_back(Fingerprint(a));
  }
  run.labels_a = LabelsFromServer(server, "cc-a", graph.num_vertices());
  run.labels_b = LabelsFromServer(server, "cc-b", graph.num_vertices());
  run.sim_total_ns = clock.TotalNs();
  run.lookups_answered = server.lookups_answered();
  run.answered_during_recovery = server.answered_during_recovery();
  return run;
}

class ServerDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ServerDeterminismTest, AnswerStreamIsByteIdenticalAcrossThreads) {
  ServingRun serial = RunServingScenario(1, /*with_failures=*/false);
  ServingRun parallel =
      RunServingScenario(GetParam(), /*with_failures=*/false);
  EXPECT_EQ(serial.answers, parallel.answers);
  EXPECT_EQ(serial.labels_a, parallel.labels_a);
  EXPECT_EQ(serial.labels_b, parallel.labels_b);
  EXPECT_EQ(serial.sim_total_ns, parallel.sim_total_ns);
  EXPECT_EQ(serial.lookups_answered, parallel.lookups_answered);
  EXPECT_GT(serial.lookups_answered, 0u);
}

TEST_P(ServerDeterminismTest, RecoveryAnswerStreamIsByteIdentical) {
  ServingRun serial = RunServingScenario(1, /*with_failures=*/true);
  ServingRun parallel = RunServingScenario(GetParam(), /*with_failures=*/true);
  EXPECT_EQ(serial.answers, parallel.answers);
  EXPECT_EQ(serial.labels_a, parallel.labels_a);
  EXPECT_EQ(serial.labels_b, parallel.labels_b);
  EXPECT_EQ(serial.sim_total_ns, parallel.sim_total_ns);
  EXPECT_EQ(serial.answered_during_recovery,
            parallel.answered_during_recovery);
  // The availability claim: reads were answered while a failure was being
  // compensated, from the pinned pre-failure epoch.
  EXPECT_GT(serial.answered_during_recovery, 0u);
}

TEST_P(ServerDeterminismTest, RecoveredJobsConvergeToReferenceLabels) {
  graph::Graph graph = TestGraph();
  auto truth = graph::ReferenceConnectedComponents(graph);
  ServingRun run = RunServingScenario(GetParam(), /*with_failures=*/true);
  EXPECT_EQ(run.labels_a, truth);
  EXPECT_EQ(run.labels_b, truth);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ServerDeterminismTest,
                         ::testing::Values(1, 2, 8));

// Pins the serving timeline of the recovery scenario: which pump serves
// which read, from which epoch, at which SimClock instant. A scheduling
// change that moves a turn, a service point, or a charge fails here.
TEST(ServerTimelineTest, RecoveryScenarioKeepsItsTimeline) {
  runtime::MetricsSink metrics;
  ServingRun run = RunServingScenario(1, /*with_failures=*/true, &metrics);
  uint64_t digest = 0;
  for (const std::string& answer : run.answers) {
    digest = HashCombine(digest, HashString(answer));
  }
  EXPECT_EQ(run.pumps, 8);
  EXPECT_EQ(run.answers.size(), 256u);
  EXPECT_EQ(digest, 17758202443601873075ull);
  EXPECT_EQ(run.sim_total_ns, 44082050);
  EXPECT_EQ(run.answered_during_recovery, 16u);
  EXPECT_EQ(metrics.Collect().CounterTotal(runtime::metric::kServerTurns),
            15u);
}

TEST(ServerReadConsistencyTest, AnswerEpochsNeverRegressAndPinDuringRecovery) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy(&fixture.fix);

  JobServer server(&clock, &costs, &storage, ServerOptions{});
  ASSERT_TRUE(
      server.Submit(fixture.Spec("cc", "cc-df", "3:1,2", 2, &policy)).ok());

  int pumps = 0;
  do {
    for (int64_t v = 0; v < 32; ++v) {
      ASSERT_TRUE(server.EnqueueLookup("cc", MakeRecord(v)).ok());
    }
    ASSERT_LT(++pumps, 500);
  } while (server.Pump());

  // A read must observe a prefix-consistent epoch, never a half-applied
  // delta: within the served stream, epochs are monotonically
  // non-decreasing (a recovery rewinds the job, never the view), and the
  // answers flagged during_recovery carry the epoch the view pinned when
  // the failure was detected — the last successfully published one.
  int last_epoch = -1;
  int pinned_epoch = -1;
  uint64_t recovery_answers = 0;
  for (const LookupAnswer& a : server.TakeAnswers()) {
    EXPECT_GE(a.epoch, last_epoch) << "epoch regressed at ticket " << a.ticket;
    if (a.during_recovery) {
      if (pinned_epoch < 0) pinned_epoch = a.epoch;
      EXPECT_EQ(a.epoch, pinned_epoch)
          << "mixed-epoch state served mid-recovery at ticket " << a.ticket;
      EXPECT_EQ(a.epoch, last_epoch);
      ++recovery_answers;
    }
    last_epoch = a.epoch;
  }
  EXPECT_GT(recovery_answers, 0u);
  EXPECT_EQ(server.answered_during_recovery(), recovery_answers);
}

TEST(ServerReadConsistencyTest, MultiLookupObservesOneEpoch) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy(&fixture.fix);

  JobServer server(&clock, &costs, &storage, ServerOptions{});
  ASSERT_TRUE(
      server.Submit(fixture.Spec("cc", "cc-df", "2:0", 1, &policy)).ok());

  std::vector<Record> keys;
  for (int64_t v = 0; v < 24; ++v) keys.push_back(MakeRecord(v));

  bool checked_mid_run = false;
  int pumps = 0;
  do {
    auto batch = server.MultiLookup("cc", keys);
    if (batch.ok()) {
      // All answers from one consistent epoch, whatever it currently is.
      ASSERT_FALSE(batch->empty());
      const int epoch = batch->front().epoch;
      for (const LookupAnswer& a : *batch) {
        EXPECT_EQ(a.epoch, epoch);
        EXPECT_TRUE(a.found);
      }
      checked_mid_run = true;
    }
    ASSERT_LT(++pumps, 500);
  } while (server.Pump());
  EXPECT_TRUE(checked_mid_run);

  // Against the finished job the batch always succeeds (cold partitions
  // materialize on demand) and matches the final solution.
  auto final_batch = server.MultiLookup("cc", keys);
  ASSERT_TRUE(final_batch.ok()) << final_batch.status().ToString();
  auto truth = graph::ReferenceConnectedComponents(graph);
  for (size_t i = 0; i < final_batch->size(); ++i) {
    ASSERT_TRUE((*final_batch)[i].found);
    EXPECT_EQ((*final_batch)[i].record[1].AsInt64(),
              truth[static_cast<int64_t>(i)]);
  }
}

TEST(ServerReadConsistencyTest, MultiLookupRejectsKeysOfTheWrongArity) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy(&fixture.fix);

  JobServer server(&clock, &costs, &storage, ServerOptions{});
  ASSERT_TRUE(
      server.Submit(fixture.Spec("cc", "cc-df", "", 1, &policy)).ok());
  ASSERT_TRUE(server.RunToCompletion().ok());
  // CC is keyed on the vertex id alone.
  EXPECT_EQ(server.MultiLookup("cc", {MakeRecord(int64_t{0}), Record()})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.MultiLookup("cc", {MakeRecord(int64_t{0}, int64_t{1})})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.lookups_answered(), 0u);
  EXPECT_TRUE(server.MultiLookup("cc", {MakeRecord(int64_t{0})}).ok());
}

TEST(ServerReadConsistencyTest, EnqueueLookupRejectsKeysOfTheWrongArity) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy(&fixture.fix);

  JobServer server(&clock, &costs, &storage, ServerOptions{});
  ASSERT_TRUE(
      server.Submit(fixture.Spec("cc", "cc-df", "", 1, &policy)).ok());
  EXPECT_EQ(server.EnqueueLookup("cc", Record()).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.EnqueueLookup("cc", MakeRecord(int64_t{0})).ok());
  // Serving the queue must not trip over the rejected key.
  ASSERT_TRUE(server.RunToCompletion().ok());
  std::vector<LookupAnswer> answers = server.TakeAnswers();
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].found);
}

TEST(ServerTeardownTest, DestroyedMidRunLeavesNoSpillState) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  auto truth = graph::ReferenceConnectedComponents(graph);
  const std::vector<std::string> ids = {"spilly", "logged"};

  // A budget small enough that every superstep boundary spills, and one
  // job that also keeps an outbound message log.
  ServerOptions options;
  options.max_concurrent_jobs = 2;
  options.memory_budget_bytes = 1024;
  core::OptimisticRecoveryPolicy policy(&fixture.fix);
  auto submit_both = [&](JobServer* server) {
    for (const std::string& id : ids) {
      JobSpec spec = fixture.Spec(id, "df-" + id, "", 1, &policy);
      spec.delta.message_log = id == "logged";
      ASSERT_TRUE(server->Submit(std::move(spec)).ok());
    }
  };

  {
    JobServer server(&clock, &costs, &storage, options);
    submit_both(&server);
    ASSERT_TRUE(server.Pump());  // setup turns
    ASSERT_TRUE(server.Pump());  // first supersteps
    ASSERT_EQ(server.num_running(), 2);
    ASSERT_FALSE(storage.ListWithPrefix("spill/").empty())
        << "the budget must force spills for this test to bite";
  }
  EXPECT_TRUE(storage.ListWithPrefix("spill/").empty());
  for (const std::string& id : ids) {
    for (const std::string& prefix :
         {"spill/" + id + "/", "spill/" + id + "/msglog/",
          "spill/df-" + id + "/"}) {
      EXPECT_FALSE(storage.PrefixAcquired(prefix)) << prefix;
    }
  }

  // The same job ids run to completion on a fresh server over the same
  // storage.
  JobServer server(&clock, &costs, &storage, options);
  submit_both(&server);
  ASSERT_TRUE(server.RunToCompletion().ok());
  for (const std::string& id : ids) {
    auto report = server.Report(id);
    ASSERT_TRUE(report.ok()) << id;
    EXPECT_TRUE(report->status.ok()) << report->status.ToString();
    EXPECT_EQ(LabelsFromServer(server, id, graph.num_vertices()), truth);
  }
}

TEST(ServerCacheTest, ResubmitSameDataflowRebuildsNothing) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy_a(&fixture.fix);
  core::OptimisticRecoveryPolicy policy_b(&fixture.fix);

  JobServer server(&clock, &costs, &storage, ServerOptions{});
  ASSERT_TRUE(
      server.Submit(fixture.Spec("run-1", "cc-df", "", 1, &policy_a)).ok());
  ASSERT_TRUE(server.RunToCompletion().ok());

  auto first = server.Report("run-1");
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->converged);
  EXPECT_FALSE(first->cache_slot_reused);
  EXPECT_GT(first->cache_builds, 0u) << "cold run must build the artifacts";

  // Same dataflow id + the same Plan object => same node ids => every
  // loop-invariant artifact is found warm: zero rebuilds.
  ASSERT_TRUE(
      server.Submit(fixture.Spec("run-2", "cc-df", "", 1, &policy_b)).ok());
  ASSERT_TRUE(server.RunToCompletion().ok());
  auto second = server.Report("run-2");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->converged);
  EXPECT_TRUE(second->cache_slot_reused);
  EXPECT_EQ(second->cache_builds, 0u);

  EXPECT_EQ(LabelsFromServer(server, "run-1", graph.num_vertices()),
            LabelsFromServer(server, "run-2", graph.num_vertices()));
}

TEST(ServerCacheTest, BaseDataChangeInvalidatesAndReRunsIncrementally) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy(&fixture.fix);

  JobServer server(&clock, &costs, &storage, ServerOptions{});
  ASSERT_TRUE(
      server.Submit(fixture.Spec("base", "cc-df", "", 1, &policy)).ok());
  ASSERT_TRUE(server.RunToCompletion().ok());

  // Base-data change: connect the two vertices with the largest labels so
  // at least two components merge.
  auto before = LabelsFromServer(server, "base", graph.num_vertices());
  int64_t u = std::max_element(before.begin(), before.end()) - before.begin();
  int64_t v = 0;
  while (v < graph.num_vertices() && before[v] == before[u]) ++v;
  ASSERT_LT(v, graph.num_vertices()) << "graph is already fully connected";
  ASSERT_TRUE(graph.AddEdge(u, v).ok());

  // Drop the stale loop-invariant artifacts, rebind the new edges, and
  // resubmit seeded from the changed region only.
  ASSERT_TRUE(server.InvalidateDataflow("cc-df").ok());
  PartitionedDataset new_edges = algos::EdgePairs(graph, kParts);
  std::vector<Record> prior_solution;
  {
    auto solution = server.FinalSolution("base");
    ASSERT_TRUE(solution.ok());
    for (int p = 0; p < kParts; ++p) {
      for (Record& r : (*solution)->PartitionRecords(p)) {
        prior_solution.push_back(std::move(r));
      }
    }
  }
  algos::FixComponentsCompensation fix2(&graph);
  core::OptimisticRecoveryPolicy policy2(&fix2);
  JobSpec rerun = fixture.Spec("rerun", "cc-df", "", 1, &policy2);
  rerun.bindings["edges"] = &new_edges;
  rerun.initial_solution = prior_solution;
  rerun.initial_workset =
      algos::MakeChangeSeedWorkset(&graph, prior_solution, {u, v}, kParts);
  EXPECT_GT(rerun.initial_workset.NumRecords(), 0u);
  ASSERT_TRUE(server.Submit(std::move(rerun)).ok());
  ASSERT_TRUE(server.RunToCompletion().ok());

  auto report = server.Report("rerun");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  EXPECT_GT(report->cache_builds, 0u) << "invalidation must force a rebuild";
  EXPECT_EQ(LabelsFromServer(server, "rerun", graph.num_vertices()),
            graph::ReferenceConnectedComponents(graph));
}

TEST(ServerAdmissionTest, DuplicateJobIdRejected) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy(&fixture.fix);

  JobServer server(&clock, &costs, &storage, ServerOptions{});
  ASSERT_TRUE(server.Submit(fixture.Spec("dup", "a", "", 1, &policy)).ok());
  EXPECT_EQ(server.Submit(fixture.Spec("dup", "b", "", 1, &policy)).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(server.RunToCompletion().ok());
  // Ids stay taken after the job finishes: spill blobs and views would
  // collide otherwise.
  EXPECT_EQ(server.Submit(fixture.Spec("dup", "c", "", 1, &policy)).code(),
            StatusCode::kAlreadyExists);
}

TEST(ServerTracingTest, ServerTracerRecordsPublishesOfConcurrentJobs) {
  // Two jobs running at once used to share the server's tracer and abort
  // on interleaved span closes; the server tracer now records only its
  // own publish spans.
  graph::Graph graph = graph::GridGraph(16, 16);
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy_a(&fixture.fix);
  core::OptimisticRecoveryPolicy policy_b(&fixture.fix);
  runtime::Tracer tracer;

  ServerOptions options;
  options.max_concurrent_jobs = 2;
  JobServer server(&clock, &costs, &storage, options, &tracer);
  ASSERT_TRUE(server.Submit(fixture.Spec("a", "df-a", "", 2, &policy_a)).ok());
  ASSERT_TRUE(server.Submit(fixture.Spec("b", "df-b", "", 2, &policy_b)).ok());
  ASSERT_TRUE(server.RunToCompletion().ok());

  uint64_t publishes = 0;
  for (const auto& e : tracer.Flush().events) {
    EXPECT_EQ(e.category, "server.publish");
    if (e.category == "server.publish") ++publishes;
  }
  EXPECT_GT(publishes, 2u);
  for (const char* id : {"a", "b"}) {
    EXPECT_EQ(LabelsFromServer(server, id, graph.num_vertices()),
              graph::ReferenceConnectedComponents(graph));
  }
}

TEST(ServerTracingTest, JobsSharingATracerRecordOneWellNestedTrace) {
  // The server steps its jobs one turn at a time on the caller's thread,
  // and a turn closes every span it opens, so two jobs may share one
  // tracer: their turns interleave, their spans never do.
  graph::Graph graph = graph::GridGraph(16, 16);
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy_a(&fixture.fix);
  core::OptimisticRecoveryPolicy policy_b(&fixture.fix);
  runtime::Tracer tracer;

  ServerOptions options;
  options.max_concurrent_jobs = 2;
  JobServer server(&clock, &costs, &storage, options);
  for (auto [id, policy] : {std::pair{"a", &policy_a}, {"b", &policy_b}}) {
    JobSpec spec = fixture.Spec(id, std::string("df-") + id, "2:1", 2, policy);
    spec.exec.tracer = &tracer;
    ASSERT_TRUE(server.Submit(std::move(spec)).ok());
  }
  ASSERT_TRUE(server.RunToCompletion().ok());
  for (const char* id : {"a", "b"}) {
    auto report = server.Report(id);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->converged) << id;
    EXPECT_EQ(LabelsFromServer(server, id, graph.num_vertices()),
              graph::ReferenceConnectedComponents(graph));
  }

  // Every span closes after the spans opened inside it: a child's wall
  // interval lies within its parent's.
  const runtime::Tracer::Snapshot snapshot = tracer.Flush();
  EXPECT_EQ(snapshot.dropped, 0u);
  std::map<uint64_t, const runtime::TraceEvent*> spans;
  for (const runtime::TraceEvent& e : snapshot.events) {
    if (e.kind == runtime::TraceEvent::Kind::kSpan) spans.emplace(e.seq, &e);
  }
  int supersteps = 0;
  int nested = 0;
  for (const runtime::TraceEvent& e : snapshot.events) {
    if (e.kind != runtime::TraceEvent::Kind::kSpan) continue;
    if (e.category == "iteration") ++supersteps;
    auto parent = spans.find(e.parent_seq);
    if (parent == spans.end()) continue;
    const runtime::TraceEvent& p = *parent->second;
    EXPECT_LE(p.wall_ts_ns, e.wall_ts_ns) << e.name << " opened before "
                                          << p.name;
    EXPECT_LE(e.wall_ts_ns + e.wall_dur_ns, p.wall_ts_ns + p.wall_dur_ns)
        << e.name << " closed after " << p.name;
    ++nested;
  }
  EXPECT_GT(supersteps, 0);
  EXPECT_GT(nested, supersteps);
}

TEST(ServerAdmissionTest, QueueDrainsUnderMemoryGateAndConcurrencyCap) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  std::vector<std::unique_ptr<core::OptimisticRecoveryPolicy>> policies;

  ServerOptions options;
  options.max_concurrent_jobs = 2;
  options.memory_budget_bytes = 1;  // gate bites after the first admission
  JobServer server(&clock, &costs, &storage, options);
  for (int i = 0; i < 4; ++i) {
    policies.push_back(
        std::make_unique<core::OptimisticRecoveryPolicy>(&fixture.fix));
    ASSERT_TRUE(server
                    .Submit(fixture.Spec("job-" + std::to_string(i),
                                         "df-" + std::to_string(i), "", 1,
                                         policies.back().get()))
                    .ok());
  }
  EXPECT_EQ(server.num_queued(), 4);
  server.Pump();
  // The concurrency cap holds; once the first supersteps push residency
  // over the 1-byte budget, later admissions wait for an idle server (the
  // head-of-line rescue keeps the queue from deadlocking on warm slots).
  EXPECT_LE(server.num_running(), 2);
  EXPECT_GT(server.num_running(), 0);
  ASSERT_TRUE(server.RunToCompletion().ok());
  auto truth = graph::ReferenceConnectedComponents(graph);
  for (int i = 0; i < 4; ++i) {
    const std::string id = "job-" + std::to_string(i);
    auto report = server.Report(id);
    ASSERT_TRUE(report.ok()) << id;
    EXPECT_TRUE(report->converged) << id;
    EXPECT_EQ(LabelsFromServer(server, id, graph.num_vertices()), truth);
  }
}

TEST(ServerMemoryTest, PerOwnerBreakdownAttributesResidency) {
  graph::Graph graph = TestGraph();
  CcJobFixture fixture(graph);
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  core::OptimisticRecoveryPolicy policy_a(&fixture.fix);
  core::OptimisticRecoveryPolicy policy_b(&fixture.fix);

  JobServer server(&clock, &costs, &storage, ServerOptions{});
  ASSERT_TRUE(
      server.Submit(fixture.Spec("own-a", "df-a", "", 1, &policy_a)).ok());
  ASSERT_TRUE(
      server.Submit(fixture.Spec("own-b", "df-b", "", 1, &policy_b)).ok());
  ASSERT_TRUE(server.RunToCompletion().ok());

  // Both warm cache slots still hold their artifacts, attributed to their
  // dataflow ids; the totals reconcile with the per-owner rows.
  auto breakdown = server.memory().OwnerBreakdown();
  ASSERT_TRUE(breakdown.count("df-a")) << "missing owner df-a";
  ASSERT_TRUE(breakdown.count("df-b")) << "missing owner df-b";
  EXPECT_GT(breakdown["df-a"].segments, 0u);
  EXPECT_GT(breakdown["df-a"].resident_bytes, 0u);
  EXPECT_EQ(breakdown["df-a"].resident_bytes, breakdown["df-b"].resident_bytes)
      << "identical dataflows must occupy identical residency";
  uint64_t total = 0;
  for (const auto& [owner, stats] : breakdown) total += stats.resident_bytes;
  EXPECT_EQ(total, server.memory().resident_bytes());
}

TEST(ServerDeathTest, DuplicateSpillNamespaceDies) {
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  runtime::MemoryManager memory(0);
  dataflow::ExecCache first({"workset", "solution"});
  first.AttachMemoryManager(&memory, &storage, "job-x");
  // A second live cache claiming the same spill namespace would let two
  // owners mix blobs; the registry refuses.
  dataflow::ExecCache second({"workset", "solution"});
  EXPECT_DEATH(second.AttachMemoryManager(&memory, &storage, "job-x"),
               "already owned");
  EXPECT_TRUE(storage.PrefixAcquired("spill/job-x/"));
}

TEST(ServerStorageTest, PrefixRegistryReleasesWithOwner) {
  runtime::SimClock clock;
  runtime::CostModel costs;
  runtime::StableStorage storage(&clock, &costs);
  runtime::MemoryManager memory(0);
  {
    dataflow::ExecCache cache({"workset", "solution"});
    cache.AttachMemoryManager(&memory, &storage, "job-y");
    EXPECT_TRUE(storage.PrefixAcquired("spill/job-y/"));
  }
  // Destruction releases the namespace for the next incarnation.
  EXPECT_FALSE(storage.PrefixAcquired("spill/job-y/"));
  dataflow::ExecCache next({"workset", "solution"});
  next.AttachMemoryManager(&memory, &storage, "job-y");
  EXPECT_TRUE(storage.PrefixAcquired("spill/job-y/"));
}

}  // namespace
}  // namespace flinkless::server
