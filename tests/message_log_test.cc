// Tests for the outbound message log (runtime/message_log.h) and the
// confined replay built on it (Executor::Replay, DESIGN.md §14): channel
// round-trips, superstep rotation, budgeted spill/unspill, and — the
// contract recovery rests on — replayed partitions byte-identical to the
// partitions a full Execute produces, for every operator kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "dataflow/exec_cache.h"
#include "dataflow/executor.h"
#include "runtime/cost_model.h"
#include "runtime/memory_manager.h"
#include "runtime/message_log.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/stable_storage.h"
#include "runtime/tracing.h"

namespace flinkless::runtime {
namespace {

using dataflow::Bindings;
using dataflow::ExecOptions;
using dataflow::ExecStats;
using dataflow::Executor;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

PartitionedDataset MakeMessages(int parts, int records_per_part,
                                int64_t salt) {
  PartitionedDataset out(parts);
  for (int p = 0; p < parts; ++p) {
    for (int64_t i = 0; i < records_per_part; ++i) {
      out.partition(p).push_back(MakeRecord(salt + p, i));
    }
  }
  return out;
}

// ------------------------------------------------------- log mechanics --

TEST(MessageLogTest, AppendAndChannelRoundTrip) {
  MessageLog log({"state"});
  PartitionedDataset messages = MakeMessages(4, 3, 100);
  ASSERT_TRUE(log.Append("n0001.in", messages, nullptr).ok());

  EXPECT_TRUE(log.Has("n0001.in"));
  EXPECT_FALSE(log.Has("n0002.in"));
  EXPECT_EQ(log.num_channels(), 1u);
  EXPECT_EQ(log.appended_records(), 12u);
  EXPECT_GT(log.appended_bytes(), 0u);

  auto channel = log.Channel("n0001.in", nullptr);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  ASSERT_EQ((*channel)->num_partitions(), 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ((*channel)->partition(p), messages.partition(p)) << p;
  }

  EXPECT_FALSE(log.Channel("missing", nullptr).ok());
}

TEST(MessageLogTest, BeginSuperstepDropsPreviousChannels) {
  MessageLog log({"state"});
  ASSERT_TRUE(log.Append("n0001.in", MakeMessages(2, 2, 0), nullptr).ok());
  ASSERT_TRUE(log.Append("n0002.l", MakeMessages(2, 2, 7), nullptr).ok());
  EXPECT_EQ(log.num_channels(), 2u);

  log.BeginSuperstep(1);
  EXPECT_EQ(log.superstep(), 1);
  EXPECT_EQ(log.num_channels(), 0u);
  EXPECT_FALSE(log.Has("n0001.in"));
  // Rotation never resets the monotonic totals.
  EXPECT_EQ(log.appended_records(), 8u);
}

TEST(MessageLogTest, BudgetSpillsAndChannelReloads) {
  StableStorage storage(nullptr, nullptr);
  MemoryManager manager(/*budget_bytes=*/1);  // everything must spill
  MessageLog log({"state"});
  log.AttachMemoryManager(&manager, &storage, "job-x");

  PartitionedDataset a = MakeMessages(2, 4, 10);
  PartitionedDataset b = MakeMessages(2, 4, 20);
  ASSERT_TRUE(log.Append("n0001.in", a, nullptr).ok());
  ASSERT_TRUE(log.Append("n0002.in", b, nullptr).ok());
  // Append registers but never evicts (it runs mid-Execute); the owner
  // enforces the budget at the superstep boundary.
  EXPECT_GT(log.resident_bytes(), 0u);
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_EQ(log.resident_bytes(), 0u);
  EXPECT_EQ(storage.ListWithPrefix("spill/job-x/msglog/").size(), 2u);

  // Channel() unspills on demand and hands back the original bytes.
  auto channel = log.Channel("n0001.in", nullptr);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ((*channel)->partition(p), a.partition(p)) << p;
  }
  EXPECT_EQ(manager.stats().unspills, 1u);
  EXPECT_GE(manager.stats().spills, 2u);

  // Rotation deletes the spill blobs of dropped channels.
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  log.BeginSuperstep(1);
  EXPECT_EQ(storage.ListWithPrefix("spill/job-x/msglog/").size(), 0u);
  EXPECT_EQ(manager.num_segments(), 0u);
}

// ------------------------------------------------------ confined replay --

/// A step plan shaped like the iteration drivers': a variant state source
/// joined with an invariant static input, then aggregated. Both the join
/// and the reduce sit behind shuffles, so replay serves the variant side
/// from the log and re-shuffles only the invariant side.
Plan BuildStepPlan() {
  Plan plan;
  auto state = plan.Source("state");
  auto edges = plan.Source("edges");
  auto joined = plan.Join(
      state, edges, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(r[1].AsInt64(), l[1].AsInt64() + 1);
      },
      "send");
  auto reduced = plan.ReduceByKey(
      joined, {0},
      [](const Record& x, const Record& y) {
        return MakeRecord(x[0].AsInt64(),
                          std::min(x[1].AsInt64(), y[1].AsInt64()));
      },
      "min", /*pre_combine=*/true);
  plan.Output(joined, "mid");
  plan.Output(reduced, "out");
  return plan;
}

struct StepData {
  PartitionedDataset state;
  PartitionedDataset edges;
};

StepData MakeStepData(int parts) {
  std::vector<Record> state;
  std::vector<Record> edges;
  for (int64_t v = 0; v < 64; ++v) {
    state.push_back(MakeRecord(v, v % 5));
    edges.push_back(MakeRecord(v, (v * 7 + 3) % 64));
    edges.push_back(MakeRecord(v, (v * 11 + 1) % 64));
  }
  StepData data;
  data.state = PartitionedDataset::HashPartitioned(state, {0}, parts);
  data.edges = PartitionedDataset::HashPartitioned(edges, {0}, parts);
  return data;
}

class ReplayTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplayTest, ReplayedPartitionsMatchExecuteByteForByte) {
  const int parts = 4;
  Plan plan = BuildStepPlan();
  StepData data = MakeStepData(parts);
  Bindings bindings{{"state", &data.state}, {"edges", &data.edges}};

  ExecOptions options;
  options.num_partitions = parts;
  options.num_threads = GetParam();
  MessageLog log({"state"});
  options.message_log = &log;
  Executor executor(options);

  ExecStats exec_stats;
  auto executed = executor.Execute(plan, bindings, &exec_stats);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_GT(log.num_channels(), 0u);
  EXPECT_EQ(exec_stats.messages_replayed, 0u);

  // Replay sees only the static bindings, exactly like the drivers after a
  // failure destroyed the volatile state.
  Bindings statics{{"edges", &data.edges}};
  for (const std::vector<int>& lost :
       {std::vector<int>{2}, std::vector<int>{0, 3},
        std::vector<int>{0, 1, 2, 3}}) {
    ExecStats replay_stats;
    auto replayed = executor.Replay(plan, statics, lost, &log, &replay_stats);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_GT(replay_stats.messages_replayed, 0u);
    for (const char* output : {"mid", "out"}) {
      const PartitionedDataset& full = executed->at(output);
      const PartitionedDataset& confined = replayed->at(output);
      ASSERT_EQ(confined.num_partitions(), parts);
      for (int p : lost) {
        EXPECT_EQ(confined.partition(p), full.partition(p))
            << output << " partition " << p << " with "
            << static_cast<int>(lost.size()) << " lost";
      }
    }
  }
}

TEST_P(ReplayTest, LoggingIsByteInvisibleToExecute) {
  const int parts = 4;
  Plan plan = BuildStepPlan();
  StepData data = MakeStepData(parts);
  Bindings bindings{{"state", &data.state}, {"edges", &data.edges}};

  ExecOptions plain_options;
  plain_options.num_partitions = parts;
  plain_options.num_threads = GetParam();
  Executor plain(plain_options);
  ExecStats plain_stats;
  auto unlogged = plain.Execute(plan, bindings, &plain_stats);
  ASSERT_TRUE(unlogged.ok());

  ExecOptions logged_options = plain_options;
  MessageLog log({"state"});
  logged_options.message_log = &log;
  Executor with_log(logged_options);
  ExecStats logged_stats;
  auto logged = with_log.Execute(plan, bindings, &logged_stats);
  ASSERT_TRUE(logged.ok());

  for (const char* output : {"mid", "out"}) {
    const PartitionedDataset& a = unlogged->at(output);
    const PartitionedDataset& b = logged->at(output);
    for (int p = 0; p < parts; ++p) {
      EXPECT_EQ(a.partition(p), b.partition(p)) << output << " " << p;
    }
  }
  EXPECT_EQ(plain_stats.messages_shuffled, logged_stats.messages_shuffled);
  EXPECT_EQ(plain_stats.records_processed, logged_stats.records_processed);
}

TEST_P(ReplayTest, ReplayReadsSpilledChannels) {
  // Same byte-identity with the log under a 1-byte budget: every channel
  // spills at the superstep boundary and Replay reloads on demand.
  const int parts = 4;
  Plan plan = BuildStepPlan();
  StepData data = MakeStepData(parts);
  Bindings bindings{{"state", &data.state}, {"edges", &data.edges}};

  StableStorage storage(nullptr, nullptr);
  MemoryManager manager(/*budget_bytes=*/1);
  MessageLog log({"state"});
  log.AttachMemoryManager(&manager, &storage, "replay-job");

  ExecOptions options;
  options.num_partitions = parts;
  options.num_threads = GetParam();
  options.message_log = &log;
  Executor executor(options);
  auto executed = executor.Execute(plan, bindings, nullptr);
  ASSERT_TRUE(executed.ok());
  ASSERT_TRUE(manager.EnforceBudget(nullptr, nullptr).ok());
  EXPECT_EQ(log.resident_bytes(), 0u);

  Bindings statics{{"edges", &data.edges}};
  auto replayed = executor.Replay(plan, statics, {1, 2}, &log, nullptr);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_GT(manager.stats().unspills, 0u);
  for (const char* output : {"mid", "out"}) {
    for (int p : {1, 2}) {
      EXPECT_EQ(replayed->at(output).partition(p),
                executed->at(output).partition(p))
          << output << " " << p;
    }
  }
}

/// A step plan using every OpKind: map, flat-map, filter, project, union,
/// cross, reduce (pre-combined generic, declared, and plain generic),
/// group-reduce, join, cogroup, distinct. Each two-sided keyed operator
/// appears with its loop-invariant side on the left and on the right. The
/// volatile "state" reaches every output only through a shuffle.
Plan BuildEveryOpPlan() {
  Plan plan;
  auto state = plan.Source("state");
  auto edges = plan.Source("edges");

  auto bumped = plan.Map(
      state,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() + 1);
      },
      "bump");
  auto doubled = plan.FlatMap(
      bumped,
      [](const Record& r, std::vector<Record>* out) {
        out->push_back(r);
        if (r[1].AsInt64() % 2 == 0) {
          out->push_back(MakeRecord(r[0].AsInt64(), r[1].AsInt64() * 2));
        }
      },
      "double-evens");
  auto scaled = plan.Map(
      edges,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() * 2);
      },
      "scale-edges");
  auto reversed = plan.FlatMap(
      edges,
      [](const Record& r, std::vector<Record>* out) {
        out->push_back(MakeRecord(r[1].AsInt64(), r[0].AsInt64()));
      },
      "reverse-edges");
  auto kept = plan.Filter(
      doubled, [](const Record& r) { return r[1].AsInt64() % 3 != 0; },
      "drop-thirds");
  auto merged = plan.Union(kept, reversed, "merge");

  auto sum = [](const Record& a, const Record& b) {
    return MakeRecord(a[0].AsInt64(), a[1].AsInt64() + b[1].AsInt64());
  };
  auto summed = plan.ReduceByKey(merged, {0}, sum, "sum", /*pre_combine=*/true);
  auto declared =
      plan.ReduceByKey(scaled, {0}, sum, "declared-sum", /*pre_combine=*/true);
  plan.DeclareReduce(declared, dataflow::ReduceKind::kSumInt64, 1);
  auto maxed = plan.ReduceByKey(
      doubled, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(),
                          std::max(a[1].AsInt64(), b[1].AsInt64()));
      },
      "max");
  auto grouped = plan.GroupReduceByKey(
      kept, {0},
      [](const Record& key, const std::vector<Record>& group) {
        int64_t total = 0;
        for (const Record& g : group) total = total * 7 + g[1].AsInt64();
        return MakeRecord(key[0].AsInt64(), total);
      },
      "group");
  auto joined = plan.Join(
      summed, edges, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(r[1].AsInt64(), l[1].AsInt64() + r[0].AsInt64());
      },
      "join");
  auto cogrouped = plan.CoGroup(
      maxed, declared, {0}, {0},
      [](const Record& key, const std::vector<Record>& left,
         const std::vector<Record>& right, std::vector<Record>* out) {
        int64_t mix = static_cast<int64_t>(left.size() * 100 + right.size());
        for (const Record& l : left) mix = mix * 3 + l[1].AsInt64();
        out->push_back(MakeRecord(key[0].AsInt64(), mix));
      },
      "cogroup");
  auto build_joined = plan.Join(
      scaled, summed, {0}, {0},
      [](const Record& l, const Record& r) {
        return MakeRecord(l[1].AsInt64(), r[1].AsInt64() - l[0].AsInt64());
      },
      "static-build-join");
  auto left_cogrouped = plan.CoGroup(
      reversed, maxed, {0}, {0},
      [](const Record& key, const std::vector<Record>& left,
         const std::vector<Record>& right, std::vector<Record>* out) {
        int64_t mix = static_cast<int64_t>(left.size() * 100 + right.size());
        for (const Record& r : right) mix = mix * 5 + r[1].AsInt64();
        out->push_back(MakeRecord(key[0].AsInt64(), mix));
      },
      "static-left-cogroup");
  auto swapped = plan.Project(joined, {1, 0}, "swap");
  auto distinct_values = plan.GroupReduceByKey(
      swapped, {0},
      [](const Record& key, const std::vector<Record>& group) {
        std::set<int64_t> values;
        for (const Record& r : group) values.insert(r[1].AsInt64());
        return MakeRecord(key[0].AsInt64(),
                          static_cast<int64_t>(values.size()));
      },
      "distinct-values");
  auto few = plan.Filter(
      declared, [](const Record& r) { return r[0].AsInt64() < 3; }, "few");
  auto crossed = plan.Cross(
      grouped, few,
      [](const Record& l, const Record& r) {
        return MakeRecord(l[0].AsInt64(), l[1].AsInt64() + r[1].AsInt64());
      },
      "cross");

  plan.Output(summed, "sum");
  plan.Output(maxed, "max");
  plan.Output(grouped, "group");
  plan.Output(joined, "join");
  plan.Output(cogrouped, "cogroup");
  plan.Output(build_joined, "static-build-join");
  plan.Output(left_cogrouped, "static-left-cogroup");
  plan.Output(distinct_values, "distinct-values");
  plan.Output(crossed, "cross");
  return plan;
}

TEST_P(ReplayTest, EveryOperatorReplaysByteIdenticalToExecute) {
  const int parts = 4;
  Plan plan = BuildEveryOpPlan();
  StepData data = MakeStepData(parts);
  Bindings bindings{{"state", &data.state}, {"edges", &data.edges}};
  Bindings statics{{"edges", &data.edges}};

  // Without and with a loop-invariant cache: Execute then serves the
  // static join/cogroup sides from it.
  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "uncached");
    dataflow::ExecCache cache({"state"});
    MessageLog log({"state"});
    MetricsSink metrics;
    Tracer tracer;
    ExecOptions options;
    options.num_partitions = parts;
    options.num_threads = GetParam();
    options.message_log = &log;
    options.metrics = &metrics;
    options.tracer = &tracer;
    if (cached) options.cache = &cache;
    Executor executor(options);

    auto executed = executor.Execute(plan, bindings, nullptr);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    const MetricsSnapshot after_execute = metrics.Collect();
    const size_t execute_events = tracer.Flush().events.size();

    for (const std::vector<int>& lost :
         {std::vector<int>{2}, std::vector<int>{0, 3},
          std::vector<int>{0, 1, 2, 3}}) {
      ExecStats replay_stats;
      auto replayed =
          executor.Replay(plan, statics, lost, &log, &replay_stats);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      EXPECT_GT(replay_stats.messages_replayed, 0u);
      for (const auto& [output, node] : plan.outputs()) {
        const PartitionedDataset& full = executed->at(output);
        const PartitionedDataset& confined = replayed->at(output);
        ASSERT_EQ(confined.num_partitions(), parts);
        for (int p : lost) {
          EXPECT_EQ(confined.partition(p), full.partition(p))
              << output << " partition " << p << " with "
              << static_cast<int>(lost.size()) << " lost";
        }
      }
    }

    // Replay records one span per call and no executor metrics: no record
    // or pool counts, batch-row samples, or probe-chain samples.
    const MetricsSnapshot after_replay = metrics.Collect();
    EXPECT_EQ(after_replay.histograms, after_execute.histograms);
    for (const char* name :
         {metric::kExecRecords, metric::kPoolTasks}) {
      EXPECT_EQ(after_replay.CounterTotal(name),
                after_execute.CounterTotal(name))
          << name;
    }
    const Tracer::Snapshot trace = tracer.Flush();
    EXPECT_EQ(trace.events.size(), execute_events + 3);
    EXPECT_EQ(std::count_if(trace.events.begin(), trace.events.end(),
                            [](const TraceEvent& e) {
                              return e.category == "msglog.replay";
                            }),
              3);
  }
}

/// Accounting totals of three Executes of BuildEveryOpPlan.
struct Accounting {
  uint64_t records_processed;
  uint64_t messages_shuffled;
  uint64_t cache_hits;
  uint64_t records_not_reshuffled;
  int64_t compute_ns;
  int64_t network_ns;
  uint64_t exec_records;
  uint64_t shuffle_fanout;
  uint64_t not_reshuffled_family;
  uint64_t batch_rows_samples;
  uint64_t probe_chain_samples;
};

TEST_P(ReplayTest, EveryOperatorAccountingIsPinnedWithAndWithoutCache) {
  // Three supersteps over the same bindings: uncached, then cached (the
  // first superstep fills the cache, the next two are served from it; the
  // invariant scale-edges and declared-sum run every superstep).
  // Outputs must agree, and every count and charge is pinned, so a change
  // in how any input is routed, cached, charged or counted shows up here.
  const Accounting kWant[2] = {
      /*uncached=*/{7575, 873, 0, 0, 215850, 873000, 6222, 846, 0, 120, 384},
      /*cached=*/{6679, 679, 8, 896, 182250, 679000, 5838, 652, 896, 112,
                  256},
  };
  const int parts = 4;
  Plan plan = BuildEveryOpPlan();
  StepData data = MakeStepData(parts);
  Bindings bindings{{"state", &data.state}, {"edges", &data.edges}};
  const CostModel costs;

  std::vector<std::map<std::string, PartitionedDataset>> uncached_outputs;
  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "uncached");
    dataflow::ExecCache cache({"state"});
    MessageLog log({"state"});
    MetricsSink metrics;
    SimClock clock;
    ExecOptions options;
    options.num_partitions = parts;
    options.num_threads = GetParam();
    options.clock = &clock;
    options.costs = &costs;
    options.message_log = &log;
    options.metrics = &metrics;
    if (cached) options.cache = &cache;
    Executor executor(options);

    ExecStats stats;
    for (int superstep = 0; superstep < 3; ++superstep) {
      log.BeginSuperstep(superstep + 1);
      auto executed = executor.Execute(plan, bindings, &stats);
      ASSERT_TRUE(executed.ok()) << executed.status().ToString();
      if (!cached) {
        uncached_outputs.push_back(*std::move(executed));
        continue;
      }
      for (const auto& [output, node] : plan.outputs()) {
        const PartitionedDataset& want = uncached_outputs[superstep].at(output);
        const PartitionedDataset& got = executed->at(output);
        ASSERT_EQ(got.num_partitions(), parts);
        for (int p = 0; p < parts; ++p) {
          EXPECT_EQ(got.partition(p), want.partition(p))
              << output << " partition " << p << " superstep " << superstep;
        }
      }
    }

    const MetricsSnapshot snapshot = metrics.Collect();
    auto samples = [&](const char* name) -> uint64_t {
      const Histogram* h = snapshot.FindHistogram(name);
      return h == nullptr ? 0 : h->count();
    };
    const Accounting& want = kWant[cached ? 1 : 0];
    EXPECT_EQ(stats.records_processed, want.records_processed);
    EXPECT_EQ(stats.messages_shuffled, want.messages_shuffled);
    EXPECT_EQ(stats.cache_hits, want.cache_hits);
    EXPECT_EQ(stats.records_not_reshuffled, want.records_not_reshuffled);
    EXPECT_EQ(clock.Of(Charge::kCompute), want.compute_ns);
    EXPECT_EQ(clock.Of(Charge::kNetwork), want.network_ns);
    EXPECT_EQ(clock.Of(Charge::kCheckpointIo), 0);
    EXPECT_EQ(clock.Of(Charge::kRecovery), 0);
    EXPECT_EQ(snapshot.CounterTotal(metric::kExecRecords), want.exec_records);
    EXPECT_EQ(snapshot.CounterTotal(metric::kShuffleFanout),
              want.shuffle_fanout);
    EXPECT_EQ(snapshot.CounterTotal(metric::kCacheRecordsNotReshuffled),
              want.not_reshuffled_family);
    EXPECT_EQ(samples(metric::kHistBatchRows), want.batch_rows_samples);
    EXPECT_EQ(samples(metric::kHistProbeChain), want.probe_chain_samples);
  }
}

/// What one Replay of BuildEveryOpPlan charged, counted and traced.
struct ReplayAccounting {
  int64_t recovery_ns;
  uint64_t records_processed;
  uint64_t messages_replayed;
  /// msglog.messages_replayed per partition.
  uint64_t replayed_p[4];
};

TEST_P(ReplayTest, EveryOperatorReplayAccountingIsPinned) {
  // One Execute, then one Replay per lost set. Replay charges kRecovery
  // only, so kCompute and kNetwork stay where Execute left them; its
  // counts, per-partition replay counters and span args are pinned, and
  // are the same whether Execute ran with the cache or not.
  const std::vector<int> kLost[3] = {{2}, {0, 3}, {0, 1, 2, 3}};
  const ReplayAccounting kWant[3] = {
      {298200, 783, 151, {0, 0, 151, 0}},
      {491600, 972, 263, {130, 0, 0, 133}},
      {1222550, 1679, 665, {130, 251, 151, 133}},
  };
  const int parts = 4;
  Plan plan = BuildEveryOpPlan();
  StepData data = MakeStepData(parts);
  Bindings bindings{{"state", &data.state}, {"edges", &data.edges}};
  Bindings statics{{"edges", &data.edges}};
  const CostModel costs;

  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "uncached");
    dataflow::ExecCache cache({"state"});
    MessageLog log({"state"});
    MetricsSink metrics;
    Tracer tracer;
    SimClock clock;
    ExecOptions options;
    options.num_partitions = parts;
    options.num_threads = GetParam();
    options.clock = &clock;
    options.costs = &costs;
    options.message_log = &log;
    options.metrics = &metrics;
    options.tracer = &tracer;
    if (cached) options.cache = &cache;
    Executor executor(options);

    ASSERT_TRUE(executor.Execute(plan, bindings, nullptr).ok());
    const int64_t compute_ns = clock.Of(Charge::kCompute);
    const int64_t network_ns = clock.Of(Charge::kNetwork);

    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE("lost set " + std::to_string(i));
      const ReplayAccounting& want = kWant[i];
      const MetricsSnapshot before = metrics.Collect();
      const int64_t recovery_before = clock.Of(Charge::kRecovery);
      ExecStats stats;
      ASSERT_TRUE(
          executor.Replay(plan, statics, kLost[i], &log, &stats).ok());
      EXPECT_EQ(clock.Of(Charge::kRecovery) - recovery_before,
                want.recovery_ns);
      EXPECT_EQ(clock.Of(Charge::kCompute), compute_ns);
      EXPECT_EQ(clock.Of(Charge::kNetwork), network_ns);
      EXPECT_EQ(stats.records_processed, want.records_processed);
      EXPECT_EQ(stats.messages_replayed, want.messages_replayed);
      EXPECT_EQ(stats.messages_shuffled, 0u);
      const MetricsSnapshot after = metrics.Collect();
      for (int p = 0; p < parts; ++p) {
        EXPECT_EQ(after.Counter(metric::kMsglogMessagesReplayed, p) -
                      before.Counter(metric::kMsglogMessagesReplayed, p),
                  want.replayed_p[p])
            << "partition " << p;
      }
      std::vector<TraceEvent> spans;
      for (const TraceEvent& e : tracer.Flush().events) {
        if (e.category == "msglog.replay") spans.push_back(e);
      }
      ASSERT_EQ(spans.size(), static_cast<size_t>(i + 1));
      EXPECT_EQ(spans.back().Arg("partitions_lost"),
                static_cast<int64_t>(kLost[i].size()));
      EXPECT_EQ(spans.back().Arg("messages_replayed"),
                static_cast<int64_t>(want.messages_replayed));
      EXPECT_EQ(spans.back().Arg("records_recomputed"),
                static_cast<int64_t>(want.records_processed));
    }
  }
}

TEST(ReplayTest, MissingLogChannelIsNotFound) {
  const int parts = 4;
  Plan plan = BuildStepPlan();
  StepData data = MakeStepData(parts);
  ExecOptions options;
  options.num_partitions = parts;
  Executor executor(options);
  // Log was never filled by an Execute: replay must fail loudly, not
  // fabricate empty partitions.
  MessageLog empty_log({"state"});
  Bindings statics{{"edges", &data.edges}};
  auto replayed = executor.Replay(plan, statics, {1}, &empty_log, nullptr);
  EXPECT_FALSE(replayed.ok());
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ReplayTest, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace flinkless::runtime
