// Experiment M1: engine microbenchmarks (google-benchmark) — throughput of
// the operators the iterative dataflows are built from, plus one full
// superstep of each algorithm. These pin the constant factors behind the
// C1/C2 simulated-time numbers.

#include <benchmark/benchmark.h>

#include "algos/connected_components.h"
#include "algos/datasets.h"
#include "algos/pagerank.h"
#include "common/logging.h"
#include "common/rng.h"
#include "dataflow/block_codec.h"
#include "dataflow/columnar.h"
#include "dataflow/exec_cache.h"
#include "dataflow/executor.h"
#include "graph/generators.h"

namespace {

using namespace flinkless;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;

PartitionedDataset RandomPairs(int64_t n, int64_t key_space, int parts,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    records.push_back(MakeRecord(
        static_cast<int64_t>(rng.NextBounded(key_space)), i));
  }
  return PartitionedDataset::RoundRobin(std::move(records), parts);
}

void BM_Shuffle(benchmark::State& state) {
  const int parts = 4;
  auto input = RandomPairs(state.range(0), state.range(0), parts, 1);
  dataflow::Executor executor({parts, nullptr, nullptr});
  for (auto _ : state) {
    auto out = executor.Shuffle(input, {0}, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Shuffle)->Arg(1 << 10)->Arg(1 << 14);

void BM_Map(benchmark::State& state) {
  const int parts = 4;
  auto input = RandomPairs(state.range(0), state.range(0), parts, 2);
  Plan plan;
  auto src = plan.Source("in");
  auto mapped = plan.Map(
      src,
      [](const Record& r) {
        return MakeRecord(r[0].AsInt64(), r[1].AsInt64() + 1);
      },
      "inc");
  plan.Output(mapped, "out");
  dataflow::Executor executor({parts, nullptr, nullptr});
  for (auto _ : state) {
    auto out = executor.Execute(plan, {{"in", &input}}, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Map)->Arg(1 << 10)->Arg(1 << 14);

void BM_ReduceByKey(benchmark::State& state) {
  const int parts = 4;
  auto input = RandomPairs(state.range(0), state.range(0) / 8, parts, 3);
  Plan plan;
  auto src = plan.Source("in");
  auto reduced = plan.ReduceByKey(
      src, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsInt64() + b[1].AsInt64());
      },
      "sum");
  plan.Output(reduced, "out");
  dataflow::Executor executor({parts, nullptr, nullptr});
  for (auto _ : state) {
    auto out = executor.Execute(plan, {{"in", &input}}, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReduceByKey)->Arg(1 << 10)->Arg(1 << 14);

void BM_HashJoin(benchmark::State& state) {
  const int parts = 4;
  auto left = RandomPairs(state.range(0), state.range(0) / 2, parts, 4);
  auto right = RandomPairs(state.range(0), state.range(0) / 2, parts, 5);
  Plan plan;
  auto l = plan.Source("l");
  auto r = plan.Source("r");
  auto joined = plan.Join(
      l, r, {0}, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsInt64(), b[1].AsInt64());
      },
      "join");
  plan.Output(joined, "out");
  dataflow::Executor executor({parts, nullptr, nullptr});
  for (auto _ : state) {
    auto out = executor.Execute(plan, {{"l", &left}, {"r", &right}}, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_HashJoin)->Arg(1 << 10)->Arg(1 << 13);

void BM_JoinStaticBuildSide(benchmark::State& state) {
  // The loop-invariant cache path (DESIGN.md §10): a static build side
  // joined against a fresh probe side every "superstep". range(1) toggles
  // the ExecCache — with it, the static side is shuffled and indexed once
  // (the first iteration) and every later iteration probes the cached
  // index; without it, every iteration rebuilds from scratch.
  const int parts = 4;
  const bool cached = state.range(1) != 0;
  auto build = RandomPairs(state.range(0), state.range(0) / 2, parts, 8);
  auto probe = RandomPairs(state.range(0), state.range(0) / 2, parts, 9);
  Plan plan;
  auto l = plan.Source("build");
  auto r = plan.Source("probe");
  auto joined = plan.Join(
      l, r, {0}, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsInt64(), a[1].AsInt64(), b[1].AsInt64());
      },
      "static-join");
  plan.Output(joined, "out");

  dataflow::ExecCache cache({"probe"});
  dataflow::ExecOptions options;
  options.num_partitions = parts;
  if (cached) options.cache = &cache;
  dataflow::Executor executor(options);
  dataflow::ExecStats stats;
  for (auto _ : state) {
    auto out = executor.Execute(
        plan, {{"build", &build}, {"probe", &probe}}, &stats);
    benchmark::DoNotOptimize(out);
  }
  if (cached) {
    // Every superstep after the first must serve the build side from the
    // cache — shuffled and indexed once per job, as the issue demands.
    FLINKLESS_CHECK(
        stats.cache_hits >= static_cast<uint64_t>(state.iterations() - 1),
        "static build side was rebuilt mid-job");
  } else {
    FLINKLESS_CHECK(stats.cache_hits == 0, "uncached run reported hits");
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
  state.SetLabel(cached ? "cached" : "uncached");
}
BENCHMARK(BM_JoinStaticBuildSide)
    ->Args({1 << 10, 0})
    ->Args({1 << 10, 1})
    ->Args({1 << 13, 0})
    ->Args({1 << 13, 1});

void BM_ShuffleSerdeColumnar(benchmark::State& state) {
  // Dataset blob serde (spills, message-log channels): one columns-layout
  // block per partition, whole-column writes instead of one tag+payload per
  // value.
  auto ds = RandomPairs(state.range(0), state.range(0), 4, 10);
  for (auto _ : state) {
    auto blob = dataflow::SerializePartitionedDataset(
        ds, dataflow::SerializedDatasetBytes(ds));
    auto back = dataflow::DeserializePartitionedDataset(blob);
    FLINKLESS_CHECK(back.ok(), "dataset blob round-trip failed");
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShuffleSerdeColumnar)->Arg(1 << 10)->Arg(1 << 14);

void BM_JoinProbeColumnar(benchmark::State& state) {
  // Columnar join core: flat open-addressing index keyed directly off the
  // key column — no per-record key materialization or map nodes.
  auto build = RandomPairs(state.range(0), state.range(0) / 2, 1, 11);
  auto probe = RandomPairs(state.range(0), state.range(0) / 2, 1, 12);
  const std::vector<Record>& rows = build.partition(0);
  for (auto _ : state) {
    dataflow::FlatKeyIndex index;
    index.Build(rows, {0});
    uint64_t matches = 0;
    for (const Record& r : probe.partition(0)) {
      int32_t row = index.FindFirst(r, {0}, dataflow::HashKey(r, {0}));
      for (; row >= 0; row = index.Next(row)) ++matches;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_JoinProbeColumnar)->Arg(1 << 10)->Arg(1 << 14);

void BM_SerdeCopy(benchmark::State& state) {
  // Dataset blob serde with a string column, so the string-length and
  // string-byte loops of the columns layout are on the measured path.
  const int64_t n = state.range(0);
  std::vector<Record> records;
  records.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    records.push_back(
        MakeRecord(i, static_cast<double>(i) * 0.5,
                   "value-" + std::to_string(i % 97)));
  }
  auto ds = PartitionedDataset::RoundRobin(std::move(records), 4);
  for (auto _ : state) {
    auto blob = dataflow::SerializePartitionedDataset(
        ds, dataflow::SerializedDatasetBytes(ds));
    auto back = dataflow::DeserializePartitionedDataset(blob);
    FLINKLESS_CHECK(back.ok(), "serde copy round-trip failed");
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SerdeCopy)->Arg(1 << 10)->Arg(1 << 14);

void BM_BlockSerialization(benchmark::State& state) {
  // One partition's (int64, double) rows through the block codec: the
  // encoding of every snapshot and spill.
  std::vector<Record> records;
  for (int64_t i = 0; i < state.range(0); ++i) {
    records.push_back(MakeRecord(i, static_cast<double>(i) * 0.5));
  }
  for (auto _ : state) {
    std::vector<uint8_t> bytes;
    dataflow::EncodeBlock(records, &bytes);
    size_t offset = 0;
    auto back = dataflow::DecodeBlock(bytes, &offset);
    FLINKLESS_CHECK(back.ok(), "block round-trip failed");
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BlockSerialization)->Arg(1 << 10)->Arg(1 << 14);

void BM_PageRankSuperstep(benchmark::State& state) {
  Rng rng(6);
  graph::Graph g = graph::Rmat(static_cast<int>(state.range(0)), 8, &rng);
  const int parts = 4;
  Plan plan = algos::BuildPageRankPlan(g.num_vertices(), 0.85);
  auto links = algos::Links(g, parts);
  auto dangling = algos::DanglingVertices(g, parts);
  auto zero_mass = PartitionedDataset::HashPartitioned(
      {MakeRecord(int64_t{0}, 0.0)}, {0}, parts);
  auto ranks = algos::InitialRanks(g, parts);
  dataflow::Bindings bindings{{"state", &ranks},
                              {"links", &links},
                              {"dangling", &dangling},
                              {"zero_mass", &zero_mass}};
  dataflow::Executor executor({parts, nullptr, nullptr});
  for (auto _ : state) {
    auto out = executor.Execute(plan, bindings, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_PageRankSuperstep)->Arg(8)->Arg(11);

void BM_CcSuperstep(benchmark::State& state) {
  Rng rng(7);
  graph::Graph g =
      graph::PreferentialAttachment(state.range(0), 2, &rng);
  const int parts = 4;
  Plan plan = algos::BuildConnectedComponentsPlan();
  auto edges = algos::EdgePairs(g, parts);
  auto labels = algos::InitialLabels(g);
  auto workset = PartitionedDataset::HashPartitioned(labels, {0}, parts);
  auto solution = PartitionedDataset::HashPartitioned(labels, {0}, parts);
  dataflow::Bindings bindings{
      {"workset", &workset}, {"solution", &solution}, {"edges", &edges}};
  dataflow::Executor executor({parts, nullptr, nullptr});
  for (auto _ : state) {
    auto out = executor.Execute(plan, bindings, nullptr);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CcSuperstep)->Arg(256)->Arg(2048);

void BM_SolutionSetLookup(benchmark::State& state) {
  const int parts = 4;
  iteration::SolutionSet set(parts, {0});
  for (int64_t i = 0; i < state.range(0); ++i) {
    set.Upsert(MakeRecord(i, static_cast<double>(i)));
  }
  int64_t i = 0;
  for (auto _ : state) {
    const Record* hit = set.Lookup(MakeRecord(i++ % state.range(0)));
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolutionSetLookup)->Arg(1 << 10)->Arg(1 << 14);

void BM_SolutionSetApplyDelta(benchmark::State& state) {
  const int parts = 8;
  const int64_t n = 1 << 14;
  const int threads = static_cast<int>(state.range(0));
  iteration::SolutionSet set(parts, {0});
  for (int64_t i = 0; i < n; ++i) {
    set.Upsert(MakeRecord(i, 0.0));
  }
  std::vector<Record> updates;
  updates.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    updates.push_back(MakeRecord(i, static_cast<double>(i)));
  }
  auto delta = PartitionedDataset::HashPartitioned(updates, {0}, parts);
  runtime::ThreadPool pool(threads);
  for (auto _ : state) {
    // ApplyDelta consumes its argument; exclude the copy from the timing.
    state.PauseTiming();
    PartitionedDataset d = delta;
    state.ResumeTiming();
    uint64_t applied =
        set.ApplyDelta(std::move(d), threads > 1 ? &pool : nullptr, nullptr);
    benchmark::DoNotOptimize(applied);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SolutionSetApplyDelta)->Arg(1)->Arg(2)->Arg(8);

void BM_CheckpointPartition(benchmark::State& state) {
  std::vector<Record> records;
  for (int64_t i = 0; i < state.range(0); ++i) {
    records.push_back(MakeRecord(i, static_cast<double>(i)));
  }
  iteration::BulkState bulk(
      PartitionedDataset::HashPartitioned(records, {0}, 1));
  runtime::StableStorage storage(nullptr, nullptr);
  int64_t i = 0;
  for (auto _ : state) {
    auto blob = bulk.SerializePartition(0);
    Status s = storage.Write("bench/" + std::to_string(i++ % 4), std::move(blob));
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointPartition)->Arg(1 << 12);

}  // namespace

int main(int argc, char** argv) {
  flinkless::SetLogLevel(flinkless::LogLevel::kWarning);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
