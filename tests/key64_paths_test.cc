// The int64-key fast paths (DESIGN.md §15): the striped index probe and
// the cached-hash rebuild match their per-record equivalents, and declared
// (typed) reduces match the generic combiner fold, outputs, stats and
// simulated time included, at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataflow/columnar.h"
#include "dataflow/dataset.h"
#include "dataflow/executor.h"
#include "runtime/message_log.h"
#include "runtime/sim_clock.h"

namespace flinkless {
namespace {

using dataflow::ExecOptions;
using dataflow::ExecStats;
using dataflow::Executor;
using dataflow::FlatKeyIndex;
using dataflow::MakeRecord;
using dataflow::PartitionedDataset;
using dataflow::Plan;
using dataflow::Record;
using dataflow::ReduceKind;

/// Probe-stripe lengths for the prefix checks, from empty upward.
const std::vector<size_t> kSizes = {0, 1, 2, 3, 7, 16, 33, 100};

// ------------------------------------------------------ striped probes --

std::vector<Record> KeyedRows(size_t n, uint64_t key_space, uint64_t seed) {
  Rng rng(seed);
  std::vector<Record> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(MakeRecord(static_cast<int64_t>(rng.NextBounded(key_space)),
                              static_cast<int64_t>(i)));
  }
  return rows;
}

void ExpectStripeMatchesFindFirst(const FlatKeyIndex& index,
                                  const std::vector<Record>& probes) {
  std::vector<int64_t> keys;
  ASSERT_TRUE(dataflow::ExtractKey64(probes, {0}, &keys));
  std::vector<uint64_t> hashes(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    hashes[i] = dataflow::HashInt64Key(keys[i]);
  }
  std::vector<int32_t> first(keys.size(), -2);
  index.FindFirstStripe(keys.data(), hashes.data(), keys.size(), first.data());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(first[i], index.FindFirst(probes[i], {0},
                                        dataflow::HashKey(probes[i], {0})))
        << "probe " << i;
  }
}

TEST(FlatKeyIndexStripeTest, FindFirstStripeMatchesFindFirst) {
  std::vector<Record> rows = KeyedRows(1500, 97, 11);
  // Probes: hits, misses, and short stripes.
  std::vector<Record> probes = KeyedRows(777, 160, 12);
  FlatKeyIndex index;
  index.Build(rows, {0});
  ASSERT_TRUE(index.key64_probe_ready());
  ExpectStripeMatchesFindFirst(index, probes);
  for (size_t n : kSizes) {
    std::vector<Record> head(probes.begin(),
                             probes.begin() + std::min(n, probes.size()));
    ExpectStripeMatchesFindFirst(index, head);
  }
}

TEST(FlatKeyIndexStripeTest, StripeHandlesAllDuplicateAndClusteredKeys) {
  // All-duplicate keys produce one long chain; adversarial key values
  // cluster hashes only if the mix function were broken — either way the
  // probe loop must terminate and match FindFirst.
  std::vector<Record> rows;
  for (int64_t i = 0; i < 300; ++i) {
    rows.push_back(MakeRecord(int64_t{42}, i));
  }
  std::vector<Record> probes;
  probes.push_back(MakeRecord(int64_t{42}, int64_t{0}));
  probes.push_back(MakeRecord(int64_t{43}, int64_t{0}));
  probes.push_back(MakeRecord(std::numeric_limits<int64_t>::min(), int64_t{0}));
  FlatKeyIndex index;
  index.Build(rows, {0});
  ASSERT_TRUE(index.key64_probe_ready());
  ExpectStripeMatchesFindFirst(index, probes);
}

TEST(FlatKeyIndexStripeTest, BuildWithHashesMatchesPlainBuild) {
  std::vector<Record> rows = KeyedRows(1200, 64, 21);
  FlatKeyIndex plain;
  plain.Build(rows, {0});

  FlatKeyIndex adopted;
  adopted.BuildWithHashes(rows, {0}, std::vector<uint64_t>(plain.row_hashes()));
  EXPECT_EQ(adopted.row_hashes(), plain.row_hashes());
  ASSERT_EQ(adopted.heads(), plain.heads());
  for (int32_t head : plain.heads()) {
    for (int32_t r = head; r >= 0; r = plain.Next(r)) {
      EXPECT_EQ(adopted.Next(r), plain.Next(r));
    }
  }

  // A size mismatch must fall back to a plain (re-hashing) Build.
  FlatKeyIndex fallback;
  fallback.BuildWithHashes(rows, {0}, std::vector<uint64_t>(3, 0));
  EXPECT_EQ(fallback.row_hashes(), plain.row_hashes());
  EXPECT_EQ(fallback.heads(), plain.heads());
}

// ------------------------------------------- executor-level equivalences --

Plan BuildTypedReducePlan(ReduceKind kind, bool declare) {
  Plan plan;
  auto src = plan.Source("in");
  dataflow::NodeId reduced;
  switch (kind) {
    case ReduceKind::kSumInt64:
      reduced = plan.ReduceByKey(
          src, {0},
          [](const Record& a, const Record& b) {
            // Wrapping add, as the typed fold does (no signed overflow).
            return MakeRecord(
                a[0].AsInt64(),
                static_cast<int64_t>(static_cast<uint64_t>(a[1].AsInt64()) +
                                     static_cast<uint64_t>(b[1].AsInt64())));
          },
          "sum64", /*pre_combine=*/true);
      break;
    case ReduceKind::kMinInt64:
      reduced = plan.ReduceByKey(
          src, {0},
          [](const Record& a, const Record& b) {
            return MakeRecord(a[0].AsInt64(),
                              std::min(a[1].AsInt64(), b[1].AsInt64()));
          },
          "min64", /*pre_combine=*/true);
      break;
    case ReduceKind::kMaxInt64:
      reduced = plan.ReduceByKey(
          src, {0},
          [](const Record& a, const Record& b) {
            return MakeRecord(a[0].AsInt64(),
                              std::max(a[1].AsInt64(), b[1].AsInt64()));
          },
          "max64", /*pre_combine=*/true);
      break;
    default:
      reduced = plan.ReduceByKey(
          src, {0},
          [](const Record& a, const Record& b) {
            return MakeRecord(a[0].AsInt64(), a[1].AsDouble() + b[1].AsDouble());
          },
          "sumf64", /*pre_combine=*/true);
      break;
  }
  if (declare) plan.DeclareReduce(reduced, kind, 1);
  plan.Output(reduced, "out");
  return plan;
}

class TypedReduceTest : public ::testing::TestWithParam<int> {};

TEST_P(TypedReduceTest, TypedReduceMatchesGenericReduce) {
  const int threads = GetParam();
  // 150 keys, and one key: a single-group partition after the shuffle
  // (the shape of global aggregates such as PageRank's dangling mass).
  for (uint64_t key_space : {uint64_t{150}, uint64_t{1}}) {
    for (ReduceKind kind : {ReduceKind::kSumInt64, ReduceKind::kMinInt64,
                            ReduceKind::kMaxInt64, ReduceKind::kSumDouble}) {
      Rng rng(17);
      std::vector<Record> records;
      for (int64_t i = 0; i < 3000; ++i) {
        int64_t key = static_cast<int64_t>(rng.NextBounded(key_space));
        if (kind == ReduceKind::kSumDouble) {
          records.push_back(MakeRecord(key, static_cast<double>(i) * 0.5));
        } else {
          // Duplicated extremes exercise the <=/>= keep-first tie rule.
          int64_t v = (i % 11 == 0) ? std::numeric_limits<int64_t>::min() + i
                                    : static_cast<int64_t>(rng.Next() >> 1);
          records.push_back(MakeRecord(key, v));
        }
      }
      auto in = PartitionedDataset::RoundRobin(std::move(records), 8);

      auto run = [&](bool declare, ExecStats* stats, runtime::SimClock* clock,
                     const runtime::CostModel* costs) {
        Plan plan = BuildTypedReducePlan(kind, declare);
        ExecOptions options;
        options.num_partitions = 8;
        options.num_threads = threads;
        options.clock = clock;
        options.costs = costs;
        Executor executor(options);
        auto outs = executor.Execute(plan, {{"in", &in}}, stats);
        EXPECT_TRUE(outs.ok()) << outs.status().ToString();
        return std::move(outs->at("out"));
      };

      runtime::CostModel costs;
      runtime::SimClock typed_clock, generic_clock;
      ExecStats typed_stats, generic_stats;
      PartitionedDataset typed = run(true, &typed_stats, &typed_clock, &costs);
      PartitionedDataset generic =
          run(false, &generic_stats, &generic_clock, &costs);
      ASSERT_EQ(typed.num_partitions(), generic.num_partitions());
      for (int p = 0; p < typed.num_partitions(); ++p) {
        EXPECT_EQ(typed.partition(p), generic.partition(p))
            << "keys " << key_space << " kind " << static_cast<int>(kind)
            << " partition " << p;
      }
      EXPECT_EQ(typed_stats.records_processed, generic_stats.records_processed);
      EXPECT_EQ(typed_stats.messages_shuffled, generic_stats.messages_shuffled);
      EXPECT_EQ(typed_clock.TotalNs(), generic_clock.TotalNs());
    }
  }
}

/// Per key of `in`, the kSumDouble fold of a pre-combined reduce: each
/// source partition folds its rows in arrival order, and the partials are
/// folded in source-partition order (reversed: in reverse source order).
std::map<int64_t, double> SourceOrderSums(const PartitionedDataset& in,
                                          bool reversed) {
  const int n = in.num_partitions();
  std::map<int64_t, double> sums;
  for (int i = 0; i < n; ++i) {
    const int p = reversed ? n - 1 - i : i;
    std::map<int64_t, double> partials;
    for (const Record& r : in.partition(p)) {
      auto [it, fresh] = partials.emplace(r[0].AsInt64(), r[1].AsDouble());
      if (!fresh) it->second += r[1].AsDouble();
    }
    for (const auto& [key, partial] : partials) {
      auto [it, fresh] = sums.emplace(key, partial);
      if (!fresh) it->second += partial;
    }
  }
  return sums;
}

TEST_P(TypedReduceTest, SumDoubleFoldsPartialsInSourceOrder) {
  // Every key's partials come from all four source partitions, with values
  // whose floating-point sum depends on the order they are added in. A
  // source may order its partials as it likes; the gather must deliver
  // them in source-partition order, in Execute and in a Replay of the
  // logged channel.
  const int threads = GetParam();
  constexpr int kParts = 4;
  // In source order a key sums to 1.0 or 0.0, in reverse order to the
  // other one. Some sources fold a second row, 0.0, into their partial.
  const double kValues[] = {1e16, 1.0, -1e16, 1.0};
  PartitionedDataset in(kParts);
  for (int p = 0; p < kParts; ++p) {
    for (int64_t k = 0; k < 40; ++k) {
      in.partition(p).push_back(MakeRecord(k, kValues[(k + p) % 4]));
      if ((k + p) % 3 == 0) in.partition(p).push_back(MakeRecord(k, 0.0));
    }
  }
  const std::map<int64_t, double> sums = SourceOrderSums(in, false);
  const std::map<int64_t, double> reversed = SourceOrderSums(in, true);
  ASSERT_NE(sums, reversed) << "the data must pin the fold order";

  auto expect_sums = [&](const PartitionedDataset& out, int p) {
    std::vector<std::pair<int64_t, uint64_t>> got, want;
    for (const Record& r : out.partition(p)) {
      got.emplace_back(r[0].AsInt64(),
                       std::bit_cast<uint64_t>(r[1].AsDouble()));
    }
    for (const auto& [key, sum] : sums) {
      if (PartitionedDataset::PartitionOf(MakeRecord(key), {0}, kParts) == p) {
        want.emplace_back(key, std::bit_cast<uint64_t>(sum));
      }
    }
    EXPECT_EQ(got, want) << "partition " << p;
  };

  for (bool declare : {true, false}) {
    SCOPED_TRACE(declare ? "declared" : "undeclared");
    const Plan plan = BuildTypedReducePlan(ReduceKind::kSumDouble, declare);
    runtime::MessageLog log({"in"});
    ExecOptions options;
    options.num_partitions = kParts;
    options.num_threads = threads;
    options.message_log = &log;
    Executor executor(options);
    auto executed = executor.Execute(plan, {{"in", &in}}, nullptr);
    ASSERT_TRUE(executed.ok()) << executed.status().ToString();
    for (int p = 0; p < kParts; ++p) expect_sums(executed->at("out"), p);

    const std::vector<int> lost = {1, 3};
    auto replayed = executor.Replay(plan, {}, lost, &log, nullptr);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    for (int p : lost) expect_sums(replayed->at("out"), p);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TypedReduceTest,
                         ::testing::Values(1, 2, 8));

// ------------------------------------------------ record-path routing --

TEST(RecordReduceRoutingTest, UndeclaredReducesLandInTheirKeysPartition) {
  // The record path's pre-combine routes each partial by the hash its slot
  // map stored, which must be PartitionOf's HashKey % n for keys that are
  // not a single int64: a string key (the wordcount shape) and a
  // two-column key (the k-means shape).
  constexpr int kParts = 5;
  const std::vector<std::string> words = {"", "a", "flink", "optimistic",
                                          "recovery", "zz", "Ω"};
  std::vector<Record> records;
  for (int64_t i = 0; i < 700; ++i) {
    records.push_back(MakeRecord(i % 13, words[i % words.size()], i));
  }
  const PartitionedDataset in =
      PartitionedDataset::RoundRobin(std::move(records), kParts);

  for (const dataflow::KeyColumns& key :
       {dataflow::KeyColumns{1}, dataflow::KeyColumns{0, 1}}) {
    SCOPED_TRACE(key.size() == 1 ? "string key" : "two-column key");
    // Rows of the key columns, then the value column.
    Plan plan;
    auto keyed = plan.Map(
        plan.Source("in"),
        [key](const Record& r) {
          Record out = dataflow::ExtractKey(r, key);
          out.push_back(r[2]);
          return out;
        },
        "keyed");
    dataflow::KeyColumns out_key;
    for (size_t c = 0; c < key.size(); ++c) {
      out_key.push_back(static_cast<int>(c));
    }
    const size_t value_col = key.size();
    auto summed = plan.ReduceByKey(
        keyed, out_key,
        [=](const Record& a, const Record& b) {
          Record out = a;
          out[value_col] = dataflow::Value(a[value_col].AsInt64() +
                                           b[value_col].AsInt64());
          return out;
        },
        "sum");
    plan.Output(summed, "out");

    std::map<Record, int64_t, dataflow::RecordOrder> reference;
    for (int p = 0; p < kParts; ++p) {
      for (const Record& r : in.partition(p)) {
        reference[dataflow::ExtractKey(r, key)] += r[2].AsInt64();
      }
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE(threads);
      ExecOptions options;
      options.num_partitions = kParts;
      options.num_threads = threads;
      Executor executor(options);
      auto outs = executor.Execute(plan, {{"in", &in}}, nullptr);
      ASSERT_TRUE(outs.ok()) << outs.status().ToString();
      const PartitionedDataset& out = outs->at("out");
      for (int p = 0; p < kParts; ++p) {
        std::vector<Record> want;
        for (const auto& [k, sum] : reference) {
          Record row = k;
          row.push_back(dataflow::Value(sum));
          if (PartitionedDataset::PartitionOf(row, out_key, kParts) == p) {
            want.push_back(std::move(row));
          }
        }
        for (const Record& row : out.partition(p)) {
          EXPECT_EQ(PartitionedDataset::PartitionOf(row, out_key, kParts), p);
        }
        EXPECT_EQ(out.partition(p), want) << "partition " << p;
      }
    }
  }
}

}  // namespace
}  // namespace flinkless
