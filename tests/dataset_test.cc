// Unit tests for PartitionedDataset and the blob codec built on it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "core/policies.h"
#include "dataflow/block_codec.h"
#include "dataflow/dataset.h"
#include "iteration/context.h"
#include "iteration/state.h"
#include "runtime/stable_storage.h"

namespace flinkless::dataflow {
namespace {

std::vector<Record> VertexRecords(int64_t n) {
  std::vector<Record> out;
  for (int64_t v = 0; v < n; ++v) out.push_back(MakeRecord(v, v * 10));
  return out;
}

TEST(DatasetTest, EmptyDataset) {
  PartitionedDataset ds(3);
  EXPECT_EQ(ds.num_partitions(), 3);
  EXPECT_EQ(ds.NumRecords(), 0u);
  EXPECT_TRUE(ds.Collect().empty());
}

TEST(DatasetTest, HashPartitionedPlacesByKeyHash) {
  auto ds = PartitionedDataset::HashPartitioned(VertexRecords(64), {0}, 4);
  EXPECT_EQ(ds.NumRecords(), 64u);
  for (int p = 0; p < 4; ++p) {
    for (const Record& r : ds.partition(p)) {
      EXPECT_EQ(PartitionedDataset::PartitionOf(r, {0}, 4), p);
    }
  }
  EXPECT_TRUE(ds.IsPartitionedBy({0}));
}

TEST(DatasetTest, PartitioningIsDeterministic) {
  auto a = PartitionedDataset::HashPartitioned(VertexRecords(50), {0}, 4);
  auto b = PartitionedDataset::HashPartitioned(VertexRecords(50), {0}, 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(a.partition(p), b.partition(p));
  }
}

TEST(DatasetTest, SinglePartitionHoldsEverything) {
  auto ds = PartitionedDataset::HashPartitioned(VertexRecords(10), {0}, 1);
  EXPECT_EQ(ds.partition(0).size(), 10u);
}

TEST(DatasetTest, RoundRobinBalancesExactly) {
  auto ds = PartitionedDataset::RoundRobin(VertexRecords(12), 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(ds.partition(p).size(), 3u);
  }
}

TEST(DatasetTest, CollectSortedIsSortedAndComplete) {
  auto ds = PartitionedDataset::HashPartitioned(VertexRecords(32), {0}, 4);
  auto sorted = ds.CollectSorted();
  ASSERT_EQ(sorted.size(), 32u);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_TRUE(RecordLess(sorted[i - 1], sorted[i]));
  }
  EXPECT_EQ(sorted.front()[0].AsInt64(), 0);
  EXPECT_EQ(sorted.back()[0].AsInt64(), 31);
}

TEST(DatasetTest, ClearPartitionDropsOnlyThatPartition) {
  auto ds = PartitionedDataset::HashPartitioned(VertexRecords(64), {0}, 4);
  uint64_t before = ds.NumRecords();
  uint64_t in_p0 = ds.partition(0).size();
  ASSERT_GT(in_p0, 0u);
  ds.ClearPartition(0);
  EXPECT_EQ(ds.NumRecords(), before - in_p0);
  EXPECT_TRUE(ds.partition(0).empty());
  EXPECT_FALSE(ds.partition(1).empty());
}

TEST(DatasetTest, IsPartitionedByDetectsMisplacement) {
  PartitionedDataset ds(2);
  Record r = MakeRecord(int64_t{5});
  int correct = PartitionedDataset::PartitionOf(r, {0}, 2);
  ds.partition(1 - correct).push_back(r);
  EXPECT_FALSE(ds.IsPartitionedBy({0}));
}

// ------------------------------------------------------------ blob codec --
//
// Every blob that leaves memory is a thin header plus partition blocks
// (block_codec.h). One table of inputs runs through every blob kind: each
// blob must round-trip bit for bit, be exactly its header plus the sizes of
// its blocks, and answer every proper prefix, an unknown layout tag in any
// block, an unknown column tag in any columns block and a trailing byte with
// DataLoss.

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t BitsOf(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Equality that tells -0.0 from 0.0 and compares NaN payloads.
bool SameBits(const std::vector<Record>& a, const std::vector<Record>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); ++c) {
      const Value& x = a[i][c];
      const Value& y = b[i][c];
      if (x.type() != y.type()) return false;
      if (x.is_double() ? BitsOf(x.AsDouble()) != BitsOf(y.AsDouble())
                        : !(x == y)) {
        return false;
      }
    }
  }
  return true;
}

struct CodecCase {
  const char* name;
  std::vector<std::vector<Record>> partitions;
};

std::vector<CodecCase> CodecCases() {
  const double nan_payload = DoubleFromBits(0x7ff8000000000123ULL);
  std::vector<Record> typed = {
      MakeRecord(int64_t{7}, 0.5, std::string("alpha")),
      MakeRecord(int64_t{-1}, -0.0, std::string()),
      MakeRecord(std::numeric_limits<int64_t>::min(), nan_payload,
                 std::string("b\0c", 3)),
      MakeRecord(std::numeric_limits<int64_t>::max(), 1e300,
                 std::string(300, 'x'))};
  std::vector<Record> pairs = {MakeRecord(int64_t{3}, int64_t{30}),
                               MakeRecord(int64_t{4}, int64_t{-40})};
  std::vector<Record> strings = {MakeRecord(std::string("s")),
                                 MakeRecord(std::string())};
  std::vector<Record> mixed = {MakeRecord(int64_t{11}, -0.0),
                               MakeRecord(std::string("mixed")), Record{},
                               MakeRecord(int64_t{12}, nan_payload)};
  return {
      {"columns", {typed, pairs}},
      {"arity0", {{Record{}, Record{}}, {}}},
      {"mixed_next_to_columns", {mixed, pairs, strings, {}}},
      {"empty", {{}, {}, {}}},
  };
}

PartitionedDataset CaseDataset(const CodecCase& c) {
  PartitionedDataset ds(static_cast<int>(c.partitions.size()));
  for (int p = 0; p < ds.num_partitions(); ++p) {
    ds.partition(p) = c.partitions[p];
  }
  return ds;
}

// A delta state over the case: the workset is the case itself, the
// solution set every row with a key column, upserted by key.
iteration::DeltaState CaseDeltaState(const CodecCase& c) {
  PartitionedDataset ds = CaseDataset(c);
  iteration::SolutionSet solution(ds.num_partitions(), {0});
  for (const Record& r : ds.Collect()) {
    if (!r.empty()) solution.Upsert(r);
  }
  return iteration::DeltaState(std::move(solution), std::move(ds));
}

// The parts of a delta state one partition's blob holds.
struct DeltaParts {
  std::vector<Record> solution;
  std::vector<Record> workset;
};

DeltaParts PartsOf(const iteration::DeltaState& state, int p) {
  return {state.solution().PartitionRecords(p), state.workset().partition(p)};
}

bool SameBits(const DeltaParts& a, const DeltaParts& b) {
  return SameBits(a.solution, b.solution) && SameBits(a.workset, b.workset);
}

// One blob kind: the blobs it writes for a case, the size each must have,
// and a decoder that returns DataLoss or checks the blob reproduces what
// was written.
class BlobKind {
 public:
  virtual ~BlobKind() = default;
  virtual const char* name() const = 0;
  // Bytes of the header before the first block of every blob.
  virtual size_t header_bytes() const = 0;
  virtual std::vector<std::vector<uint8_t>> Encode(const CodecCase& c) = 0;
  // The rows of each block blob `blob` of case `c` holds, in order.
  virtual std::vector<std::vector<Record>> Blocks(const CodecCase& c,
                                                  size_t blob) = 0;
  // Decodes blob `blob` of case `c` from `bytes`; on success also checks
  // (EXPECT) that the decoded records equal the encoded ones bit for bit.
  virtual Status Decode(const CodecCase& c, size_t blob,
                        const std::vector<uint8_t>& bytes) = 0;
};

class DatasetBlob final : public BlobKind {
 public:
  const char* name() const override { return "dataset"; }
  size_t header_bytes() const override { return 16; }
  std::vector<std::vector<uint8_t>> Encode(const CodecCase& c) override {
    const PartitionedDataset ds = CaseDataset(c);
    std::vector<uint8_t> blob =
        SerializePartitionedDataset(ds, SerializedDatasetBytes(ds));
    EXPECT_EQ(SerializedDatasetBytes(ds), blob.size());
    return {blob};
  }
  std::vector<std::vector<Record>> Blocks(const CodecCase& c,
                                          size_t) override {
    return c.partitions;
  }
  Status Decode(const CodecCase& c, size_t,
                const std::vector<uint8_t>& bytes) override {
    FLINKLESS_ASSIGN_OR_RETURN(PartitionedDataset back,
                               DeserializePartitionedDataset(bytes));
    PartitionedDataset ds = CaseDataset(c);
    EXPECT_EQ(back.num_partitions(), ds.num_partitions());
    for (int p = 0; p < ds.num_partitions(); ++p) {
      EXPECT_TRUE(SameBits(back.partition(p), ds.partition(p)))
          << "partition " << p;
    }
    return Status::OK();
  }
};

class BulkSnapshot final : public BlobKind {
 public:
  const char* name() const override { return "bulk_snapshot"; }
  size_t header_bytes() const override { return 0; }
  std::vector<std::vector<uint8_t>> Encode(const CodecCase& c) override {
    iteration::BulkState state(CaseDataset(c));
    std::vector<std::vector<uint8_t>> blobs;
    for (int p = 0; p < state.num_partitions(); ++p) {
      blobs.push_back(state.SerializePartition(p));
    }
    return blobs;
  }
  std::vector<std::vector<Record>> Blocks(const CodecCase& c,
                                          size_t blob) override {
    return {c.partitions[blob]};
  }
  Status Decode(const CodecCase& c, size_t blob,
                const std::vector<uint8_t>& bytes) override {
    const int p = static_cast<int>(blob);
    iteration::BulkState state(CaseDataset(c));
    state.ClearPartition(p);
    FLINKLESS_RETURN_NOT_OK(state.RestorePartition(p, bytes));
    EXPECT_TRUE(SameBits(state.data().partition(p), c.partitions[p]));
    return Status::OK();
  }
};

class DeltaSnapshot final : public BlobKind {
 public:
  const char* name() const override { return "delta_snapshot"; }
  size_t header_bytes() const override { return 0; }
  std::vector<std::vector<uint8_t>> Encode(const CodecCase& c) override {
    iteration::DeltaState state = CaseDeltaState(c);
    std::vector<std::vector<uint8_t>> blobs;
    for (int p = 0; p < state.num_partitions(); ++p) {
      blobs.push_back(state.SerializePartition(p));
    }
    return blobs;
  }
  std::vector<std::vector<Record>> Blocks(const CodecCase& c,
                                          size_t blob) override {
    DeltaParts parts = PartsOf(CaseDeltaState(c), static_cast<int>(blob));
    return {parts.solution, parts.workset};
  }
  Status Decode(const CodecCase& c, size_t blob,
                const std::vector<uint8_t>& bytes) override {
    const int p = static_cast<int>(blob);
    iteration::DeltaState state = CaseDeltaState(c);
    const DeltaParts before = PartsOf(state, p);
    state.ClearPartition(p);
    FLINKLESS_RETURN_NOT_OK(state.RestorePartition(p, bytes));
    EXPECT_TRUE(SameBits(PartsOf(state, p), before));
    return Status::OK();
  }
};

// A delta-checkpoint link, written and read back by the policy: the base
// link of a fresh chain holds every solution entry and the workset.
class DeltaLink final : public BlobKind {
 public:
  const char* name() const override { return "delta_link"; }
  size_t header_bytes() const override { return 24; }
  std::vector<std::vector<uint8_t>> Encode(const CodecCase& c) override {
    iteration::DeltaState state = CaseDeltaState(c);
    EXPECT_TRUE(policy_.OnJobStart(Context(state), &state).ok());
    std::vector<std::vector<uint8_t>> blobs;
    for (int p = 0; p < state.num_partitions(); ++p) {
      blobs.push_back(*storage_.Read(Key(p)));
    }
    return blobs;
  }
  std::vector<std::vector<Record>> Blocks(const CodecCase& c,
                                          size_t blob) override {
    DeltaParts parts = PartsOf(CaseDeltaState(c), static_cast<int>(blob));
    return {parts.solution, parts.workset};
  }
  Status Decode(const CodecCase& c, size_t blob,
                const std::vector<uint8_t>& bytes) override {
    iteration::DeltaState state = CaseDeltaState(c);
    FLINKLESS_RETURN_NOT_OK(policy_.OnJobStart(Context(state), &state));
    FLINKLESS_RETURN_NOT_OK(
        storage_.Write(Key(static_cast<int>(blob)), bytes));
    std::vector<int> all(state.num_partitions());
    for (int p = 0; p < state.num_partitions(); ++p) all[p] = p;
    iteration::DeltaState restored = CaseDeltaState(c);
    for (int p : all) restored.ClearPartition(p);
    FLINKLESS_RETURN_NOT_OK(
        policy_.OnFailure(Context(restored), &restored, all).status());
    for (int p : all) {
      EXPECT_TRUE(SameBits(PartsOf(restored, p), PartsOf(state, p)))
          << "partition " << p;
    }
    return Status::OK();
  }

 private:
  iteration::IterationContext Context(const iteration::DeltaState& state) {
    iteration::IterationContext ctx;
    ctx.num_partitions = state.num_partitions();
    ctx.storage = &storage_;
    ctx.job_id = "codec";
    return ctx;
  }
  static std::string Key(int p) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "codec/dckpt/%08d/%06d", 0, p);
    return buf;
  }

  runtime::StableStorage storage_{nullptr, nullptr};
  core::DeltaCheckpointPolicy policy_{1};
};

TEST(BlobCodecTest, EveryBlobKindRoundTripsAndRejectsCorruption) {
  DatasetBlob dataset;
  BulkSnapshot bulk;
  DeltaSnapshot delta;
  DeltaLink link;
  for (BlobKind* kind : std::vector<BlobKind*>{&dataset, &bulk, &delta,
                                                &link}) {
    int column_tags = 0;
    for (const CodecCase& c : CodecCases()) {
      SCOPED_TRACE(std::string(kind->name()) + " / " + c.name);
      std::vector<std::vector<uint8_t>> blobs = kind->Encode(c);
      ASSERT_FALSE(blobs.empty());
      for (size_t i = 0; i < blobs.size(); ++i) {
        SCOPED_TRACE("blob " + std::to_string(i));
        const std::vector<uint8_t>& blob = blobs[i];
        // Where each block's layout tag sits; the blocks end the blob.
        std::vector<size_t> tags;
        uint64_t at = kind->header_bytes();
        for (const std::vector<Record>& rows : kind->Blocks(c, i)) {
          tags.push_back(at);
          at += BlockSize(rows);
        }
        EXPECT_EQ(at, blob.size());
        Status ok = kind->Decode(c, i, blob);
        EXPECT_TRUE(ok.ok()) << ok.ToString();

        for (size_t cut = 0; cut < blob.size(); ++cut) {
          std::vector<uint8_t> prefix(blob.begin(), blob.begin() + cut);
          Status st = kind->Decode(c, i, prefix);
          EXPECT_TRUE(st.IsDataLoss()) << "prefix " << cut << ": " << st;
        }
        for (size_t tag : tags) {
          std::vector<uint8_t> bad_tag = blob;
          bad_tag[tag] = 0x7f;
          Status st = kind->Decode(c, i, bad_tag);
          EXPECT_TRUE(st.IsDataLoss()) << "layout tag at " << tag << ": "
                                       << st;
          if (blob[tag] != 1) continue;
          // A columns block: its first ValueType tag follows the layout
          // tag and the u32 column count.
          std::vector<uint8_t> bad_column = blob;
          bad_column[tag + 1 + 4] = 0x7f;
          st = kind->Decode(c, i, bad_column);
          EXPECT_TRUE(st.IsDataLoss()) << "column tag at " << tag << ": "
                                       << st;
          ++column_tags;
        }
        std::vector<uint8_t> trailing = blob;
        trailing.push_back(0);
        Status st = kind->Decode(c, i, trailing);
        EXPECT_TRUE(st.IsDataLoss()) << "trailing byte: " << st;
      }
    }
    EXPECT_GT(column_tags, 0) << kind->name() << " wrote no columns block";
  }
}

TEST(BlobCodecTest, EveryProperPrefixOfABlockIsDataLoss) {
  // Block by block, so a missing bound cannot hide behind the blob's
  // trailing-bytes check.
  for (const CodecCase& c : CodecCases()) {
    for (const std::vector<Record>& rows : c.partitions) {
      std::vector<uint8_t> block;
      EncodeBlock(rows, &block);
      for (size_t cut = 0; cut < block.size(); ++cut) {
        std::vector<uint8_t> prefix(block.begin(), block.begin() + cut);
        size_t offset = 0;
        auto back = DecodeBlock(prefix, &offset);
        ASSERT_FALSE(back.ok()) << c.name << ": prefix " << cut;
        EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
      }
    }
  }
}

TEST(BlobCodecTest, ColumnsLayoutIsSmallerThanRecords) {
  // A (int64, int64) row costs 16 bytes as columns, 22 as a record; an
  // empty partition is its layout tag and row count.
  std::vector<Record> rows;
  for (int64_t v = 0; v < 10; ++v) rows.push_back(MakeRecord(v, v * 10));
  EXPECT_EQ(BlockSize(rows), 1 + 4 + 2 + 8 + 16 * rows.size());
  std::vector<Record> mixed = rows;
  mixed.push_back(MakeRecord(int64_t{1}));
  EXPECT_EQ(BlockSize(mixed), 1 + 8 + 22 * rows.size() + 13);
  EXPECT_EQ(BlockSize({}), 9u);
}

// The 8-byte magic a dataset blob starts with, followed by `words` as
// little-endian u64s: the header of a hand-made (corrupt) blob.
std::vector<uint8_t> BlobHeader(std::initializer_list<uint64_t> words) {
  std::vector<uint8_t> blob = SerializePartitionedDataset(
      PartitionedDataset(1), SerializedDatasetBytes(PartitionedDataset(1)));
  blob.resize(8);
  for (uint64_t w : words) {
    for (int i = 0; i < 8; ++i) blob.push_back((w >> (8 * i)) & 0xff);
  }
  return blob;
}

void ExpectDataLoss(const std::vector<uint8_t>& blob) {
  auto back = DeserializePartitionedDataset(blob);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
}

TEST(DatasetSerdeTest, BadMagicIsDataLoss) {
  const PartitionedDataset ds(2);
  std::vector<uint8_t> blob =
      SerializePartitionedDataset(ds, SerializedDatasetBytes(ds));
  blob[0] ^= 0xff;
  ExpectDataLoss(blob);
  ExpectDataLoss({1, 2, 3});
}

TEST(DatasetSerdeTest, HugeRowCountIsDataLoss) {
  // One partition: a rows block, then a count no payload can hold.
  std::vector<uint8_t> blob = BlobHeader({1});
  blob.push_back(0);  // rows layout
  for (int i = 0; i < 8; ++i) blob.push_back(i == 7 ? 0x0f : 0xff);
  ExpectDataLoss(blob);
}

TEST(DatasetSerdeTest, PartitionCountBeyondIntIsDataLoss) {
  ExpectDataLoss(BlobHeader({0x80000000ULL}));
}

TEST(DatasetSerdeTest, PartitionCountBeyondPayloadIsDataLoss) {
  // A count that fits an int but not the bytes that follow it.
  ExpectDataLoss(BlobHeader({0x7fffffffULL, 0}));
}

TEST(DatasetTest, HashSpreadAcrossPartitions) {
  // With 1000 keys and 8 partitions, every partition should see records.
  auto ds = PartitionedDataset::HashPartitioned(VertexRecords(1000), {0}, 8);
  for (int p = 0; p < 8; ++p) {
    EXPECT_GT(ds.partition(p).size(), 60u);
    EXPECT_LT(ds.partition(p).size(), 190u);
  }
}

}  // namespace
}  // namespace flinkless::dataflow
