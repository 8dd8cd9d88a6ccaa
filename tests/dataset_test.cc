// Unit tests for PartitionedDataset.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "dataflow/dataset.h"

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

TEST(DatasetTest, SerializedSizeSumsPartitions) {
  auto ds = PartitionedDataset::HashPartitioned(VertexRecords(16), {0}, 4);
  uint64_t total = 0;
  for (int p = 0; p < 4; ++p) total += SerializedSize(ds.partition(p));
  EXPECT_EQ(ds.SerializedSizeBytes(), total);
  EXPECT_GT(total, 0u);
}

TEST(DatasetSerdeTest, RoundTripPreservesEveryPartition) {
  auto ds = PartitionedDataset::HashPartitioned(VertexRecords(200), {0}, 4);
  std::vector<uint8_t> blob = SerializePartitionedDataset(ds);
  EXPECT_EQ(blob.size(), SerializedDatasetBytes(ds));

  auto back = DeserializePartitionedDataset(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_partitions(), ds.num_partitions());
  for (int p = 0; p < ds.num_partitions(); ++p) {
    EXPECT_EQ(back->partition(p), ds.partition(p)) << "partition " << p;
  }
}

TEST(DatasetSerdeTest, RoundTripKeepsEmptyPartitions) {
  PartitionedDataset ds(3);
  ds.partition(1).push_back(MakeRecord(int64_t{7}, 3.5));
  auto back = DeserializePartitionedDataset(SerializePartitionedDataset(ds));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_partitions(), 3);
  EXPECT_TRUE(back->partition(0).empty());
  EXPECT_EQ(back->partition(1), ds.partition(1));
  EXPECT_TRUE(back->partition(2).empty());
}

TEST(DatasetSerdeTest, RejectsCorruptBlobs) {
  auto ds = PartitionedDataset::HashPartitioned(VertexRecords(20), {0}, 2);
  std::vector<uint8_t> blob = SerializePartitionedDataset(ds);

  // Bad magic.
  std::vector<uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(DeserializePartitionedDataset(bad_magic).ok());

  // Truncated.
  std::vector<uint8_t> truncated(blob.begin(), blob.end() - 3);
  EXPECT_FALSE(DeserializePartitionedDataset(truncated).ok());

  // Trailing garbage.
  std::vector<uint8_t> trailing = blob;
  trailing.push_back(0);
  EXPECT_FALSE(DeserializePartitionedDataset(trailing).ok());

  // Too short for even the header.
  EXPECT_FALSE(DeserializePartitionedDataset({1, 2, 3}).ok());
}

// The 8-byte magic a blob of `ds` starts with, followed by `words` as
// little-endian u64s: the header of a hand-made (corrupt) blob.
std::vector<uint8_t> BlobHeader(const PartitionedDataset& ds,
                                std::initializer_list<uint64_t> words) {
  std::vector<uint8_t> blob = SerializePartitionedDataset(ds);
  blob.resize(8);
  for (uint64_t w : words) {
    for (int i = 0; i < 8; ++i) blob.push_back((w >> (8 * i)) & 0xff);
  }
  return blob;
}

// Arity-0 records have no column schema, so they take the v1 (row) format.
PartitionedDataset V1Dataset() {
  PartitionedDataset ds(1);
  ds.partition(0).push_back(Record());
  return ds;
}

PartitionedDataset V2Dataset() {
  return PartitionedDataset::HashPartitioned(VertexRecords(4), {0}, 1);
}

void ExpectDataLoss(const std::vector<uint8_t>& blob) {
  auto back = DeserializePartitionedDataset(blob);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
}

TEST(DatasetSerdeTest, V1HugePartitionRecordCountIsDataLoss) {
  ExpectDataLoss(BlobHeader(V1Dataset(), {1, 0x0fffffffffffffffULL}));
}

TEST(DatasetSerdeTest, PartitionCountBeyondIntIsDataLoss) {
  for (const PartitionedDataset& ds : {V1Dataset(), V2Dataset()}) {
    ExpectDataLoss(BlobHeader(ds, {0x80000000ULL}));
  }
}

TEST(DatasetSerdeTest, PartitionCountBeyondPayloadIsDataLoss) {
  // A count that fits an int but not the bytes that follow it.
  for (const PartitionedDataset& ds : {V1Dataset(), V2Dataset()}) {
    ExpectDataLoss(BlobHeader(ds, {0x7fffffffULL, 0}));
  }
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
