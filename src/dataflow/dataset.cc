#include "dataflow/dataset.h"

#include <algorithm>
#include <limits>

#include "common/byte_codec.h"
#include "common/logging.h"
#include "dataflow/block_codec.h"

namespace flinkless::dataflow {

int PartitionedDataset::PartitionOf(const Record& record,
                                    const KeyColumns& key,
                                    int num_partitions) {
  FLINKLESS_CHECK(num_partitions > 0, "PartitionOf needs >= 1 partition");
  return static_cast<int>(HashKey(record, key) %
                          static_cast<uint64_t>(num_partitions));
}

PartitionedDataset PartitionedDataset::HashPartitioned(
    std::vector<Record> records, const KeyColumns& key, int num_partitions) {
  PartitionedDataset ds(num_partitions);
  for (auto& r : records) {
    int p = PartitionOf(r, key, num_partitions);
    ds.partitions_[p].push_back(std::move(r));
  }
  return ds;
}

PartitionedDataset PartitionedDataset::RoundRobin(std::vector<Record> records,
                                                  int num_partitions) {
  PartitionedDataset ds(num_partitions);
  for (size_t i = 0; i < records.size(); ++i) {
    ds.partitions_[i % num_partitions].push_back(std::move(records[i]));
  }
  return ds;
}

uint64_t PartitionedDataset::NumRecords() const {
  uint64_t total = 0;
  for (const auto& p : partitions_) total += p.size();
  return total;
}

std::vector<Record> PartitionedDataset::Collect() const {
  std::vector<Record> out;
  out.reserve(NumRecords());
  for (const auto& p : partitions_) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<Record> PartitionedDataset::CollectSorted() const {
  std::vector<Record> out = Collect();
  std::sort(out.begin(), out.end(), RecordLess);
  return out;
}

bool PartitionedDataset::IsPartitionedBy(const KeyColumns& key) const {
  for (int p = 0; p < num_partitions(); ++p) {
    for (const Record& r : partitions_[p]) {
      if (PartitionOf(r, key, num_partitions()) != p) return false;
    }
  }
  return true;
}

namespace {

/// Dataset blob magic ("FLKDST2\0" little-endian): it tells a dataset blob
/// from every other blob family in StableStorage.
constexpr uint64_t kDatasetBlobMagic = 0x00325453444b4c46ULL;

}  // namespace

std::vector<uint8_t> SerializePartitionedDataset(const PartitionedDataset& ds,
                                                 uint64_t bytes) {
  std::vector<uint8_t> out;
  out.reserve(bytes);
  PutU64(kDatasetBlobMagic, &out);
  PutU64(static_cast<uint64_t>(ds.num_partitions()), &out);
  for (int p = 0; p < ds.num_partitions(); ++p) {
    EncodeBlock(ds.partition(p), &out);
  }
  return out;
}

Result<PartitionedDataset> DeserializePartitionedDataset(
    const std::vector<uint8_t>& bytes) {
  size_t offset = 0;
  uint64_t magic = 0;
  if (!GetU64(bytes, &offset, &magic) || magic != kDatasetBlobMagic) {
    return Status::DataLoss("dataset blob: bad magic");
  }
  uint64_t num_partitions = 0;
  if (!GetU64(bytes, &offset, &num_partitions) ||
      num_partitions >
          static_cast<uint64_t>(std::numeric_limits<int>::max()) ||
      num_partitions > (bytes.size() - offset) / kMinBlockBytes) {
    return Status::DataLoss("dataset blob: bad partition count");
  }
  PartitionedDataset ds(static_cast<int>(num_partitions));
  for (int p = 0; p < ds.num_partitions(); ++p) {
    FLINKLESS_ASSIGN_OR_RETURN(ds.partition(p), DecodeBlock(bytes, &offset));
  }
  if (offset != bytes.size()) {
    return Status::DataLoss("dataset blob: trailing garbage");
  }
  return ds;
}

uint64_t SerializedDatasetBytes(const PartitionedDataset& ds) {
  uint64_t size = 16;  // magic, partition count
  for (int p = 0; p < ds.num_partitions(); ++p) {
    size += BlockSize(ds.partition(p));
  }
  return size;
}

}  // namespace flinkless::dataflow
