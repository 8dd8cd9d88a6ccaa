// PartitionedDataset: a dataset split across the cluster's partitions.
//
// This is the unit of everything the paper talks about: operators run per
// partition, shuffles move records between partitions, failures destroy
// partitions, checkpoints serialize partitions, and compensation functions
// rebuild partitions.

#ifndef FLINKLESS_DATAFLOW_DATASET_H_
#define FLINKLESS_DATAFLOW_DATASET_H_

#include <cstdint>
#include <vector>

#include "dataflow/record.h"

namespace flinkless::dataflow {

/// Records hash-distributed over a fixed number of partitions.
class PartitionedDataset {
 public:
  /// An empty dataset with `num_partitions` empty partitions.
  explicit PartitionedDataset(int num_partitions = 0)
      : partitions_(num_partitions) {}

  /// Partition index a record belongs to under hash partitioning on `key`.
  static int PartitionOf(const Record& record, const KeyColumns& key,
                         int num_partitions);

  /// Builds a dataset by hash-partitioning `records` on `key`.
  static PartitionedDataset HashPartitioned(std::vector<Record> records,
                                            const KeyColumns& key,
                                            int num_partitions);

  /// Builds a dataset by dealing records round-robin (used for unkeyed
  /// sources).
  static PartitionedDataset RoundRobin(std::vector<Record> records,
                                       int num_partitions);

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

  std::vector<Record>& partition(int p) { return partitions_[p]; }
  const std::vector<Record>& partition(int p) const { return partitions_[p]; }

  /// Total records across partitions.
  uint64_t NumRecords() const;

  /// All records in partition order (cheap; order is deterministic but
  /// partition-dependent).
  std::vector<Record> Collect() const;

  /// All records sorted by RecordLess (for order-insensitive comparisons in
  /// tests).
  std::vector<Record> CollectSorted() const;

  /// Drops all records of partition `p` — what a task failure does to the
  /// state this dataset holds.
  void ClearPartition(int p) { partitions_[p].clear(); }

  /// True when every record is in the partition HashPartitioned(key) would
  /// put it in; used to validate co-partitioning preconditions.
  bool IsPartitionedBy(const KeyColumns& key) const;

 private:
  std::vector<std::vector<Record>> partitions_;
};

/// Frames a whole dataset into one blob: the format of cache spills and
/// message-log channels (DESIGN.md §11). Magic "FLKDST2\0", the u64
/// partition count, then one block per partition (block_codec.h). `bytes`
/// is SerializedDatasetBytes(ds), which a spilling segment already holds
/// for the memory budget; the blob is allocated once at that size instead
/// of after one more scan of every record.
std::vector<uint8_t> SerializePartitionedDataset(const PartitionedDataset& ds,
                                                 uint64_t bytes);

/// Inverse of SerializePartitionedDataset; fails with DataLoss on a bad
/// magic or partition count, a bad block, or trailing bytes.
Result<PartitionedDataset> DeserializePartitionedDataset(
    const std::vector<uint8_t>& bytes);

/// Exact byte size SerializePartitionedDataset(ds) would produce — the
/// residency measure the memory manager budgets against.
uint64_t SerializedDatasetBytes(const PartitionedDataset& ds);

}  // namespace flinkless::dataflow

#endif  // FLINKLESS_DATAFLOW_DATASET_H_
