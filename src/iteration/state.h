// Iteration state containers.
//
// The intermediate state of an iterative job is partitioned across the
// cluster; a failure destroys some partitions of it, a checkpoint serializes
// all of it, a compensation function rebuilds the lost pieces. IterationState
// is the partition-structured interface those mechanisms share; BulkState and
// DeltaState are the two shapes Flink-style iterations use (paper §2.1).

#ifndef FLINKLESS_ITERATION_STATE_H_
#define FLINKLESS_ITERATION_STATE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/columnar.h"
#include "dataflow/dataset.h"
#include "dataflow/record.h"
#include "runtime/thread_pool.h"
#include "runtime/tracing.h"

namespace flinkless::iteration {

/// Which iteration mode a state belongs to.
enum class StateKind { kBulk, kDelta };

/// Partition-structured iteration state: the contract between the iteration
/// drivers and the fault-tolerance policies.
class IterationState {
 public:
  virtual ~IterationState() = default;

  virtual StateKind kind() const = 0;
  virtual int num_partitions() const = 0;

  /// Serialized snapshot of one partition (checkpoint granularity), made of
  /// partition blocks (dataflow/block_codec.h).
  virtual std::vector<uint8_t> SerializePartition(int p) const = 0;

  /// Replaces partition `p` from a snapshot produced by SerializePartition.
  virtual Status RestorePartition(int p, const std::vector<uint8_t>& blob) = 0;

  /// Destroys partition `p` — the effect of the task holding it crashing.
  virtual void ClearPartition(int p) = 0;
};

/// Bulk-iteration state: the whole intermediate dataset, recomputed each
/// superstep (e.g. the PageRank rank vector). A partition's snapshot is one
/// block.
///
/// Bounds contract (shared by every IterationState implementation): the
/// Status-returning mutators reject an out-of-range partition with
/// OutOfRange; everything else treats it as a programming error and dies
/// via FLINKLESS_CHECK.
class BulkState final : public IterationState {
 public:
  BulkState() = default;
  explicit BulkState(dataflow::PartitionedDataset data)
      : data_(std::move(data)) {}

  StateKind kind() const override { return StateKind::kBulk; }
  int num_partitions() const override { return data_.num_partitions(); }
  std::vector<uint8_t> SerializePartition(int p) const override;
  Status RestorePartition(int p, const std::vector<uint8_t>& blob) override;
  void ClearPartition(int p) override;

  dataflow::PartitionedDataset& data() { return data_; }
  const dataflow::PartitionedDataset& data() const { return data_; }

 private:
  dataflow::PartitionedDataset data_;
};

/// The indexed solution set of a delta iteration, co-partitioned by hash of
/// the key. Per partition it is flat: the rows (one per key, in key order)
/// as one partition of a dataset the set owns, a parallel array of entry
/// versions, the partition's modification clock and a FlatKeyIndex over
/// the rows on the key. An upsert of a present key overwrites its row and
/// version in place; a new key is appended. A call that appended a key
/// below the partition's largest re-sorts that partition once before it
/// returns (versions move with their rows), so every reader sees key
/// order.
class SolutionSet {
 public:
  SolutionSet() = default;
  SolutionSet(int num_partitions, dataflow::KeyColumns key);

  /// A copy indexes its own rows. A move keeps the indexes: they borrow
  /// the partition vectors, which live in the moved heap buffer.
  SolutionSet(const SolutionSet& other);
  SolutionSet& operator=(const SolutionSet& other);
  SolutionSet(SolutionSet&&) noexcept = default;
  SolutionSet& operator=(SolutionSet&&) noexcept = default;

  /// Builds a solution set from initial records (a repeated key keeps the
  /// last record).
  static SolutionSet FromRecords(std::vector<dataflow::Record> records,
                                 const dataflow::KeyColumns& key,
                                 int num_partitions);

  int num_partitions() const { return static_cast<int>(parts_.size()); }
  const dataflow::KeyColumns& key() const { return key_; }

  /// The entries as a dataset: partition p holds partition p's rows in key
  /// order. The delta driver binds it into the step plan in place. Valid
  /// until the next mutation.
  const dataflow::PartitionedDataset& rows() const { return rows_; }

  /// Inserts or replaces the entry with `record`'s key. Returns true when an
  /// existing entry was replaced. Bumps only the owning partition's clock.
  bool Upsert(dataflow::Record record);

  /// Upsert for a record already known to hash to partition `p` (routing is
  /// a programming error, checked). Touches only that partition's rows,
  /// index and clock, so concurrent calls for *distinct* partitions are
  /// safe — the primitive behind ApplyDelta's partition-parallel phase.
  bool UpsertIntoPartition(int p, dataflow::Record record);

  /// Applies a superstep's delta records: scatter by key hash into
  /// per-partition shards (parallel over source partitions), then every
  /// target partition upserts its own shard against its own version clock
  /// (parallel over targets, traced as a "solution.update" span when a
  /// tracer is given). Application order within a partition is (source
  /// partition, record position) — exactly the serial loop's order — so the
  /// result, including entry versions, is byte-identical at any thread
  /// count. Returns the number of records applied.
  uint64_t ApplyDelta(dataflow::PartitionedDataset delta,
                      runtime::ThreadPool* pool = nullptr,
                      runtime::Tracer* tracer = nullptr);

  /// The record whose key equals `key_projection` (the key columns' values,
  /// in key order), or nullptr. The pointer is into the partition's rows:
  /// it is valid only until the next mutation of the set (any upsert,
  /// ApplyDelta, ReplacePartition or ClearPartition), so copy the record
  /// before mutating.
  const dataflow::Record* Lookup(const dataflow::Record& key_projection) const;

  /// Entries of one partition in key order.
  std::vector<dataflow::Record> PartitionRecords(int p) const;

  /// Entry count of one partition (no materialization).
  uint64_t PartitionSize(int p) const;

  /// Partition `p`'s modification clock: bumped by every Upsert into it
  /// (and by ReplacePartition per record). Lets incremental checkpointing
  /// ask "what changed in this partition since version v". Clocks of
  /// different partitions are independent — restoring or compensating one
  /// partition never advances another's clock.
  uint64_t version(int p) const;

  /// All partition clocks, indexed by partition.
  std::vector<uint64_t> VersionVector() const;

  /// Entries of partition `p` modified strictly after `since_version` (on
  /// that partition's clock), in key order: one sweep of the flat version
  /// array. EntriesSince(p, 0) returns the whole partition: live entries
  /// always carry versions >= 1.
  std::vector<dataflow::Record> EntriesSince(int p,
                                             uint64_t since_version) const;

  /// Total entries across partitions.
  uint64_t NumEntries() const;

  /// Drops partition `p`'s entries and resets its clock — a destroyed
  /// partition restarts its modification history.
  void ClearPartition(int p);

  /// Fast-forwards partition `p`'s clock to `to` (>= the current clock,
  /// checked) without touching entries. Used after a checkpoint-chain
  /// replay to realign the clock with the value recorded at checkpoint
  /// time, so deltas written after a recovery chain contiguously with the
  /// pre-failure links.
  void FastForwardClock(int p, uint64_t to);

  /// Replaces the contents of partition `p` with `records` (in any order; a
  /// repeated key keeps the last record and its version). Records whose
  /// hash does not map to `p` are a programming error. The partition's
  /// clock restarts: the restored entries get versions 1..k (so
  /// EntriesSince(p, 0) still returns all of them) and are *older* than any
  /// subsequent upsert — a restore or compensation never marks entries as
  /// freshly modified. Version consumers must resync their per-partition
  /// watermark to version(p) afterwards.
  Status ReplacePartition(int p, std::vector<dataflow::Record> records);

 private:
  /// One partition's bookkeeping beside its rows (rows_.partition(p)). No
  /// state is shared between partitions, which is what makes ApplyDelta's
  /// per-partition upsert phase safe to run on the pool.
  struct Partition {
    /// Per row: the clock value when the row was last written (>= 1).
    std::vector<uint64_t> versions;
    uint64_t clock = 0;
    /// Over rows_.partition(p) on key_.
    dataflow::FlatKeyIndex index;
  };

  void CheckPartition(int p) const;
  /// Upserts `record` into partition p, which it hashes to. Returns true
  /// when an existing entry was replaced.
  bool Put(int p, dataflow::Record record);
  /// Ends a batch of Puts into partition p that began with `sorted_rows`
  /// rows (which overwrites keep sorted): if a row was appended below the
  /// largest key, sorts the appended rows, merges them with the earlier
  /// ones and rebuilds the index.
  void Settle(int p, size_t sorted_rows);

  dataflow::KeyColumns key_;
  /// Identity columns 0..k-1 used to hash key projections in Lookup.
  dataflow::KeyColumns identity_key_;
  dataflow::PartitionedDataset rows_;
  std::vector<Partition> parts_;
};

/// Delta-iteration state: solution set + working set (paper §2.1). A failure
/// loses both pieces of the affected partitions. A partition's snapshot is
/// the solution block (the partition's rows, in key order), then the
/// workset block.
class DeltaState final : public IterationState {
 public:
  DeltaState() = default;
  DeltaState(SolutionSet solution, dataflow::PartitionedDataset workset)
      : solution_(std::move(solution)), workset_(std::move(workset)) {}

  StateKind kind() const override { return StateKind::kDelta; }
  int num_partitions() const override { return solution_.num_partitions(); }
  std::vector<uint8_t> SerializePartition(int p) const override;
  Status RestorePartition(int p, const std::vector<uint8_t>& blob) override;
  void ClearPartition(int p) override;

  SolutionSet& solution() { return solution_; }
  const SolutionSet& solution() const { return solution_; }
  dataflow::PartitionedDataset& workset() { return workset_; }
  const dataflow::PartitionedDataset& workset() const { return workset_; }

 private:
  SolutionSet solution_;
  dataflow::PartitionedDataset workset_;
};

}  // namespace flinkless::iteration

#endif  // FLINKLESS_ITERATION_STATE_H_
