#include "iteration/state.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/logging.h"
#include "dataflow/block_codec.h"

namespace flinkless::iteration {

using dataflow::PartitionedDataset;
using dataflow::Record;

std::vector<uint8_t> BulkState::SerializePartition(int p) const {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "bulk-state partition " << p << " out of range");
  std::vector<uint8_t> out;
  dataflow::EncodeBlock(data_.partition(p), &out);
  return out;
}

Status BulkState::RestorePartition(int p, const std::vector<uint8_t>& blob) {
  if (p < 0 || p >= num_partitions()) {
    return Status::OutOfRange("bulk-state partition " + std::to_string(p));
  }
  size_t offset = 0;
  FLINKLESS_ASSIGN_OR_RETURN(std::vector<Record> records,
                             dataflow::DecodeBlock(blob, &offset));
  if (offset != blob.size()) {
    return Status::DataLoss("bulk-state snapshot: trailing bytes");
  }
  data_.partition(p) = std::move(records);
  return Status::OK();
}

void BulkState::ClearPartition(int p) {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "bulk-state partition " << p << " out of range");
  data_.ClearPartition(p);
}

namespace {

dataflow::KeyColumns IdentityColumns(size_t n) {
  dataflow::KeyColumns identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = static_cast<int>(i);
  return identity;
}

}  // namespace

SolutionSet::SolutionSet(int num_partitions, dataflow::KeyColumns key)
    : key_(std::move(key)),
      identity_key_(IdentityColumns(key_.size())),
      rows_(num_partitions),
      parts_(num_partitions) {
  for (int p = 0; p < num_partitions; ++p) {
    parts_[p].index.Build(rows_.partition(p), key_);
  }
}

SolutionSet::SolutionSet(const SolutionSet& other)
    : key_(other.key_),
      identity_key_(other.identity_key_),
      rows_(other.rows_),
      parts_(other.parts_) {
  // The copied indexes still borrow `other`'s rows: re-point them at ours,
  // adopting the cached row hashes.
  for (int p = 0; p < num_partitions(); ++p) {
    parts_[p].index.BuildWithHashes(rows_.partition(p), key_,
                                    other.parts_[p].index.row_hashes());
  }
}

SolutionSet& SolutionSet::operator=(const SolutionSet& other) {
  if (this != &other) *this = SolutionSet(other);
  return *this;
}

SolutionSet SolutionSet::FromRecords(std::vector<Record> records,
                                     const dataflow::KeyColumns& key,
                                     int num_partitions) {
  SolutionSet set(num_partitions, key);
  for (auto& r : records) {
    int p = PartitionedDataset::PartitionOf(r, key, num_partitions);
    set.Put(p, std::move(r));
  }
  for (int p = 0; p < num_partitions; ++p) set.Settle(p, 0);
  return set;
}

void SolutionSet::CheckPartition(int p) const {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "solution-set partition " << p << " out of range");
}

bool SolutionSet::Put(int p, Record record) {
  Partition& part = parts_[p];
  std::vector<Record>& rows = rows_.partition(p);
  const uint64_t hash = dataflow::HashKey(record, key_);
  const int32_t row = part.index.FindFirst(record, key_, hash);
  if (row >= 0) {
    rows[row] = std::move(record);
    part.versions[row] = ++part.clock;
    return true;
  }
  rows.push_back(std::move(record));
  part.versions.push_back(++part.clock);
  part.index.Append(hash);
  return false;
}

void SolutionSet::Settle(int p, size_t sorted_rows) {
  std::vector<Record>& rows = rows_.partition(p);
  const size_t n = rows.size();
  auto less = [&](size_t a, size_t b) {
    return dataflow::KeyLess(rows[a], rows[b], key_);
  };
  size_t i = sorted_rows == 0 ? 1 : sorted_rows;
  while (i < n && less(i - 1, i)) ++i;
  if (i >= n) return;  // every appended key landed above the previous ones

  // Sort the appended rows, merge them into the sorted prefix, and move
  // rows and versions into that order together.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin() + sorted_rows, order.end(), less);
  std::inplace_merge(order.begin(), order.begin() + sorted_rows, order.end(),
                     less);
  Partition& part = parts_[p];
  std::vector<Record> sorted;
  std::vector<uint64_t> versions;
  sorted.reserve(n);
  versions.reserve(n);
  for (size_t from : order) {
    sorted.push_back(std::move(rows[from]));
    versions.push_back(part.versions[from]);
  }
  rows.swap(sorted);
  part.versions.swap(versions);
  part.index.Build(rows, key_);
}

bool SolutionSet::Upsert(Record record) {
  int p = PartitionedDataset::PartitionOf(record, key_, num_partitions());
  return UpsertIntoPartition(p, std::move(record));
}

bool SolutionSet::UpsertIntoPartition(int p, Record record) {
  CheckPartition(p);
  FLINKLESS_CHECK(
      PartitionedDataset::PartitionOf(record, key_, num_partitions()) == p,
      "record " << dataflow::RecordToString(record)
                << " does not hash to partition " << p);
  const size_t before = rows_.partition(p).size();
  const bool replaced = Put(p, std::move(record));
  Settle(p, before);
  return replaced;
}

uint64_t SolutionSet::ApplyDelta(PartitionedDataset delta,
                                 runtime::ThreadPool* pool,
                                 runtime::Tracer* tracer) {
  const int targets = num_partitions();
  const int sources = delta.num_partitions();
  const uint64_t applied = delta.NumRecords();

  runtime::TraceSpan span(tracer, runtime::SpanKind::kSolutionUpdate,
                          "solution.update");
  span.AddArg("records", static_cast<int64_t>(applied));

  // Phase 1 (scatter): each source partition routes its records into its own
  // row of the outbox, so no two tasks write the same cell.
  std::vector<std::vector<std::vector<Record>>> outbox(
      sources, std::vector<std::vector<Record>>(targets));
  runtime::ParallelFor(pool, sources, [&](int s) {
    for (auto& r : delta.partition(s)) {
      int t = PartitionedDataset::PartitionOf(r, key_, targets);
      outbox[s][t].push_back(std::move(r));
    }
  });

  // Phase 2 (apply): each target partition upserts its shards in source
  // order against its private clock, then settles its key order once. Per
  // target this is the serial Upsert loop's order restricted to that
  // target, and the clocks are per-partition, so entries *and* their
  // versions are identical at any thread count.
  runtime::TracedParallelFor(
      pool, span, targets,
      [&](int t) {
        const size_t before = rows_.partition(t).size();
        for (int s = 0; s < sources; ++s) {
          for (auto& r : outbox[s][t]) Put(t, std::move(r));
        }
        Settle(t, before);
      },
      [&](int t) {
        int64_t shard = 0;
        for (int s = 0; s < sources; ++s) {
          shard += static_cast<int64_t>(outbox[s][t].size());
        }
        return shard;
      });
  return applied;
}

const Record* SolutionSet::Lookup(const Record& key_projection) const {
  // The projection hashes on the identity key columns (0..k-1) to the same
  // value its row hashes to on key_.
  const uint64_t h = dataflow::HashKey(key_projection, identity_key_);
  const int p = static_cast<int>(h % static_cast<uint64_t>(num_partitions()));
  const int32_t row =
      parts_[p].index.FindFirst(key_projection, identity_key_, h);
  return row < 0 ? nullptr : &rows_.partition(p)[row];
}

std::vector<Record> SolutionSet::PartitionRecords(int p) const {
  CheckPartition(p);
  return rows_.partition(p);
}

uint64_t SolutionSet::PartitionSize(int p) const {
  CheckPartition(p);
  return rows_.partition(p).size();
}

uint64_t SolutionSet::version(int p) const {
  CheckPartition(p);
  return parts_[p].clock;
}

std::vector<uint64_t> SolutionSet::VersionVector() const {
  std::vector<uint64_t> versions;
  versions.reserve(parts_.size());
  for (const auto& part : parts_) versions.push_back(part.clock);
  return versions;
}

std::vector<Record> SolutionSet::EntriesSince(int p,
                                              uint64_t since_version) const {
  CheckPartition(p);
  const std::vector<Record>& rows = rows_.partition(p);
  const std::vector<uint64_t>& versions = parts_[p].versions;
  std::vector<Record> out;
  for (size_t i = 0; i < versions.size(); ++i) {
    if (versions[i] > since_version) out.push_back(rows[i]);
  }
  return out;
}

uint64_t SolutionSet::NumEntries() const { return rows_.NumRecords(); }

void SolutionSet::ClearPartition(int p) {
  CheckPartition(p);
  rows_.ClearPartition(p);
  parts_[p].versions.clear();
  parts_[p].clock = 0;
  parts_[p].index.Build(rows_.partition(p), key_);
}

void SolutionSet::FastForwardClock(int p, uint64_t to) {
  CheckPartition(p);
  FLINKLESS_CHECK(to >= parts_[p].clock,
                  "clock of partition " << p << " cannot move backwards ("
                                        << parts_[p].clock << " -> " << to
                                        << ")");
  parts_[p].clock = to;
}

Status SolutionSet::ReplacePartition(int p, std::vector<Record> records) {
  if (p < 0 || p >= num_partitions()) {
    return Status::OutOfRange("solution-set partition " + std::to_string(p));
  }
  // Validate routing before mutating anything, so a bad batch cannot leave
  // the partition half-replaced.
  for (const Record& r : records) {
    int target = PartitionedDataset::PartitionOf(r, key_, num_partitions());
    if (target != p) {
      return Status::InvalidArgument(
          "record " + dataflow::RecordToString(r) + " hashes to partition " +
          std::to_string(target) + ", not " + std::to_string(p));
    }
  }
  // Restart the partition's history: restored entries get versions 1..k, so
  // EntriesSince(p, 0) still returns all of them while EntriesSince against
  // a resynced watermark (= the new clock) returns none. A restore never
  // marks entries freshly modified.
  ClearPartition(p);
  for (Record& r : records) Put(p, std::move(r));
  Settle(p, 0);
  return Status::OK();
}

std::vector<uint8_t> DeltaState::SerializePartition(int p) const {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "delta-state partition " << p << " out of range");
  std::vector<uint8_t> out;
  dataflow::EncodeBlock(solution_.rows().partition(p), &out);
  dataflow::EncodeBlock(workset_.partition(p), &out);
  return out;
}

Status DeltaState::RestorePartition(int p, const std::vector<uint8_t>& blob) {
  if (p < 0 || p >= num_partitions()) {
    return Status::OutOfRange("delta-state partition " + std::to_string(p));
  }
  size_t offset = 0;
  FLINKLESS_ASSIGN_OR_RETURN(std::vector<Record> solution_records,
                             dataflow::DecodeBlock(blob, &offset));
  FLINKLESS_ASSIGN_OR_RETURN(std::vector<Record> workset_records,
                             dataflow::DecodeBlock(blob, &offset));
  if (offset != blob.size()) {
    return Status::DataLoss("delta-state snapshot: trailing bytes");
  }
  FLINKLESS_RETURN_NOT_OK(
      solution_.ReplacePartition(p, std::move(solution_records)));
  workset_.partition(p) = std::move(workset_records);
  return Status::OK();
}

void DeltaState::ClearPartition(int p) {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "delta-state partition " << p << " out of range");
  solution_.ClearPartition(p);
  workset_.ClearPartition(p);
}

}  // namespace flinkless::iteration
