#include "iteration/state.h"

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
      parts_(num_partitions) {}

SolutionSet SolutionSet::FromRecords(std::vector<Record> records,
                                     const dataflow::KeyColumns& key,
                                     int num_partitions) {
  SolutionSet set(num_partitions, key);
  for (auto& r : records) set.Upsert(std::move(r));
  return set;
}

bool SolutionSet::Upsert(Record record) {
  int p = PartitionedDataset::PartitionOf(record, key_, num_partitions());
  return UpsertIntoPartition(p, std::move(record));
}

bool SolutionSet::UpsertIntoPartition(int p, Record record) {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "solution-set partition " << p << " out of range");
  FLINKLESS_CHECK(
      PartitionedDataset::PartitionOf(record, key_, num_partitions()) == p,
      "record " << dataflow::RecordToString(record)
                << " does not hash to partition " << p);
  Partition& part = parts_[p];
  Record k = dataflow::ExtractKey(record, key_);
  Entry entry{std::move(record), ++part.clock};
  auto [it, inserted] =
      part.entries.insert_or_assign(std::move(k), std::move(entry));
  (void)it;
  return !inserted;
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
  // order against its private clock. Per target this is the serial Upsert
  // loop's order restricted to that target, and the clocks are per-partition,
  // so entries *and* their versions are identical at any thread count.
  runtime::TracedParallelFor(
      pool, span, targets,
      [&](int t) {
        for (int s = 0; s < sources; ++s) {
          for (auto& r : outbox[s][t]) UpsertIntoPartition(t, std::move(r));
        }
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
  // The projection is hashed with the identity key columns (0..k-1),
  // precomputed at construction — this sits in the delta-join hot loop.
  int p = PartitionedDataset::PartitionOf(key_projection, identity_key_,
                                          num_partitions());
  const PartitionMap& entries = parts_[p].entries;
  auto it = entries.find(key_projection);
  return it == entries.end() ? nullptr : &it->second.record;
}

std::vector<Record> SolutionSet::PartitionRecords(int p) const {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "solution-set partition " << p << " out of range");
  std::vector<Record> out;
  out.reserve(parts_[p].entries.size());
  for (const auto& [k, entry] : parts_[p].entries) out.push_back(entry.record);
  return out;
}

uint64_t SolutionSet::PartitionSize(int p) const {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "solution-set partition " << p << " out of range");
  return parts_[p].entries.size();
}

uint64_t SolutionSet::version(int p) const {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "solution-set partition " << p << " out of range");
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
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "solution-set partition " << p << " out of range");
  std::vector<Record> out;
  for (const auto& [k, entry] : parts_[p].entries) {
    if (entry.version > since_version) out.push_back(entry.record);
  }
  return out;
}

uint64_t SolutionSet::NumEntries() const {
  uint64_t total = 0;
  for (const auto& part : parts_) total += part.entries.size();
  return total;
}

PartitionedDataset SolutionSet::ToDataset(runtime::ThreadPool* pool) const {
  PartitionedDataset ds(num_partitions());
  runtime::ParallelFor(pool, num_partitions(),
                       [&](int p) { ds.partition(p) = PartitionRecords(p); });
  return ds;
}

void SolutionSet::ClearPartition(int p) {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "solution-set partition " << p << " out of range");
  parts_[p].entries.clear();
  parts_[p].clock = 0;
}

void SolutionSet::FastForwardClock(int p, uint64_t to) {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "solution-set partition " << p << " out of range");
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
  Partition& part = parts_[p];
  part.entries.clear();
  part.clock = 0;
  for (auto& r : records) {
    Record k = dataflow::ExtractKey(r, key_);
    Entry entry{std::move(r), ++part.clock};
    part.entries.insert_or_assign(std::move(k), std::move(entry));
  }
  return Status::OK();
}

std::vector<uint8_t> DeltaState::SerializePartition(int p) const {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "delta-state partition " << p << " out of range");
  std::vector<uint8_t> out;
  dataflow::EncodeBlock(solution_.PartitionRecords(p), &out);
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
