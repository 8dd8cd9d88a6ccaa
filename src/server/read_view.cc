#include "server/read_view.h"

#include <utility>

#include "common/logging.h"

namespace flinkless::server {

using dataflow::PartitionedDataset;
using dataflow::Record;
using iteration::SolutionSet;

ReadView::ReadView(dataflow::KeyColumns key, int num_partitions)
    : key_(std::move(key)), parts_(num_partitions) {
  FLINKLESS_CHECK(num_partitions > 0, "read view needs at least one partition");
  identity_key_.resize(key_.size());
  for (size_t i = 0; i < key_.size(); ++i) {
    identity_key_[i] = static_cast<int>(i);
  }
}

bool ReadView::Publish(const iteration::IterationState& state, int epoch) {
  if (state.kind() == iteration::StateKind::kDelta) {
    const auto& delta = static_cast<const iteration::DeltaState&>(state);
    return PublishDelta(delta.solution(), epoch);
  }
  const auto& bulk = static_cast<const iteration::BulkState&>(state);
  return PublishBulk(bulk.data(), epoch);
}

bool ReadView::PublishDelta(const SolutionSet& solution, int epoch) {
  FLINKLESS_CHECK(solution.num_partitions() == num_partitions(),
                  "publish with mismatched partition count");
  if (epoch < epoch_) return false;
  for (int p = 0; p < num_partitions(); ++p) {
    Partition& part = parts_[p];
    if (!ActiveOnPublish(part)) continue;
    if (dirty_ || !part.materialized) {
      FillFromSolution(p, solution);
      continue;
    }
    // Failure-free incremental refresh: only the entries written after the
    // watermark on this partition's private clock.
    for (Record& record : solution.EntriesSince(p, part.watermark)) {
      Record projection = dataflow::ExtractKey(record, key_);
      part.entries.insert_or_assign(std::move(projection), std::move(record));
    }
    part.watermark = solution.version(p);
  }
  epoch_ = epoch;
  dirty_ = false;
  return true;
}

bool ReadView::PublishBulk(const PartitionedDataset& data, int epoch) {
  FLINKLESS_CHECK(data.num_partitions() == num_partitions(),
                  "publish with mismatched partition count");
  if (epoch < epoch_) return false;
  for (int p = 0; p < num_partitions(); ++p) {
    if (ActiveOnPublish(parts_[p])) FillFromBulk(p, data);
  }
  epoch_ = epoch;
  dirty_ = false;
  return true;
}

ReadView::LookupResult ReadView::Lookup(const Record& key_projection) {
  LookupResult result;
  result.partition = PartitionedDataset::PartitionOf(
      key_projection, identity_key_, num_partitions());
  result.epoch = epoch_;
  Partition& part = parts_[result.partition];
  if (!has_published() || !part.materialized) {
    part.wanted = true;
    result.hit = Hit::kPending;
    return result;
  }
  auto it = part.entries.find(key_projection);
  if (it == part.entries.end()) {
    result.hit = Hit::kMissing;
  } else {
    result.hit = Hit::kFound;
    result.record = &it->second;
  }
  return result;
}

void ReadView::MaterializePartitionFromSolution(int p, const SolutionSet& s) {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "materialize of partition " << p << " out of range");
  FillFromSolution(p, s);
}

void ReadView::MaterializePartitionFromBulk(int p,
                                            const PartitionedDataset& d) {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "materialize of partition " << p << " out of range");
  FillFromBulk(p, d);
}

void ReadView::FillFromSolution(int p, const SolutionSet& s) {
  Partition& part = parts_[p];
  part.entries.clear();
  for (Record& record : s.PartitionRecords(p)) {
    Record projection = dataflow::ExtractKey(record, key_);
    part.entries.emplace(std::move(projection), std::move(record));
  }
  part.watermark = s.version(p);
  part.materialized = true;
  part.wanted = false;
}

void ReadView::FillFromBulk(int p, const PartitionedDataset& d) {
  Partition& part = parts_[p];
  part.entries.clear();
  for (const Record& record : d.partition(p)) {
    Record projection = dataflow::ExtractKey(record, key_);
    part.entries.insert_or_assign(std::move(projection), record);
  }
  part.watermark = 0;
  part.materialized = true;
  part.wanted = false;
}

}  // namespace flinkless::server
