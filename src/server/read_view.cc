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
  for (Partition& part : parts_) part.index.Build(part.rows, key_);
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
      Fill(p, solution.rows().partition(p), solution.version(p));
      continue;
    }
    // Failure-free incremental refresh: only the entries written after the
    // watermark on this partition's private clock.
    for (Record& record : solution.EntriesSince(p, part.watermark)) {
      Put(&part, std::move(record));
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
    if (ActiveOnPublish(parts_[p])) Fill(p, data.partition(p), 0);
  }
  epoch_ = epoch;
  dirty_ = false;
  return true;
}

ReadView::LookupResult ReadView::Lookup(const Record& key_projection) {
  LookupResult result;
  // The projection hashes on the identity columns to the value its row
  // hashes to on key_.
  const uint64_t hash = dataflow::HashKey(key_projection, identity_key_);
  result.partition =
      static_cast<int>(hash % static_cast<uint64_t>(num_partitions()));
  result.epoch = epoch_;
  Partition& part = parts_[result.partition];
  if (!has_published() || !part.materialized) {
    part.wanted = true;
    result.hit = Hit::kPending;
    return result;
  }
  const int32_t row = part.index.FindFirst(key_projection, identity_key_, hash);
  if (row < 0) {
    result.hit = Hit::kMissing;
  } else {
    result.hit = Hit::kFound;
    result.record = &part.rows[row];
  }
  return result;
}

void ReadView::MaterializePartitionFromSolution(int p, const SolutionSet& s) {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "materialize of partition " << p << " out of range");
  Fill(p, s.rows().partition(p), s.version(p));
}

void ReadView::MaterializePartitionFromBulk(int p,
                                            const PartitionedDataset& d) {
  FLINKLESS_CHECK(p >= 0 && p < num_partitions(),
                  "materialize of partition " << p << " out of range");
  Fill(p, d.partition(p), 0);
}

void ReadView::Fill(int p, const std::vector<Record>& records,
                    uint64_t watermark) {
  Partition& part = parts_[p];
  part.rows.clear();
  part.index.Build(part.rows, key_);
  for (const Record& record : records) Put(&part, record);
  part.watermark = watermark;
  part.materialized = true;
  part.wanted = false;
}

void ReadView::Put(Partition* part, Record record) {
  const uint64_t hash = dataflow::HashKey(record, key_);
  const int32_t row = part->index.FindFirst(record, key_, hash);
  if (row >= 0) {
    part->rows[row] = std::move(record);
    return;
  }
  part->rows.push_back(std::move(record));
  part->index.Append(hash);
}

}  // namespace flinkless::server
