#include "dataflow/exec_cache.h"

#include <cstdio>

#include "common/logging.h"
#include "runtime/stable_storage.h"

namespace flinkless::dataflow {

/// One cache entry as the MemoryManager sees it. Spilling serializes only
/// the dataset — flat_index is derived from the dataset's records, so it is
/// dropped with it and rebuilt (deterministically, from entry.index_key)
/// when the bytes come back.
struct ExecCache::Segment : public runtime::SpillableSegment {
  Segment(std::string key, runtime::StableStorage* storage, int partitions,
          uint64_t* hash_reuse_counter)
      : key_(std::move(key)),
        storage_(storage),
        partitions_(partitions),
        hash_reuse_counter_(hash_reuse_counter) {}

  const std::string& spill_key() const override { return key_; }
  uint64_t resident_bytes() const override {
    return spilled_ ? 0 : serialized_bytes_;
  }
  int num_partitions() const override { return partitions_; }
  bool spilled() const override { return spilled_; }

  /// Called by OnEntryFilled once the executor built the entry.
  void MeasureResident() {
    FLINKLESS_CHECK(entry.data != nullptr,
                    "cache segment measured before its data was set");
    serialized_bytes_ = SerializedDatasetBytes(*entry.data);
    spilled_ = false;
  }

  /// Serialized bytes whether resident or spilled (spill blobs are exactly
  /// the serialized dataset).
  uint64_t serialized_bytes() const { return serialized_bytes_; }

  Status Spill() override {
    FLINKLESS_CHECK(!spilled_ && entry.data != nullptr,
                    "spilling a segment that is not resident");
    had_flat_index_ = entry.flat_index != nullptr;
    // Retain the flat index's cached row hashes in memory across the spill
    // (8 bytes/row — tiny next to the dataset) so the rebuild on unspill
    // adopts them instead of rehashing every key. Deliberately NOT written
    // to StableStorage: the spill blob stays the serialized dataset alone,
    // so SimClock I/O charges and live-bytes accounting are unchanged.
    spilled_hashes_.clear();
    if (had_flat_index_) {
      spilled_hashes_.reserve(entry.flat_index->size());
      for (const FlatKeyIndex& index : *entry.flat_index) {
        spilled_hashes_.push_back(index.row_hashes());
      }
    }
    FLINKLESS_RETURN_NOT_OK(storage_->Write(
        key_, SerializePartitionedDataset(*entry.data, serialized_bytes_)));
    // Consumers still holding the shared_ptrs keep their dataset and index;
    // the cache just stops keeping them resident.
    entry.data.reset();
    entry.flat_index.reset();
    spilled_ = true;
    return Status::OK();
  }

  Status Unspill() override {
    FLINKLESS_CHECK(spilled_, "unspilling a resident segment");
    FLINKLESS_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                               storage_->Read(key_));
    FLINKLESS_ASSIGN_OR_RETURN(PartitionedDataset ds,
                               DeserializePartitionedDataset(blob));
    storage_->Delete(key_);  // the blob only exists while spilled
    auto data = std::make_shared<PartitionedDataset>(std::move(ds));
    entry.data = data;
    const int n = data->num_partitions();
    if (had_flat_index_) {
      auto index = std::make_shared<std::vector<FlatKeyIndex>>(n);
      const bool have_hashes = spilled_hashes_.size() == static_cast<size_t>(n);
      uint64_t adopted = 0;
      for (int p = 0; p < n; ++p) {
        const std::vector<Record>& part = data->partition(p);
        if (have_hashes && spilled_hashes_[p].size() == part.size()) {
          (*index)[p].BuildWithHashes(part, entry.index_key,
                                      std::move(spilled_hashes_[p]));
          ++adopted;
        } else {
          (*index)[p].Build(part, entry.index_key);
        }
      }
      if (hash_reuse_counter_ != nullptr) *hash_reuse_counter_ += adopted;
      spilled_hashes_.clear();
      entry.flat_index = std::move(index);
    }
    spilled_ = false;
    return Status::OK();
  }

  /// Deletes the spill blob if one exists.
  void DropBlob() {
    if (spilled_) storage_->Delete(key_);
  }

  Entry entry;

 private:
  std::string key_;
  runtime::StableStorage* storage_;
  int partitions_;
  /// Owner's hash-reuse counter (ExecCache::hash_reuses()); may be null.
  uint64_t* hash_reuse_counter_;
  uint64_t serialized_bytes_ = 0;
  bool spilled_ = false;
  bool had_flat_index_ = false;
  /// Per-partition row hashes of the dropped flat index, kept while
  /// spilled (see Spill).
  std::vector<std::vector<uint64_t>> spilled_hashes_;
};

ExecCache::ExecCache(std::vector<std::string> volatile_bindings)
    : volatile_bindings_(std::move(volatile_bindings)) {}

ExecCache::~ExecCache() {
  Clear();
  if (storage_ != nullptr && !spill_prefix_.empty()) {
    storage_->ReleasePrefix(spill_prefix_);
  }
}

void ExecCache::AttachMemoryManager(runtime::MemoryManager* manager,
                                    runtime::StableStorage* storage,
                                    const std::string& job_id) {
  FLINKLESS_CHECK(manager != nullptr && storage != nullptr,
                  "AttachMemoryManager needs a manager and a storage");
  FLINKLESS_CHECK(entries_.empty(),
                  "attach the memory manager before the first Execute");
  if (storage_ != nullptr && !spill_prefix_.empty()) {
    storage_->ReleasePrefix(spill_prefix_);  // re-attach moves the namespace
  }
  manager_ = manager;
  storage_ = storage;
  owner_ = job_id.empty() ? "job" : job_id;
  spill_prefix_ = "spill/" + owner_ + "/";
  // Dies when another live owner already spills under this namespace —
  // concurrent jobs must never mix blobs (DESIGN.md §16).
  storage_->AcquirePrefix(spill_prefix_);
}

ExecCache::Entry* ExecCache::Find(int node_id, Role role) {
  auto it = entries_.find({node_id, static_cast<int>(role)});
  return it != entries_.end() ? &it->second->entry : nullptr;
}

Result<ExecCache::Entry*> ExecCache::FindResident(int node_id, Role role,
                                                  runtime::Tracer* tracer,
                                                  bool* reloaded) {
  if (reloaded != nullptr) *reloaded = false;
  auto it = entries_.find({node_id, static_cast<int>(role)});
  if (it == entries_.end()) return static_cast<Entry*>(nullptr);
  Segment* seg = it->second.get();
  if (manager_ != nullptr) {
    FLINKLESS_RETURN_NOT_OK(manager_->Touch(seg, tracer, reloaded));
    // An unspill may push residency back over budget; evict colder
    // entries, never the one about to be consumed.
    FLINKLESS_RETURN_NOT_OK(manager_->EnforceBudget(seg, tracer));
  }
  return &seg->entry;
}

ExecCache::Entry& ExecCache::Emplace(int node_id, Role role) {
  const std::pair<int, int> key{node_id, static_cast<int>(role)};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Rebuild over a stale entry: its blob and registration go with it.
    Release(it->second.get());
    entries_.erase(it);
  }
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), "n%04d.r%d", node_id,
                static_cast<int>(role));
  auto seg = std::make_unique<Segment>(spill_prefix_ + suffix, storage_,
                                       num_partitions_, &hash_reuses_);
  it = entries_.emplace(key, std::move(seg)).first;
  ++builds_;
  if (metrics_ != nullptr) {
    metrics_->Count(runtime::metric::kCacheBuilds, -1);
  }
  return it->second->entry;
}

Status ExecCache::OnEntryFilled(int node_id, Role role,
                                runtime::Tracer* tracer) {
  auto it = entries_.find({node_id, static_cast<int>(role)});
  FLINKLESS_CHECK(it != entries_.end(), "OnEntryFilled without an entry");
  Segment* seg = it->second.get();
  seg->MeasureResident();
  if (manager_ == nullptr) return Status::OK();
  manager_->Register(seg, owner_);
  // The just-built segment is exempt: the executor consumes it right after
  // this call, and a lone artifact bigger than the whole budget must still
  // be usable (the documented one-segment slack).
  return manager_->EnforceBudget(seg, tracer);
}

uint64_t ExecCache::Release(Segment* segment) {
  uint64_t bytes = segment->serialized_bytes();
  if (manager_ != nullptr) manager_->Unregister(segment);
  segment->DropBlob();
  return bytes;
}

uint64_t ExecCache::Invalidate(const std::vector<int>& partitions) {
  if (partitions.empty() || entries_.empty()) return 0;
  uint64_t released = Clear();
  if (metrics_ != nullptr) {
    metrics_->Count(runtime::metric::kCacheInvalidations, -1);
  }
  return released;
}

uint64_t ExecCache::Clear() {
  uint64_t released = 0;
  for (auto& [key, seg] : entries_) released += Release(seg.get());
  entries_.clear();
  return released;
}

}  // namespace flinkless::dataflow
