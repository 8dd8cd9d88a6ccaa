#include "runtime/message_log.h"

#include <utility>

#include "common/logging.h"
#include "runtime/memory_manager.h"
#include "runtime/metrics.h"
#include "runtime/stable_storage.h"
#include "runtime/tracing.h"

namespace flinkless::runtime {

using dataflow::PartitionedDataset;

// One logged channel. Residency is the exact serialized size (the same
// measure the ExecCache segments use), so budget math is consistent across
// the two segment kinds sharing one MemoryManager.
class MessageLog::Segment final : public SpillableSegment {
 public:
  Segment(std::string spill_key, PartitionedDataset data,
          StableStorage* storage)
      : spill_key_(std::move(spill_key)),
        data_(std::move(data)),
        serialized_bytes_(dataflow::SerializedDatasetBytes(data_)),
        num_partitions_(data_.num_partitions()),
        storage_(storage) {}

  const std::string& spill_key() const override { return spill_key_; }
  uint64_t resident_bytes() const override {
    return spilled_ ? 0 : serialized_bytes_;
  }
  int num_partitions() const override { return num_partitions_; }
  bool spilled() const override { return spilled_; }

  Status Spill() override {
    FLINKLESS_CHECK(!spilled_, "msglog segment spilled twice");
    FLINKLESS_CHECK(storage_ != nullptr,
                    "msglog segment under a budget without storage");
    FLINKLESS_RETURN_NOT_OK(
        storage_->Write(spill_key_, dataflow::SerializePartitionedDataset(data_)));
    data_ = PartitionedDataset();
    spilled_ = true;
    return Status::OK();
  }

  Status Unspill() override {
    FLINKLESS_CHECK(spilled_, "msglog segment unspilled while resident");
    FLINKLESS_ASSIGN_OR_RETURN(std::vector<uint8_t> blob,
                               storage_->Read(spill_key_));
    FLINKLESS_ASSIGN_OR_RETURN(data_,
                               dataflow::DeserializePartitionedDataset(blob));
    storage_->Delete(spill_key_);
    spilled_ = false;
    return Status::OK();
  }

  uint64_t serialized_bytes() const { return serialized_bytes_; }
  const PartitionedDataset& data() const { return data_; }

  /// Deletes the spill blob if the segment is currently out. Called on
  /// rotation so a dropped channel leaves nothing behind in storage.
  void DropBlob() {
    if (spilled_ && storage_ != nullptr) storage_->Delete(spill_key_);
  }

 private:
  std::string spill_key_;
  PartitionedDataset data_;
  uint64_t serialized_bytes_ = 0;
  int num_partitions_ = 0;
  StableStorage* storage_ = nullptr;
  bool spilled_ = false;
};

MessageLog::MessageLog(std::vector<std::string> volatile_bindings)
    : volatile_bindings_(std::move(volatile_bindings)) {}

MessageLog::~MessageLog() {
  BeginSuperstep(superstep_);
  if (storage_ != nullptr) storage_->ReleasePrefix(spill_prefix_);
}

void MessageLog::AttachMemoryManager(MemoryManager* manager,
                                     StableStorage* storage,
                                     const std::string& job_id) {
  FLINKLESS_CHECK(manager != nullptr && storage != nullptr,
                  "AttachMemoryManager needs a manager and a storage");
  FLINKLESS_CHECK(channels_.empty(),
                  "attach the memory manager before the first Append");
  if (storage_ != nullptr) storage_->ReleasePrefix(spill_prefix_);
  manager_ = manager;
  storage_ = storage;
  owner_ = job_id.empty() ? "job" : job_id;
  spill_prefix_ = "spill/" + owner_ + "/msglog/";
  // Exact-string namespace claim: distinct from the job's cache prefix
  // ("spill/<job>/"), colliding only with another live log of the same job.
  storage_->AcquirePrefix(spill_prefix_);
}

std::string MessageLog::SpillKey(const std::string& channel) const {
  return spill_prefix_ + channel;
}

void MessageLog::BeginSuperstep(int iteration) {
  for (auto& [channel, segment] : channels_) {
    if (manager_ != nullptr) manager_->Unregister(segment.get());
    segment->DropBlob();
  }
  channels_.clear();
  superstep_ = iteration;
}

Status MessageLog::Append(const std::string& channel,
                          PartitionedDataset shuffled_data, Tracer* tracer) {
  TraceSpan span(tracer, SpanKind::kMessageLogAppend, channel);
  auto segment = std::make_unique<Segment>(
      SpillKey(channel), std::move(shuffled_data), storage_);
  Segment* seg = segment.get();
  const PartitionedDataset& shuffled = seg->data();
  auto [it, inserted] = channels_.insert_or_assign(channel, std::move(segment));
  FLINKLESS_CHECK(inserted, "msglog channel appended twice in one superstep");
  appended_bytes_ += seg->serialized_bytes();
  appended_records_ += shuffled.NumRecords();
  if (metrics_ != nullptr) {
    metrics_->Count(metric::kMsglogBytes, -1, seg->serialized_bytes());
    for (int p = 0; p < shuffled.num_partitions(); ++p) {
      uint64_t records = shuffled.partition(p).size();
      if (records > 0) metrics_->Count(metric::kMsglogMessages, p, records);
    }
  }
  if (span.active()) {
    span.AddArg("bytes", static_cast<int64_t>(seg->serialized_bytes()));
    span.AddArg("records", static_cast<int64_t>(shuffled.NumRecords()));
  }
  if (manager_ != nullptr) manager_->Register(seg, owner_);
  // Deliberately NO EnforceBudget here: Append runs in the middle of
  // Execute, right after a shuffle's gather, while the executor may hold a
  // pointer into another budget-managed segment (a cache entry whose join
  // index it is about to probe). Evicting from this call site would pull
  // that entry out from under the operator. The log's channels still spill
  // deterministically: the drivers enforce the budget at every superstep
  // boundary, and Channel() enforces after each replay-time reload.
  return Status::OK();
}

bool MessageLog::Has(const std::string& channel) const {
  return channels_.find(channel) != channels_.end();
}

Result<const PartitionedDataset*> MessageLog::Channel(
    const std::string& channel, Tracer* tracer) {
  auto it = channels_.find(channel);
  if (it == channels_.end()) {
    return Status::NotFound("message log has no channel '" + channel +
                            "' for superstep " + std::to_string(superstep_));
  }
  Segment* seg = it->second.get();
  if (manager_ != nullptr) {
    FLINKLESS_RETURN_NOT_OK(manager_->Touch(seg, tracer, nullptr));
    // Reloading one channel may displace another; never the one the
    // replay is about to read.
    FLINKLESS_RETURN_NOT_OK(manager_->EnforceBudget(seg, tracer));
  }
  return &seg->data();
}

uint64_t MessageLog::resident_bytes() const {
  uint64_t total = 0;
  for (const auto& [channel, segment] : channels_) {
    total += segment->resident_bytes();
  }
  return total;
}

}  // namespace flinkless::runtime
