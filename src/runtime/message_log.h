// Outbound message log for confined recovery (DESIGN.md §14).
//
// When enabled (ExecOptions::message_log), the executor taps every shuffle
// whose shuffled input is loop-*variant* and appends the post-gather
// partitioned dataset — the messages each partition received this
// superstep — to the log, one channel per (plan node, input port). The log
// models the sender-side materialized shuffle segments real dataflows keep
// (Flink's blocking intermediate results, MapReduce map outputs): they
// survive a downstream task failure, so a ConfinedLogReplayPolicy can
// rebuild only the lost partitions by replaying the logged messages into
// them (Executor::Replay) while survivors keep their state and merely
// wait.
//
// Channels live in columnar serde blocks (SerializePartitionedDataset) and
// are registered with the job's MemoryManager: residency counts against
// the byte budget and cold channels spill deterministically (logical LRU)
// to StableStorage under "spill/<job>/msglog/<channel>" keys, reloading on
// replay. The log rotates at superstep boundaries — BeginSuperstep drops
// every channel of the previous superstep (and deletes its spill blobs),
// so at most one superstep's messages are ever retained.
//
// Loop-invariant channels are never logged: they are recomputable from the
// static bindings (and usually served by the ExecCache), so logging them
// would only duplicate bytes the job already holds.

#ifndef FLINKLESS_RUNTIME_MESSAGE_LOG_H_
#define FLINKLESS_RUNTIME_MESSAGE_LOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/dataset.h"

namespace flinkless::runtime {

class MemoryManager;
class MetricsSink;
class StableStorage;
class Tracer;

class MessageLog {
 public:
  /// `volatile_bindings` are the source bindings that change across
  /// supersteps (the iteration driver's state/workset/solution bindings);
  /// the executor logs exactly the shuffles that are downstream of them
  /// (Plan::InvariantNodes over this set).
  explicit MessageLog(std::vector<std::string> volatile_bindings);
  ~MessageLog();

  MessageLog(const MessageLog&) = delete;
  MessageLog& operator=(const MessageLog&) = delete;

  /// Puts the log's channels under `manager`'s byte budget, with spill
  /// blobs on `storage` under "spill/<job_id>/msglog/". Neither pointer is
  /// owned; both must outlive the log. Call before the first Append.
  void AttachMemoryManager(MemoryManager* manager, StableStorage* storage,
                           const std::string& job_id);

  /// Mirrors appended bytes/messages into the metrics v2 sink under the
  /// msglog.* names. Borrowed, may be null (= off).
  void set_metrics(MetricsSink* metrics) { metrics_ = metrics; }

  const std::vector<std::string>& volatile_bindings() const {
    return volatile_bindings_;
  }

  /// Rotation: drops every channel of the previous superstep (deleting
  /// their spill blobs) and starts logging for `iteration`. The drivers
  /// call this right before each Execute, so on failure the log holds
  /// exactly the failed superstep's messages.
  void BeginSuperstep(int iteration);

  int superstep() const { return superstep_; }

  /// Records one shuffled channel: the post-gather dataset (all
  /// partitions), copied when passed as an lvalue. Emits a "msglog.append" span and msglog.* metrics
  /// and registers the copy with the memory manager — but does NOT enforce
  /// the budget: Append runs mid-Execute, where eviction could spill a
  /// cache segment an operator is holding. The drivers' superstep-boundary
  /// enforcement (and Channel()'s, at replay time) spills cold channels
  /// instead. Charges nothing to the SimClock: with an unlimited budget a
  /// logged run is bit-identical to an unlogged one.
  Status Append(const std::string& channel,
                dataflow::PartitionedDataset shuffled, Tracer* tracer);

  bool Has(const std::string& channel) const;

  /// The logged dataset for `channel`, unspilling it first when the budget
  /// pushed it out (charged storage read, "cache.unspill" span — same path
  /// as cached artifacts). The pointer is valid only until the next call
  /// on a budget-managed log — fetching another channel may spill this
  /// one — so callers copy what they need out while it is resident.
  Result<const dataflow::PartitionedDataset*> Channel(
      const std::string& channel, Tracer* tracer);

  size_t num_channels() const { return channels_.size(); }

  /// Serialized bytes currently resident (excludes spilled channels).
  uint64_t resident_bytes() const;

  /// Total serialized bytes appended since construction (monotonic).
  uint64_t appended_bytes() const { return appended_bytes_; }

  /// Total records appended since construction (monotonic).
  uint64_t appended_records() const { return appended_records_; }

 private:
  class Segment;

  std::string SpillKey(const std::string& channel) const;

  std::vector<std::string> volatile_bindings_;
  MemoryManager* manager_ = nullptr;
  StableStorage* storage_ = nullptr;
  MetricsSink* metrics_ = nullptr;
  std::string spill_prefix_ = "spill/job/msglog/";
  /// Owner tag for the manager's per-owner accounting (the job id given
  /// to AttachMemoryManager).
  std::string owner_ = "job";
  int superstep_ = 0;
  uint64_t appended_bytes_ = 0;
  uint64_t appended_records_ = 0;
  // std::map: deterministic rotation/teardown order by channel name.
  std::map<std::string, std::unique_ptr<Segment>> channels_;
};

}  // namespace flinkless::runtime

#endif  // FLINKLESS_RUNTIME_MESSAGE_LOG_H_
