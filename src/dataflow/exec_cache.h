// ExecCache: a superstep-persistent operator cache for iterative plans.
//
// Iterative dataflows join a changing working set against static data every
// superstep (PageRank's find-neighbors, CC's label-to-neighbors). Without a
// cache the executor re-shuffles the static side and rebuilds the join
// hash table from scratch each iteration — the exact waste "Spinning Fast
// Iterative Data Flows" (Ewen et al.) identifies loop-invariant caching as
// the cure for. An iteration driver owns one ExecCache per job, declares
// which source bindings it rebinds every superstep, and passes the cache to
// the executor via ExecOptions; the executor fills it with one kind of
// entry: the invariant shuffled input of a loop-variant join/cogroup, keyed
// by its port (InputRoutes), port l as role kBuild and port r as kProbe. A
// join's port l also keeps a per-partition hash index over the cached
// records. Both are shared_ptrs: the stage reading an entry pins them, so
// a spill drops only the cache's references.
//
// Memory budget (DESIGN.md §11): with a MemoryManager attached, every
// entry is a SpillableSegment keyed "spill/<job>/n<node>.r<role>". When
// residency exceeds the budget the manager spills LRU entries to
// StableStorage (serialized datasets only — the flat index is derived from
// the cached records, so it is dropped and rebuilt from the reloaded bytes
// on access). Residency is measured in serialized bytes so budget
// decisions are platform-independent and deterministic.
//
// Lifetime: created before superstep 1, reused across supersteps and across
// recovery. Invalidate(partitions) is called from the failure-injection
// path; since every cached artifact is hash-partitioned, losing any
// partition requires a full re-scatter from all sources, so invalidation
// drops every entry — spilled ones included, deleting their blobs so
// recovery re-pays the rebuild instead of reloading stale state. Entries
// are valid for one partition count — repartitioning invalidates naturally
// via EnsurePartitionCount.
//
// Threading: the cache is touched only from the executor's orchestration
// thread; per-partition index builds write disjoint vector slots.

#ifndef FLINKLESS_DATAFLOW_EXEC_CACHE_H_
#define FLINKLESS_DATAFLOW_EXEC_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/columnar.h"
#include "dataflow/dataset.h"
#include "dataflow/record.h"
#include "runtime/memory_manager.h"
#include "runtime/metrics.h"

namespace flinkless::runtime {
class StableStorage;
class Tracer;
}  // namespace flinkless::runtime

namespace flinkless::dataflow {

/// Superstep-persistent cache of loop-invariant execution artifacts. Owned
/// by an iteration driver, borrowed by the executor via ExecOptions.
class ExecCache {
 public:
  /// Which port of its plan node a cached side feeds (part of the cache
  /// key, and of the spill key "n<node>.r<role>").
  enum class Role : int {
    kBuild = 1,  // shuffled port l (left) side + the join's hash index
    kProbe = 2,  // shuffled port r (right) side
  };

  struct Entry {
    /// The cached shuffled side. Consumers hold the shared_ptr alive while
    /// referencing its records — a spill only drops the cache's
    /// reference, never a dataset in use.
    std::shared_ptr<const PartitionedDataset> data;
    /// kBuild on kJoin (DESIGN.md §12): per-partition flat
    /// open-addressing index over `data`'s records — no per-record Value
    /// hashing or map nodes. Null for every other entry. Pinned beside
    /// `data` by its consumers, since its rows are `data`'s.
    std::shared_ptr<const std::vector<FlatKeyIndex>> flat_index;
    /// Key columns flat_index is built on. The executor sets this at build
    /// time; a spilled entry rebuilds the index from the reloaded records
    /// with it.
    KeyColumns index_key;
  };

  /// `volatile_bindings` names the source bindings rebound every superstep;
  /// everything derived from only the other bindings is loop-invariant.
  /// Defined out-of-line: member construction/destruction needs the
  /// Segment definition, which only exec_cache.cc has.
  explicit ExecCache(std::vector<std::string> volatile_bindings);

  /// Dropping the cache deletes its spill blobs and unregisters every
  /// segment from the attached manager.
  ~ExecCache();

  ExecCache(const ExecCache&) = delete;
  ExecCache& operator=(const ExecCache&) = delete;

  const std::vector<std::string>& volatile_bindings() const {
    return volatile_bindings_;
  }

  /// Puts the cache under `manager`'s budget: entries become spillable
  /// segments writing to `storage` under "spill/<job_id>/". Neither
  /// pointer is owned; both must outlive the cache. Call before the first
  /// Execute. Acquires exclusive ownership of the spill prefix on
  /// `storage` (StableStorage::AcquirePrefix) — attaching a second live
  /// cache with the same job id to the same storage dies, since two owners
  /// of one namespace would mix blobs. The prefix is released when the
  /// cache is destroyed (or re-attached elsewhere). `job_id` also tags the
  /// registered segments for the manager's per-owner breakdown.
  void AttachMemoryManager(runtime::MemoryManager* manager,
                           runtime::StableStorage* storage,
                           const std::string& job_id);

  runtime::MemoryManager* memory_manager() const { return manager_; }

  /// Counts builds and invalidations into the metrics v2 sink under the
  /// canonical cache.* names; hits are counted by the executor from its
  /// ExecStats. Borrowed, may be null (= off). The one legacy shim left,
  /// builds(), stays because JobServer derives JobReport::cache_builds from
  /// it without a sink.
  void set_metrics(runtime::MetricsSink* metrics) { metrics_ = metrics; }

  /// Entries are keyed per partition count: executing with a different
  /// count drops everything (a repartition invalidates every shuffle).
  void EnsurePartitionCount(int num_partitions) {
    if (num_partitions_ != num_partitions) {
      Clear();
      num_partitions_ = num_partitions;
    }
  }

  /// The entry for (node, role) regardless of residency, or nullptr when
  /// not cached. A spilled entry has a null `data` and `flat_index`; use
  /// FindResident on paths that consume the records.
  Entry* Find(int node_id, Role role);

  /// Find + budget bookkeeping: marks the entry most-recently-used and
  /// reloads it from storage when spilled (recording a "cache.unspill"
  /// span on `tracer` and setting `*reloaded`). Returns nullptr on a
  /// plain miss.
  Result<Entry*> FindResident(int node_id, Role role,
                              runtime::Tracer* tracer, bool* reloaded);

  /// Creates (or resets) the entry for (node, role). A reset entry's spill
  /// blob is deleted and its segment re-registered on fill.
  Entry& Emplace(int node_id, Role role);

  /// Budget hook: the executor calls this once the Emplace'd entry is
  /// fully built. Measures residency, registers the segment with the
  /// manager, and evicts LRU entries over budget (sparing this one —
  /// that's the "one segment of slack").
  Status OnEntryFilled(int node_id, Role role, runtime::Tracer* tracer);

  /// Failure hook: `partitions` of a worker were lost. Cached artifacts are
  /// hash-partitioned, so rebuilding any one partition needs a full
  /// re-scatter from every source — drop all entries, resident and spilled
  /// alike (spill blobs are deleted so recovery cannot reload stale
  /// state); the next superstep rebuilds them from the (static) bindings.
  /// Returns the serialized bytes released (resident + spilled), so the
  /// manager's accounting is verifiable against StableStorage::live_bytes.
  uint64_t Invalidate(const std::vector<int>& partitions);

  /// Drops everything (blobs included). Returns the bytes released.
  uint64_t Clear();

  size_t size() const { return entries_.size(); }
  uint64_t builds() const { return builds_; }
  /// FlatKeyIndex rebuilds on unspill that adopted retained row hashes
  /// instead of rehashing every key (the satellite fix to the
  /// rebuild-after-spill path).
  uint64_t hash_reuses() const { return hash_reuses_; }

 private:
  /// The SpillableSegment wrapping one Entry; defined in exec_cache.cc.
  struct Segment;

  /// Unregisters the segment and deletes its spill blob; returns the
  /// serialized bytes that vanish with it.
  uint64_t Release(Segment* segment);

  std::vector<std::string> volatile_bindings_;
  int num_partitions_ = -1;
  runtime::MemoryManager* manager_ = nullptr;
  runtime::MetricsSink* metrics_ = nullptr;
  runtime::StableStorage* storage_ = nullptr;
  /// Spill key prefix: "spill/<job_id>/". Held exclusively on storage_
  /// while attached (AcquirePrefix).
  std::string spill_prefix_;
  /// Owner tag for the manager's per-owner accounting (the job id given to
  /// AttachMemoryManager).
  std::string owner_;
  /// (node id, role) -> segment. std::map: deterministic iteration order.
  std::map<std::pair<int, int>, std::unique_ptr<Segment>> entries_;
  uint64_t builds_ = 0;
  uint64_t hash_reuses_ = 0;
};

}  // namespace flinkless::dataflow

#endif  // FLINKLESS_DATAFLOW_EXEC_CACHE_H_
