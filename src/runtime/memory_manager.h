// MemoryManager: a budgeted residency manager for spillable artifacts.
//
// Iterative jobs keep loop-invariant execution artifacts (shuffled static
// inputs and their join indexes — DESIGN.md §10) resident for the
// whole run. Once graphs outgrow the configured memory budget, the cold
// artifacts must move to StableStorage and come back on access — Flink's
// managed-memory design ("Spinning Fast Iterative Data Flows", Ewen et
// al.). The manager tracks resident bytes against a budget and evicts in
// deterministic LRU order; every byte spilled or reloaded is charged to the
// SimClock through the StableStorage the segments write to.
//
// Determinism (DESIGN.md §11): recency is a logical access counter bumped
// on the executor's orchestration thread, ties break on the segment's
// spill key — never wall time — so the eviction sequence (and therefore
// outputs, stats, and simulated charges) is a pure function of the plan,
// the data, and the budget, identical at any thread count.
//
// Residency is measured in *serialized* bytes (what a spill would write),
// not heap bytes: the measure must be platform- and allocator-independent
// for the budget decisions to be reproducible.

#ifndef FLINKLESS_RUNTIME_MEMORY_MANAGER_H_
#define FLINKLESS_RUNTIME_MEMORY_MANAGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/tracing.h"

namespace flinkless::runtime {

class MetricsSink;

/// One unit of budgeted memory. Implementations serialize themselves to
/// StableStorage under their `spill_key()` and rebuild on Unspill(); any
/// derived structures (hash indexes) must be reconstructed from the
/// reloaded bytes, since they reference the dropped resident records.
class SpillableSegment {
 public:
  virtual ~SpillableSegment() = default;

  /// Stable identity: the StableStorage key the segment spills to (under
  /// the reserved "spill/" prefix) and the deterministic LRU tie-break.
  virtual const std::string& spill_key() const = 0;

  /// Serialized size of the resident state; 0 while spilled.
  virtual uint64_t resident_bytes() const = 0;

  /// Partitions of the underlying artifact (trace-span payload).
  virtual int num_partitions() const = 0;

  virtual bool spilled() const = 0;

  /// Writes the resident state to stable storage (charged) and drops it.
  /// Only called while resident.
  virtual Status Spill() = 0;

  /// Reads the blob back, rebuilds the resident state (and any derived
  /// indexes), and deletes the blob. Only called while spilled.
  virtual Status Unspill() = 0;
};

/// Tracks registered segments against a byte budget (0 = unlimited) and
/// spills least-recently-used segments until residency fits. Owned by an
/// iteration driver alongside the ExecCache; all calls must come from the
/// executor's orchestration thread.
class MemoryManager {
 public:
  struct Stats {
    uint64_t spills = 0;
    uint64_t unspills = 0;
    /// Cumulative bytes written by spills / read back by unspills.
    uint64_t spilled_bytes = 0;
    uint64_t unspilled_bytes = 0;
    /// High-water mark of total resident bytes across segments.
    uint64_t peak_resident_bytes = 0;
  };

  /// Per-owner residency breakdown (owners are the job/dataflow ids passed
  /// to Register). Admission control reads this to see who occupies the
  /// shared budget; the dashboards to see which job got spilled.
  struct OwnerStats {
    uint64_t segments = 0;
    uint64_t resident_bytes = 0;
    /// Serialized bytes of this owner's segments currently sitting in
    /// StableStorage (not cumulative — drops back on unspill/unregister).
    uint64_t spilled_bytes = 0;
    /// Cumulative spills/unspills charged to this owner's segments.
    uint64_t spills = 0;
    uint64_t unspills = 0;
  };

  explicit MemoryManager(uint64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  uint64_t budget_bytes() const { return budget_bytes_; }

  /// Mirrors every spill/unspill (count, bytes, and the spill-size
  /// histogram) into the metrics v2 sink. Borrowed, may be null (= off);
  /// set by the owning driver before the run. stats() keeps the manager's
  /// own running totals, which the drivers diff into per-superstep
  /// IterationStats with or without a sink.
  void set_metrics(MetricsSink* metrics) { metrics_ = metrics; }

  /// Registers a segment as most-recently-used. The caller still owns it
  /// and must Unregister before destroying it. `owner` tags the segment
  /// for the per-owner breakdown (the registering component's job or
  /// dataflow id; empty = untagged, reported under ""). Re-registering an
  /// existing segment refreshes recency and keeps the first owner tag.
  void Register(SpillableSegment* segment, const std::string& owner = "");

  /// Drops the segment from the LRU list (its blob, if any, is the
  /// caller's to delete).
  void Unregister(SpillableSegment* segment);

  /// Marks `segment` most-recently-used, reloading it first when spilled.
  /// `*reloaded` (optional) reports whether an unspill happened; a
  /// "cache.unspill" span is recorded on `tracer` when it did.
  Status Touch(SpillableSegment* segment, Tracer* tracer, bool* reloaded);

  /// Spills LRU segments until residency fits the budget. `keep` (may be
  /// null) is exempt — the segment just produced or touched must survive
  /// the pass, which is what grants "budget + one segment" of slack when a
  /// single artifact alone exceeds the budget. Records one "cache.spill"
  /// span per eviction on `tracer`.
  Status EnforceBudget(const SpillableSegment* keep, Tracer* tracer);

  /// Total resident bytes across registered segments.
  uint64_t resident_bytes() const;

  size_t num_segments() const { return segments_.size(); }

  const Stats& stats() const { return stats_; }

  /// Per-owner breakdown of the registered segments, keyed by the owner
  /// tag given at Register (std::map: deterministic order). Residency is
  /// recomputed from the segments; spill counters accumulate per owner as
  /// events happen.
  std::map<std::string, OwnerStats> OwnerBreakdown() const;

 private:
  struct Slot {
    SpillableSegment* segment = nullptr;
    /// Logical recency: bumped per Register/Touch on the orchestration
    /// thread. Unique, so LRU order is total; spill_key breaks the (never
    /// observed) tie defensively.
    uint64_t last_access = 0;
    /// Owner tag for the per-owner breakdown (job/dataflow id).
    std::string owner;
    /// Serialized bytes this segment wrote when it was spilled; 0 while
    /// resident. Tracked here because SpillableSegment reports 0 resident
    /// bytes while spilled and has no "spilled size" accessor.
    uint64_t spilled_bytes = 0;
  };

  /// Cumulative per-owner spill/unspill counters (survive Unregister of
  /// individual segments while the owner still has any live segment; an
  /// owner with no live segments drops out of the breakdown).
  struct OwnerCounters {
    uint64_t spills = 0;
    uint64_t unspills = 0;
  };

  Slot* FindSlot(const SpillableSegment* segment);
  void NotePeak();

  uint64_t budget_bytes_;
  MetricsSink* metrics_ = nullptr;
  uint64_t next_access_ = 1;
  std::vector<Slot> segments_;
  Stats stats_;
  std::map<std::string, OwnerCounters> owner_counters_;
};

}  // namespace flinkless::runtime

#endif  // FLINKLESS_RUNTIME_MEMORY_MANAGER_H_
