// ReadView: an epoch-pinned, partially materialized read replica of one
// job's iteration state (DESIGN.md §16).
//
// The JobServer answers Lookup(job, key) from these views, never from the
// live iteration state: the driver publishes into the view only at
// consistent superstep boundaries (the epoch hooks of iteration/epoch.h),
// so a reader always observes one prefix-consistent epoch — never a
// half-applied delta, and never the cleared-but-not-yet-compensated state
// a failure leaves behind mid-recovery.
//
// Partial materialization (in the spirit of Noria's partially stateful
// dataflow, Gjengset et al., OSDI'18): a view materializes only the
// partitions readers actually touch. A lookup into a cold partition
// returns kPending and marks the partition *wanted*; the next accepted
// publish materializes it. Cold partitions cost nothing per publish, which
// is what keeps many concurrent serveable jobs affordable.
//
// A materialized partition is flat: its rows, one per key, and a
// FlatKeyIndex over them on the key. Filling and refreshing share one
// body: each incoming record overwrites the row of its key in place, or is
// appended.
//
// Refresh rules:
//  * Delta jobs refresh incrementally: each materialized partition keeps a
//    watermark on the solution set's per-partition version clock and pulls
//    only EntriesSince(p, watermark) per publish — one sweep of the flat
//    version array, and only the changed rows are copied.
//  * Any failure marks the whole view dirty (MarkAllDirty): recovery may
//    restart partition clocks (ReplacePartition semantics, state.h), so
//    watermarks are meaningless and the next accepted publish fully
//    rematerializes every active partition.
//  * Bulk jobs have no version clocks; every accepted publish copies the
//    active partitions.
//  * Epoch monotonicity: a publish with an epoch older than the view's is
//    skipped (rollback/restart recovery re-executes earlier supersteps;
//    deterministic re-execution makes the re-published epochs
//    content-identical, so the newer pinned view stays correct). An
//    equal-epoch publish is accepted — after a rewind it re-delivers
//    identical content, and accepting it clears the dirty flag.
//
// Threading: not thread-safe; the JobServer touches views from its one
// caller's thread.

#ifndef FLINKLESS_SERVER_READ_VIEW_H_
#define FLINKLESS_SERVER_READ_VIEW_H_

#include <cstdint>
#include <vector>

#include "dataflow/columnar.h"
#include "dataflow/dataset.h"
#include "dataflow/record.h"
#include "iteration/state.h"

namespace flinkless::server {

class ReadView {
 public:
  enum class Hit : int {
    kFound = 0,    // key present in the materialized partition
    kMissing,      // partition materialized, key absent
    kPending,      // partition not materialized yet (now marked wanted)
  };

  struct LookupResult {
    Hit hit = Hit::kPending;
    /// Borrowed; valid until the next publish/materialize call. Null
    /// unless kFound.
    const dataflow::Record* record = nullptr;
    /// Partition the key routes to.
    int partition = -1;
    /// View epoch the answer observed (-1 before the first publish).
    int epoch = -1;
  };

  /// `key` are the key columns of the served records (the delta job's
  /// solution_key / the bulk job's state_key); lookups present the key
  /// *projection* (identity columns 0..k-1).
  ReadView(dataflow::KeyColumns key, int num_partitions);
  /// Each partition's index borrows its rows.
  ReadView(const ReadView&) = delete;
  ReadView& operator=(const ReadView&) = delete;

  int num_partitions() const { return static_cast<int>(parts_.size()); }
  /// Fields of a key projection.
  size_t key_arity() const { return key_.size(); }

  /// Epoch of the pinned view; -1 before the first publish.
  int epoch() const { return epoch_; }
  bool has_published() const { return epoch_ >= 0; }

  /// Failure hook (kFailureDetected): watermarks may be invalidated by the
  /// recovery, so the next accepted publish fully rematerializes. The
  /// currently pinned epoch stays readable meanwhile.
  void MarkAllDirty() { dirty_ = true; }

  /// Publishes `state` as `epoch`, dispatching on the state's kind.
  /// Returns false when the publish was skipped as older than the pinned
  /// epoch.
  bool Publish(const iteration::IterationState& state, int epoch);

  bool PublishDelta(const iteration::SolutionSet& solution, int epoch);
  bool PublishBulk(const dataflow::PartitionedDataset& data, int epoch);

  /// Point lookup by key projection. A cold partition is marked wanted and
  /// kPending is returned; retry after the next publish (or call a
  /// MaterializePartition* overload when the final state is at hand).
  LookupResult Lookup(const dataflow::Record& key_projection);

  /// Materializes one partition on demand from a finished job's final
  /// state — the "upquery" path for reads that arrive after the last
  /// publish.
  void MaterializePartitionFromSolution(int p,
                                        const iteration::SolutionSet& s);
  void MaterializePartitionFromBulk(int p,
                                    const dataflow::PartitionedDataset& d);

 private:
  struct Partition {
    /// Full records, one per key, in arrival order.
    std::vector<dataflow::Record> rows;
    /// Over `rows` on the view's key.
    dataflow::FlatKeyIndex index;
    /// Solution-set clock value the rows reflect (delta views only).
    uint64_t watermark = 0;
    bool materialized = false;
    /// A reader touched this partition while cold; materialize it at the
    /// next accepted publish.
    bool wanted = false;
  };

  /// True when partition `p` should be (re)filled on this publish.
  bool ActiveOnPublish(const Partition& part) const {
    return part.materialized || part.wanted;
  }

  /// Replaces partition `p`'s rows with `records` and marks it
  /// materialized at `watermark`.
  void Fill(int p, const std::vector<dataflow::Record>& records,
            uint64_t watermark);
  /// Overwrites the row with `record`'s key, or appends it.
  void Put(Partition* part, dataflow::Record record);

  dataflow::KeyColumns key_;
  /// Identity columns 0..k-1: key projections hash/route on themselves.
  dataflow::KeyColumns identity_key_;
  std::vector<Partition> parts_;
  int epoch_ = -1;
  bool dirty_ = false;
};

}  // namespace flinkless::server

#endif  // FLINKLESS_SERVER_READ_VIEW_H_
