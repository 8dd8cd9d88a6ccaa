// Executor: runs a Plan over hash-partitioned data.
//
// The execution model is the paper's: every operator runs independently on
// each of the N partitions; key-based operators (reduce/join/cogroup) first
// shuffle their input so equal keys meet in one partition. Records that cross
// partitions during a shuffle are the "messages" the paper's GUI plots per
// iteration; the executor counts them and charges simulated network time for
// them. An intermediate with a single consumer
// that reads it locally (or pre-combines it) is never materialized: its
// operator runs inside the consumer's parallel section and streams its rows
// into it (DESIGN.md §17).

#ifndef FLINKLESS_DATAFLOW_EXECUTOR_H_
#define FLINKLESS_DATAFLOW_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/dataset.h"
#include "dataflow/plan.h"
#include "runtime/cost_model.h"
#include "runtime/metrics.h"
#include "runtime/sim_clock.h"
#include "runtime/thread_pool.h"
#include "runtime/tracing.h"

namespace flinkless::runtime {
class MessageLog;
}  // namespace flinkless::runtime

namespace flinkless::dataflow {

class ExecCache;

/// Input datasets for a plan execution, keyed by source binding name. The
/// pointed-to datasets are borrowed and must outlive the Execute call.
using Bindings = std::map<std::string, const PartitionedDataset*>;

/// Work accounting for one plan execution.
struct ExecStats {
  /// Records consumed by operators (every operator input record counts).
  uint64_t records_processed = 0;

  /// Records that moved to a different partition during shuffles — the
  /// paper's per-iteration "messages".
  uint64_t messages_shuffled = 0;

  /// Loop-invariant cache hits (one per side served from the cache).
  uint64_t cache_hits = 0;

  /// Records whose shuffle was skipped because the shuffled side was served
  /// from the loop-invariant cache.
  uint64_t records_not_reshuffled = 0;

  /// Records read back from the outbound message log during a confined
  /// replay (Executor::Replay) — the messages that did NOT have to be
  /// recomputed by re-running survivors. Zero outside recovery.
  uint64_t messages_replayed = 0;

  /// Output record count per operator display name (accumulated when names
  /// repeat).
  std::map<std::string, uint64_t> node_output_counts;

  /// Merges another stats block into this one.
  void MergeFrom(const ExecStats& other);
};

/// Execution configuration. The clock and cost model are optional; when
/// absent no simulated time is charged.
struct ExecOptions {
  int num_partitions = 4;
  runtime::SimClock* clock = nullptr;
  const runtime::CostModel* costs = nullptr;

  /// Worker threads evaluating per-partition operator instances: 1 = serial
  /// execution on the calling thread (the default), 0 = one thread per
  /// hardware core, anything else is taken literally. Above 1 the executor
  /// owns a pool of `num_threads` workers, and the calling thread works
  /// beside them in every parallel section: a 2-thread executor computes on
  /// up to 3 cores (capped at the hardware's), so a measured pool
  /// utilization can exceed 1. Outputs, ExecStats, and simulated-time
  /// charges are identical for every value — parallelism only changes
  /// wall-clock time (see DESIGN.md "Threading model").
  int num_threads = 1;

  /// Optional trace recorder. When set, Execute/Shuffle record one span per
  /// operator (a chained operator runs in its root's span), per shuffle
  /// phase, and per partition (with record/message counts as args). Null =
  /// tracing off; every call site is guarded, so the disabled path costs
  /// one branch. Tracing never changes outputs, ExecStats, or SimClock
  /// charges (DESIGN.md §8).
  runtime::Tracer* tracer = nullptr;

  /// Optional loop-invariant cache, owned by the iteration driver and
  /// shared across supersteps (see exec_cache.h and DESIGN.md §10). Null =
  /// no caching; outputs are byte-identical either way, only the work
  /// (shuffles, index builds) and its simulated charges are skipped on
  /// cache hits.
  ExecCache* cache = nullptr;

  /// Byte budget for cached loop-invariant artifacts (0 = unlimited).
  /// Enforced by the iteration drivers: when set (and a StableStorage is
  /// available), the driver attaches a MemoryManager to its ExecCache and
  /// LRU entries spill to storage once serialized residency exceeds the
  /// budget (DESIGN.md §11). Outputs are byte-identical at any budget;
  /// only the simulated I/O charges change.
  uint64_t memory_budget_bytes = 0;

  /// Optional metrics v2 sink (see runtime/metrics.h). When set, the
  /// executor records per-partition counters (operator input records,
  /// shuffle fan-out) and job-level counters/histograms (cache work,
  /// reduce/join input sizes, join probe chain lengths, parallel-section
  /// dispatches). Null = metrics off. Recording never changes outputs,
  /// ExecStats, or SimClock charges, and the recorded values are
  /// identical at any thread count (DESIGN.md §13).
  runtime::MetricsSink* metrics = nullptr;

  /// Optional outbound message log (runtime/message_log.h, DESIGN.md §14),
  /// owned by the iteration driver. When set, Execute appends every
  /// shuffled loop-*variant* channel (the log's volatile_bindings decide
  /// variance) to the log after the shuffle's gather phase, enabling
  /// confined-log recovery via Replay. Null = logging off. Appending never
  /// changes outputs, ExecStats, or SimClock charges — with an unlimited
  /// budget a logged run is bit-identical to an unlogged one.
  runtime::MessageLog* message_log = nullptr;
};

/// Stateless plan interpreter. One Executor can run many plans; options are
/// fixed at construction. An executor with num_threads > 1 owns a worker
/// pool for the lifetime of the object; Execute/Shuffle may be called from
/// one thread at a time.
class Executor {
 public:
  explicit Executor(ExecOptions options);

  /// Runs `plan` against `bindings`. Every source name in the plan must be
  /// bound to a dataset with exactly `num_partitions` partitions. Returns
  /// the datasets of the plan's named outputs. `stats` may be nullptr.
  Result<std::map<std::string, PartitionedDataset>> Execute(
      const Plan& plan, const Bindings& bindings, ExecStats* stats) const;

  /// Hash-repartitions `input` on `key`, counting moved records into `stats`
  /// and charging the clock: the shuffle Execute runs for a keyed input,
  /// exposed for tests and micro-benchmarks. Every source partition groups
  /// its rows by target partition in one pass (in parallel), and every
  /// target partition copies its bucket of each source in source order, so
  /// the result is byte-identical to a serial single-pass shuffle. The
  /// result is always a new dataset; only Execute reads an unmoved input in
  /// place.
  PartitionedDataset Shuffle(const PartitionedDataset& input,
                             const KeyColumns& key, ExecStats* stats) const;

  /// Confined-log recovery (DESIGN.md §14): recomputes the plan's outputs
  /// for the `lost` partitions from the failed superstep's logged channels
  /// (`log`, filled by the Execute that ran with ExecOptions::message_log
  /// set to it) plus the loop-invariant bindings — without re-running the
  /// survivors. Volatile bindings need not be in `bindings`; a plan whose
  /// outputs depend on a volatile source *not* through a logged shuffle is
  /// rejected with FailedPrecondition (no such plan exists in src/algos),
  /// and a lost id outside [0, num_partitions()) with InvalidArgument.
  /// Runs Execute's per-node loop over the demanded nodes and partitions
  /// only, reading the logged channels instead of shuffling loop-variant
  /// inputs; every charge lands on Charge::kRecovery (replayed messages
  /// shipped to the fresh workers, recomputation critical path over the
  /// demanded partitions), so healthy partitions only wait. Returned
  /// datasets have num_partitions() partitions with only the demanded ones
  /// populated, byte-identical to the corresponding partitions of the
  /// failed Execute at any thread count. `stats` may be nullptr.
  Result<std::map<std::string, PartitionedDataset>> Replay(
      const Plan& plan, const Bindings& bindings, const std::vector<int>& lost,
      runtime::MessageLog* log, ExecStats* stats) const;

  int num_partitions() const { return options_.num_partitions; }

  /// The worker pool, or nullptr when executing serially. Borrowed by the
  /// iteration drivers so recovery-path work (compensation functions) can
  /// run partition-parallel on the same workers.
  runtime::ThreadPool* pool() const { return pool_.get(); }

 private:
  /// One run of Execute's per-node loop: which nodes run on which
  /// partitions, what the run records into and where it charges — Execute's
  /// failure-free pass or Replay's recovery pass (executor.cc).
  struct Pass;

  /// Execute's per-node loop over one plan under one pass, as named steps
  /// on one per-call object (executor.cc).
  class PlanRun;

  /// Runs fn(i) for i in [0, count) as one parallel section (counted into
  /// the pass's pool metrics), on the pool when present, with one child
  /// span of `parent` per i when it is active; `records_of` (optional)
  /// supplies span i's "records" arg, evaluated once fn(i) ran.
  void ForEachPartition(const Pass& pass, const runtime::TraceSpan& parent,
                        int count, const std::function<void(int)>& fn,
                        const std::function<int64_t(int)>& records_of = {})
      const;

  /// Shuffle of `node`'s input under `pass` (a pre-combined reduce input
  /// is routed by its fold instead, executor.cc): a route section buckets
  /// each source's rows by target, then a gather section copies them. With
  /// `node` set, a row too short for `key` fails it with an OutOfRange
  /// naming the node instead of aborting (the public Shuffle keeps the
  /// CHECK). When no row leaves its partition and `in_place` is set, there
  /// is no gather: *in_place becomes true, the result is empty, and the
  /// caller reads `input` where it is (DESIGN.md §12).
  Result<PartitionedDataset> ShuffleImpl(const Pass& pass,
                                         const PartitionedDataset& input,
                                         const KeyColumns& key,
                                         ExecStats* stats,
                                         const PlanNode* node = nullptr,
                                         bool* in_place = nullptr) const;

  ExecOptions options_;
  /// Record per-partition span args ("out_p<i>", "moved_p<i>")? They cost
  /// one string-format and one arg entry per partition per operator, so
  /// they are on for <= 8 partitions only; counts stay exact either way.
  bool per_partition_args_ = true;
  std::unique_ptr<runtime::ThreadPool> pool_;
};

}  // namespace flinkless::dataflow

#endif  // FLINKLESS_DATAFLOW_EXECUTOR_H_
