// Metrics: the per-iteration statistics series, plus the typed, labeled
// metrics v2 layer (DESIGN.md §13). Each count has one home: the registry
// holds the per-superstep series, the MetricsSink the whole-run and
// per-partition families.
//
// The paper's GUI plots per-iteration statistics — converged-vertex counts,
// messages per iteration, the L1 norm of consecutive PageRank estimates. The
// engine records an IterationStats entry per superstep; algorithms attach
// custom gauges (e.g. "converged_vertices"), and the bench harnesses read the
// series back to regenerate the plots.
//
// Metrics v2 adds what the series cannot answer: *where inside the job* the
// work happened. A MetricsSink collects per-partition counters, job-level
// fixed-bucket histograms, and orchestration-set gauges, sharded per worker
// exactly like the Tracer's ring buffers so recording never contends across
// threads. Determinism contract (mirrors tracing):
//  * Counter increments and histogram observations are commutative, so the
//    merged totals are independent of which worker recorded what.
//  * Collect() merges the shards into std::map-ordered families, so an
//    export is byte-identical at any thread count.
//  * Gauges are last-write-wins and therefore orchestration-thread-only.
//  * Labels are partition indices (or -1 = job-level), never worker ids —
//    worker attribution is nondeterministic and belongs to tracing.
// Exporters: NDJSON (per-iteration series + final families) and a
// Prometheus-style text exposition. Neither format includes wall-clock
// fields.

#ifndef FLINKLESS_RUNTIME_METRICS_H_
#define FLINKLESS_RUNTIME_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/sim_clock.h"

namespace flinkless::runtime {

/// Everything measured about one iteration (superstep) of a job.
struct IterationStats {
  /// 1-based iteration number as the paper numbers its plots.
  int iteration = 0;

  /// Records pushed through operators during this iteration.
  uint64_t records_processed = 0;

  /// Records that crossed partitions in shuffles — the paper's "messages".
  uint64_t messages_shuffled = 0;

  /// Bytes checkpointed at the end of this iteration (0 when no checkpoint).
  uint64_t bytes_checkpointed = 0;

  /// True when a failure was injected (and recovered from) in this iteration.
  bool failure_injected = false;

  /// Simulated time of this iteration by Charge category (compute,
  /// network, checkpoint I/O, recovery), indexed by static_cast<int>(Charge).
  /// The drivers fill this by diffing the SimClock's per-category totals
  /// across the superstep.
  std::array<int64_t, kNumCharges> sim_time_by_charge{};

  /// Simulated nanoseconds this iteration took: the sum over all charges.
  int64_t SimTimeNs() const;

  /// This iteration's simulated time in one charge category.
  int64_t SimTimeOf(Charge c) const {
    return sim_time_by_charge[static_cast<int>(c)];
  }

  /// Wall-clock nanoseconds this iteration took.
  int64_t wall_time_ns = 0;

  /// Budget evictions this iteration: cached artifacts written to stable
  /// storage / reloaded from it, and the bytes the spills wrote. Zero
  /// without a memory budget (see DESIGN.md §11).
  uint64_t spills = 0;
  uint64_t unspills = 0;
  uint64_t spilled_bytes = 0;

  /// High-water mark of cached-artifact residency at the end of this
  /// iteration (absolute, not per-iteration; monotone over the run).
  uint64_t peak_resident_bytes = 0;

  /// Algorithm-specific gauges ("converged_vertices", "l1_diff", ...).
  std::map<std::string, double> gauges;

  /// Gauge value or `fallback` when the gauge was not set.
  double Gauge(const std::string& name, double fallback = 0.0) const;
};

/// Accumulates the per-iteration series of one run. Whole-run counts live
/// in the MetricsSink, not here.
class MetricsRegistry {
 public:
  /// Appends a finished iteration's stats.
  void RecordIteration(IterationStats stats);

  const std::vector<IterationStats>& iterations() const { return iterations_; }

  /// The series of one gauge across iterations, with `fallback` for
  /// iterations that did not set it.
  std::vector<double> GaugeSeries(const std::string& name,
                                  double fallback = 0.0) const;

  /// The per-iteration series of simulated time in one charge category.
  std::vector<int64_t> ChargeSeries(Charge c) const;

  /// Sum of one charge category over all iterations.
  int64_t TotalSimTimeOf(Charge c) const;

  /// Sum of messages_shuffled over all iterations.
  uint64_t TotalMessages() const;

  /// Sum of records_processed over all iterations.
  uint64_t TotalRecords() const;

  /// Sum of bytes_checkpointed over all iterations.
  uint64_t TotalCheckpointBytes() const;

 private:
  std::vector<IterationStats> iterations_;
};

// ------------------------------------------------------------ metrics v2 --

/// Canonical v2 metric names. One naming convention —
/// "<subsystem>.<what>[_<unit>]" — replaces the ad-hoc gauge/counter names
/// that accumulated per PR (satellite of DESIGN.md §13). Call sites use
/// these constants so a rename is one edit.
namespace metric {
// Executor (per-partition counters).
inline constexpr char kExecRecords[] = "exec.records";
// Shuffle: records leaving each source partition for another partition.
inline constexpr char kShuffleFanout[] = "shuffle.fanout";
// Cache (job-level counters).
inline constexpr char kCacheHits[] = "cache.hits";
inline constexpr char kCacheBuilds[] = "cache.builds";
inline constexpr char kCacheInvalidations[] = "cache.invalidations";
inline constexpr char kCacheRecordsNotReshuffled[] =
    "cache.records_not_reshuffled";
// Memory manager (job-level counters).
inline constexpr char kMemorySpills[] = "memory.spills";
inline constexpr char kMemoryUnspills[] = "memory.unspills";
inline constexpr char kMemorySpilledBytes[] = "memory.spilled_bytes";
inline constexpr char kMemoryUnspilledBytes[] = "memory.unspilled_bytes";
// Executor parallel sections (job-level counters; totals are
// schedule-independent). Only Executor::ForEachPartition counts them: the
// iteration layer's direct ParallelFors (SolutionSet::ApplyDelta, the
// compensation rebuilds) are not included.
inline constexpr char kPoolTasks[] = "pool.tasks";
inline constexpr char kPoolParallelSections[] = "pool.parallel_sections";
// Recovery (per-partition counters).
inline constexpr char kCompensationRecords[] = "compensation.records";
inline constexpr char kRecoveryPartitionsLost[] = "recovery.partitions_lost";
// Checkpointing (job-level counter): bytes written by OnJobStart's initial
// checkpoint, kept separate from per-iteration checkpoint I/O.
inline constexpr char kInitialCheckpointBytes[] = "checkpoint.initial_bytes";
// Outbound message log (DESIGN.md §14). Bytes are job-level (serialized
// channel blocks); messages are per receiving partition.
inline constexpr char kMsglogBytes[] = "msglog.bytes";
inline constexpr char kMsglogMessages[] = "msglog.messages";
inline constexpr char kMsglogMessagesReplayed[] = "msglog.messages_replayed";
// Job server (DESIGN.md §16). Lookups are counted per partition of the
// queried job's state; publishes/turns/admissions are job-level.
inline constexpr char kServerLookups[] = "server.lookups";
inline constexpr char kServerLookupsMissed[] = "server.lookups_missed";
inline constexpr char kServerLookupsDeferred[] = "server.lookups_deferred";
inline constexpr char kServerPublishes[] = "server.publishes";
inline constexpr char kServerPublishesSkipped[] = "server.publishes_skipped";
inline constexpr char kServerTurns[] = "server.turns";
inline constexpr char kServerJobsAdmitted[] = "server.jobs_admitted";
// Histograms (job-level distributions).
inline constexpr char kHistBatchRows[] = "exec.batch_rows";
inline constexpr char kHistProbeChain[] = "join.probe_chain";
inline constexpr char kHistSpillBytes[] = "memory.spill_bytes";
inline constexpr char kHistShuffleFanout[] = "shuffle.fanout_records";
inline constexpr char kHistCompensationRecords[] = "compensation.records_hist";
// SimClock latency from lookup enqueue to answer (DESIGN.md §16).
inline constexpr char kHistLookupLatency[] = "server.lookup_latency_ns";
// Gauges (orchestration-set, per-partition).
inline constexpr char kGaugeStateRecords[] = "state.records";
// Running count of failure-schedule partition ids the drivers dropped as
// out of range (job-level; nonzero means a misconfigured schedule).
inline constexpr char kGaugeRecoveryDroppedIds[] = "recovery.dropped_ids";
}  // namespace metric

/// Deterministic fixed-bucket histogram. Bucket 0 counts values <= 0;
/// bucket b in [1, kNumBuckets-2] counts values in [2^(b-1), 2^b - 1];
/// the last bucket is the overflow (values >= 2^(kNumBuckets-2)). The
/// bounds are value-independent, so merging shards is a plain bucket-wise
/// sum and the merged result is identical at any thread count.
class Histogram {
 public:
  static constexpr int kNumBuckets = 33;

  /// Bucket index of `value` under the fixed power-of-two scheme.
  static int BucketOf(int64_t value);

  /// Inclusive upper bound of `bucket` (2^bucket - 1); the overflow bucket
  /// has no finite bound and reports INT64_MAX.
  static int64_t BucketUpperBound(int bucket);

  void Observe(int64_t value);
  void MergeFrom(const Histogram& other);

  uint64_t count() const { return count_; }
  int64_t sum() const { return sum_; }
  /// Smallest / largest observed value; 0 when empty.
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return count_ == 0 ? 0 : max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  const std::array<uint64_t, kNumBuckets>& buckets() const { return buckets_; }

  friend bool operator==(const Histogram& a, const Histogram& b) = default;

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

/// A merged, deterministically ordered view of everything a MetricsSink
/// recorded. All maps are std::map so iteration (and thus export) order is
/// the lexicographic (name, partition) order regardless of recording order.
struct MetricsSnapshot {
  /// name -> partition -> value. Partition -1 holds job-level increments.
  std::map<std::string, std::map<int, uint64_t>> counters;
  /// name -> partition -> value (orchestration-set; partition -1 = job).
  std::map<std::string, std::map<int, double>> gauges;
  /// name -> merged histogram (histograms are job-level distributions).
  std::map<std::string, Histogram> histograms;

  /// Sum of one counter over all partitions (0 when absent).
  uint64_t CounterTotal(const std::string& name) const;

  /// One partition's value of a counter (0 when absent).
  uint64_t Counter(const std::string& name, int partition) const;

  /// The merged histogram, or nullptr when never observed.
  const Histogram* FindHistogram(const std::string& name) const;
};

/// Thread-safe, worker-sharded collector for metrics v2. One sink observes
/// one job run. Mirrors the Tracer's threading contract: Count/Observe are
/// safe from any thread (each worker slot owns its shard, per-slot mutex
/// only for the slot-table wrap case); SetGauge and Collect are
/// orchestration-thread-only.
class MetricsSink {
 public:
  MetricsSink();

  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

  /// Adds `delta` to counter `name` labeled with `partition` (-1 = job
  /// level). Safe from any thread. Call sites aggregate locally and count
  /// once per partition, not once per record.
  void Count(const std::string& name, int partition, uint64_t delta = 1);

  /// Records one observation into the job-level histogram `name`. Safe
  /// from any thread.
  void Observe(const std::string& name, int64_t value);

  /// Folds a locally accumulated histogram into `name` in one step — the
  /// bulk form of Observe for call sites that observe many values per
  /// parallel task (e.g. one join probe chain per group). Safe from any
  /// thread.
  void Merge(const std::string& name, const Histogram& local);

  /// Sets gauge `name` for `partition` (last write wins — orchestration
  /// thread only, like Tracer::NextSeq).
  void SetGauge(const std::string& name, int partition, double value);

  /// Merges all shards into deterministic (name, partition) order. Call
  /// after the job finished (not concurrently with Count/Observe).
  MetricsSnapshot Collect() const;

 private:
  struct Slot {
    std::mutex mu;
    std::map<std::pair<std::string, int>, uint64_t> counters;
    std::map<std::string, Histogram> histograms;
  };

  Slot& SlotForThisThread();

  std::vector<std::unique_ptr<Slot>> slots_;
  // Orchestration-thread state (no lock; same discipline as Tracer's seq).
  std::map<std::pair<std::string, int>, double> gauges_;
};

// -------------------------------------------------- metrics v2 exporters --

/// NDJSON export: one {"kind": "iteration"} line per superstep (the
/// registry's series, wall-clock excluded), then {"kind": "counter"} lines
/// per (name, partition) plus a {"kind": "counter_total"} line per name,
/// {"kind": "gauge"} lines, {"kind": "histogram"} lines (non-empty buckets
/// only), and a {"kind": "meta"} trailer. Deterministic: byte-identical at
/// any thread count.
void ExportMetricsNdjson(const MetricsRegistry& registry,
                         const MetricsSnapshot& snapshot, std::ostream& out);

/// Prometheus-style text exposition: counters as
/// `flinkless_<name>{partition="p"} v` samples plus an unlabeled total,
/// histograms as cumulative `_bucket{le="..."}` / `_sum` / `_count`
/// families, gauges as labeled samples, and registry totals
/// (`flinkless_sim_time_ns{charge="..."}`, iteration/message/record
/// totals). Metric names have '.' mapped to '_'. Deterministic.
void ExportMetricsPrometheus(const MetricsRegistry& registry,
                             const MetricsSnapshot& snapshot,
                             std::ostream& out);

/// Collects `sink` and writes `path`; format chosen by extension (".prom"
/// → Prometheus text, anything else → NDJSON).
Status WriteMetricsFile(const MetricsRegistry& registry,
                        const MetricsSink& sink, const std::string& path);

}  // namespace flinkless::runtime

#endif  // FLINKLESS_RUNTIME_METRICS_H_
