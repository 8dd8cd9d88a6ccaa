// Structured tracing: typed spans and instant events for every run.
//
// The paper's demo is an observability artifact — its GUI exists to show
// iteration progress, injected failures, and compensation-based recovery as
// they happen (§3.1). The Tracer records where *inside* an iteration time
// and messages go: per-operator and per-partition spans, shuffle phases,
// checkpoint/compensation work, and instant events for failures and
// convergence. Traces export as Chrome trace_event JSON (loadable in
// chrome://tracing or Perfetto) or flat NDJSON for scripting, and aggregate
// into a TraceSummary that benches and tests assert on.
//
// Contract (see DESIGN.md §8):
//  * Zero-cost when disabled: every call site guards on a plain pointer;
//    a null Tracer* costs one branch, no virtual dispatch, no allocation.
//  * Tracing never changes behaviour: the Tracer only *reads* the SimClock,
//    so outputs, ExecStats, and simulated-time charges are byte-identical
//    with tracing on or off, at any thread count.
//  * Thread-safe and deterministic: events land in per-worker ring buffers
//    (bounded memory, evictions counted); Flush() merges them by a
//    deterministic key — sequence numbers allocated on the orchestration
//    thread, then partition index — so the merged event list is identical
//    for every num_threads. Only wall-clock fields and worker ids vary.

#ifndef FLINKLESS_RUNTIME_TRACING_H_
#define FLINKLESS_RUNTIME_TRACING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "runtime/sim_clock.h"

namespace flinkless::runtime {

class ThreadPool;

/// What a span measures. Stable category strings (SpanKindName) appear in
/// both export formats.
enum class SpanKind : int {
  kOperator = 0,       // one dataflow operator (or one partition of it)
  kShuffleScatter,     // shuffle route: each source buckets rows by target
  kShuffleGather,      // shuffle gather: each target collects its buckets
  kIteration,          // one superstep of an iterative job
  kSolutionUpdate,     // partition-parallel solution-set delta application
  kCheckpoint,         // checkpoint I/O performed by a policy
  kCompensation,       // recovery action after a failure (OnFailure)
  kCacheSpill,         // budget eviction: cached artifact written to storage
  kCacheUnspill,       // spilled artifact read back and rebuilt on access
  kMessageLogAppend,   // outbound message log: one shuffled channel recorded
  kMessageLogReplay,   // confined recovery: logged messages replayed into
                       // the lost partitions
  kServerPublish,      // job server: epoch published into a read view
};

/// Stable category name of a span kind ("operator", "shuffle.scatter", ...).
const char* SpanKindName(SpanKind kind);

/// A point event on the recovery timeline.
enum class InstantKind : int {
  kFailureInjected = 0,  // a FailureSchedule event fired
  kPartitionLost,        // one partition's state was destroyed (per partition)
  kConvergenceReached,   // the job's convergence criterion held
};

/// Stable name of an instant kind ("failure.injected", ...).
const char* InstantKindName(InstantKind kind);

/// One recorded event. Spans are recorded complete (at close, with
/// duration); instants have zero duration.
struct TraceEvent {
  enum class Kind : int { kSpan = 0, kInstant = 1 };

  Kind kind = Kind::kSpan;
  /// Category string: SpanKindName / InstantKindName value.
  std::string category;
  /// Display name (operator name, policy name, instant name).
  std::string name;

  /// Wall-clock start (span) or moment (instant), ns since the tracer was
  /// constructed. Nondeterministic; excluded from determinism comparisons.
  int64_t wall_ts_ns = 0;
  int64_t wall_dur_ns = 0;

  /// SimClock::TotalNs() at open / accumulated while open (0 without a
  /// clock). Deterministic.
  int64_t sim_ts_ns = 0;
  int64_t sim_dur_ns = 0;

  /// Partition the event is attributed to; -1 = job-level.
  int partition = -1;
  /// Worker slot that recorded the event (0 = orchestration thread,
  /// 1..N = pool workers). Nondeterministic across thread counts.
  int worker = 0;
  /// Superstep the event belongs to (0 = job setup).
  int iteration = 0;

  /// Deterministic ordering key, allocated on the orchestration thread.
  /// Per-partition spans of one parallel section share a seq and are
  /// distinguished by `partition`.
  uint64_t seq = 0;
  /// seq of the enclosing recorded span (0 = root).
  uint64_t parent_seq = 0;

  /// Numeric payload (record/message/byte counts), insertion-ordered.
  std::vector<std::pair<std::string, int64_t>> args;

  /// Value of an arg, or `fallback` when absent.
  int64_t Arg(const std::string& key, int64_t fallback = 0) const;
};

/// The deterministic total order Flush() merges events into:
/// (seq, partition+1), i.e. a parent span precedes its per-partition
/// children, which appear in partition order.
bool TraceEventBefore(const TraceEvent& a, const TraceEvent& b);

/// Bounded, thread-safe event recorder. One Tracer observes one job run.
///
/// Threading: NextSeq(), the span stack, and set_iteration are
/// orchestration-thread-only (the thread that drives the executor).
/// Record() may be called from any pool worker; each worker slot owns a
/// ring buffer, so recording never contends across workers.
class Tracer {
 public:
  struct Options {
    /// Ring capacity per worker slot; the oldest events are evicted (and
    /// counted) beyond this.
    size_t per_worker_capacity = 1 << 15;
    /// Optional simulated clock for sim timestamps. Read-only.
    const SimClock* clock = nullptr;
  };

  /// A merged, deterministically ordered view of everything recorded.
  struct Snapshot {
    std::vector<TraceEvent> events;
    /// Events evicted by ring-buffer overflow (they are missing above).
    uint64_t dropped = 0;
  };

  Tracer();
  explicit Tracer(Options options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const SimClock* clock() const { return options_.clock; }

  /// Wall ns since construction.
  int64_t NowNs() const;

  /// Simulated ns so far (0 without a clock).
  int64_t SimNowNs() const {
    return options_.clock != nullptr ? options_.clock->TotalNs() : 0;
  }

  /// Allocates the next deterministic sequence number. Orchestration
  /// thread only.
  uint64_t NextSeq() { return next_seq_++; }

  /// Tags subsequent events with the superstep being executed.
  /// Orchestration thread only.
  void set_iteration(int iteration) { iteration_ = iteration; }
  int iteration() const { return iteration_; }

  /// seq of the innermost open span (0 when none). Orchestration thread.
  uint64_t current_parent() const {
    return open_spans_.empty() ? 0 : open_spans_.back();
  }
  void PushOpenSpan(uint64_t seq) { open_spans_.push_back(seq); }
  void PopOpenSpan(uint64_t seq);

  /// Records an instant event at the current timeline position.
  /// Orchestration thread only (allocates a seq).
  void Instant(InstantKind kind, int partition = -1,
               std::vector<std::pair<std::string, int64_t>> args = {});

  /// Appends one finished event; safe from any thread.
  void Record(TraceEvent event);

  /// Merges the per-worker buffers into deterministic order. Call after
  /// the traced job finished (not concurrently with Record from workers).
  Snapshot Flush() const;

  /// Total events evicted so far across all worker slots.
  uint64_t dropped_events() const;

 private:
  struct Slot {
    std::mutex mu;
    std::vector<TraceEvent> ring;  // wraps at per_worker_capacity
    size_t next = 0;               // write cursor once the ring is full
    uint64_t recorded = 0;         // events ever recorded into this slot
  };

  Slot& SlotForThisThread();

  Options options_;
  int64_t wall_origin_ns_ = 0;

  // Orchestration-thread state.
  uint64_t next_seq_ = 1;
  int iteration_ = 0;
  std::vector<uint64_t> open_spans_;

  std::vector<std::unique_ptr<Slot>> slots_;
};

/// RAII span. Construct with a null tracer for a no-op (the disabled path
/// is a single branch). Opens on construction on the orchestration thread,
/// records itself on Close()/destruction.
class TraceSpan {
 public:
  /// Inactive span (records nothing).
  TraceSpan() = default;

  TraceSpan(Tracer* tracer, SpanKind kind, std::string name,
            int partition = -1);
  ~TraceSpan() { Close(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return tracer_ != nullptr; }
  Tracer* tracer() const { return tracer_; }
  uint64_t seq() const { return event_.seq; }
  SpanKind kind() const { return kind_; }
  const std::string& name() const { return event_.name; }
  int iteration() const { return event_.iteration; }
  int64_t sim_start_ns() const { return event_.sim_ts_ns; }

  /// Attaches a numeric arg; no-op when inactive.
  void AddArg(std::string key, int64_t value);

  /// Records the span now (idempotent; the destructor calls this).
  void Close();

  /// Discards the span without recording it (e.g. a checkpoint span that
  /// turned out to write zero bytes).
  void Cancel();

 private:
  Tracer* tracer_ = nullptr;
  SpanKind kind_ = SpanKind::kOperator;
  TraceEvent event_;
};

/// ParallelFor that records one per-partition child span of `parent` for
/// every index, tagged with the worker slot that ran it — this is what
/// makes pool utilization and partition skew visible. Degrades to a plain
/// ParallelFor when `parent` is inactive. `records_of(i)`, when provided,
/// is evaluated *after* fn(i) (a chained section learns its input rows by
/// running) and becomes the "records" arg of span i; a fn that consumes
/// its input must leave records_of's answer intact. Span i is recorded
/// against partition i.
void TracedParallelFor(ThreadPool* pool, const TraceSpan& parent, int count,
                       const std::function<void(int)>& fn,
                       const std::function<int64_t(int)>& records_of = {});

// ----------------------------------------------------------- exporters --

/// Chrome trace_event JSON ("traceEvents" array of "X"/"i" phases plus
/// thread-name metadata), loadable in chrome://tracing and Perfetto.
/// Timestamps are wall-clock microseconds; sim times ride along as args.
void ExportChromeTrace(const Tracer::Snapshot& snapshot, std::ostream& out);

/// Flat NDJSON: one JSON object per event line, then one {"kind":"meta"}
/// trailer with event/drop totals. For jq/Python scripting.
void ExportNdjson(const Tracer::Snapshot& snapshot, std::ostream& out);

/// Flushes `tracer` and writes `path`; format chosen by extension
/// (".ndjson" → NDJSON, anything else → Chrome JSON).
Status WriteTraceFile(const Tracer& tracer, const std::string& path);

// ------------------------------------------------------------- summary --

/// Per-operator aggregate over a snapshot.
struct TraceOperatorSummary {
  std::string name;
  /// Job-level spans of this operator (= times it executed).
  uint64_t spans = 0;
  /// Wall time of the operator spans.
  int64_t wall_total_ns = 0;
  /// wall_total_ns minus job-level child spans (shuffle phases, nested
  /// operators) — time spent in the operator itself.
  int64_t wall_self_ns = 0;
  /// Simulated time charged while the operator spans were open.
  int64_t sim_total_ns = 0;
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  /// Messages this operator sent: its shuffles' (the `messages` arg of a
  /// job-level shuffle span under it) and its broadcasts' (the arg on its
  /// own span).
  uint64_t messages = 0;
  /// Records processed per partition (from per-partition child spans).
  std::vector<uint64_t> partition_records;

  /// max/mean of partition_records — 1.0 is perfectly balanced, higher is
  /// skewed. 1.0 when no per-partition data was recorded.
  double SkewRatio() const;
};

/// Aggregation of a snapshot that benches and tests assert on.
struct TraceSummary {
  std::vector<TraceOperatorSummary> operators;  // sorted by name
  uint64_t total_events = 0;
  uint64_t span_events = 0;
  uint64_t instant_events = 0;
  uint64_t dropped_events = 0;
  /// Instant occurrences by name ("failure.injected" → 2, ...).
  std::vector<std::pair<std::string, uint64_t>> instants;
  /// Iteration spans observed (= supersteps traced).
  uint64_t iteration_spans = 0;

  static TraceSummary FromSnapshot(const Tracer::Snapshot& snapshot);

  const TraceOperatorSummary* Find(const std::string& name) const;
  uint64_t InstantCount(const std::string& name) const;
};

}  // namespace flinkless::runtime

#endif  // FLINKLESS_RUNTIME_TRACING_H_
