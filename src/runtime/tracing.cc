#include "runtime/tracing.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <set>

#include "common/logging.h"
#include "runtime/thread_pool.h"

namespace flinkless::runtime {

namespace {

// Worker slots: 0 = orchestration thread, 1..kMaxWorkers = pool workers.
// Worker ids beyond the table wrap; the per-slot mutex keeps that safe.
constexpr int kWorkerSlots = 257;

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Microseconds with fixed millis precision, as Chrome's "ts"/"dur" expect.
std::string Micros(int64_t ns) {
  int64_t thousandths = ns;  // ns = thousandths of a microsecond
  std::string sign = thousandths < 0 ? "-" : "";
  if (thousandths < 0) thousandths = -thousandths;
  return sign + std::to_string(thousandths / 1000) + "." +
         [](int64_t frac) {
           std::string s = std::to_string(frac);
           return std::string(3 - s.size(), '0') + s;
         }(thousandths % 1000);
}

void WriteArgsJson(const TraceEvent& e, std::ostream& out) {
  out << "{\"partition\": " << e.partition
      << ", \"iteration\": " << e.iteration
      << ", \"sim_ts_ns\": " << e.sim_ts_ns
      << ", \"sim_dur_ns\": " << e.sim_dur_ns;
  for (const auto& [key, value] : e.args) {
    out << ", \"" << JsonEscape(key) << "\": " << value;
  }
  out << "}";
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOperator:
      return "operator";
    case SpanKind::kShuffleScatter:
      return "shuffle.scatter";
    case SpanKind::kShuffleGather:
      return "shuffle.gather";
    case SpanKind::kIteration:
      return "iteration";
    case SpanKind::kSolutionUpdate:
      return "solution.update";
    case SpanKind::kCheckpoint:
      return "checkpoint";
    case SpanKind::kCompensation:
      return "compensation";
    case SpanKind::kCacheSpill:
      return "cache.spill";
    case SpanKind::kCacheUnspill:
      return "cache.unspill";
    case SpanKind::kMessageLogAppend:
      return "msglog.append";
    case SpanKind::kMessageLogReplay:
      return "msglog.replay";
    case SpanKind::kServerPublish:
      return "server.publish";
  }
  return "?";
}

const char* InstantKindName(InstantKind kind) {
  switch (kind) {
    case InstantKind::kFailureInjected:
      return "failure.injected";
    case InstantKind::kPartitionLost:
      return "partition.lost";
    case InstantKind::kConvergenceReached:
      return "convergence.reached";
  }
  return "?";
}

int64_t TraceEvent::Arg(const std::string& key, int64_t fallback) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return fallback;
}

bool TraceEventBefore(const TraceEvent& a, const TraceEvent& b) {
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.partition + 1 < b.partition + 1;
}

// ---------------------------------------------------------------- Tracer --

Tracer::Tracer() : Tracer(Options()) {}

Tracer::Tracer(Options options)
    : options_(options), wall_origin_ns_(SteadyNowNs()) {
  if (options_.per_worker_capacity == 0) options_.per_worker_capacity = 1;
  slots_.reserve(kWorkerSlots);
  for (int i = 0; i < kWorkerSlots; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

int64_t Tracer::NowNs() const { return SteadyNowNs() - wall_origin_ns_; }

void Tracer::PopOpenSpan(uint64_t seq) {
  FLINKLESS_CHECK(!open_spans_.empty() && open_spans_.back() == seq,
                  "trace spans must close in reverse open order");
  open_spans_.pop_back();
}

void Tracer::Instant(InstantKind kind, int partition,
                     std::vector<std::pair<std::string, int64_t>> args) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kInstant;
  e.category = InstantKindName(kind);
  e.name = e.category;
  e.wall_ts_ns = NowNs();
  e.sim_ts_ns = SimNowNs();
  e.partition = partition;
  e.worker = ThreadPool::CurrentWorkerId();
  e.iteration = iteration_;
  e.seq = NextSeq();
  e.parent_seq = current_parent();
  e.args = std::move(args);
  Record(std::move(e));
}

Tracer::Slot& Tracer::SlotForThisThread() {
  int id = ThreadPool::CurrentWorkerId();
  return *slots_[static_cast<size_t>(id) % slots_.size()];
}

void Tracer::Record(TraceEvent event) {
  Slot& slot = SlotForThisThread();
  std::lock_guard<std::mutex> lock(slot.mu);
  ++slot.recorded;
  if (slot.ring.size() < options_.per_worker_capacity) {
    slot.ring.push_back(std::move(event));
  } else {
    // Ring overwrite: keep the newest events, evict the oldest.
    slot.ring[slot.next] = std::move(event);
    slot.next = (slot.next + 1) % slot.ring.size();
  }
}

Tracer::Snapshot Tracer::Flush() const {
  Snapshot snapshot;
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    snapshot.events.insert(snapshot.events.end(), slot->ring.begin(),
                           slot->ring.end());
    snapshot.dropped += slot->recorded - slot->ring.size();
  }
  std::stable_sort(snapshot.events.begin(), snapshot.events.end(),
                   TraceEventBefore);
  return snapshot;
}

uint64_t Tracer::dropped_events() const {
  uint64_t dropped = 0;
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    dropped += slot->recorded - slot->ring.size();
  }
  return dropped;
}

// -------------------------------------------------------------- TraceSpan --

TraceSpan::TraceSpan(Tracer* tracer, SpanKind kind, std::string name,
                     int partition)
    : tracer_(tracer), kind_(kind) {
  if (tracer_ == nullptr) return;
  event_.kind = TraceEvent::Kind::kSpan;
  event_.category = SpanKindName(kind);
  event_.name = std::move(name);
  event_.partition = partition;
  event_.worker = ThreadPool::CurrentWorkerId();
  event_.iteration = tracer_->iteration();
  event_.seq = tracer_->NextSeq();
  event_.parent_seq = tracer_->current_parent();
  tracer_->PushOpenSpan(event_.seq);
  event_.sim_ts_ns = tracer_->SimNowNs();
  event_.wall_ts_ns = tracer_->NowNs();
}

void TraceSpan::AddArg(std::string key, int64_t value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(std::move(key), value);
}

void TraceSpan::Close() {
  if (tracer_ == nullptr) return;
  event_.wall_dur_ns = tracer_->NowNs() - event_.wall_ts_ns;
  event_.sim_dur_ns = tracer_->SimNowNs() - event_.sim_ts_ns;
  tracer_->PopOpenSpan(event_.seq);
  tracer_->Record(std::move(event_));
  tracer_ = nullptr;
}

void TraceSpan::Cancel() {
  if (tracer_ == nullptr) return;
  tracer_->PopOpenSpan(event_.seq);
  tracer_ = nullptr;
}

void TracedParallelFor(ThreadPool* pool, const TraceSpan& parent, int count,
                       const std::function<void(int)>& fn,
                       const std::function<int64_t(int)>& records_of) {
  if (!parent.active()) {
    ParallelFor(pool, count, fn);
    return;
  }
  Tracer* tracer = parent.tracer();
  // Allocated here, on the orchestration thread, so the per-partition
  // spans sort deterministically no matter which workers record them.
  const uint64_t loop_seq = tracer->NextSeq();
  const uint64_t parent_seq = parent.seq();
  const int iteration = parent.iteration();
  const int64_t sim_ts = tracer->SimNowNs();
  const char* category = SpanKindName(parent.kind());
  const std::string& name = parent.name();
  ParallelFor(pool, count, [&](int p) {
    TraceEvent e;
    e.kind = TraceEvent::Kind::kSpan;
    e.category = category;
    e.name = name;
    e.partition = p;
    e.worker = ThreadPool::CurrentWorkerId();
    e.iteration = iteration;
    e.seq = loop_seq;
    e.parent_seq = parent_seq;
    // Workers never touch the SimClock; charges happen on the
    // orchestration thread after the section, so the parent's timestamp
    // is the right attribution.
    e.sim_ts_ns = sim_ts;
    e.wall_ts_ns = tracer->NowNs();
    fn(p);
    e.wall_dur_ns = tracer->NowNs() - e.wall_ts_ns;
    if (records_of) e.args.emplace_back("records", records_of(p));
    tracer->Record(std::move(e));
  });
}

// -------------------------------------------------------------- exporters --

void ExportChromeTrace(const Tracer::Snapshot& snapshot, std::ostream& out) {
  out << "{\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  // Thread-name metadata so Perfetto labels the worker tracks.
  std::set<int> workers;
  for (const TraceEvent& e : snapshot.events) workers.insert(e.worker);
  for (int w : workers) {
    sep();
    out << "{\"ph\": \"M\", \"pid\": 0, \"tid\": " << w
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
        << (w == 0 ? std::string("driver")
                   : "worker-" + std::to_string(w))
        << "\"}}";
  }
  for (const TraceEvent& e : snapshot.events) {
    sep();
    out << "{\"name\": \"" << JsonEscape(e.name) << "\", \"cat\": \""
        << JsonEscape(e.category) << "\", \"ph\": \""
        << (e.kind == TraceEvent::Kind::kSpan ? "X" : "i")
        << "\", \"ts\": " << Micros(e.wall_ts_ns);
    if (e.kind == TraceEvent::Kind::kSpan) {
      out << ", \"dur\": " << Micros(e.wall_dur_ns);
    } else {
      out << ", \"s\": \"g\"";
    }
    out << ", \"pid\": 0, \"tid\": " << e.worker << ", \"args\": ";
    WriteArgsJson(e, out);
    out << "}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {"
      << "\"dropped_events\": \"" << snapshot.dropped << "\"}}\n";
}

void ExportNdjson(const Tracer::Snapshot& snapshot, std::ostream& out) {
  for (const TraceEvent& e : snapshot.events) {
    out << "{\"kind\": \""
        << (e.kind == TraceEvent::Kind::kSpan ? "span" : "instant")
        << "\", \"cat\": \"" << JsonEscape(e.category) << "\", \"name\": \""
        << JsonEscape(e.name) << "\", \"seq\": " << e.seq
        << ", \"parent_seq\": " << e.parent_seq
        << ", \"partition\": " << e.partition << ", \"worker\": " << e.worker
        << ", \"iteration\": " << e.iteration
        << ", \"wall_ts_ns\": " << e.wall_ts_ns
        << ", \"wall_dur_ns\": " << e.wall_dur_ns
        << ", \"sim_ts_ns\": " << e.sim_ts_ns
        << ", \"sim_dur_ns\": " << e.sim_dur_ns << ", \"args\": {";
    bool first = true;
    for (const auto& [key, value] : e.args) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(key) << "\": " << value;
    }
    out << "}}\n";
  }
  out << "{\"kind\": \"meta\", \"total_events\": " << snapshot.events.size()
      << ", \"dropped_events\": " << snapshot.dropped << "}\n";
}

Status WriteTraceFile(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open trace file '" + path + "'");
  }
  Tracer::Snapshot snapshot = tracer.Flush();
  constexpr const char kNdjson[] = ".ndjson";
  const bool ndjson =
      path.size() >= sizeof(kNdjson) - 1 &&
      path.compare(path.size() - (sizeof(kNdjson) - 1), sizeof(kNdjson) - 1,
                   kNdjson) == 0;
  if (ndjson) {
    ExportNdjson(snapshot, out);
  } else {
    ExportChromeTrace(snapshot, out);
  }
  if (!out) {
    return Status::IOError("failed writing trace file '" + path + "'");
  }
  return Status::OK();
}

// ---------------------------------------------------------------- summary --

double TraceOperatorSummary::SkewRatio() const {
  uint64_t total = 0;
  uint64_t max = 0;
  for (uint64_t r : partition_records) {
    total += r;
    max = std::max(max, r);
  }
  if (partition_records.empty() || total == 0) return 1.0;
  double mean =
      static_cast<double>(total) / static_cast<double>(partition_records.size());
  return static_cast<double>(max) / mean;
}

TraceSummary TraceSummary::FromSnapshot(const Tracer::Snapshot& snapshot) {
  TraceSummary summary;
  summary.total_events = snapshot.events.size();
  summary.dropped_events = snapshot.dropped;

  std::map<std::string, TraceOperatorSummary> operators;
  std::map<std::string, uint64_t> instants;
  // seq of job-level operator spans → operator name, for attributing
  // per-partition children and nested shuffle phases.
  std::map<uint64_t, std::string> operator_of_seq;

  for (const TraceEvent& e : snapshot.events) {
    if (e.kind == TraceEvent::Kind::kInstant) {
      ++summary.instant_events;
      ++instants[e.name];
      continue;
    }
    ++summary.span_events;
    if (e.category == SpanKindName(SpanKind::kIteration)) {
      ++summary.iteration_spans;
    }
    if (e.category != SpanKindName(SpanKind::kOperator)) {
      // Shuffle phases attribute their messages to the enclosing operator:
      // a shuffle's route, or a pre-combined channel's gather.
      if ((e.category == SpanKindName(SpanKind::kShuffleScatter) ||
           e.category == SpanKindName(SpanKind::kShuffleGather)) &&
          e.partition < 0) {
        auto it = operator_of_seq.find(e.parent_seq);
        if (it != operator_of_seq.end()) {
          operators[it->second].messages +=
              static_cast<uint64_t>(e.Arg("messages"));
        }
      }
      // Job-level non-operator children count against the parent's self
      // time below (via operator_of_seq when the parent is an operator).
      if (e.partition < 0) {
        auto it = operator_of_seq.find(e.parent_seq);
        if (it != operator_of_seq.end()) {
          operators[it->second].wall_self_ns -= e.wall_dur_ns;
        }
      }
      continue;
    }
    TraceOperatorSummary& op = operators[e.name];
    op.name = e.name;
    if (e.partition < 0) {
      // Job-level operator span.
      ++op.spans;
      op.wall_total_ns += e.wall_dur_ns;
      op.wall_self_ns += e.wall_dur_ns;
      op.sim_total_ns += e.sim_dur_ns;
      op.records_in += static_cast<uint64_t>(e.Arg("records_in"));
      op.records_out += static_cast<uint64_t>(e.Arg("records_out"));
      // A broadcast's messages, which no shuffle span carries.
      op.messages += static_cast<uint64_t>(e.Arg("messages"));
      operator_of_seq[e.seq] = e.name;
    } else {
      // Per-partition child span: accumulate the skew observation.
      if (op.partition_records.size() <= static_cast<size_t>(e.partition)) {
        op.partition_records.resize(e.partition + 1, 0);
      }
      op.partition_records[e.partition] +=
          static_cast<uint64_t>(e.Arg("records"));
      // Nested operator spans (a job-level operator inside another) would
      // be rare; per-partition spans overlap in wall time, so they do not
      // subtract from self time.
    }
  }

  for (auto& [name, op] : operators) {
    if (op.wall_self_ns < 0) op.wall_self_ns = 0;
    summary.operators.push_back(std::move(op));
  }
  for (auto& [name, count] : instants) {
    summary.instants.emplace_back(name, count);
  }
  return summary;
}

const TraceOperatorSummary* TraceSummary::Find(const std::string& name) const {
  for (const TraceOperatorSummary& op : operators) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

uint64_t TraceSummary::InstantCount(const std::string& name) const {
  for (const auto& [n, count] : instants) {
    if (n == name) return count;
  }
  return 0;
}

}  // namespace flinkless::runtime
