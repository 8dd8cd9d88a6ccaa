#include "runtime/metrics.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <fstream>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "runtime/thread_pool.h"

namespace flinkless::runtime {

namespace {

// Worker slots: 0 = orchestration thread, 1..kMaxWorkers = pool workers.
// Ids beyond the table wrap; the per-slot mutex keeps that safe. Matches
// the Tracer's slot table so a worker hits the same shard in both.
constexpr int kWorkerSlots = 257;

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

/// Shortest round-trip decimal form of a double — deterministic for equal
/// values, locale-independent (both exporters compare byte-identical
/// across runs, so iostream formatting is off the table).
std::string FormatDouble(double value) {
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) return "0";
  return std::string(buf, ptr);
}

/// Prometheus metric name: '.' and anything non-alphanumeric become '_'.
std::string PromName(const std::string& name) {
  std::string out = "flinkless_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

double IterationStats::Gauge(const std::string& name, double fallback) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? fallback : it->second;
}

int64_t IterationStats::SimTimeNs() const {
  int64_t total = 0;
  for (int64_t ns : sim_time_by_charge) total += ns;
  return total;
}

void MetricsRegistry::RecordIteration(IterationStats stats) {
  iterations_.push_back(std::move(stats));
}

std::vector<double> MetricsRegistry::GaugeSeries(const std::string& name,
                                                 double fallback) const {
  std::vector<double> out;
  out.reserve(iterations_.size());
  for (const auto& it : iterations_) out.push_back(it.Gauge(name, fallback));
  return out;
}

std::vector<int64_t> MetricsRegistry::ChargeSeries(Charge c) const {
  std::vector<int64_t> out;
  out.reserve(iterations_.size());
  for (const auto& it : iterations_) out.push_back(it.SimTimeOf(c));
  return out;
}

int64_t MetricsRegistry::TotalSimTimeOf(Charge c) const {
  int64_t total = 0;
  for (const auto& it : iterations_) total += it.SimTimeOf(c);
  return total;
}

uint64_t MetricsRegistry::TotalMessages() const {
  uint64_t total = 0;
  for (const auto& it : iterations_) total += it.messages_shuffled;
  return total;
}

uint64_t MetricsRegistry::TotalRecords() const {
  uint64_t total = 0;
  for (const auto& it : iterations_) total += it.records_processed;
  return total;
}

uint64_t MetricsRegistry::TotalCheckpointBytes() const {
  uint64_t total = 0;
  for (const auto& it : iterations_) total += it.bytes_checkpointed;
  return total;
}

// --------------------------------------------------------------- Histogram --

int Histogram::BucketOf(int64_t value) {
  if (value <= 0) return 0;
  const int width = std::bit_width(static_cast<uint64_t>(value));
  return std::min(width, kNumBuckets - 1);
}

int64_t Histogram::BucketUpperBound(int bucket) {
  FLINKLESS_CHECK(bucket >= 0 && bucket < kNumBuckets,
                  "histogram bucket out of range");
  if (bucket == 0) return 0;
  if (bucket == kNumBuckets - 1) return std::numeric_limits<int64_t>::max();
  return (int64_t{1} << bucket) - 1;
}

void Histogram::Observe(int64_t value) {
  ++buckets_[BucketOf(value)];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) return;
  for (int b = 0; b < kNumBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

// --------------------------------------------------------- MetricsSnapshot --

uint64_t MetricsSnapshot::CounterTotal(const std::string& name) const {
  auto it = counters.find(name);
  if (it == counters.end()) return 0;
  uint64_t total = 0;
  for (const auto& [partition, value] : it->second) total += value;
  return total;
}

uint64_t MetricsSnapshot::Counter(const std::string& name,
                                  int partition) const {
  auto it = counters.find(name);
  if (it == counters.end()) return 0;
  auto jt = it->second.find(partition);
  return jt == it->second.end() ? 0 : jt->second;
}

const Histogram* MetricsSnapshot::FindHistogram(const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

// ------------------------------------------------------------- MetricsSink --

MetricsSink::MetricsSink() {
  slots_.reserve(kWorkerSlots);
  for (int i = 0; i < kWorkerSlots; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

MetricsSink::Slot& MetricsSink::SlotForThisThread() {
  int id = ThreadPool::CurrentWorkerId();
  return *slots_[static_cast<size_t>(id) % slots_.size()];
}

void MetricsSink::Count(const std::string& name, int partition,
                        uint64_t delta) {
  Slot& slot = SlotForThisThread();
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.counters[{name, partition}] += delta;
}

void MetricsSink::Observe(const std::string& name, int64_t value) {
  Slot& slot = SlotForThisThread();
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.histograms[name].Observe(value);
}

void MetricsSink::Merge(const std::string& name, const Histogram& local) {
  Slot& slot = SlotForThisThread();
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.histograms[name].MergeFrom(local);
}

void MetricsSink::SetGauge(const std::string& name, int partition,
                           double value) {
  gauges_[{name, partition}] = value;
}

MetricsSnapshot MetricsSink::Collect() const {
  MetricsSnapshot snapshot;
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    for (const auto& [key, value] : slot->counters) {
      snapshot.counters[key.first][key.second] += value;
    }
    for (const auto& [name, hist] : slot->histograms) {
      snapshot.histograms[name].MergeFrom(hist);
    }
  }
  for (const auto& [key, value] : gauges_) {
    snapshot.gauges[key.first][key.second] = value;
  }
  return snapshot;
}

// --------------------------------------------------------------- exporters --

void ExportMetricsNdjson(const MetricsRegistry& registry,
                         const MetricsSnapshot& snapshot, std::ostream& out) {
  // Per-iteration series. wall_time_ns is deliberately absent: every field
  // on these lines is deterministic, so the whole export diffs clean
  // across thread counts.
  for (const IterationStats& it : registry.iterations()) {
    out << "{\"kind\": \"iteration\", \"iteration\": " << it.iteration
        << ", \"records_processed\": " << it.records_processed
        << ", \"messages_shuffled\": " << it.messages_shuffled
        << ", \"bytes_checkpointed\": " << it.bytes_checkpointed
        << ", \"failure_injected\": " << (it.failure_injected ? "true" : "false")
        << ", \"sim_time_ns\": " << it.SimTimeNs()
        << ", \"sim_time_by_charge\": {";
    for (int c = 0; c < kNumCharges; ++c) {
      if (c > 0) out << ", ";
      out << "\"" << ChargeName(static_cast<Charge>(c))
          << "\": " << it.sim_time_by_charge[c];
    }
    out << "}, \"spills\": " << it.spills << ", \"unspills\": " << it.unspills
        << ", \"spilled_bytes\": " << it.spilled_bytes
        << ", \"peak_resident_bytes\": " << it.peak_resident_bytes
        << ", \"gauges\": {";
    bool first = true;
    for (const auto& [name, value] : it.gauges) {
      if (!first) out << ", ";
      first = false;
      out << "\"" << JsonEscape(name) << "\": " << FormatDouble(value);
    }
    out << "}}\n";
  }

  // Counter families: per-partition samples, then the job total per name.
  for (const auto& [name, by_partition] : snapshot.counters) {
    uint64_t total = 0;
    for (const auto& [partition, value] : by_partition) {
      total += value;
      out << "{\"kind\": \"counter\", \"name\": \"" << JsonEscape(name)
          << "\", \"partition\": " << partition << ", \"value\": " << value
          << "}\n";
    }
    out << "{\"kind\": \"counter_total\", \"name\": \"" << JsonEscape(name)
        << "\", \"value\": " << total << "}\n";
  }

  for (const auto& [name, by_partition] : snapshot.gauges) {
    for (const auto& [partition, value] : by_partition) {
      out << "{\"kind\": \"gauge\", \"name\": \"" << JsonEscape(name)
          << "\", \"partition\": " << partition
          << ", \"value\": " << FormatDouble(value) << "}\n";
    }
  }

  for (const auto& [name, hist] : snapshot.histograms) {
    out << "{\"kind\": \"histogram\", \"name\": \"" << JsonEscape(name)
        << "\", \"count\": " << hist.count() << ", \"sum\": " << hist.sum()
        << ", \"min\": " << hist.min() << ", \"max\": " << hist.max()
        << ", \"buckets\": [";
    bool first = true;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      if (hist.buckets()[b] == 0) continue;
      if (!first) out << ", ";
      first = false;
      out << "{\"le\": ";
      if (b == Histogram::kNumBuckets - 1) {
        out << "\"+Inf\"";
      } else {
        out << Histogram::BucketUpperBound(b);
      }
      out << ", \"count\": " << hist.buckets()[b] << "}";
    }
    out << "]}\n";
  }

  out << "{\"kind\": \"meta\", \"iterations\": " << registry.iterations().size()
      << ", \"counter_families\": " << snapshot.counters.size()
      << ", \"gauge_families\": " << snapshot.gauges.size()
      << ", \"histogram_families\": " << snapshot.histograms.size() << "}\n";
}

void ExportMetricsPrometheus(const MetricsRegistry& registry,
                             const MetricsSnapshot& snapshot,
                             std::ostream& out) {
  for (const auto& [name, by_partition] : snapshot.counters) {
    const std::string prom = PromName(name);
    out << "# TYPE " << prom << " counter\n";
    uint64_t total = 0;
    for (const auto& [partition, value] : by_partition) {
      total += value;
      if (partition < 0) continue;  // folded into the unlabeled total
      out << prom << "{partition=\"" << partition << "\"} " << value << "\n";
    }
    out << prom << " " << total << "\n";
  }

  for (const auto& [name, by_partition] : snapshot.gauges) {
    const std::string prom = PromName(name);
    out << "# TYPE " << prom << " gauge\n";
    for (const auto& [partition, value] : by_partition) {
      if (partition < 0) {
        out << prom << " " << FormatDouble(value) << "\n";
      } else {
        out << prom << "{partition=\"" << partition << "\"} "
            << FormatDouble(value) << "\n";
      }
    }
  }

  for (const auto& [name, hist] : snapshot.histograms) {
    const std::string prom = PromName(name);
    out << "# TYPE " << prom << " histogram\n";
    uint64_t cumulative = 0;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      cumulative += hist.buckets()[b];
      // Prometheus wants the full cumulative ladder, but 33 fixed buckets
      // would dwarf the data; emit a rung only where the count advanced,
      // plus the mandatory +Inf.
      if (hist.buckets()[b] == 0 && b != Histogram::kNumBuckets - 1) continue;
      out << prom << "_bucket{le=\"";
      if (b == Histogram::kNumBuckets - 1) {
        out << "+Inf";
      } else {
        out << Histogram::BucketUpperBound(b);
      }
      out << "\"} " << cumulative << "\n";
    }
    out << prom << "_sum " << hist.sum() << "\n";
    out << prom << "_count " << hist.count() << "\n";
  }

  // Registry roll-ups: the totals the bench harnesses quote.
  out << "# TYPE flinkless_sim_time_ns counter\n";
  int64_t sim_total = 0;
  for (int c = 0; c < kNumCharges; ++c) {
    const int64_t ns = registry.TotalSimTimeOf(static_cast<Charge>(c));
    sim_total += ns;
    out << "flinkless_sim_time_ns{charge=\""
        << ChargeName(static_cast<Charge>(c)) << "\"} " << ns << "\n";
  }
  out << "flinkless_sim_time_ns " << sim_total << "\n";
  out << "# TYPE flinkless_iterations_total counter\n";
  out << "flinkless_iterations_total " << registry.iterations().size() << "\n";
  out << "# TYPE flinkless_messages_total counter\n";
  out << "flinkless_messages_total " << registry.TotalMessages() << "\n";
  out << "# TYPE flinkless_records_total counter\n";
  out << "flinkless_records_total " << registry.TotalRecords() << "\n";
  out << "# TYPE flinkless_checkpoint_bytes_total counter\n";
  out << "flinkless_checkpoint_bytes_total " << registry.TotalCheckpointBytes()
      << "\n";
}

Status WriteMetricsFile(const MetricsRegistry& registry,
                        const MetricsSink& sink, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open metrics file '" + path + "'");
  }
  MetricsSnapshot snapshot = sink.Collect();
  constexpr const char kProm[] = ".prom";
  const bool prom =
      path.size() >= sizeof(kProm) - 1 &&
      path.compare(path.size() - (sizeof(kProm) - 1), sizeof(kProm) - 1,
                   kProm) == 0;
  if (prom) {
    ExportMetricsPrometheus(registry, snapshot, out);
  } else {
    ExportMetricsNdjson(registry, snapshot, out);
  }
  if (!out) {
    return Status::IOError("failed writing metrics file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace flinkless::runtime
