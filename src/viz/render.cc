#include "viz/render.h"

#include <algorithm>
#include <cstdio>

#include "algos/datasets.h"
#include "common/strings.h"

namespace flinkless::viz {

namespace {
// Eight distinguishable ANSI foreground colors (bright variants).
constexpr int kPaletteSize = 8;
const char* kAnsiCodes[kPaletteSize] = {
    "\x1b[91m", "\x1b[92m", "\x1b[93m", "\x1b[94m",
    "\x1b[95m", "\x1b[96m", "\x1b[97m", "\x1b[90m",
};
constexpr const char* kAnsiReset = "\x1b[0m";
}  // namespace

int ColorAssigner::ColorOf(int64_t label) {
  auto it = colors_.find(label);
  if (it != colors_.end()) return it->second;
  int color = static_cast<int>(colors_.size()) % kPaletteSize;
  colors_.emplace(label, color);
  return color;
}

std::string ColorAssigner::Wrap(int64_t label, const std::string& text) {
  int color = ColorOf(label);
  if (!use_ansi_) return text;
  return std::string(kAnsiCodes[color]) + text + kAnsiReset;
}

std::string RenderComponents(const ComponentsFrame& frame,
                             ColorAssigner* colors) {
  std::string out = "iteration " + std::to_string(frame.iteration);
  if (frame.failure) out += "  ** FAILURE + COMPENSATION **";
  out += "\n";

  // Group vertices by current label.
  std::map<int64_t, std::vector<int64_t>> components;
  for (size_t v = 0; v < frame.labels.size(); ++v) {
    components[frame.labels[v]].push_back(static_cast<int64_t>(v));
  }
  out += "  components: " + std::to_string(components.size()) + "\n";
  for (const auto& [label, vertices] : components) {
    std::string line = "  [" + std::to_string(label) + "] ";
    for (int64_t v : vertices) {
      std::string cell = std::to_string(v);
      if (frame.lost_vertices.count(v) > 0) cell += "!";
      line += colors->Wrap(label, cell) + " ";
    }
    out += line + "\n";
  }
  if (frame.converged_vertices >= 0) {
    out += "  converged to final component: " +
           std::to_string(frame.converged_vertices) + "/" +
           std::to_string(frame.labels.size()) + "\n";
  }
  out += "  messages this iteration: " + std::to_string(frame.messages) +
         "\n";
  return out;
}

std::string RenderRanks(const RanksFrame& frame, int bar_width) {
  std::string out = "iteration " + std::to_string(frame.iteration);
  if (frame.failure) out += "  ** FAILURE + COMPENSATION **";
  out += "\n";
  double max_rank = 0;
  for (double r : frame.ranks) max_rank = std::max(max_rank, r);
  if (max_rank <= 0) max_rank = 1;
  for (size_t v = 0; v < frame.ranks.size(); ++v) {
    int width = static_cast<int>(frame.ranks[v] / max_rank * bar_width + 0.5);
    char prefix[48];
    std::snprintf(prefix, sizeof(prefix), "  v%-3zu %8.5f ", v,
                  frame.ranks[v]);
    out += prefix;
    out += std::string(std::max(width, frame.ranks[v] > 0 ? 1 : 0), '#');
    if (frame.lost_vertices.count(static_cast<int64_t>(v)) > 0) out += " !";
    out += "\n";
  }
  if (frame.converged_vertices >= 0) {
    out += "  converged to true rank: " +
           std::to_string(frame.converged_vertices) + "/" +
           std::to_string(frame.ranks.size()) + "\n";
  }
  out += "  L1 diff vs previous iteration: " + FormatDouble(frame.l1_diff) +
         "\n";
  return out;
}

std::string RenderMetricsDashboard(const runtime::MetricsSnapshot& snapshot) {
  constexpr int kBarWidth = 40;
  std::string out = "metrics dashboard:\n";
  bool empty = true;

  // Partition-labeled counter families as bars scaled to the hottest
  // partition, so skew is visible without reading the numbers.
  for (const auto& [name, by_partition] : snapshot.counters) {
    uint64_t max_value = 0;
    int labeled = 0;
    for (const auto& [p, value] : by_partition) {
      if (p < 0) continue;
      ++labeled;
      max_value = std::max(max_value, value);
    }
    if (labeled == 0) continue;
    empty = false;
    out += "  " + name + " (total " +
           std::to_string(snapshot.CounterTotal(name)) + "):\n";
    for (const auto& [p, value] : by_partition) {
      if (p < 0) continue;
      int width = max_value == 0
                      ? 0
                      : static_cast<int>(value * static_cast<uint64_t>(
                                                     kBarWidth) /
                                         max_value);
      char prefix[64];
      std::snprintf(prefix, sizeof(prefix), "    p%-3d %12llu ", p,
                    static_cast<unsigned long long>(value));
      out += prefix;
      out += std::string(value > 0 ? std::max(width, 1) : 0, '#');
      out += "\n";
    }
  }

  // Histograms as one-line distribution summaries.
  for (const auto& [name, hist] : snapshot.histograms) {
    if (hist.count() == 0) continue;
    empty = false;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %s: count=%llu mean=%.1f min=%lld max=%lld\n",
                  name.c_str(), static_cast<unsigned long long>(hist.count()),
                  hist.Mean(), static_cast<long long>(hist.min()),
                  static_cast<long long>(hist.max()));
    out += line;
  }

  // Families that only ever counted at the job level (partition -1).
  std::string rollup;
  for (const auto& [name, by_partition] : snapshot.counters) {
    bool job_only = by_partition.size() == 1 && by_partition.count(-1) > 0;
    if (!job_only) continue;
    rollup += "    " + name + " = " + std::to_string(by_partition.at(-1)) +
              "\n";
  }
  if (!rollup.empty()) {
    empty = false;
    out += "  job counters:\n" + rollup;
  }
  if (empty) out += "  (no metrics recorded)\n";
  return out;
}

std::set<int64_t> VerticesOfPartitions(int64_t num_vertices,
                                       int num_partitions,
                                       const std::vector<int>& partitions) {
  std::set<int> wanted(partitions.begin(), partitions.end());
  std::set<int64_t> vertices;
  for (int64_t v = 0; v < num_vertices; ++v) {
    if (wanted.count(algos::PartitionOfVertex(v, num_partitions)) > 0) {
      vertices.insert(v);
    }
  }
  return vertices;
}

std::string DescribePartitions(int64_t num_vertices, int num_partitions) {
  std::string out = "partition layout (" + std::to_string(num_partitions) +
                    " partitions):\n";
  for (int p = 0; p < num_partitions; ++p) {
    out += "  partition " + std::to_string(p) + ":";
    for (int64_t v = 0; v < num_vertices; ++v) {
      if (algos::PartitionOfVertex(v, num_partitions) == p) {
        out.append(" ").append(std::to_string(v));
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace flinkless::viz
