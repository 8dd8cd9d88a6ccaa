#include "runtime/failure.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"

namespace flinkless::runtime {

std::string FailureEvent::ToString() const {
  std::string out = "iter " + std::to_string(iteration) + ": partitions [";
  for (size_t i = 0; i < partitions.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(partitions[i]);
  }
  out += "]";
  return out;
}

FailureSchedule::FailureSchedule(std::vector<FailureEvent> events)
    : events_(std::move(events)), fired_(events_.size(), false) {}

void FailureSchedule::Add(FailureEvent event) {
  events_.push_back(std::move(event));
  fired_.push_back(false);
}

std::vector<int> FailureSchedule::Fire(int iteration) {
  std::vector<int> parts;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (!fired_[i] && events_[i].iteration == iteration) {
      fired_[i] = true;
      parts.insert(parts.end(), events_[i].partitions.begin(),
                   events_[i].partitions.end());
    }
  }
  std::sort(parts.begin(), parts.end());
  parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  return parts;
}

std::vector<int> FailureSchedule::Peek(int iteration) const {
  std::vector<int> parts;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (!fired_[i] && events_[i].iteration == iteration) {
      parts.insert(parts.end(), events_[i].partitions.begin(),
                   events_[i].partitions.end());
    }
  }
  std::sort(parts.begin(), parts.end());
  parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  return parts;
}

size_t FailureSchedule::remaining() const {
  size_t n = 0;
  for (bool f : fired_) {
    if (!f) ++n;
  }
  return n;
}

void FailureSchedule::Rewind() {
  std::fill(fired_.begin(), fired_.end(), false);
}

Result<FailureSchedule> FailureSchedule::Parse(const std::string& spec) {
  FailureSchedule schedule;
  if (Trim(spec).empty()) return schedule;
  for (const std::string& event_spec : Split(spec, ';')) {
    auto trimmed = Trim(event_spec);
    if (trimmed.empty()) continue;
    auto colon = trimmed.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("failure event '" + std::string(trimmed) +
                                     "' is not of the form iter:partitions");
    }
    FailureEvent event;
    int64_t iter = 0;
    if (!ParseInt64(trimmed.substr(0, colon), &iter) || iter < 1 ||
        iter > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("bad iteration in failure event '" +
                                     std::string(trimmed) + "'");
    }
    event.iteration = static_cast<int>(iter);
    for (const std::string& part : Split(std::string(trimmed.substr(colon + 1)), ',')) {
      int64_t p = 0;
      if (!ParseInt64(part, &p) || p < 0 ||
          p > std::numeric_limits<int>::max()) {
        return Status::InvalidArgument("bad partition '" + part +
                                       "' in failure event");
      }
      event.partitions.push_back(static_cast<int>(p));
    }
    if (event.partitions.empty()) {
      return Status::InvalidArgument("failure event '" + std::string(trimmed) +
                                     "' lists no partitions");
    }
    schedule.Add(std::move(event));
  }
  return schedule;
}

FailureSchedule RandomFailures(int max_iterations, int num_partitions,
                               double per_iteration_prob, Rng* rng) {
  FailureSchedule schedule;
  for (int it = 1; it <= max_iterations; ++it) {
    FailureEvent event;
    event.iteration = it;
    for (int p = 0; p < num_partitions; ++p) {
      if (rng->NextBernoulli(per_iteration_prob)) event.partitions.push_back(p);
    }
    if (!event.partitions.empty()) schedule.Add(std::move(event));
  }
  return schedule;
}

}  // namespace flinkless::runtime
