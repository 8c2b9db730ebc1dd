#include "moldsched/sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace moldsched::sim {

void Trace::record_start(int task, Time start, int procs) {
  if (task < 0)
    throw std::invalid_argument("Trace::record_start: negative task id");
  if (procs < 1)
    throw std::invalid_argument("Trace::record_start: procs must be >= 1");
  if (!std::isfinite(start) || start < 0.0)
    throw std::invalid_argument("Trace::record_start: bad start time");
  const auto idx = static_cast<std::size_t>(task);
  if (idx >= record_of_task_.size()) record_of_task_.resize(idx + 1, -1);
  if (record_of_task_[idx] != -1)
    throw std::logic_error("Trace::record_start: task " +
                           std::to_string(task) +
                           " started twice (tasks are non-preemptive and "
                           "run exactly once)");
  record_of_task_[idx] = static_cast<std::int64_t>(records_.size());
  records_.push_back(TaskRecord{task, start,
                                std::numeric_limits<Time>::quiet_NaN(),
                                procs});
  ++open_count_;
}

void Trace::record_end(int task, Time end) {
  if (find(task) == nullptr)
    throw std::logic_error("Trace::record_end: task " + std::to_string(task) +
                           " was never started");
  TaskRecord& r = records_[index_of(task)];
  if (!std::isnan(r.end))
    throw std::logic_error("Trace::record_end: task already ended");
  if (!std::isfinite(end) || end < r.start)
    throw std::invalid_argument("Trace::record_end: end before start");
  r.end = end;
  --open_count_;
}

const TaskRecord* Trace::find(int task) const noexcept {
  if (task < 0 || static_cast<std::size_t>(task) >= record_of_task_.size() ||
      record_of_task_[static_cast<std::size_t>(task)] < 0)
    return nullptr;
  return &records_[index_of(task)];
}

void Trace::truncate(std::size_t size) {
  for (std::size_t i = size; i < records_.size(); ++i) {
    record_of_task_[static_cast<std::size_t>(records_[i].task)] = -1;
    if (std::isnan(records_[i].end)) --open_count_;
  }
  records_.resize(std::min(size, records_.size()));
}

void Trace::reopen(int task) {
  const TaskRecord* r = find(task);
  if (r == nullptr || std::isnan(r->end))
    throw std::logic_error("Trace::reopen: task " + std::to_string(task) +
                           " has not ended");
  records_[index_of(task)].end = std::numeric_limits<Time>::quiet_NaN();
  ++open_count_;
}

void Trace::ensure_complete() const {
  if (open_count_ != 0)
    throw std::logic_error("Trace: " + std::to_string(open_count_) +
                           " task(s) still running");
}

const std::vector<TaskRecord>& Trace::records() const {
  ensure_complete();
  return records_;
}

Time Trace::makespan() const {
  ensure_complete();
  Time m = 0.0;
  for (const auto& r : records_) m = std::max(m, r.end);
  return m;
}

double Trace::total_area() const {
  ensure_complete();
  double a = 0.0;
  for (const auto& r : records_)
    a += static_cast<double>(r.procs) * (r.end - r.start);
  return a;
}

std::vector<UtilizationInterval> Trace::utilization_profile() const {
  ensure_complete();
  // Sweep line over start/end events.
  struct Edge {
    Time t;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(records_.size() * 2);
  for (const auto& r : records_) {
    edges.push_back({r.start, r.procs});
    edges.push_back({r.end, -r.procs});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.delta < b.delta;  // releases before acquisitions at the same t
  });
  std::vector<UtilizationInterval> out;
  int usage = 0;
  std::size_t i = 0;
  Time prev = 0.0;
  while (i < edges.size()) {
    const Time t = edges[i].t;
    if (t > prev && (usage > 0 || !out.empty()))
      out.push_back(UtilizationInterval{prev, t, usage});
    while (i < edges.size() && edges[i].t == t) {
      usage += edges[i].delta;
      ++i;
    }
    prev = t;
  }
  return out;
}

double Trace::idle_area(int P) const {
  if (P < 1)
    throw std::invalid_argument("Trace::idle_area: P must be >= 1");
  return static_cast<double>(P) * makespan() - total_area();
}

int Trace::max_concurrency() const {
  int peak = 0;
  for (const auto& iv : utilization_profile())
    peak = std::max(peak, iv.procs_in_use);
  return peak;
}

Time Trace::total_gap_time() const {
  Time gap = 0.0;
  for (const auto& iv : utilization_profile())
    if (iv.procs_in_use == 0) gap += iv.duration();
  return gap;
}

double Trace::average_utilization(int P) const {
  if (P < 1)
    throw std::invalid_argument("Trace::average_utilization: P must be >= 1");
  const Time m = makespan();
  if (m <= 0.0) return 0.0;
  return total_area() / (static_cast<double>(P) * m);
}

}  // namespace moldsched::sim
