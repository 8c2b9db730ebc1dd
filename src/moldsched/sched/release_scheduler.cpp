#include "moldsched/sched/release_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "moldsched/core/list_engine.hpp"

namespace moldsched::sched {

OnlineReleaseScheduler::OnlineReleaseScheduler(std::vector<ReleasedTask> tasks,
                                               int P,
                                               const core::Allocator& alloc,
                                               core::QueuePolicy policy)
    : tasks_(std::move(tasks)), P_(P), allocator_(alloc), policy_(policy) {
  if (tasks_.empty())
    throw std::invalid_argument("OnlineReleaseScheduler: no tasks");
  if (P < 1)
    throw std::invalid_argument("OnlineReleaseScheduler: P must be >= 1");
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    auto& t = tasks_[i];
    if (!t.model)
      throw std::invalid_argument("OnlineReleaseScheduler: null model");
    if (!(t.release >= 0.0) || !std::isfinite(t.release))
      throw std::invalid_argument(
          "OnlineReleaseScheduler: release times must be finite and >= 0");
    if (t.name.empty()) t.name = "task" + std::to_string(i);
  }
}

ReleaseScheduleResult OnlineReleaseScheduler::run() const {
  // Independent tasks: an edgeless graph, with arrivals at the release
  // times instead of at time 0.
  graph::TaskGraph g;
  std::vector<double> release;
  g.reserve(static_cast<int>(tasks_.size()), 0);
  release.reserve(tasks_.size());
  for (const auto& t : tasks_) {
    g.add_task(t.model, t.name);
    release.push_back(t.release);
  }
  core::ListEngine engine({.graph = g,
                           .P = P_,
                           .who = "OnlineReleaseScheduler",
                           .allocator = &allocator_,
                           .policy = policy_,
                           .release_times = &release});
  core::CountHooks hooks(P_);
  core::ScheduleResult base = engine.run(hooks);

  ReleaseScheduleResult result;
  result.wait_time.assign(tasks_.size(), 0.0);
  for (const auto& rec : base.trace.records())
    result.wait_time[static_cast<std::size_t>(rec.task)] =
        rec.start - release[static_cast<std::size_t>(rec.task)];
  result.trace = std::move(base.trace);
  result.makespan = base.makespan;
  result.allocation = std::move(base.allocation);
  return result;
}

double release_makespan_lower_bound(const std::vector<ReleasedTask>& tasks,
                                    int P) {
  if (tasks.empty())
    throw std::invalid_argument("release_makespan_lower_bound: no tasks");
  if (P < 1)
    throw std::invalid_argument("release_makespan_lower_bound: P < 1");

  // Sort tasks by release time; for each distinct release r, the work
  // released at or after r cannot finish before r + (its min area)/P.
  std::vector<std::pair<double, double>> by_release;  // (release, a_min)
  double bound = 0.0;
  by_release.reserve(tasks.size());
  for (const auto& t : tasks) {
    by_release.emplace_back(t.release, t.model->min_area(P));
    bound = std::max(bound, t.release + t.model->min_time(P));
  }
  std::sort(by_release.begin(), by_release.end());
  double suffix_area = 0.0;
  for (auto it = by_release.rbegin(); it != by_release.rend(); ++it) {
    suffix_area += it->second;
    bound = std::max(bound, it->first + suffix_area / static_cast<double>(P));
  }
  return bound;
}

}  // namespace moldsched::sched
