#include "moldsched/sched/malleable_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "moldsched/analysis/bounds.hpp"
#include "moldsched/graph/algorithms.hpp"

namespace moldsched::sched {

// Not a core::ListEngine client: malleable tasks change their processor
// share continuously, so the schedule is a fluid simulation between
// completion instants, with no event queue and no fixed allocation.
MalleableResult schedule_malleable_fluid(const graph::TaskGraph& g, int P) {
  if (P < 1)
    throw std::invalid_argument("schedule_malleable_fluid: P must be >= 1");
  g.validate();
  const int n = g.num_tasks();

  // Static priorities: minimum-time bottom levels.
  const auto priority = graph::bottom_levels(g, analysis::min_times(g, P));

  std::vector<double> remaining(static_cast<std::size_t>(n), 1.0);
  std::vector<int> pending(static_cast<std::size_t>(n));
  std::vector<bool> done(static_cast<std::size_t>(n), false);
  for (graph::TaskId v = 0; v < n; ++v)
    pending[static_cast<std::size_t>(v)] = g.in_degree(v);

  MalleableResult result;
  double now = 0.0;
  int completed = 0;

  while (completed < n) {
    // Ready tasks by descending priority (stable by id).
    std::vector<graph::TaskId> ready;
    for (graph::TaskId v = 0; v < n; ++v)
      if (!done[static_cast<std::size_t>(v)] &&
          pending[static_cast<std::size_t>(v)] == 0)
        ready.push_back(v);
    if (ready.empty())
      throw std::logic_error("schedule_malleable_fluid: no ready task");
    std::stable_sort(ready.begin(), ready.end(),
                     [&](graph::TaskId a, graph::TaskId b) {
                       return priority[static_cast<std::size_t>(a)] >
                              priority[static_cast<std::size_t>(b)];
                     });

    // Greedy allocation: p_max for the front of the queue, then squeeze
    // smaller allocations so no processor idles while tasks wait.
    std::vector<int> alloc(static_cast<std::size_t>(n), 0);
    int free = P;
    for (const graph::TaskId v : ready) {
      if (free == 0) break;
      const int want = g.model_of(v).max_useful_procs(P);
      const int give = std::min(want, free);
      alloc[static_cast<std::size_t>(v)] = give;
      free -= give;
    }

    // Advance to the earliest fluid completion among running tasks.
    double dt = std::numeric_limits<double>::infinity();
    for (const graph::TaskId v : ready) {
      const int a = alloc[static_cast<std::size_t>(v)];
      if (a == 0) continue;
      dt = std::min(dt, remaining[static_cast<std::size_t>(v)] *
                            g.model_of(v).time(a));
    }
    if (!std::isfinite(dt))
      throw std::logic_error("schedule_malleable_fluid: stalled");

    for (const graph::TaskId v : ready) {
      const int a = alloc[static_cast<std::size_t>(v)];
      if (a == 0) continue;
      result.busy_area += static_cast<double>(a) * dt;
      auto& r = remaining[static_cast<std::size_t>(v)];
      r -= dt / g.model_of(v).time(a);
      if (r <= 1e-12) {
        r = 0.0;
        done[static_cast<std::size_t>(v)] = true;
        ++completed;
        for (const graph::TaskId s : g.successors(v))
          --pending[static_cast<std::size_t>(s)];
      }
    }
    now += dt;
    ++result.events;
  }
  result.makespan = now;
  return result;
}

}  // namespace moldsched::sched
