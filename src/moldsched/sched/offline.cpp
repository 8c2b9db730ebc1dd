#include "moldsched/sched/offline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "moldsched/analysis/bounds.hpp"
#include "moldsched/core/list_engine.hpp"
#include "moldsched/graph/algorithms.hpp"

namespace moldsched::sched {

sim::Trace list_schedule_with_allocations(
    const graph::TaskGraph& g, int P, const std::vector<int>& allocations,
    const std::vector<double>& priorities) {
  const int n = g.num_tasks();
  if (P < 1)
    throw std::invalid_argument("list_schedule_with_allocations: P < 1");
  if (static_cast<int>(allocations.size()) != n ||
      static_cast<int>(priorities.size()) != n)
    throw std::invalid_argument(
        "list_schedule_with_allocations: vector sizes must equal num_tasks");
  for (const int a : allocations)
    if (a < 1 || a > P)
      throw std::invalid_argument(
          "list_schedule_with_allocations: allocation outside [1, P]");
  g.validate();

  core::ListEngine engine({.graph = g,
                           .P = P,
                           .who = "list_schedule_with_allocations",
                           .allocations = &allocations,
                           .priorities = &priorities});
  core::CountHooks hooks(P);
  return engine.run(hooks).trace;
}

std::vector<int> area_minimal_allotment(const graph::TaskGraph& g, int P,
                                        double target) {
  if (P < 1) throw std::invalid_argument("area_minimal_allotment: P < 1");
  const int n = g.num_tasks();
  std::vector<int> alloc(static_cast<std::size_t>(n));
  for (graph::TaskId v = 0; v < n; ++v) {
    const auto& m = g.model_of(v);
    const int p_max = m.max_useful_procs(P);
    int chosen = p_max;
    if (m.time(p_max) <= target) {
      if (m.kind() == model::ModelKind::kArbitrary) {
        // No monotonicity: scan for the smallest-area feasible point;
        // break area ties toward the faster allocation.
        double best_area = m.area(p_max);
        double best_time = m.time(p_max);
        chosen = p_max;
        for (int p = 1; p <= p_max; ++p) {
          const double area = m.area(p);
          const double time = m.time(p);
          if (time > target) continue;
          if (area < best_area * (1.0 - 1e-12) ||
              (area <= best_area * (1.0 + 1e-12) && time < best_time)) {
            best_area = area;
            best_time = time;
            chosen = p;
          }
        }
      } else {
        int lo = 1;
        int hi = p_max;
        while (lo < hi) {
          const int mid = lo + (hi - lo) / 2;
          if (m.time(mid) <= target)
            hi = mid;
          else
            lo = mid + 1;
        }
        chosen = lo;
        // Parallelism that costs no area is free speed: extend while
        // the area stays flat (e.g. the roofline plateau).
        while (chosen < p_max &&
               m.area(chosen + 1) <= m.area(chosen) * (1.0 + 1e-12))
          ++chosen;
      }
    }
    alloc[static_cast<std::size_t>(v)] = chosen;
  }
  return alloc;
}

OfflineTradeoffScheduler::OfflineTradeoffScheduler(const graph::TaskGraph& g,
                                                   int P, int sweep_points)
    : graph_(g), P_(P), sweep_points_(sweep_points) {
  if (P < 1)
    throw std::invalid_argument("OfflineTradeoffScheduler: P must be >= 1");
  if (sweep_points < 2)
    throw std::invalid_argument(
        "OfflineTradeoffScheduler: sweep_points must be >= 2");
  g.validate();
}

OfflineResult OfflineTradeoffScheduler::run() const {
  const int n = graph_.num_tasks();

  // The sweep variable is a *per-task* deadline: every task is given the
  // cheapest (area-minimal) allocation that meets it. Meaningful deadlines
  // range from the fastest any task can run to the slowest sequential
  // task; sweeping that range geometrically visits every allocation
  // regime from "all-parallel" to "all-sequential".
  double lower = std::numeric_limits<double>::infinity();
  double upper = 0.0;
  for (graph::TaskId v = 0; v < n; ++v) {
    const auto& m = graph_.model_of(v);
    lower = std::min(lower, m.min_time(P_));
    upper = std::max(upper, m.time(1));
  }
  upper = std::max(upper, lower * (1.0 + 1e-9));

  OfflineResult best;
  best.makespan = std::numeric_limits<double>::infinity();
  best.sweep_points = sweep_points_;

  const double log_lo = std::log(lower);
  const double log_hi = std::log(upper);
  for (int i = 0; i < sweep_points_; ++i) {
    const double frac = static_cast<double>(i) /
                        static_cast<double>(sweep_points_ - 1);
    const double target = std::exp(log_lo + frac * (log_hi - log_lo));

    // Area-minimal allocation meeting the per-task deadline `target`.
    auto alloc = area_minimal_allotment(graph_, P_, target);
    std::vector<double> times(static_cast<std::size_t>(n));
    for (graph::TaskId v = 0; v < n; ++v)
      times[static_cast<std::size_t>(v)] =
          graph_.model_of(v).time(alloc[static_cast<std::size_t>(v)]);

    const auto priorities = graph::bottom_levels(graph_, times);
    auto trace = list_schedule_with_allocations(graph_, P_, alloc, priorities);
    const double makespan = trace.makespan();
    if (makespan < best.makespan) {
      best.makespan = makespan;
      best.trace = std::move(trace);
      best.allocation = std::move(alloc);
      best.winning_target = target;
    }
  }
  return best;
}

}  // namespace moldsched::sched
