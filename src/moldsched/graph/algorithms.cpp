#include "moldsched/graph/algorithms.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace moldsched::graph {

namespace {

void check_times(const TaskGraph& g, const std::vector<double>& times) {
  if (static_cast<int>(times.size()) != g.num_tasks())
    throw std::invalid_argument(
        "graph algorithms: times vector size must equal num_tasks");
}

}  // namespace

std::vector<TaskId> topological_order(const TaskGraph& g) {
  const int n = g.num_tasks();
  std::vector<int> in_deg(static_cast<std::size_t>(n));
  // min-heap on id for deterministic order among ready tasks
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (TaskId v = 0; v < n; ++v) {
    in_deg[static_cast<std::size_t>(v)] = g.in_degree(v);
    if (in_deg[static_cast<std::size_t>(v)] == 0) ready.push(v);
  }
  std::vector<TaskId> order;
  order.reserve(static_cast<std::size_t>(n));
  while (!ready.empty()) {
    const TaskId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (const TaskId s : g.successors(v)) {
      if (--in_deg[static_cast<std::size_t>(s)] == 0) ready.push(s);
    }
  }
  if (static_cast<int>(order.size()) != n)
    throw std::logic_error("topological_order: graph contains a cycle");
  return order;
}

std::vector<TaskId> fifo_topological_order(const TaskGraph& g) {
  const int n = g.num_tasks();
  std::vector<int> in_deg(static_cast<std::size_t>(n));
  std::vector<TaskId> order;
  order.reserve(static_cast<std::size_t>(n));
  for (TaskId v = 0; v < n; ++v) {
    in_deg[static_cast<std::size_t>(v)] = g.in_degree(v);
    if (in_deg[static_cast<std::size_t>(v)] == 0) order.push_back(v);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const TaskId s : g.successors(order[head])) {
      if (--in_deg[static_cast<std::size_t>(s)] == 0) order.push_back(s);
    }
  }
  return order;
}

bool is_acyclic(const TaskGraph& g) {
  // No ordering contract to honor, so skip topological_order's priority
  // queue: this runs inside TaskGraph::validate() on every scheduler
  // construction and must stay O(V+E) at 10^7 tasks.
  return fifo_topological_order(g).size() ==
         static_cast<std::size_t>(g.num_tasks());
}

std::vector<double> top_levels(const TaskGraph& g,
                               const std::vector<double>& times) {
  check_times(g, times);
  const auto order = topological_order(g);
  std::vector<double> top(times.size(), 0.0);
  for (const TaskId v : order) {
    for (const TaskId s : g.successors(v)) {
      top[static_cast<std::size_t>(s)] =
          std::max(top[static_cast<std::size_t>(s)],
                   top[static_cast<std::size_t>(v)] +
                       times[static_cast<std::size_t>(v)]);
    }
  }
  return top;
}

std::vector<double> bottom_levels(const TaskGraph& g,
                                  const std::vector<double>& times) {
  check_times(g, times);
  const auto order = topological_order(g);
  std::vector<double> bottom(times.size(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId v = *it;
    double best = 0.0;
    for (const TaskId s : g.successors(v))
      best = std::max(best, bottom[static_cast<std::size_t>(s)]);
    bottom[static_cast<std::size_t>(v)] =
        times[static_cast<std::size_t>(v)] + best;
  }
  return bottom;
}

double longest_path_length(const TaskGraph& g,
                           const std::vector<double>& times) {
  const auto bottom = bottom_levels(g, times);
  double best = 0.0;
  for (const double b : bottom) best = std::max(best, b);
  return best;
}

std::vector<TaskId> critical_path_tasks(const TaskGraph& g,
                                        const std::vector<double>& times) {
  return critical_path_from_bottom_levels(g, bottom_levels(g, times));
}

std::vector<TaskId> critical_path_from_bottom_levels(
    const TaskGraph& g, const std::vector<double>& bottom) {
  // Start from the source of a maximal bottom level, then follow the
  // successor that preserves the remaining path length.
  TaskId cur = 0;
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    if (g.in_degree(v) == 0 &&
        bottom[static_cast<std::size_t>(v)] >
            bottom[static_cast<std::size_t>(cur)])
      cur = v;
  }
  // Ensure start is a source even if task 0 was not.
  if (g.in_degree(cur) != 0) {
    for (TaskId v = 0; v < g.num_tasks(); ++v)
      if (g.in_degree(v) == 0) {
        cur = v;
        break;
      }
  }
  std::vector<TaskId> path{cur};
  while (g.out_degree(cur) != 0) {
    TaskId next = g.successors(cur).front();
    for (const TaskId s : g.successors(cur)) {
      if (bottom[static_cast<std::size_t>(s)] >=
          bottom[static_cast<std::size_t>(next)])
        next = s;
    }
    path.push_back(next);
    cur = next;
  }
  return path;
}

int longest_hop_count(const TaskGraph& g) {
  const std::vector<double> unit(static_cast<std::size_t>(g.num_tasks()), 1.0);
  return static_cast<int>(longest_path_length(g, unit) + 0.5);
}

}  // namespace moldsched::graph
