// Classic DAG algorithms over TaskGraph: topological order, cycle
// detection, longest-path (critical path) dynamic programs.
#pragma once

#include <vector>

#include "moldsched/graph/task_graph.hpp"

namespace moldsched::graph {

/// Kahn's algorithm. Throws std::logic_error if the graph has a cycle.
/// Among simultaneously ready tasks, smaller ids come first, so the order
/// is deterministic.
[[nodiscard]] std::vector<TaskId> topological_order(const TaskGraph& g);

/// Kahn's algorithm with a FIFO ready list: O(V+E), no ordering
/// contract among ready tasks. On a cyclic graph the order comes out
/// short: every task on or behind a cycle is missing.
[[nodiscard]] std::vector<TaskId> fifo_topological_order(const TaskGraph& g);

[[nodiscard]] bool is_acyclic(const TaskGraph& g);

/// Longest path ending at each task, *excluding* the task's own time:
/// top[v] = max over predecessors u of (top[u] + times[u]), 0 for sources.
/// `times` must have one entry per task.
[[nodiscard]] std::vector<double> top_levels(const TaskGraph& g,
                                             const std::vector<double>& times);

/// Longest path starting at each task, *including* the task's own time:
/// bottom[v] = times[v] + max over successors s of bottom[s].
[[nodiscard]] std::vector<double> bottom_levels(
    const TaskGraph& g, const std::vector<double>& times);

/// Length of the longest weighted path: max_v (top[v] + times[v]).
[[nodiscard]] double longest_path_length(const TaskGraph& g,
                                         const std::vector<double>& times);

/// Tasks of one longest weighted path, in precedence order.
[[nodiscard]] std::vector<TaskId> critical_path_tasks(
    const TaskGraph& g, const std::vector<double>& times);

/// The same path, walked from bottom levels already computed by
/// bottom_levels(g, times), for callers that also need the length.
[[nodiscard]] std::vector<TaskId> critical_path_from_bottom_levels(
    const TaskGraph& g, const std::vector<double>& bottom);

/// D: the number of tasks along the longest (hop-count) path. This is the
/// quantity in the Theorem 9 bound Omega(ln D).
[[nodiscard]] int longest_hop_count(const TaskGraph& g);

}  // namespace moldsched::graph
