#include "moldsched/graph/passes.hpp"

#include <algorithm>
#include <stdexcept>

#include "moldsched/graph/algorithms.hpp"
#include "moldsched/obs/metrics.hpp"

namespace moldsched::graph::passes {

namespace {

/// FIFO-Kahn topological order (no ordering contract — O(V+E)). Throws
/// std::logic_error on cycles so passes fail loudly instead of looping.
std::vector<TaskId> linear_topo_order(const TaskGraph& g) {
  std::vector<TaskId> order = fifo_topological_order(g);
  if (order.size() != static_cast<std::size_t>(g.num_tasks()))
    throw std::logic_error("graph::passes: graph contains a cycle");
  return order;
}

}  // namespace

ReductionResult transitive_reduction(const TaskGraph& g) {
  const auto order = linear_topo_order(g);
  const auto n = static_cast<std::size_t>(g.num_tasks());
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i)
    pos[static_cast<std::size_t>(order[i])] = i;

  // For each u: walk its direct successors in ascending topo position,
  // keeping an edge only if its head is not already reachable through a
  // previously kept successor. Reachability is tracked with a per-u
  // stamp array; the DFS prunes at vertices whose topo position exceeds
  // the last direct successor's (nothing beyond it can be one).
  std::vector<TaskId> kept_from;
  std::vector<TaskId> kept_to;
  kept_from.reserve(g.num_edges());
  kept_to.reserve(g.num_edges());
  std::vector<TaskId> stamp(n, -1);
  std::vector<TaskId> kept_stamp(n, -1);
  std::vector<TaskId> stack;
  std::vector<TaskId> direct;
  for (TaskId u = 0; u < g.num_tasks(); ++u) {
    const auto succ = g.successors(u);
    if (succ.empty()) continue;
    direct.assign(succ.begin(), succ.end());
    std::sort(direct.begin(), direct.end(),
              [&pos](TaskId a, TaskId b) {
                return pos[static_cast<std::size_t>(a)] <
                       pos[static_cast<std::size_t>(b)];
              });
    const std::size_t max_pos =
        pos[static_cast<std::size_t>(direct.back())];
    for (const TaskId s : direct) {
      if (stamp[static_cast<std::size_t>(s)] == u) continue;  // implied
      kept_stamp[static_cast<std::size_t>(s)] = u;
      // Mark everything reachable from s (within the position window) as
      // implied for the remaining, topologically later, direct successors.
      stack.assign(1, s);
      stamp[static_cast<std::size_t>(s)] = u;
      while (!stack.empty()) {
        const TaskId v = stack.back();
        stack.pop_back();
        for (const TaskId w : g.successors(v)) {
          const auto wi = static_cast<std::size_t>(w);
          if (stamp[wi] == u || pos[wi] > max_pos) continue;
          stamp[wi] = u;
          stack.push_back(w);
        }
      }
    }
    // Emit kept edges in the original insertion order, so the reduced
    // graph's adjacency (and thus its encodings) is order-faithful to
    // the input rather than to the traversal.
    for (const TaskId s : succ) {
      if (kept_stamp[static_cast<std::size_t>(s)] == u) {
        kept_from.push_back(u);
        kept_to.push_back(s);
      }
    }
  }

  ReductionResult result;
  result.graph.reserve(g.num_tasks(), kept_from.size());
  for (TaskId v = 0; v < g.num_tasks(); ++v) {
    // Preserve explicit names only: re-adding the synthesized default
    // would densify a sparse-name graph.
    std::string name = g.name(v);
    if (name == "task" + std::to_string(v)) name.clear();
    result.graph.add_task(g.model_ptr(v), std::move(name));
  }
  for (std::size_t e = 0; e < kept_from.size(); ++e)
    result.graph.add_edge(kept_from[e], kept_to[e]);
  result.edges_removed = g.num_edges() - kept_from.size();

  auto& registry = obs::default_registry();
  registry.counter("graph.pass.transitive_reduction.runs").add(1);
  registry.counter("graph.pass.transitive_reduction.edges_removed")
      .add(result.edges_removed);
  return result;
}

CriticalPath critical_path(const TaskGraph& g,
                           const std::vector<double>& times) {
  if (g.num_tasks() == 0)
    throw std::logic_error("graph::passes::critical_path: empty graph");
  // One bottom-level pass serves both the length and the path.
  const std::vector<double> bottom = bottom_levels(g, times);
  CriticalPath cp;
  for (const double b : bottom) cp.length = std::max(cp.length, b);
  cp.tasks = critical_path_from_bottom_levels(g, bottom);
  obs::default_registry().counter("graph.pass.critical_path.runs").add(1);
  return cp;
}

std::vector<double> min_time_weights(const TaskGraph& g, int P) {
  if (P < 1)
    throw std::invalid_argument(
        "graph::passes::min_time_weights: P must be >= 1");
  std::vector<double> times(static_cast<std::size_t>(g.num_tasks()));
  for (TaskId v = 0; v < g.num_tasks(); ++v)
    times[static_cast<std::size_t>(v)] = g.model_of(v).min_time(P);
  return times;
}

Layering topological_layers(const TaskGraph& g) {
  Layering out;
  const auto n = static_cast<std::size_t>(g.num_tasks());
  if (n == 0) return out;
  const auto order = linear_topo_order(g);
  out.layer_of.assign(n, 0);
  int num_layers = 0;
  for (const TaskId v : order) {
    int layer = 0;
    for (const TaskId u : g.predecessors(v))
      layer = std::max(layer, out.layer_of[static_cast<std::size_t>(u)] + 1);
    out.layer_of[static_cast<std::size_t>(v)] = layer;
    num_layers = std::max(num_layers, layer + 1);
  }
  // Counting sort by layer; iterating ids ascending makes each layer's
  // slice ascending-id.
  out.offsets.assign(static_cast<std::size_t>(num_layers) + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    ++out.offsets[static_cast<std::size_t>(out.layer_of[v]) + 1];
  for (std::size_t l = 1; l < out.offsets.size(); ++l)
    out.offsets[l] += out.offsets[l - 1];
  out.order.resize(n);
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t v = 0; v < n; ++v)
    out.order[cursor[static_cast<std::size_t>(out.layer_of[v])]++] =
        static_cast<TaskId>(v);
  obs::default_registry().counter("graph.pass.topological_layers.runs").add(1);
  return out;
}

}  // namespace moldsched::graph::passes
