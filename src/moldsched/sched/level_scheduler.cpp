#include "moldsched/sched/level_scheduler.hpp"

#include <stdexcept>

#include "moldsched/core/list_engine.hpp"
#include "moldsched/graph/passes.hpp"

namespace moldsched::sched {

namespace {

/// Arrivals by level: level 0 (the sources) at time 0, level k+1 in id
/// order at the instant the last task of level k completes.
struct LevelBarrierHooks : core::CountHooks {
  static constexpr bool kReleaseSuccessors = false;

  LevelBarrierHooks(int P, const graph::passes::Layering& l,
                    std::vector<double>& finish)
      : CountHooks(P),
        layers(l),
        level_finish(finish),
        remaining(layers.layer(0).size()) {}

  bool on_end(graph::TaskId, double, int, std::size_t) {
    --remaining;
    return true;
  }

  void after_batch(double now, std::vector<graph::TaskId>& ready) {
    if (remaining != 0) return;
    level_finish.push_back(now);
    if (++level == layers.num_layers()) return;
    const auto next = layers.layer(level);
    ready.insert(ready.end(), next.begin(), next.end());
    remaining = next.size();
  }

  const graph::passes::Layering& layers;
  std::vector<double>& level_finish;
  int level = 0;
  std::size_t remaining;  // unfinished tasks of the current level
};
static_assert(core::kFirstFit<LevelBarrierHooks>);

}  // namespace

LevelScheduleResult schedule_level_by_level(const graph::TaskGraph& g, int P,
                                            const core::Allocator& alloc) {
  if (P < 1)
    throw std::invalid_argument("schedule_level_by_level: P must be >= 1");
  g.validate();

  LevelScheduleResult result;
  // Level = longest hop distance from a source.
  const graph::passes::Layering layers = graph::passes::topological_layers(g);
  result.level_of = layers.layer_of;

  // Greedy list scheduling inside each level, FIFO in id order.
  core::ListEngine engine({.graph = g,
                           .P = P,
                           .who = "schedule_level_by_level",
                           .allocator = &alloc});
  result.level_finish.reserve(static_cast<std::size_t>(layers.num_layers()));
  LevelBarrierHooks hooks(P, layers, result.level_finish);
  core::ScheduleResult base = engine.run(hooks);
  result.trace = std::move(base.trace);
  result.makespan = base.makespan;
  result.allocation = std::move(base.allocation);
  return result;
}

}  // namespace moldsched::sched
