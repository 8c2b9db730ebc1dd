#include "moldsched/sched/contiguous_scheduler.hpp"

#include <stdexcept>

#include "moldsched/core/list_engine.hpp"
#include "moldsched/sim/block_platform.hpp"

namespace moldsched::sched {

namespace {

/// First-fit contiguous placement, with the fragmentation-wait
/// bookkeeping: the time a task spends ready with enough processors by
/// count but no contiguous block free.
struct BlockHooks : core::ListHooks {
  BlockHooks(int P, int n)
      : platform(P),
        first_processor(static_cast<std::size_t>(n), -1),
        frag_since(static_cast<std::size_t>(n), -1.0) {}

  [[nodiscard]] int available() const noexcept {
    return platform.available();
  }
  // A scan in which nothing fits still closes open fragmentation
  // episodes, so it may be skipped only when none is open.
  [[nodiscard]] bool may_skip_scan() const noexcept {
    return open_episodes == 0;
  }

  bool place(graph::TaskId task, int alloc, double now) {
    const auto t = static_cast<std::size_t>(task);
    const int lo = platform.acquire_block(alloc);
    if (lo < 0) {
      // Enough processors by count but no contiguous block: this wait
      // is pure fragmentation.
      if (frag_since[t] < 0.0) {
        frag_since[t] = now;
        ++open_episodes;
      }
      return false;
    }
    close_episode(t, now);
    first_processor[t] = lo;
    return true;
  }

  // By-count shortage resumed; close the fragmentation episode.
  void blocked(graph::TaskId task, double now) {
    close_episode(static_cast<std::size_t>(task), now);
  }

  void release(graph::TaskId task, int alloc) {
    platform.release_block(first_processor[static_cast<std::size_t>(task)],
                           alloc);
  }

  void close_episode(std::size_t t, double now) {
    if (frag_since[t] < 0.0) return;
    fragmentation_wait += now - frag_since[t];
    frag_since[t] = -1.0;
    --open_episodes;
  }

  sim::BlockPlatform platform;
  std::vector<int> first_processor;
  std::vector<double> frag_since;  // -1 when not in an episode
  int open_episodes = 0;
  double fragmentation_wait = 0.0;
};
// place() can fail and blocked() keeps books: the flat queue.
static_assert(!core::kFirstFit<BlockHooks>);

}  // namespace

ContiguousScheduleResult schedule_online_contiguous(
    const graph::TaskGraph& g, int P, const core::Allocator& alloc,
    core::QueuePolicy policy) {
  if (P < 1)
    throw std::invalid_argument(
        "schedule_online_contiguous: P must be >= 1");
  g.validate();

  core::ListEngine engine({.graph = g,
                           .P = P,
                           .who = "schedule_online_contiguous",
                           .allocator = &alloc,
                           .policy = policy});
  BlockHooks hooks(P, g.num_tasks());
  ContiguousScheduleResult result;
  result.base = engine.run(hooks);
  result.first_processor = std::move(hooks.first_processor);
  result.fragmentation_wait = hooks.fragmentation_wait;
  return result;
}

}  // namespace moldsched::sched
