#include "moldsched/sched/backfill_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "moldsched/core/list_engine.hpp"

namespace moldsched::sched {

namespace {

struct RunningTask {
  graph::TaskId task;
  double finish;
  int procs;
};

/// EASY backfilling as a scan admission rule over a FIFO queue: the
/// queue head starts while it fits; the first head that does not fit
/// gets a reservation, and later entries may start only if they cannot
/// delay it.
struct EasyBackfillHooks : core::CountHooks {
  EasyBackfillHooks(const graph::TaskGraph& graph, int P)
      : CountHooks(P), g(graph) {}

  void begin_scan(double /*now*/) { head_blocked = false; }

  bool admit(const core::WaitingEntry& e, bool fits, double now) {
    if (!head_blocked) {
      if (fits) return true;
      head_blocked = true;
      reserve_for(e.alloc);
      return false;
    }
    // Backfill: start iff it fits and either finishes by the
    // reservation or fits into the reservation-time slack.
    return fits &&
           (now + g.model_of(e.task).time(e.alloc) <= reservation + 1e-12 ||
            e.alloc <= extra);
  }

  // The earliest running completion by which enough processors are
  // free for the blocked head, plus the slack processors at that
  // instant beyond the head's need.
  void reserve_for(int head_alloc) {
    by_finish = running;
    std::sort(by_finish.begin(), by_finish.end(),
              [](const RunningTask& a, const RunningTask& b) {
                return a.finish < b.finish;
              });
    int free_then = available();
    reservation = std::numeric_limits<double>::infinity();
    for (const auto& r : by_finish) {
      free_then += r.procs;
      if (free_then >= head_alloc) {
        reservation = r.finish;
        break;
      }
    }
    extra = free_then - head_alloc;
  }

  void on_start(graph::TaskId task, double now, int alloc,
                std::size_t /*queue_size*/) {
    running.push_back({task, now + g.model_of(task).time(alloc), alloc});
  }

  bool on_end(graph::TaskId task, double /*now*/, int /*alloc*/,
              std::size_t /*queue_size*/) {
    running.erase(std::find_if(
        running.begin(), running.end(),
        [&](const RunningTask& r) { return r.task == task; }));
    return true;
  }

  const graph::TaskGraph& g;
  std::vector<RunningTask> running;  // in start order
  std::vector<RunningTask> by_finish;
  bool head_blocked = false;
  double reservation = 0.0;
  int extra = 0;
};
// admit() must see every entry: the flat queue.
static_assert(!core::kFirstFit<EasyBackfillHooks>);

}  // namespace

core::ScheduleResult schedule_online_backfill(const graph::TaskGraph& g,
                                              int P,
                                              const core::Allocator& alloc) {
  if (P < 1)
    throw std::invalid_argument("schedule_online_backfill: P must be >= 1");
  g.validate();
  core::ListEngine engine({.graph = g,
                           .P = P,
                           .who = "schedule_online_backfill",
                           .allocator = &alloc});
  EasyBackfillHooks hooks(g, P);
  return engine.run(hooks);
}

}  // namespace moldsched::sched
