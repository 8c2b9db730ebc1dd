#include "moldsched/core/online_scheduler.hpp"

#include <stdexcept>

#include "moldsched/core/list_engine.hpp"
#include "moldsched/graph/passes.hpp"

namespace moldsched::core {

OnlineScheduler::OnlineScheduler(const graph::TaskGraph& g, int P,
                                 const Allocator& alloc, QueuePolicy policy,
                                 obs::Observer* observer)
    : graph_(g), P_(P), allocator_(alloc), policy_(policy),
      observer_(observer) {
  if (P < 1) throw std::invalid_argument("OnlineScheduler: P must be >= 1");
  g.validate();
}

namespace {

/// Reports every scheduling decision to an attached observer, and the
/// Lemma areas at the end. A separate hook type, so unobserved runs
/// carry no instrumentation at all.
struct ObserverHooks : CountHooks {
  ObserverHooks(const graph::TaskGraph& graph, int P, const Allocator& alloc,
                obs::Observer& obs, const std::vector<double>& ready)
      : CountHooks(P),
        g(graph),
        observer(obs),
        ready_time(ready),
        layer_of(graph::passes::topological_layers(graph).layer_of),
        start_time(static_cast<std::size_t>(graph.num_tasks()), 0.0) {
    if (const auto* lpa = dynamic_cast<const LpaAllocator*>(&alloc))
      alloc_cap = lpa->cap(P);
  }

  [[nodiscard]] obs::Observer* event_observer() const { return &observer; }

  void on_ready(graph::TaskId task, double now, int alloc,
                std::size_t queue_size) {
    observer.on_task_ready(task, g.name(task), now, alloc, alloc_cap,
                           queue_size);
  }

  void on_start(graph::TaskId task, double now, int alloc,
                std::size_t queue_size) {
    const auto t = static_cast<std::size_t>(task);
    const double waited = now - ready_time[t];
    start_time[t] = now;
    procs_in_use += alloc;
    waiting_area += static_cast<double>(alloc) * waited;
    observer.on_task_start(task, g.name(task), g.model_of(task).describe(),
                           now, alloc, waited, layer_of[t], queue_size,
                           procs_in_use);
  }

  bool on_end(graph::TaskId task, double now, int alloc,
              std::size_t queue_size) {
    const double exec_time = now - start_time[static_cast<std::size_t>(task)];
    procs_in_use -= alloc;
    executing_area += static_cast<double>(alloc) * exec_time;
    observer.on_task_end(task, now, alloc, exec_time, queue_size,
                         procs_in_use);
    return true;
  }

  const graph::TaskGraph& g;
  obs::Observer& observer;
  const std::vector<double>& ready_time;
  int alloc_cap = -1;          // LPA mu-threshold ceil(mu P), if any
  std::vector<int> layer_of;   // hop depth per task (0 = source)
  std::vector<double> start_time;
  int procs_in_use = 0;
  double waiting_area = 0.0;    // sum of alloc * (start - ready)
  double executing_area = 0.0;  // sum of alloc * exec_time
};
static_assert(kFirstFit<CountHooks> && kFirstFit<ObserverHooks>);

}  // namespace

ScheduleResult OnlineScheduler::run() const {
  ListEngine engine({.graph = graph_,
                     .P = P_,
                     .who = "OnlineScheduler",
                     .allocator = &allocator_,
                     .policy = policy_});
  if (observer_ == nullptr) {
    CountHooks hooks(P_);
    return engine.run(hooks);
  }
  ObserverHooks hooks(graph_, P_, allocator_, *observer_,
                      engine.ready_time());
  ScheduleResult result = engine.run(hooks);
  observer_->on_sim_done(result.makespan, hooks.waiting_area,
                         hooks.executing_area, result.num_events);
  return result;
}

ScheduleResult schedule_online(const graph::TaskGraph& g, int P,
                               const Allocator& alloc, QueuePolicy policy,
                               obs::Observer* observer) {
  return OnlineScheduler(g, P, alloc, policy, observer).run();
}

}  // namespace moldsched::core
