#include "moldsched/sched/exact.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "moldsched/analysis/bounds.hpp"
#include "moldsched/graph/algorithms.hpp"
#include "moldsched/sched/offline.hpp"

namespace moldsched::sched {

// Not a core::ListEngine client: an exact search over allocations and
// orders, not a list scheduler.
ExactScheduler::ExactScheduler(const graph::TaskGraph& g, int P,
                               int max_tasks, int max_procs)
    : graph_(g), P_(P) {
  g.validate();
  if (P < 1) throw std::invalid_argument("ExactScheduler: P must be >= 1");
  if (g.num_tasks() > max_tasks)
    throw std::invalid_argument("ExactScheduler: instance has " +
                                std::to_string(g.num_tasks()) +
                                " tasks, above the cap of " +
                                std::to_string(max_tasks));
  if (P > max_procs)
    throw std::invalid_argument("ExactScheduler: P = " + std::to_string(P) +
                                " above the cap of " +
                                std::to_string(max_procs));
}

namespace {

struct Running {
  graph::TaskId task;
  double finish;
  int procs;
};

class Search {
 public:
  Search(const graph::TaskGraph& g, int P) : g_(g), P_(P), free_(P) {
    const int n = g.num_tasks();
    pending_.resize(static_cast<std::size_t>(n));
    started_.assign(static_cast<std::size_t>(n), false);
    start_time_.assign(static_cast<std::size_t>(n), 0.0);
    alloc_.assign(static_cast<std::size_t>(n), 0);
    for (graph::TaskId v = 0; v < n; ++v)
      pending_[static_cast<std::size_t>(v)] = g.in_degree(v);

    // Candidate allocations per task: p is useful iff it is strictly
    // faster than every smaller allocation (anything else is dominated).
    candidates_.resize(static_cast<std::size_t>(n));
    min_area_.assign(static_cast<std::size_t>(n), 0.0);
    for (graph::TaskId v = 0; v < n; ++v) {
      const auto& m = g.model_of(v);
      double best = std::numeric_limits<double>::infinity();
      for (int p = 1; p <= P; ++p) {
        const double t = m.time(p);
        if (t < best - 1e-15) {
          best = t;
          candidates_[static_cast<std::size_t>(v)].push_back(p);
        }
      }
      min_area_[static_cast<std::size_t>(v)] = m.min_area(P);
    }

    // Static tails: minimum remaining critical path from each task.
    tail_min_ = graph::bottom_levels(g, analysis::min_times(g, P));

    // Incumbent from the offline heuristic (always feasible).
    const auto warm = OfflineTradeoffScheduler(g, P).run();
    best_makespan_ = warm.makespan;
    best_alloc_ = warm.allocation;
    best_start_.assign(static_cast<std::size_t>(n), 0.0);
    for (const auto& r : warm.trace.records())
      best_start_[static_cast<std::size_t>(r.task)] = r.start;
  }

  ExactResult run() {
    explore(0.0, 0, 0.0);
    ExactResult result;
    result.makespan = best_makespan_;
    result.allocation = best_alloc_;
    result.start_time = best_start_;
    result.nodes_explored = nodes_;
    return result;
  }

 private:
  [[nodiscard]] double lower_bound(double now, double max_finish) const {
    double bound = max_finish;
    double remaining_area = 0.0;
    for (graph::TaskId v = 0; v < g_.num_tasks(); ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (!started_[idx]) {
        // Unstarted: cannot complete before now + its minimal tail.
        bound = std::max(bound, now + tail_min_[idx]);
        remaining_area += min_area_[idx];
      }
    }
    for (const auto& r : running_) {
      remaining_area +=
          static_cast<double>(r.procs) * std::max(0.0, r.finish - now);
      // Running: its successors' tails start at its finish.
      for (const graph::TaskId s : g_.successors(r.task)) {
        const auto sidx = static_cast<std::size_t>(s);
        if (!started_[sidx])
          bound = std::max(bound, r.finish + tail_min_[sidx]);
      }
    }
    bound = std::max(bound, now + remaining_area / static_cast<double>(P_));
    return bound;
  }

  void explore(double now, int min_task_id, double max_finish) {
    ++nodes_;
    if (lower_bound(now, max_finish) >= best_makespan_ - 1e-12) return;

    // Option A: start a ready task (id >= min_task_id, canonical order
    // within one time point) with each candidate allocation that fits.
    bool any_ready_startable = false;
    for (graph::TaskId v = min_task_id; v < g_.num_tasks(); ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (started_[idx] || pending_[idx] != 0) continue;
      for (const int p : candidates_[idx]) {
        if (p > free_) break;  // candidates are increasing in p
        any_ready_startable = true;
        started_[idx] = true;
        start_time_[idx] = now;
        alloc_[idx] = p;
        free_ -= p;
        const double finish = now + g_.model_of(v).time(p);
        running_.push_back({v, finish, p});
        explore(now, v, std::max(max_finish, finish));
        running_.pop_back();
        free_ += p;
        started_[idx] = false;
      }
    }
    (void)any_ready_startable;

    // Option B: advance to the next completion (waiting is only
    // meaningful if something is running).
    if (running_.empty()) {
      // Nothing running: either we are done, or we *must* have started
      // something above (a ready task always fits on an empty machine).
      bool all_done = true;
      for (graph::TaskId v = 0; v < g_.num_tasks(); ++v)
        if (!started_[static_cast<std::size_t>(v)]) all_done = false;
      if (all_done && max_finish < best_makespan_ - 1e-12) {
        best_makespan_ = max_finish;
        best_alloc_ = alloc_;
        best_start_ = start_time_;
      }
      return;
    }

    double next = std::numeric_limits<double>::infinity();
    for (const auto& r : running_) next = std::min(next, r.finish);

    // Complete every task finishing at `next`.
    std::vector<Running> finished;
    for (std::size_t i = 0; i < running_.size();) {
      if (running_[i].finish <= next + 1e-15) {
        finished.push_back(running_[i]);
        running_[i] = running_.back();
        running_.pop_back();
      } else {
        ++i;
      }
    }
    for (const auto& r : finished) {
      free_ += r.procs;
      for (const graph::TaskId s : g_.successors(r.task))
        --pending_[static_cast<std::size_t>(s)];
    }

    explore(next, 0, max_finish);

    for (const auto& r : finished) {
      free_ -= r.procs;
      for (const graph::TaskId s : g_.successors(r.task))
        ++pending_[static_cast<std::size_t>(s)];
      running_.push_back(r);
    }
  }

  const graph::TaskGraph& g_;
  int P_;
  int free_ = 0;

  std::vector<int> pending_;
  std::vector<bool> started_;
  std::vector<double> start_time_;
  std::vector<int> alloc_;
  std::vector<std::vector<int>> candidates_;
  std::vector<double> min_area_;
  std::vector<double> tail_min_;
  std::vector<Running> running_;

  double best_makespan_ = std::numeric_limits<double>::infinity();
  std::vector<int> best_alloc_;
  std::vector<double> best_start_;
  long nodes_ = 0;
};

}  // namespace

ExactResult ExactScheduler::run() const {
  Search search(graph_, P_);
  return search.run();
}

}  // namespace moldsched::sched
