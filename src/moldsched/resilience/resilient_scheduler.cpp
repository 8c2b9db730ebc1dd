#include "moldsched/resilience/resilient_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "moldsched/core/list_engine.hpp"

namespace moldsched::resilience {

ResilientOnlineScheduler::ResilientOnlineScheduler(
    const graph::TaskGraph& g, int P, const core::Allocator& alloc,
    FailureModelPtr failures, std::uint64_t seed, core::QueuePolicy policy)
    : graph_(g),
      P_(P),
      allocator_(alloc),
      failures_(std::move(failures)),
      seed_(seed),
      policy_(policy) {
  if (P < 1)
    throw std::invalid_argument("ResilientOnlineScheduler: P must be >= 1");
  if (!failures_)
    throw std::invalid_argument(
        "ResilientOnlineScheduler: null failure model");
  g.validate();
}

namespace {

/// Re-execution: every run is an Attempt; a failed attempt sends its
/// task back into the queue with the same allocation, and only a
/// successful one releases successors. Failures are drawn in batch
/// order from one seeded stream.
struct RetryHooks : core::CountHooks {
  static constexpr bool kRecordTrace = false;

  RetryHooks(int P, int n, const FailureModel& f, std::uint64_t seed,
             ResilientResult& r)
      : CountHooks(P),
        failures(f),
        rng(seed),
        result(r),
        running(static_cast<std::size_t>(n), -1) {}

  void on_start(graph::TaskId task, double now, int alloc,
                std::size_t /*queue_size*/) {
    Attempt attempt;
    attempt.task = task;
    attempt.attempt =
        ++result.attempts_per_task[static_cast<std::size_t>(task)];
    attempt.start = now;
    attempt.procs = alloc;
    running[static_cast<std::size_t>(task)] =
        static_cast<std::int64_t>(result.attempts.size());
    result.attempts.push_back(attempt);
  }

  bool on_end(graph::TaskId task, double now, int /*alloc*/,
              std::size_t /*queue_size*/) {
    auto& attempt = result.attempts[static_cast<std::size_t>(
        running[static_cast<std::size_t>(task)])];
    attempt.end = now;
    running[static_cast<std::size_t>(task)] = -1;
    const double duration = attempt.end - attempt.start;
    attempt.failed = failures.attempt_fails(duration, attempt.procs, rng);
    const double area = duration * static_cast<double>(attempt.procs);
    result.total_area += area;
    if (attempt.failed) result.wasted_area += area;
    return !attempt.failed;
  }

  const FailureModel& failures;
  util::Rng rng;
  ResilientResult& result;
  // Index into result.attempts of the running attempt per task.
  std::vector<std::int64_t> running;
};
static_assert(core::kFirstFit<RetryHooks>);

}  // namespace

ResilientResult ResilientOnlineScheduler::run() const {
  ResilientResult result;
  result.attempts_per_task.assign(
      static_cast<std::size_t>(graph_.num_tasks()), 0);
  core::ListEngine engine({.graph = graph_,
                           .P = P_,
                           .who = "ResilientOnlineScheduler",
                           .allocator = &allocator_,
                           .policy = policy_});
  RetryHooks hooks(P_, graph_.num_tasks(), *failures_, seed_, result);
  result.allocation = engine.run(hooks).allocation;

  double makespan = 0.0;
  for (const auto& a : result.attempts) makespan = std::max(makespan, a.end);
  result.makespan = makespan;
  return result;
}

std::vector<std::string> validate_resilient_schedule(
    const graph::TaskGraph& g, const ResilientResult& result, int P,
    double tolerance) {
  std::vector<std::string> violations;
  auto fail = [&](const std::string& m) { violations.push_back(m); };
  const auto n = static_cast<std::size_t>(g.num_tasks());

  std::vector<double> success_end(n, -1.0);
  std::vector<double> first_start(n, -1.0);
  std::vector<int> successes(n, 0);
  std::vector<double> last_failed_end(n, -1.0);

  for (const auto& a : result.attempts) {
    if (a.task < 0 || static_cast<std::size_t>(a.task) >= n) {
      fail("attempt for unknown task " + std::to_string(a.task));
      continue;
    }
    const auto idx = static_cast<std::size_t>(a.task);
    if (a.procs < 1 || a.procs > P)
      fail("attempt of " + g.name(a.task) + " uses " +
           std::to_string(a.procs) + " procs");
    const double expect = g.model_of(a.task).time(std::clamp(a.procs, 1, P));
    if (std::abs((a.end - a.start) - expect) >
        tolerance * std::max(1.0, expect))
      fail("attempt of " + g.name(a.task) + " has wrong duration");
    if (first_start[idx] < 0.0 || a.start < first_start[idx])
      first_start[idx] = a.start;
    if (a.failed) {
      last_failed_end[idx] = std::max(last_failed_end[idx], a.end);
    } else {
      ++successes[idx];
      success_end[idx] = a.end;
    }
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (successes[v] != 1)
      fail(g.name(static_cast<graph::TaskId>(v)) + " has " +
           std::to_string(successes[v]) + " successful attempts");
    else if (last_failed_end[v] > success_end[v] + tolerance)
      fail(g.name(static_cast<graph::TaskId>(v)) +
           " has a failed attempt after its success");
  }

  for (graph::TaskId v = 0; v < g.num_tasks(); ++v) {
    for (const graph::TaskId u : g.predecessors(v)) {
      const auto ui = static_cast<std::size_t>(u);
      const auto vi = static_cast<std::size_t>(v);
      if (successes[ui] == 1 && first_start[vi] >= 0.0 &&
          first_start[vi] < success_end[ui] - tolerance)
        fail(g.name(v) + " started before predecessor " + g.name(u) +
             " succeeded");
    }
  }

  // Capacity sweep over attempts.
  struct Edge {
    double t;
    int delta;
  };
  std::vector<Edge> edges;
  for (const auto& a : result.attempts) {
    edges.push_back({a.start, a.procs});
    edges.push_back({a.end, -a.procs});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.delta < b.delta;
  });
  int usage = 0;
  for (const auto& e : edges) {
    usage += e.delta;
    if (usage > P) {
      fail("capacity exceeded: " + std::to_string(usage) + " > " +
           std::to_string(P));
      break;
    }
  }
  return violations;
}

}  // namespace moldsched::resilience
