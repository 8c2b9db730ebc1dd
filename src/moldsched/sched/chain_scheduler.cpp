#include "moldsched/sched/chain_scheduler.hpp"

#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

#include "moldsched/sim/event_queue.hpp"

namespace moldsched::sched {

namespace {

constexpr int kMaxSimK = 22;  // 2^22 chains / ~8M tasks: the practical cap

}  // namespace

EqualAllocationChainScheduler::EqualAllocationChainScheduler(
    const graph::ChainsInstance& inst)
    : inst_(inst) {
  if (inst.K < 1 || inst.K > kMaxSimK)
    throw std::invalid_argument(
        "EqualAllocationChainScheduler: K must be in [1, " +
        std::to_string(kMaxSimK) + "] for simulation");
}

// Not a core::ListEngine client: there is no DAG to reveal and Algorithm
// 2 is not used. The adversary's policy splits the processors in equal
// shares over the live chains, and the loop below simulates exactly that.
ChainsSimResult EqualAllocationChainScheduler::run() const {
  const std::int64_t n = inst_.num_chains;
  const std::int64_t P = inst_.P;
  const auto& model = *inst_.task_model;

  std::vector<std::int64_t> alloc(static_cast<std::size_t>(n), 0);
  std::vector<int> completed(static_cast<std::size_t>(n), 0);
  // quota[i-1]: how many chains the adversary still terminates at level i.
  std::vector<std::int64_t> quota = inst_.chains_per_group;

  ChainsSimResult result;
  result.milestones.assign(static_cast<std::size_t>(inst_.K),
                           std::numeric_limits<double>::quiet_NaN());
  result.offline_makespan = inst_.offline_makespan;

  sim::EventQueue events;
  std::deque<std::int64_t> waiting;
  for (std::int64_t c = 0; c < n; ++c) waiting.push_back(c);

  std::int64_t alive = n;
  std::int64_t free = P;

  auto serve = [&](double now) {
    while (!waiting.empty() && free > 0) {
      const std::int64_t c = waiting.front();
      waiting.pop_front();
      const auto m = static_cast<std::int64_t>(waiting.size()) + 1;
      std::int64_t share = std::max<std::int64_t>(1, P / alive);
      if (free > share * m) ++share;  // top-up so the machine stays full
      share = std::min(share, free);
      alloc[static_cast<std::size_t>(c)] = share;
      free -= share;
      events.schedule(now + model.time(static_cast<int>(share)), c);
    }
  };

  serve(0.0);
  double makespan = 0.0;
  while (!events.empty()) {
    const auto batch = events.pop_simultaneous();
    const double now = events.now();
    makespan = now;
    for (const auto& ev : batch) {
      const std::int64_t c = ev.payload;
      free += alloc[static_cast<std::size_t>(c)];
      alloc[static_cast<std::size_t>(c)] = 0;
      const int lvl = ++completed[static_cast<std::size_t>(c)];
      ++result.tasks_executed;
      auto& q = quota[static_cast<std::size_t>(lvl - 1)];
      if (q > 0) {
        // Adversary: this chain "was" a group-lvl chain — it ends here.
        --q;
        --alive;
      } else {
        // First surviving completion at this level defines t_lvl.
        auto& milestone = result.milestones[static_cast<std::size_t>(lvl - 1)];
        if (std::isnan(milestone)) milestone = now;
        waiting.push_back(c);
      }
    }
    serve(now);
  }

  if (alive != 0)
    throw std::logic_error(
        "EqualAllocationChainScheduler: chains left alive at the end");
  if (result.tasks_executed != inst_.total_tasks)
    throw std::logic_error(
        "EqualAllocationChainScheduler: executed task count mismatch");

  result.makespan = makespan;
  // t_K: no chain survives level K; the definition sets it to the makespan.
  result.milestones[static_cast<std::size_t>(inst_.K - 1)] = makespan;
  result.ratio = result.makespan / result.offline_makespan;
  return result;
}

double verify_offline_chain_schedule(const graph::ChainsInstance& inst) {
  if (inst.K < 1 || inst.K > 31)
    throw std::invalid_argument(
        "verify_offline_chain_schedule: K must be in [1, 31]");
  const auto& model = *inst.task_model;
  std::int64_t procs_used = 0;
  for (int i = 1; i <= inst.K; ++i) {
    const std::int64_t chains =
        inst.chains_per_group[static_cast<std::size_t>(i - 1)];
    const std::int64_t per_chain = std::int64_t{1} << (i - 1);
    procs_used += chains * per_chain;
    const double task_time = model.time(static_cast<int>(per_chain));
    const double chain_finish = static_cast<double>(i) * task_time;
    if (std::abs(chain_finish - 1.0) > 1e-9)
      throw std::logic_error(
          "verify_offline_chain_schedule: group " + std::to_string(i) +
          " finishes at " + std::to_string(chain_finish) + " != 1");
  }
  if (procs_used != inst.P)
    throw std::logic_error(
        "verify_offline_chain_schedule: schedule uses " +
        std::to_string(procs_used) + " processors, platform has " +
        std::to_string(inst.P));
  return 1.0;
}

}  // namespace moldsched::sched
