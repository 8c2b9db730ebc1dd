#include "moldsched/core/list_engine.hpp"

#include <stdexcept>
#include <string>

namespace moldsched::core {

ListEngine::ListEngine(const ListSetup& setup)
    : setup_(setup),
      n_(setup.graph.num_tasks()),
      min_waiting_alloc_(setup.P + 1) {
  if ((setup_.allocator == nullptr) == (setup_.allocations == nullptr))
    throw std::invalid_argument(
        std::string(setup_.who) +
        ": exactly one of allocator and allocations must be set");
  const auto n = static_cast<std::size_t>(n_);
  pending_preds_.resize(n);
  for (graph::TaskId v = 0; v < n_; ++v)
    pending_preds_[static_cast<std::size_t>(v)] = setup_.graph.in_degree(v);
  events_.reserve(static_cast<std::size_t>(std::min(n_, setup_.P)));
  result_.allocation.assign(n, 0);
  result_.ready_time.assign(n, -1.0);
}

int ListEngine::allocate(graph::TaskId task) const {
  const int alloc =
      setup_.allocations != nullptr
          ? (*setup_.allocations)[static_cast<std::size_t>(task)]
          : setup_.allocator->allocate(setup_.graph.model_of(task), setup_.P);
  if (alloc < 1 || alloc > setup_.P)
    throw std::logic_error(std::string(setup_.who) + ": allocator returned " +
                           std::to_string(alloc) + " for task " +
                           setup_.graph.name(task) + ", outside [1, " +
                           std::to_string(setup_.P) + "]");
  return alloc;
}

void ListEngine::enqueue(graph::TaskId task, int alloc) {
  min_waiting_alloc_ = std::min(min_waiting_alloc_, alloc);
  const std::uint64_t seq = reveal_seq_++;
  if (setup_.priorities == nullptr && setup_.policy == QueuePolicy::kFifo) {
    queue_.push_back({task, alloc, 0.0, seq});
    return;
  }
  if (setup_.priorities == nullptr && setup_.policy == QueuePolicy::kLifo) {
    queue_.insert(queue_.begin(), {task, alloc, 0.0, seq});
    return;
  }
  // Keyed: descending key, ties by ascending `tie`. The reveal sequence
  // only grows, so with seq ties a new entry lands after every entry of
  // an equal key (stable); with task-id ties the order is total.
  const auto t = static_cast<std::size_t>(task);
  const WaitingEntry entry =
      setup_.priorities != nullptr
          ? WaitingEntry{task, alloc, (*setup_.priorities)[t],
                         static_cast<std::uint64_t>(task)}
          : WaitingEntry{task, alloc,
                         priority_key(setup_.policy,
                                      setup_.graph.model_of(task), alloc,
                                      setup_.P),
                         seq};
  const auto before = [](const WaitingEntry& a, const WaitingEntry& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.tie < b.tie;
  };
  queue_.insert(std::lower_bound(queue_.begin(), queue_.end(), entry, before),
                entry);
}

void ListEngine::check_finished() const {
  if (!queue_.empty())
    throw std::logic_error(std::string(setup_.who) +
                           ": deadlock — waiting tasks but no pending events");
  if (completed_ != n_)
    throw std::logic_error(std::string(setup_.who) +
                           ": not every task was scheduled");
}

}  // namespace moldsched::core
