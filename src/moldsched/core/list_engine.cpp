#include "moldsched/core/list_engine.hpp"

#include <algorithm>
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

void ListEngine::add_tasks() {
  if (completed_ != n_)
    throw std::logic_error(std::string(setup_.who) +
                           ": add_tasks needs a finished run");
  n_ = setup_.graph.num_tasks();
  const auto n = static_cast<std::size_t>(n_);
  // Every predecessor of a new task has completed in the finished run;
  // rerun_from() counts the ones that complete after its checkpoint.
  pending_preds_.resize(n, 0);
  result_.allocation.resize(n, 0);
  result_.ready_time.resize(n, -1.0);
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

WaitingEntry ListEngine::make_entry(graph::TaskId task, int alloc) {
  const std::uint64_t seq = reveal_seq_++;
  // Static priorities: ties by task id. Keyed policies: ties by reveal
  // order, so an entry is served after every entry of an equal key
  // revealed before it.
  if (setup_.priorities != nullptr)
    return {task, alloc, (*setup_.priorities)[static_cast<std::size_t>(task)],
            static_cast<std::uint64_t>(task)};
  switch (setup_.policy) {
    case QueuePolicy::kFifo:
      return {task, alloc, 0.0, seq};
    case QueuePolicy::kLifo:
      return {task, alloc, 0.0, ~seq};
    default:
      return {task, alloc,
              priority_key(setup_.policy, setup_.graph.model_of(task), alloc,
                           setup_.P),
              seq};
  }
}

void ListEngine::push_flat(const WaitingEntry& e) {
  min_waiting_alloc_ = std::min(min_waiting_alloc_, e.alloc);
  if (queue_.empty() || before(queue_.back(), e))
    queue_.push_back(e);
  else
    queue_.insert(std::lower_bound(queue_.begin(), queue_.end(), e, before),
                  e);
}

void ListEngine::push_bucket(const WaitingEntry& e) {
  const auto a = static_cast<std::size_t>(e.alloc);
  if (a >= buckets_.size()) buckets_.resize(a + 1);
  Bucket& bucket = buckets_[a];
  int n = free_;
  if (n >= 0) {
    free_ = node(n).next;
    node(n) = {e, -1};
  } else {
    n = static_cast<int>(nodes_.size());
    nodes_.push_back({e, -1});
  }
  // Where the bucket's head sits (or goes) in heads_.
  const auto head = [&] {
    return std::lower_bound(
        heads_.begin(), heads_.end(), e.alloc,
        [](const WaitingEntry& h, int alloc) { return h.alloc < alloc; });
  };
  if (bucket.first < 0) {
    bucket.first = bucket.last = n;
    heads_.insert(head(), e);
  } else if (!before(e, node(bucket.last).entry)) {
    // Served after the whole bucket: FIFO always, keyed often.
    node(bucket.last).next = n;
    bucket.last = n;
  } else if (before(e, node(bucket.first).entry)) {
    // A new head: LIFO always, keyed sometimes.
    node(n).next = bucket.first;
    bucket.first = n;
    *head() = e;
  } else {
    // Keyed, strictly inside the bucket.
    int at = bucket.first;
    while (!before(e, node(node(at).next).entry)) at = node(at).next;
    node(n).next = node(at).next;
    node(at).next = n;
  }
}

WaitingEntry ListEngine::pop_bucket(std::size_t i) {
  const WaitingEntry e = heads_[i];
  Bucket& bucket = buckets_[static_cast<std::size_t>(e.alloc)];
  const int n = bucket.first;
  bucket.first = node(n).next;
  node(n).next = free_;
  free_ = n;
  if (bucket.first < 0) {
    bucket.last = -1;
    heads_.erase(heads_.begin() + static_cast<std::ptrdiff_t>(i));
  } else {
    heads_[i] = node(bucket.first).entry;
  }
  return e;
}

void ListEngine::check_finished() const {
  if (waiting_ != 0)
    throw std::logic_error(std::string(setup_.who) +
                           ": deadlock — waiting tasks but no pending events");
  if (completed_ != n_)
    throw std::logic_error(std::string(setup_.who) +
                           ": not every task was scheduled");
}

}  // namespace moldsched::core
