#include "moldsched/sim/event_queue.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace moldsched::sim {

void EventQueue::sift_up(std::size_t i) noexcept {
  const Event e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const Event e = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && later(heap_[child], heap_[child + 1])) ++child;
    if (!later(e, heap_[child])) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

void EventQueue::schedule(Time time, std::int64_t payload) {
  if (!std::isfinite(time) || time < 0.0)
    throw std::invalid_argument(
        "EventQueue::schedule: time must be finite and non-negative");
  if (time < now_)
    throw std::logic_error("EventQueue::schedule: time is in the past");
  heap_.push_back(Event{time, next_seq_++, payload});
  sift_up(heap_.size() - 1);
  if (observer_ != nullptr)
    observer_->on_event_scheduled(now_, time, payload, heap_.size());
}

void EventQueue::restore(std::span<const Event> pending,
                         std::uint64_t next_seq, Time now) {
  heap_.assign(pending.begin(), pending.end());
  next_seq_ = next_seq;
  now_ = now;
}

Time EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty");
  return heap_.front().time;
}

Event EventQueue::pop_top() {
  const Event e = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return e;
}

Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty");
  const Event e = pop_top();
  now_ = e.time;
  return e;
}

std::vector<Event> EventQueue::pop_simultaneous() {
  std::vector<Event> batch;
  pop_simultaneous_into(batch);
  return batch;
}

void EventQueue::pop_simultaneous_into(std::vector<Event>& out) {
  if (heap_.empty())
    throw std::logic_error("EventQueue::pop_simultaneous: empty");
  out.clear();
  const Time t = heap_.front().time;
  while (!heap_.empty() && heap_.front().time == t) out.push_back(pop_top());
  now_ = t;
  if (observer_ != nullptr)
    observer_->on_event_batch(t, out.size(), heap_.size());
  // The heap pops ties in seq order (later() breaks time ties by seq),
  // so the batch is in insertion order by construction.
}

}  // namespace moldsched::sim
