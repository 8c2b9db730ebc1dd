// Discrete-event core: a stable, time-ordered event queue.
//
// Events carry an opaque int64 payload (typically a task or chain id).
// Ties in time are broken by insertion sequence number, which makes every
// simulation deterministic regardless of heap internals.
//
// The heap is an explicit binary heap over a std::vector (rather than
// std::priority_queue) so callers on the simulation hot path can
// reserve() capacity up front and batch-pop time-tied events into a
// reusable buffer without per-batch allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "moldsched/obs/observer.hpp"

namespace moldsched::sim {

using Time = double;

struct Event {
  Time time = 0.0;
  std::uint64_t seq = 0;  ///< insertion sequence; breaks time ties FIFO
  std::int64_t payload = 0;
};

class EventQueue {
 public:
  /// Schedules an event. Throws std::invalid_argument on a non-finite or
  /// negative time, and std::logic_error if time is before now() (the
  /// simulation cannot travel backwards).
  void schedule(Time time, std::int64_t payload);

  /// Pre-allocates heap capacity for `n` pending events.
  void reserve(std::size_t n) { heap_.reserve(n); }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Time of the earliest pending event. Throws std::logic_error if empty.
  [[nodiscard]] Time next_time() const;

  /// Pops and returns the earliest event, advancing now() to its time.
  /// Throws std::logic_error if empty.
  Event pop();

  /// Pops every event scheduled at exactly next_time(); the batch is in
  /// insertion order. Throws std::logic_error if empty.
  [[nodiscard]] std::vector<Event> pop_simultaneous();

  /// Allocation-free variant for hot loops: clears `out` and fills it
  /// with the batch (insertion order). `out` keeps its capacity across
  /// calls, so a loop that reuses one buffer allocates at most once.
  void pop_simultaneous_into(std::vector<Event>& out);

  /// Current simulation time: the time of the last popped event.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// The pending events, in heap order: with next_seq() and now(), the
  /// whole state restore() returns to.
  [[nodiscard]] std::span<const Event> pending() const noexcept {
    return heap_;
  }
  /// Insertion sequence number of the next schedule().
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  /// Returns to a state read earlier from pending(), next_seq() and
  /// now(). The observer stays attached.
  void restore(std::span<const Event> pending, std::uint64_t next_seq,
               Time now);

  /// Attaches an instrumentation observer (nullptr detaches; the
  /// default). The observer sees every insertion
  /// (on_event_scheduled) and every simultaneous batch about to be
  /// processed (on_event_batch); it must outlive the queue or be
  /// detached first.
  void set_observer(obs::Observer* observer) noexcept {
    observer_ = observer;
  }

 private:
  /// Min-heap order on (time, seq): true when a should sit BELOW b.
  static bool later(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  Event pop_top();

  std::vector<Event> heap_;  // binary min-heap on later()
  std::uint64_t next_seq_ = 0;
  Time now_ = 0.0;
  obs::Observer* observer_ = nullptr;
};

}  // namespace moldsched::sim
