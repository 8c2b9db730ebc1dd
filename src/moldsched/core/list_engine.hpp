// Algorithm 1's event loop, written once for every DAG list scheduler.
//
// The loop: a task is revealed when its last predecessor completes (or
// at its release time), its allocation is fixed once, it waits in the
// queue Q, and at every completion the queue is scanned first-fit and
// every task that fits is started. The engine owns that loop: the
// pending-predecessor counts, the event queue and its batch buffer, the
// id-sorted reveal of simultaneous arrivals, the allocation range check,
// the waiting queue in its configured order, the first-fit scan, trace
// recording and the deadlock check.
//
// What differs between schedulers is fixed at compile time by a Hooks
// type passed to run(): where a task is placed (a processor count or a
// contiguous block), which fitting entries the scan admits (first fit or
// EASY backfill), what a completion does (release successors or retry a
// failed attempt), and notifications (observer, per-attempt records).
// ListHooks and CountHooks below are the defaults to inherit from; a
// derived hook hides the member it replaces (no virtual calls).
//
// The waiting queue takes one of two forms, chosen from the hook type.
// Hooks that keep CountHooks' first-fit admission get one bucket per
// allocation value: a pass then only looks at the head of each bucket
// that fits, so a start costs the number of non-empty buckets that fit,
// not the queue depth. Hooks that must see every entry (EASY backfill's
// admit, contiguous placement that can fail) get one flat vector in
// service order, scanned linearly.
//
// Internal to the library: the public entry points stay the scheduler
// functions and classes that call it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "moldsched/core/allocator.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/core/queue_policy.hpp"
#include "moldsched/graph/task_graph.hpp"
#include "moldsched/obs/observer.hpp"
#include "moldsched/sim/event_queue.hpp"
#include "moldsched/sim/platform.hpp"

namespace moldsched::core {

/// One waiting-queue entry. Service order is descending key, then
/// ascending tie: FIFO and LIFO have key 0 and tie = the reveal sequence
/// or its complement.
struct WaitingEntry {
  graph::TaskId task;
  int alloc;          ///< final allocation
  double key;         ///< larger first
  std::uint64_t tie;  ///< smaller first among equal keys
};

/// What a ListEngine schedules and how it orders the waiting queue.
struct ListSetup {
  const graph::TaskGraph& graph;
  int P;
  /// Prefix of every error message, e.g. "OnlineScheduler".
  const char* who;
  /// Allocations: Algorithm 2 (or any Allocator) decides at reveal...
  const Allocator* allocator = nullptr;
  /// ...or they are fixed per task up front (exactly one of the two).
  const std::vector<int>* allocations = nullptr;
  /// Queue order; keyed policies break key ties by reveal order.
  QueuePolicy policy = QueuePolicy::kFifo;
  /// When set, overrides `policy`: static priority order, larger first,
  /// ties by ascending task id.
  const std::vector<double>* priorities = nullptr;
  /// Arrivals: when set, task i arrives at release_times[i] (edges are
  /// ignored); otherwise sources arrive at time 0 and every other task
  /// when its last predecessor completes.
  const std::vector<double>* release_times = nullptr;
};

/// Default hooks: everything except placement.
struct ListHooks {
  /// Record starts and ends in ScheduleResult::trace.
  static constexpr bool kRecordTrace = true;
  /// A successful completion decrements its successors' pending counts.
  static constexpr bool kReleaseSuccessors = true;

  /// Scan: called once before each pass over the queue; admit() then
  /// sees every entry in queue order (`fits`: alloc <= available()) and
  /// says whether it may start now. First fit admits whatever fits; a
  /// hook that keeps it gets the bucketed queue, which never calls
  /// admit().
  void begin_scan(double /*now*/) {}
  bool admit(const WaitingEntry& /*e*/, bool fits, double /*now*/) {
    return fits;
  }

  /// Observer of the event queue, if any.
  [[nodiscard]] obs::Observer* event_observer() const { return nullptr; }
  /// A task entered the queue (queue_size includes it).
  void on_ready(graph::TaskId, double /*now*/, int /*alloc*/,
                std::size_t /*queue_size*/) {}
  /// A task started (queue_size excludes it).
  void on_start(graph::TaskId, double /*now*/, int /*alloc*/,
                std::size_t /*queue_size*/) {}
  /// A task's run ended. Returns false when the run failed and the task
  /// must go back into the queue (ahead of this batch's reveals).
  bool on_end(graph::TaskId, double /*now*/, int /*alloc*/,
              std::size_t /*queue_size*/) {
    return true;
  }
  /// After a batch of completions: may append tasks to reveal now.
  void after_batch(double /*now*/, std::vector<graph::TaskId>& /*ready*/) {}
};

/// Placement on P processors counted, not named (the paper's model).
struct CountHooks : ListHooks {
  explicit CountHooks(int P) : platform(P) {}

  [[nodiscard]] int available() const noexcept {
    return platform.available();
  }
  /// True when a scan in which nothing fits has no side effects, so the
  /// engine may skip it.
  [[nodiscard]] bool may_skip_scan() const noexcept { return true; }
  /// Claims processors for an admitted task; false leaves it queued.
  bool place(graph::TaskId, int alloc, double /*now*/) {
    platform.acquire(alloc);
    return true;
  }
  /// The scan passed over a task that does not fit (flat queue only).
  void blocked(graph::TaskId, double /*now*/) {}
  void release(graph::TaskId, int alloc) { platform.release(alloc); }

  sim::Platform platform;
};

/// True when Hooks keeps CountHooks' first-fit admission: count
/// placement that always succeeds, admit() = fits, and no bookkeeping
/// for the entries a pass skips. The engine then serves the waiting
/// queue from per-allocation buckets.
template <class Hooks>
inline constexpr bool kFirstFit =
    std::is_base_of_v<CountHooks, Hooks> &&
    std::is_same_v<decltype(&Hooks::admit), decltype(&ListHooks::admit)> &&
    std::is_same_v<decltype(&Hooks::available),
                   decltype(&CountHooks::available)> &&
    std::is_same_v<decltype(&Hooks::place), decltype(&CountHooks::place)> &&
    std::is_same_v<decltype(&Hooks::blocked), decltype(&CountHooks::blocked)>;

class ListEngine {
 public:
  /// Does not validate the graph; callers do. Throws
  /// std::invalid_argument when neither or both allocation sources are
  /// set.
  explicit ListEngine(const ListSetup& setup);

  /// Runs the schedule to completion and returns the result (the engine
  /// is spent afterwards). Throws std::logic_error on an allocation
  /// outside [1, P], on deadlock, or when a task never completes.
  template <class Hooks>
  ScheduleResult run(Hooks& hooks);

  /// Reveal instant per task (-1 until revealed), live during run().
  [[nodiscard]] const std::vector<double>& ready_time() const noexcept {
    return result_.ready_time;
  }

 private:
  [[nodiscard]] int allocate(graph::TaskId task) const;
  /// The entry of a task entering the waiting queue, keyed by the
  /// configured order: the one place the library orders a queue.
  [[nodiscard]] WaitingEntry make_entry(graph::TaskId task, int alloc);
  /// True when `a` is served before `b`.
  static bool before(const WaitingEntry& a, const WaitingEntry& b) {
    if (a.key != b.key) return a.key > b.key;
    return a.tie < b.tie;
  }
  void push_flat(const WaitingEntry& e);
  void push_bucket(const WaitingEntry& e);
  /// Removes and returns the head of the bucket of heads_[i].
  WaitingEntry pop_bucket(std::size_t i);
  void check_finished() const;

  template <class Hooks>
  void enqueue(graph::TaskId task, int alloc);
  template <class Hooks>
  void reveal(Hooks& hooks, graph::TaskId task, double now);
  template <class Hooks>
  void start(Hooks& hooks, const WaitingEntry& e, double now);
  template <class Hooks>
  void scan(Hooks& hooks, double now);
  template <class Hooks>
  void scan_flat(Hooks& hooks, double now);

  ListSetup setup_;
  int n_;
  std::vector<int> pending_preds_;
  sim::EventQueue events_;
  std::vector<sim::Event> batch_;          // reused across batches
  std::vector<graph::TaskId> newly_ready_;
  std::vector<graph::TaskId> retries_;
  // The waiting queue Q, in one of two forms (see the file comment).
  std::size_t waiting_ = 0;  // entries in Q
  std::uint64_t reveal_seq_ = 0;
  // Bucketed form: buckets_[a] is the list, in service order through
  // nodes_, of the entries of allocation a. buckets_ is sized by the
  // largest allocation enqueued, and nodes_ by the deepest queue (freed
  // nodes are reused), so pushes do not allocate once the run has
  // reached its deepest queue.
  struct Node {
    WaitingEntry entry;
    int next;  // next node of the bucket, or of the free list; -1 ends
  };
  struct Bucket {
    int first = -1;  // -1 when empty
    int last = -1;
  };
  Node& node(int i) { return nodes_[static_cast<std::size_t>(i)]; }
  std::vector<Node> nodes_;
  int free_ = -1;
  std::vector<Bucket> buckets_;
  // The head entry of every non-empty bucket, by ascending allocation: a
  // pass reads only these, and the first is the smallest waiting
  // allocation.
  std::vector<WaitingEntry> heads_;
  // Flat form: every entry in service order.
  std::vector<WaitingEntry> queue_;
  // Flat form: smallest allocation among queued tasks. When it exceeds
  // the idle processor count no queued task can start, so the scan is
  // skipped. Exact after every scan (recomputed in-pass), only ever an
  // under-estimate between scans (enqueues lower it).
  int min_waiting_alloc_;
  int completed_ = 0;
  ScheduleResult result_;
};

template <class Hooks>
void ListEngine::enqueue(graph::TaskId task, int alloc) {
  const WaitingEntry e = make_entry(task, alloc);
  if constexpr (kFirstFit<Hooks>)
    push_bucket(e);
  else
    push_flat(e);
  ++waiting_;
}

template <class Hooks>
void ListEngine::reveal(Hooks& hooks, graph::TaskId task, double now) {
  const int alloc = allocate(task);
  const auto t = static_cast<std::size_t>(task);
  result_.allocation[t] = alloc;
  result_.ready_time[t] = now;
  enqueue<Hooks>(task, alloc);
  hooks.on_ready(task, now, alloc, waiting_);
}

template <class Hooks>
void ListEngine::start(Hooks& hooks, const WaitingEntry& e, double now) {
  if constexpr (Hooks::kRecordTrace)
    result_.trace.record_start(e.task, now, e.alloc);
  events_.schedule(now + setup_.graph.model_of(e.task).time(e.alloc), e.task);
  // The queue size once the entry has left the queue.
  hooks.on_start(e.task, now, e.alloc, --waiting_);
}

template <class Hooks>
void ListEngine::scan(Hooks& hooks, double now) {
  if constexpr (!kFirstFit<Hooks>) {
    scan_flat(hooks, now);
  } else {
    // Fast path: nothing waiting, or even the smallest waiting
    // allocation exceeds the idle processors.
    if (heads_.empty() ||
        (heads_.front().alloc > hooks.available() && hooks.may_skip_scan()))
      return;
    hooks.begin_scan(now);
    // Algorithm 1, lines 7-11, first fit: a linear pass starts every
    // entry that fits when it is reached. available() only shrinks
    // during the pass, so an entry it passed over stays unstartable, and
    // its next start is always the first entry in service order that
    // fits now: the best head among the buckets with alloc <=
    // available(). Starting that head until none fits is the same start
    // sequence.
    for (;;) {
      const int available = hooks.available();
      const std::size_t none = heads_.size();
      std::size_t best = none;
      for (std::size_t i = 0; i < none && heads_[i].alloc <= available; ++i)
        if (best == none || before(heads_[i], heads_[best])) best = i;
      if (best == none) return;
      const WaitingEntry e = pop_bucket(best);
      hooks.place(e.task, e.alloc, now);
      start(hooks, e, now);
    }
  }
}

template <class Hooks>
void ListEngine::scan_flat(Hooks& hooks, double now) {
  // Fast path: nothing waiting, or even the smallest waiting allocation
  // exceeds the idle processors, so the scan cannot start anything.
  if (queue_.empty() ||
      (min_waiting_alloc_ > hooks.available() && hooks.may_skip_scan()))
    return;
  min_waiting_alloc_ = setup_.P + 1;
  hooks.begin_scan(now);
  // Algorithm 1, lines 7-11: one pass starts every admitted task that
  // fits. available() only shrinks during the pass, so entries passed
  // over stay unstartable, and the pass also recomputes the exact
  // minimum allocation over the survivors.
  //
  // The queue is compacted in the same pass: survivors close up behind a
  // write cursor `out` and the tail is erased once at the end, instead
  // of erasing each started entry. The survivors between two starts are
  // moved as one block when the next start (or the end) is reached.
  auto out = queue_.begin();
  auto run = queue_.begin();  // [run, it): survivors not yet moved
  const auto end = queue_.end();
  for (auto it = queue_.begin(); it != end; ++it) {
    const WaitingEntry e = *it;
    const bool fits = e.alloc <= hooks.available();
    if (hooks.admit(e, fits, now) && hooks.place(e.task, e.alloc, now)) {
      out = out == run ? it : std::move(run, it, out);
      run = it + 1;
      start(hooks, e, now);
    } else {
      if (!fits) hooks.blocked(e.task, now);
      min_waiting_alloc_ = std::min(min_waiting_alloc_, e.alloc);
    }
  }
  if (run != queue_.begin()) queue_.erase(std::move(run, end, out), end);
}

template <class Hooks>
ScheduleResult ListEngine::run(Hooks& hooks) {
  events_.set_observer(hooks.event_observer());
  if (setup_.release_times != nullptr) {
    // Payloads < n are completions; payload n + i is task i's arrival.
    for (int i = 0; i < n_; ++i)
      events_.schedule((*setup_.release_times)[static_cast<std::size_t>(i)],
                       n_ + i);
  } else {
    // Time 0: sources become available in id order.
    for (graph::TaskId v = 0; v < n_; ++v)
      if (pending_preds_[static_cast<std::size_t>(v)] == 0)
        reveal(hooks, v, 0.0);
    scan(hooks, 0.0);
  }

  while (!events_.empty()) {
    events_.pop_simultaneous_into(batch_);
    const double now = events_.now();
    result_.num_events += batch_.size();

    newly_ready_.clear();
    retries_.clear();
    for (const sim::Event& ev : batch_) {
      if (ev.payload >= n_) {
        newly_ready_.push_back(static_cast<graph::TaskId>(ev.payload - n_));
        continue;
      }
      const auto task = static_cast<graph::TaskId>(ev.payload);
      const int alloc = result_.allocation[static_cast<std::size_t>(task)];
      if constexpr (Hooks::kRecordTrace) result_.trace.record_end(task, now);
      hooks.release(task, alloc);
      if (!hooks.on_end(task, now, alloc, waiting_)) {
        retries_.push_back(task);
        continue;
      }
      ++completed_;
      if constexpr (Hooks::kReleaseSuccessors)
        for (const graph::TaskId s : setup_.graph.successors(task))
          if (--pending_preds_[static_cast<std::size_t>(s)] == 0)
            newly_ready_.push_back(s);
    }
    hooks.after_batch(now, newly_ready_);
    // Failed attempts keep their allocation and re-enter the queue first
    // (they are older work); then simultaneously available tasks are
    // revealed in id order: deterministic, and it realizes the
    // adversarial instances' worst-case queueing.
    for (const graph::TaskId task : retries_)
      enqueue<Hooks>(task, result_.allocation[static_cast<std::size_t>(task)]);
    std::sort(newly_ready_.begin(), newly_ready_.end());
    for (const graph::TaskId v : newly_ready_) reveal(hooks, v, now);

    scan(hooks, now);
  }

  check_finished();
  if constexpr (Hooks::kRecordTrace)
    result_.makespan = result_.trace.makespan();
  return std::move(result_);
}

}  // namespace moldsched::core
