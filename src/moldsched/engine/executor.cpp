#include "moldsched/engine/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "moldsched/obs/metrics.hpp"
#include "moldsched/obs/trace_writer.hpp"
#include "moldsched/util/parallel.hpp"

namespace moldsched::engine {

// ---------------------------------------------------------------------------
// CancelToken

struct CancelToken::State {
  std::atomic<bool> flag{false};
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
  std::shared_ptr<State> parent;

  [[nodiscard]] bool cancelled() const noexcept {
    if (flag.load(std::memory_order_relaxed)) return true;
    if (has_deadline && std::chrono::steady_clock::now() >= deadline)
      return true;
    return parent && parent->cancelled();
  }
};

CancelToken::CancelToken() : state_(std::make_shared<State>()) {}

CancelToken CancelToken::deadline_in(double seconds) {
  CancelToken t;
  t.state_->has_deadline = true;
  t.state_->deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  return t;
}

CancelToken CancelToken::deadline_in(double seconds,
                                     const CancelToken& parent) {
  CancelToken t = deadline_in(seconds);
  t.state_->parent = parent.state_;
  return t;
}

void CancelToken::request_cancel() const noexcept {
  state_->flag.store(true, std::memory_order_relaxed);
}

bool CancelToken::cancelled() const noexcept { return state_->cancelled(); }

double CancelToken::seconds_left() const noexcept {
  double left = std::numeric_limits<double>::infinity();
  for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
    if (s->flag.load(std::memory_order_relaxed)) return 0.0;
    if (s->has_deadline) {
      const double mine =
          std::chrono::duration<double>(s->deadline -
                                        std::chrono::steady_clock::now())
              .count();
      left = std::min(left, mine);
    }
  }
  return left;
}

// ---------------------------------------------------------------------------
// Executor

namespace {

struct WorkerQueue {
  std::mutex mutex;
  std::deque<std::function<void()>> tasks;
};

thread_local const Executor* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;

}  // namespace

struct Executor::Impl {
  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::vector<std::thread> threads;

  std::mutex sleep_mutex;
  std::condition_variable sleep_cv;

  std::mutex idle_mutex;
  std::condition_variable idle_cv;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queued{0};   // tasks sitting in deques
  std::atomic<std::size_t> pending{0};  // queued + currently running
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::size_t> round_robin{0};

  const Executor* owner = nullptr;

  // Sharded counters from the process registry: one relaxed atomic
  // add per pop/steal, so instrumentation does not serialize workers.
  obs::Counter& submits = obs::default_registry().counter(
      "engine.executor.submitted");
  obs::Counter& pops = obs::default_registry().counter(
      "engine.executor.pops");
  obs::Counter& steals = obs::default_registry().counter(
      "engine.executor.steals");

  void push(std::size_t worker, std::function<void()> task) {
    {
      const std::lock_guard<std::mutex> lock(queues[worker]->mutex);
      queues[worker]->tasks.push_back(std::move(task));
    }
    {
      // The increment must happen under sleep_mutex: a worker tests
      // `queued` under that mutex before blocking, and an unlocked
      // increment + notify can land between its test and its block,
      // losing the wake-up while the task sits in a deque.
      const std::lock_guard<std::mutex> lock(sleep_mutex);
      queued.fetch_add(1, std::memory_order_release);
    }
    sleep_cv.notify_one();
  }

  /// Own deque back (LIFO), then steal peers' fronts (FIFO).
  [[nodiscard]] std::function<void()> take(std::size_t self) {
    {
      auto& q = *queues[self];
      const std::lock_guard<std::mutex> lock(q.mutex);
      if (!q.tasks.empty()) {
        auto task = std::move(q.tasks.back());
        q.tasks.pop_back();
        queued.fetch_sub(1, std::memory_order_relaxed);
        pops.add();
        return task;
      }
    }
    const std::size_t n = queues.size();
    for (std::size_t k = 1; k < n; ++k) {
      const std::size_t victim = (self + k) % n;
      auto& q = *queues[victim];
      const std::lock_guard<std::mutex> lock(q.mutex);
      if (!q.tasks.empty()) {
        auto task = std::move(q.tasks.front());
        q.tasks.pop_front();
        queued.fetch_sub(1, std::memory_order_relaxed);
        steals.add();
        if (obs::TraceWriter* tracer = obs::global_tracer())
          tracer->instant(obs::TraceWriter::kEnginePid,
                          static_cast<int>(self), "steal", "engine",
                          tracer->now_us(),
                          {{"victim", std::to_string(victim)}});
        return task;
      }
    }
    return {};
  }

  void run_task(std::function<void()>& task) {
    try {
      task();
    } catch (...) {
      // submit() documents fire-and-forget tasks as non-throwing;
      // anything that escapes is dropped rather than terminating.
    }
    executed.fetch_add(1, std::memory_order_relaxed);
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::lock_guard<std::mutex> lock(idle_mutex);
      idle_cv.notify_all();
    }
  }

  void worker_main(std::size_t index) {
    tl_pool = owner;
    tl_worker = index;
    for (;;) {
      auto task = take(index);
      if (task) {
        run_task(task);
        continue;
      }
      std::unique_lock<std::mutex> lock(sleep_mutex);
      sleep_cv.wait(lock, [&] {
        return stop.load(std::memory_order_relaxed) ||
               queued.load(std::memory_order_acquire) > 0;
      });
      if (stop.load(std::memory_order_relaxed) &&
          queued.load(std::memory_order_acquire) == 0)
        return;
    }
  }
};

Executor::Executor(unsigned threads) : impl_(std::make_unique<Impl>()) {
  if (threads == 0) threads = util::default_parallelism();
  impl_->owner = this;
  impl_->queues.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    impl_->queues.push_back(std::make_unique<WorkerQueue>());
  impl_->threads.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    impl_->threads.emplace_back([this, i] { impl_->worker_main(i); });
}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock(impl_->sleep_mutex);
    impl_->stop.store(true, std::memory_order_relaxed);
  }
  impl_->sleep_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
}

Executor& Executor::global() {
  static Executor pool;
  return pool;
}

unsigned Executor::thread_count() const noexcept {
  return static_cast<unsigned>(impl_->threads.size());
}

bool Executor::on_worker_thread() const noexcept { return tl_pool == this; }

std::size_t Executor::current_worker() const noexcept {
  return tl_pool == this ? tl_worker : npos;
}

std::uint64_t Executor::tasks_executed() const noexcept {
  return impl_->executed.load(std::memory_order_relaxed);
}

void Executor::submit(std::function<void()> task) {
  if (!task) throw std::invalid_argument("Executor::submit: empty task");
  impl_->pending.fetch_add(1, std::memory_order_acq_rel);
  impl_->submits.add();
  const std::size_t target =
      on_worker_thread()
          ? tl_worker
          : impl_->round_robin.fetch_add(1, std::memory_order_relaxed) %
                impl_->queues.size();
  impl_->push(target, std::move(task));
}

void Executor::wait_idle() {
  std::unique_lock<std::mutex> lock(impl_->idle_mutex);
  impl_->idle_cv.wait(lock, [&] {
    return impl_->pending.load(std::memory_order_acquire) == 0;
  });
}

namespace {

/// Shared state of one parallel_for call. Helpers hold it by shared_ptr
/// so a helper scheduled after the call returned exits cleanly; `fn` is
/// only dereferenced while at least one chunk is unfinished, which the
/// caller's completion wait guarantees to outlive.
struct ForLoop {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t count = 0;
  std::size_t chunk = 1;
  std::size_t total_chunks = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> done_chunks{0};

  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();

  std::mutex done_mutex;
  std::condition_variable done_cv;

  void record_error(std::size_t index) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (index < first_error_index) {
      first_error_index = index;
      first_error = std::current_exception();
    }
  }

  /// Claims and runs chunks until none are left.
  void drain() {
    for (;;) {
      const std::size_t c =
          next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= total_chunks) return;
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(count, lo + chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        try {
          (*fn)(i);
        } catch (...) {
          record_error(i);
        }
      }
      if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          total_chunks) {
        const std::lock_guard<std::mutex> lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

void Executor::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& fn,
                            unsigned max_workers, std::size_t chunk) {
  if (!fn)
    throw std::invalid_argument("Executor::parallel_for: empty function");
  if (count == 0) return;
  if (max_workers == 0) max_workers = util::default_parallelism();
  const std::size_t workers =
      std::min<std::size_t>(max_workers, count);

  if (workers <= 1 || count == 1) {
    // Serial path: propagate immediately, as a plain loop would.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  auto loop = std::make_shared<ForLoop>();
  loop->fn = &fn;
  loop->count = count;
  if (chunk == 0) chunk = std::max<std::size_t>(1, count / (workers * 8));
  loop->chunk = chunk;
  loop->total_chunks = (count + chunk - 1) / chunk;

  // The caller participates, so at most workers-1 helpers are needed —
  // and never more than there are chunks to claim.
  const std::size_t helpers =
      std::min(workers - 1, loop->total_chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h)
    submit([loop] { loop->drain(); });

  loop->drain();

  {
    std::unique_lock<std::mutex> lock(loop->done_mutex);
    loop->done_cv.wait(lock, [&] {
      return loop->done_chunks.load(std::memory_order_acquire) ==
             loop->total_chunks;
    });
  }
  if (loop->first_error) std::rethrow_exception(loop->first_error);
}

}  // namespace moldsched::engine
