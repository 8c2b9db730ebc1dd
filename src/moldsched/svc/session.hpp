// One scheduling session: the server-side state machine behind the
// session.open / task.release / session.close protocol.
//
// A session accumulates the streamed instance into a TaskGraph and
// answers each release with the task's final allocation plus its
// start/finish in the schedule of the prefix revealed so far. It runs
// the *actual* Algorithm 1 engine of the registered SchedulerSpec, not a
// bespoke incremental simulator, which is what makes every reply
// byte-identical to an in-process run of the prefix by construction.
//
// Specs that run on the online engine keep one live core::ListEngine per
// session and resume it. A released task v becomes available only when
// its last predecessor completes, at ready(v), and it sorts after every
// lower id revealed with it; so the schedule before ready(v) cannot
// depend on v, and ready(v) is read off the previous result. Each
// release therefore rolls the engine back to its latest checkpoint
// before ready(v) and replays only the suffix; a task keeps its
// Algorithm 2 decision across replays, and no release builds adjacency
// or validates the whole prefix. A task without predecessors is
// revealed at time 0 and replays from the start. Specs with a runner
// (level, contiguous, backfill, offline, exact) re-run the whole prefix.
//
// Sessions are not thread-safe; the server serializes access per session.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/graph/task_graph.hpp"
#include "moldsched/obs/metrics.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/svc/protocol.hpp"

namespace moldsched::svc {

/// Application error raised by Session; the server turns it into an
/// error reply with the carried code.
class SessionError : public std::runtime_error {
 public:
  SessionError(ErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// The server's per-simulation session instruments, under svc.session.*.
struct SessionMetrics {
  explicit SessionMetrics(obs::MetricRegistry& registry);

  /// Records one simulation: `ms` from the clock reads around it, for a
  /// session of `tasks` tasks.
  void observe(bool from_checkpoint, std::uint64_t replayed, double ms,
               int tasks) const;

  obs::Counter& resumed;          ///< resumed from a checkpoint
  obs::Counter& full_reruns;      ///< run from the start
  obs::Counter& replayed_events;  ///< events simulated, either way
  /// release_ms by session size after the release: <= 100, <= 1000,
  /// <= 4000 and more tasks.
  std::array<obs::Histogram*, 4> release_ms;
};

class Session {
 public:
  /// Resolves `params.scheduler` through sched::spec_by_name at
  /// `params.mu`. Throws SessionError(kBadRequest) for unknown scheduler
  /// names or an out-of-range mu. `metrics`, when set, receives every
  /// simulation and must outlive the session.
  Session(std::string id, const OpenParams& params,
          const SessionMetrics* metrics = nullptr);
  ~Session();
  // The live engine refers to the session's own graph.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] int P() const noexcept { return params_.P; }
  [[nodiscard]] const std::string& scheduler_name() const noexcept {
    return spec_.name;
  }
  [[nodiscard]] int num_tasks() const noexcept { return graph_.num_tasks(); }
  [[nodiscard]] const graph::TaskGraph& graph() const noexcept {
    return graph_;
  }

  /// Adds the released task and reports its allocation and projected
  /// start/finish under the prefix instance. Throws SessionError
  /// (kBadRequest) on a missing model, an id mismatch (duplicate or
  /// reordered release), or predecessors that were never released.
  [[nodiscard]] ReleaseReply release(const ReleaseParams& params);

  /// The authoritative result: schedules the full accumulated instance
  /// (reusing the last prefix run: the prefix *is* the full instance
  /// after the final release) and reports makespan, the Lemma 2 lower
  /// bound, their ratio, allocations, trace records and session stats.
  /// A zero-task session closes with makespan 0 and ratio 1.
  [[nodiscard]] CloseReply close();

  /// Seconds since the last release/close touched this session
  /// (monotonic clock); drives the server's idle reaper.
  [[nodiscard]] double idle_seconds() const;

 private:
  struct Resumable;

  void touch();
  /// The schedule of the first result_tasks_ tasks.
  [[nodiscard]] const core::ScheduleResult& result() const;
  /// Schedules the prefix, from `ready` on when the live engine can
  /// resume (the instant the newest task becomes available).
  const core::ScheduleResult& run_prefix(double ready);

  std::string id_;
  OpenParams params_;
  sched::SchedulerSpec spec_;
  const SessionMetrics* metrics_;
  graph::TaskGraph graph_;
  /// Successors per task in release order: the live engine's adjacency.
  std::vector<std::vector<graph::TaskId>> successors_;
  /// The live engine of a spec without a runner; created at the first
  /// run, and dropped when a run fails mid-way.
  std::unique_ptr<Resumable> resumable_;
  /// A runner spec's schedule of the prefix.
  core::ScheduleResult last_result_;
  /// Tasks in the current schedule; close after release re-runs nothing.
  int result_tasks_ = -1;
  SessionStats stats_;
  std::chrono::steady_clock::time_point last_active_;
};

}  // namespace moldsched::svc
