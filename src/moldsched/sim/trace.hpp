// Execution trace of a simulated schedule: one record per task, plus the
// derived utilization profile (the paper's interval set I of Section 4.2).
#pragma once

#include <vector>

#include "moldsched/sim/event_queue.hpp"

namespace moldsched::sim {

struct TaskRecord {
  int task = -1;      ///< TaskId in the scheduled graph
  Time start = 0.0;
  Time end = 0.0;     ///< NaN while running; finalized by record_end
  int procs = 0;      ///< fixed allocation (moldable: chosen at start)
};

/// A maximal time span during which the set of running tasks — and hence
/// the processor utilization — is constant.
struct UtilizationInterval {
  Time begin = 0.0;
  Time end = 0.0;
  int procs_in_use = 0;

  [[nodiscard]] Time duration() const noexcept { return end - begin; }
};

class Trace {
 public:
  /// Records a task start. Throws if the task was already started or
  /// procs < 1 or start < 0.
  void record_start(int task, Time start, int procs);

  /// Records the matching completion. Throws if the task was never
  /// started, already ended, or end < start.
  void record_end(int task, Time end);

  [[nodiscard]] std::size_t num_records() const noexcept {
    return records_.size();
  }
  /// Record i in start order, running or ended.
  [[nodiscard]] const TaskRecord& record(std::size_t i) const {
    return records_[i];
  }
  /// The task's record, running or ended; nullptr if it never started.
  [[nodiscard]] const TaskRecord* find(int task) const noexcept;

  /// Rolls the trace back to an earlier moment of the same schedule:
  /// drops every record from index `size` on (the tasks started since),
  /// so those tasks may start again.
  void truncate(std::size_t size);
  /// Marks an ended task as running again (it ended after the moment
  /// truncate() rolled back to).
  void reopen(int task);
  /// All records in start order (ties by insertion). Throws
  /// std::logic_error if any task is still running.
  [[nodiscard]] const std::vector<TaskRecord>& records() const;

  /// Latest completion time (0 for an empty trace).
  [[nodiscard]] Time makespan() const;

  /// Total processor-time actually consumed: sum procs * (end - start).
  [[nodiscard]] double total_area() const;

  /// The utilization profile: consecutive intervals between schedule
  /// events, with constant processor usage inside each. Zero-length
  /// intervals are dropped; intervals with zero running tasks in the
  /// middle of the schedule are kept (they witness idle gaps).
  [[nodiscard]] std::vector<UtilizationInterval> utilization_profile() const;

  /// Time-averaged utilization over [0, makespan] divided by P.
  [[nodiscard]] double average_utilization(int P) const;

  /// Idle processor-time: P * makespan - total_area().
  [[nodiscard]] double idle_area(int P) const;

  /// Peak number of processors simultaneously in use.
  [[nodiscard]] int max_concurrency() const;

  /// Total interior time with zero running tasks (always 0 for list
  /// schedules; nonzero e.g. between releases in the release setting).
  [[nodiscard]] Time total_gap_time() const;

 private:
  void ensure_complete() const;
  /// Index of a started task's record.
  [[nodiscard]] std::size_t index_of(int task) const {
    return static_cast<std::size_t>(
        record_of_task_[static_cast<std::size_t>(task)]);
  }

  std::vector<TaskRecord> records_;
  std::vector<std::int64_t> record_of_task_;  // -1 = never started
  std::size_t open_count_ = 0;
};

}  // namespace moldsched::sim
