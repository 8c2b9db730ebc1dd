// Shared harness of the repository benchmark: run options, the span
// recorder used by traced runs, order statistics, and the report every
// workload fills in. The harness times calls into the public moldsched
// API from the outside; nothing here is compiled into the library.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "moldsched/core/allocator.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/svc/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;    ///< result records and span dumps land here
  unsigned nproc = 1;     ///< thread cap for the whole process
};

// ---------------------------------------------------------------------------
// Spans. A traced run records one span per call into a library layer:
// name, start, end, parent span and (for serve) the session id. Each
// thread records into its own Lane, so recording takes no lock; lanes
// are merged and written out once the run ends.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::string session;       ///< serve: shared by every span of a session
  std::int64_t start_ns = 0; ///< relative to the tracer's epoch
  std::int64_t end_ns = 0;
};

class Tracer;

/// Single-thread span buffer with an explicit parent stack.
class Lane {
 public:
  Lane(Tracer& tracer, int index) : tracer_(tracer), index_(index) {}
  [[nodiscard]] std::size_t begin(const char* name, std::string session);
  void end(std::size_t slot);
  /// Sets the session id of every span still open on this lane, for ids
  /// that are only known once a call inside the span returned.
  void tag_open_spans(const std::string& session);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_ of open spans
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  /// A new lane for the calling thread; the tracer owns it.
  [[nodiscard]] Lane& open_lane();
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::vector<const Lane*> lanes() const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // guarded by mu_
};

/// RAII span; a null lane (untraced run or untraced round) records
/// nothing and costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name, std::string session = {})
      : lane_(lane), slot_(lane ? lane->begin(name, std::move(session)) : 0) {}
  ~ScopedSpan() {
    if (lane_) lane_->end(slot_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Lane* lane_;
  std::size_t slot_;
};

/// Per span name: self time (span length minus the part covered by
/// child spans) and count, summed over every lane.
struct SpanTotals {
  double self_s = 0.0;
  std::uint64_t count = 0;
};
[[nodiscard]] std::map<std::string, SpanTotals> span_totals(
    const Tracer& tracer);

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank quantile of an unsorted sample; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& v);
/// The fastest of a run's rounds, and the highest per-round rate. Every
/// round is the same deterministic work, and the rest of the host can
/// only add time to it, so the fastest round is the estimate that moves
/// least between runs: over two sets of ten runs on a shared 4-vCPU VM,
/// the interquartile range of the per-run values was at most 0.17 of
/// their median this way and up to 0.29 with the median round.
[[nodiscard]] inline double fastest(std::vector<double> wall_s) {
  return quantile(std::move(wall_s), 0.0);
}
[[nodiscard]] inline double highest(std::vector<double> rate) {
  return quantile(std::move(rate), 1.0);
}

/// Mean ns per alloc.allocate(m, P) over repeated passes of `models`
/// (at least 50 ms of calls).
[[nodiscard]] double ns_per_allocation(
    const moldsched::core::Allocator& alloc,
    const std::vector<moldsched::model::ModelPtr>& models, int P);

/// 64-bit FNV-1a, for fingerprinting canonical schedules.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes);

// ---------------------------------------------------------------------------
// Report.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
  std::string note;           ///< e.g. how it is computed, or that it
                              ///< depends on thread interleaving
};

struct Report {
  /// Metrics of the final result line: the end-to-end set untraced,
  /// the per-layer set traced.
  std::vector<Metric> metrics;
  /// Reported alongside, not part of the result line.
  std::vector<Metric> extra;
  /// Counts that must repeat exactly for one seed, across rounds of a
  /// run and across runs.
  std::map<std::string, double> exact_counts;
  /// Correctness gate failures; any entry fails the run.
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Workload-specific run metadata (key -> JSON value text).
  std::map<std::string, std::string> meta;

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples, std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       std::move(note)});
  }
  void add_extra(std::string name, double value, std::string unit,
                 std::uint64_t samples, std::string note = {}) {
    extra.push_back({std::move(name), value, std::move(unit), samples,
                     std::move(note)});
  }
  /// Records an exact count; a different value for the same name in a
  /// later round of this run is a gate failure.
  void count(const std::string& name, double value);
  void fail(std::string what) { failures.push_back(std::move(what)); }
  /// Records the round count and every untraced round's wall time.
  void rounds(const std::vector<double>& wall_s);
};

/// Peak resident set (VmHWM) of this process, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Threads of this process right now (from /proc/self/status).
[[nodiscard]] int thread_count();

/// Adds the per-span-name self times of a traced run to report.extra.
void add_span_extras(Report& report, const Tracer& tracer);

/// Writes the spans of a traced run as a JSON array.
void write_spans(const Tracer& tracer, const std::string& path);

// ---------------------------------------------------------------------------
// Layer probes (layers.cpp). Every workload's traced run reports the same
// per-layer set, each timed over the workload's own instances.

/// One graph of a workload and the platform size it is scheduled at.
struct Instance {
  const moldsched::graph::TaskGraph* graph = nullptr;
  int P = 1;
};

/// Algorithm 1's waiting queue, rebuilt from each task's ready time and
/// its start in the trace: the depth after every distinct event instant.
struct QueueDepth {
  double sum = 0.0;          ///< depth summed over instants
  std::uint64_t instants = 0;
  double max = 0.0;
};
[[nodiscard]] QueueDepth queue_depth(const moldsched::core::ScheduleResult& r);

/// Replays a run's completion times through sim::EventQueue: each task's
/// end is pushed at its start and completion batches are popped as the
/// replay clock passes them. Returns the operations performed.
[[nodiscard]] std::uint64_t replay_event_heap(
    const moldsched::core::ScheduleResult& r);

/// Probe passes repeat until both floors are met; times are the median
/// pass, counts must repeat exactly from pass to pass.
constexpr int kMinProbePasses = 3;
constexpr double kMinProbeSeconds = 0.25;

/// graph.*, core.schedule*, core.events, queue depth, alloc-cache counts
/// and sim.* over the instance set, scheduled by schedule_online with
/// LPA(mu) behind a fresh CachingAllocator per pass. Gates: every
/// schedule validates and none beats the critical-path bound.
void probe_layers(const std::vector<Instance>& set, double mu, Lane* lane,
                  Report& report);

/// core.alloc_cold_ns (LpaAllocator) and core.alloc_warm_ns (warm
/// CachingAllocator) over `models` at P.
void probe_alloc(const std::vector<moldsched::model::ModelPtr>& models, int P,
                 double mu, Report& report);

/// Release requests paired with their replies, in release order.
using ReleaseStream = std::vector<
    std::pair<moldsched::svc::ReleaseParams, moldsched::svc::ReleaseReply>>;

/// The release stream of a finished schedule, in start order: each
/// task's release request and the reply a session would give it.
[[nodiscard]] ReleaseStream release_stream(
    const moldsched::graph::TaskGraph& g,
    const moldsched::core::ScheduleResult& r, std::size_t limit);

/// svc.wire.encode_ns and svc.wire.decode_ns over the stream; a request
/// or reply that does not round-trip is a gate failure.
void probe_wire(const ReleaseStream& stream, Lane* lane, Report& report);

// Workloads. Each runs its set-up, measures for options.seconds and
// fills the report; gates record failures instead of throwing.
void run_scale(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);
void run_suites(const Options& options, Report& report);

}  // namespace perfbench
