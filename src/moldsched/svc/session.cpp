#include "moldsched/svc/session.hpp"

#include <algorithm>
#include <utility>

#include "moldsched/analysis/bounds.hpp"
#include "moldsched/core/list_engine.hpp"
#include "moldsched/io/json.hpp"

namespace moldsched::svc {

SessionMetrics::SessionMetrics(obs::MetricRegistry& registry)
    : resumed(registry.counter("svc.session.resumed")),
      full_reruns(registry.counter("svc.session.full_reruns")),
      replayed_events(registry.counter("svc.session.replayed_events")),
      release_ms{&registry.histogram("svc.session.release_ms.le100",
                                     obs::Histogram::default_latency_bounds()),
                 &registry.histogram("svc.session.release_ms.le1000",
                                     obs::Histogram::default_latency_bounds()),
                 &registry.histogram("svc.session.release_ms.le4000",
                                     obs::Histogram::default_latency_bounds()),
                 &registry.histogram("svc.session.release_ms.gt4000",
                                     obs::Histogram::default_latency_bounds())} {}

void SessionMetrics::observe(bool from_checkpoint,
                             std::uint64_t replayed, double ms,
                             int tasks) const {
  (from_checkpoint ? resumed : full_reruns).add();
  replayed_events.add(replayed);
  release_ms[tasks <= 100 ? 0 : tasks <= 1000 ? 1 : tasks <= 4000 ? 2 : 3]
      ->observe(ms);
}

/// The live engine and its hooks, over the session's graph and
/// successor lists.
struct Session::Resumable {
  explicit Resumable(const Session& s)
      : hooks(s.params_.P, s.successors_),
        engine({.graph = s.graph_,
                .P = s.params_.P,
                .who = "OnlineScheduler",
                .allocator = s.spec_.allocator.get(),
                .policy = s.spec_.policy}) {}

  core::ResumableHooks hooks;
  core::ListEngine engine;
};

Session::Session(std::string id, const OpenParams& params,
                 const SessionMetrics* metrics)
    : id_(std::move(id)),
      params_(params),
      metrics_(metrics),
      last_active_(std::chrono::steady_clock::now()) {
  try {
    spec_ = sched::spec_by_name(params.scheduler, params.mu);
  } catch (const std::exception& e) {
    throw SessionError(ErrorCode::kBadRequest, e.what());
  }
  // The queue policy is a session parameter, not a scheduler one: the
  // client's choice replaces the spec's (engine-variant runners bake the
  // policy into their closure and ignore this). The in-process reference
  // in check::wire_roundtrip_check applies the same override.
  spec_.policy = params_.policy;
}

void Session::touch() { last_active_ = std::chrono::steady_clock::now(); }

double Session::idle_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       last_active_)
      .count();
}

Session::~Session() = default;

const core::ScheduleResult& Session::result() const {
  return resumable_ ? resumable_->engine.result() : last_result_;
}

const core::ScheduleResult& Session::run_prefix(double ready) {
  if (result_tasks_ == graph_.num_tasks()) return result();
  const auto t0 = std::chrono::steady_clock::now();
  core::ListEngine::Rerun rerun;
  if (spec_.runner) {
    last_result_ = spec_.run(graph_, params_.P);
    rerun.replayed_events = last_result_.num_events;
  } else {
    try {
      if (resumable_)
        resumable_->engine.add_tasks();
      else
        resumable_ = std::make_unique<Resumable>(*this);
      rerun = resumable_->engine.rerun_from(resumable_->hooks, ready);
    } catch (...) {
      // A run that failed mid-way leaves the engine inconsistent; the
      // next one starts from a fresh engine.
      resumable_.reset();
      throw;
    }
  }
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  stats_.schedule_ms += ms;
  ++stats_.reschedules;
  result_tasks_ = graph_.num_tasks();
  if (metrics_ != nullptr)
    metrics_->observe(rerun.from_checkpoint, rerun.replayed_events, ms,
                      result_tasks_);
  return result();
}

ReleaseReply Session::release(const ReleaseParams& params) {
  touch();
  if (!params.model)
    throw SessionError(ErrorCode::kBadRequest, "release without a model");
  const int id = graph_.num_tasks();
  if (params.expected_task && *params.expected_task != id)
    throw SessionError(
        ErrorCode::kBadRequest,
        "duplicate or out-of-order release: client sent task " +
            std::to_string(*params.expected_task) + ", session expects " +
            std::to_string(id));
  // Validate every predecessor before mutating the graph, so a bad
  // release leaves the session untouched and the stream can continue.
  std::vector<int> preds = params.preds;
  std::sort(preds.begin(), preds.end());
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] < 0 || preds[i] >= id)
      throw SessionError(ErrorCode::kBadRequest,
                         "predecessor " + std::to_string(preds[i]) +
                             " was never released (next task id is " +
                             std::to_string(id) + ")");
    if (i > 0 && preds[i] == preds[i - 1])
      throw SessionError(ErrorCode::kBadRequest,
                         "duplicate predecessor " + std::to_string(preds[i]));
  }

  // The instant v becomes available in the current schedule: its last
  // predecessor's end (0 for a source).
  double ready = 0.0;
  if (resumable_)
    for (const int u : preds)
      ready = std::max(ready, resumable_->engine.result().trace.find(u)->end);

  const graph::TaskId v = graph_.add_task(params.model, params.name);
  successors_.emplace_back();
  for (const int u : params.preds) {
    graph_.add_edge(u, v);
    successors_[static_cast<std::size_t>(u)].push_back(v);
  }
  ++stats_.releases;

  const core::ScheduleResult& result = run_prefix(ready);
  const auto t = static_cast<std::size_t>(v);
  ReleaseReply reply;
  reply.ok = true;
  reply.task = v;
  reply.alloc = result.allocation[t];
  reply.ready = result.ready_time[t];
  reply.projected_makespan = result.makespan;
  if (const sim::TaskRecord* rec = result.trace.find(v)) {
    reply.start = rec->start;
    reply.end = rec->end;
  }
  return reply;
}

CloseReply Session::close() {
  touch();
  CloseReply reply;
  reply.ok = true;
  reply.num_tasks = graph_.num_tasks();
  if (graph_.num_tasks() == 0) {
    // An empty instance has nothing to schedule (OnlineScheduler rejects
    // empty graphs); by convention it closes at makespan 0, ratio 1.
    reply.ratio = 1.0;
    reply.stats = stats_;
    return reply;
  }
  const core::ScheduleResult& result = run_prefix(0.0);
  reply.makespan = result.makespan;
  reply.lower_bound = analysis::optimal_makespan_lower_bound(graph_, params_.P);
  reply.ratio =
      reply.lower_bound > 0.0 ? reply.makespan / reply.lower_bound : 1.0;
  reply.num_events = result.num_events;
  reply.allocation = result.allocation;
  reply.records = result.trace.records();
  reply.stats = stats_;
  if (params_.trace)
    reply.trace_json =
        io::trace_to_chrome_json(result.trace, params_.P, "svc:" + id_,
                                 &graph_);
  return reply;
}

}  // namespace moldsched::svc
