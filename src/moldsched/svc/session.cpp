#include "moldsched/svc/session.hpp"

#include <algorithm>
#include <utility>

#include "moldsched/analysis/bounds.hpp"
#include "moldsched/io/json.hpp"

namespace moldsched::svc {

Session::Session(std::string id, const OpenParams& params)
    : id_(std::move(id)),
      params_(params),
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

// Re-runs the registered spec on the whole prefix. The spec's scheduler
// runs through core::ListEngine to completion; resuming the engine from
// a checkpoint instead of re-running the prefix is not implemented.
const core::ScheduleResult& Session::run_prefix() {
  if (result_tasks_ == graph_.num_tasks()) return last_result_;
  const auto t0 = std::chrono::steady_clock::now();
  last_result_ = spec_.run(graph_, params_.P);
  stats_.schedule_ms +=
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  ++stats_.reschedules;
  result_tasks_ = graph_.num_tasks();
  return last_result_;
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

  const graph::TaskId v = graph_.add_task(params.model, params.name);
  for (const int u : params.preds) graph_.add_edge(u, v);
  ++stats_.releases;

  const core::ScheduleResult& result = run_prefix();
  ReleaseReply reply;
  reply.ok = true;
  reply.task = v;
  reply.alloc = result.allocation[static_cast<std::size_t>(v)];
  reply.ready = result.ready_time[static_cast<std::size_t>(v)];
  reply.projected_makespan = result.makespan;
  for (const auto& rec : result.trace.records()) {
    if (rec.task == v) {
      reply.start = rec.start;
      reply.end = rec.end;
      break;
    }
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
  const core::ScheduleResult& result = run_prefix();
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
