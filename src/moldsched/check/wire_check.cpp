#include "moldsched/check/wire_check.hpp"

#include <sstream>
#include <stdexcept>

#include "moldsched/check/differential.hpp"
#include "moldsched/graph/algorithms.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/svc/session.hpp"
#include "moldsched/svc/wire.hpp"

namespace moldsched::check {

graph::TaskGraph relabel_topological(const graph::TaskGraph& g) {
  if (!graph::is_acyclic(g))
    throw std::invalid_argument("relabel_topological: graph is cyclic");
  const auto order = graph::topological_order(g);
  std::vector<graph::TaskId> new_id(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    new_id[static_cast<std::size_t>(order[i])] = static_cast<graph::TaskId>(i);
  graph::TaskGraph out;
  for (const graph::TaskId old : order)
    out.add_task(g.model_ptr(old), g.name(old));
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v)
    for (const graph::TaskId s : g.successors(v))
      out.add_edge(new_id[static_cast<std::size_t>(v)],
                   new_id[static_cast<std::size_t>(s)]);
  return out;
}

std::string WireCheckReport::to_string() const {
  std::ostringstream os;
  os << "wire check: " << num_tasks << " tasks"
     << (relabeled ? " (relabeled)" : "") << ", makespan " << makespan;
  if (ok()) {
    os << ", ok";
    return os.str();
  }
  os << ", " << mismatches.size() << " mismatch(es):";
  for (const auto& m : mismatches) os << "\n  - " << m;
  return os.str();
}

core::ScheduleResult result_from_close(const svc::CloseReply& reply) {
  core::ScheduleResult out;
  for (const auto& rec : reply.records) {
    out.trace.record_start(rec.task, rec.start, rec.procs);
    out.trace.record_end(rec.task, rec.end);
  }
  out.makespan = reply.makespan;
  out.allocation = reply.allocation;
  out.num_events = reply.num_events;
  return out;
}

WireCheckReport wire_roundtrip_check(const graph::TaskGraph& g, int P,
                                     const std::string& scheduler, double mu,
                                     core::QueuePolicy policy) {
  WireCheckReport report;
  report.num_tasks = g.num_tasks();

  // Layer 1: the graph codec round-trips losslessly and stably.
  const std::string encoded = svc::encode_graph(g);
  const graph::TaskGraph decoded = svc::decode_graph(encoded);
  if (svc::encode_graph(decoded) != encoded)
    report.mismatches.push_back("graph re-encode is not byte-stable");

  sched::SchedulerSpec spec = sched::spec_by_name(scheduler, mu);
  spec.policy = policy;
  if (g.num_tasks() > 0) {
    const std::string direct = canonical_schedule(spec.run(g, P));
    const std::string via_codec = canonical_schedule(spec.run(decoded, P));
    if (via_codec != direct)
      report.mismatches.push_back(
          "decoded graph schedules differently from the original");
  }

  // Layer 2: the streamed session. Relabel if id order is not already
  // topological, then reference the relabeled instance directly.
  graph::TaskGraph streamable = relabel_topological(g);
  report.relabeled = svc::encode_graph(streamable) != encoded;
  const graph::TaskGraph& s = report.relabeled ? streamable : g;

  svc::OpenParams open;
  open.scheduler = scheduler;
  open.P = P;
  open.mu = mu;
  open.policy = policy;
  svc::Session session("wirecheck", open);
  double last_projected = 0.0;
  for (graph::TaskId v = 0; v < s.num_tasks(); ++v) {
    svc::ReleaseParams params;
    params.name = s.name(v);
    params.model = s.model_ptr(v);
    for (const graph::TaskId u : s.predecessors(v)) params.preds.push_back(u);
    params.expected_task = v;
    // Round-trip the release through the request codec, exactly as the
    // TCP path would carry it.
    const svc::Request req = svc::parse_request(
        svc::release_request_json("wirecheck", params, v + 1));
    const svc::ReleaseReply reply = session.release(req.release);
    if (reply.task != v)
      report.mismatches.push_back("release " + std::to_string(v) +
                                  " got id " + std::to_string(reply.task));
    last_projected = reply.projected_makespan;
  }

  svc::CloseReply close = session.close();
  // Round-trip the close reply through its codec, too.
  close = svc::parse_close_reply(svc::close_reply_json(close));
  if (!close.ok) {
    report.mismatches.push_back("close reply not ok: " + close.error.message);
    return report;
  }

  if (s.num_tasks() > 0) {
    const std::string reference = canonical_schedule(spec.run(s, P));
    report.makespan = close.makespan;
    const std::string streamed = canonical_schedule(result_from_close(close));
    if (streamed != reference)
      report.mismatches.push_back(
          "streamed session diverges from the in-process schedule");
    if (last_projected != close.makespan)
      report.mismatches.push_back(
          "final release projected a different makespan than close");
  }
  return report;
}

WireCheckReport wire_roundtrip_check(const graph::TaskGraph& g, int P,
                                     double mu, core::QueuePolicy policy) {
  return wire_roundtrip_check(g, P, "lpa", mu, policy);
}

}  // namespace moldsched::check
