// Layer probes shared by the workloads: graph, core, sim and svc wire
// calls timed over a workload's own instances, so every workload's
// traced run reports the same per-layer set.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/graph/algorithms.hpp"
#include "moldsched/graph/passes.hpp"
#include "moldsched/obs/metrics.hpp"
#include "moldsched/sim/event_queue.hpp"
#include "moldsched/sim/validator.hpp"
#include "moldsched/svc/protocol.hpp"

namespace perfbench {

namespace core = moldsched::core;
namespace graph = moldsched::graph;
namespace sim = moldsched::sim;
namespace svc = moldsched::svc;

QueueDepth queue_depth(const core::ScheduleResult& r) {
  std::vector<std::pair<double, int>> changes;
  changes.reserve(2 * r.ready_time.size());
  for (const auto& rec : r.trace.records()) {
    changes.emplace_back(r.ready_time[static_cast<std::size_t>(rec.task)], 1);
    changes.emplace_back(rec.start, -1);
  }
  std::sort(changes.begin(), changes.end());
  QueueDepth out;
  long depth = 0;
  for (std::size_t i = 0; i < changes.size();) {
    const double t = changes[i].first;
    for (; i < changes.size() && changes[i].first == t; ++i)
      depth += changes[i].second;
    out.max = std::max(out.max, static_cast<double>(depth));
    out.sum += static_cast<double>(depth);
    ++out.instants;
  }
  return out;
}

std::uint64_t replay_event_heap(const core::ScheduleResult& r) {
  sim::EventQueue q;
  q.reserve(r.trace.num_records());
  std::vector<sim::Event> batch;
  std::uint64_t ops = 0;
  for (const auto& rec : r.trace.records()) {
    while (!q.empty() && q.next_time() <= rec.start) {
      q.pop_simultaneous_into(batch);
      ops += batch.size();
    }
    q.schedule(rec.end, rec.task);
    ++ops;
  }
  while (!q.empty()) {
    q.pop_simultaneous_into(batch);
    ops += batch.size();
  }
  return ops;
}

void probe_layers(const std::vector<Instance>& set, double mu, Lane* lane,
                  Report& report) {
  auto& registry = moldsched::obs::default_registry();
  auto& hits = registry.counter("core.alloc_cache.hits");
  auto& misses = registry.counter("core.alloc_cache.misses");
  std::vector<double> build_s, topo_s, cp_s, schedule_s, ns_per_event,
      validate_s, heap_ns_per_op;
  const auto start = Clock::now();
  for (int pass = 0; pass < kMinProbePasses ||
                     seconds_between(start, Clock::now()) < kMinProbeSeconds;
       ++pass) {
    ScopedSpan pass_span(lane, "probe.pass");
    const core::LpaAllocator lpa(mu);
    const core::CachingAllocator cached(
        lpa, std::make_shared<core::DecisionCache>());
    const std::uint64_t hits0 = hits.value();
    const std::uint64_t misses0 = misses.value();
    double build = 0, topo = 0, cp = 0, schedule = 0, validate = 0, heap = 0;
    double bytes = 0, events = 0, heap_ops = 0;
    QueueDepth depth;
    for (const Instance& inst : set) {
      auto t0 = Clock::now();
      std::optional<graph::TaskGraph> g;
      {
        ScopedSpan span(lane, "graph.build_adjacency");
        g.emplace(*inst.graph);
        g->build_adjacency();
      }
      build += seconds_between(t0, Clock::now());
      bytes += static_cast<double>(g->memory_bytes());
      t0 = Clock::now();
      {
        ScopedSpan span(lane, "graph.topo_order");
        if (graph::topological_order(*g).size() !=
            static_cast<std::size_t>(g->num_tasks()))
          report.fail("probe: topological order misses tasks");
      }
      topo += seconds_between(t0, Clock::now());
      const auto weights = graph::passes::min_time_weights(*g, inst.P);
      t0 = Clock::now();
      double bound = 0.0;
      {
        ScopedSpan span(lane, "graph.critical_path");
        bound = graph::passes::critical_path(*g, weights).length;
      }
      cp += seconds_between(t0, Clock::now());
      t0 = Clock::now();
      std::optional<core::ScheduleResult> r;
      {
        ScopedSpan span(lane, "core.schedule");
        r.emplace(core::schedule_online(*g, inst.P, cached));
      }
      schedule += seconds_between(t0, Clock::now());
      events += static_cast<double>(r->num_events);
      t0 = Clock::now();
      {
        ScopedSpan span(lane, "sim.validate");
        const auto valid = sim::validate_schedule(*g, r->trace, inst.P);
        if (!valid.ok()) report.fail("probe: invalid schedule: " + valid.to_string());
      }
      validate += seconds_between(t0, Clock::now());
      if (r->makespan < bound) report.fail("probe: makespan below the critical-path bound");
      t0 = Clock::now();
      {
        ScopedSpan span(lane, "sim.event_heap_replay");
        heap_ops += static_cast<double>(replay_event_heap(*r));
      }
      heap += seconds_between(t0, Clock::now());
      const QueueDepth d = queue_depth(*r);
      depth.sum += d.sum;
      depth.instants += d.instants;
      depth.max = std::max(depth.max, d.max);
    }
    build_s.push_back(build);
    topo_s.push_back(topo);
    cp_s.push_back(cp);
    schedule_s.push_back(schedule);
    ns_per_event.push_back(schedule * 1e9 / events);
    validate_s.push_back(validate);
    heap_ns_per_op.push_back(heap * 1e9 / heap_ops);
    report.count("graph.bytes", bytes);
    report.count("core.events", events);
    report.count("core.queue_depth_mean",
                 depth.instants ? depth.sum / static_cast<double>(depth.instants) : 0.0);
    report.count("core.queue_depth_max", depth.max);
    report.count("core.alloc_cache.hits", static_cast<double>(hits.value() - hits0));
    report.count("core.alloc_cache.misses",
                 static_cast<double>(misses.value() - misses0));
  }
  const auto passes = static_cast<std::uint64_t>(build_s.size());
  const auto& counts = report.exact_counts;
  report.add("graph.build_s", median(build_s), "s", passes,
             "TaskGraph copy + build_adjacency over the instance set, median pass");
  report.add("graph.bytes", counts.at("graph.bytes"), "bytes", 1,
             "TaskGraph::memory_bytes summed over the instance set");
  report.add("graph.topo_order_s", median(topo_s), "s", passes);
  report.add("graph.critical_path_s", median(cp_s), "s", passes);
  report.add("core.schedule_s", median(schedule_s), "s", passes,
             "schedule_online over the instance set, median pass");
  report.add("core.schedule_ns_per_event", median(ns_per_event), "ns", passes);
  report.add("core.events", counts.at("core.events"), "count", 1);
  report.add("core.queue_depth_mean", counts.at("core.queue_depth_mean"),
             "count", 1, "mean over event instants");
  report.add("core.queue_depth_max", counts.at("core.queue_depth_max"),
             "count", 1);
  report.add("core.alloc_cache.hits", counts.at("core.alloc_cache.hits"),
             "count", 1, "per pass, fresh cache");
  report.add("core.alloc_cache.misses", counts.at("core.alloc_cache.misses"),
             "count", 1, "per pass, fresh cache");
  report.add("sim.event_heap_ns_per_op", median(heap_ns_per_op), "ns", passes,
             "push + pop_simultaneous_into replaying the completions");
  report.add("sim.validate_s", median(validate_s), "s", passes,
             "checker cost");
}

void probe_alloc(const std::vector<moldsched::model::ModelPtr>& models, int P,
                 double mu, Report& report) {
  const core::LpaAllocator lpa(mu);
  const core::CachingAllocator warm(lpa, std::make_shared<core::DecisionCache>());
  for (const auto& m : models) (void)warm.allocate(*m, P);
  report.add("core.alloc_cold_ns", ns_per_allocation(lpa, models, P), "ns",
             models.size(), "LpaAllocator::allocate, uncached");
  report.add("core.alloc_warm_ns", ns_per_allocation(warm, models, P), "ns",
             models.size(), "CachingAllocator::allocate, warm");
}

ReleaseStream release_stream(const graph::TaskGraph& g,
                             const core::ScheduleResult& r, std::size_t limit) {
  ReleaseStream out;
  for (const auto& rec : r.trace.records()) {
    if (out.size() == limit) break;
    const auto v = static_cast<std::size_t>(rec.task);
    svc::ReleaseParams p;
    p.name = g.name(rec.task);
    p.model = g.model_ptr(rec.task);
    for (const graph::TaskId u : g.predecessors(rec.task)) p.preds.push_back(u);
    p.expected_task = rec.task;
    svc::ReleaseReply reply;
    reply.ok = true;
    reply.task = rec.task;
    reply.alloc = r.allocation[v];
    reply.ready = r.ready_time[v];
    reply.start = rec.start;
    reply.end = rec.end;
    reply.projected_makespan = r.makespan;
    out.emplace_back(std::move(p), std::move(reply));
  }
  return out;
}

void probe_wire(const ReleaseStream& stream, Lane* lane, Report& report) {
  std::vector<std::string> requests(stream.size()), replies(stream.size());
  auto t0 = Clock::now();
  {
    ScopedSpan span(lane, "svc.wire.encode");
    for (std::size_t i = 0; i < stream.size(); ++i) {
      requests[i] = svc::release_request_json("s", stream[i].first,
                                              static_cast<std::int64_t>(i));
      replies[i] = svc::release_reply_json(stream[i].second);
    }
  }
  const double encode_s = seconds_between(t0, Clock::now());
  t0 = Clock::now();
  std::uint64_t mismatches = 0;
  {
    ScopedSpan span(lane, "svc.wire.decode");
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const svc::Request req = svc::parse_request(requests[i]);
      const svc::ReleaseReply rep = svc::parse_release_reply(replies[i]);
      if (req.release.preds != stream[i].first.preds ||
          rep.end != stream[i].second.end)
        ++mismatches;
    }
  }
  const double decode_s = seconds_between(t0, Clock::now());
  if (mismatches > 0) report.fail("wire codecs do not round-trip");
  const auto n = static_cast<double>(stream.size());
  report.add("svc.wire.encode_ns", encode_s * 1e9 / n, "ns", stream.size(),
             "release_request_json + release_reply_json per release");
  report.add("svc.wire.decode_ns", decode_s * 1e9 / n, "ns", stream.size(),
             "parse_request + parse_release_reply per release");
}

}  // namespace perfbench
