// Workload "scale": one graph::layered_uniform DAG of 10^6 tasks (500
// layers x 2000 wide, out-degree 2, a pool of 64 Eq. (1) models) built
// and scheduled by core::schedule_online at P=256 with LPA mu=0.25
// behind a fresh CachingAllocator per round.
//
// Width >> P keeps thousands of tasks in Algorithm 1's waiting queue,
// so graph build, the queue scan and the event heap dominate. A round
// is build + schedule (the timed phase) followed by untimed gates:
// sim::validate_schedule, makespan >= the critical-path bound computed
// at set-up, and makespan plus canonical-schedule hash bit-identical
// across rounds.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "moldsched/check/differential.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/graph/algorithms.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/graph/passes.hpp"
#include "moldsched/model/general_model.hpp"
#include "moldsched/obs/metrics.hpp"
#include "moldsched/sim/validator.hpp"
#include "moldsched/util/rng.hpp"

namespace perfbench {
namespace {

namespace core = moldsched::core;
namespace graph = moldsched::graph;
namespace model = moldsched::model;
namespace sim = moldsched::sim;

constexpr int kLayers = 500;
constexpr int kWidth = 2000;
constexpr int kDegree = 2;
constexpr int kTasks = kLayers * kWidth;
constexpr std::size_t kPoolSize = 64;
constexpr int kProcs = 256;
constexpr double kMu = 0.25;
constexpr int kSetups = 3;
/// The wire probe encodes and decodes the first releases of the stream.
constexpr std::size_t kWireReleases = 100000;

// Child-seed stream of util::derive_seed(seed, stream).
constexpr std::uint64_t kGraphStream = 1;
/// The model pool is bench_scale's: 64 Eq. (1) models drawn from this
/// fixed seed and cycled across tasks. It is part of the workload's
/// definition, like its shape: the queue depth, and so the work per
/// round, follows the pool's mix of allocations, and pools drawn per
/// seed moved the mean queue depth by up to a third from seed to seed.
/// The seed draws the edges.
constexpr std::uint64_t kPoolSeed = 11;

std::vector<model::ModelPtr> model_pool() {
  moldsched::util::Rng rng(kPoolSeed);
  std::vector<model::ModelPtr> pool;
  pool.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    model::GeneralParams params;
    params.w = rng.log_uniform(1.0, 100.0);
    params.d = rng.log_uniform(0.01, 1.0);
    params.c = rng.log_uniform(1e-4, 1e-2);
    params.pbar = static_cast<int>(rng.uniform_int(4, 256));
    pool.push_back(std::make_shared<model::GeneralModel>(params));
  }
  return pool;
}

struct Inputs {
  std::vector<model::ModelPtr> pool;
  std::uint64_t graph_seed = 0;
  double lower_bound = 0.0;  ///< critical path under t_min(P) weights
};

/// The seed's instance; identical on every call.
graph::TaskGraph generate(const Inputs& in) {
  std::size_t next = 0;
  return graph::layered_uniform(kLayers, kWidth, kDegree, in.graph_seed,
                                [&in, &next] {
                                  return in.pool[next++ % in.pool.size()];
                                });
}

Inputs set_up(std::uint64_t seed) {
  Inputs in;
  in.pool = model_pool();
  in.graph_seed = moldsched::util::derive_seed(seed, kGraphStream);
  const graph::TaskGraph g = generate(in);
  g.build_adjacency();
  in.lower_bound =
      graph::passes::critical_path(g, graph::passes::min_time_weights(g, kProcs))
          .length;
  return in;
}

}  // namespace

void run_scale(const Options& options, Report& report) {
  std::vector<double> setup_s;
  Inputs in;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    in = set_up(options.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  auto& registry = moldsched::obs::default_registry();
  auto& hits = registry.counter("core.alloc_cache.hits");
  auto& misses = registry.counter("core.alloc_cache.misses");

  Tracer tracer;
  Lane* const main_lane = options.trace ? &tracer.open_lane() : nullptr;

  std::vector<double> plain_wall, traced_wall, tasks_per_s;
  std::vector<double> build_s, schedule_s, ns_per_event, topo_s, cp_s,
      validate_s, heap_ns_per_op;
  bool wire_probed = false;
  double first_makespan = 0.0;
  std::uint64_t first_hash = 0;

  const auto run_start = Clock::now();
  // Traced runs alternate untraced and traced rounds, so trace.overhead
  // compares the same work in one process.
  const int min_rounds = options.trace ? 4 : 3;
  for (int round = 0;
       round < min_rounds ||
       seconds_between(run_start, Clock::now()) < options.seconds;
       ++round) {
    Lane* const lane = (options.trace && round % 2 == 1) ? main_lane : nullptr;
    const std::size_t failures_before = report.failures.size();
    const core::LpaAllocator lpa(kMu);
    const core::CachingAllocator cached(
        lpa, std::make_shared<core::DecisionCache>());
    const std::uint64_t hits0 = hits.value();
    const std::uint64_t misses0 = misses.value();

    std::optional<ScopedSpan> round_span(std::in_place, lane, "round");
    const auto t0 = Clock::now();
    std::optional<ScopedSpan> build_span(std::in_place, lane, "graph.build");
    std::optional<ScopedSpan> gen_span(std::in_place, lane,
                                       "graph.layered_uniform");
    const graph::TaskGraph g = generate(in);
    gen_span.reset();
    {
      ScopedSpan csr(lane, "graph.build_adjacency");
      g.build_adjacency();
    }
    build_span.reset();
    const auto t1 = Clock::now();
    std::optional<ScopedSpan> sched_span(std::in_place, lane, "core.schedule");
    const core::ScheduleResult result = core::schedule_online(g, kProcs, cached);
    sched_span.reset();
    const auto t2 = Clock::now();
    round_span.reset();

    const double b = seconds_between(t0, t1);
    const double s = seconds_between(t1, t2);
    (lane ? traced_wall : plain_wall).push_back(b + s);
    if (!lane) tasks_per_s.push_back(kTasks / (b + s));

    report.count("graph.tasks", g.num_tasks());
    report.count("graph.edges", static_cast<double>(g.num_edges()));
    report.count("graph.bytes", static_cast<double>(g.memory_bytes()));
    report.count("core.events", static_cast<double>(result.num_events));
    report.count("core.alloc_cache.hits",
                 static_cast<double>(hits.value() - hits0));
    report.count("core.alloc_cache.misses",
                 static_cast<double>(misses.value() - misses0));

    // Gates.
    const auto v0 = Clock::now();
    sim::ValidationReport valid;
    {
      ScopedSpan span(lane, "sim.validate");
      valid = sim::validate_schedule(g, result.trace, kProcs);
    }
    const double v = seconds_between(v0, Clock::now());
    if (!valid.ok()) report.fail("scale: invalid schedule: " + valid.to_string());
    if (result.makespan < in.lower_bound)
      report.fail("scale: makespan below the critical-path bound");
    std::uint64_t hash = 0;
    {
      ScopedSpan span(lane, "check.canonical_schedule");
      hash = fnv1a(moldsched::check::canonical_schedule(result));
    }
    if (round == 0) {
      first_makespan = result.makespan;
      first_hash = hash;
    } else if (result.makespan != first_makespan || hash != first_hash) {
      report.fail("scale: schedule not bit-identical across rounds");
    }

    if (lane) {
      build_s.push_back(b);
      schedule_s.push_back(s);
      ns_per_event.push_back(s * 1e9 / static_cast<double>(result.num_events));
      validate_s.push_back(v);
      auto l0 = Clock::now();
      {
        ScopedSpan span(lane, "graph.topo_order");
        const auto order = graph::topological_order(g);
        if (order.size() != static_cast<std::size_t>(g.num_tasks()))
          report.fail("scale: topological order misses tasks");
      }
      topo_s.push_back(seconds_between(l0, Clock::now()));
      std::vector<double> weights;
      {
        ScopedSpan span(lane, "graph.min_time_weights");
        weights = graph::passes::min_time_weights(g, kProcs);
      }
      l0 = Clock::now();
      {
        ScopedSpan span(lane, "graph.critical_path");
        if (graph::passes::critical_path(g, weights).length != in.lower_bound)
          report.fail("scale: critical path differs from the set-up bound");
      }
      cp_s.push_back(seconds_between(l0, Clock::now()));
      const QueueDepth depth = queue_depth(result);
      report.count("core.queue_depth_mean",
                   depth.sum / static_cast<double>(depth.instants));
      report.count("core.queue_depth_max", depth.max);
      l0 = Clock::now();
      std::uint64_t ops = 0;
      {
        ScopedSpan span(lane, "sim.event_heap_replay");
        ops = replay_event_heap(result);
      }
      heap_ns_per_op.push_back(seconds_between(l0, Clock::now()) * 1e9 /
                               static_cast<double>(ops));
      if (!wire_probed) {
        probe_wire(release_stream(g, result, kWireReleases), lane, report);
        wire_probed = true;
      }
    }
    ++report.attempted;
    if (report.failures.size() != failures_before) ++report.failed;
  }

  const auto rounds = static_cast<std::uint64_t>(plain_wall.size());
  if (!options.trace) {
    report.add("setup_s", median(setup_s), "s", setup_s.size(),
               "median of set-ups: model pool, graph, critical-path bound");
    report.add("wall_s", fastest(plain_wall), "s", rounds,
               "fastest round: graph build + schedule_online");
    report.add("tasks_per_s", highest(tasks_per_s), "1/s", rounds,
               "tasks / (graph build + schedule_online), fastest round");
    report.add("ops_per_s", highest(tasks_per_s), "1/s", rounds,
               "ops are tasks: tasks_per_s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM");
    report.rounds(plain_wall);
    report.meta["threads_max"] = std::to_string(thread_count());
    return;
  }

  const auto traced = static_cast<std::uint64_t>(traced_wall.size());
  const auto& counts = report.exact_counts;
  report.add("graph.build_s", median(build_s), "s", traced,
             "layered_uniform + build_adjacency, median round");
  report.add("graph.bytes", counts.at("graph.bytes"), "bytes", 1,
             "TaskGraph::memory_bytes");
  report.add("graph.topo_order_s", median(topo_s), "s", traced);
  report.add("graph.critical_path_s", median(cp_s), "s", traced);
  report.add("core.schedule_s", median(schedule_s), "s", traced);
  report.add("core.schedule_ns_per_event", median(ns_per_event), "ns", traced);
  report.add("core.events", counts.at("core.events"), "count", 1);
  report.add("core.queue_depth_mean", counts.at("core.queue_depth_mean"),
             "count", 1, "mean over event instants");
  report.add("core.queue_depth_max", counts.at("core.queue_depth_max"),
             "count", 1);
  probe_alloc(in.pool, kProcs, kMu, report);
  report.add("core.alloc_cache.hits", counts.at("core.alloc_cache.hits"),
             "count", 1, "per round");
  report.add("core.alloc_cache.misses", counts.at("core.alloc_cache.misses"),
             "count", 1, "per round");
  report.add("sim.event_heap_ns_per_op", median(heap_ns_per_op), "ns", traced,
             "push + pop_simultaneous_into replaying the completions");
  report.add("sim.validate_s", median(validate_s), "s", traced,
             "checker cost, not part of tasks_per_s");
  report.add("trace.overhead", median(traced_wall) / median(plain_wall),
             "ratio", traced + rounds,
             "traced / untraced median round (build + schedule)");
  add_span_extras(report, tracer);
  write_spans(tracer, options.out_dir + "/spans-scale-seed" +
                          std::to_string(options.seed) + ".json");
  report.meta["rounds"] = std::to_string(traced + rounds);
  report.meta["threads_max"] = std::to_string(thread_count());
}

}  // namespace perfbench
