// Workload "serve": an in-process svc::Server on loopback driven by two
// svc::Client connections in a closed loop. The protocol is lockstep,
// so each client sends its next request only when the last reply came
// back; an open loop would also need more connections than the thread
// cap allows.
//
// A round streams a fixed session list task by task: two layered
// sessions of 1000 and 2000 tasks (Session::release re-runs the whole
// prefix, so their late releases make the latency tail) and four passes
// over the small mixed catalog of random, workflow and adversary shapes
// (about 70 tasks each, so wire, protocol and server overhead set the
// median). Every close reply must equal an in-process run of the same
// registry spec on the same graph, and every request must succeed.
//
// Threads: two clients, the server's io thread and a one-thread
// executor for request compute; the main thread only waits and watches
// for a stalled round (see run_round).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "moldsched/check/differential.hpp"
#include "moldsched/check/wire_check.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/engine/executor.hpp"
#include "moldsched/graph/adversary.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/graph/workflows.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/obs/metrics.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/svc/client.hpp"
#include "moldsched/svc/protocol.hpp"
#include "moldsched/svc/server.hpp"
#include "moldsched/svc/session.hpp"
#include "moldsched/util/rng.hpp"

namespace perfbench {
namespace {

namespace core = moldsched::core;
namespace graph = moldsched::graph;
namespace model = moldsched::model;
namespace svc = moldsched::svc;

constexpr int kProcs = 48;
constexpr double kMu = 0.25;
constexpr const char* kScheduler = "lpa";
constexpr int kClients = 2;
constexpr int kMixedPasses = 4;
constexpr int kLargeWidth = 50;
constexpr int kLargeTasks[] = {1000, 2000};
constexpr int kLargePool = 64;
constexpr std::uint64_t kLargePoolSeed = 11;
constexpr int kSetups = 15;

constexpr std::uint64_t kMixedStream = 1;
constexpr std::uint64_t kLargeStream = 2;

struct Entry {
  std::string name;
  graph::TaskGraph graph;  ///< id order is topological: streams as is
  std::vector<svc::ReleaseParams> releases;
  double makespan = 0.0;          ///< in-process reference
  std::uint64_t canonical = 0;    ///< fnv1a of its canonical schedule
};

void add_entry(std::vector<Entry>& out, std::string name,
               const graph::TaskGraph& g) {
  Entry e;
  e.name = std::move(name);
  e.graph = moldsched::check::relabel_topological(g);
  for (graph::TaskId v = 0; v < e.graph.num_tasks(); ++v) {
    svc::ReleaseParams p;
    p.name = e.graph.name(v);
    p.model = e.graph.model_ptr(v);
    for (const graph::TaskId u : e.graph.predecessors(v)) p.preds.push_back(u);
    p.expected_task = v;
    e.releases.push_back(std::move(p));
  }
  const auto ref = moldsched::sched::spec_by_name(kScheduler, kMu)
                       .run(e.graph, kProcs);
  e.makespan = ref.makespan;
  e.canonical = fnv1a(moldsched::check::canonical_schedule(ref));
  out.push_back(std::move(e));
}

/// The small mixed catalog: random shapes of each Eq. (1) family drawn
/// from the seed, plus fixed workflow and adversary shapes.
void add_mixed(std::vector<Entry>& out, std::uint64_t seed) {
  moldsched::util::Rng rng(seed);
  const model::ModelKind kinds[] = {
      model::ModelKind::kRoofline, model::ModelKind::kCommunication,
      model::ModelKind::kAmdahl, model::ModelKind::kGeneral};
  int i = 0;
  for (const auto kind : kinds) {
    const model::ModelSampler sampler(kind);
    const auto provider = graph::sampling_provider(sampler, rng, kProcs);
    const std::string n = std::to_string(i++);
    add_entry(out, "random/layered-" + n,
              graph::layered_random(6, 2, 8, 0.35, rng, provider));
    add_entry(out, "random/erdos-" + n,
              graph::erdos_renyi_dag(40, 0.08, rng, provider));
    add_entry(out, "random/intree-" + n,
              graph::random_in_tree(32, 3, rng, provider));
    add_entry(out, "random/sp-" + n,
              graph::series_parallel(36, rng, provider));
  }
  graph::WorkflowModelConfig config;
  config.kind = model::ModelKind::kAmdahl;
  add_entry(out, "workflow/cholesky", graph::cholesky(4, config));
  add_entry(out, "workflow/lu", graph::lu(4, config));
  config.kind = model::ModelKind::kCommunication;
  add_entry(out, "workflow/fft", graph::fft(5, config));
  add_entry(out, "workflow/montage", graph::montage(8, config));
  config.kind = model::ModelKind::kGeneral;
  add_entry(out, "workflow/wavefront", graph::wavefront(6, 6, config));
  add_entry(out, "adversary/roofline",
            graph::roofline_adversary(kProcs, kMu).graph);
  add_entry(out, "adversary/communication",
            graph::communication_adversary(kProcs, kMu).graph);
  add_entry(out, "adversary/amdahl", graph::amdahl_adversary(5, kMu).graph);
  add_entry(out, "adversary/general", graph::general_adversary(5, kMu).graph);
}

/// Streamable layered sessions of fixed sizes. Their tasks draw general
/// models from a pool fixed by kLargePoolSeed, so the prefix re-run
/// cost, and with it the latency tail, does not swing with the seed; the
/// seed draws the edges and which pool model each task gets.
void add_large(std::vector<Entry>& out, std::uint64_t seed) {
  moldsched::util::Rng pool_rng(kLargePoolSeed);
  const model::ModelSampler sampler(model::ModelKind::kGeneral);
  std::vector<model::ModelPtr> pool;
  for (int i = 0; i < kLargePool; ++i) pool.push_back(sampler.sample(pool_rng, kProcs));
  std::size_t next = 0;
  const auto provider = [&pool, &next] { return pool[next++ % pool.size()]; };
  for (std::size_t i = 0; i < std::size(kLargeTasks); ++i) {
    const int tasks = kLargeTasks[i];
    add_entry(out, "layered/" + std::to_string(tasks),
              graph::layered_uniform(tasks / kLargeWidth, kLargeWidth, 2,
                                     moldsched::util::derive_seed(seed, i),
                                     provider));
  }
}

/// Rebuilds a ScheduleResult from a close reply so its canonical form
/// can be compared with the in-process reference.
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

/// Set-up product: the catalog with its references, the round's session
/// list, a listening server and connected clients.
struct Context {
  std::vector<Entry> catalog;
  std::vector<std::size_t> round;  ///< catalog indices, large first
  std::unique_ptr<moldsched::engine::Executor> executor;
  std::unique_ptr<svc::Server> server;
  std::vector<std::unique_ptr<svc::Client>> clients;

  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  ~Context() { stop_server(); }

  void start_server(bool phases) {
    stop_server();
    svc::ServerTelemetry telemetry;
    telemetry.phases = phases;
    server = std::make_unique<svc::Server>(svc::ServerLimits{}, telemetry,
                                           *executor);
    const int port = server->listen("127.0.0.1", 0);
    clients.clear();
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<svc::Client>());
      clients.back()->connect("127.0.0.1", port);
    }
  }

  void stop_server() {
    clients.clear();
    if (server) {
      server->stop();
      server->wait();
      server.reset();
    }
  }
};

/// Expects a stopped server: tearing down the previous set-up is not
/// part of the timed set-up.
void set_up(Context& ctx, std::uint64_t seed) {
  ctx.catalog.clear();
  add_large(ctx.catalog, moldsched::util::derive_seed(seed, kLargeStream));
  const std::size_t large = ctx.catalog.size();
  add_mixed(ctx.catalog, moldsched::util::derive_seed(seed, kMixedStream));
  ctx.round.clear();
  for (std::size_t i = 0; i < large; ++i) ctx.round.push_back(i);
  for (int pass = 0; pass < kMixedPasses; ++pass)
    for (std::size_t i = large; i < ctx.catalog.size(); ++i)
      ctx.round.push_back(i);
  if (!ctx.executor)
    ctx.executor = std::make_unique<moldsched::engine::Executor>(1);
  ctx.start_server(false);
}

struct ClientStats {
  std::vector<double> latency_ms;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t tasks = 0;
  std::vector<std::string> failures;
  std::atomic<std::uint64_t>* progress = nullptr;  ///< shared reply count
};

/// Streams one session; every request's round trip is a latency sample.
void stream_session(svc::Client& client, const Entry& e, Lane* lane,
                    ClientStats& st) {
  const auto timed = [&st](auto&& call) {
    const auto t0 = Clock::now();
    auto reply = call();
    st.latency_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    st.progress->fetch_add(1, std::memory_order_relaxed);
    ++st.requests;
    if (!reply.ok) {
      ++st.failed;
      st.failures.push_back("serve: " + svc::to_string(reply.error.code) +
                            ": " + reply.error.message);
    }
    return reply;
  };
  ScopedSpan session_span(lane, "svc.session");
  svc::OpenParams open;
  open.scheduler = kScheduler;
  open.P = kProcs;
  open.mu = kMu;
  svc::OpenReply opened;
  {
    ScopedSpan span(lane, "svc.client.open");
    opened = timed([&] { return client.open(open); });
    if (lane) lane->tag_open_spans(opened.session);
  }
  if (!opened.ok) return;
  for (const auto& params : e.releases) {
    ScopedSpan span(lane, "svc.client.release", opened.session);
    const auto reply =
        timed([&] { return client.release(opened.session, params); });
    if (reply.ok) ++st.tasks;
    if (reply.ok && reply.task != *params.expected_task)
      st.failures.push_back("serve: " + e.name + " release got id " +
                            std::to_string(reply.task));
  }
  svc::CloseReply closed;
  {
    ScopedSpan span(lane, "svc.client.close", opened.session);
    closed = timed([&] { return client.close_session(opened.session); });
  }
  if (closed.ok &&
      (closed.makespan != e.makespan ||
       fnv1a(moldsched::check::canonical_schedule(
           result_from_close(closed))) != e.canonical))
    st.failures.push_back("serve: " + e.name +
                          " close reply differs from the in-process run");
}

struct RoundResult {
  double wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t tasks = 0;
  std::uint64_t wakeups = 0;
  double p50_ms = 0.0;  ///< over every request of the round
  double p99_ms = 0.0;
};

/// No reply for this long means a request is stuck, not slow: the
/// slowest request of a round takes a few milliseconds.
constexpr auto kStall = std::chrono::milliseconds(100);

RoundResult run_round(Context& ctx, Tracer* tracer, Report& report,
                      int& threads_max) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> progress{0};
  std::atomic<int> running{kClients};
  std::vector<ClientStats> stats(kClients);
  for (auto& st : stats) st.progress = &progress;
  std::vector<Lane*> lanes(kClients, nullptr);
  if (tracer)
    for (auto& l : lanes) l = &tracer->open_lane();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats& st = stats[static_cast<std::size_t>(c)];
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < ctx.round.size();)
          stream_session(*ctx.clients[static_cast<std::size_t>(c)],
                         ctx.catalog[ctx.round[i]],
                         lanes[static_cast<std::size_t>(c)], st);
      } catch (const std::exception& e) {
        ++st.requests;
        ++st.failed;
        st.failures.push_back(std::string("serve: transport: ") + e.what());
      }
      running.fetch_sub(1);
    });
  }
  threads_max = std::max(threads_max, thread_count());
  // engine::Executor::push notifies its workers without holding their
  // sleep mutex, so a wake-up can be lost; with one worker and lockstep
  // clients nothing else would wake it. The waiting main thread watches
  // for a stalled round and submits an empty task, which wakes the
  // worker; every such wake-up is counted and reported.
  RoundResult r;
  std::uint64_t seen = 0;
  auto last_progress = Clock::now();
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::uint64_t now_done = progress.load(std::memory_order_relaxed);
    if (now_done != seen) {
      seen = now_done;
      last_progress = Clock::now();
    } else if (Clock::now() - last_progress > kStall) {
      ctx.executor->submit([] {});
      ++r.wakeups;
      last_progress = Clock::now();
    }
  }
  for (auto& t : threads) t.join();
  r.wall_s = seconds_between(t0, Clock::now());
  std::vector<double> latency_ms;
  for (auto& st : stats) {
    latency_ms.insert(latency_ms.end(), st.latency_ms.begin(),
                      st.latency_ms.end());
    r.requests += st.requests;
    r.tasks += st.tasks;
    report.attempted += st.requests;
    report.failed += st.failed;
    for (auto& f : st.failures) report.fail(std::move(f));
  }
  r.p50_ms = quantile(latency_ms, 0.50);
  r.p99_ms = quantile(latency_ms, 0.99);
  return r;
}

/// Calls Session::release and close directly over the catalog, timing
/// each call bucketed by the session size after the release, then runs
/// the release request/reply codecs over the same stream.
void measure_session_and_wire(const Context& ctx, Lane* lane, Report& report) {
  std::vector<double> le100, le1000, le4000, close_ms;
  ReleaseStream stream;
  for (const Entry& e : ctx.catalog) {
    svc::OpenParams open;
    open.scheduler = kScheduler;
    open.P = kProcs;
    open.mu = kMu;
    ScopedSpan session_span(lane, "svc.session.direct", e.name);
    svc::Session session(e.name, open);
    for (const auto& params : e.releases) {
      const auto t0 = Clock::now();
      svc::ReleaseReply reply;
      {
        ScopedSpan span(lane, "svc.session.release", e.name);
        reply = session.release(params);
      }
      const double ms = seconds_between(t0, Clock::now()) * 1e3;
      const int size = session.num_tasks();
      (size <= 100 ? le100 : size <= 1000 ? le1000 : le4000).push_back(ms);
      stream.emplace_back(params, std::move(reply));
    }
    const auto t0 = Clock::now();
    svc::CloseReply closed;
    {
      ScopedSpan span(lane, "svc.session.close", e.name);
      closed = session.close();
    }
    close_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    if (closed.makespan != e.makespan)
      report.fail("serve: direct session of " + e.name +
                  " differs from the in-process run");
  }
  report.add("svc.session.release_ms.le100", mean(le100), "ms", le100.size(),
             "mean Session::release, session size <= 100");
  report.add("svc.session.release_ms.le1000", mean(le1000), "ms", le1000.size(),
             "mean Session::release, session size 101..1000");
  report.add("svc.session.release_ms.le4000", mean(le4000), "ms", le4000.size(),
             "mean Session::release, session size 1001..4000");
  report.add("svc.session.close_ms", mean(close_ms), "ms", close_ms.size(),
             "mean Session::close");

  probe_wire(stream, lane, report);
}

/// The catalog as a layer-probe instance set, and every task model in it.
void probe_catalog(const std::vector<Entry>& catalog, Lane* lane,
                   Report& report) {
  std::vector<Instance> set;
  std::vector<model::ModelPtr> models;
  for (const Entry& e : catalog) {
    set.push_back({&e.graph, kProcs});
    for (graph::TaskId v = 0; v < e.graph.num_tasks(); ++v)
      models.push_back(e.graph.model_ptr(v));
  }
  probe_layers(set, kMu, lane, report);
  probe_alloc(models, kProcs, kMu, report);
}

void report_wakeups(Report& report, std::uint64_t wakeups) {
  report.add_extra("svc.executor_stall_wakeups", static_cast<double>(wakeups),
                   "count", 1, "rounds stalled on a lost executor wake-up");
  report.meta["executor_stall_wakeups"] = std::to_string(wakeups);
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  Context ctx;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    ctx.stop_server();
    const auto t0 = Clock::now();
    set_up(ctx, options.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  auto& registry = moldsched::obs::default_registry();
  auto& rejected = registry.counter("svc.rejected.overloaded");
  auto& errors = registry.counter("svc.replies.error");
  auto& hits = registry.counter("core.alloc_cache.hits");
  auto& misses = registry.counter("core.alloc_cache.misses");
  const std::uint64_t rejected0 = rejected.value();
  const std::uint64_t errors0 = errors.value();

  // Latency percentiles are taken per round (about 10 300 requests, so
  // about 100 beyond the p99) and reported as the median over rounds: a
  // burst of host load that slows a few rounds then cannot drag the
  // run's tail with it.
  std::vector<double> wall, requests_per_s, tasks_per_s, p50_ms, p99_ms;
  std::uint64_t latency_samples = 0;
  int threads_max = 0;
  std::uint64_t wakeups = 0;
  // Traced runs spend the first half untraced on an unarmed server and
  // the second half traced on a server with phase telemetry armed.
  const double plain_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const auto start = Clock::now();
  while (wall.size() < 3 || seconds_between(start, Clock::now()) < plain_seconds) {
    const RoundResult r = run_round(ctx, nullptr, report, threads_max);
    wakeups += r.wakeups;
    p50_ms.push_back(r.p50_ms);
    p99_ms.push_back(r.p99_ms);
    latency_samples += r.requests;
    wall.push_back(r.wall_s);
    requests_per_s.push_back(static_cast<double>(r.requests) / r.wall_s);
    tasks_per_s.push_back(static_cast<double>(r.tasks) / r.wall_s);
    report.count("svc.requests_per_round", static_cast<double>(r.requests));
    report.count("svc.tasks_released", static_cast<double>(r.tasks));
  }

  if (!options.trace) {
    report_wakeups(report, wakeups);
    const auto rounds = static_cast<std::uint64_t>(wall.size());
    report.add("setup_s", median(setup_s), "s", setup_s.size(),
               "median of set-ups: catalog, references, server listen");
    report.add("wall_s", fastest(wall), "s", rounds,
               "fastest round: the fixed session list");
    report.add("tasks_per_s", highest(tasks_per_s), "1/s", rounds,
               "tasks released per second, fastest round");
    report.add("requests_per_s", highest(requests_per_s), "1/s", rounds,
               "completed requests per second, fastest round");
    report.add("ops_per_s", highest(requests_per_s), "1/s", rounds,
               "ops are requests: requests_per_s");
    report.add("latency_p50_ms", median(p50_ms), "ms", latency_samples,
               "client round trip of every request; median of round p50s");
    report.add("latency_p99_ms", median(p99_ms), "ms", latency_samples,
               "client round trip of every request; median of round p99s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM");
    report.rounds(wall);
    report.meta["threads_max"] = std::to_string(threads_max);
    return;
  }

  Tracer tracer;
  ctx.start_server(true);
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();
  std::vector<double> traced_wall;
  const auto traced_start = Clock::now();
  while (traced_wall.size() < 3 ||
         seconds_between(traced_start, Clock::now()) < options.seconds / 2) {
    const RoundResult r =
        run_round(ctx, &tracer, report, threads_max);
    wakeups += r.wakeups;
    traced_wall.push_back(r.wall_s);
    report.count("svc.requests_per_round", static_cast<double>(r.requests));
    report.count("svc.tasks_released", static_cast<double>(r.tasks));
  }
  const auto traced_rounds = static_cast<std::uint64_t>(traced_wall.size());
  report.add_extra("svc.server.alloc_cache.hits",
                   static_cast<double>(hits.value() - hits0), "count",
                   traced_rounds, "traced rounds; depends on thread interleaving");
  report.add_extra("svc.server.alloc_cache.misses",
                   static_cast<double>(misses.value() - misses0), "count",
                   traced_rounds, "traced rounds; depends on thread interleaving");
  for (const char* phase : {"queue", "parse", "schedule", "serialize", "write"}) {
    const std::string name = std::string("svc.phase.") + phase + "_ms";
    const auto& h = registry.histogram(name);
    report.add(name + ".p50", h.quantile(0.50), "ms", h.count(),
               "server phase histogram, traced rounds");
    report.add(name + ".p99", h.quantile(0.99), "ms", h.count(),
               "server phase histogram, traced rounds");
  }
  ctx.stop_server();

  Lane& lane = tracer.open_lane();
  measure_session_and_wire(ctx, &lane, report);
  probe_catalog(ctx.catalog, &lane, report);
  report.add("svc.rejected", static_cast<double>(rejected.value() - rejected0),
             "count", report.attempted);
  report.add("svc.replies.error", static_cast<double>(errors.value() - errors0),
             "count", report.attempted);
  report.add("svc.tasks_released", report.exact_counts.at("svc.tasks_released"),
             "count", 1, "per round");
  report.add("trace.overhead", median(traced_wall) / median(wall), "ratio",
             traced_rounds + wall.size(),
             "traced / untraced median round; traced arms server phases");
  report_wakeups(report, wakeups);
  add_span_extras(report, tracer);
  write_spans(tracer, options.out_dir + "/spans-serve-seed" +
                          std::to_string(options.seed) + ".json");
  report.meta["rounds"] = std::to_string(traced_rounds + wall.size());
  report.meta["threads_max"] = std::to_string(threads_max);
}

}  // namespace perfbench
