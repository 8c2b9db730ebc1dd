// Workload "suites": every registered experiment suite, run in process
// through engine::run_suite at the suites' fixed default repeats, with
// their result files written under the run's output directory.
//
// It is the only workload that runs the whole 13-scheduler registry,
// the hand-rolled event loops in sched/ and resilience/, the grid
// suites, thousands of cold Algorithm 2 decisions on small graphs and
// the engine executor. Its queues stay shallow. A round runs all
// suites once; every job must be ok and the records must repeat
// exactly across rounds. After the timed rounds, each suite whose
// output has a committed counterpart in results/ is re-run at the
// suites' default seed and must regenerate that file byte for byte.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/engine/executor.hpp"
#include "moldsched/engine/suites.hpp"
#include "moldsched/ingest/catalog.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/obs/metrics.hpp"
#include "moldsched/util/rng.hpp"

namespace perfbench {
namespace {

namespace engine = moldsched::engine;
namespace fs = std::filesystem;

constexpr unsigned kThreads = 2;
constexpr int kSetups = 15;
constexpr double kMu = 0.25;
constexpr int kModelProcs = 64;
constexpr std::uint64_t kSuiteStream = 1;
constexpr std::uint64_t kModelStream = 2;
/// SuiteOptions' default base seed: the seed the committed results/
/// files were generated with.
const std::uint64_t kDefaultSuiteSeed = engine::SuiteOptions{}.base_seed;

/// Committed results/ files that no longer match what their suite
/// writes at the default seed: they predate improved-lpa joining the
/// random-dags scheduler list, so they lack its row and were made from
/// other instances. Reported on every run instead of gated; they need a
/// regeneration commit, which a benchmark-only change may not make.
const std::set<std::string> kStaleCommitted = {
    "random_dags_amdahl.csv", "random_dags_communication.csv",
    "random_dags_general.csv", "random_dags_roofline.csv"};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct Inputs {
  std::vector<std::string> suites;
  std::map<std::string, std::size_t> jobs;           ///< per suite
  std::map<std::string, std::string> committed;      ///< results/ name -> bytes
  std::vector<moldsched::model::ModelPtr> models;    ///< for the alloc probes
  /// The bundled catalog the ingest suite schedules: the instance set of
  /// the graph, core, sim and wire probes.
  std::vector<moldsched::ingest::Workload> catalog;
};

Inputs set_up(const Options& options) {
  Inputs in;
  // The ingest suite reads the bundled catalog next to the sources.
  setenv("MOLDSCHED_WORKLOADS_DIR", "data/workloads", 0);
  (void)engine::Executor::global().thread_count();
  engine::SuiteOptions so;
  so.base_seed = moldsched::util::derive_seed(options.seed, kSuiteStream);
  for (const auto& s : engine::suites()) {
    in.suites.push_back(s.name);
    in.jobs[s.name] = engine::suite_jobs(s.name, so).size();
  }
  in.catalog = moldsched::ingest::load_bundled_workloads();
  if (in.catalog.empty())
    throw std::runtime_error("suites: bundled workload catalog is empty");
  for (const auto& entry : fs::directory_iterator("results"))
    if (entry.is_regular_file())
      in.committed[entry.path().filename().string()] = read_file(entry.path());
  moldsched::util::Rng rng(moldsched::util::derive_seed(options.seed, kModelStream));
  for (const auto kind :
       {moldsched::model::ModelKind::kRoofline,
        moldsched::model::ModelKind::kCommunication,
        moldsched::model::ModelKind::kAmdahl,
        moldsched::model::ModelKind::kGeneral}) {
    const moldsched::model::ModelSampler sampler(kind);
    for (int i = 0; i < 64; ++i)
      in.models.push_back(sampler.sample(rng, kModelProcs));
  }
  return in;
}

engine::SuiteOptions suite_options(const std::string& dir, std::uint64_t seed) {
  engine::SuiteOptions so;
  so.threads = kThreads;
  so.base_seed = seed;
  so.results_dir = dir;
  return so;
}

/// Layer probes over the bundled catalog, each graph at its own P; the
/// alloc probes run over the models sampled at set-up.
void probe_catalog(const Inputs& in, Lane* lane, Report& report) {
  std::vector<Instance> set;
  ReleaseStream stream;
  const moldsched::core::LpaAllocator lpa(kMu);
  for (const auto& w : in.catalog) {
    set.push_back({&w.graph, w.P});
    const auto r = moldsched::core::schedule_online(w.graph, w.P, lpa);
    auto part = release_stream(w.graph, r, r.trace.num_records());
    std::move(part.begin(), part.end(), std::back_inserter(stream));
  }
  probe_layers(set, kMu, lane, report);
  probe_alloc(in.models, kModelProcs, kMu, report);
  probe_wire(stream, lane, report);
}

}  // namespace

void run_suites(const Options& options, Report& report) {
  std::vector<double> setup_s;
  Inputs in;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    in = set_up(options);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::string dir = options.out_dir + "/suites";
  const std::uint64_t seed =
      moldsched::util::derive_seed(options.seed, kSuiteStream);

  auto& registry = moldsched::obs::default_registry();
  auto& pops = registry.counter("engine.executor.pops");
  auto& steals = registry.counter("engine.executor.steals");

  Tracer tracer;
  Lane* const main_lane = options.trace ? &tracer.open_lane() : nullptr;
  std::vector<double> plain_wall, traced_wall, jobs_per_s, queue_ms;
  std::map<std::string, std::vector<double>> suite_wall;
  std::map<std::string, std::vector<std::string>> outputs;
  std::uint64_t pops_total = 0, steals_total = 0;

  const auto run_start = Clock::now();
  const int min_rounds = options.trace ? 4 : 3;
  for (int round = 0;
       round < min_rounds ||
       seconds_between(run_start, Clock::now()) < options.seconds;
       ++round) {
    Lane* const lane = (options.trace && round % 2 == 1) ? main_lane : nullptr;
    const std::uint64_t pops0 = pops.value();
    const std::uint64_t steals0 = steals.value();
    std::uint64_t jobs = 0;
    std::uint64_t records_hash = 14695981039346656037ULL;
    const auto t0 = Clock::now();
    {
      ScopedSpan round_span(lane, "round");
      for (const std::string& name : in.suites) {
        const std::string span = "engine.suite." + name;
        const auto s0 = Clock::now();
        engine::SuiteReport r;
        {
          ScopedSpan suite_span(lane, span.c_str());
          r = engine::run_suite(name, suite_options(dir, seed));
        }
        if (lane) suite_wall[name].push_back(seconds_between(s0, Clock::now()));
        jobs += r.records.size();
        report.attempted += r.records.size();
        for (const auto& rec : r.records) {
          if (lane) queue_ms.push_back(rec.queue_ms);
          if (rec.status != "ok") {
            ++report.failed;
            report.fail("suites: " + name + " job " + rec.spec.key() + " " +
                        rec.status + ": " + rec.error);
          }
          records_hash ^= fnv1a(rec.canonical_json());
          records_hash *= 1099511628211ULL;
        }
        if (r.records.size() != in.jobs.at(name))
          report.fail("suites: " + name + " ran " +
                      std::to_string(r.records.size()) + " jobs, listed " +
                      std::to_string(in.jobs.at(name)));
        if (round == 0) outputs[name] = r.outputs;
      }
    }
    const double wall = seconds_between(t0, Clock::now());
    if (lane) {
      traced_wall.push_back(wall);
      pops_total += pops.value() - pops0;
      steals_total += steals.value() - steals0;
    } else {
      plain_wall.push_back(wall);
      jobs_per_s.push_back(static_cast<double>(jobs) / wall);
    }
    report.count("engine.jobs", static_cast<double>(jobs));
    // 52 bits, so the count survives a round trip through a double.
    report.count("engine.records_fnv52",
                 static_cast<double>(records_hash & ((1ULL << 52) - 1)));
  }

  // Committed-file gate at the suites' default seed.
  std::vector<std::string> stale;
  std::uint64_t compared = 0;
  for (const std::string& name : in.suites) {
    bool has_committed = false;
    for (const auto& out : outputs[name])
      has_committed |= in.committed.count(fs::path(out).filename().string()) > 0;
    if (!has_committed) continue;
    const auto r = engine::run_suite(
        name, suite_options(dir + "/default-seed", kDefaultSuiteSeed));
    for (const auto& out : r.outputs) {
      const std::string file = fs::path(out).filename().string();
      const auto it = in.committed.find(file);
      if (it == in.committed.end()) continue;
      if (read_file(out) == it->second) {
        ++compared;
      } else if (kStaleCommitted.count(file) > 0) {
        stale.push_back(file);
      } else {
        report.fail("suites: " + name + " does not regenerate results/" + file);
      }
    }
  }
  std::string stale_json = "[";
  for (std::size_t i = 0; i < stale.size(); ++i)
    stale_json += (i ? ", \"" : "\"") + stale[i] + '"';
  report.meta["committed_files_identical"] = std::to_string(compared);
  report.meta["committed_files_stale"] = stale_json + "]";
  report.meta["suite_threads"] = std::to_string(kThreads);
  report.meta["threads_max"] = std::to_string(thread_count());

  const auto rounds = static_cast<std::uint64_t>(plain_wall.size());
  if (!options.trace) {
    report.add("setup_s", median(setup_s), "s", setup_s.size(),
               "median of set-ups: executor, job lists, catalog, committed files");
    report.add("wall_s", fastest(plain_wall), "s", rounds,
               "fastest round: all suites once");
    report.add("jobs_per_s", highest(jobs_per_s), "1/s", rounds,
               "jobs completed per second, fastest round");
    report.add("ops_per_s", highest(jobs_per_s), "1/s", rounds,
               "ops are jobs: jobs_per_s");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1, "VmHWM");
    report.rounds(plain_wall);
    return;
  }

  const auto traced = static_cast<std::uint64_t>(traced_wall.size());
  for (const std::string& name : in.suites)
    report.add("engine.suite." + name + ".wall_s", median(suite_wall[name]),
               "s", traced);
  report.add("engine.job_queue_ms.p50", quantile(queue_ms, 0.50), "ms",
             queue_ms.size(), "JobRecord::queue_ms, traced rounds");
  report.add("engine.job_queue_ms.p99", quantile(queue_ms, 0.99), "ms",
             queue_ms.size(), "JobRecord::queue_ms, traced rounds");
  report.add("engine.executor.pops", static_cast<double>(pops_total), "count",
             traced, "traced rounds; depends on thread interleaving");
  report.add("engine.executor.steals", static_cast<double>(steals_total),
             "count", traced, "traced rounds; depends on thread interleaving");
  report.add("engine.jobs", report.exact_counts.at("engine.jobs"), "count", 1,
             "per round");
  probe_catalog(in, main_lane, report);
  report.add("trace.overhead", median(traced_wall) / median(plain_wall),
             "ratio", traced + rounds, "traced / untraced median round");
  add_span_extras(report, tracer);
  write_spans(tracer, options.out_dir + "/spans-suites-seed" +
                          std::to_string(options.seed) + ".json");
  report.meta["rounds"] = std::to_string(traced + rounds);
}

}  // namespace perfbench
