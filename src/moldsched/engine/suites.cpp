#include "moldsched/engine/suites.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "moldsched/adv/tournament.hpp"
#include "moldsched/analysis/bounds.hpp"
#include "moldsched/analysis/curves.hpp"
#include "moldsched/analysis/improved.hpp"
#include "moldsched/analysis/experiment.hpp"
#include "moldsched/analysis/ratios.hpp"
#include "moldsched/analysis/report.hpp"
#include "moldsched/check/corpus.hpp"
#include "moldsched/check/differential.hpp"
#include "moldsched/check/shrink.hpp"
#include "moldsched/check/wire_check.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/engine/runner.hpp"
#include "moldsched/graph/adversary.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/ingest/catalog.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/obs/obs.hpp"
#include "moldsched/obs/process_stats.hpp"
#include "moldsched/opt/bnb.hpp"
#include "moldsched/opt/oracle.hpp"
#include "moldsched/resilience/resilient_scheduler.hpp"
#include "moldsched/sched/baselines.hpp"
#include "moldsched/sched/improved_lpa.hpp"
#include "moldsched/sched/level_scheduler.hpp"
#include "moldsched/sched/malleable_scheduler.hpp"
#include "moldsched/sched/offline.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/sched/release_scheduler.hpp"
#include "moldsched/util/parallel.hpp"
#include "moldsched/util/stats.hpp"
#include "moldsched/util/table.hpp"

namespace moldsched::engine {

namespace {

const std::vector<model::ModelKind> kAllModels = {
    model::ModelKind::kRoofline, model::ModelKind::kCommunication,
    model::ModelKind::kAmdahl, model::ModelKind::kGeneral};

std::size_t kind_index(model::ModelKind kind) {
  switch (kind) {
    case model::ModelKind::kRoofline: return 0;
    case model::ModelKind::kCommunication: return 1;
    case model::ModelKind::kAmdahl: return 2;
    case model::ModelKind::kGeneral: return 3;
    case model::ModelKind::kArbitrary: break;
  }
  throw std::invalid_argument("kind_index: arbitrary model");
}

/// Stable 64-bit hash of a string (FNV-1a); used to fold axis labels
/// into derived seeds without depending on std::hash's implementation.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

int effective_repeats(const SuiteOptions& options, int fallback) {
  if (options.repeats < 0)
    throw std::invalid_argument("SuiteOptions: repeats must be >= 0");
  return options.repeats == 0 ? fallback : options.repeats;
}

// ---------------------------------------------------------------------------
// The one suite shape. A suite is a full job list (suite_jobs() applies
// the filter), a factory that builds the per-job runner from the run's
// options, and a finalizer over the ok records.

/// Marks a job that saw its token fire before it set any metric.
void mark_cancelled(JobRecord& rec) {
  rec.status = "cancelled";
  rec.error = "cancelled before completion";
}

/// A suite's work for one job: fills `rec`, whose spec is `spec`. A body
/// that sees `token` fire part-way through calls mark_cancelled(rec).
using JobBody = std::function<void(const JobSpec& spec, JobRecord& rec,
                                   const CancelToken& token)>;

/// The one job prologue: the record carries its spec, and a job whose
/// token fired before it started is cancelled without running.
JobRunner job_runner(JobBody body) {
  return [body = std::move(body)](const JobSpec& spec,
                                  const CancelToken& token) {
    JobRecord rec;
    rec.spec = spec;
    if (token.cancelled())
      mark_cancelled(rec);
    else
      body(spec, rec, token);
    return rec;
  };
}

using RunnerFactory = std::function<JobRunner(const SuiteOptions&)>;

/// Runner factory of a suite whose jobs do not depend on the options.
RunnerFactory same_runner(JobBody body) {
  return [runner = job_runner(std::move(body))](const SuiteOptions&) {
    return runner;
  };
}

/// The files one finalizer writes under options.results_dir.
struct Outputs {
  explicit Outputs(const SuiteOptions& opts) : options(opts) {}

  /// Writes `content` to <results_dir>/<name>; returns the path.
  std::string file(const std::string& name, const std::string& content) {
    std::string path = options.results_dir + "/" + name;
    analysis::write_file(path, content);
    paths.push_back(path);
    return path;
  }

  /// Writes `rows` as CSV; with a human stream set, also prints them
  /// under `title`, then a blank line.
  void table(const std::string& name, const util::Table& rows,
             const std::string& title) {
    file(name, rows.to_csv());
    if (options.human_out) {
      rows.print(*options.human_out, title);
      *options.human_out << '\n';
    }
  }

  const SuiteOptions& options;
  std::vector<std::string> paths;
};

struct SuiteDef {
  SuiteInfo info;
  std::function<std::vector<JobSpec>(const SuiteOptions&)> build;
  RunnerFactory runner;
  /// Writes the suite's outputs from its ok records (and prints its
  /// human tables); returns the paths written.
  std::function<std::vector<std::string>(const std::vector<const JobRecord*>&,
                                         const SuiteOptions&)>
      finalize;
};

/// Numbers a hand-built job list the way JobGrid numbers its grid: ids
/// in list order, seeds derived from (base_seed, id).
std::vector<JobSpec> numbered(std::vector<JobSpec> jobs,
                              const std::string& suite,
                              const SuiteOptions& options) {
  for (std::size_t id = 0; id < jobs.size(); ++id) {
    jobs[id].job_id = id;
    jobs[id].suite = suite;
    jobs[id].seed = JobGrid::derive_seed(options.base_seed, id);
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// Helpers of the "instances x schedulers -> T/LB" grid suites.

/// Shares one immutable value per key between jobs: every job gets the
/// object the first one built, so the inputs do not depend on which job
/// ran first. Past 256 keys it starts over, bounding memory across huge
/// sweeps.
template <typename T>
class Memo {
 public:
  template <typename Build>
  std::shared_ptr<const T> get(const std::string& key, const Build& build) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    auto value = std::make_shared<const T>(build());
    cache_.emplace(key, value);
    if (cache_.size() > 256) cache_.clear();
    return value;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const T>> cache_;
};

const std::string& name_of(const std::string& name) { return name; }

template <typename T>
const std::string& name_of(const T& item) {
  return item.name;
}

/// Index of the item named `name`; throws std::invalid_argument
/// "<what> '<name>'" when there is none.
template <typename T>
std::size_t index_by_name(const std::vector<T>& items,
                          const std::string& name, const std::string& what) {
  for (std::size_t i = 0; i < items.size(); ++i)
    if (name_of(items[i]) == name) return i;
  throw std::invalid_argument(what + " '" + name + "'");
}

/// Runs registry scheduler `spec` on (g, P) and records the T/LB
/// metrics the grid suites report.
void record_measurement(JobRecord& rec, const graph::TaskGraph& g, int P,
                        const sched::SchedulerSpec& spec) {
  const auto m = analysis::measure_scheduler(g, P, spec);
  rec.set("makespan", m.makespan);
  rec.set("lower_bound", m.lower_bound);
  rec.set("ratio", m.ratio_vs_lb);
  rec.set("utilization", m.avg_utilization);
  rec.set("tasks", static_cast<double>(g.num_tasks()));
}

/// One row per registry scheduler with records: its T/LB summary and
/// mean utilization, plus a T/T_opt summary over the records whose
/// instance has a certified optimum in `t_opt_of`.
std::vector<analysis::AggregateRow> aggregate_rows(
    const std::vector<const JobRecord*>& records,
    const std::map<std::string, double>& t_opt_of = {}) {
  std::vector<analysis::AggregateRow> rows;
  for (const auto& name : sched::full_suite_names()) {
    std::vector<double> ratios;
    std::vector<double> true_ratios;
    util::Accumulator utilization;
    for (const auto* rec : records) {
      if (rec->spec.scheduler != name) continue;
      ratios.push_back(rec->metric("ratio").value_or(0.0));
      utilization.add(rec->metric("utilization").value_or(0.0));
      const auto it = t_opt_of.find(rec->spec.instance);
      if (it != t_opt_of.end())
        true_ratios.push_back(rec->metric("makespan").value_or(0.0) /
                              it->second);
    }
    if (ratios.empty()) continue;
    analysis::AggregateRow row;
    row.scheduler = name;
    row.ratio = util::summarize(ratios);
    row.mean_utilization = utilization.mean();
    if (!true_ratios.empty()) {
      row.true_ratio = util::summarize(true_ratios);
      row.has_true_ratio = true;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// table1 — numeric Table 1 derivation, measured adversary lower bounds,
// baselines on the adversarial instances.

const char* const kAdversaryPrefix = "adversary/";

struct AdversarySize {
  const char* label;
  int param;  // P for roofline/communication, K for amdahl/general
};

const std::vector<AdversarySize>& adversary_sizes(model::ModelKind kind) {
  static const std::vector<AdversarySize> roofline = {
      {"P=64", 64}, {"P=1024", 1024}, {"P=8192", 8192}};
  static const std::vector<AdversarySize> comm = {
      {"P=64", 64}, {"P=256", 256}, {"P=512", 512}};
  static const std::vector<AdversarySize> amdahl = {
      {"K=12 (P=144)", 12}, {"K=24 (P=576)", 24}, {"K=48 (P=2304)", 48}};
  switch (kind) {
    case model::ModelKind::kRoofline: return roofline;
    case model::ModelKind::kCommunication: return comm;
    default: return amdahl;  // amdahl and general share K sizes
  }
}

graph::AdversaryInstance build_adversary(model::ModelKind kind, int param,
                                         double mu) {
  switch (kind) {
    case model::ModelKind::kRoofline:
      return graph::roofline_adversary(param, mu);
    case model::ModelKind::kCommunication:
      return graph::communication_adversary(param, mu);
    case model::ModelKind::kAmdahl:
      return graph::amdahl_adversary(param, mu);
    case model::ModelKind::kGeneral:
      return graph::general_adversary(param, mu);
    case model::ModelKind::kArbitrary: break;
  }
  throw std::invalid_argument("build_adversary: arbitrary model");
}

std::vector<JobSpec> table1_jobs(const SuiteOptions& options) {
  std::vector<JobSpec> jobs;
  for (const auto kind : kAllModels) {
    JobSpec s;
    s.instance = "derive";
    s.scheduler = "analytic";
    s.model = kind;
    jobs.push_back(std::move(s));
  }
  for (const auto kind : kAllModels) {
    for (const auto& size : adversary_sizes(kind)) {
      JobSpec s;
      s.instance = std::string(kAdversaryPrefix) + size.label;
      s.scheduler = "lpa";
      s.model = kind;
      s.param = size.param;
      jobs.push_back(std::move(s));
    }
  }
  // Baselines on the worst-case instances, all parameterized at the
  // communication model's mu (as in the legacy bench).
  for (const auto kind :
       {model::ModelKind::kCommunication, model::ModelKind::kAmdahl}) {
    for (const auto& spec : sched::standard_suite(0.3)) {
      JobSpec s;
      s.instance = kind == model::ModelKind::kCommunication
                       ? "comm-adversary"
                       : "amdahl-adversary";
      s.scheduler = spec.name;
      s.model = kind;
      s.param = kind == model::ModelKind::kCommunication ? 256 : 24;
      jobs.push_back(std::move(s));
    }
  }
  return numbered(std::move(jobs), "table1", options);
}

void table1_run(const JobSpec& spec, JobRecord& rec,
                const CancelToken& token) {
  if (spec.instance == "derive") {
    const auto row = analysis::optimal_ratio(spec.model);
    rec.set("upper_bound", row.upper_bound);
    rec.set("lower_bound", row.lower_bound);
    rec.set("mu_star", row.mu_star);
    rec.set("x_star", row.x_star);
    return;
  }
  if (spec.instance.rfind(kAdversaryPrefix, 0) == 0) {
    const auto row = analysis::optimal_ratio(spec.model);
    const auto inst = build_adversary(spec.model, spec.param, row.mu_star);
    if (token.cancelled()) return mark_cancelled(rec);
    const core::LpaAllocator alloc(inst.mu);

    // When the run is being observed, watch this simulation: feed the
    // default registry and/or render it as its own process lane group
    // in the Chrome trace. Unobserved runs pass a null observer and
    // take the uninstrumented path through the scheduler.
    obs::TraceWriter* tracer = obs::global_tracer();
    std::unique_ptr<obs::MetricsObserver> metrics_obs;
    std::unique_ptr<obs::SimTraceObserver> trace_obs;
    std::vector<obs::Observer*> sinks;
    if (obs::metrics_collection_enabled()) {
      metrics_obs = std::make_unique<obs::MetricsObserver>(
          obs::default_registry());
      sinks.push_back(metrics_obs.get());
    }
    if (tracer != nullptr) {
      const int pid = tracer->new_process("sim " + spec.key());
      trace_obs =
          std::make_unique<obs::SimTraceObserver>(*tracer, pid, inst.P);
      sinks.push_back(trace_obs.get());
    }
    obs::FanoutObserver fanout(sinks);
    obs::Observer* observer = sinks.empty() ? nullptr : &fanout;

    const auto result = core::schedule_online(
        inst.graph, inst.P, alloc, core::QueuePolicy::kFifo, observer);
    rec.set("simulated_ratio", result.makespan / inst.t_opt_upper);
    rec.set("ratio_limit", inst.ratio_limit);
    rec.set("upper_bound", row.upper_bound);
    rec.set("P", static_cast<double>(inst.P));
    return;
  }
  // Baseline-on-adversary jobs.
  const double mu_c = analysis::optimal_mu(model::ModelKind::kCommunication);
  const double mu_own = analysis::optimal_mu(spec.model);
  const auto inst = build_adversary(spec.model, spec.param, mu_own);
  if (token.cancelled()) return mark_cancelled(rec);
  const auto sched_spec = sched::spec_by_name(spec.scheduler, mu_c);
  const auto result = sched_spec.run(inst.graph, inst.P);
  rec.set("ratio", result.makespan / inst.t_opt_upper);
}

std::vector<std::string> table1_finalize(
    const std::vector<const JobRecord*>& ok, const SuiteOptions& options) {
  Outputs out(options);

  // Part 1 — the derived Table 1 (byte-identical to the legacy CSV).
  std::vector<analysis::OptimalRatio> rows;
  for (const auto kind : kAllModels) {
    for (const auto* rec : ok) {
      if (rec->spec.instance != "derive" || rec->spec.model != kind) continue;
      analysis::OptimalRatio row;
      row.kind = kind;
      row.upper_bound = rec->metric("upper_bound").value_or(0.0);
      row.lower_bound = rec->metric("lower_bound").value_or(0.0);
      row.mu_star = rec->metric("mu_star").value_or(0.0);
      row.x_star = rec->metric("x_star").value_or(0.0);
      rows.push_back(row);
      break;
    }
  }
  if (rows.size() == kAllModels.size()) {
    const auto table = analysis::table1_table(rows);
    out.file("table1.csv", table.to_csv());
    if (options.human_out) {
      table.print(*options.human_out,
                  "Table 1 — competitive ratios of Algorithm 1 (numerically "
                  "derived)");
      *options.human_out << "paper reports: upper 2.62 / 3.61 / 4.74 / 5.72, "
                            "lower 2.61 / 3.51 / 4.73 / 5.25\n\n";
    }
  }

  // Part 2 — measured adversary lower bounds.
  util::Table adversaries({"Model", "instance size", "simulated T/T_alt",
                           "closed-form limit", "upper bound"});
  for (const auto* rec : ok) {
    if (rec->spec.instance.rfind(kAdversaryPrefix, 0) != 0) continue;
    adversaries.new_row()
        .cell(model::to_string(rec->spec.model))
        .cell(rec->spec.instance.substr(std::string(kAdversaryPrefix).size()))
        .cell(rec->metric("simulated_ratio").value_or(0.0), 3)
        .cell(rec->metric("ratio_limit").value_or(0.0), 3)
        .cell(rec->metric("upper_bound").value_or(0.0), 3);
  }
  if (adversaries.num_rows() > 0) {
    out.table("table1_adversary_ratios.csv", adversaries,
              "Table 1 lower bounds, measured on the Section 4.4 adversarial "
              "instances (ratio climbs toward the limit as size grows)");
  }

  // Part 3 — baselines on the adversarial instances (print only, as in
  // the legacy bench).
  if (options.human_out) {
    util::Table baselines({"scheduler", "comm adversary T/T_alt",
                           "amdahl adversary T/T_alt"});
    for (const auto& spec : sched::standard_suite(0.3)) {
      const JobRecord* comm = nullptr;
      const JobRecord* amd = nullptr;
      for (const auto* rec : ok) {
        if (rec->spec.scheduler != spec.name) continue;
        if (rec->spec.instance == "comm-adversary") comm = rec;
        if (rec->spec.instance == "amdahl-adversary") amd = rec;
      }
      if (!comm || !amd) continue;
      baselines.new_row()
          .cell(spec.name)
          .cell(comm->metric("ratio").value_or(0.0), 3)
          .cell(amd->metric("ratio").value_or(0.0), 3);
    }
    if (baselines.num_rows() > 0) {
      baselines.print(
          *options.human_out,
          "baseline schedulers on the adversarial instances (LPA's Table 1 "
          "guarantee holds by design; baselines have no such bound)");
      *options.human_out << '\n';
    }
  }
  return out.paths;
}

// ---------------------------------------------------------------------------
// random-dags — the practical-performance study over the random-DAG
// catalog, one job per (model, case, scheduler, repetition).

const std::vector<std::string>& random_dag_cases() {
  static const std::vector<std::string> cases = {
      "layered",   "erdos-renyi", "fork-join",       "out-tree", "in-tree",
      "series-parallel", "chain", "independent", "diamond"};
  return cases;
}

/// Catalogs are shared by every (scheduler, case) job of one
/// (model, repetition) pair, memoized under a deterministic key so the
/// graphs are identical no matter which job materializes them first.
std::shared_ptr<const std::vector<analysis::GraphCase>> dag_catalog(
    model::ModelKind kind, int P, int repeat, std::uint64_t base_seed) {
  static Memo<std::vector<analysis::GraphCase>> memo;
  const std::string key = model::to_string(kind) + "|" + std::to_string(P) +
                          "|" + std::to_string(repeat) + "|" +
                          std::to_string(base_seed);
  return memo.get(key, [&] {
    util::Rng rng(JobGrid::derive_seed(
        base_seed ^ 0xDA65u,
        kind_index(kind) * 1009 + static_cast<std::uint64_t>(repeat)));
    return analysis::random_graph_catalog(kind, P, rng);
  });
}

std::vector<JobSpec> random_dags_jobs(const SuiteOptions& options) {
  JobGrid grid;
  grid.suite = "random-dags";
  grid.instances = random_dag_cases();
  grid.schedulers = sched::full_suite_names();
  grid.models = kAllModels;
  grid.procs = {32};
  grid.repeats = effective_repeats(options, 3);
  grid.base_seed = options.base_seed;
  return grid.jobs();
}

JobRunner random_dags_runner(const SuiteOptions& options) {
  const std::uint64_t base_seed = options.base_seed;
  return job_runner([base_seed](const JobSpec& spec, JobRecord& rec,
                                const CancelToken& token) {
    const auto catalog =
        dag_catalog(spec.model, spec.P, spec.repeat, base_seed);
    const auto& gc = (*catalog)[index_by_name(*catalog, spec.instance,
                                              "random-dags: unknown case")];
    if (token.cancelled()) return mark_cancelled(rec);
    const double mu = analysis::optimal_mu(spec.model);
    record_measurement(rec, gc.graph, spec.P,
                       sched::spec_by_name(spec.scheduler, mu));
  });
}

std::vector<std::string> random_dags_finalize(
    const std::vector<const JobRecord*>& ok, const SuiteOptions& options) {
  Outputs out(options);
  for (const auto kind : kAllModels) {
    std::vector<const JobRecord*> of_kind;
    for (const auto* rec : ok)
      if (rec->spec.model == kind) of_kind.push_back(rec);
    const auto rows = aggregate_rows(of_kind);
    if (rows.empty()) continue;
    out.table("random_dags_" + model::to_string(kind) + ".csv",
              analysis::suite_table(rows),
              "model = " + model::to_string(kind) +
                  ", P = 32 (ratio = makespan / Lemma-2 LB; theorem "
                  "bound = " +
                  util::format_double(
                      analysis::optimal_ratio(kind).upper_bound, 2) +
                  ")");
  }
  return out.paths;
}

// ---------------------------------------------------------------------------
// workflows — realistic workflow study: online LPA vs offline tradeoff,
// level-by-level and fluid malleable references.

const std::vector<std::string>& workflow_cases() {
  static const std::vector<std::string> cases = {"cholesky", "lu", "fft",
                                                 "montage", "wavefront"};
  return cases;
}

const std::vector<std::string>& workflow_schedulers() {
  static const std::vector<std::string> names = {"lpa", "offline", "level-lpa",
                                                 "malleable-fluid"};
  return names;
}

std::shared_ptr<const std::vector<analysis::GraphCase>> workflow_catalog(
    model::ModelKind kind) {
  static Memo<std::vector<analysis::GraphCase>> memo;
  return memo.get(model::to_string(kind),
                  [kind] { return analysis::workflow_catalog(kind, 2); });
}

std::vector<JobSpec> workflows_jobs(const SuiteOptions& options) {
  JobGrid grid;
  grid.suite = "workflows";
  grid.instances = workflow_cases();
  grid.schedulers = workflow_schedulers();
  grid.models = kAllModels;
  grid.procs = {48};
  grid.repeats = 1;  // fully deterministic; repetition adds nothing
  grid.base_seed = options.base_seed;
  return grid.jobs();
}

void workflows_run(const JobSpec& spec, JobRecord& rec, const CancelToken&) {
  const auto catalog = workflow_catalog(spec.model);
  const auto& gc = (*catalog)[index_by_name(*catalog, spec.instance,
                                            "workflows: unknown case")];
  const int P = spec.P;
  const double mu = analysis::optimal_mu(spec.model);
  double makespan = 0.0;
  if (spec.scheduler == "lpa") {
    const core::LpaAllocator lpa(mu);
    const core::CachingAllocator cached(lpa, core::DecisionCache::process_wide());
    makespan = core::schedule_online(gc.graph, P, cached).makespan;
  } else if (spec.scheduler == "offline") {
    makespan = sched::OfflineTradeoffScheduler(gc.graph, P).run().makespan;
  } else if (spec.scheduler == "level-lpa") {
    const core::LpaAllocator lpa(mu);
    const core::CachingAllocator cached(lpa, core::DecisionCache::process_wide());
    makespan = sched::schedule_level_by_level(gc.graph, P, cached).makespan;
  } else if (spec.scheduler == "malleable-fluid") {
    makespan = sched::schedule_malleable_fluid(gc.graph, P).makespan;
  } else {
    throw std::invalid_argument("workflows: unknown scheduler '" +
                                spec.scheduler + "'");
  }
  rec.set("makespan", makespan);
  rec.set("lower_bound", analysis::optimal_makespan_lower_bound(gc.graph, P));
  rec.set("tasks", static_cast<double>(gc.graph.num_tasks()));
}

std::vector<std::string> workflows_finalize(
    const std::vector<const JobRecord*>& ok, const SuiteOptions& options) {
  Outputs out(options);
  for (const auto kind : kAllModels) {
    util::Table t({"workflow", "tasks", "LB (Lemma 2)", "online T",
                   "offline T", "level T", "malleable T", "T/LB",
                   "T/malleable"});
    for (const auto& case_name : workflow_cases()) {
      std::map<std::string, const JobRecord*> by_sched;
      for (const auto* rec : ok)
        if (rec->spec.model == kind && rec->spec.instance == case_name)
          by_sched[rec->spec.scheduler] = rec;
      if (by_sched.size() < workflow_schedulers().size()) continue;
      const double online = by_sched["lpa"]->metric("makespan").value_or(0.0);
      const double fluid =
          by_sched["malleable-fluid"]->metric("makespan").value_or(0.0);
      const double lb = by_sched["lpa"]->metric("lower_bound").value_or(0.0);
      t.new_row()
          .cell(case_name)
          .cell(static_cast<long>(
              by_sched["lpa"]->metric("tasks").value_or(0.0)))
          .cell(lb, 2)
          .cell(online, 2)
          .cell(by_sched["offline"]->metric("makespan").value_or(0.0), 2)
          .cell(by_sched["level-lpa"]->metric("makespan").value_or(0.0), 2)
          .cell(fluid, 2)
          .cell(online / lb, 3)
          .cell(online / fluid, 3);
    }
    if (t.num_rows() == 0) continue;
    out.table("workflows_" + model::to_string(kind) + ".csv", t,
              "model = " + model::to_string(kind) + ", P = 48 (theorem "
              "bound = " +
                  util::format_double(
                      analysis::optimal_ratio(kind).upper_bound, 2) +
                  ")");
  }
  return out.paths;
}

// ---------------------------------------------------------------------------
// ratio-curves — per-model optimum plus the dense mu-sweep CSV.

std::vector<JobSpec> ratio_curves_jobs(const SuiteOptions& options) {
  JobGrid grid;
  grid.suite = "ratio-curves";
  grid.instances = {"curve"};
  grid.schedulers = {"analytic"};
  grid.models = kAllModels;
  grid.base_seed = options.base_seed;
  return grid.jobs();
}

void ratio_curves_run(const JobSpec& spec, JobRecord& rec,
                      const CancelToken&) {
  const auto row = analysis::optimal_ratio(spec.model);
  rec.set("mu_star", row.mu_star);
  rec.set("upper_bound", row.upper_bound);
  rec.set("lower_bound", row.lower_bound);
}

std::vector<std::string> ratio_curves_finalize(
    const std::vector<const JobRecord*>& ok, const SuiteOptions& options) {
  Outputs out(options);
  if (ok.empty()) return out.paths;
  const std::string path =
      out.file("ratio_curves.csv", analysis::ratio_curves_csv(400));
  if (options.human_out) {
    *options.human_out << "dense ratio-vs-mu curves (400 samples) written to "
                       << path << "\n\n";
  }
  return out.paths;
}

// ---------------------------------------------------------------------------
// resilience — re-execution under Bernoulli / Poisson failures.

const std::vector<double>& resilience_intensities() {
  static const std::vector<double> xs = {0.0, 0.1, 0.2, 0.4, 0.6};
  return xs;
}

std::string intensity_label(const std::string& family, double intensity) {
  std::ostringstream os;
  os << family << '@' << intensity;
  return os.str();
}

double parse_intensity(const std::string& instance) {
  const auto at = instance.find('@');
  if (at == std::string::npos)
    throw std::invalid_argument("resilience: malformed instance '" + instance +
                                "'");
  return std::strtod(instance.c_str() + at + 1, nullptr);
}

std::vector<JobSpec> resilience_jobs(const SuiteOptions& options) {
  JobGrid grid;
  grid.suite = "resilience";
  for (const char* family : {"bernoulli", "poisson"})
    for (const double x : resilience_intensities())
      grid.instances.push_back(intensity_label(family, x));
  grid.schedulers = {"lpa", "min-time"};
  grid.models = {model::ModelKind::kCommunication};
  grid.procs = {32};
  grid.repeats = effective_repeats(options, 5);
  grid.base_seed = options.base_seed;
  return grid.jobs();
}

std::shared_ptr<const graph::TaskGraph> resilience_workload(int P) {
  static Memo<graph::TaskGraph> memo;
  return memo.get(std::to_string(P), [P] {
    util::Rng rng(77);
    const model::ModelSampler sampler(model::ModelKind::kCommunication);
    return graph::layered_random(8, 3, 10, 0.3, rng,
                                 graph::sampling_provider(sampler, rng, P));
  });
}

void resilience_run(const JobSpec& spec, JobRecord& rec, const CancelToken&) {
  const auto workload = resilience_workload(spec.P);
  const auto& g = *workload;
  const double intensity = parse_intensity(spec.instance);
  resilience::FailureModelPtr failures;
  if (spec.instance.rfind("poisson", 0) == 0)
    failures =
        std::make_shared<resilience::PoissonAreaFailures>(intensity * 0.002);
  else
    failures = std::make_shared<resilience::BernoulliFailures>(intensity);

  const double mu = analysis::optimal_mu(model::ModelKind::kCommunication);
  const core::LpaAllocator lpa(mu);
  const sched::MinTimeAllocator greedy;
  const core::Allocator& alloc =
      spec.scheduler == "lpa" ? static_cast<const core::Allocator&>(lpa)
                              : greedy;
  const auto result =
      resilience::ResilientOnlineScheduler(g, spec.P, alloc, failures,
                                           spec.seed)
          .run();
  double total_attempts = 0.0;
  for (const int a : result.attempts_per_task)
    total_attempts += static_cast<double>(a);
  rec.set("makespan", result.makespan);
  rec.set("attempts_per_task",
          total_attempts / static_cast<double>(g.num_tasks()));
  rec.set("waste_fraction", result.wasted_area / result.total_area);
  rec.set("intensity", intensity);
}

std::vector<std::string> resilience_finalize(
    const std::vector<const JobRecord*>& ok, const SuiteOptions& options) {
  Outputs out(options);
  util::Table csv({"failure_model", "intensity", "scheduler",
                   "mean makespan", "mean attempts/task", "mean waste"});
  for (const char* family : {"bernoulli", "poisson"}) {
    util::Table t({"intensity", "lpa makespan", "lpa attempts/task",
                   "lpa waste", "min-time makespan",
                   "min-time attempts/task", "min-time waste"});
    for (const double intensity : resilience_intensities()) {
      const std::string label = intensity_label(family, intensity);
      std::map<std::string, std::array<util::Accumulator, 3>> by_sched;
      for (const auto* rec : ok) {
        if (rec->spec.instance != label) continue;
        auto& acc = by_sched[rec->spec.scheduler];
        acc[0].add(rec->metric("makespan").value_or(0.0));
        acc[1].add(rec->metric("attempts_per_task").value_or(0.0));
        acc[2].add(rec->metric("waste_fraction").value_or(0.0));
      }
      if (by_sched.count("lpa") == 0 || by_sched.count("min-time") == 0)
        continue;
      auto& l = by_sched["lpa"];
      auto& m = by_sched["min-time"];
      t.new_row()
          .cell(intensity, 3)
          .cell(l[0].mean(), 2)
          .cell(l[1].mean(), 3)
          .cell(l[2].mean(), 3)
          .cell(m[0].mean(), 2)
          .cell(m[1].mean(), 3)
          .cell(m[2].mean(), 3);
      for (const char* sched_name : {"lpa", "min-time"}) {
        auto& acc = by_sched[sched_name];
        csv.new_row()
            .cell(family)
            .cell(intensity, 3)
            .cell(sched_name)
            .cell(acc[0].mean(), 4)
            .cell(acc[1].mean(), 4)
            .cell(acc[2].mean(), 4);
      }
    }
    if (options.human_out && t.num_rows() > 0) {
      t.print(*options.human_out,
              std::string(family) +
                  " failures, model = communication, P = 32 (means over "
                  "failure seeds)");
      *options.human_out << '\n';
    }
  }
  if (csv.num_rows() > 0) out.file("resilience.csv", csv.to_csv());
  return out.paths;
}

// ---------------------------------------------------------------------------
// release — independent tasks released over time.

const std::vector<double>& release_rates() {
  static const std::vector<double> xs = {0.0, 0.05, 0.2, 1.0};
  return xs;
}

std::vector<JobSpec> release_jobs(const SuiteOptions& options) {
  JobGrid grid;
  grid.suite = "release";
  for (const double rate : release_rates())
    grid.instances.push_back(intensity_label("rate", rate));
  grid.schedulers = {"lpa", "min-time", "sequential"};
  grid.models = kAllModels;
  grid.procs = {32};
  grid.repeats = effective_repeats(options, 3);
  grid.base_seed = options.base_seed;
  return grid.jobs();
}

JobRunner release_runner(const SuiteOptions& options) {
  const std::uint64_t base_seed = options.base_seed;
  return job_runner([base_seed](const JobSpec& spec, JobRecord& rec,
                                const CancelToken& token) {
    const int n = 150;
    const double rate = parse_intensity(spec.instance);
    // Arrival streams are shared by the three schedulers of one
    // (model, rate, repetition) point so their ratios are comparable —
    // the seed therefore omits the scheduler axis.
    const std::uint64_t arrival_seed = JobGrid::derive_seed(
        base_seed ^ fnv1a(spec.instance),
        kind_index(spec.model) * 131 + static_cast<std::uint64_t>(spec.repeat));
    util::Rng rng(arrival_seed);
    const model::ModelSampler sampler(spec.model);
    std::vector<sched::ReleasedTask> tasks;
    tasks.reserve(static_cast<std::size_t>(n));
    double t = 0.0;
    for (int i = 0; i < n; ++i) {
      if (rate > 0.0) t += rng.exponential(rate);
      tasks.push_back({sampler.sample(rng, spec.P), t, "t" + std::to_string(i)});
    }
    if (token.cancelled()) return mark_cancelled(rec);

    const double mu = analysis::optimal_mu(spec.model);
    const core::LpaAllocator lpa(mu);
    const sched::MinTimeAllocator greedy;
    const sched::SequentialAllocator sequential;
    const core::Allocator* alloc = nullptr;
    if (spec.scheduler == "lpa") alloc = &lpa;
    else if (spec.scheduler == "min-time") alloc = &greedy;
    else if (spec.scheduler == "sequential") alloc = &sequential;
    else
      throw std::invalid_argument("release: unknown scheduler '" +
                                  spec.scheduler + "'");

    const double lb = sched::release_makespan_lower_bound(tasks, spec.P);
    const double makespan =
        sched::OnlineReleaseScheduler(tasks, spec.P, *alloc).run().makespan;
    rec.set("lower_bound", lb);
    rec.set("makespan", makespan);
    rec.set("ratio", makespan / lb);
  });
}

std::vector<std::string> release_finalize(
    const std::vector<const JobRecord*>& ok, const SuiteOptions& options) {
  Outputs out(options);
  util::Table csv(
      {"model", "arrival_rate", "scheduler", "lb_mean", "ratio_mean"});
  for (const auto kind : kAllModels) {
    util::Table t({"arrival rate", "LB", "lpa T/LB", "min-time T/LB",
                   "sequential T/LB"});
    for (const double rate : release_rates()) {
      const std::string label = intensity_label("rate", rate);
      std::map<std::string, std::pair<util::Accumulator, util::Accumulator>>
          by_sched;  // scheduler -> (lb, ratio)
      for (const auto* rec : ok) {
        if (rec->spec.model != kind || rec->spec.instance != label) continue;
        auto& acc = by_sched[rec->spec.scheduler];
        acc.first.add(rec->metric("lower_bound").value_or(0.0));
        acc.second.add(rec->metric("ratio").value_or(0.0));
      }
      if (by_sched.size() < 3) continue;
      t.new_row()
          .cell(rate, 2)
          .cell(by_sched["lpa"].first.mean(), 1)
          .cell(by_sched["lpa"].second.mean(), 3)
          .cell(by_sched["min-time"].second.mean(), 3)
          .cell(by_sched["sequential"].second.mean(), 3);
      for (const auto& [name, acc] : by_sched) {
        csv.new_row()
            .cell(model::to_string(kind))
            .cell(rate, 3)
            .cell(name)
            .cell(acc.first.mean(), 4)
            .cell(acc.second.mean(), 4);
      }
    }
    if (options.human_out && t.num_rows() > 0) {
      t.print(*options.human_out,
              "model = " + model::to_string(kind) +
                  ", n = 150, P = 32 (rate 0 = all released at t=0; Ye et "
                  "al. worst case 16.74)");
      *options.human_out << '\n';
    }
  }
  if (csv.num_rows() > 0) out.file("release.csv", csv.to_csv());
  return out.paths;
}

// ---------------------------------------------------------------------------
// selfcheck — differential verification of the hot-path optimizations:
// every corpus instance must schedule byte-identically with the decision
// cache off, cold, and warm, and never beat the Lemma 2 bound. Failures
// carry a shrunken minimal repro in the error field.

std::vector<JobSpec> selfcheck_jobs(const SuiteOptions& options) {
  JobGrid grid;
  grid.suite = "selfcheck";
  grid.instances = check::corpus_families();
  grid.schedulers = {"differential"};
  grid.models = check::corpus_model_kinds();
  grid.repeats = effective_repeats(options, 6);
  grid.base_seed = options.base_seed;
  return grid.jobs();
}

void selfcheck_run(const JobSpec& spec, JobRecord& rec,
                   const CancelToken& token) {
  const int family = static_cast<int>(index_by_name(
      check::corpus_families(), spec.instance, "selfcheck: unknown family"));

  util::Rng rng(spec.seed);
  // Mirror check::corpus_instance's platform draw: the slice above 100
  // collapses to the degenerate P = 1 unit platform so the serial path
  // stays under differential fuzzing too.
  const auto p_raw = rng.uniform_int(1, 107);
  const int P = p_raw > 100 ? 1 : static_cast<int>(p_raw);
  const double mu = rng.uniform(0.05, 0.38);
  static const std::vector<core::QueuePolicy> policies = {
      core::QueuePolicy::kFifo, core::QueuePolicy::kLifo,
      core::QueuePolicy::kLargestWorkFirst,
      core::QueuePolicy::kLongestMinTimeFirst,
      core::QueuePolicy::kSmallestAllocFirst};
  const auto policy =
      policies[static_cast<std::size_t>(rng.uniform_int(0, 4))];
  const auto g = check::corpus_graph(family, spec.model, rng, P);
  if (token.cancelled()) return mark_cancelled(rec);

  // Both online families go through the same differential harness: the
  // reference allocator, a cold cache, and a warm cache must produce
  // byte-identical schedules, validator-clean and above the Lemma 2
  // bound. The improved allocator shares one instance across all jobs —
  // its parameter set is a process-wide constant.
  const core::LpaAllocator lpa(mu);
  static const sched::ImprovedLpaAllocator improved;
  check::DifferentialReport lpa_report;
  const core::Allocator* const allocators[] = {&lpa, &improved};
  for (const core::Allocator* alloc : allocators) {
    const auto report = check::differential_check(g, P, *alloc, policy);
    if (alloc == &lpa) lpa_report = report;
    if (report.ok()) continue;
    // Reduce before reporting: the error field carries a minimal repro.
    const auto still_fails = [&](const graph::TaskGraph& candidate) {
      try {
        return !check::differential_check(candidate, P, *alloc, policy).ok();
      } catch (...) {
        return true;  // a crash is also a failure worth minimizing
      }
    };
    std::string repro;
    try {
      const auto shrunk = check::shrink_instance(g, still_fails);
      repro = check::describe_instance(shrunk.graph, P, mu, spec.key());
    } catch (const std::exception& e) {
      repro = std::string("(shrink failed: ") + e.what() + ")";
    }
    rec.status = "error";
    rec.error = alloc->name() + ": " + report.to_string() + "\n" + repro;
    return;
  }
  // The wire path must be equally indistinguishable: graph codec round
  // trip plus a streamed svc::Session, against the same instance. (Runs
  // after all RNG draws, so the corpus stream stays aligned with the
  // gtest fuzzer's.)
  const auto wire_report = check::wire_roundtrip_check(g, P, "lpa", mu, policy);
  if (!wire_report.ok()) {
    rec.status = "error";
    rec.error = "wire: " + wire_report.to_string();
    return;
  }

  rec.set("mismatches", 0.0);
  rec.set("wire_relabeled", wire_report.relabeled ? 1.0 : 0.0);
  rec.set("makespan", lpa_report.makespan);
  rec.set("lower_bound", lpa_report.lower_bound);
  rec.set("cache_hits", static_cast<double>(lpa_report.cache_hits));
  rec.set("cache_misses", static_cast<double>(lpa_report.cache_misses));
  rec.set("tasks", static_cast<double>(g.num_tasks()));
}

std::vector<std::string> selfcheck_finalize(
    const std::vector<const JobRecord*>& ok, const SuiteOptions& options) {
  Outputs out(options);
  util::Table t({"model", "instances", "tasks", "cache_hits", "cache_misses",
                 "warm_hit_rate"});
  for (const auto kind : check::corpus_model_kinds()) {
    long long count = 0;
    double tasks = 0.0, hits = 0.0, misses = 0.0;
    for (const auto* rec : ok) {
      if (rec->spec.model != kind) continue;
      ++count;
      tasks += rec->metric("tasks").value_or(0.0);
      hits += rec->metric("cache_hits").value_or(0.0);
      misses += rec->metric("cache_misses").value_or(0.0);
    }
    if (count == 0) continue;
    const double total = hits + misses;
    t.new_row()
        .cell(model::to_string(kind))
        .cell(count)
        .cell(tasks, 0)
        .cell(hits, 0)
        .cell(misses, 0)
        .cell(total > 0.0 ? hits / total : 0.0, 3);
  }
  if (t.num_rows() > 0) {
    out.table("selfcheck.csv", t,
              "selfcheck: cache off/cold/warm schedules byte-identical on "
              "every instance (errors above would carry minimal repros)");
  }
  return out.paths;
}

// ---------------------------------------------------------------------------
// improved — head-to-head study of the per-model-aware improved family
// against LPA: the side-by-side constants table, both schedulers on the
// Figure 1-4 adversary instances, and both over the shared check corpus.

const char* const kCorpusPrefix = "corpus/";

const std::vector<std::string>& improved_schedulers() {
  static const std::vector<std::string> names = {"lpa", "improved-lpa"};
  return names;
}

std::vector<JobSpec> improved_jobs(const SuiteOptions& options) {
  std::vector<JobSpec> jobs;
  for (const auto kind : kAllModels) {
    JobSpec s;
    s.instance = "derive";
    s.scheduler = "analytic";
    s.model = kind;
    jobs.push_back(std::move(s));
  }
  for (const auto kind : kAllModels) {
    for (const auto& size : adversary_sizes(kind)) {
      for (const auto& scheduler : improved_schedulers()) {
        JobSpec s;
        s.instance = std::string(kAdversaryPrefix) + size.label;
        s.scheduler = scheduler;
        s.model = kind;
        s.param = size.param;
        jobs.push_back(std::move(s));
      }
    }
  }
  const int repeats = effective_repeats(options, 2);
  for (const auto kind : check::corpus_model_kinds()) {
    for (const auto& family : check::corpus_families()) {
      for (int rep = 0; rep < repeats; ++rep) {
        for (const auto& scheduler : improved_schedulers()) {
          JobSpec s;
          s.instance = std::string(kCorpusPrefix) + family;
          s.scheduler = scheduler;
          s.model = kind;
          s.repeat = rep;
          jobs.push_back(std::move(s));
        }
      }
    }
  }
  return numbered(std::move(jobs), "improved", options);
}

/// mu for the plain-LPA arm: the kind's own optimum where one exists,
/// the general-model optimum for kArbitrary (the only analytic fallback,
/// as in the mixed-family property tests).
double lpa_mu_for(model::ModelKind kind) {
  return analysis::optimal_mu(kind == model::ModelKind::kArbitrary
                                  ? model::ModelKind::kGeneral
                                  : kind);
}

JobRunner improved_runner(const SuiteOptions& options) {
  const std::uint64_t base_seed = options.base_seed;
  return job_runner([base_seed](const JobSpec& spec, JobRecord& rec,
                                const CancelToken& token) {
    if (spec.instance == "derive") {
      const auto coupled = analysis::optimal_ratio(spec.model);
      const auto refined = analysis::improved_optimal_ratio(spec.model);
      rec.set("lpa_upper_bound", coupled.upper_bound);
      rec.set("lpa_mu_star", coupled.mu_star);
      rec.set("improved_upper_bound", refined.upper_bound);
      rec.set("improved_mu_star", refined.mu_star);
      rec.set("improved_nu_star", refined.nu_star);
      rec.set("improved_threshold", refined.threshold);
      rec.set("improved_alpha", refined.alpha_star);
      return;
    }
    if (spec.instance.rfind(kAdversaryPrefix, 0) == 0) {
      const auto coupled = analysis::optimal_ratio(spec.model);
      const auto inst = build_adversary(spec.model, spec.param,
                                        coupled.mu_star);
      if (token.cancelled()) return mark_cancelled(rec);
      double makespan = 0.0;
      double bound = 0.0;
      if (spec.scheduler == "improved-lpa") {
        static const sched::ImprovedLpaAllocator improved;
        makespan = core::schedule_online(inst.graph, inst.P, improved).makespan;
        bound = analysis::improved_optimal_ratio(spec.model).upper_bound;
      } else {
        const core::LpaAllocator lpa(inst.mu);
        makespan = core::schedule_online(inst.graph, inst.P, lpa).makespan;
        bound = coupled.upper_bound;
      }
      rec.set("simulated_ratio", makespan / inst.t_opt_upper);
      rec.set("ratio_limit", inst.ratio_limit);
      rec.set("upper_bound", bound);
      rec.set("P", static_cast<double>(inst.P));
      return;
    }
    if (spec.instance.rfind(kCorpusPrefix, 0) != 0)
      throw std::invalid_argument("improved: unknown instance '" +
                                  spec.instance + "'");
    const int family = static_cast<int>(index_by_name(
        check::corpus_families(),
        spec.instance.substr(std::string(kCorpusPrefix).size()),
        "improved: unknown corpus family"));
    // Both schedulers of one (kind, family, repetition) point must see
    // the same graph, so the instance seed omits the scheduler axis.
    const std::uint64_t kind_tag =
        spec.model == model::ModelKind::kArbitrary
            ? 4
            : static_cast<std::uint64_t>(kind_index(spec.model));
    const std::uint64_t instance_seed = JobGrid::derive_seed(
        base_seed ^ fnv1a(spec.instance),
        kind_tag * 271 + static_cast<std::uint64_t>(spec.repeat));
    util::Rng rng(instance_seed);
    const auto p_raw = rng.uniform_int(1, 107);
    const int P = p_raw > 100 ? 1 : static_cast<int>(p_raw);
    const auto g = check::corpus_graph(family, spec.model, rng, P);
    if (token.cancelled()) return mark_cancelled(rec);

    const auto sched_spec = spec.scheduler == "improved-lpa"
                                ? sched::improved_lpa_spec()
                                : sched::lpa_spec(lpa_mu_for(spec.model));
    const auto m = analysis::measure_scheduler(g, P, sched_spec);
    rec.set("makespan", m.makespan);
    rec.set("lower_bound", m.lower_bound);
    rec.set("ratio", m.ratio_vs_lb);
    rec.set("tasks", static_cast<double>(g.num_tasks()));
    if (spec.model != model::ModelKind::kArbitrary &&
        spec.scheduler == "improved-lpa") {
      rec.set("envelope",
              analysis::improved_optimal_ratio(spec.model).upper_bound);
    }
  });
}

std::vector<std::string> improved_finalize(
    const std::vector<const JobRecord*>& ok, const SuiteOptions& options) {
  Outputs out(options);

  // Part 1 — Table-1-style side-by-side constants.
  util::Table side({"Model", "LPA mu*", "LPA bound", "improved mu*",
                    "improved nu*", "threshold", "improved bound"});
  for (const auto kind : kAllModels) {
    for (const auto* rec : ok) {
      if (rec->spec.instance != "derive" || rec->spec.model != kind) continue;
      side.new_row()
          .cell(model::to_string(kind))
          .cell(rec->metric("lpa_mu_star").value_or(0.0), 3)
          .cell(rec->metric("lpa_upper_bound").value_or(0.0), 3)
          .cell(rec->metric("improved_mu_star").value_or(0.0), 3)
          .cell(rec->metric("improved_nu_star").value_or(0.0), 3)
          .cell(rec->metric("improved_threshold").value_or(0.0), 3)
          .cell(rec->metric("improved_upper_bound").value_or(0.0), 3);
      break;
    }
  }
  if (side.num_rows() > 0) {
    out.table("improved_table1.csv", side,
              "Improved vs LPA — per-model constants (decoupled "
              "(mu, nu) program, numerically re-derived)");
  }

  // Part 2 — both families on the Figure 1-4 adversary instances.
  util::Table adv({"Model", "instance size", "lpa T/T_alt", "lpa bound",
                   "improved T/T_alt", "improved bound"});
  for (const auto kind : kAllModels) {
    for (const auto& size : adversary_sizes(kind)) {
      const std::string inst = std::string(kAdversaryPrefix) + size.label;
      const JobRecord* lpa = nullptr;
      const JobRecord* imp = nullptr;
      for (const auto* rec : ok) {
        if (rec->spec.model != kind || rec->spec.instance != inst) continue;
        if (rec->spec.scheduler == "lpa") lpa = rec;
        if (rec->spec.scheduler == "improved-lpa") imp = rec;
      }
      if (!lpa || !imp) continue;
      adv.new_row()
          .cell(model::to_string(kind))
          .cell(size.label)
          .cell(lpa->metric("simulated_ratio").value_or(0.0), 3)
          .cell(lpa->metric("upper_bound").value_or(0.0), 3)
          .cell(imp->metric("simulated_ratio").value_or(0.0), 3)
          .cell(imp->metric("upper_bound").value_or(0.0), 3);
    }
  }
  if (adv.num_rows() > 0) {
    out.table("improved_adversary.csv", adv,
              "Section 4.4 adversarial instances, both algorithm families "
              "(each simulated ratio must stay below its own bound)");
  }

  // Part 3 — mean corpus ratios, per model kind.
  util::Table corpus({"model", "instances", "lpa mean T/LB",
                      "improved mean T/LB", "improved envelope"});
  for (const auto kind : check::corpus_model_kinds()) {
    util::Accumulator lpa_ratio;
    util::Accumulator imp_ratio;
    double envelope = 0.0;
    for (const auto* rec : ok) {
      if (rec->spec.model != kind ||
          rec->spec.instance.rfind(kCorpusPrefix, 0) != 0)
        continue;
      if (rec->spec.scheduler == "lpa")
        lpa_ratio.add(rec->metric("ratio").value_or(0.0));
      else
        imp_ratio.add(rec->metric("ratio").value_or(0.0));
      envelope = std::max(envelope, rec->metric("envelope").value_or(0.0));
    }
    if (lpa_ratio.count() == 0 && imp_ratio.count() == 0) continue;
    corpus.new_row()
        .cell(model::to_string(kind))
        .cell(static_cast<long>(imp_ratio.count()))
        .cell(lpa_ratio.mean(), 3)
        .cell(imp_ratio.mean(), 3)
        .cell(envelope, 3);
  }
  if (corpus.num_rows() > 0) {
    out.table("improved_corpus.csv", corpus,
              "shared check corpus, mean makespan / Lemma-2 LB "
              "(arbitrary kind has no constant envelope)");
  }
  return out.paths;
}

// ---------------------------------------------------------------------------
// pisa — pairwise adversarial tournament: for every ordered pair of the
// standard suite, anneal the perturbation grammar for the instance that
// maximizes makespan(target)/makespan(reference), score it against the
// fixed Figure 1-4 construction, shrink and archive the worst instance.

const char* const kVsPrefix = "vs/";

std::vector<JobSpec> pisa_jobs(const SuiteOptions& options) {
  // A previous (aborted or bench-mode) run may have left archived lines
  // behind; a fresh job list starts from an empty buffer.
  (void)adv::archive_buffer_drain();
  const auto names = adv::tournament_scheduler_names();
  std::vector<JobSpec> jobs;
  for (const auto& target : names) {
    for (const auto& reference : names) {
      if (target == reference) continue;
      JobSpec s;
      s.instance = kVsPrefix + reference;
      s.scheduler = target;
      s.model = model::ModelKind::kGeneral;
      jobs.push_back(std::move(s));
    }
  }
  return numbered(std::move(jobs), "pisa", options);
}

JobRunner pisa_runner(const SuiteOptions& options) {
  // --repeats scales search depth: each repeat adds another annealing
  // restart (and its iteration budget) to every pair.
  const int restarts = 2 * effective_repeats(options, 1);
  return job_runner([restarts](const JobSpec& spec, JobRecord& rec,
                               const CancelToken& token) {
    const std::string reference =
        spec.instance.substr(std::string(kVsPrefix).size());

    adv::TournamentOptions opt;
    opt.seed = spec.seed;
    opt.iterations = 40;
    opt.restarts = restarts;
    opt.token = token;
    const auto pair = adv::run_pair(spec.scheduler, reference, opt);

    rec.set("fixed_ratio", pair.fixed_ratio);
    rec.set("best_ratio", pair.best_ratio);
    rec.set("improved", pair.improved ? 1.0 : 0.0);
    rec.set("validated", pair.validated ? 1.0 : 0.0);
    rec.set("evals", static_cast<double>(pair.evals));
    rec.set("accepts", static_cast<double>(pair.accepts));
    rec.set("tasks", static_cast<double>(pair.record.graph.num_tasks()));
    rec.set("P", static_cast<double>(pair.record.P));
    adv::archive_buffer_put(static_cast<int>(spec.job_id),
                            adv::encode_record(pair.record));
  });
}

std::vector<std::string> pisa_finalize(const std::vector<const JobRecord*>& ok,
                                       const SuiteOptions& options) {
  Outputs out(options);

  // The runners parked each pair's worst instance in the archive buffer
  // (JobRecord carries only numeric metrics); drain it — sorted by job
  // id, so the file layout is independent of execution order — and
  // rebuild the PairResults the reporting helpers want.
  const auto lines = adv::archive_buffer_drain();
  std::map<std::pair<std::string, std::string>, adv::ReproRecord> worst;
  std::string archive_text;
  for (const auto& line : lines) {
    auto repro = adv::decode_record(line);
    archive_text += line;
    archive_text += '\n';
    worst.emplace(std::make_pair(repro.target, repro.reference),
                  std::move(repro));
  }

  std::vector<adv::PairResult> pairs;
  for (const auto* rec : ok) {
    if (rec->spec.instance.rfind(kVsPrefix, 0) != 0) continue;
    adv::PairResult pr;
    pr.target = rec->spec.scheduler;
    pr.reference = rec->spec.instance.substr(std::string(kVsPrefix).size());
    pr.fixed_ratio = rec->metric("fixed_ratio").value_or(0.0);
    pr.best_ratio = rec->metric("best_ratio").value_or(0.0);
    pr.improved = rec->metric("improved").value_or(0.0) > 0.5;
    pr.validated = rec->metric("validated").value_or(0.0) > 0.5;
    pr.evals =
        static_cast<std::uint64_t>(rec->metric("evals").value_or(0.0));
    pr.accepts =
        static_cast<std::uint64_t>(rec->metric("accepts").value_or(0.0));
    const auto it = worst.find({pr.target, pr.reference});
    if (it != worst.end()) pr.record = it->second;
    pairs.push_back(std::move(pr));
  }
  if (pairs.empty()) return out.paths;

  adv::TournamentOptions shown;  // defaults the runner used, for the report
  shown.seed = options.base_seed;
  shown.restarts = 2 * effective_repeats(options, 1);
  shown.iterations = 40;

  out.file("pisa_dominance.csv", adv::dominance_matrix_csv(pairs));
  out.file("pisa_pairs.csv", adv::pairs_csv(pairs));
  out.file("pisa_report.md", adv::tournament_report_md(pairs, shown));
  if (!archive_text.empty()) out.file("pisa_worst.jsonl", archive_text);

  if (options.human_out) {
    util::Table t({"target", "reference", "fixed ratio", "best ratio",
                   "beat fixed?", "validated", "tasks"});
    for (const auto& pr : pairs) {
      t.new_row()
          .cell(pr.target)
          .cell(pr.reference)
          .cell(pr.fixed_ratio, 3)
          .cell(pr.best_ratio, 3)
          .cell(pr.improved ? "yes" : "no")
          .cell(pr.validated ? "yes" : "NO")
          .cell(static_cast<long>(pr.record.graph.num_tasks()));
    }
    t.print(*options.human_out,
            "PISA adversarial tournament (ratio = makespan(target) / "
            "makespan(reference); fixed = best Figure 1-4 construction)");
    *options.human_out << "replay an archived instance with: moldsched_run "
                          "--replay results/pisa_worst.jsonl\n\n";
  }
  return out.paths;
}

// ---------------------------------------------------------------------------
// exact — the true-ratio tier: every registry scheduler over the frozen
// opt::small_corpus(), scored against the branch-and-bound exact optimum
// instead of (only) the Lemma 2 proxy.

const char* const kOracleScheduler = "oracle";

std::shared_ptr<const std::vector<opt::SmallInstance>> exact_corpus() {
  static Memo<std::vector<opt::SmallInstance>> memo;
  return memo.get("", [] { return opt::small_corpus(); });
}

std::vector<JobSpec> exact_jobs(const SuiteOptions& options) {
  std::vector<JobSpec> jobs;
  auto schedulers = sched::full_suite_names();
  schedulers.push_back(kOracleScheduler);
  for (const auto& inst : *exact_corpus()) {
    for (const auto& scheduler : schedulers) {
      JobSpec s;
      s.instance = inst.name;
      s.scheduler = scheduler;
      s.model = model::ModelKind::kGeneral;  // corpus mixes kinds per task
      s.P = inst.P;
      jobs.push_back(std::move(s));
    }
  }
  return numbered(std::move(jobs), "exact", options);
}

void exact_run(const JobSpec& spec, JobRecord& rec, const CancelToken& token) {
  const auto corpus = exact_corpus();
  const auto& inst = (*corpus)[index_by_name(*corpus, spec.instance,
                                             "exact: unknown instance")];
  if (spec.scheduler == kOracleScheduler) {
    auto opts = opt::oracle_defaults();
    opts.token = token;
    const auto r = opt::branch_and_bound_topt(inst.graph, inst.P, opts);
    rec.set("certified", r.status == opt::BnbStatus::kExact ? 1.0 : 0.0);
    rec.set("t_opt", r.makespan);
    rec.set("t_opt_lb", r.lower_bound);
    rec.set("lower_bound",
            analysis::optimal_makespan_lower_bound(inst.graph, inst.P));
    rec.set("nodes", static_cast<double>(r.nodes));
    rec.set("tasks", static_cast<double>(inst.graph.num_tasks()));
    return;
  }
  record_measurement(rec, inst.graph, inst.P,
                     sched::spec_by_name(spec.scheduler, inst.mu));
}

std::vector<std::string> exact_finalize(const std::vector<const JobRecord*>& ok,
                                        const SuiteOptions& options) {
  Outputs out(options);

  // Certified optima per instance (uncertified instances keep 0 and are
  // excluded from every T/T_opt figure).
  std::map<std::string, double> t_opt_of;
  std::map<std::string, const JobRecord*> oracle_of;
  for (const auto* rec : ok) {
    if (rec->spec.scheduler != kOracleScheduler) continue;
    oracle_of[rec->spec.instance] = rec;
    if (rec->metric("certified").value_or(0.0) > 0.5)
      t_opt_of[rec->spec.instance] = rec->metric("t_opt").value_or(0.0);
  }

  // Part 1 — the per-(instance, scheduler) true-ratio corpus CSV.
  util::Table corpus_csv({"instance", "scheduler", "makespan", "lemma2_lb",
                          "t_opt", "ratio_vs_lb", "ratio_vs_opt"});
  for (const auto* rec : ok) {
    if (rec->spec.scheduler == kOracleScheduler) continue;
    const auto it = t_opt_of.find(rec->spec.instance);
    const double t_opt = it != t_opt_of.end() ? it->second : 0.0;
    const double makespan = rec->metric("makespan").value_or(0.0);
    corpus_csv.new_row()
        .cell(rec->spec.instance)
        .cell(rec->spec.scheduler)
        .cell(makespan, 9)
        .cell(rec->metric("lower_bound").value_or(0.0), 9)
        .cell(t_opt, 9)
        .cell(rec->metric("ratio").value_or(0.0), 6)
        .cell(t_opt > 0.0 ? makespan / t_opt : 0.0, 6);
  }
  if (corpus_csv.num_rows() > 0)
    out.file("exact_true_ratios.csv", corpus_csv.to_csv());

  // Part 2 — per-scheduler aggregate with both denominators, through the
  // same AggregateRow/suite_table path the other tiers use.
  const auto rows = aggregate_rows(ok, t_opt_of);

  // Part 3 — markdown report contrasting T/LB with T/T_opt, plus the
  // per-instance LB slack the proxy ratios silently carry.
  if (!rows.empty()) {
    std::ostringstream md;
    md << "# Exact suite: true competitive ratios\n\n"
       << "Every registry scheduler over the frozen small-instance corpus,\n"
       << "scored twice: against the Lemma 2 lower bound (the only\n"
       << "denominator available at scale) and against the exact optimum\n"
       << "T_opt certified by opt::branch_and_bound_topt. The gap between\n"
       << "the two columns is the LB's slack, not scheduler behavior.\n\n";
    md << analysis::suite_table(rows).to_markdown() << '\n';
    util::Table slack({"instance", "tasks", "Lemma 2 LB", "T_opt",
                       "T_opt/LB (LB slack)", "bnb nodes"});
    for (const auto& inst : *exact_corpus()) {
      const auto it = oracle_of.find(inst.name);
      if (it == oracle_of.end()) continue;
      const auto* rec = it->second;
      const double lb = rec->metric("lower_bound").value_or(0.0);
      const double t_opt = rec->metric("t_opt").value_or(0.0);
      const bool certified = rec->metric("certified").value_or(0.0) > 0.5;
      slack.new_row()
          .cell(inst.name)
          .cell(static_cast<long>(rec->metric("tasks").value_or(0.0)))
          .cell(lb, 6)
          .cell(certified ? util::format_double(t_opt, 6) : "(uncertified)")
          .cell(certified && lb > 0.0 ? util::format_double(t_opt / lb, 4)
                                      : "-")
          .cell(static_cast<long>(rec->metric("nodes").value_or(0.0)));
    }
    md << "\n## Lower-bound slack per instance\n\n"
       << "A T/LB pin can stay green while a scheduler regresses by up to\n"
       << "the slack factor below; the T/T_opt pins close that blind spot.\n\n"
       << slack.to_markdown();
    out.file("exact_report.md", md.str());
    if (options.human_out) {
      analysis::suite_table(rows).print(
          *options.human_out,
          "exact suite: ratio columns use the Lemma 2 LB, T/T_opt columns "
          "use the certified optimum (" +
              std::to_string(t_opt_of.size()) + "/" +
              std::to_string(exact_corpus()->size()) +
              " instances certified)");
      *options.human_out << '\n';
    }
  }
  return out.paths;
}

// ---------------------------------------------------------------------------
// ingest — the bundled workload catalog (data/workloads/*.dot|*.json)
// imported, per-task model-fitted and scheduled by the full registry.
// Everything is deterministic: the catalog order is the sorted filename
// order, the fitter is bit-exact, and the graphs are fixed — so the
// ratio CSV and the fit-quality CSV must be identical across runs.

std::shared_ptr<const std::vector<ingest::Workload>> ingest_catalog() {
  static Memo<std::vector<ingest::Workload>> memo;
  return memo.get("", [] { return ingest::load_bundled_workloads(); });
}

std::vector<JobSpec> ingest_jobs(const SuiteOptions& options) {
  JobGrid grid;
  grid.suite = "ingest";
  for (const auto& w : *ingest_catalog()) grid.instances.push_back(w.name);
  grid.schedulers = sched::full_suite_names();
  grid.repeats = 1;  // imported graphs are fixed; repetition adds nothing
  grid.base_seed = options.base_seed;
  return grid.jobs();
}

void ingest_run(const JobSpec& spec, JobRecord& rec, const CancelToken&) {
  const auto catalog = ingest_catalog();
  const auto& w = (*catalog)[index_by_name(*catalog, spec.instance,
                                           "ingest: unknown workload")];
  // The catalogs mix all Eq. (1) kinds plus tables, so schedulers get
  // the mu tuned for the general model, the least-assuming choice.
  const double mu = analysis::optimal_mu(model::ModelKind::kGeneral);
  record_measurement(rec, w.graph, w.P,
                     sched::spec_by_name(spec.scheduler, mu));
  rec.set("P", static_cast<double>(w.P));
}

std::vector<std::string> ingest_finalize(
    const std::vector<const JobRecord*>& ok, const SuiteOptions& options) {
  Outputs out(options);
  const auto catalog = ingest_catalog();

  // Per-workload detail table: every scheduler's ratio side by side.
  util::Table detail({"workload", "tasks", "P", "scheduler", "makespan",
                      "LB (Lemma 2)", "ratio", "utilization"});
  for (const auto& w : *catalog) {
    for (const auto& name : sched::full_suite_names()) {
      const JobRecord* found = nullptr;
      for (const auto* rec : ok)
        if (rec->spec.instance == w.name && rec->spec.scheduler == name)
          found = rec;
      if (!found) continue;
      detail.new_row()
          .cell(w.name)
          .cell(static_cast<long>(w.graph.num_tasks()))
          .cell(static_cast<long>(w.P))
          .cell(name)
          .cell(found->metric("makespan").value_or(0.0), 6)
          .cell(found->metric("lower_bound").value_or(0.0), 6)
          .cell(found->metric("ratio").value_or(0.0), 6)
          .cell(found->metric("utilization").value_or(0.0), 6);
    }
  }
  if (detail.num_rows() > 0)
    out.file("ingest_detail.csv", detail.to_csv());

  // Aggregate ratio table over the whole catalog, registry order.
  const auto rows = aggregate_rows(ok);
  if (!rows.empty()) {
    out.table("ingest_ratios.csv", analysis::suite_table(rows),
              "ingested catalog (" + std::to_string(catalog->size()) +
                  " workloads from " + ingest::default_workloads_dir() +
                  "), per-file P, ratio = makespan / Lemma-2 LB");
  }

  // Fit-quality CSV straight off the cached catalog: the fitter is
  // deterministic and the numbers are printed at 17 significant digits,
  // so two runs must produce bit-identical bytes.
  const std::string path =
      out.file("ingest_fit_quality.csv", ingest::fit_quality_csv(*catalog));
  if (options.human_out) {
    std::size_t fitted = 0, fallbacks = 0, explicit_n = 0;
    for (const auto& w : *catalog) {
      fitted += w.fit.fitted();
      fallbacks += w.fit.fallbacks();
      for (const auto& t : w.fit.tasks)
        if (t.source == "params" || t.source == "times") ++explicit_n;
    }
    *options.human_out << "fit quality: " << fitted << " tasks fitted, "
                       << fallbacks << " table fallbacks, " << explicit_n
                       << " explicit -> " << path << "\n\n";
  }
  return out.paths;
}

// ---------------------------------------------------------------------------
// registry + run_suite

const std::vector<SuiteDef>& suite_defs() {
  static const std::vector<SuiteDef> defs = {
      {{"table1",
        "Table 1: derived bounds, measured adversary ratios, "
        "baselines on the worst-case instances"},
       table1_jobs, same_runner(table1_run), table1_finalize},
      {{"ratio-curves",
        "per-model optimal mu plus the dense ratio-vs-mu sweep"},
       ratio_curves_jobs, same_runner(ratio_curves_run),
       ratio_curves_finalize},
      {{"random-dags",
        "scheduler suite over the random-DAG catalog, all four "
        "speedup models"},
       random_dags_jobs, random_dags_runner, random_dags_finalize},
      {{"workflows",
        "realistic workflows (Cholesky, LU, FFT, Montage, "
        "wavefront) vs offline/level/malleable references"},
       workflows_jobs, same_runner(workflows_run), workflows_finalize},
      {{"resilience",
        "re-execution under Bernoulli/Poisson failures, LPA vs "
        "min-time"},
       resilience_jobs, same_runner(resilience_run), resilience_finalize},
      {{"selfcheck",
        "differential self-check: cached vs reference LPA "
        "schedules must be byte-identical over the random "
        "corpus, plus validator and Lemma 2 oracles"},
       selfcheck_jobs, same_runner(selfcheck_run), selfcheck_finalize},
      {{"release",
        "independent tasks released over time, three allocators "
        "across arrival rates"},
       release_jobs, release_runner, release_finalize},
      {{"improved",
        "improved-lpa vs lpa side by side: decoupled (mu, nu) "
        "constants, Figure 1-4 adversaries, shared check corpus"},
       improved_jobs, improved_runner, improved_finalize},
      {{"pisa",
        "PISA-style adversarial tournament: annealing search "
        "for instances separating every ordered scheduler "
        "pair, scored against the fixed Figure 1-4 "
        "constructions, worst instances archived as repro "
        "JSONL"},
       pisa_jobs, pisa_runner, pisa_finalize},
      {{"ingest",
        "bundled workload catalog (data/workloads DOT + JSON "
        "files) imported, per-task model-fitted, and scheduled "
        "by the full registry; emits the deterministic "
        "fit-quality CSV"},
       ingest_jobs, same_runner(ingest_run), ingest_finalize},
      {{"exact",
        "true-ratio tier: every registry scheduler on the "
        "frozen small-instance corpus, scored against the "
        "branch-and-bound exact optimum T_opt as well as the "
        "Lemma 2 lower bound"},
       exact_jobs, same_runner(exact_run), exact_finalize},
  };
  return defs;
}

const SuiteDef& find_suite(const std::string& name) {
  for (const auto& def : suite_defs())
    if (def.info.name == name) return def;
  std::string known;
  for (const auto& def : suite_defs()) {
    if (!known.empty()) known += ", ";
    known += def.info.name;
  }
  throw std::invalid_argument("unknown suite '" + name + "' (known: " + known +
                              ")");
}

}  // namespace

const std::vector<SuiteInfo>& suites() {
  static const std::vector<SuiteInfo> infos = [] {
    std::vector<SuiteInfo> out;
    for (const auto& def : suite_defs()) out.push_back(def.info);
    return out;
  }();
  return infos;
}

bool has_suite(const std::string& name) {
  for (const auto& def : suite_defs())
    if (def.info.name == name) return true;
  return false;
}

std::vector<JobSpec> suite_jobs(const std::string& name,
                                const SuiteOptions& options) {
  auto jobs = find_suite(name).build(options);
  // The one filter site. Survivors keep the ids and seeds of the full
  // list, so filtering never changes a surviving job's result.
  if (!options.filter.empty()) {
    std::erase_if(jobs, [&](const JobSpec& spec) {
      return spec.key().find(options.filter) == std::string::npos;
    });
  }
  return jobs;
}

SuiteReport run_suite(const std::string& name, const SuiteOptions& options) {
  const auto& def = find_suite(name);
  const auto started = std::chrono::steady_clock::now();

  auto jobs = suite_jobs(name, options);

  const std::string jsonl = options.jsonl_path.empty()
                                ? options.results_dir + "/" + name + ".jsonl"
                                : options.jsonl_path;

  // --resume: collect completed job ids from a previous (possibly
  // crashed) run and skip them; their records come from the file.
  std::vector<JobRecord> resumed;
  if (options.resume) {
    std::ifstream in(jsonl);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (validate_record_line(line)) continue;  // skip damaged tail lines
      auto rec = parse_record_line(line);
      if (rec.status == "ok") resumed.push_back(std::move(rec));
    }
  }
  std::set<std::uint64_t> done_ids;
  for (const auto& rec : resumed) done_ids.insert(rec.spec.job_id);
  std::vector<JobSpec> pending;
  for (auto& spec : jobs)
    if (done_ids.count(spec.job_id) == 0) pending.push_back(std::move(spec));

  JsonlSink sink(jsonl, /*truncate=*/!options.resume);

  RunOptions run_options;
  run_options.threads = options.threads;
  run_options.job_timeout_s = options.job_timeout_s;
  run_options.total_budget_s = options.total_budget_s;
  run_options.progress = options.progress;
  run_options.sink = &sink;

  SuiteReport report;
  report.suite = name;
  report.records = run_jobs(pending, def.runner(options), run_options);
  for (auto& rec : resumed) report.records.push_back(std::move(rec));
  std::sort(report.records.begin(), report.records.end(),
            [](const JobRecord& a, const JobRecord& b) {
              return a.spec.job_id < b.spec.job_id;
            });

  report.outputs.push_back(jsonl);
  if (options.write_outputs) {
    std::vector<const JobRecord*> ok;
    for (const auto& rec : report.records)
      if (rec.status == "ok") ok.push_back(&rec);
    for (auto& path : def.finalize(ok, options))
      report.outputs.push_back(std::move(path));
  }

  for (const auto& rec : report.records) {
    if (rec.status == "ok") ++report.ok;
    else if (rec.status == "error") ++report.errors;
    else if (rec.status == "timeout") ++report.timeouts;
    else ++report.cancelled;
  }
  report.resumed = resumed.size();
  report.threads = options.threads == 0 ? util::default_parallelism()
                                        : options.threads;
  report.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - started)
                      .count();
  report.jobs_per_s = report.wall_s > 0.0
                          ? static_cast<double>(report.records.size()) /
                                report.wall_s
                          : 0.0;
  return report;
}

std::string bench_json(const SuiteReport& report) {
  std::ostringstream os;
  os.precision(6);
  os << std::fixed;
  os << "{\n"
     << "  \"suite\": \"" << report.suite << "\",\n"
     << "  \"jobs\": " << report.records.size() << ",\n"
     << "  \"ok\": " << report.ok << ",\n"
     << "  \"error\": " << report.errors << ",\n"
     << "  \"timeout\": " << report.timeouts << ",\n"
     << "  \"cancelled\": " << report.cancelled << ",\n"
     << "  \"resumed\": " << report.resumed << ",\n"
     << "  \"threads\": " << report.threads << ",\n"
     << "  \"wall_s\": " << report.wall_s << ",\n"
     << "  \"jobs_per_sec\": " << report.jobs_per_s << ",\n"
     << "  \"peak_rss_mb\": "
     << obs::read_peak_rss_bytes() / (1024.0 * 1024.0) << ",\n"
     << "  \"metrics\": " << obs::default_registry().to_json(2) << "\n"
     << "}\n";
  return os.str();
}

}  // namespace moldsched::engine
