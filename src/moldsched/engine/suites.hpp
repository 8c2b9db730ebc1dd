// Named experiment suites on top of the job engine.
//
// A suite turns a name ("table1", "random-dags", ...) into a declarative
// job list, a runner factory mapping the run's options to the runner of
// each JobSpec, and a finalizer that writes the legacy results/*.csv
// outputs from the ok records. The moldsched_run CLI and the thin bench
// wrappers are both built on run_suite().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "moldsched/engine/job.hpp"
#include "moldsched/engine/result_sink.hpp"

namespace moldsched::engine {

struct SuiteOptions {
  unsigned threads = 0;      ///< 0 = util::default_parallelism()
  int repeats = 0;           ///< 0 = the suite's default repetition count
  std::uint64_t base_seed = 1234;
  std::string filter;        ///< substring filter on JobSpec::key()
  std::string results_dir = "results";
  std::string jsonl_path;    ///< "" = <results_dir>/<suite>.jsonl
  double job_timeout_s = 0.0;
  double total_budget_s = 0.0;
  bool write_outputs = true; ///< run the suite's CSV finalizer
  bool resume = false;       ///< skip jobs already "ok" in the JSONL file
  std::ostream* human_out = nullptr;  ///< legacy tables printed here
  std::function<void(const JobRecord&, std::size_t done, std::size_t total)>
      progress;
};

struct SuiteReport {
  std::string suite;
  std::vector<JobRecord> records;     ///< sorted by job_id
  std::vector<std::string> outputs;   ///< files written (JSONL first)
  double wall_s = 0.0;
  double jobs_per_s = 0.0;
  std::size_t ok = 0;
  std::size_t errors = 0;
  std::size_t timeouts = 0;
  std::size_t cancelled = 0;
  std::size_t resumed = 0;            ///< jobs skipped via --resume
  unsigned threads = 0;
};

struct SuiteInfo {
  std::string name;
  std::string description;
};

/// All registered suites, in presentation order.
[[nodiscard]] const std::vector<SuiteInfo>& suites();

[[nodiscard]] bool has_suite(const std::string& name);

/// Builds the suite's job list without running it, keeping only the
/// jobs whose key() contains options.filter (all when empty). Survivors
/// keep the ids and seeds of the full list; run_suite() runs exactly
/// this list.
[[nodiscard]] std::vector<JobSpec> suite_jobs(const std::string& name,
                                              const SuiteOptions& options = {});

/// Runs one suite end to end: enumerate jobs, execute them on the
/// persistent executor (streaming records to JSONL), then finalize the
/// CSV outputs. Throws std::invalid_argument for an unknown suite name,
/// listing the known ones.
[[nodiscard]] SuiteReport run_suite(const std::string& name,
                                    const SuiteOptions& options = {});

/// Machine-readable perf record of one suite run (jobs/sec, wall time,
/// status counts, peak RSS) — the BENCH_<suite>.json payload.
[[nodiscard]] std::string bench_json(const SuiteReport& report);

}  // namespace moldsched::engine
