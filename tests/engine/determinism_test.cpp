// The engine's determinism contract: a suite's canonical results depend
// only on (suite, base_seed, repeats) — never on the thread count, the
// execution order, or a --filter that removed other jobs.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "moldsched/engine/engine.hpp"

namespace moldsched::engine {
namespace {

std::string temp_jsonl(const std::string& tag) {
  return testing::TempDir() + "/moldsched_determinism_" + tag + ".jsonl";
}

SuiteReport run_quiet(const std::string& suite, unsigned threads,
                      std::uint64_t base_seed, const std::string& tag,
                      const std::string& filter = "") {
  SuiteOptions options;
  options.threads = threads;
  options.repeats = 1;
  options.base_seed = base_seed;
  options.filter = filter;
  // Unique per (tag, seed): ctest -j runs parameterized instances as
  // concurrent processes that must not share a JSONL file.
  options.jsonl_path = temp_jsonl(tag + "_" + std::to_string(base_seed));
  options.write_outputs = false;  // JSONL only; no results/*.csv
  auto report = run_suite(suite, options);
  std::filesystem::remove(options.jsonl_path);
  return report;
}

class DeterminismTest : public testing::TestWithParam<std::uint64_t> {};

// The ISSUE's property: byte-identical sorted canonical JSONL at one
// thread and at several, across base seeds. "release" exercises the
// seed-derivation path (arrival streams are drawn per job), "resilience"
// the per-job failure seeds.
TEST_P(DeterminismTest, ReleaseSuiteIsThreadCountInvariant) {
  const std::uint64_t seed = GetParam();
  const auto serial = run_quiet("release", 1, seed, "rel_serial");
  const auto parallel = run_quiet("release", 4, seed, "rel_parallel");
  ASSERT_EQ(serial.records.size(), parallel.records.size());
  EXPECT_GT(serial.ok, 0u);
  EXPECT_EQ(sorted_canonical_jsonl(serial.records),
            sorted_canonical_jsonl(parallel.records));
}

TEST_P(DeterminismTest, ResilienceSuiteIsThreadCountInvariant) {
  const std::uint64_t seed = GetParam();
  const auto serial = run_quiet("resilience", 1, seed, "res_serial");
  const auto parallel = run_quiet("resilience", 4, seed, "res_parallel");
  EXPECT_GT(serial.ok, 0u);
  EXPECT_EQ(sorted_canonical_jsonl(serial.records),
            sorted_canonical_jsonl(parallel.records));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismTest,
                         testing::Values(1234ULL, 99ULL, 31337ULL));

struct FilterCase {
  const char* suite;
  const char* filter;  ///< matches some, not all, of the suite's jobs
};

// ctest names each case after this (".../MatchesTheFullRunsSubset/table1").
void PrintTo(const FilterCase& c, std::ostream* os) { *os << c.suite; }

class FilteredRunTest : public testing::TestWithParam<FilterCase> {};

// --dry-run lists suite_jobs(); a filtered run must execute exactly that
// list, and each of its records must equal the full run's record with
// the same job id.
TEST_P(FilteredRunTest, MatchesTheFullRunsSubset) {
  const FilterCase& c = GetParam();
  const std::string tag = std::string("filter_") + c.suite;
  const auto full = run_quiet(c.suite, 2, 1234, tag + "_full");
  const auto filtered = run_quiet(c.suite, 2, 1234, tag, c.filter);
  ASSERT_FALSE(filtered.records.empty());
  ASSERT_LT(filtered.records.size(), full.records.size());

  SuiteOptions options;
  options.repeats = 1;
  options.filter = c.filter;
  std::vector<std::uint64_t> listed;
  for (const auto& spec : suite_jobs(c.suite, options))
    listed.push_back(spec.job_id);
  std::vector<std::uint64_t> ran;
  for (const auto& rec : filtered.records) ran.push_back(rec.spec.job_id);
  EXPECT_EQ(listed, ran);

  std::map<std::uint64_t, std::string> by_id;
  for (const auto& rec : full.records)
    by_id[rec.spec.job_id] = rec.canonical_json();
  for (const auto& rec : filtered.records) {
    ASSERT_TRUE(by_id.count(rec.spec.job_id));
    EXPECT_EQ(rec.canonical_json(), by_id[rec.spec.job_id]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, FilteredRunTest,
    testing::Values(FilterCase{"table1", "comm-adversary"},
                    FilterCase{"ratio-curves", "model=amdahl"},
                    FilterCase{"random-dags", "fork-join/"},
                    FilterCase{"workflows", "fft/"},
                    FilterCase{"resilience", "poisson@0.2/"},
                    FilterCase{"selfcheck", "model=general"},
                    FilterCase{"release", "rate@0.2/lpa"},
                    FilterCase{"improved", "corpus/"},
                    FilterCase{"pisa", "vs/lpa"},
                    FilterCase{"ingest", "/lpa model="},
                    FilterCase{"exact", "/oracle"}));

TEST(DeterminismTest, DifferentSeedsProduceDifferentResults) {
  const auto a = run_quiet("release", 2, 1, "seed_a");
  const auto b = run_quiet("release", 2, 2, "seed_b");
  EXPECT_NE(sorted_canonical_jsonl(a.records),
            sorted_canonical_jsonl(b.records));
}

TEST(RunJobsTest, JobTimeoutMarksSlowJobs) {
  JobGrid grid;
  grid.suite = "slow";
  grid.instances = {"sleepy", "quick"};
  auto jobs = grid.jobs();

  RunOptions options;
  options.threads = 1;
  options.job_timeout_s = 0.02;
  const auto records = run_jobs(
      jobs,
      [](const JobSpec& spec, const CancelToken& token) {
        JobRecord rec;
        rec.spec = spec;
        if (spec.instance == "sleepy") {
          // Cooperative loop: poll the token as compute jobs would.
          while (!token.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          EXPECT_LE(token.seconds_left(), 0.0);
        }
        rec.set("x", 1.0);
        return rec;
      },
      options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, "timeout");
  EXPECT_GE(records[0].wall_ms, 20.0);
  EXPECT_EQ(records[1].status, "ok");
}

TEST(RunJobsTest, ExhaustedBudgetCancelsRemainingJobs) {
  JobGrid grid;
  grid.suite = "budget";
  grid.instances = {"a", "b", "c", "d"};
  auto jobs = grid.jobs();

  RunOptions options;
  options.threads = 1;
  options.total_budget_s = 1e-9;  // expires before any job starts
  const auto records = run_jobs(
      jobs,
      [](const JobSpec& spec, const CancelToken&) {
        JobRecord rec;
        rec.spec = spec;
        return rec;
      },
      options);
  for (const auto& rec : records) EXPECT_EQ(rec.status, "cancelled");
}

TEST(RunJobsTest, RunnerExceptionsBecomeErrorRecords) {
  JobGrid grid;
  grid.suite = "err";
  grid.instances = {"bad", "good"};
  std::size_t progress_calls = 0;
  RunOptions options;
  options.threads = 1;
  options.progress = [&](const JobRecord&, std::size_t, std::size_t) {
    ++progress_calls;
  };
  const auto records = run_jobs(
      grid.jobs(),
      [](const JobSpec& spec, const CancelToken&) -> JobRecord {
        if (spec.instance == "bad")
          throw std::runtime_error("deliberate failure");
        JobRecord rec;
        rec.spec = spec;
        return rec;
      },
      options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].status, "error");
  EXPECT_EQ(records[0].error, "deliberate failure");
  EXPECT_EQ(records[1].status, "ok");
  EXPECT_EQ(progress_calls, 2u);
}

TEST(SuiteRegistryTest, AllSuitesAreListedAndBuildJobs) {
  const auto& infos = suites();
  ASSERT_GE(infos.size(), 6u);
  for (const auto& info : infos) {
    EXPECT_TRUE(has_suite(info.name));
    EXPECT_FALSE(info.description.empty());
    EXPECT_FALSE(suite_jobs(info.name).empty()) << info.name;
  }
  EXPECT_FALSE(has_suite("nope"));
  EXPECT_THROW((void)suite_jobs("nope"), std::invalid_argument);
  try {
    SuiteOptions options;
    (void)run_suite("nope", options);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("table1"), std::string::npos)
        << "error should list the known suites: " << e.what();
  }
}

}  // namespace
}  // namespace moldsched::engine
