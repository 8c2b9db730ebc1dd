// Extension X2 — independent moldable tasks released over time (the
// other online setting of Section 2; Ye et al. [23] prove a
// 16.74-competitive algorithm for it, and the paper's conclusion names
// it as future work for this framework).
//
// Measures the LPA-based list scheduler's makespan against the
// release-aware lower bound across arrival intensities and allocator
// choices; empirical ratios sit far below Ye et al.'s worst-case 16.74.
// The sweep is the "release" suite of the experiment engine: this binary
// is a thin wrapper over engine::run_suite (equivalent to
// `moldsched_run --suite release`) plus the micro-benchmark section.
#include <benchmark/benchmark.h>

#include <iostream>

#include "moldsched/analysis/ratios.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/engine/suites.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/sched/release_scheduler.hpp"

namespace {

using namespace moldsched;

std::vector<sched::ReleasedTask> make_arrivals(model::ModelKind kind, int n,
                                               int P, double rate,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  const model::ModelSampler sampler(kind);
  std::vector<sched::ReleasedTask> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    if (rate > 0.0) t += rng.exponential(rate);
    tasks.push_back({sampler.sample(rng, P), t, "t" + std::to_string(i)});
  }
  return tasks;
}

void BM_ReleaseSchedule(benchmark::State& state) {
  const int P = 32;
  const auto tasks = make_arrivals(model::ModelKind::kAmdahl,
                                   static_cast<int>(state.range(0)), P, 0.2,
                                   5);
  const core::LpaAllocator alloc(
      analysis::optimal_mu(model::ModelKind::kAmdahl));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::OnlineReleaseScheduler(tasks, P, alloc).run());
  }
}
BENCHMARK(BM_ReleaseSchedule)->Arg(100)->Arg(1000)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== bench_release: tasks released over time ===\n\n";
  engine::SuiteOptions options;
  options.human_out = &std::cout;
  (void)engine::run_suite("release", options);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
