// Extension X1 — resilient scheduling (Section 2 of the paper notes its
// results "can readily carry over to the failure scenario" of Benoit et
// al.). Tasks are re-executed until success; failures are discovered at
// attempt completion.
//
// Sweeps the failure intensity and reports the makespan inflation and
// wasted work of LPA vs the greedy min-time allocation, under both the
// Bernoulli (per-attempt) and Poisson (area-proportional) failure models.
// The Poisson model is where LPA's area-lean allocations pay off twice:
// less exposure per attempt, so fewer retries AND less waste per retry.
// The sweep is the "resilience" suite of the experiment engine: this
// binary is a thin wrapper over engine::run_suite (equivalent to
// `moldsched_run --suite resilience`) plus the micro-benchmark section.
#include <benchmark/benchmark.h>

#include <iostream>

#include "moldsched/analysis/ratios.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/engine/suites.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/resilience/resilient_scheduler.hpp"

namespace {

using namespace moldsched;

graph::TaskGraph make_workload(int P, std::uint64_t seed) {
  util::Rng rng(seed);
  static const model::ModelSampler sampler(model::ModelKind::kCommunication);
  return graph::layered_random(8, 3, 10, 0.3, rng,
                               graph::sampling_provider(sampler, rng, P));
}

void BM_ResilientSchedule(benchmark::State& state) {
  const int P = 32;
  const auto g = make_workload(P, 99);
  const core::LpaAllocator alloc(
      analysis::optimal_mu(model::ModelKind::kCommunication));
  const auto failures = std::make_shared<resilience::BernoulliFailures>(
      static_cast<double>(state.range(0)) / 100.0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        resilience::ResilientOnlineScheduler(g, P, alloc, failures, seed++)
            .run());
  }
}
BENCHMARK(BM_ResilientSchedule)->Arg(0)->Arg(30)->Arg(60)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== bench_resilience: scheduling under task failures ===\n\n";
  engine::SuiteOptions options;
  options.human_out = &std::cout;
  (void)engine::run_suite("resilience", options);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
