// Theorem 1-4 bounds asserted on every realistic workflow x model-family
// combination (the paper's bounds are per-task-model, so they must hold
// on these structured graphs exactly as on random ones).
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "moldsched/analysis/bounds.hpp"
#include "moldsched/analysis/ratios.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/graph/workflows.hpp"
#include "moldsched/sched/level_scheduler.hpp"
#include "moldsched/sim/validator.hpp"

namespace moldsched {
namespace {

struct WorkflowCase {
  const char* workflow;
  model::ModelKind kind;
};

// ctest names each case after this (".../OnlineWithinTheoremBound/
// cholesky/amdahl"). gtest's fallback prints the struct's raw bytes, a
// pointer and padding, which differ from build to build.
void PrintTo(const WorkflowCase& c, std::ostream* os) {
  *os << c.workflow << '/' << model::to_string(c.kind);
}

graph::TaskGraph build(const char* name, model::ModelKind kind) {
  graph::WorkflowModelConfig cfg;
  cfg.kind = kind;
  const std::string w = name;
  if (w == "cholesky") return graph::cholesky(6, cfg);
  if (w == "lu") return graph::lu(5, cfg);
  if (w == "fft") return graph::fft(4, cfg);
  if (w == "montage") return graph::montage(12, cfg);
  return graph::wavefront(6, 6, cfg);
}

class WorkflowRatioTest : public testing::TestWithParam<WorkflowCase> {};

TEST_P(WorkflowRatioTest, OnlineWithinTheoremBound) {
  const auto [workflow, kind] = GetParam();
  const auto g = build(workflow, kind);
  const double mu = analysis::optimal_mu(kind);
  const double bound = analysis::optimal_ratio(kind).upper_bound;
  const core::LpaAllocator alloc(mu);
  for (const int P : {4, 17, 48}) {
    const auto run = core::schedule_online(g, P, alloc);
    sim::expect_valid_schedule(g, run.trace, P);
    const double lb = analysis::optimal_makespan_lower_bound(g, P);
    EXPECT_LE(run.makespan, bound * lb * (1.0 + 1e-9))
        << workflow << " P=" << P;
  }
}

TEST_P(WorkflowRatioTest, LevelSchedulerAlsoValidButNoBoundClaim) {
  const auto [workflow, kind] = GetParam();
  const auto g = build(workflow, kind);
  const core::LpaAllocator alloc(analysis::optimal_mu(kind));
  const auto run = sched::schedule_level_by_level(g, 24, alloc);
  sim::expect_valid_schedule(g, run.trace, 24);
  EXPECT_GE(run.makespan,
            analysis::optimal_makespan_lower_bound(g, 24) * (1.0 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkflowRatioTest,
    testing::Values(
        WorkflowCase{"cholesky", model::ModelKind::kRoofline},
        WorkflowCase{"cholesky", model::ModelKind::kAmdahl},
        WorkflowCase{"cholesky", model::ModelKind::kGeneral},
        WorkflowCase{"lu", model::ModelKind::kCommunication},
        WorkflowCase{"lu", model::ModelKind::kGeneral},
        WorkflowCase{"fft", model::ModelKind::kRoofline},
        WorkflowCase{"fft", model::ModelKind::kAmdahl},
        WorkflowCase{"montage", model::ModelKind::kCommunication},
        WorkflowCase{"montage", model::ModelKind::kGeneral},
        WorkflowCase{"wavefront", model::ModelKind::kAmdahl},
        WorkflowCase{"wavefront", model::ModelKind::kRoofline}));

}  // namespace
}  // namespace moldsched
