// Regression suite on the Section 4.4 adversarial instances at growing
// platform sizes: both algorithm families must stay below their own
// proven upper bounds, even on the graphs built to maximize their ratio.
//
// The instances are tuned against the coupled mu* of each kind (the
// published construction); the improved allocator faces the same graphs
// and must still honour its derived constant — these are worst-case
// inputs for the LPA-shaped argument, so they are exactly the place a
// wrong derived constant would surface.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "moldsched/analysis/bounds.hpp"
#include "moldsched/analysis/improved.hpp"
#include "moldsched/analysis/ratios.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/graph/adversary.hpp"
#include "moldsched/sched/improved_lpa.hpp"
#include "moldsched/sim/validator.hpp"

namespace moldsched {
namespace {

struct AdversaryCase {
  model::ModelKind kind;
  int param;  // P for roofline/communication, K for amdahl/general
};

graph::AdversaryInstance build(const AdversaryCase& c, double mu) {
  switch (c.kind) {
    case model::ModelKind::kRoofline:
      return graph::roofline_adversary(c.param, mu);
    case model::ModelKind::kCommunication:
      return graph::communication_adversary(c.param, mu);
    case model::ModelKind::kAmdahl:
      return graph::amdahl_adversary(c.param, mu);
    default:
      return graph::general_adversary(c.param, mu);
  }
}

std::string case_name(const testing::TestParamInfo<AdversaryCase>& info) {
  return model::to_string(info.param.kind) + "_" +
         std::to_string(info.param.param);
}

// Keeps the ctest names free of the parameter's raw bytes.
void PrintTo(const AdversaryCase& c, std::ostream* os) {
  *os << model::to_string(c.kind) << '/' << c.param;
}

class ImprovedAdversaryRegressionTest
    : public testing::TestWithParam<AdversaryCase> {};

TEST_P(ImprovedAdversaryRegressionTest, BothFamiliesStayBelowOwnBounds) {
  const auto c = GetParam();
  const auto coupled = analysis::optimal_ratio(c.kind);
  const auto inst = build(c, coupled.mu_star);

  // t_opt_upper >= T_opt >= Lemma 2 LB, so T / t_opt_upper is a valid
  // (conservative) observed competitive ratio for both families.
  const core::LpaAllocator lpa(coupled.mu_star);
  const auto r_lpa = core::schedule_online(inst.graph, inst.P, lpa);
  sim::expect_valid_schedule(inst.graph, r_lpa.trace, inst.P);
  const double lpa_ratio = r_lpa.makespan / inst.t_opt_upper;
  EXPECT_LE(lpa_ratio, coupled.upper_bound * (1.0 + 1e-9))
      << inst.description;

  const sched::ImprovedLpaAllocator improved;
  const auto r_imp = core::schedule_online(inst.graph, inst.P, improved);
  sim::expect_valid_schedule(inst.graph, r_imp.trace, inst.P);
  const double improved_bound =
      analysis::improved_optimal_ratio(c.kind).upper_bound;
  const double improved_ratio = r_imp.makespan / inst.t_opt_upper;
  EXPECT_LE(improved_ratio, improved_bound * (1.0 + 1e-9))
      << inst.description;

  // The construction's whole point: the observed ratios approach the
  // theorem constants from below, so they must at least exceed 1.
  EXPECT_GE(lpa_ratio, 1.0 - 1e-9);
  EXPECT_GE(improved_ratio, 1.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    GrowingSizes, ImprovedAdversaryRegressionTest,
    testing::Values(
        // Figure 1 / Theorem 5 shape (roofline), growing P.
        AdversaryCase{model::ModelKind::kRoofline, 8},
        AdversaryCase{model::ModelKind::kRoofline, 64},
        AdversaryCase{model::ModelKind::kRoofline, 512},
        AdversaryCase{model::ModelKind::kRoofline, 4096},
        // Theorem 6 (communication), growing P.
        AdversaryCase{model::ModelKind::kCommunication, 8},
        AdversaryCase{model::ModelKind::kCommunication, 64},
        AdversaryCase{model::ModelKind::kCommunication, 256},
        // Figure 3 / Theorem 7 shape (Amdahl), growing K (P = K^2).
        AdversaryCase{model::ModelKind::kAmdahl, 6},
        AdversaryCase{model::ModelKind::kAmdahl, 12},
        AdversaryCase{model::ModelKind::kAmdahl, 24},
        AdversaryCase{model::ModelKind::kAmdahl, 48},
        // Theorem 8 (general), growing K.
        AdversaryCase{model::ModelKind::kGeneral, 6},
        AdversaryCase{model::ModelKind::kGeneral, 12},
        AdversaryCase{model::ModelKind::kGeneral, 24}),
    case_name);

}  // namespace
}  // namespace moldsched
