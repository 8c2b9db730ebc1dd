// Golden regression pins for the paper's Table 1 (Theorems 1-8).
//
// ratios_test.cpp checks the published two-decimal values; this file
// additionally pins the *exact* numbers this implementation computes,
// so any future change to the optimizer, the delta/lemma formulas, or
// the best-x constructions shows up as a precise diff instead of
// silently drifting within the loose paper tolerances.
#include <gtest/gtest.h>

#include "moldsched/analysis/improved.hpp"
#include "moldsched/analysis/ratios.hpp"

namespace moldsched::analysis {
namespace {

// Tolerance for the golden pins: the values are produced by golden-
// section search (tol 1e-12), so 1e-9 absorbs libm noise across
// platforms while still catching any algorithmic change.
//
// This is a determinism pin, not an accuracy claim: over the
// communication column's flat optimum the search resolves x* only to
// about 1e-8, so contracting a*b+c into an FMA moves x* by ~3e-9 and
// trips this pin. Keep the build pinned (-ffp-contract=off on the
// library) rather than widening the tolerance.
constexpr double kGoldenTol = 1e-9;
// Tolerance against the rounded values printed in the paper.
constexpr double kPaperTol = 1e-2;

TEST(GoldenBoundsTest, RooflineColumn) {
  const auto r = optimal_ratio(model::ModelKind::kRoofline);
  EXPECT_NEAR(r.upper_bound, 2.61803398874989, kGoldenTol);
  EXPECT_NEAR(r.lower_bound, 2.61803398874989, kGoldenTol);
  EXPECT_NEAR(r.mu_star, 0.381966011250105, kGoldenTol);
  // Paper Table 1: upper 2.62 at mu* = 0.382.
  EXPECT_NEAR(r.upper_bound, 2.62, kPaperTol);
  EXPECT_NEAR(r.mu_star, 0.382, kPaperTol);
}

TEST(GoldenBoundsTest, CommunicationColumn) {
  const auto r = optimal_ratio(model::ModelKind::kCommunication);
  EXPECT_NEAR(r.upper_bound, 3.60490915119726, kGoldenTol);
  EXPECT_NEAR(r.lower_bound, 3.51490037455781, kGoldenTol);
  EXPECT_NEAR(r.mu_star, 0.323494745018517, kGoldenTol);
  EXPECT_NEAR(r.x_star, 0.445932255582122, kGoldenTol);
  // Paper Table 1: upper 3.61 at mu* = 0.324, x* = 0.446.
  EXPECT_NEAR(r.upper_bound, 3.61, kPaperTol);
  EXPECT_NEAR(r.mu_star, 0.324, kPaperTol);
}

TEST(GoldenBoundsTest, AmdahlColumn) {
  const auto r = optimal_ratio(model::ModelKind::kAmdahl);
  EXPECT_NEAR(r.upper_bound, 4.73057693937962, kGoldenTol);
  EXPECT_NEAR(r.lower_bound, 4.73057693937962, kGoldenTol);
  EXPECT_NEAR(r.mu_star, 0.270875015521299, kGoldenTol);
  EXPECT_NEAR(r.x_star, 0.757442316690474, kGoldenTol);
  // Paper Table 1: upper 4.74 at mu* = 0.271.
  EXPECT_NEAR(r.upper_bound, 4.74, kPaperTol);
  EXPECT_NEAR(r.mu_star, 0.271, kPaperTol);
}

TEST(GoldenBoundsTest, GeneralColumn) {
  const auto r = optimal_ratio(model::ModelKind::kGeneral);
  EXPECT_NEAR(r.upper_bound, 5.71431129827148, kGoldenTol);
  EXPECT_NEAR(r.lower_bound, 5.25734799264624, kGoldenTol);
  EXPECT_NEAR(r.mu_star, 0.21068692561976, kGoldenTol);
  EXPECT_NEAR(r.x_star, 1.97247812225494, kGoldenTol);
  // Paper Table 1: upper 5.72 at mu* = 0.211.
  EXPECT_NEAR(r.upper_bound, 5.72, kPaperTol);
  EXPECT_NEAR(r.mu_star, 0.211, kPaperTol);
}

TEST(GoldenBoundsTest, OptimalMuMatchesStandaloneQuery) {
  for (const auto kind :
       {model::ModelKind::kRoofline, model::ModelKind::kCommunication,
        model::ModelKind::kAmdahl, model::ModelKind::kGeneral}) {
    EXPECT_NEAR(optimal_mu(kind), optimal_ratio(kind).mu_star, 1e-9);
  }
}

// --- improved (decoupled) family ------------------------------------
//
// The joint optimum of the decoupled (mu, nu) program provably collapses
// onto the coupled diagonal for all four Eq. (1) families (the coupled
// point is feasible and the decoupled bound matches Lemma 5 there), so
// each improved upper bound must equal its Table 1 constant to golden
// precision — pinning that equality here is what guards the collapse.
// The optimal (mu*, nu*) themselves sit in a flat valley of the 2-D
// objective, so they get a looser 1e-6 pin (the bound is the invariant,
// the argmin is not).
constexpr double kArgminTol = 1e-6;

TEST(GoldenBoundsTest, ImprovedRooflineColumn) {
  const auto r = improved_optimal_ratio(model::ModelKind::kRoofline);
  EXPECT_NEAR(r.upper_bound, 2.61803398874989, kGoldenTol);
  EXPECT_NEAR(r.threshold, 1.0, kGoldenTol);
  EXPECT_NEAR(r.alpha_star, 1.0, kGoldenTol);
  EXPECT_NEAR(r.mu_star, 0.381966011250105, kArgminTol);
  EXPECT_NEAR(r.upper_bound, 2.62, kPaperTol);
}

TEST(GoldenBoundsTest, ImprovedCommunicationColumn) {
  const auto r = improved_optimal_ratio(model::ModelKind::kCommunication);
  EXPECT_NEAR(r.upper_bound, 3.60490915119739, kGoldenTol);
  EXPECT_NEAR(r.threshold, 1.61305520951346, kArgminTol);
  EXPECT_NEAR(r.alpha_star, 1.34749965947153, kArgminTol);
  EXPECT_NEAR(r.mu_star, 0.323494744633563, kArgminTol);
  EXPECT_NEAR(r.nu_star, 0.323494744633519, kArgminTol);
  EXPECT_NEAR(r.x_star, 0.445932253712165, kArgminTol);
  EXPECT_NEAR(r.upper_bound, 3.61, kPaperTol);
}

TEST(GoldenBoundsTest, ImprovedAmdahlColumn) {
  const auto r = improved_optimal_ratio(model::ModelKind::kAmdahl);
  EXPECT_NEAR(r.upper_bound, 4.73057693937962, kGoldenTol);
  EXPECT_NEAR(r.threshold, 2.32023255505762, kArgminTol);
  EXPECT_NEAR(r.alpha_star, 1.75744231284795, kArgminTol);
  EXPECT_NEAR(r.mu_star, 0.270875015089475, kArgminTol);
  EXPECT_NEAR(r.x_star, 0.757442312847948, kArgminTol);
  EXPECT_NEAR(r.upper_bound, 4.74, kPaperTol);
}

TEST(GoldenBoundsTest, ImprovedGeneralColumn) {
  const auto r = improved_optimal_ratio(model::ModelKind::kGeneral);
  EXPECT_NEAR(r.upper_bound, 5.71431129827148, kGoldenTol);
  EXPECT_NEAR(r.threshold, 3.47945459315466, kArgminTol);
  EXPECT_NEAR(r.alpha_star, 1.76400161659053, kArgminTol);
  EXPECT_NEAR(r.mu_star, 0.210686925675477, kArgminTol);
  EXPECT_NEAR(r.x_star, 1.97247812044513, kArgminTol);
  EXPECT_NEAR(r.upper_bound, 5.72, kPaperTol);
}

TEST(GoldenBoundsTest, ImprovedBoundsNeverExceedCoupled) {
  for (const auto& r : compute_improved_table()) {
    EXPECT_LE(r.upper_bound, r.coupled_bound * (1.0 + 1e-9))
        << model::to_string(r.kind);
    EXPECT_NEAR(r.coupled_bound, optimal_ratio(r.kind).upper_bound,
                kGoldenTol);
  }
}

TEST(GoldenBoundsTest, ImprovedMixedEnvelopeGolden) {
  // All four kinds together: the weakest cap and largest alpha both come
  // from the general model, so the envelope equals its constant.
  const auto env = improved_mixed_envelope(
      {model::ModelKind::kRoofline, model::ModelKind::kCommunication,
       model::ModelKind::kAmdahl, model::ModelKind::kGeneral});
  EXPECT_NEAR(env.bound, 5.71431129827148, 1e-6);
  EXPECT_NEAR(env.mu_min, 0.210686925675477, kArgminTol);
  EXPECT_NEAR(env.alpha_max, 1.76400161659053, kArgminTol);
}

}  // namespace
}  // namespace moldsched::analysis
