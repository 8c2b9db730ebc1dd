// Property suite for the exact oracle: on every sampled instance small
// enough to enumerate (<= 8 tasks), the pruned branch-and-bound must
// return the *bit-identical* optimal makespan of the unpruned brute
// force — pruning and memoization may only skip work, never change the
// arithmetic of the winning leaf. Seeds per cell scale with
// MOLDSCHED_PROPERTY_SEEDS for the nightly sweep. A slow cell splits its
// seeds into contiguous parts, one ctest entry each, so that they run in
// parallel; every part checks its own seeds with the same assertions.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ios>
#include <ostream>
#include <sstream>
#include <string>

#include "moldsched/check/corpus.hpp"
#include "moldsched/model/speedup_model.hpp"
#include "moldsched/opt/bnb.hpp"
#include "moldsched/util/rng.hpp"

namespace moldsched {
namespace {

int seeds_per_cell() {
  if (const char* env = std::getenv("MOLDSCHED_PROPERTY_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 64;
}

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

struct Cell {
  const char* family;
  model::ModelKind kind;
  int P;
  int part = 0;   ///< this entry checks seed part `part` of `parts`
  int parts = 1;
};

std::string cell_name(const testing::TestParamInfo<Cell>& info) {
  std::string family = info.param.family;
  for (auto& c : family)
    if (c == '_') c = '0';
  std::string name = family + "_" + model::to_string(info.param.kind) +
                     "_P" + std::to_string(info.param.P);
  if (info.param.parts > 1)
    name += "_part" + std::to_string(info.param.part + 1) + "of" +
            std::to_string(info.param.parts);
  return name;
}

// Keeps the ctest names free of the parameter's raw bytes (the family
// pointer's bytes would change from build to build).
void PrintTo(const Cell& c, std::ostream* os) {
  *os << c.family << '/' << model::to_string(c.kind) << "/P" << c.P;
  if (c.parts > 1) *os << "/part" << c.part + 1 << "of" << c.parts;
}

class ExactBruteForceProperty : public testing::TestWithParam<Cell> {};

TEST_P(ExactBruteForceProperty, PrunedSearchIsBitIdenticalToBruteForce) {
  const auto [family, kind, P, part, parts] = GetParam();
  const auto& families = check::corpus_families();
  int fam = -1;
  for (int i = 0; i < static_cast<int>(families.size()); ++i)
    if (families[static_cast<std::size_t>(i)] == family) fam = i;
  ASSERT_GE(fam, 0) << family;

  int checked = 0;
  int truncated = 0;
  const int seeds = seeds_per_cell();
  for (int seed = part * seeds / parts + 1;
       seed <= (part + 1) * seeds / parts; ++seed) {
    // Redraw until the instance is enumerable; brute force over 8 tasks
    // is not a practical arbiter.
    graph::TaskGraph g;
    bool found = false;
    for (int attempt = 0; attempt < 64 && !found; ++attempt) {
      util::Rng rng(util::derive_seed(
          util::derive_seed(0xb17e4ac7ULL, static_cast<std::uint64_t>(seed)),
          static_cast<std::uint64_t>(attempt)));
      g = check::corpus_graph(fam, kind, rng, P);
      found = g.num_tasks() >= 2 && g.num_tasks() <= 8;
    }
    if (!found) continue;

    const auto pruned = opt::branch_and_bound_topt(g, P);
    ASSERT_EQ(pruned.status, opt::BnbStatus::kExact)
        << family << " seed " << seed;
    const auto brute = opt::brute_force_topt(g, P, 8, 20'000'000);
    if (brute.status != opt::BnbStatus::kExact) {
      // The unpruned tree blew its budget; that instance cannot serve
      // as an arbiter, but it must stay rare.
      ++truncated;
      continue;
    }
    ++checked;
    EXPECT_EQ(pruned.makespan, brute.makespan)
        << family << "/" << model::to_string(kind) << " P=" << P << " seed "
        << seed << ": bnb=" << hex(pruned.makespan)
        << " brute=" << hex(brute.makespan);
  }
  EXPECT_GT(checked, 0) << "cell produced no enumerable instances";
  EXPECT_LE(truncated, checked)
      << "brute force budget-truncated more often than it arbitrated";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExactBruteForceProperty,
    testing::Values(
        Cell{"layered_random", model::ModelKind::kRoofline, 3},
        // Most of the suite's time: its seeds run as four entries.
        Cell{"fork_join", model::ModelKind::kAmdahl, 4, 0, 4},
        Cell{"fork_join", model::ModelKind::kAmdahl, 4, 1, 4},
        Cell{"fork_join", model::ModelKind::kAmdahl, 4, 2, 4},
        Cell{"fork_join", model::ModelKind::kAmdahl, 4, 3, 4},
        Cell{"series_parallel", model::ModelKind::kCommunication, 3},
        Cell{"random_out_tree", model::ModelKind::kGeneral, 4},
        Cell{"chain", model::ModelKind::kArbitrary, 5},
        Cell{"diamond", model::ModelKind::kGeneral, 3}),
    cell_name);

}  // namespace
}  // namespace moldsched
