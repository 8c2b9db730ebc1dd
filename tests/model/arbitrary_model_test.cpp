#include "moldsched/model/arbitrary_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace moldsched::model {
namespace {

TEST(TableModelTest, LooksUpAndClampsBeyondTable) {
  const TableModel m({4.0, 2.5, 2.0}, "demo");
  EXPECT_DOUBLE_EQ(m.time(1), 4.0);
  EXPECT_DOUBLE_EQ(m.time(2), 2.5);
  EXPECT_DOUBLE_EQ(m.time(3), 2.0);
  EXPECT_DOUBLE_EQ(m.time(7), 2.0);  // clamped
  EXPECT_EQ(m.table_size(), 3);
  EXPECT_EQ(m.kind(), ModelKind::kArbitrary);
}

TEST(TableModelTest, RejectsBadTables) {
  EXPECT_THROW(TableModel({}), std::invalid_argument);
  EXPECT_THROW(TableModel({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(TableModel({1.0, -2.0}), std::invalid_argument);
  EXPECT_THROW(
      TableModel({1.0, std::numeric_limits<double>::infinity()}),
      std::invalid_argument);
}

TEST(TableModelTest, NonMonotoneTablesAreAllowed) {
  // Arbitrary model: more processors may be slower.
  const TableModel m({2.0, 1.0, 3.0});
  EXPECT_EQ(m.max_useful_procs(3), 2);  // brute-force scan finds p=2
  EXPECT_DOUBLE_EQ(m.min_area(3), std::min({2.0, 2.0, 9.0}));
}

TEST(TableModelTest, DescribeAndClone) {
  const TableModel m({1.0}, "x");
  EXPECT_NE(m.describe().find("x"), std::string::npos);
  EXPECT_DOUBLE_EQ(m.clone()->time(1), 1.0);
}

TEST(FunctionModelTest, WrapsCallable) {
  const FunctionModel m([](int p) { return 10.0 / p; }, "hyperbolic");
  EXPECT_DOUBLE_EQ(m.time(1), 10.0);
  EXPECT_DOUBLE_EQ(m.time(5), 2.0);
  EXPECT_EQ(m.kind(), ModelKind::kArbitrary);
  EXPECT_NE(m.describe().find("hyperbolic"), std::string::npos);
}

TEST(FunctionModelTest, RejectsEmptyCallable) {
  EXPECT_THROW(FunctionModel(std::function<double(int)>{}),
               std::invalid_argument);
}

TEST(FunctionModelTest, DetectsNonPositiveTimes) {
  const FunctionModel m([](int p) { return static_cast<double>(p - 2); });
  EXPECT_THROW((void)m.time(1), std::logic_error);   // t = -1
  EXPECT_THROW((void)m.time(2), std::logic_error);   // t = 0
  EXPECT_DOUBLE_EQ(m.time(3), 1.0);
}

TEST(FunctionModelTest, NonIncreasingHintShortCircuitsPmax) {
  int calls = 0;
  const FunctionModel m(
      [&calls](int p) {
        ++calls;
        return 1.0 / p;
      },
      "fast", /*time_nonincreasing=*/true);
  EXPECT_EQ(m.max_useful_procs(1 << 20), 1 << 20);
  EXPECT_EQ(calls, 0);  // no scan happened
}

TEST(LogSpeedupModelTest, MatchesTheorem9Function) {
  const auto m = make_log_speedup_model();
  // t(p) = 1 / (lg p + 1)
  EXPECT_DOUBLE_EQ(m->time(1), 1.0);
  EXPECT_DOUBLE_EQ(m->time(2), 0.5);
  EXPECT_DOUBLE_EQ(m->time(4), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m->time(8), 0.25);
  EXPECT_NEAR(m->time(3), 1.0 / (std::log2(3.0) + 1.0), 1e-12);
}

TEST(LogSpeedupModelTest, AreaNonDecreasingWithProcs) {
  // a(p) = p/(lg p + 1); note a(1) = a(2) = 1, strictly increasing after.
  const auto m = make_log_speedup_model();
  for (int p = 1; p < 64; ++p)
    EXPECT_LE(m->area(p), m->area(p + 1) + 1e-12) << "p=" << p;
  for (int p = 2; p < 64; ++p)
    EXPECT_LT(m->area(p), m->area(p + 1)) << "p=" << p;
}

TEST(LogSpeedupModelTest, PmaxIsWholeMachine) {
  const auto m = make_log_speedup_model();
  EXPECT_EQ(m->max_useful_procs(1 << 16), 1 << 16);
}

TEST(TableFromSamplesTest, ExactAtSamplePoints) {
  const auto m = table_from_samples({{1, 10.0}, {4, 4.0}, {8, 3.0}}, 8);
  EXPECT_DOUBLE_EQ(m->time(1), 10.0);
  EXPECT_DOUBLE_EQ(m->time(4), 4.0);
  EXPECT_DOUBLE_EQ(m->time(8), 3.0);
}

TEST(TableFromSamplesTest, LinearInterpolationBetweenSamples) {
  const auto m = table_from_samples({{1, 10.0}, {5, 2.0}}, 8);
  EXPECT_DOUBLE_EQ(m->time(3), 6.0);  // halfway
  EXPECT_DOUBLE_EQ(m->time(2), 8.0);
}

TEST(TableFromSamplesTest, ClampsOutsideSampledRange) {
  const auto m = table_from_samples({{2, 6.0}, {4, 3.0}}, 8);
  EXPECT_DOUBLE_EQ(m->time(1), 6.0);  // below range
  EXPECT_DOUBLE_EQ(m->time(8), 3.0);  // above range
}

TEST(TableFromSamplesTest, UnsortedAndDuplicateSamples) {
  const auto m =
      table_from_samples({{4, 5.0}, {1, 9.0}, {4, 4.0}, {2, 7.0}}, 4);
  EXPECT_DOUBLE_EQ(m->time(1), 9.0);
  EXPECT_DOUBLE_EQ(m->time(2), 7.0);
  EXPECT_DOUBLE_EQ(m->time(4), 4.0);  // duplicate kept the faster one
  EXPECT_DOUBLE_EQ(m->time(3), 5.5);  // interpolated between 2 and 4
}

TEST(TableFromSamplesTest, SingleSampleIsConstant) {
  const auto m = table_from_samples({{4, 2.5}}, 8);
  for (int p = 1; p <= 8; ++p) EXPECT_DOUBLE_EQ(m->time(p), 2.5);
}

TEST(TableFromSamplesTest, RejectsBadInput) {
  EXPECT_THROW((void)table_from_samples({}, 4), std::invalid_argument);
  EXPECT_THROW((void)table_from_samples({{0, 1.0}}, 4),
               std::invalid_argument);
  EXPECT_THROW((void)table_from_samples({{1, 0.0}}, 4),
               std::invalid_argument);
  EXPECT_THROW((void)table_from_samples({{1, 1.0}}, 0),
               std::invalid_argument);
}

TEST(TableFromSamplesTest, NamePropagates) {
  const auto m = table_from_samples({{1, 1.0}}, 2, "measured-kernel");
  EXPECT_NE(m->describe().find("measured-kernel"), std::string::npos);
}

}  // namespace
}  // namespace moldsched::model
