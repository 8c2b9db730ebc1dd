// Arbitrary speedup models (Section 5): execution time is any positive
// function of the processor allocation, with no monotonicity guarantees.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "moldsched/model/speedup_model.hpp"

namespace moldsched::model {

/// Speedup model given by an explicit table: times[p-1] is t(p).
/// Allocations beyond the table size are clamped to the last entry
/// (matching the convention that extra processors are simply idle).
class TableModel : public SpeedupModel {
 public:
  /// Throws if the table is empty or any entry is non-positive/non-finite.
  explicit TableModel(std::vector<double> times, std::string name = "table");

  [[nodiscard]] double time(int p) const override;
  [[nodiscard]] ModelKind kind() const override { return ModelKind::kArbitrary; }
  [[nodiscard]] std::string describe() const override;
  /// Cacheable: a 128-bit content hash of the table plus its length,
  /// precomputed at construction (tables are immutable).
  [[nodiscard]] ModelFingerprint fingerprint() const override {
    return fingerprint_;
  }
  [[nodiscard]] std::unique_ptr<SpeedupModel> clone() const override;

  [[nodiscard]] int table_size() const noexcept {
    return static_cast<int>(times_.size());
  }

 private:
  std::vector<double> times_;
  std::string name_;
  ModelFingerprint fingerprint_;
};

/// Speedup model wrapping a user-supplied callable t(p).
/// If `time_nonincreasing` is set, max_useful_procs(P) short-circuits to P
/// (the minimum time is at the largest allocation), which matters for the
/// very large platforms of the Theorem 9 instances.
class FunctionModel : public SpeedupModel {
 public:
  /// Throws if fn is empty.
  FunctionModel(std::function<double(int)> fn, std::string name = "function",
                bool time_nonincreasing = false);

  [[nodiscard]] double time(int p) const override;
  [[nodiscard]] int max_useful_procs(int P) const override;
  [[nodiscard]] ModelKind kind() const override { return ModelKind::kArbitrary; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] std::unique_ptr<SpeedupModel> clone() const override;

 private:
  std::function<double(int)> fn_;
  std::string name_;
  bool time_nonincreasing_;
};

/// The Theorem 9 model: t(p) = 1 / (lg(p) + 1), lg = log base 2.
/// Time is decreasing in p while the area p/(lg(p)+1) is increasing.
[[nodiscard]] std::shared_ptr<const SpeedupModel> make_log_speedup_model();

/// Builds a TableModel for allocations 1..P from measured (procs, time)
/// samples, linearly interpolating between sample points and clamping
/// outside their range — the bridge from profiling data to a schedulable
/// model. Samples need not be sorted; duplicates (same p) keep the
/// smaller time. Throws unless at least one sample is given, every
/// sample has p >= 1 and time > 0, and P >= 1.
[[nodiscard]] std::shared_ptr<const SpeedupModel> table_from_samples(
    std::vector<std::pair<int, double>> samples, int P,
    std::string name = "profiled");

}  // namespace moldsched::model
