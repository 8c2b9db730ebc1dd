#include "moldsched/model/arbitrary_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace moldsched::model {

namespace {

/// Two independent 64-bit FNV-1a passes over the table's bit patterns.
/// 128 bits of content hash make an accidental collision between two
/// distinct tables (which would poison a decision cache) astronomically
/// unlikely; the differential self-check harness guards the remainder.
ModelFingerprint table_fingerprint(const std::vector<double>& times) {
  std::uint64_t h1 = 0xcbf29ce484222325ULL;
  std::uint64_t h2 = 0x84222325cbf29ce4ULL;
  for (const double t : times) {
    const auto bits = std::bit_cast<std::uint64_t>(t);
    for (int shift = 0; shift < 64; shift += 8) {
      const auto byte = (bits >> shift) & 0xffU;
      h1 = (h1 ^ byte) * 0x100000001b3ULL;
      h2 = (h2 ^ byte) * 0x00000100000001b3ULL + 0x9e3779b97f4a7c15ULL;
    }
  }
  constexpr std::uint64_t kFamilyTag = 0x7ab1'0001ULL << 32;
  return {true, {h1, h2, times.size(), kFamilyTag}};
}

}  // namespace

TableModel::TableModel(std::vector<double> times, std::string name)
    : times_(std::move(times)), name_(std::move(name)) {
  if (times_.empty())
    throw std::invalid_argument("TableModel: empty time table");
  for (const double t : times_)
    if (!(t > 0.0) || !std::isfinite(t))
      throw std::invalid_argument(
          "TableModel: all times must be positive and finite");
  fingerprint_ = table_fingerprint(times_);
}

double TableModel::time(int p) const {
  check_procs(p);
  const auto idx = std::min<std::size_t>(static_cast<std::size_t>(p) - 1,
                                         times_.size() - 1);
  return times_[idx];
}

std::string TableModel::describe() const {
  std::ostringstream os;
  os << "arbitrary-table(" << name_ << ", " << times_.size() << " entries)";
  return os.str();
}

std::unique_ptr<SpeedupModel> TableModel::clone() const {
  return std::unique_ptr<SpeedupModel>(new TableModel(*this));
}

FunctionModel::FunctionModel(std::function<double(int)> fn, std::string name,
                             bool time_nonincreasing)
    : fn_(std::move(fn)),
      name_(std::move(name)),
      time_nonincreasing_(time_nonincreasing) {
  if (!fn_) throw std::invalid_argument("FunctionModel: empty callable");
}

double FunctionModel::time(int p) const {
  check_procs(p);
  const double t = fn_(p);
  if (!(t > 0.0) || !std::isfinite(t))
    throw std::logic_error("FunctionModel: t(p) must be positive and finite");
  return t;
}

int FunctionModel::max_useful_procs(int P) const {
  if (P < 1) throw std::invalid_argument("max_useful_procs: P must be >= 1");
  if (time_nonincreasing_) return P;
  return SpeedupModel::max_useful_procs(P);
}

std::string FunctionModel::describe() const {
  return "arbitrary-function(" + name_ + ")";
}

std::unique_ptr<SpeedupModel> FunctionModel::clone() const {
  return std::unique_ptr<SpeedupModel>(new FunctionModel(*this));
}

std::shared_ptr<const SpeedupModel> make_log_speedup_model() {
  return std::make_shared<FunctionModel>(
      [](int p) { return 1.0 / (std::log2(static_cast<double>(p)) + 1.0); },
      "1/(lg p + 1)", /*time_nonincreasing=*/true);
}

std::shared_ptr<const SpeedupModel> table_from_samples(
    std::vector<std::pair<int, double>> samples, int P, std::string name) {
  if (samples.empty())
    throw std::invalid_argument("table_from_samples: no samples");
  if (P < 1) throw std::invalid_argument("table_from_samples: P must be >= 1");
  for (const auto& [p, t] : samples) {
    if (p < 1)
      throw std::invalid_argument("table_from_samples: sample with p < 1");
    if (!(t > 0.0) || !std::isfinite(t))
      throw std::invalid_argument(
          "table_from_samples: sample times must be positive and finite");
  }
  std::sort(samples.begin(), samples.end());
  // Collapse duplicate p, keeping the fastest observation.
  std::vector<std::pair<int, double>> unique;
  for (const auto& s : samples) {
    if (!unique.empty() && unique.back().first == s.first)
      unique.back().second = std::min(unique.back().second, s.second);
    else
      unique.push_back(s);
  }

  std::vector<double> times(static_cast<std::size_t>(P));
  std::size_t hi = 0;  // first sample with p >= current allocation
  for (int p = 1; p <= P; ++p) {
    while (hi < unique.size() && unique[hi].first < p) ++hi;
    double t = 0.0;
    if (hi == 0) {
      t = unique.front().second;  // clamp below the sampled range
    } else if (hi == unique.size()) {
      t = unique.back().second;  // clamp above
    } else if (unique[hi].first == p) {
      t = unique[hi].second;
    } else {
      const auto& [p0, t0] = unique[hi - 1];
      const auto& [p1, t1] = unique[hi];
      const double frac = static_cast<double>(p - p0) /
                          static_cast<double>(p1 - p0);
      t = t0 + frac * (t1 - t0);
    }
    times[static_cast<std::size_t>(p - 1)] = t;
  }
  return std::make_shared<TableModel>(std::move(times), std::move(name));
}

}  // namespace moldsched::model
