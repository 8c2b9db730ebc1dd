#include "moldsched/ingest/fit_select.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "moldsched/model/arbitrary_model.hpp"
#include "moldsched/model/special_models.hpp"

namespace moldsched::ingest {

namespace {

/// Candidate families in preference order: fewer free parameters first,
/// amdahl before communication among the two-parameter families (a fixed
/// tie-break so selection is deterministic).
const model::ModelKind kCandidates[] = {
    model::ModelKind::kRoofline, model::ModelKind::kAmdahl,
    model::ModelKind::kCommunication, model::ModelKind::kGeneral};

TaskFit table_fallback_fit(const std::vector<std::pair<int, double>>& profile,
                           const model::SpeedupModel& table) {
  TaskFit fit;
  fit.source = "fallback";
  fit.kind = model::ModelKind::kArbitrary;
  fit.samples = static_cast<int>(profile.size());
  double sse = 0.0;
  for (const auto& [p, t] : profile) {
    const double predicted = table.time(p);
    sse += (predicted - t) * (predicted - t);
    fit.max_relative_error =
        std::max(fit.max_relative_error, std::abs(predicted - t) / t);
  }
  fit.rmse = std::sqrt(sse / static_cast<double>(profile.size()));
  return fit;
}

ModelChoice make_fallback(const std::vector<std::pair<int, double>>& profile,
                          const FitOptions& options) {
  ModelChoice choice;
  choice.model =
      model::table_from_samples(profile, options.table_P, "profiled");
  choice.fit = table_fallback_fit(profile, *choice.model);
  return choice;
}

}  // namespace

int FitReport::fitted() const {
  int n = 0;
  for (const auto& t : tasks)
    if (t.source == "fitted") ++n;
  return n;
}

int FitReport::fallbacks() const {
  int n = 0;
  for (const auto& t : tasks)
    if (t.source == "fallback") ++n;
  return n;
}

std::string format_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

model::ModelKind classify_params(const model::GeneralParams& params) {
  if (!(params.w > 0.0)) return model::ModelKind::kGeneral;
  if (params.d == 0.0 && params.c == 0.0) return model::ModelKind::kRoofline;
  if (params.c == 0.0) return model::ModelKind::kAmdahl;
  if (params.d == 0.0) return model::ModelKind::kCommunication;
  return model::ModelKind::kGeneral;
}

model::ModelPtr materialize(model::ModelKind kind,
                            const model::GeneralParams& params) {
  switch (kind) {
    case model::ModelKind::kRoofline:
      return std::make_shared<model::RooflineModel>(params.w, params.pbar);
    case model::ModelKind::kAmdahl:
      return std::make_shared<model::AmdahlModel>(params.w, params.d);
    case model::ModelKind::kCommunication:
      return std::make_shared<model::CommunicationModel>(params.w, params.c);
    case model::ModelKind::kGeneral:
      return std::make_shared<model::GeneralModel>(params);
    case model::ModelKind::kArbitrary: break;
  }
  throw std::invalid_argument(
      "materialize: kArbitrary has no parameter form");
}

ModelChoice select_model(const std::vector<std::pair<int, double>>& profile,
                         const FitOptions& options) {
  if (profile.empty())
    throw std::invalid_argument("select_model: empty profile");
  std::set<int> distinct;
  for (const auto& [p, t] : profile) {
    if (p < 1) throw std::invalid_argument("select_model: sample with p < 1");
    if (!(t > 0.0) || !std::isfinite(t))
      throw std::invalid_argument(
          "select_model: times must be positive and finite");
    distinct.insert(p);
  }

  // Under-determined profiles cannot distinguish the families; the
  // interpolating table reproduces them exactly instead.
  if (distinct.size() < 3) return make_fallback(profile, options);

  struct Candidate {
    model::ModelKind family;
    model::FitResult fit;
  };
  std::vector<Candidate> candidates;
  double best_rmse = std::numeric_limits<double>::infinity();
  for (const auto family : kCandidates) {
    try {
      Candidate c{family, model::fit_model_family(profile, family)};
      best_rmse = std::min(best_rmse, c.fit.rmse);
      candidates.push_back(std::move(c));
    } catch (const std::invalid_argument&) {
      // This family admits no non-negative fit for the data; skip it.
    }
  }
  if (candidates.empty()) return make_fallback(profile, options);

  // Preference order with tolerance: the first (simplest) candidate
  // whose RMSE is within the relative slack of the best one wins. The
  // absolute epsilon keeps exact fits (rmse == 0) comparable.
  const Candidate* chosen = nullptr;
  const double cutoff =
      best_rmse * (1.0 + options.prefer_simpler_tolerance) + 1e-12;
  for (const auto& c : candidates) {
    if (c.fit.rmse <= cutoff) {
      chosen = &c;
      break;
    }
  }

  if (chosen->fit.max_relative_error > options.max_relative_error)
    return make_fallback(profile, options);

  ModelChoice choice;
  choice.fit.source = "fitted";
  choice.fit.params = chosen->fit.params;
  choice.fit.kind = classify_params(chosen->fit.params);
  choice.fit.rmse = chosen->fit.rmse;
  choice.fit.max_relative_error = chosen->fit.max_relative_error;
  choice.fit.samples = static_cast<int>(profile.size());
  choice.model = materialize(choice.fit.kind, choice.fit.params);
  return choice;
}

}  // namespace moldsched::ingest
