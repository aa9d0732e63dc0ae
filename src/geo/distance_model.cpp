#include "geo/distance_model.h"

#include <algorithm>
#include <stdexcept>

namespace cebis::geo {

Km weighted_distance(const StateInfo& state, const LatLon& site) {
  double km = 0.0;
  for (const auto& p : state.points) {
    km += p.weight * haversine(p.location, site).value();
  }
  return Km{km};
}

DistanceModel::DistanceModel(std::span<const StateInfo> states,
                             std::span<const LatLon> sites)
    : state_count_(states.size()), site_count_(sites.size()) {
  if (states.empty() || sites.empty()) {
    throw std::invalid_argument("DistanceModel: empty states or sites");
  }
  km_.reserve(state_count_ * site_count_);
  for (const auto& st : states) {
    for (const auto& site : sites) {
      km_.push_back(weighted_distance(st, site).value());
    }
  }
}

Km DistanceModel::distance(StateId state, std::size_t site) const {
  if (!state.valid() || state.index() >= state_count_ || site >= site_count_) {
    throw std::out_of_range("DistanceModel::distance");
  }
  return Km{at(state.index(), site)};
}

std::size_t DistanceModel::closest_site(StateId state) const {
  if (!state.valid() || state.index() >= state_count_) {
    throw std::out_of_range("DistanceModel::closest_site");
  }
  const std::size_t row = state.index();
  std::size_t best = 0;
  for (std::size_t c = 1; c < site_count_; ++c) {
    if (at(row, c) < at(row, best)) best = c;
  }
  return best;
}

std::vector<std::size_t> DistanceModel::sites_within(StateId state, Km radius) const {
  if (!state.valid() || state.index() >= state_count_) {
    throw std::out_of_range("DistanceModel::sites_within");
  }
  const std::size_t row = state.index();
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < site_count_; ++c) {
    if (at(row, c) <= radius.value()) out.push_back(c);
  }
  std::sort(out.begin(), out.end(), [this, row](std::size_t a, std::size_t b) {
    return at(row, a) < at(row, b);
  });
  return out;
}

}  // namespace cebis::geo
