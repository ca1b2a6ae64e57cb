#include "sched/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/tracer.h"
#include "orbit/propagator.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/units.h"

namespace starcdn::sched {

namespace {

// Added to the visibility cone's half-angle before a satellite may sleep.
// It covers the rounding of the central angle, of the wake epoch and of the
// elevation test, each many orders of magnitude smaller (1e-3 rad is about
// 6 km on the ground).
constexpr double kConeSlackRad = 1e-3;

// Epoch counts past this are rejected: they could not be indexed anyway.
constexpr double kMaxEpochs = 4294967296.0;  // 2^32

void validate(const SchedulerParams& p, util::Seconds duration) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("LinkSchedule: " + what);
  };
  if (!(std::isfinite(p.epoch.value()) && p.epoch.value() > 0.0)) {
    fail("SchedulerParams.epoch must be positive and finite");
  }
  if (!std::isfinite(duration.value())) fail("duration must be finite");
  if (!(duration / p.epoch < kMaxEpochs)) {
    fail("duration / SchedulerParams.epoch must be below 2^32 epochs");
  }
  if (p.candidates_per_cell <= 0) {
    fail("SchedulerParams.candidates_per_cell must be positive");
  }
  if (p.users_per_city <= 0) {
    fail("SchedulerParams.users_per_city must be positive");
  }
}

}  // namespace

// The table is, by definition, the top-K of VisibilityOracle's scan of
// every active satellite (DESIGN.md §6). Propagating and scanning all of
// them for every cell is the cost this builder avoids, without changing a
// bit of the result:
//  - A satellite is visible from a city only if its central angle to the
//    city is at most the cone half-angle acos(R cos el / r_max) - el. That
//    angle moves by at most (n_max + w_e) * epoch per epoch, so after
//    propagating a satellite whose angle to the nearest city is theta, it
//    cannot be in view for floor((theta - cone) / step) more epochs and is
//    not propagated until then.
//  - Each city then scans only the satellites within the cone, in index
//    order, through the oracle's own accept test and sort, so each cell
//    sees exactly the oracle's visible list.
LinkSchedule::LinkSchedule(const orbit::Constellation& constellation,
                           const std::vector<util::City>& cities,
                           util::Seconds duration,
                           const SchedulerParams& params)
    : params_(params), n_cities_(cities.size()) {
  validate(params, duration);
  epochs_ = static_cast<std::size_t>(
      std::max(1.0, std::ceil(duration / params.epoch)));
  const obs::TraceSpan span(
      obs::tracer(), "LinkSchedule::build", "sched",
      {obs::arg("epochs", static_cast<std::uint64_t>(epochs_)),
       obs::arg("cities", static_cast<std::uint64_t>(n_cities_))});
  k_ = std::min(static_cast<std::size_t>(params.candidates_per_cell),
                static_cast<std::size_t>(constellation.size()));
  candidates_.resize(epochs_ * n_cities_ * k_);
  counts_.assign(epochs_ * n_cities_, 0);

  const orbit::VisibilityOracle oracle(params.min_elevation);
  // Per city: its ECEF point, its direction and the oracle's cheap-reject
  // range.
  std::vector<orbit::Vec3> city_ecef(n_cities_);
  std::vector<orbit::Vec3> city_dir(n_cities_);
  std::vector<util::Km> reject(n_cities_);
  for (std::size_t c = 0; c < n_cities_; ++c) {
    city_ecef[c] = orbit::geodetic_to_ecef(cities[c].coord);
    city_dir[c] = city_ecef[c].normalized();
    reject[c] = oracle.reject_range(city_ecef[c], constellation);
  }

  std::vector<util::SatId> active;
  double n_max = 0.0;
  double r_min = constellation.max_orbital_radius().value();
  for (int i = 0; i < constellation.size(); ++i) {
    const util::SatId sat{i};
    const auto& e = constellation.elements(constellation.id_of(sat));
    n_max = std::max(n_max, constellation.orbit_of(sat).mean_motion_rad_s());
    r_min = std::min(r_min, e.semi_major_axis.value());
    if (constellation.active(sat)) active.push_back(sat);
  }
  // The cone half-angle at the highest orbit (the widest cone). The bound
  // assumes elevation falls with central angle, which holds for orbits
  // above the ground; otherwise, or if the cone is not a number, nothing
  // sleeps.
  const double el = util::to_radians(params.min_elevation).value();
  double cone = std::acos(util::kEarthRadiusKm * std::cos(el) /
                          constellation.max_orbital_radius().value()) -
                el + kConeSlackRad;
  if (!(r_min > util::kEarthRadiusKm) || std::isnan(cone)) cone = M_PI;
  const double step =
      (n_max + util::kEarthRotationRadPerS) * params.epoch.value();

  // Contiguous epoch ranges, each starting with every satellite awake, so
  // no range depends on another and the table is the same for any thread
  // count (it is the oracle's table either way).
  util::parallel_for_chunks(epochs_, [&](std::size_t begin, std::size_t end) {
    std::vector<std::size_t> wake(active.size(), begin);
    std::vector<util::SatId> near_ids;
    std::vector<orbit::Vec3> near_pos;
    std::vector<orbit::VisibleSat> visible;
    for (std::size_t e = begin; e < end; ++e) {
      const util::Seconds t = static_cast<double>(e) * params_.epoch;
      const orbit::EarthRotation earth(t);
      near_ids.clear();
      near_pos.clear();
      for (std::size_t j = 0; j < active.size(); ++j) {
        if (wake[j] > e) continue;
        const orbit::Vec3 p =
            constellation.orbit_of(active[j]).ecef(t, earth);
        double nearest = -1.0;  // cosine of the angle to the nearest city
        for (const orbit::Vec3& d : city_dir) {
          nearest = std::max(nearest, p.dot(d));
        }
        const double theta =
            std::acos(std::clamp(nearest / p.norm(), -1.0, 1.0));
        if (theta > cone) {
          const double sleep = std::floor((theta - cone) / step);
          wake[j] = e + 1 +
                    static_cast<std::size_t>(
                        std::min(sleep, static_cast<double>(epochs_)));
          continue;
        }
        wake[j] = e + 1;
        near_ids.push_back(active[j]);
        near_pos.push_back(p);
      }
      for (std::size_t c = 0; c < n_cities_; ++c) {
        const orbit::Vec3& g = city_ecef[c];
        visible.clear();
        for (std::size_t j = 0; j < near_ids.size(); ++j) {
          oracle.accept(g, near_ids[j], near_pos[j], reject[c], visible);
        }
        orbit::VisibilityOracle::sort_by_elevation(visible);
        const std::size_t cell = e * n_cities_ + c;
        const std::size_t k = std::min(visible.size(), k_);
        for (std::size_t i = 0; i < k; ++i) {
          candidates_[cell * k_ + i] = {
              visible[i].sat,
              static_cast<float>(
                  util::propagation_delay(visible[i].range).value())};
        }
        counts_[cell] = static_cast<std::uint32_t>(k);
      }
    }
  });
}

util::EpochIdx LinkSchedule::epoch_of(util::Seconds t) const noexcept {
  // Clamp before converting: a time past the horizon (or not a number)
  // must not reach the integer conversion.
  const double e = std::max(0.0, t.value()) / params_.epoch.value();
  const auto last = static_cast<double>(epochs_ - 1);
  return util::EpochIdx{e < last ? static_cast<std::size_t>(e) : epochs_ - 1};
}

Candidate LinkSchedule::first_contact(util::EpochIdx epoch, util::CityId city,
                                      std::uint64_t user_id) const noexcept {
  const auto cell = candidates(epoch, city);
  if (cell.empty()) return {};
  // Hash (user, epoch) so each user sticks to one satellite within an epoch
  // but the population reshuffles when the scheduler reconfigures.
  const std::uint64_t h = util::hash_combine(
      util::splitmix64(user_id),
      util::splitmix64(epoch.value() * 1315423911ULL));
  return cell[h % cell.size()];
}

double LinkSchedule::mean_candidates() const noexcept {
  if (counts_.empty()) return 0.0;
  double total = 0.0;
  for (const std::uint32_t n : counts_) total += static_cast<double>(n);
  return total / static_cast<double>(counts_.size());
}

}  // namespace starcdn::sched
