// User-to-satellite link scheduling (the Starlink scheduler model).
//
// Starlink reassigns user terminals to satellites every 15 seconds (§3.1.2,
// [51]); at any instant a user sees 10+ candidate satellites. We model this
// as discrete epochs: per (epoch, city) we precompute the top-K visible
// satellites, and each logical user of that city is hashed onto one of
// them for the duration of the epoch. Precomputing the schedule once lets
// every simulator variant and cache configuration replay the same orbital
// dynamics without recomputing geometry.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "orbit/constellation.h"
#include "orbit/visibility.h"
#include "util/geo.h"
#include "util/ids.h"
#include "util/units.h"

namespace starcdn::sched {

struct Candidate {
  util::SatId sat = util::kNoSat;
  /// One-way GSL delay from the slant range at epoch start. Intentionally a
  /// raw float, not util::Millis: the schedule table is the simulator's
  /// largest resident structure and the paper's precision needs fit in 32
  /// bits (see DESIGN.md §10). Widen via Millis{candidate.gsl_one_way_ms}.
  float gsl_one_way_ms = 0.0F;
};

/// Validated by the LinkSchedule constructor, which throws
/// std::invalid_argument naming the offending field.
struct SchedulerParams {
  util::Seconds epoch{15.0};       // Starlink reconfigure interval
  util::Degrees min_elevation{25.0};
  int candidates_per_cell = 10;    // top-K satellites kept per (epoch, city)
  int users_per_city = 64;         // logical user terminals per city
};

/// Precomputed link schedule over a time horizon.
class LinkSchedule {
 public:
  LinkSchedule(const orbit::Constellation& constellation,
               const std::vector<util::City>& cities, util::Seconds duration,
               const SchedulerParams& params = {});

  [[nodiscard]] std::size_t epochs() const noexcept { return epochs_; }
  /// Number of cities scheduled; a request's location must be below it.
  [[nodiscard]] std::size_t cities() const noexcept { return n_cities_; }
  [[nodiscard]] util::Seconds epoch_duration() const noexcept {
    return params_.epoch;
  }
  [[nodiscard]] const SchedulerParams& params() const noexcept {
    return params_;
  }

  [[nodiscard]] util::EpochIdx epoch_of(util::Seconds t) const noexcept;

  /// Candidate set for a city at an epoch, best first (possibly empty
  /// during a coverage gap).
  [[nodiscard]] std::span<const Candidate> candidates(
      util::EpochIdx epoch, util::CityId city) const noexcept {
    const std::size_t cell = epoch.value() * n_cities_ + city.value();
    return {candidates_.data() + cell * k_, counts_[cell]};
  }

  /// First-contact satellite for a logical user, stable within an epoch and
  /// re-randomized across epochs (the scheduler's 15 s reshuffle).
  [[nodiscard]] Candidate first_contact(util::EpochIdx epoch,
                                        util::CityId city,
                                        std::uint64_t user_id) const noexcept;

  /// Mean number of visible satellites across cells (sanity statistic; the
  /// paper quotes "10+ satellites in view").
  [[nodiscard]] double mean_candidates() const noexcept;

 private:
  SchedulerParams params_;
  std::size_t n_cities_ = 0;
  std::size_t epochs_ = 0;
  std::size_t k_ = 0;  // candidate slots per cell
  // One flat table: cell (epoch * n_cities + city) owns the k_ slots from
  // cell * k_, of which the first counts_[cell] are filled.
  std::vector<Candidate> candidates_;
  std::vector<std::uint32_t> counts_;
};

}  // namespace starcdn::sched
