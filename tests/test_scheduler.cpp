#include "sched/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "orbit/propagator.h"
#include "orbit/tle.h"
#include "orbit/visibility.h"
#include "util/geo.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace starcdn::sched {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    shell_ = new orbit::Constellation{orbit::WalkerParams{}};
    schedule_ = new LinkSchedule(*shell_, util::paper_cities(),
                                 util::Seconds{30 * 60.0} /* 30 minutes */);
  }
  static void TearDownTestSuite() {
    delete schedule_;
    delete shell_;
    schedule_ = nullptr;
    shell_ = nullptr;
  }
  static orbit::Constellation* shell_;
  static LinkSchedule* schedule_;
};

orbit::Constellation* SchedulerTest::shell_ = nullptr;
LinkSchedule* SchedulerTest::schedule_ = nullptr;

TEST_F(SchedulerTest, EpochCount) {
  EXPECT_EQ(schedule_->epochs(), 120u);  // 30 min / 15 s
  EXPECT_DOUBLE_EQ(schedule_->epoch_duration().value(), 15.0);
}

TEST_F(SchedulerTest, EpochOfClampsToRange) {
  EXPECT_EQ(schedule_->epoch_of(util::Seconds{-5.0}).value(), 0u);
  EXPECT_EQ(schedule_->epoch_of(util::Seconds{0.0}).value(), 0u);
  EXPECT_EQ(schedule_->epoch_of(util::Seconds{15.0}).value(), 1u);
  EXPECT_EQ(schedule_->epoch_of(util::Seconds{1e9}).value(), schedule_->epochs() - 1);
  EXPECT_EQ(schedule_->epoch_of(util::Seconds{1e300}).value(), schedule_->epochs() - 1);
}

TEST_F(SchedulerTest, CandidatesAreValidSatellites) {
  for (std::size_t e = 0; e < schedule_->epochs(); e += 17) {
    for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
      for (const auto& cand : schedule_->candidates(util::EpochIdx{e}, util::CityId{static_cast<std::uint32_t>(c)})) {
        EXPECT_GE(cand.sat.value(), 0);
        EXPECT_LT(cand.sat.value(), shell_->size());
        // One-way GSL delay at 550 km with a 25-degree mask: 1.8 - 5 ms.
        EXPECT_GT(cand.gsl_one_way_ms, 1.7F);
        EXPECT_LT(cand.gsl_one_way_ms, 5.5F);
      }
    }
  }
}

TEST_F(SchedulerTest, MidLatitudeCitiesAlwaysCovered) {
  for (std::size_t e = 0; e < schedule_->epochs(); ++e) {
    for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
      EXPECT_FALSE(schedule_->candidates(util::EpochIdx{e}, util::CityId{static_cast<std::uint32_t>(c)}).empty())
          << "city " << c << " uncovered at epoch " << e;
    }
  }
}

TEST_F(SchedulerTest, PaperReportsManySatellitesInView) {
  // §3.1.2: "a Starlink client often has 10+ satellites in view". With the
  // top-K cap at 10 the mean should be close to the cap at these latitudes.
  EXPECT_GT(schedule_->mean_candidates(), 5.0);
}

TEST_F(SchedulerTest, FirstContactStableWithinEpoch) {
  const auto a = schedule_->first_contact(util::EpochIdx{5}, util::CityId{2}, 7);
  const auto b = schedule_->first_contact(util::EpochIdx{5}, util::CityId{2}, 7);
  EXPECT_EQ(a.sat, b.sat);
}

TEST_F(SchedulerTest, FirstContactReshufflesAcrossEpochs) {
  // The Starlink scheduler reconfigures every 15 s; over many epochs one
  // user must not stay pinned to a single satellite.
  std::set<int> sats;
  for (std::size_t e = 0; e < schedule_->epochs(); ++e) {
    sats.insert(schedule_->first_contact(util::EpochIdx{e}, util::CityId{0}, 7).sat.value());
  }
  EXPECT_GT(sats.size(), 5u);
}

TEST_F(SchedulerTest, UsersSpreadOverCandidates) {
  // Within one epoch, different users must land on different satellites
  // (the multi-satellite redundancy challenge, §3.1.2).
  std::set<int> sats;
  for (std::uint64_t user = 0; user < 64; ++user) {
    sats.insert(schedule_->first_contact(util::EpochIdx{10}, util::CityId{4}, user).sat.value());
  }
  EXPECT_GT(sats.size(), 3u);
}

TEST(Scheduler, EmptyCellForUncoveredCity) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const std::vector<util::City> arctic = {
      {"Alert", {82.5, -62.3}, 1.0, "en"}};
  const LinkSchedule schedule(shell, arctic, util::Seconds{60.0});
  EXPECT_TRUE(schedule.candidates(util::EpochIdx{0}, util::CityId{0}).empty());
  EXPECT_EQ(schedule.first_contact(util::EpochIdx{0}, util::CityId{0}, 1).sat.value(), -1);
}

TEST(Scheduler, CustomParams) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  SchedulerParams params;
  params.epoch = util::Seconds{60.0};
  params.candidates_per_cell = 2;
  const LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0}, params);
  EXPECT_EQ(schedule.epochs(), 10u);
  for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
    EXPECT_LE(schedule.candidates(util::EpochIdx{0}, util::CityId{static_cast<std::uint32_t>(c)}).size(), 2u);
  }
}

// --- SchedulerParams validation --------------------------------------------

/// Builds a short schedule with `params` and expects an invalid_argument
/// whose message names `field`.
void expect_rejected(const SchedulerParams& params, util::Seconds duration,
                     const std::string& field) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  try {
    const LinkSchedule schedule(shell, util::paper_cities(), duration, params);
    ADD_FAILURE() << field << ": accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SchedulerValidation, RejectsNonPositiveUsersPerCity) {
  // Simulator::build_context takes a user id modulo users_per_city.
  for (const int users : {0, -3}) {
    SchedulerParams params;
    params.users_per_city = users;
    expect_rejected(params, util::Seconds{60.0},
                    "SchedulerParams.users_per_city");
  }
}

TEST(SchedulerValidation, RejectsNonPositiveOrNonFiniteEpoch) {
  for (const double epoch : {0.0, -15.0, kInf, kNaN}) {
    SchedulerParams params;
    params.epoch = util::Seconds{epoch};
    expect_rejected(params, util::Seconds{60.0}, "SchedulerParams.epoch");
  }
}

TEST(SchedulerValidation, RejectsNonFiniteDuration) {
  // 1e300 s is finite, but its epoch count is past any index.
  for (const double duration : {kInf, -kInf, kNaN, 1e300}) {
    expect_rejected(SchedulerParams{}, util::Seconds{duration}, "duration");
  }
}

TEST(SchedulerValidation, RejectsNonPositiveCandidatesPerCell) {
  for (const int k : {0, -1}) {
    SchedulerParams params;
    params.candidates_per_cell = k;
    expect_rejected(params, util::Seconds{60.0},
                    "SchedulerParams.candidates_per_cell");
  }
}

// --- The table against a full scan ------------------------------------------

using Table = std::vector<std::vector<Candidate>>;  // [epoch * cities + city]

/// The table by definition: per epoch, every slot's position, then per city
/// the top-K of VisibilityOracle's full scan of the active satellites.
Table reference_table(const orbit::Constellation& shell,
                      const std::vector<util::City>& cities,
                      util::Seconds duration, const SchedulerParams& params) {
  const orbit::VisibilityOracle oracle(params.min_elevation);
  const auto epochs = static_cast<std::size_t>(
      std::max(1.0, std::ceil(duration / params.epoch)));
  Table table(epochs * cities.size());
  for (std::size_t e = 0; e < epochs; ++e) {
    const auto positions =
        shell.all_positions_ecef(static_cast<double>(e) * params.epoch);
    for (std::size_t c = 0; c < cities.size(); ++c) {
      const auto visible = oracle.visible_from_ecef(
          orbit::geodetic_to_ecef(cities[c].coord), shell, positions);
      const std::size_t k = std::min(
          visible.size(), static_cast<std::size_t>(params.candidates_per_cell));
      for (std::size_t i = 0; i < k; ++i) {
        table[e * cities.size() + c].push_back(
            {visible[i].sat,
             static_cast<float>(
                 util::propagation_delay(visible[i].range).value())});
      }
    }
  }
  return table;
}

/// Bitwise equality of a schedule with a reference table: same cells, same
/// satellites in the same order, same delay bits.
void expect_same_table(const LinkSchedule& schedule, const Table& reference) {
  ASSERT_EQ(schedule.epochs() * schedule.cities(), reference.size());
  std::size_t candidates = 0;
  for (std::size_t e = 0; e < schedule.epochs(); ++e) {
    for (std::size_t c = 0; c < schedule.cities(); ++c) {
      const auto cell = schedule.candidates(
          util::EpochIdx{e}, util::CityId{static_cast<std::uint32_t>(c)});
      const auto& want = reference[e * schedule.cities() + c];
      ASSERT_EQ(cell.size(), want.size()) << "epoch " << e << " city " << c;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(cell[i].sat, want[i].sat)
            << "epoch " << e << " city " << c << " rank " << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(cell[i].gsl_one_way_ms),
                  std::bit_cast<std::uint32_t>(want[i].gsl_one_way_ms))
            << "epoch " << e << " city " << c << " rank " << i;
      }
      candidates += want.size();
    }
  }
  EXPECT_GT(candidates, 0U);
}

/// Builds the schedule at 1 and at 8 threads and checks both against the
/// reference table.
void expect_matches_reference(const orbit::Constellation& shell,
                              const std::vector<util::City>& cities,
                              util::Seconds duration,
                              const SchedulerParams& params = {}) {
  const Table reference = reference_table(shell, cities, duration, params);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::set_parallel_threads(threads);
    const LinkSchedule schedule(shell, cities, duration, params);
    util::set_parallel_threads(0);
    expect_same_table(schedule, reference);
  }
}

constexpr util::Seconds kThreeHours{3 * 3600.0};

TEST(SchedulerReference, PaperShell) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  expect_matches_reference(shell, util::paper_cities(), kThreeHours);
}

TEST(SchedulerReference, PaperShellWithFailures) {
  orbit::Constellation shell{orbit::WalkerParams{}};
  util::Rng rng(util::splitmix64(7 ^ 0xfa11edULL));
  shell.knock_out_random(0.097, rng);
  expect_matches_reference(shell, util::global_cities(), kThreeHours);
}

TEST(SchedulerReference, PartialTleShellWithMixedAltitudes) {
  // Two thirds of the paper grid from TLEs, at four altitudes: the elements
  // differ per satellite, and the fastest (lowest) orbit sets the bound.
  const orbit::WalkerParams grid;
  const orbit::Constellation walker{grid};
  const double altitudes_km[] = {480.0, 550.0, 610.0, 720.0};
  std::vector<orbit::Tle> tles;
  for (int i = 0; i < walker.size(); ++i) {
    if (i % 3 == 0) continue;
    orbit::CircularElements e =
        walker.elements(walker.id_of(util::SatId{i}));
    e.semi_major_axis =
        util::Km{util::kEarthRadiusKm + altitudes_km[i % 4]};
    orbit::Tle t;
    t.catalog_number = 60'000 + i;
    t.inclination_deg = util::to_degrees(e.inclination).value();
    t.raan_deg = util::to_degrees(e.raan).value();
    t.mean_anomaly_deg = util::to_degrees(e.arg_latitude_epoch).value();
    t.mean_motion_rev_day = util::kDay / orbital_period(e);
    tles.push_back(t);
  }
  const orbit::Constellation shell(grid, tles);
  ASSERT_EQ(shell.active_count(), static_cast<int>(tles.size()));
  expect_matches_reference(shell, util::paper_cities(), kThreeHours);
}

TEST(SchedulerReference, HighWalkerShell) {
  orbit::WalkerParams p;
  p.planes = 36;
  p.slots_per_plane = 20;
  p.inclination = util::Degrees{70.0};
  p.altitude = util::Km{1200.0};
  p.phase_factor = 5;
  const orbit::Constellation shell{p};
  expect_matches_reference(shell, util::global_cities(), kThreeHours);
}

TEST(SchedulerReference, ElevationMasks) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  for (const double mask : {10.0, 40.0}) {
    SCOPED_TRACE("min_elevation " + std::to_string(mask));
    SchedulerParams params;
    params.min_elevation = util::Degrees{mask};
    expect_matches_reference(shell, util::paper_cities(), kThreeHours,
                             params);
  }
}

TEST(SchedulerReference, MinuteEpochs) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  SchedulerParams params;
  params.epoch = util::Seconds{60.0};
  expect_matches_reference(shell, util::paper_cities(),
                           util::Seconds{8 * 3600.0}, params);
}

TEST(SchedulerReference, TwoCandidatesPerCell) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  SchedulerParams params;
  params.candidates_per_cell = 2;
  expect_matches_reference(shell, util::paper_cities(), kThreeHours, params);
}

// --- Full-day pins -----------------------------------------------------------

/// Digest of every cell: its size, then each candidate's satellite and the
/// bits of its delay.
std::uint64_t table_digest(const LinkSchedule& schedule) {
  std::uint64_t h = 0;
  for (std::size_t e = 0; e < schedule.epochs(); ++e) {
    for (std::size_t c = 0; c < schedule.cities(); ++c) {
      const auto cell = schedule.candidates(
          util::EpochIdx{e}, util::CityId{static_cast<std::uint32_t>(c)});
      h = util::hash_combine(h, cell.size());
      for (const Candidate& cand : cell) {
        h = util::hash_combine(h, static_cast<std::uint64_t>(cand.sat.value()));
        h = util::hash_combine(
            h, std::bit_cast<std::uint32_t>(cand.gsl_one_way_ms));
      }
    }
  }
  return h;
}

// Both digests were captured from the full-scan builder (every slot
// propagated and scanned for every cell) before the wake-bound builder
// replaced it; they pin the whole day, which the reference tests above
// cover only in part.
TEST(SchedulerPin, FullDayPaperShell) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const LinkSchedule schedule(shell, util::paper_cities(), util::kDay);
  ASSERT_EQ(schedule.epochs(), 5760U);
  EXPECT_EQ(table_digest(schedule), 0x5a6005f17863d8e2ULL);
}

TEST(SchedulerPin, FullDayPaperShellWithBenchmarkFailures) {
  // web_failover_serial's knock-out at seed 1: 9.7% of slots.
  orbit::Constellation shell{orbit::WalkerParams{}};
  util::Rng rng(util::splitmix64(1 ^ 0xfa11edULL));
  shell.knock_out_random(0.097, rng);
  ASSERT_EQ(shell.active_count(), 1296 - 126);
  const LinkSchedule schedule(shell, util::paper_cities(), util::kDay);
  EXPECT_EQ(table_digest(schedule), 0x1c69b4bfae7584baULL);
}

}  // namespace
}  // namespace starcdn::sched
