// The uplink bandwidth meter.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "net/bandwidth.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace starcdn {
namespace {

TEST(UplinkMeter, ThroughputArithmetic) {
  net::UplinkMeter meter(util::Seconds{15.0}, util::gbps(20.0));
  // 1 GB in one epoch = 8 Gb / 15 s ≈ 0.533 Gbps.
  meter.add(util::SatId{7}, util::EpochIdx{0}, 1'000'000'000);
  meter.flush();
  EXPECT_EQ(meter.throughput_gbps().count(), 1u);
  EXPECT_NEAR(meter.throughput_gbps().mean(), 0.533, 0.01);
  EXPECT_EQ(meter.overloaded_cells(), 0u);
  EXPECT_EQ(meter.total_bytes(), 1'000'000'000u);
}

TEST(UplinkMeter, AccumulatesWithinEpochSplitsAcross) {
  net::UplinkMeter meter(util::Seconds{15.0}, util::gbps(20.0));
  meter.add(util::SatId{1}, util::EpochIdx{0}, 500);
  meter.add(util::SatId{1}, util::EpochIdx{0}, 500);   // same cell
  meter.add(util::SatId{1}, util::EpochIdx{1}, 500);   // next epoch: first cell flushed
  meter.flush();
  EXPECT_EQ(meter.throughput_gbps().count(), 2u);
}

TEST(UplinkMeter, DetectsOverload) {
  net::UplinkMeter meter(util::Seconds{15.0}, util::gbps(20.0));
  // 20 Gbps * 15 s = 37.5 GB; exceed it.
  meter.add(util::SatId{3}, util::EpochIdx{0}, 40'000'000'000ULL);
  meter.flush();
  EXPECT_EQ(meter.overloaded_cells(), 1u);
}

TEST(UplinkMeter, SeparateSatellitesSeparateCells) {
  net::UplinkMeter meter;
  meter.add(util::SatId{1}, util::EpochIdx{0}, 100);
  meter.add(util::SatId{2}, util::EpochIdx{0}, 100);
  meter.flush();
  EXPECT_EQ(meter.throughput_gbps().count(), 2u);
}

TEST(UplinkMeter, MatchesMapReference) {
  // The dense meter against a map-based reference of the same accounting:
  // counts, peak, overloads and bytes are exact; the mean, summed in a
  // different cell order, agrees to rounding.
  struct Reference {
    std::map<int, util::Bytes> cells;
    util::RunningStats stats;
    std::uint64_t overloads = 0;
    void flush() {
      for (const auto& [sat, bytes] : cells) {
        const double gbps = static_cast<double>(bytes) * 8.0 / 1e9 / 15.0;
        stats.add(gbps);
        if (gbps > 20.0) ++overloads;
      }
      cells.clear();
    }
  };
  std::uint64_t overloads = 0, cells = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    net::UplinkMeter meter(util::Seconds{15.0}, util::gbps(20.0));
    Reference ref;
    util::Bytes total = 0;
    std::size_t epoch = 0;
    for (int i = 0; i < 20'000; ++i) {
      if (rng.bernoulli(0.005)) {
        epoch += 1 + rng.below(3);
        ref.flush();
      }
      const int sat = static_cast<int>(rng.below(seed == 1 ? 16 : 1'296));
      const util::Bytes bytes = 1 + rng.below(util::gib(16));
      meter.add(util::SatId{sat}, util::EpochIdx{epoch}, bytes);
      ref.cells[sat] += bytes;
      total += bytes;
    }
    meter.flush();
    ref.flush();
    SCOPED_TRACE("seed " + std::to_string(seed));
    const util::RunningStats& got = meter.throughput_gbps();
    EXPECT_EQ(got.count(), ref.stats.count());
    EXPECT_EQ(got.max(), ref.stats.max());
    EXPECT_EQ(meter.overloaded_cells(), ref.overloads);
    EXPECT_EQ(meter.total_bytes(), total);
    EXPECT_NEAR(got.mean(), ref.stats.mean(), 1e-12 * ref.stats.mean());
    overloads += ref.overloads;
    cells += ref.stats.count();
  }
  // 16 slots overload most cells, 1,296 slots few.
  EXPECT_GT(overloads, 0u);
  EXPECT_LT(overloads, cells);
}

}  // namespace
}  // namespace starcdn
