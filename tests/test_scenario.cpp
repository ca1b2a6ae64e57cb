// Scenario::build() is the one assembly of workload, shell, knock-outs and
// link schedule. It must give what the hand assembly it replaced gives, so
// any caller can move onto it without a counter changing.
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "trace/stream.h"
#include "util/hash.h"
#include "util/rng.h"

namespace starcdn::core {
namespace {

TEST(Scenario, BuildMatchesHandAssembly) {
  // web_failover_serial's recipe at seed 1, at a small volume: web class,
  // 9.7% of slots knocked out with perfbench's failure seed.
  constexpr std::uint64_t kSeed = 1;
  Scenario recipe;
  recipe.workload = trace::default_params(trace::TrafficClass::kWeb);
  recipe.workload.duration_s = 2 * util::kHour.value();
  recipe.workload.requests_per_weight = 4'000;
  recipe.workload.seed = kSeed;
  recipe.fail_fraction = 0.097;
  recipe.failure_seed = util::splitmix64(kSeed ^ 0xfa11edULL);
  const Scenario::Built built = recipe.build();

  const trace::WorkloadModel model(util::paper_cities(), recipe.workload);
  orbit::Constellation shell{orbit::WalkerParams{}};
  util::Rng rng(util::splitmix64(kSeed ^ 0xfa11edULL));
  shell.knock_out_random(0.097, rng);
  const sched::LinkSchedule schedule(
      shell, util::paper_cities(), util::Seconds{recipe.workload.duration_s});

  // The active set of SchedulerPin.FullDayPaperShellWithBenchmarkFailures.
  ASSERT_EQ(built.shell->active_count(), 1296 - 126);
  for (int i = 0; i < shell.size(); ++i) {
    ASSERT_EQ(built.shell->active(util::SatId{i}), shell.active(util::SatId{i}))
        << "slot " << i;
  }

  ASSERT_EQ(built.schedule->epochs(), schedule.epochs());
  ASSERT_EQ(built.schedule->cities(), schedule.cities());
  for (std::size_t e = 0; e < schedule.epochs(); ++e) {
    for (std::uint32_t c = 0; c < schedule.cities(); ++c) {
      const auto a = built.schedule->candidates(util::EpochIdx{e},
                                                util::CityId{c});
      const auto b = schedule.candidates(util::EpochIdx{e}, util::CityId{c});
      ASSERT_EQ(a.size(), b.size()) << "epoch " << e << " city " << c;
      for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a[k].sat, b[k].sat);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a[k].gsl_one_way_ms),
                  std::bit_cast<std::uint32_t>(b[k].gsl_one_way_ms));
      }
    }
  }

  const auto got = trace::collect(*built.model->generate_stream());
  const auto want = trace::collect(*model.generate_stream());
  ASSERT_GT(want.size(), 10'000u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].timestamp_s),
              std::bit_cast<std::uint64_t>(want[i].timestamp_s))
        << "request " << i;
    ASSERT_EQ(got[i].object, want[i].object) << "request " << i;
    ASSERT_EQ(got[i].size, want[i].size) << "request " << i;
    ASSERT_EQ(got[i].location, want[i].location) << "request " << i;
  }
}

TEST(Scenario, NonFiniteFailFractionThrows) {
  Scenario recipe;
  recipe.workload.object_count = 1'000;
  recipe.workload.duration_s = 60.0;
  recipe.fail_fraction = std::nan("");
  EXPECT_THROW((void)recipe.build(), std::invalid_argument);
}

}  // namespace
}  // namespace starcdn::core
