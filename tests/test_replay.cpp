#include "replay/replayer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/simulator.h"
#include "tcp_pair.h"
#include "util/parallel.h"

namespace starcdn::replay {
namespace {

/// Small cluster so the TCP replay stays cheap: 6x4 grid = 24 workers,
/// over ten minutes.
core::Scenario small_scenario() {
  core::Scenario s;
  s.shell.planes = 6;
  s.shell.slots_per_plane = 4;
  s.workload.object_count = 2'000;
  s.workload.duration_s = 600.0;
  return s;
}

std::vector<trace::Request> small_requests(const trace::WorkloadModel& w) {
  std::vector<trace::Request> reqs;
  for (std::size_t c = 0; c < w.cities().size(); ++c) {
    const auto t = w.generate_city(c, 400);
    reqs.insert(reqs.end(), t.requests.begin(), t.requests.end());
  }
  std::sort(reqs.begin(), reqs.end(),
            [](const auto& a, const auto& b) {
              return a.timestamp_s < b.timestamp_s;
            });
  return reqs;
}

struct ThreadOverrideGuard {
  explicit ThreadOverrideGuard(int n) { util::set_parallel_threads(n); }
  ~ThreadOverrideGuard() { util::set_parallel_threads(0); }
};

core::SimConfig config_at(util::Bytes capacity) {
  return core::SimConfig::Builder{}.cache_capacity(capacity).build();
}

core::RunReport cluster(const core::Scenario::Built& s,
                        const std::vector<trace::Request>& requests,
                        const core::SimConfig& cfg) {
  trace::VectorStream stream(requests);
  return replay_cluster(*s.shell, *s.schedule, stream, cfg);
}

const core::VariantMetrics& starcdn(const core::RunReport& report) {
  return report.variant(core::Variant::kStarCdn).metrics;
}

TEST(Replay, BasicAccounting) {
  const core::Scenario::Built s = small_scenario().build();
  const auto requests = small_requests(*s.model);

  const auto report = cluster(s, requests, config_at(util::mib(512)));
  ASSERT_EQ(report.variants.size(), 1u);
  const core::VariantMetrics& m = starcdn(report);
  EXPECT_EQ(m.requests, requests.size());
  EXPECT_GT(m.hits(), 0u);
  EXPECT_EQ(m.hits() + m.misses, m.requests);
  EXPECT_GT(m.request_hit_rate(), 0.0);
  EXPECT_GT(m.uplink_bytes, 0u);
}

TEST(Replay, RelayImprovesHitRate) {
  const core::Scenario::Built s = small_scenario().build();
  const auto requests = small_requests(*s.model);

  const auto with_relay = config_at(util::mib(128));
  auto no_east = with_relay;
  no_east.relay_east = false;

  const auto full = cluster(s, requests, with_relay);
  const auto west_only = cluster(s, requests, no_east);
  EXPECT_GE(starcdn(full).hits(), starcdn(west_only).hits());
  EXPECT_GT(starcdn(full).relay_west_hits + starcdn(full).relay_east_hits,
            0u);
}

TEST(Replay, DeterministicAcrossRuns) {
  const core::Scenario::Built s = small_scenario().build();
  const auto requests = small_requests(*s.model);
  const auto cfg = config_at(util::mib(64));
  const auto a = cluster(s, requests, cfg);
  const auto b = cluster(s, requests, cfg);
  EXPECT_EQ(a.variants.at(0).counters, b.variants.at(0).counters);
  EXPECT_EQ(starcdn(a).latency_ms.samples(), starcdn(b).latency_ms.samples());
}

// One request pipeline: the cluster is the simulator over remote caches, so
// where the caches live must not change a single counter or latency sample.
TEST(Replay, ClusterMatchesSimulatorBitForBit) {
  core::Scenario recipe = small_scenario();
  const core::Scenario::Built healthy = recipe.build();
  recipe.fail_fraction = 0.1;
  recipe.failure_seed = 7;
  const core::Scenario::Built failed = recipe.build();
  ASSERT_LT(failed.shell->active_count(), failed.shell->size());
  const auto requests = small_requests(*healthy.model);

  struct Case {
    const char* name;
    const core::Scenario::Built* scenario;
    core::SimConfig cfg;
  };
  auto outages = config_at(util::mib(128));
  outages.transient_down_prob = 0.05;
  outages.transient_window = util::Seconds{120.0};
  const Case cases[] = {{"64MiB", &healthy, config_at(util::mib(64))},
                        {"512MiB", &healthy, config_at(util::mib(512))},
                        {"failed+transient", &failed, outages}};

  for (const Case& c : cases) {
    core::SimConfig star = c.cfg;
    star.variants = {core::Variant::kStarCdn};
    core::Simulator sim(*c.scenario->shell, *c.scenario->schedule, star);
    trace::VectorStream stream(requests);
    sim.run(stream);
    const core::RunReport local = sim.finish();
    if (c.cfg.transient_down_prob > 0.0) {
      ASSERT_GT(starcdn(local).transient_misses, 0u) << c.name;
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.name) + " threads=" + std::to_string(threads));
      const ThreadOverrideGuard guard(threads);
      const auto remote = cluster(*c.scenario, requests, c.cfg);
      ASSERT_EQ(remote.variants.size(), 1u);
      EXPECT_EQ(remote.variants[0].counters, local.variants[0].counters);
      EXPECT_EQ(starcdn(remote).latency_ms.count(),
                starcdn(local).latency_ms.count());
      EXPECT_EQ(starcdn(remote).latency_ms.samples(),
                starcdn(local).latency_ms.samples());
    }
  }
}

TEST(Replay, RejectsVariantsOtherThanStarCdn) {
  const core::Scenario::Built s = small_scenario().build();
  const std::vector<trace::Request> none;
  auto cfg = core::SimConfig::Builder{}
                 .variants({core::Variant::kStarCdn, core::Variant::kHashOnly})
                 .build();
  try {
    (void)cluster(s, none, cfg);
    ADD_FAILURE() << "two variants accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SimConfig::variants"),
              std::string::npos)
        << e.what();
  }
  cfg.variants = {core::Variant::kStarCdn};
  EXPECT_EQ(starcdn(cluster(s, none, cfg)).requests, 0u);
}

TEST(Replay, RemoteCacheRejectsAMismatchedReplyId) {
  auto [orch, node] = net::tcp_pair();
  RemoteCache cache(*orch, cache::Policy::kLru, util::mib(1));
  net::Message stale;
  stale.type = net::MessageType::kResponse;
  stale.request_id = 41;
  node->send(stale);
  try {
    (void)cache.touch(7);
    ADD_FAILURE() << "reply to request 41 accepted for request 1";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("41"), std::string::npos) << what;
    EXPECT_NE(what.find(" 1 "), std::string::npos) << what;
  }
  EXPECT_THROW((void)cache.hottest(4), std::logic_error);
}

TEST(Replay, HelloSlotRejectsOutOfRangeAndDuplicateNodes) {
  std::vector<std::unique_ptr<net::TcpChannel>> channels(3);
  EXPECT_EQ(hello_slot(channels, 0), 0u);
  EXPECT_EQ(hello_slot(channels, 2), 2u);
  try {
    (void)hello_slot(channels, 3);
    ADD_FAILURE() << "src 3 of 3 nodes accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("node 3"), std::string::npos) << what;
    EXPECT_NE(what.find("3 nodes"), std::string::npos) << what;
  }
  EXPECT_THROW((void)hello_slot(channels, 0xffffffffu), std::runtime_error);
  channels[1] = net::tcp_pair().first;
  EXPECT_THROW((void)hello_slot(channels, 1), std::runtime_error);
}

}  // namespace
}  // namespace starcdn::replay
