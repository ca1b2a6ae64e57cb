#include "replay/replayer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace starcdn::replay {
namespace {

/// Small cluster so the TCP mode stays cheap: 6x4 grid = 24 workers.
orbit::WalkerParams small_shell() {
  orbit::WalkerParams p;
  p.planes = 6;
  p.slots_per_plane = 4;
  return p;
}

std::vector<trace::Request> small_requests() {
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 2'000;
  p.duration_s = 600.0;
  const trace::WorkloadModel w(util::paper_cities(), p);
  std::vector<trace::Request> reqs;
  for (std::size_t c = 0; c < util::paper_cities().size(); ++c) {
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

core::RunReport cluster(const orbit::Constellation& shell,
                        const sched::LinkSchedule& schedule,
                        const std::vector<trace::Request>& requests,
                        const core::SimConfig& cfg,
                        TransportKind transport = TransportKind::kInProcess) {
  trace::VectorStream stream(requests);
  return replay_cluster(shell, schedule, stream, cfg, transport);
}

const core::VariantMetrics& starcdn(const core::RunReport& report) {
  return report.variant(core::Variant::kStarCdn).metrics;
}

TEST(Replay, InProcessBasicAccounting) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();

  const auto report =
      cluster(shell, schedule, requests, config_at(util::mib(512)));
  ASSERT_EQ(report.variants.size(), 1u);
  const core::VariantMetrics& m = starcdn(report);
  EXPECT_EQ(m.requests, requests.size());
  EXPECT_GT(m.hits(), 0u);
  EXPECT_EQ(m.hits() + m.misses, m.requests);
  EXPECT_GT(m.request_hit_rate(), 0.0);
  EXPECT_GT(m.uplink_bytes, 0u);
}

TEST(Replay, TcpModeMatchesInProcessBitForBit) {
  // The paper's replayer uses TCP between per-satellite processes; our two
  // transports must produce identical results — the protocol, not the
  // transport, determines caching behaviour.
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();
  const auto cfg = config_at(util::mib(256));

  const auto a =
      cluster(shell, schedule, requests, cfg, TransportKind::kInProcess);
  const auto b = cluster(shell, schedule, requests, cfg, TransportKind::kTcp);
  EXPECT_EQ(a.variants.at(0).counters, b.variants.at(0).counters);
}

TEST(Replay, RelayImprovesHitRate) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();

  const auto with_relay = config_at(util::mib(128));
  auto no_east = with_relay;
  no_east.relay_east = false;

  const auto full = cluster(shell, schedule, requests, with_relay);
  const auto west_only = cluster(shell, schedule, requests, no_east);
  EXPECT_GE(starcdn(full).hits(), starcdn(west_only).hits());
  EXPECT_GT(starcdn(full).relay_west_hits + starcdn(full).relay_east_hits,
            0u);
}

TEST(Replay, DeterministicAcrossRuns) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();
  const auto cfg = config_at(util::mib(64));
  const auto a = cluster(shell, schedule, requests, cfg);
  const auto b = cluster(shell, schedule, requests, cfg);
  EXPECT_EQ(a.variants.at(0).counters, b.variants.at(0).counters);
  EXPECT_EQ(starcdn(a).latency_ms.samples(), starcdn(b).latency_ms.samples());
}

// One request pipeline: the cluster is the simulator over remote caches, so
// where the caches live must not change a single counter or latency sample.
TEST(Replay, ClusterMatchesSimulatorBitForBit) {
  const auto requests = small_requests();
  const orbit::Constellation healthy{small_shell()};
  orbit::Constellation failed{small_shell()};
  util::Rng rng(7);
  failed.knock_out_random(0.1, rng);
  ASSERT_LT(failed.active_count(), failed.size());

  struct Case {
    const char* name;
    const orbit::Constellation* shell;
    core::SimConfig cfg;
  };
  auto outages = config_at(util::mib(128));
  outages.transient_down_prob = 0.05;
  outages.transient_window = util::Seconds{120.0};
  const Case cases[] = {{"64MiB", &healthy, config_at(util::mib(64))},
                        {"512MiB", &healthy, config_at(util::mib(512))},
                        {"failed+transient", &failed, outages}};

  for (const Case& c : cases) {
    const sched::LinkSchedule schedule(*c.shell, util::paper_cities(),
                                       util::Seconds{600.0});
    core::Simulator sim(*c.shell, schedule, c.cfg);
    sim.add_variant(core::Variant::kStarCdn);
    trace::VectorStream stream(requests);
    sim.run(stream);
    const core::RunReport local = sim.finish();
    if (c.cfg.transient_down_prob > 0.0) {
      ASSERT_GT(starcdn(local).transient_misses, 0u) << c.name;
    }
    for (const TransportKind transport :
         {TransportKind::kInProcess, TransportKind::kTcp}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(c.name) +
                     (transport == TransportKind::kTcp ? " tcp" : " inproc") +
                     " threads=" + std::to_string(threads));
        const ThreadOverrideGuard guard(threads);
        const auto remote =
            cluster(*c.shell, schedule, requests, c.cfg, transport);
        ASSERT_EQ(remote.variants.size(), 1u);
        EXPECT_EQ(remote.variants[0].counters, local.variants[0].counters);
        EXPECT_EQ(starcdn(remote).latency_ms.count(),
                  starcdn(local).latency_ms.count());
        EXPECT_EQ(starcdn(remote).latency_ms.samples(),
                  starcdn(local).latency_ms.samples());
      }
    }
  }
}

TEST(Replay, RejectsVariantsOtherThanStarCdn) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{600.0});
  const std::vector<trace::Request> none;
  auto cfg = core::SimConfig::Builder{}
                 .variants({core::Variant::kStarCdn, core::Variant::kHashOnly})
                 .build();
  try {
    (void)cluster(shell, schedule, none, cfg);
    ADD_FAILURE() << "two variants accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SimConfig::variants"),
              std::string::npos)
        << e.what();
  }
  cfg.variants = {core::Variant::kStarCdn};
  EXPECT_EQ(starcdn(cluster(shell, schedule, none, cfg)).requests, 0u);
}

TEST(Replay, RemoteCacheRejectsAMismatchedReplyId) {
  auto [orch, node] = net::make_inproc_pair();
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
  std::vector<std::unique_ptr<net::Channel>> channels(3);
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
  channels[1] = net::make_inproc_pair().first;
  EXPECT_THROW((void)hello_slot(channels, 1), std::runtime_error);
}

}  // namespace
}  // namespace starcdn::replay
