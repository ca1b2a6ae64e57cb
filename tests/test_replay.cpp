#include "replay/replayer.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "trace/workload.h"
#include "util/geo.h"

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

TEST(Replay, InProcessBasicAccounting) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();

  ReplayConfig cfg;
  cfg.cache_capacity = util::mib(512);
  const auto report = replay_cluster(shell, schedule, requests, cfg);
  EXPECT_EQ(report.requests, requests.size());
  EXPECT_GT(report.hits, 0u);
  EXPECT_EQ(report.hits + report.misses, report.requests);
  EXPECT_GT(report.request_hit_rate(), 0.0);
  EXPECT_GT(report.uplink_bytes, 0u);
}

TEST(Replay, TcpModeMatchesInProcessBitForBit) {
  // The paper's replayer uses TCP between per-satellite processes; our two
  // transports must produce identical results — the protocol, not the
  // transport, determines caching behaviour.
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();

  ReplayConfig inproc;
  inproc.cache_capacity = util::mib(256);
  inproc.transport = TransportKind::kInProcess;
  ReplayConfig tcp = inproc;
  tcp.transport = TransportKind::kTcp;

  const auto a = replay_cluster(shell, schedule, requests, inproc);
  const auto b = replay_cluster(shell, schedule, requests, tcp);
  EXPECT_EQ(a, b);
}

TEST(Replay, RelayImprovesHitRate) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();

  ReplayConfig with_relay;
  with_relay.cache_capacity = util::mib(128);
  ReplayConfig no_east = with_relay;
  no_east.relay_east = false;

  const auto full = replay_cluster(shell, schedule, requests, with_relay);
  const auto west_only = replay_cluster(shell, schedule, requests, no_east);
  EXPECT_GE(full.hits, west_only.hits);
  EXPECT_GT(full.relay_hits, 0u);
}

TEST(Replay, DeterministicAcrossRuns) {
  const orbit::Constellation shell{small_shell()};
  const sched::LinkSchedule schedule(shell, util::paper_cities(), util::Seconds{600.0});
  const auto requests = small_requests();
  ReplayConfig cfg;
  cfg.cache_capacity = util::mib(64);
  const auto a = replay_cluster(shell, schedule, requests, cfg);
  const auto b = replay_cluster(shell, schedule, requests, cfg);
  EXPECT_EQ(a, b);
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
