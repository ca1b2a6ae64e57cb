#include "core/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cache/cache.h"

namespace starcdn::core {
namespace {

TEST(VariantMetrics, RatesFromCounters) {
  VariantMetrics m;
  m.requests = 100;
  m.local_hits = 40;
  m.routed_hits = 20;
  m.relay_west_hits = 8;
  m.relay_east_hits = 2;
  m.misses = 30;
  EXPECT_EQ(m.hits(), 70u);
  EXPECT_DOUBLE_EQ(m.request_hit_rate(), 0.7);

  m.bytes_requested = 1'000;
  m.bytes_hit = 600;
  m.uplink_bytes = 400;
  EXPECT_DOUBLE_EQ(m.byte_hit_rate(), 0.6);
  EXPECT_DOUBLE_EQ(m.normalized_uplink(), 0.4);
}

TEST(VariantMetrics, EmptyIsZeroNotNan) {
  const VariantMetrics m;
  EXPECT_EQ(m.request_hit_rate(), 0.0);
  EXPECT_EQ(m.byte_hit_rate(), 0.0);
  EXPECT_EQ(m.normalized_uplink(), 0.0);
}

/// Counters that satisfy every conservation identity.
VariantMetrics balanced() {
  VariantMetrics m;
  m.requests = 100;
  m.local_hits = 40;
  m.routed_hits = 20;
  m.relay_west_hits = 8;
  m.relay_east_hits = 2;
  m.misses = 30;
  m.relay_both_requests = 3;
  m.relay_west_only_requests = 5;
  m.relay_east_only_requests = 2;
  m.bytes_requested = 1'000;
  m.bytes_hit = 600;
  m.uplink_bytes = 400;
  return m;
}

/// The check's message, or "" when it passes.
std::string conservation_error(const VariantMetrics& m) {
  try {
    check_conservation(m, "StarCDN");
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(Conservation, BalancedCountersPass) {
  const VariantMetrics empty;
  EXPECT_EQ(conservation_error(balanced()), "");
  EXPECT_EQ(conservation_error(empty), "");
}

TEST(Conservation, LostRequestNamesVariantAndIdentity) {
  VariantMetrics m = balanced();
  ++m.misses;
  const std::string err = conservation_error(m);
  EXPECT_NE(err.find("StarCDN"), std::string::npos) << err;
  EXPECT_NE(err.find("requests == local_hits"), std::string::npos) << err;
}

TEST(Conservation, LostByteNamesIdentity) {
  VariantMetrics m = balanced();
  ++m.uplink_bytes;
  const std::string err = conservation_error(m);
  EXPECT_NE(err.find("StarCDN"), std::string::npos) << err;
  EXPECT_NE(err.find("bytes_requested == bytes_hit + uplink_bytes"),
            std::string::npos)
      << err;
}

TEST(Conservation, RelayOutcomeWithoutHitNamesIdentity) {
  VariantMetrics west = balanced();
  ++west.relay_west_only_requests;
  EXPECT_NE(conservation_error(west).find(
                "relay_both_requests + relay_west_only_requests == "
                "relay_west_hits"),
            std::string::npos)
      << conservation_error(west);

  VariantMetrics east = balanced();
  ++east.relay_east_only_requests;
  EXPECT_NE(conservation_error(east).find(
                "relay_east_only_requests == relay_east_hits"),
            std::string::npos)
      << conservation_error(east);
}

TEST(CacheStats, MergeAccumulates) {
  starcdn::cache::CacheStats a, b;
  a.requests = 10;
  a.hits = 5;
  a.bytes_requested = 100;
  a.bytes_hit = 40;
  a.evictions = 2;
  b = a;
  a.merge(b);
  EXPECT_EQ(a.requests, 20u);
  EXPECT_EQ(a.hits, 10u);
  EXPECT_EQ(a.bytes_hit, 80u);
  EXPECT_EQ(a.evictions, 4u);
  EXPECT_DOUBLE_EQ(a.request_hit_rate(), 0.5);
}

}  // namespace
}  // namespace starcdn::core
