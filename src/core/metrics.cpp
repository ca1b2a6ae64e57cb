#include "core/metrics.h"

#include <stdexcept>

namespace starcdn::core {

std::vector<std::string> series_columns() {
  std::vector<std::string> columns;
  for (std::size_t c = 0; c < kSeriesColumns; ++c) {
    columns.emplace_back(kCounters[c].name);
  }
  return columns;
}

void check_conservation(const VariantMetrics& m, std::string_view variant) {
  const auto fail = [&](const char* identity) {
    throw std::logic_error("conservation violated for " +
                           std::string(variant) + ": " + identity);
  };
  if (m.requests != m.hits() + m.misses) {
    fail("requests == local_hits + routed_hits + relay_west_hits + "
         "relay_east_hits + misses");
  }
  if (m.bytes_requested != m.bytes_hit + m.uplink_bytes) {
    fail("bytes_requested == bytes_hit + uplink_bytes");
  }
  if (m.relay_both_requests + m.relay_west_only_requests !=
      m.relay_west_hits) {
    fail("relay_both_requests + relay_west_only_requests == relay_west_hits");
  }
  if (m.relay_east_only_requests != m.relay_east_hits) {
    fail("relay_east_only_requests == relay_east_hits");
  }
}

}  // namespace starcdn::core
