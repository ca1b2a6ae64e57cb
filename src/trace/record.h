// Core trace record types shared by the workload generator, SpaceGEN and
// the simulator.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "util/units.h"

namespace starcdn::trace {

using cache::ObjectId;
using util::Bytes;

/// One content access: who (location), what (object, bytes), when.
struct Request {
  double timestamp_s = 0.0;
  ObjectId object = 0;
  Bytes size = 0;
  std::uint16_t location = 0;  // index into the city list of the scenario
};

/// A request stream for a single location, ordered by timestamp.
struct LocationTrace {
  std::uint16_t location = 0;
  std::string location_name;
  std::vector<Request> requests;

  [[nodiscard]] Bytes total_bytes() const noexcept {
    Bytes b = 0;
    for (const auto& r : requests) b += r.size;
    return b;
  }
};

/// Traces for all locations of a scenario (parallel to its city list).
using MultiTrace = std::vector<LocationTrace>;

/// Stable sort by timestamp: equal timestamps keep their order in
/// `requests`. The one time-ordering rule, shared by merge_by_time and the
/// workload stream's per-minute merge.
void sort_by_time(std::span<Request> requests);

/// Merge per-location traces into one globally time-ordered trace: the
/// traces concatenated in order, then sort_by_time, so ties go by trace
/// index, then position.
[[nodiscard]] std::vector<Request> merge_by_time(const MultiTrace& traces);

enum class TrafficClass : std::uint8_t { kVideo, kWeb, kDownload };

[[nodiscard]] const char* to_string(TrafficClass c) noexcept;

}  // namespace starcdn::trace
