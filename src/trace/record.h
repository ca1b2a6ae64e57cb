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
/// `requests`. The one time-ordering rule: merge_by_time applies it, and
/// sort_minute gives the same order over the workload stream's minutes.
void sort_by_time(std::span<Request> requests);

/// A timestamp and the caller's tag for it (the workload stream's city).
struct TimeKey {
  double timestamp_s = 0.0;
  std::uint32_t tag = 0;
};

/// `in` stably sorted by timestamp into `out` (of equal size): the order
/// std::stable_sort gives, equal timestamps keeping their order in `in`.
/// A counting sort on the bucket q = min(n - 1, (t - start) * (n / (end -
/// start))) of n, then one insertion pass. Equal timestamps share a bucket
/// and the scatter keeps input order, so the result is exact for any
/// input; the bucket is monotone in t, so for timestamps spread over
/// [start, end) the pass only orders entries within a bucket and the
/// whole sort is O(n). Timestamps outside [start, end) cost more, not
/// correctness.
void sort_minute(std::span<const TimeKey> in, double start, double end,
                 std::span<TimeKey> out);

/// Merge per-location traces into one globally time-ordered trace: the
/// traces concatenated in order, then sort_by_time, so ties go by trace
/// index, then position.
[[nodiscard]] std::vector<Request> merge_by_time(const MultiTrace& traces);

enum class TrafficClass : std::uint8_t { kVideo, kWeb, kDownload };

[[nodiscard]] const char* to_string(TrafficClass c) noexcept;

}  // namespace starcdn::trace
