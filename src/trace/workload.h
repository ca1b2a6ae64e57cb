// Synthetic *production* workload generator — the substitution for the
// Akamai traces the paper collected (see DESIGN.md §3).
//
// The paper's nine-city video trace exhibits three structural properties
// its results depend on:
//   1. heavy-tailed (Zipf-like) per-city object popularity,
//   2. cross-city content overlap that decays with geographic distance and
//      language region (Table 2, Fig. 2): nearby same-language cities share
//      ~55% of objects and ~90% of traffic, distant ones ~10-25%,
//   3. per-traffic-class size distributions (video ~MB objects dominating
//      bytes; web small and numerous; downloads few but large).
//
// The model realizes these with an object universe in which every object
// has a home city, a heavy-tailed base popularity, and a popularity-
// correlated geographic reach; its weight in city c decays exponentially
// with distance(home, c)/reach and is scaled by a region-affinity factor.
// Each city's request count is split multinomially over the minutes of the
// trace, weighted by a diurnal profile in the city's local time (and by the
// length of a partial last minute). A (city, minute) block then places its
// requests uniformly inside the minute and draws their objects i.i.d. from
// the city's weight table — the same joint law as i.i.d. (time, object)
// draws sorted by time, produced directly in time order.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "trace/record.h"
#include "trace/sampler.h"
#include "trace/stream.h"
#include "util/geo.h"
#include "util/rng.h"

namespace starcdn::trace {

struct WorkloadParams {
  TrafficClass traffic_class = TrafficClass::kVideo;
  std::size_t object_count = 200'000;
  /// Requests generated per unit of city traffic weight.
  std::size_t requests_per_weight = 40'000;
  double duration_s = 1.0 * util::kDay.value();
  /// Zipf exponent of base popularity. Video popularity is strongly
  /// skewed; 1.2 reproduces the paper's hit-rate levels (§5.2).
  double zipf_alpha = 1.2;
  /// Log-normal object size parameters (per class defaults via
  /// default_params()).
  double size_mu = 13.5;     // exp(13.5) ≈ 730 KB
  double size_sigma = 1.2;
  /// Geographic reach: reach_km ~ pareto(reach_min_km, reach_shape);
  /// an object's weight decays as exp(-distance/reach) from its home city.
  double reach_min_km = 400.0;
  double reach_shape = 0.7;
  /// Fraction of objects that are globally popular regardless of distance
  /// (world-cup finals, OS updates, ...).
  double global_fraction = 0.02;
  /// Region crossing gates: the probability that a given object is consumed
  /// in a foreign region *at all* (Table 2's language effect). Calibrated
  /// so cross-language European pairs share ~20-50% of traffic and
  /// NY->London about a quarter (Fig. 2).
  double same_language_family = 0.35;
  double cross_region = 0.30;
  /// Diurnal modulation depth in [0, 1): rate(t) = base * (1 + depth *
  /// sin(...)), peaking at ~20:00 local time.
  double diurnal_depth = 0.45;
  std::uint64_t seed = 42;
};

/// Per-class defaults calibrated to the paper's trace summary statistics
/// (§3.1.1 video: 423M reqs/512TB over 24M objects/24TB; §5.5 web: 2B reqs/
/// 642TB; downloads: 472M reqs/372TB).
[[nodiscard]] WorkloadParams default_params(TrafficClass c);

/// A generated object universe plus per-city popularity tables.
class WorkloadModel {
 public:
  WorkloadModel(const std::vector<util::City>& cities,
                const WorkloadParams& params);

  [[nodiscard]] const std::vector<util::City>& cities() const noexcept {
    return *cities_;
  }
  [[nodiscard]] const WorkloadParams& params() const noexcept { return params_; }

  [[nodiscard]] std::size_t object_count() const noexcept {
    return sizes_.size();
  }
  [[nodiscard]] Bytes object_size(ObjectId id) const noexcept {
    return sizes_[static_cast<std::size_t>(id)];
  }

  /// Weight of an object in a city (0 when out of reach).
  [[nodiscard]] double weight(ObjectId id, std::size_t city) const;

  /// A city's popularity table: the objects it requests, with non-negligible
  /// weight, as u32 ids (object_count fits 32 bits), and a sampler over
  /// their weight(object, city).
  struct CityTable {
    std::vector<std::uint32_t> objects;
    DiscreteSampler sampler;
  };
  [[nodiscard]] const CityTable& city_table(std::size_t city) const {
    return city_tables_[city];
  }

  /// Minutes the trace spans: ceil(duration_s / 60); the last one is
  /// partial when the duration is not a whole number of minutes.
  [[nodiscard]] std::size_t minutes() const noexcept;

  /// Relative request rate of each minute in `city`: the diurnal profile
  /// times the minute's length, so a partial last minute gets its share.
  [[nodiscard]] std::vector<double> minute_weights(std::size_t city) const;

  /// Generate the full multi-location production trace: generate_city once
  /// per city with city_request_count requests.
  [[nodiscard]] MultiTrace generate() const;

  /// One city's time-ordered trace of `n_requests`: its multinomial minute
  /// counts, then per minute a draw_block with its offsets sorted, the
  /// blocks concatenated in minute order.
  [[nodiscard]] LocationTrace generate_city(std::size_t city,
                                            std::size_t n_requests) const;

  /// Requests generate() draws for one city (requests_per_weight scaled by
  /// the city's traffic weight), and their sum — the analytic trace length,
  /// available without generating anything.
  [[nodiscard]] std::size_t city_request_count(std::size_t city) const;
  [[nodiscard]] std::uint64_t total_request_count() const;

  /// The whole trace in global time order, in blocks of `chunk_requests`:
  /// bitwise equal to merge_by_time(generate()) for any chunk size and
  /// thread count. Opening it splits every city's count over the minutes;
  /// each refill then makes the next minutes holding at least one chunk, in
  /// parallel over minutes: every city's draws, then sort_minute orders the
  /// minute by (timestamp, city), merge_by_time's tie-break, straight into
  /// a staged RequestBlock. Minutes never interleave, so memory is
  /// O(chunk + one minute) for any trace length.
  /// The stream keeps a reference to this model; the model must outlive it.
  [[nodiscard]] std::unique_ptr<RequestStream> generate_stream(
      std::size_t chunk_requests = kDefaultChunkRequests) const;

 private:
  friend class WorkloadStream;
  void build_universe();
  void build_city_tables();
  /// `n` requests of `city` split over minutes() by minute_weights: a
  /// histogram of i.i.d. minute draws, made in fixed-size runs that each
  /// draw from their own keyed RNG, in parallel.
  [[nodiscard]] std::vector<std::uint32_t> minute_counts(std::size_t city,
                                                         std::size_t n) const;

  /// [start, end) of `minute`: the last minute ends at duration_s.
  [[nodiscard]] std::pair<double, double> minute_bounds(
      std::size_t minute) const noexcept;

  /// The one generation routine: the draws of `offsets.size()` requests of
  /// `city` inside `minute`, from an RNG keyed by (seed, city, minute), so a
  /// block is the same whoever asks for it. offsets[i] is the i-th uniform
  /// offset in the minute, in draw order; objects[j] (from the city table)
  /// and sizes[j] belong to the request whose offset ranks j-th by time.
  /// All three spans have the same length.
  void draw_block(std::size_t city, std::size_t minute,
                  std::span<double> offsets, std::span<ObjectId> objects,
                  std::span<Bytes> sizes) const;

  const std::vector<util::City>* cities_;
  WorkloadParams params_;

  struct ObjectView;  // what weight() reads of one object
  /// weight() of a viewed object, decided without the exponential where the
  /// distance settles the table cutoff: 0 once the pair is `far` or more
  /// reaches apart, and the base weight, a stand-in above the cutoff, when
  /// it is under `near` reaches. weight() passes near = 0 and far = +inf.
  [[nodiscard]] double weight_of(const ObjectView& o, std::size_t city,
                                 double near, double far) const;

  // Object universe.
  std::vector<Bytes> sizes_;
  std::vector<float> base_weight_;
  std::vector<float> reach_km_;  // +inf: global, popular regardless of distance
  std::vector<std::uint16_t> home_city_;

  struct PairConstants {  // what weight() needs of a (home, city) pair
    double affinity;
    double km;
  };
  std::vector<PairConstants> pairs_;       // [home * cities + city]
  std::vector<std::uint64_t> region_mix_;  // see crosses_region, per city

  std::vector<CityTable> city_tables_;
};

// --- Overlap analytics (Table 2 / Fig. 2) -----------------------------------

struct OverlapResult {
  double object_overlap = 0.0;   // fraction of A's objects also seen in B
  double traffic_overlap = 0.0;  // fraction of A's bytes to objects in B
};

/// Percent of objects (and traffic) accessed at `a` that were also accessed
/// at `b` — the paper's Table 2 / Fig. 2 metric.
[[nodiscard]] OverlapResult overlap(const LocationTrace& a,
                                    const LocationTrace& b);

}  // namespace starcdn::trace
