#include "trace/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/tracer.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace starcdn::trace {

const char* to_string(TrafficClass c) noexcept {
  switch (c) {
    case TrafficClass::kVideo: return "video";
    case TrafficClass::kWeb: return "web";
    case TrafficClass::kDownload: return "download";
  }
  return "?";
}

WorkloadParams default_params(TrafficClass c) {
  WorkloadParams p;
  p.traffic_class = c;
  switch (c) {
    case TrafficClass::kVideo:
      // Video: multi-MB segments dominating bytes, heavy request volume,
      // strong reuse (512 TB served from a 24 TB footprint, §3.1.1).
      p.object_count = 300'000;
      p.requests_per_weight = 150'000;
      p.zipf_alpha = 1.2;
      p.size_mu = 15.9;  // median ≈ 8 MB
      p.size_sigma = 1.1;
      break;
    case TrafficClass::kWeb:
      // Web: many small objects, flatter popularity, broader geographic
      // reach of popular pages.
      p.object_count = 400'000;
      p.requests_per_weight = 50'000;
      p.zipf_alpha = 1.0;
      p.size_mu = 12.2;  // median ≈ 200 KB
      p.size_sigma = 1.4;
      p.global_fraction = 0.05;
      p.same_language_family = 0.45;
      p.cross_region = 0.35;
      break;
    case TrafficClass::kDownload:
      // Downloads: fewer, large objects (software images), very wide reach
      // (the same update ships worldwide), moderate request volume.
      p.object_count = 60'000;
      p.requests_per_weight = 12'000;
      p.zipf_alpha = 0.95;
      p.size_mu = 16.3;  // median ≈ 12 MB
      p.size_sigma = 1.3;
      p.global_fraction = 0.20;
      p.same_language_family = 0.7;
      p.cross_region = 0.6;
      break;
  }
  return p;
}

namespace {

/// Region affinity in [0,1]: 1 for identical region tags, an intermediate
/// value for the same language family (e.g. "en-us" vs "en-gb"), and a low
/// floor across regions — the Table 2 effect that different languages
/// seldom share content.
double region_affinity(const std::string& a, const std::string& b,
                       const WorkloadParams& params) {
  if (a == b) return 1.0;
  const auto family = [](const std::string& r) {
    const auto dash = r.find('-');
    return dash == std::string::npos ? r : r.substr(0, dash);
  };
  if (family(a) == family(b)) return params.same_language_family;
  return params.cross_region;
}

/// Per-(object, region) crossing gate. Affinity acts as the *probability*
/// that a piece of content is consumed in a foreign region at all, not as a
/// popularity dampener: a German user either watches a British show or —
/// far more often (Table 2) — never touches it. The gate is a deterministic
/// hash of (id, fnv1a(region)) so every city of the same region agrees:
/// hash_combine(id_hash, fnv1a(region)) with the region's half,
/// `region_mix` = splitmix64(fnv1a(region)) + golden, computed once per city
/// and id_hash = splitmix64(id + 0x9e37) once per object.
bool crosses_region(std::uint64_t id_hash, std::uint64_t region_mix,
                    double gate_probability) {
  if (gate_probability >= 1.0) return true;
  const std::uint64_t h =
      id_hash ^ (region_mix + (id_hash << 6) + (id_hash >> 2));
  return static_cast<double>(h >> 11) * 0x1.0p-53 < gate_probability;
}

/// Objects per draw chunk of build_universe and per task of the table
/// scan, and transform tasks per draw chunk.
constexpr std::size_t kChunk = std::size_t{1} << 14;
constexpr std::size_t kSlices = 8;

/// Draws per run of the minute-count histogram: a fixed size, so the split
/// does not depend on the thread count.
constexpr std::size_t kCountRun = std::size_t{1} << 15;

/// Object draws per prefetch group in draw_block.
constexpr std::size_t kDrawGroup = 32;

/// Purposes of keyed_rng streams, so count runs and blocks never share one.
constexpr std::uint64_t kCountStream = 1;
constexpr std::uint64_t kBlockStream = 2;

/// An independent RNG stream per (seed, purpose, city, index).
util::Rng keyed_rng(std::uint64_t seed, std::uint64_t purpose,
                    std::size_t city, std::size_t index) {
  return util::Rng(util::hash_combine(
      util::hash_combine(util::hash_combine(seed, purpose), city), index));
}

}  // namespace

WorkloadModel::WorkloadModel(const std::vector<util::City>& cities,
                             const WorkloadParams& params)
    : cities_(&cities), params_(params) {
  if (cities.empty()) throw std::invalid_argument("WorkloadModel: no cities");
  if (!(params.duration_s > 0.0) || !std::isfinite(params.duration_s)) {
    throw std::invalid_argument(
        "WorkloadModel: duration_s must be positive and finite, got " +
        std::to_string(params.duration_s));
  }
  // City tables store objects as u32 indices.
  if (params.object_count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "WorkloadModel: object_count must fit in 32 bits, got " +
        std::to_string(params.object_count));
  }
  build_universe();
  build_city_tables();
}

void WorkloadModel::build_universe() {
  const std::size_t n = params_.object_count;
  const obs::TraceSpan span(obs::tracer(), "WorkloadModel::universe", "trace");
  sizes_.resize(n);
  base_weight_.resize(n);
  reach_km_.resize(n);
  home_city_.resize(n);

  util::Rng rng(params_.seed);
  // Home city sampled by traffic weight.
  std::vector<double> city_w;
  city_w.reserve(cities_->size());
  for (const auto& c : *cities_) city_w.push_back(c.traffic_weight);
  const DiscreteSampler home_sampler(city_w);

  // Assign Zipf popularity by giving object i the weight of a random rank;
  // shuffling ranks keeps object ids uncorrelated with popularity.
  std::vector<std::uint32_t> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(ranks[i - 1], ranks[rng.below(i)]);
  }

  // Each object's five uniforms come from the one rng in object order
  // (size's two, home, global, reach), a chunk at a time. Round k draws
  // chunk k in task 0 while tasks 1.. transform slices of chunk k - 1: the
  // serial draws overlap the parallel transforms, and every value is what
  // one draw-and-transform loop makes.
  struct Draw {
    util::Rng::NormalDraw size;
    double reach_u;
    bool global;
  };
  std::vector<Draw> draws(2 * kChunk);  // object i at i % (2 * kChunk)
  const WorkloadParams& p = params_;
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  for (std::size_t k = 0; k <= chunks; ++k) {
    util::parallel_tasks(1 + kSlices, [&](std::size_t t) {
      const std::size_t len = t == 0 ? kChunk : kChunk / kSlices;
      const std::size_t begin =
          t == 0 ? k * kChunk : (k - 1) * kChunk + (t - 1) * len;
      Draw* d = &draws[begin % (2 * kChunk)];
      if (t == 0 && k < chunks) {
        const obs::TraceSpan s(obs::tracer(), "WorkloadModel::draws", "trace");
        for (std::size_t i = begin; i < std::min(n, begin + len); ++i, ++d) {
          d->size = rng.normal_draw();
          home_city_[i] = static_cast<std::uint16_t>(home_sampler.sample(rng));
          d->global = rng.bernoulli(p.global_fraction);
          d->reach_u = rng.uniform();
        }
      } else if (t > 0 && k > 0) {
        const obs::TraceSpan s(obs::tracer(), "WorkloadModel::transforms",
                               "trace");
        for (std::size_t i = begin; i < std::min(n, begin + len); ++i, ++d) {
          sizes_[i] = static_cast<Bytes>(std::max(
              1.0, util::Rng::lognormal_of(d->size, p.size_mu, p.size_sigma)));
          base_weight_[i] = static_cast<float>(
              std::pow(static_cast<double>(ranks[i] + 1), -p.zipf_alpha));
          const double reach = std::min(
              util::Rng::pareto_of(d->reach_u, p.reach_min_km, p.reach_shape),
              40'000.0);
          reach_km_[i] = d->global ? std::numeric_limits<float>::infinity()
                                   : static_cast<float>(reach);
        }
      }
    });
  }
}

/// What weight() reads of one object, loaded once per table scan.
struct WorkloadModel::ObjectView {
  ObjectView(const WorkloadModel& m, std::size_t i)
      : base(m.base_weight_[i]), reach(m.reach_km_[i]), home(m.home_city_[i]),
        id_hash(util::splitmix64(i + 0x9e37)),
        pairs(&m.pairs_[home * m.cities_->size()]) {}
  double base;
  double reach;           // km; +inf: global, popular regardless of distance
  std::size_t home;
  std::uint64_t id_hash;  // the region gate's per-object key
  const PairConstants* pairs;
};

double WorkloadModel::weight_of(const ObjectView& o, std::size_t city,
                                double near, double far) const {
  // At home, or global (uniform worldwide popularity): the base weight.
  if (o.home == city || std::isinf(o.reach)) return o.base;
  const PairConstants& pair = o.pairs[city];
  if (pair.km >= far * o.reach) return 0.0;
  if (!crosses_region(o.id_hash, region_mix_[city], pair.affinity)) return 0.0;
  if (pair.km < near * o.reach) return o.base;
  return o.base * std::exp(-pair.km / o.reach);
}

double WorkloadModel::weight(ObjectId id, std::size_t city) const {
  return weight_of({*this, static_cast<std::size_t>(id)}, city, 0.0,
                   std::numeric_limits<double>::infinity());
}

void WorkloadModel::build_city_tables() {
  const auto& cities = *cities_;
  const std::size_t n_cities = cities.size();
  for (const auto& home : cities) {
    for (const auto& city : cities) {
      pairs_.push_back({region_affinity(home.region, city.region, params_),
                        util::haversine(home.coord, city.coord).value()});
    }
    region_mix_.push_back(util::splitmix64(util::fnv1a(home.region)) +
                          0x9e3779b97f4a7c15ULL);
  }
  // Weights below this fraction of the object's base weight are treated as
  // out of reach; keeps tables compact and models "content not offered".
  // exp(-kNear) > 1.0077e-3 and exp(-kFar) < 9.6e-4 bracket the cutoff
  // (ln 1000 ≈ 6.908) with margin, so a pair in reach that is under kNear
  // reaches apart is in the city's table and one kFar or more apart is out.
  constexpr double kCutoff = 1e-3;
  constexpr double kNear = 6.9;
  constexpr double kFar = 6.95;
  // Two object-major passes, in parallel over chunks. The first marks
  // which cities' tables hold each object and counts them per chunk, taking
  // an exponential only between kNear and kFar; the second computes the
  // marked weights into the cities' exact-size arrays, each chunk from its
  // own offset, so each city lists its objects in id order.
  const std::size_t n = sizes_.size();
  const std::size_t words = (n_cities + 63) / 64;
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<std::size_t> first(chunks * n_cities);  // [chunk * cities + city]
  std::vector<std::vector<std::uint32_t>> objects(n_cities);
  std::vector<std::vector<double>> weights(n_cities);
  {
    const obs::TraceSpan span(obs::tracer(), "WorkloadModel::scan", "trace");
    std::vector<std::uint64_t> in(n * words);  // [object * words + city / 64]
    util::parallel_tasks(chunks, [&](std::size_t k) {
      std::vector<std::size_t> count(n_cities, 0);
      for (std::size_t i = k * kChunk; i < std::min(n, (k + 1) * kChunk); ++i) {
        const ObjectView o(*this, i);
        for (std::size_t c = 0; c < n_cities; ++c) {
          if (weight_of(o, c, kNear, kFar) > kCutoff * o.base) {
            in[i * words + c / 64] |= std::uint64_t{1} << (c % 64);
            ++count[c];
          }
        }
      }
      std::copy(count.begin(), count.end(), first.begin() + k * n_cities);
    });
    util::parallel_tasks(n_cities, [&](std::size_t c) {
      std::size_t size = 0;
      for (std::size_t k = 0; k < chunks; ++k) {
        size += std::exchange(first[k * n_cities + c], size);
      }
      objects[c].resize(size);
      weights[c].resize(size);
    });
    util::parallel_tasks(chunks, [&](std::size_t k) {
      std::vector<std::size_t> next(first.begin() + k * n_cities,
                                    first.begin() + (k + 1) * n_cities);
      for (std::size_t i = k * kChunk; i < std::min(n, (k + 1) * kChunk); ++i) {
        const ObjectView o(*this, i);
        for (std::size_t w = 0; w < words; ++w) {
          for (auto bits = in[i * words + w]; bits != 0; bits &= bits - 1) {
            const std::size_t c =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            objects[c][next[c]] = static_cast<std::uint32_t>(i);
            weights[c][next[c]++] = weight_of(o, c, 0.0, kFar);
          }
        }
      }
    });
  }
  const obs::TraceSpan span(obs::tracer(), "WorkloadModel::samplers", "trace");
  std::vector<std::optional<CityTable>> tables(n_cities);
  util::parallel_tasks(n_cities, [&](std::size_t c) {
    tables[c].emplace(std::move(objects[c]),
                      DiscreteSampler(std::move(weights[c])));
  });
  for (auto& t : tables) city_tables_.push_back(std::move(*t));
}

std::size_t WorkloadModel::minutes() const noexcept {
  return static_cast<std::size_t>(
      std::max(1.0, std::ceil(params_.duration_s / util::kMinute.value())));
}

std::vector<double> WorkloadModel::minute_weights(std::size_t city) const {
  // Local solar time from longitude; demand peaks around 20:00 local.
  const double lon = (*cities_)[city].coord.lon_deg;
  const double tz_offset_h = lon / 15.0;
  const double minute_s = util::kMinute.value();
  std::vector<double> w(minutes());
  for (std::size_t m = 0; m < w.size(); ++m) {
    const double t_utc_h = static_cast<double>(m) / 60.0;
    const double local_h = std::fmod(t_utc_h + tz_offset_h + 48.0, 24.0);
    const double length_s = std::min(
        minute_s, params_.duration_s - static_cast<double>(m) * minute_s);
    w[m] = (1.0 + params_.diurnal_depth *
                      std::sin(2.0 * std::numbers::pi * (local_h - 14.0) /
                               24.0)) *
           length_s / minute_s;
  }
  return w;
}

std::vector<std::uint32_t> WorkloadModel::minute_counts(std::size_t city,
                                                        std::size_t n) const {
  const DiscreteSampler minute(minute_weights(city));
  const std::size_t runs = (n + kCountRun - 1) / kCountRun;
  std::vector<std::vector<std::uint32_t>> histograms(runs);
  util::parallel_for(runs, [&](std::size_t run) {
    auto& h = histograms[run];
    h.assign(minute.size(), 0);
    util::Rng rng = keyed_rng(params_.seed, kCountStream, city, run);
    std::vector<std::uint32_t> draws(std::min(kCountRun, n - run * kCountRun));
    minute.sample_n(rng, draws);
    for (const std::uint32_t m : draws) ++h[m];
  });
  std::vector<std::uint32_t> counts(minute.size(), 0);
  for (const auto& h : histograms) {
    for (std::size_t m = 0; m < h.size(); ++m) counts[m] += h[m];
  }
  return counts;
}

std::pair<double, double> WorkloadModel::minute_bounds(
    std::size_t minute) const noexcept {
  const double start = static_cast<double>(minute) * util::kMinute.value();
  return {start, std::min(start + util::kMinute.value(), params_.duration_s)};
}

void WorkloadModel::draw_block(std::size_t city, std::size_t minute,
                               std::span<double> offsets,
                               std::span<ObjectId> objects,
                               std::span<Bytes> sizes) const {
  const auto [start, end] = minute_bounds(minute);
  // Rounding can land start + u * length on `end`; stopping one ulp short
  // keeps every block strictly inside its minute, so minutes never
  // interleave and a per-city trace needs no global sort.
  const double last = std::nextafter(end, start);
  util::Rng rng = keyed_rng(params_.seed, kBlockStream, city, minute);
  for (double& t : offsets) {
    t = std::min(last, start + rng.uniform() * (end - start));
  }
  // Object draws in groups, each group's objects[] and sizes_[] lines
  // prefetched before they are read: the tables do not stay in cache.
  const CityTable& table = city_tables_[city];
  std::uint32_t index[kDrawGroup] = {};
  for (std::size_t base = 0; base < objects.size(); base += kDrawGroup) {
    const std::size_t m = std::min(kDrawGroup, objects.size() - base);
    table.sampler.sample_n(rng, {index, m});
    for (std::size_t i = 0; i < m; ++i) {
      __builtin_prefetch(&table.objects[index[i]]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      objects[base + i] = ObjectId{table.objects[index[i]]};
      __builtin_prefetch(&sizes_[static_cast<std::size_t>(objects[base + i])]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      sizes[base + i] = sizes_[static_cast<std::size_t>(objects[base + i])];
    }
  }
}

LocationTrace WorkloadModel::generate_city(std::size_t city,
                                           std::size_t n_requests) const {
  const std::vector<std::uint32_t> counts = minute_counts(city, n_requests);
  std::vector<std::size_t> begin(counts.size() + 1, 0);
  for (std::size_t m = 0; m < counts.size(); ++m) {
    begin[m + 1] = begin[m] + counts[m];
  }
  LocationTrace out;
  out.location = static_cast<std::uint16_t>(city);
  out.location_name = (*cities_)[city].name;
  out.requests.resize(n_requests);
  util::parallel_for(counts.size(), [&](std::size_t m) {
    const std::size_t k = counts[m];
    std::vector<double> offsets(k);
    std::vector<ObjectId> objects(k);
    std::vector<Bytes> sizes(k);
    draw_block(city, m, offsets, objects, sizes);
    std::sort(offsets.begin(), offsets.end());
    for (std::size_t j = 0; j < k; ++j) {
      out.requests[begin[m] + j] = {offsets[j], objects[j], sizes[j],
                                    out.location};
    }
  });
  return out;
}

std::size_t WorkloadModel::city_request_count(std::size_t city) const {
  return static_cast<std::size_t>(
      static_cast<double>(params_.requests_per_weight) *
      (*cities_)[city].traffic_weight);
}

std::uint64_t WorkloadModel::total_request_count() const {
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < cities_->size(); ++c) {
    total += city_request_count(c);
  }
  return total;
}

MultiTrace WorkloadModel::generate() const {
  MultiTrace out;
  out.reserve(cities_->size());
  for (std::size_t c = 0; c < cities_->size(); ++c) {
    out.push_back(generate_city(c, city_request_count(c)));
  }
  return out;
}

/// generate_stream's producer: a few minutes at a time, each minute's
/// cities ordered by (timestamp, city) into a staged block.
class WorkloadStream final : public RequestStream {
 public:
  WorkloadStream(const WorkloadModel& model, std::size_t chunk_requests)
      : model_(&model),
        chunk_(std::max<std::size_t>(1, chunk_requests)),
        counts_(model.cities().size()) {
    for (std::size_t c = 0; c < counts_.size(); ++c) {
      const std::size_t n = model.city_request_count(c);
      counts_[c] = model.minute_counts(c, n);
      total_ += n;
    }
  }

  [[nodiscard]] bool next(RequestBlock& out) override {
    out.clear();
    if (emitted_ == total_) return false;
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(chunk_, total_ - emitted_));
    out.reserve(want);
    while (out.count() < want) {
      if (pos_ == staged_.count()) fill();
      const std::size_t take =
          std::min(want - out.count(), staged_.count() - pos_);
      out.append(staged_, pos_, take);
      pos_ += take;
    }
    emitted_ += want;
    return true;
  }

  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return total_;
  }

 private:
  /// Stage the next minutes holding at least one chunk (or the rest of the
  /// trace), minute-major, each minute made by its own task.
  void fill() {
    const std::size_t first = next_minute_;
    std::vector<std::size_t> minute_begin{0};
    std::size_t n = 0;
    while (n < chunk_ && next_minute_ < model_->minutes()) {
      for (const auto& counts : counts_) n += counts[next_minute_];
      minute_begin.push_back(n);
      ++next_minute_;
    }
    staged_.resize(n);
    pos_ = 0;
    util::parallel_for(minute_begin.size() - 1, [&](std::size_t i) {
      stage_minute(first + i, minute_begin[i]);
    });
  }

  /// Every city's requests in `minute`, ordered by (timestamp, city) into
  /// staged_ from index `at`. City c's j-th appearance takes c's j-th
  /// object draw: equal timestamps within a city are the same double, so
  /// this is the rank draw_block gave each draw.
  void stage_minute(std::size_t minute, std::size_t at) {
    const std::size_t cities = counts_.size();
    std::vector<std::size_t> cursor(cities + 1, 0);
    for (std::size_t c = 0; c < cities; ++c) {
      cursor[c + 1] = cursor[c] + counts_[c][minute];
    }
    const std::size_t n = cursor[cities];
    std::vector<double> offsets(n);
    std::vector<ObjectId> objects(n);
    std::vector<Bytes> sizes(n);
    std::vector<TimeKey> keys(n);
    for (std::size_t c = 0; c < cities; ++c) {
      const std::size_t b = cursor[c], k = cursor[c + 1] - b;
      model_->draw_block(c, minute, std::span(offsets).subspan(b, k),
                         std::span(objects).subspan(b, k),
                         std::span(sizes).subspan(b, k));
      for (std::size_t i = b; i < b + k; ++i) {
        keys[i] = {offsets[i], static_cast<std::uint32_t>(c)};
      }
    }
    std::vector<TimeKey> sorted(n);
    const auto [start, end] = model_->minute_bounds(minute);
    sort_minute(keys, start, end, sorted);
    for (std::size_t p = 0; p < n; ++p) {
      const TimeKey& key = sorted[p];
      const std::size_t j = cursor[key.tag]++;
      staged_.timestamp_s[at + p] = key.timestamp_s;
      staged_.object[at + p] = objects[j];
      staged_.size[at + p] = sizes[j];
      staged_.location[at + p] = static_cast<std::uint16_t>(key.tag);
    }
  }

  const WorkloadModel* model_;
  std::size_t chunk_;
  std::vector<std::vector<std::uint32_t>> counts_;  // [city][minute]
  std::uint64_t total_ = 0;
  std::uint64_t emitted_ = 0;
  std::size_t next_minute_ = 0;
  RequestBlock staged_;
  std::size_t pos_ = 0;
};

std::unique_ptr<RequestStream> WorkloadModel::generate_stream(
    std::size_t chunk_requests) const {
  return std::make_unique<WorkloadStream>(*this, chunk_requests);
}

OverlapResult overlap(const LocationTrace& a, const LocationTrace& b) {
  std::unordered_set<ObjectId> in_b;
  for (const auto& r : b.requests) in_b.insert(r.object);

  std::unordered_set<ObjectId> seen_a;
  std::size_t shared_objects = 0;
  Bytes bytes_total = 0, bytes_shared = 0;
  for (const auto& r : a.requests) {
    bytes_total += r.size;
    const bool shared = in_b.contains(r.object);
    if (shared) bytes_shared += r.size;
    if (seen_a.insert(r.object).second && shared) ++shared_objects;
  }
  OverlapResult res;
  if (!seen_a.empty()) {
    res.object_overlap = static_cast<double>(shared_objects) /
                         static_cast<double>(seen_a.size());
  }
  if (bytes_total > 0) {
    res.traffic_overlap =
        static_cast<double>(bytes_shared) / static_cast<double>(bytes_total);
  }
  return res;
}

}  // namespace starcdn::trace
