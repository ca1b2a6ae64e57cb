#include "trace/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/geo.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace starcdn::trace {
namespace {

WorkloadParams tiny_params() {
  auto p = default_params(TrafficClass::kVideo);
  p.object_count = 20'000;
  p.requests_per_weight = 8'000;
  p.duration_s = 2 * util::kHour.value();
  return p;
}

TEST(Workload, DefaultParamsPerClass) {
  const auto video = default_params(TrafficClass::kVideo);
  const auto web = default_params(TrafficClass::kWeb);
  const auto dl = default_params(TrafficClass::kDownload);
  // Web: smaller objects, more of them. Downloads: fewer, larger, global.
  EXPECT_LT(web.size_mu, video.size_mu);
  EXPECT_GT(dl.size_mu, video.size_mu);
  EXPECT_GT(web.object_count, dl.object_count);
  EXPECT_GT(dl.global_fraction, video.global_fraction);
}

TEST(Workload, GenerationIsDeterministic) {
  const auto& cities = util::paper_cities();
  const WorkloadModel a(cities, tiny_params());
  const WorkloadModel b(cities, tiny_params());
  const auto ta = a.generate_city(0, 1'000);
  const auto tb = b.generate_city(0, 1'000);
  ASSERT_EQ(ta.requests.size(), tb.requests.size());
  for (std::size_t i = 0; i < ta.requests.size(); ++i) {
    EXPECT_EQ(ta.requests[i].object, tb.requests[i].object);
    EXPECT_EQ(ta.requests[i].timestamp_s, tb.requests[i].timestamp_s);
  }
}

TEST(Workload, SeedChangesTrace) {
  const auto& cities = util::paper_cities();
  auto p1 = tiny_params();
  auto p2 = tiny_params();
  p2.seed = 777;
  const auto ta = WorkloadModel(cities, p1).generate_city(0, 500);
  const auto tb = WorkloadModel(cities, p2).generate_city(0, 500);
  int same = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    same += ta.requests[i].object == tb.requests[i].object;
  }
  EXPECT_LT(same, 250);
}

TEST(Workload, TimestampsSortedAndBounded) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto t = w.generate_city(2, 2'000);
  for (std::size_t i = 1; i < t.requests.size(); ++i) {
    EXPECT_LE(t.requests[i - 1].timestamp_s, t.requests[i].timestamp_s);
  }
  EXPECT_GE(t.requests.front().timestamp_s, 0.0);
  EXPECT_LT(t.requests.back().timestamp_s, tiny_params().duration_s);
}

TEST(Workload, RequestCountsFollowCityWeights) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto traces = w.generate();
  ASSERT_EQ(traces.size(), cities.size());
  // New York (weight 1.8) must have more requests than Vienna (0.8).
  EXPECT_GT(traces[4].requests.size(), traces[7].requests.size());
  EXPECT_EQ(traces[4].location_name, "NewYork");
}

TEST(Workload, SizesConsistentPerObject) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto t = w.generate_city(0, 3'000);
  for (const auto& r : t.requests) {
    EXPECT_EQ(r.size, w.object_size(r.object));
    EXPECT_GE(r.size, 1u);
  }
}

TEST(Workload, OverlapDecaysWithDistance) {
  // The Fig. 2 property: nearby same-region cities share much more traffic
  // than transatlantic or cross-language pairs.
  const auto& cities = util::paper_cities();
  auto p = tiny_params();
  p.requests_per_weight = 20'000;
  const WorkloadModel w(cities, p);
  const auto traces = w.generate();
  const auto ny_dc = overlap(traces[4], traces[3]);       // 327 km, same region
  const auto ny_london = overlap(traces[4], traces[5]);   // 5,570 km, en family
  const auto ny_istanbul = overlap(traces[4], traces[8]); // 8,070 km, cross
  EXPECT_GT(ny_dc.traffic_overlap, 0.75);
  EXPECT_GT(ny_dc.traffic_overlap, ny_london.traffic_overlap);
  EXPECT_GT(ny_dc.traffic_overlap, ny_istanbul.traffic_overlap);
  EXPECT_LT(ny_london.traffic_overlap, 0.6);
  EXPECT_LT(ny_istanbul.traffic_overlap, 0.5);
  // Traffic overlap always exceeds object overlap (hot objects travel).
  EXPECT_GT(ny_dc.traffic_overlap, ny_dc.object_overlap);
}

TEST(Workload, RegionGateExcludesContentDeterministically) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  // Frankfurt (6) and Vienna (7) share the "de" region: every object must
  // have identical reachability status (zero or non-zero) driven by the
  // same gate, scaled only by distance.
  int de_mismatch = 0;
  for (ObjectId id = 0; id < 2'000; ++id) {
    const bool in_ffm = w.weight(id, 6) > 0.0;
    const bool in_vie = w.weight(id, 7) > 0.0;
    if (in_ffm != in_vie) ++de_mismatch;
  }
  // Reach decay can differ slightly; mismatches must be rare.
  EXPECT_LT(de_mismatch, 100);
}

TEST(Workload, HomeCityAlwaysReachable) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  // Every object must be accessible somewhere (its home city).
  for (ObjectId id = 0; id < 1'000; ++id) {
    double max_w = 0.0;
    for (std::size_t c = 0; c < cities.size(); ++c) {
      max_w = std::max(max_w, w.weight(id, c));
    }
    EXPECT_GT(max_w, 0.0) << "object " << id << " unreachable everywhere";
  }
}

TEST(Workload, MergeByTimeGloballySorted) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto merged = merge_by_time(w.generate());
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].timestamp_s, merged[i].timestamp_s);
  }
  EXPECT_GT(merged.size(), 0u);
}

TEST(Workload, PartialLastMinuteGetsItsShare) {
  const auto& cities = util::paper_cities();
  auto p = tiny_params();
  p.duration_s = 15.0;  // one quarter-minute: offsets fill all of [0, 15)
  {
    const auto t = WorkloadModel(cities, p).generate_city(0, 2'000);
    std::set<double> distinct;
    double sum = 0.0;
    for (const auto& r : t.requests) {
      EXPECT_GE(r.timestamp_s, 0.0);
      EXPECT_LT(r.timestamp_s, 15.0);
      distinct.insert(r.timestamp_s);
      sum += r.timestamp_s;
    }
    EXPECT_EQ(distinct.size(), t.requests.size());
    // Uniform on [0, 15): mean 7.5, standard error 4.33 / sqrt(2000).
    EXPECT_NEAR(sum / static_cast<double>(t.requests.size()), 7.5, 0.5);
  }
  p.duration_s = 615.0;  // ten full minutes and a quarter
  {
    const WorkloadModel w(cities, p);
    ASSERT_EQ(w.minutes(), 11u);
    const auto t = w.generate_city(0, 20'000);
    std::size_t tail = 0;
    for (const auto& r : t.requests) {
      EXPECT_LT(r.timestamp_s, 615.0);
      tail += r.timestamp_s >= 600.0;
    }
    // The partial minute carries about a quarter of a full minute's share.
    const auto weights = w.minute_weights(0);
    const double expected =
        20'000.0 * weights.back() /
        std::accumulate(weights.begin(), weights.end(), 0.0);
    EXPECT_GT(static_cast<double>(tail), 0.5 * expected);
    EXPECT_LT(static_cast<double>(tail), 1.5 * expected);
  }
}

TEST(Workload, NonPositiveDurationThrows) {
  auto p = tiny_params();
  p.duration_s = 0.0;
  EXPECT_THROW(WorkloadModel(util::paper_cities(), p), std::invalid_argument);
  // Infinity would reach minutes()'s cast to size_t, which is undefined.
  p.duration_s = std::numeric_limits<double>::infinity();
  try {
    const WorkloadModel w(util::paper_cities(), p);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duration_s"), std::string::npos) << what;
    EXPECT_NE(what.find("inf"), std::string::npos) << what;
  }
}

TEST(Workload, ObjectCountBeyond32BitsThrows) {
  // Checked before the universe is allocated, so this costs nothing.
  auto p = tiny_params();
  p.object_count = std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
  try {
    const WorkloadModel w(util::paper_cities(), p);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("object_count"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967296"), std::string::npos) << what;
  }
}

TEST(Workload, EmptyCitiesThrows) {
  const std::vector<util::City> none;
  EXPECT_THROW(WorkloadModel(none, tiny_params()), std::invalid_argument);
}

// --- The model at any thread count --------------------------------------------

/// Everything a model exposes, folded into one hash: every object's size and
/// its weight in every city, then each city table's objects and its
/// sampler's index_of at kGrid + 1 evenly spaced points over the table's
/// total weight.
std::uint64_t model_digest(const WorkloadModel& m) {
  constexpr std::size_t kGrid = 4096;
  const std::size_t cities = m.cities().size();
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < m.object_count(); ++i) {
    const auto id = static_cast<ObjectId>(i);
    h = util::hash_combine(h, m.object_size(id));
    for (std::size_t c = 0; c < cities; ++c) {
      h = util::hash_combine(h, std::bit_cast<std::uint64_t>(m.weight(id, c)));
    }
  }
  for (std::size_t c = 0; c < cities; ++c) {
    const auto& table = m.city_table(c);
    double total = 0.0;
    for (const std::uint32_t o : table.objects) {
      h = util::hash_combine(h, o);
      total += m.weight(ObjectId{o}, c);
    }
    for (std::size_t k = 0; k <= kGrid; ++k) {
      const double u =
          total * static_cast<double>(k) / static_cast<double>(kGrid);
      h = util::hash_combine(h, table.sampler.index_of(u));
    }
  }
  return h;
}

/// Builds the class's default model at 1, 2 and 4 threads and checks each
/// against `pin`, a digest captured before the model was built in parallel.
void expect_model_pinned(TrafficClass c, std::uint64_t pin) {
  for (const int threads : {1, 2, 4}) {
    util::set_parallel_threads(threads);
    const WorkloadModel m(util::paper_cities(), default_params(c));
    util::set_parallel_threads(0);
    EXPECT_EQ(model_digest(m), pin) << to_string(c) << " at " << threads
                                    << " threads";
  }
}

TEST(WorkloadModelPin, VideoAtAnyThreadCount) {
  expect_model_pinned(TrafficClass::kVideo, 0x204fbb172bee9931ull);
}

TEST(WorkloadModelPin, WebAtAnyThreadCount) {
  expect_model_pinned(TrafficClass::kWeb, 0x9370f5eb20573d03ull);
}

TEST(WorkloadModelPin, DownloadAtAnyThreadCount) {
  expect_model_pinned(TrafficClass::kDownload, 0x56d88e89588c794full);
}

/// Each city table holds exactly the objects whose weight there is above
/// 1e-3 of their largest weight in any city (their base weight, in the home
/// city), in id order: the table scan may skip far pairs without taking
/// the exponential, but must never drop or add one.
void expect_tables_match_brute_force(const WorkloadParams& p) {
  const auto& cities = util::paper_cities();
  const WorkloadModel m(cities, p);
  std::vector<std::vector<std::uint32_t>> want(cities.size());
  for (std::size_t i = 0; i < m.object_count(); ++i) {
    const auto id = static_cast<ObjectId>(i);
    double max_w = 0.0;
    for (std::size_t c = 0; c < cities.size(); ++c) {
      max_w = std::max(max_w, m.weight(id, c));
    }
    for (std::size_t c = 0; c < cities.size(); ++c) {
      if (m.weight(id, c) > 1e-3 * max_w) {
        want[c].push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  for (std::size_t c = 0; c < cities.size(); ++c) {
    EXPECT_EQ(m.city_table(c).objects, want[c]) << cities[c].name;
  }
}

TEST(WorkloadModelPin, CityTablesMatchBruteForce) {
  auto p = tiny_params();
  p.object_count = 5'000;
  expect_tables_match_brute_force(p);
  // Open region gates: distance alone decides, so every far pair exercises
  // the scan's distance test against the exponential.
  p.same_language_family = 1.0;
  p.cross_region = 1.0;
  p.global_fraction = 0.0;
  expect_tables_match_brute_force(p);
}

// --- Distribution guards ------------------------------------------------------
//
// Chi-square statistics of generated traces against the model's own
// probabilities, at fixed seeds. A sum of `dof` squared standard normals has
// mean dof and standard deviation sqrt(2 dof); each guard accepts four
// deviations either way, so a split that is too exact fails like one that
// is biased.

struct ChiSquare {
  double stat = 0.0;
  std::size_t dof = 0;

  /// Add one multinomial sample: `observed` counts against probabilities
  /// proportional to `weights`.
  void add(const std::vector<double>& observed,
           const std::vector<double>& weights) {
    const double n = std::accumulate(observed.begin(), observed.end(), 0.0);
    const double w = std::accumulate(weights.begin(), weights.end(), 0.0);
    for (std::size_t i = 0; i < observed.size(); ++i) {
      const double e = n * weights[i] / w;
      stat += (observed[i] - e) * (observed[i] - e) / e;
    }
    dof += observed.size() - 1;
  }

  void expect_plausible() const {
    const auto d = static_cast<double>(dof);
    const double sd = std::sqrt(2.0 * d);
    EXPECT_GT(stat, d - 4.0 * sd) << "dof " << dof;
    EXPECT_LT(stat, d + 4.0 * sd) << "dof " << dof;
  }
};

TEST(WorkloadDistribution, MinuteCountsFollowDiurnalWeights) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  ChiSquare x;
  for (std::size_t c = 0; c < cities.size(); ++c) {
    const auto t = w.generate_city(c, w.city_request_count(c));
    std::vector<double> counts(w.minutes(), 0.0);
    for (const auto& r : t.requests) {
      counts[static_cast<std::size_t>(r.timestamp_s / 60.0)] += 1.0;
    }
    x.add(counts, w.minute_weights(c));
  }
  x.expect_plausible();
}

TEST(WorkloadDistribution, ObjectCountsFollowCityTable) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  constexpr std::size_t kTop = 50;
  ChiSquare x;
  for (std::size_t c = 0; c < cities.size(); ++c) {
    const auto& table = w.city_table(c);
    std::vector<double> table_weights;
    for (const ObjectId id : table.objects) {
      table_weights.push_back(w.weight(id, c));
    }
    std::vector<std::size_t> order(table.objects.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::partial_sort(order.begin(), order.begin() + kTop, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return table_weights[a] > table_weights[b];
                      });
    // Categories: the kTop heaviest objects, then everything else.
    std::vector<double> weights(kTop + 1, 0.0);
    std::vector<std::size_t> category(w.object_count(), kTop);
    for (const double tw : table_weights) weights[kTop] += tw;
    for (std::size_t k = 0; k < kTop; ++k) {
      weights[k] = table_weights[order[k]];
      weights[kTop] -= weights[k];
      category[table.objects[order[k]]] = k;
    }
    std::vector<double> counts(kTop + 1, 0.0);
    for (const auto& r : w.generate_city(c, 50'000).requests) {
      counts[category[r.object]] += 1.0;
    }
    x.add(counts, weights);
  }
  x.expect_plausible();
}

TEST(WorkloadDistribution, IntraMinuteOffsetsUniform) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  constexpr std::size_t kBins = 30;
  ChiSquare x;
  for (std::size_t c = 0; c < cities.size(); ++c) {
    std::vector<double> counts(kBins, 0.0);
    for (const auto& r : w.generate_city(c, 30'000).requests) {
      const double offset = std::fmod(r.timestamp_s, 60.0) / 60.0;
      counts[static_cast<std::size_t>(offset * kBins)] += 1.0;
    }
    x.add(counts, std::vector<double>(kBins, 1.0));
  }
  x.expect_plausible();
}

TEST(Overlap, SelfOverlapIsTotal) {
  const auto& cities = util::paper_cities();
  const WorkloadModel w(cities, tiny_params());
  const auto t = w.generate_city(0, 1'000);
  const auto r = overlap(t, t);
  EXPECT_DOUBLE_EQ(r.object_overlap, 1.0);
  EXPECT_DOUBLE_EQ(r.traffic_overlap, 1.0);
}

TEST(Overlap, DisjointTracesOverlapZero) {
  LocationTrace a, b;
  a.requests.push_back({0.0, 1, 10, 0});
  b.requests.push_back({0.0, 2, 10, 1});
  const auto r = overlap(a, b);
  EXPECT_DOUBLE_EQ(r.object_overlap, 0.0);
  EXPECT_DOUBLE_EQ(r.traffic_overlap, 0.0);
}

}  // namespace
}  // namespace starcdn::trace
