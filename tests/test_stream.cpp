// The streaming trace pipeline's contract (DESIGN.md §12): chunked streams
// are *bitwise* equivalent to the materialized path — same requests, same
// order, same simulator metrics — for any chunk size and thread count;
// and merge_by_time orders by (timestamp, trace index, position).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "core/simulator.h"
#include "replay/replayer.h"
#include "sched/scheduler.h"
#include "trace/stream.h"
#include "trace/trace_io.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace starcdn {
namespace {

struct ThreadOverrideGuard {
  explicit ThreadOverrideGuard(int n) { util::set_parallel_threads(n); }
  ~ThreadOverrideGuard() { util::set_parallel_threads(0); }
};

// --- merge_by_time ------------------------------------------------------------

void expect_same_requests(const std::vector<trace::Request>& a,
                          const std::vector<trace::Request>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].timestamp_s, b[i].timestamp_s) << "request " << i;
    ASSERT_EQ(a[i].object, b[i].object) << "request " << i;
    ASSERT_EQ(a[i].size, b[i].size) << "request " << i;
    ASSERT_EQ(a[i].location, b[i].location) << "request " << i;
  }
}

trace::MultiTrace traces_with_ties() {
  // Deliberate timestamp ties within and across traces, so both halves of
  // the tie-break (trace index, then position) are exercised.
  trace::MultiTrace traces(3);
  for (std::uint16_t t = 0; t < 3; ++t) {
    traces[t].location = t;
    for (int i = 0; i < 50; ++i) {
      trace::Request r;
      r.timestamp_s = static_cast<double>(i / 2);  // ties within & across
      r.object = static_cast<trace::ObjectId>(1000 * t + i);
      r.size = 100 + t;
      r.location = t;
      traces[t].requests.push_back(r);
    }
  }
  traces.push_back({});  // empty trailing trace
  return traces;
}

/// Checks `merged` against the merge rule itself: it is time-ordered, it is
/// a permutation of `traces` that keeps each trace's own order, and equal
/// timestamps go by trace index. Each trace's requests must carry its index
/// as their location, which is how a merged request names its trace.
void expect_merge_rule(const trace::MultiTrace& traces,
                       const std::vector<trace::Request>& merged) {
  std::vector<std::vector<trace::Request>> by_trace(traces.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    ASSERT_LT(merged[i].location, traces.size()) << "request " << i;
    by_trace[merged[i].location].push_back(merged[i]);
    if (i == 0) continue;
    ASSERT_LE(merged[i - 1].timestamp_s, merged[i].timestamp_s)
        << "request " << i;
    if (merged[i - 1].timestamp_s == merged[i].timestamp_s) {
      ASSERT_LE(merged[i - 1].location, merged[i].location) << "request " << i;
    }
  }
  for (std::size_t t = 0; t < traces.size(); ++t) {
    SCOPED_TRACE("trace " + std::to_string(t));
    for (const auto& r : traces[t].requests) ASSERT_EQ(r.location, t);
    expect_same_requests(by_trace[t], traces[t].requests);
  }
}

TEST(MergeByTime, PinsLegacyStableOrdering) {
  const auto traces = traces_with_ties();
  expect_merge_rule(traces, trace::merge_by_time(traces));
}

TEST(MergeByTime, WorkloadTracesMatchLegacyOrdering) {
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 5'000;
  p.requests_per_weight = 2'000;
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel model(util::paper_cities(), p);
  const auto traces = model.generate();
  expect_merge_rule(traces, trace::merge_by_time(traces));
}

// --- sort_minute -------------------------------------------------------------

/// sort_minute over `t` (tagged with each key's input index) must give
/// std::stable_sort's order: the same doubles, ties in input order.
void expect_stable_order(const std::vector<double>& t, double start,
                         double end) {
  std::vector<trace::TimeKey> keys;
  for (std::size_t i = 0; i < t.size(); ++i) {
    keys.push_back({t[i], static_cast<std::uint32_t>(i)});
  }
  std::vector<trace::TimeKey> got(keys.size());
  trace::sort_minute(keys, start, end, got);
  std::stable_sort(keys.begin(), keys.end(),
                   [](const trace::TimeKey& a, const trace::TimeKey& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(got[i].tag, keys[i].tag) << "position " << i;
    ASSERT_EQ(got[i].timestamp_s, keys[i].timestamp_s) << "position " << i;
  }
}

TEST(SortMinute, MatchesStableSortOnTies) {
  expect_stable_order({}, 0.0, 60.0);
  expect_stable_order({12.5}, 0.0, 60.0);
  // Three cities' blocks, city-major as the stream lays them out, with
  // equal timestamps across cities and within one city.
  expect_stable_order({30.0, 10.5, 10.5, 59.0,   // city 0
                       10.5, 5.0, 30.0,          // city 1
                       30.0, 10.5, 5.0, 5.0},    // city 2
                      0.0, 60.0);
  // Every key in the first bucket, in descending order with repeats: the
  // insertion pass's worst case.
  std::vector<double> one_bucket;
  for (int i = 300; i > 0; --i) one_bucket.push_back(120.0 + i * 1e-6);
  for (int i = 300; i > 0; i -= 7) one_bucket.push_back(120.0 + i * 1e-6);
  expect_stable_order(one_bucket, 120.0, 180.0);
  // The minute's first and last representable values, which land in the
  // first bucket and in the clamped last one.
  const double last = std::nextafter(180.0, 120.0);
  expect_stable_order({last, 150.0, 120.0, last, 179.5, 120.0, last}, 120.0,
                      180.0);
  // A partial last minute, [86340, 86370.25), drawn as the stream draws
  // offsets, with every tenth key repeating an earlier one.
  util::Rng rng(11);
  std::vector<double> partial;
  for (int i = 0; i < 5'000; ++i) {
    partial.push_back(i % 10 == 9 && i > 0
                          ? partial[rng.below(partial.size())]
                          : std::min(std::nextafter(86370.25, 86340.0),
                                     86340.0 + rng.uniform() * 30.25));
  }
  expect_stable_order(partial, 86340.0, 86370.25);
}

// --- Stream adapters ---------------------------------------------------------

TEST(RequestStream, VectorStreamRoundTripsAtAnyChunk) {
  const auto traces = traces_with_ties();
  const auto merged = trace::merge_by_time(traces);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  trace::kDefaultChunkRequests}) {
    trace::VectorStream stream(merged, chunk);
    ASSERT_EQ(stream.size_hint(), merged.size());
    expect_same_requests(trace::collect(stream), merged);
  }
}

TEST(RequestStream, BlocksNeverEmptyAndRespectChunkSize) {
  const auto merged = trace::merge_by_time(traces_with_ties());
  trace::VectorStream stream(merged, 16);
  trace::RequestBlock block;
  std::size_t total = 0;
  while (stream.next(block)) {
    ASSERT_FALSE(block.empty());
    ASSERT_LE(block.count(), 16u);
    total += block.count();
  }
  EXPECT_EQ(total, *stream.size_hint());
  EXPECT_TRUE(block.empty());  // next() leaves the block empty at EOS
}

TEST(RequestStream, FileRoundTripPreservesBlocksAndRequests) {
  const auto traces = traces_with_ties();
  const auto merged = trace::merge_by_time(traces);
  const std::string path = testing::TempDir() + "stream_roundtrip.bin";

  trace::VectorStream writer_src(merged, 13);
  trace::write_binary_stream(writer_src, path);

  const auto reader = trace::open_binary_stream(path);
  ASSERT_EQ(reader->size_hint(), merged.size());
  trace::RequestBlock block;
  std::vector<trace::Request> back;
  while (reader->next(block)) {
    ASSERT_FALSE(block.empty());
    ASSERT_LE(block.count(), 13u);  // written block sizes preserved
    for (std::size_t i = 0; i < block.count(); ++i) {
      back.push_back(block.at(i));
    }
  }
  expect_same_requests(back, merged);
  std::remove(path.c_str());
}

// --- generate_stream ---------------------------------------------------------

trace::WorkloadParams small_params() {
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 5'000;
  p.requests_per_weight = 2'000;
  p.duration_s = util::kHour.value();
  return p;
}

TEST(GenerateStream, BitwiseMatchesMaterializedAcrossChunkAndThreads) {
  const trace::WorkloadModel model(util::paper_cities(), small_params());
  const auto merged = trace::merge_by_time(model.generate());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  trace::kDefaultChunkRequests}) {
    for (const int threads : {1, 4, 8}) {
      SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                   " threads=" + std::to_string(threads));
      ThreadOverrideGuard guard(threads);
      expect_same_requests(trace::merge_by_time(model.generate()), merged);
      const auto stream = model.generate_stream(chunk);
      ASSERT_EQ(stream->size_hint(), merged.size());
      expect_same_requests(trace::collect(*stream), merged);
    }
  }
}

TEST(GenerateStream, EmptyCityAndSingleRequestEdgeCases) {
  std::vector<util::City> cities = {
      {"quiet", {48.0, 11.0}, 0.0, "de"},     // zero traffic weight
      {"busy", {51.5, -0.1}, 1.0, "en-gb"},
      {"silent", {40.7, -74.0}, 0.0, "en-us"},
  };
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 500;
  p.duration_s = util::kHour.value();

  p.requests_per_weight = 1;  // exactly one request, from the busy city
  {
    const trace::WorkloadModel model(cities, p);
    EXPECT_EQ(model.total_request_count(), 1u);
    const auto merged = trace::merge_by_time(model.generate());
    ASSERT_EQ(merged.size(), 1u);
    const auto stream = model.generate_stream(1);
    expect_same_requests(trace::collect(*stream), merged);
  }

  p.requests_per_weight = 300;
  {
    const trace::WorkloadModel model(cities, p);
    const auto merged = trace::merge_by_time(model.generate());
    ASSERT_EQ(merged.size(), 300u);
    for (const auto& r : merged) EXPECT_EQ(r.location, 1);
    const auto stream = model.generate_stream(17);
    expect_same_requests(trace::collect(*stream), merged);
  }
}

TEST(GenerateStream, AllCitiesEmptyYieldsNothing) {
  // Per-city counts truncate to zero: weight * requests_per_weight < 1.
  std::vector<util::City> cities = {{"a", {0.0, 0.0}, 0.0, "x"},
                                    {"b", {1.0, 1.0}, 0.9, "y"}};
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 100;
  p.requests_per_weight = 1;
  const trace::WorkloadModel model(cities, p);
  const auto stream = model.generate_stream();
  ASSERT_EQ(stream->size_hint(), 0u);
  trace::RequestBlock block;
  EXPECT_FALSE(stream->next(block));
}

/// Every drained request folded into one hash: timestamp bits, object, size
/// and city, in stream order.
std::uint64_t drained_digest(trace::RequestStream& stream) {
  std::uint64_t h = 0;
  trace::RequestBlock block;
  while (stream.next(block)) {
    for (std::size_t i = 0; i < block.count(); ++i) {
      h = util::hash_combine(
          h, std::bit_cast<std::uint64_t>(block.timestamp_s[i]));
      h = util::hash_combine(h, block.object[i]);
      h = util::hash_combine(h, block.size[i]);
      h = util::hash_combine(h, block.location[i]);
    }
  }
  return h;
}

TEST(GenerateStream, DefaultDensityDrainIsPinned) {
  // A full day at each class's default density, pinned bitwise. The digests
  // were captured when city tables still stored 64-bit object ids; storing
  // them as u32 indices must not move a single draw.
  const std::pair<trace::TrafficClass, std::uint64_t> pins[] = {
      {trace::TrafficClass::kVideo, 0x577fbed890b3ca99ull},
      {trace::TrafficClass::kWeb, 0xfdfe1f0b7c3a7f7aull},
      {trace::TrafficClass::kDownload, 0xb7d1b8e27336bda2ull},
  };
  for (const auto& [c, pin] : pins) {
    const trace::WorkloadModel model(util::paper_cities(),
                                     trace::default_params(c));
    const auto stream = model.generate_stream();
    EXPECT_EQ(drained_digest(*stream), pin) << trace::to_string(c);
  }
}

// --- Simulator::run(RequestStream&) ------------------------------------------

void expect_identical_metrics(const core::VariantMetrics& a,
                              const core::VariantMetrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.local_hits, b.local_hits);
  EXPECT_EQ(a.routed_hits, b.routed_hits);
  EXPECT_EQ(a.relay_west_hits, b.relay_west_hits);
  EXPECT_EQ(a.relay_east_hits, b.relay_east_hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.unreachable, b.unreachable);
  EXPECT_EQ(a.transient_misses, b.transient_misses);
  EXPECT_EQ(a.handovers, b.handovers);
  EXPECT_EQ(a.bytes_requested, b.bytes_requested);
  EXPECT_EQ(a.bytes_hit, b.bytes_hit);
  EXPECT_EQ(a.uplink_bytes, b.uplink_bytes);
  EXPECT_EQ(a.isl_bytes, b.isl_bytes);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  // Uplink meter statistics see identical (satellite, epoch) cells only if
  // the stream path defers its flush to the end of the run.
  EXPECT_EQ(a.uplink_meter.total_bytes(), b.uplink_meter.total_bytes());
  EXPECT_EQ(a.uplink_meter.throughput_gbps().count(),
            b.uplink_meter.throughput_gbps().count());
  EXPECT_EQ(a.uplink_meter.throughput_gbps().mean(),
            b.uplink_meter.throughput_gbps().mean());
  ASSERT_EQ(a.latency_ms.count(), b.latency_ms.count());
  EXPECT_EQ(a.latency_ms.median(), b.latency_ms.median());
  EXPECT_EQ(a.latency_ms.quantile(0.99), b.latency_ms.quantile(0.99));
}

TEST(SimulatorStream, BitwiseMatchesMaterializedAcrossChunksAndThreads) {
  core::Scenario recipe;
  recipe.workload = small_params();
  const core::Scenario::Built s = recipe.build();
  const auto requests = trace::merge_by_time(s.model->generate());

  const std::vector<core::Variant> variants = {
      core::Variant::kStatic,     core::Variant::kStarCdn,
      core::Variant::kHashOnly,   core::Variant::kRelayOnly,
      core::Variant::kVanillaLru, core::Variant::kPrefetch};
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(64);
  cfg.buckets = 4;
  cfg.transient_down_prob = 0.02;
  cfg.variants = variants;

  auto simulate = [&](int threads, std::size_t chunk) {
    ThreadOverrideGuard guard(threads);
    core::Simulator sim(*s.shell, *s.schedule, cfg);
    trace::VectorStream stream(requests, chunk);
    sim.run(stream);
    return sim.finish();
  };

  const auto reference = simulate(1, trace::kDefaultChunkRequests);
  for (const int threads : {1, 4, 8}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                    trace::kDefaultChunkRequests}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk=" + std::to_string(chunk));
      const auto streamed = simulate(threads, chunk);
      for (const auto v : variants) {
        SCOPED_TRACE(core::to_string(v));
        expect_identical_metrics(reference.variant(v).metrics,
                                 streamed.variant(v).metrics);
      }
    }
  }
}

TEST(SimulatorStream, GeneratedStreamMatchesMaterializedEndToEnd) {
  // The full pipeline: generate_stream -> Simulator::run(stream) equals
  // generate + merge_by_time + VectorStream, with no materialization on the
  // stream side.
  core::Scenario recipe;
  recipe.workload = small_params();
  const core::Scenario::Built s = recipe.build();
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(64);
  cfg.variants = {core::Variant::kStarCdn};

  core::Simulator materialized(*s.shell, *s.schedule, cfg);
  const auto requests = trace::merge_by_time(s.model->generate());
  trace::VectorStream vector_stream(requests);
  materialized.run(vector_stream);

  core::Simulator streamed(*s.shell, *s.schedule, cfg);
  const auto stream = s.model->generate_stream(1024);
  streamed.run(*stream);

  expect_identical_metrics(
      materialized.finish().variant(core::Variant::kStarCdn).metrics,
      streamed.finish().variant(core::Variant::kStarCdn).metrics);
}

TEST(SimulatorStream, EmptyStreamIsANoOp) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{30 * 60.0});
  core::SimConfig cfg;
  cfg.variants = {core::Variant::kStarCdn};
  core::Simulator sim(shell, schedule, cfg);
  const std::vector<trace::Request> none;
  trace::VectorStream stream(none, 64);
  sim.run(stream);
  EXPECT_EQ(sim.finish().variant(core::Variant::kStarCdn).metrics.requests,
            0u);
}


// --- validate_block: the one check at the stream boundary ---------------------

/// A valid time-ordered trace of `n` requests over the paper's cities.
std::vector<trace::Request> ordered_requests(std::size_t n) {
  std::vector<trace::Request> requests(n);
  for (std::size_t i = 0; i < n; ++i) {
    requests[i].timestamp_s = 0.001 * static_cast<double>(i);
    requests[i].object = i % 97;
    requests[i].size = 1000;
    requests[i].location =
        static_cast<std::uint16_t>(i % util::paper_cities().size());
  }
  return requests;
}

/// Run `requests` through a VectorStream of `chunk`-request blocks and
/// return the std::invalid_argument message (empty when the run succeeds).
std::string run_error(const std::vector<trace::Request>& requests,
                      std::size_t chunk) {
  static const orbit::Constellation shell{orbit::WalkerParams{}};
  static const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                            util::Seconds{30 * 60.0});
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(64);
  cfg.variants = {core::Variant::kStarCdn};
  core::Simulator sim(shell, schedule, cfg);
  try {
    trace::VectorStream stream(requests, chunk);
    sim.run(stream);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

void expect_rejected(const std::vector<trace::Request>& requests,
                     std::size_t chunk, const std::string& field,
                     const std::string& index, const std::string& value) {
  SCOPED_TRACE("chunk=" + std::to_string(chunk));
  const std::string error = run_error(requests, chunk);
  EXPECT_NE(error.find(field), std::string::npos) << error;
  EXPECT_NE(error.find("request " + index + ":"), std::string::npos) << error;
  EXPECT_NE(error.find(value), std::string::npos) << error;
}

TEST(StreamValidation, ValidTracesPassIncludingEqualTimestamps) {
  auto requests = ordered_requests(100);
  for (auto& r : requests) r.timestamp_s = 5.0;  // ties are time-ordered
  EXPECT_EQ(run_error(requests, trace::kDefaultChunkRequests), "");
  EXPECT_EQ(run_error(requests, 7), "");
}

TEST(StreamValidation, RejectsLocationEqualToCityCount) {
  // One past the schedule's last city: without the check stage 1 reads
  // another (epoch, city) cell of the link schedule, or past its end.
  auto requests = ordered_requests(100);
  const auto cities = util::paper_cities().size();
  requests[42].location = static_cast<std::uint16_t>(cities);
  for (const std::size_t chunk : {trace::kDefaultChunkRequests, std::size_t{16}}) {
    expect_rejected(requests, chunk, "location", "42",
                    std::to_string(cities));
  }
}

TEST(StreamValidation, RejectsTimestampGoingBackAcrossBlockBoundary) {
  // The decrease sits at the first request of a block, so only the
  // cross-block half of the check can see it.
  const std::size_t n = trace::kDefaultChunkRequests + 8;
  auto requests = ordered_requests(n);
  const std::size_t at = trace::kDefaultChunkRequests;
  requests[at].timestamp_s = 1.25;
  expect_rejected(requests, trace::kDefaultChunkRequests, "timestamp_s",
                  std::to_string(at), "1.25");
  auto small = ordered_requests(40);
  small[16].timestamp_s = 0.0105;
  expect_rejected(small, 16, "timestamp_s", "16", "0.0105");
}

TEST(StreamValidation, RejectsNanTimestamp) {
  auto requests = ordered_requests(100);
  requests[9].timestamp_s = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t chunk : {trace::kDefaultChunkRequests, std::size_t{4}}) {
    expect_rejected(requests, chunk, "timestamp_s", "9", "nan");
  }
}

TEST(StreamValidation, RejectsZeroSize) {
  // A zero-byte request would count as a hit or miss that moves no bytes,
  // breaking the byte-conservation accounting behind every uplink figure.
  auto requests = ordered_requests(100);
  requests[61].size = 0;
  for (const std::size_t chunk : {trace::kDefaultChunkRequests, std::size_t{8}}) {
    expect_rejected(requests, chunk, "size", "61", "is 0");
  }
}

TEST(StreamValidation, BlocksBeforeTheBadOneAreFullyReplayed) {
  // The bad request sits in the third 16-request block: the pipeline still
  // decides and folds the first two before the error reaches the caller.
  static const orbit::Constellation shell{orbit::WalkerParams{}};
  static const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                            util::Seconds{30 * 60.0});
  auto requests = ordered_requests(100);
  requests[40].size = 0;
  core::SimConfig cfg;
  cfg.cache_capacity = util::mib(64);
  cfg.variants = {core::Variant::kStarCdn};
  core::Simulator sim(shell, schedule, cfg);
  trace::VectorStream stream(requests, 16);
  EXPECT_THROW(sim.run(stream), std::invalid_argument);
  EXPECT_EQ(sim.finish().variant(core::Variant::kStarCdn).metrics.requests,
            32u);
}

TEST(StreamValidation, ReplayClusterRejectsBadBlocks) {
  orbit::WalkerParams p;
  p.planes = 6;
  p.slots_per_plane = 4;
  const orbit::Constellation shell{p};
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{600.0});
  auto requests = ordered_requests(50);
  requests[30].location = 500;
  trace::VectorStream stream(requests, 8);
  EXPECT_THROW((void)replay::replay_cluster(shell, schedule, stream, {}),
               std::invalid_argument);
}

TEST(StreamValidation, PositionCarriesAcrossBlocks) {
  trace::RequestBlock block;
  block.push_back({1.0, 1, 10, 0});
  block.push_back({2.0, 2, 10, 1});
  trace::StreamPosition pos;
  trace::validate_block(block, 2, pos);
  EXPECT_EQ(pos.index, 2u);
  EXPECT_EQ(pos.last_timestamp_s, 2.0);
  EXPECT_THROW(trace::validate_block(block, 2, pos), std::invalid_argument);
  trace::StreamPosition fresh;
  EXPECT_THROW(trace::validate_block(block, 1, fresh), std::invalid_argument);
}

}  // namespace
}  // namespace starcdn
