// Microbenchmarks (google-benchmark): throughput of the hot paths — cache
// operations, bucket hashing, orbital propagation, visibility, codec,
// weighted sampling and the SpaceGEN byte stack — plus a serial-vs-parallel
// speedup report for the deterministic parallel engine (printed before the
// gbench table).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "cache/cache.h"
#include "core/bucket_mapper.h"
#include "core/metrics.h"
#include "core/scenario.h"
#include "core/simulator.h"
#include "net/codec.h"
#include "obs/series.h"
#include "orbit/constellation.h"
#include "orbit/visibility.h"
#include "sched/scheduler.h"
#include "trace/bytestack.h"
#include "trace/sampler.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/units.h"

namespace {

using namespace starcdn;

void BM_CacheAccess(benchmark::State& state) {
  const auto policy = static_cast<cache::Policy>(state.range(0));
  const auto cache = cache::make_cache(policy, util::mib(64));
  util::Rng rng(1);
  std::vector<cache::ObjectId> ids(1 << 16);
  for (auto& id : ids) id = rng.below(20'000);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache->access(ids[i++ & (ids.size() - 1)], 4096));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cache::to_string(policy));
}
BENCHMARK(BM_CacheAccess)->DenseRange(0, 5)->Unit(benchmark::kNanosecond);

void BM_CacheEvictChurn(benchmark::State& state) {
  // Eviction-heavy path: a flood of one-hit-wonder ids (random draws from a
  // universe 1000x the cache) through a small cache, so nearly every access
  // admits a new object and evicts a resident one. Exercises the slab free
  // list and the index's backward-shift deletion.
  const auto policy = static_cast<cache::Policy>(state.range(0));
  const auto cache = cache::make_cache(
      policy, util::mib(4), cache::presize_hint(util::mib(4), 4096));
  util::Rng rng(3);
  std::vector<cache::ObjectId> ids(1 << 16);
  for (auto& id : ids) id = rng.below(1'048'576);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache->access(ids[i++ & (ids.size() - 1)], 4096));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cache::to_string(policy));
}
BENCHMARK(BM_CacheEvictChurn)->DenseRange(0, 5)->Unit(benchmark::kNanosecond);

void BM_CachePeekProbe(benchmark::State& state) {
  // The relayed-fetch pattern: side-effect-free neighbour probes, ~75%
  // absent — the index's negative-lookup fast path.
  const auto policy = static_cast<cache::Policy>(state.range(0));
  const auto cache = cache::make_cache(policy, util::mib(64));
  for (cache::ObjectId id = 0; id < 16'384; ++id) cache->admit(id, 4096);
  util::Rng rng(2);
  std::vector<cache::ObjectId> ids(1 << 16);
  for (auto& id : ids) id = rng.below(65'536);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache->peek(ids[i++ & (ids.size() - 1)]));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(cache::to_string(policy));
}
BENCHMARK(BM_CachePeekProbe)->DenseRange(0, 5)->Unit(benchmark::kNanosecond);

void BM_BucketMapping(benchmark::State& state) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const core::BucketMapper mapper(shell, static_cast<int>(state.range(0)));
  std::uint64_t id = 0;
  for (auto _ : state) {
    const util::BucketId b = mapper.bucket_of_object(++id);
    benchmark::DoNotOptimize(
        mapper.owner({static_cast<int>(id % 72), static_cast<int>(id % 18)}, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BucketMapping)->Arg(4)->Arg(9)->Arg(25);

void BM_Propagation(benchmark::State& state) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  double t = 0.0;
  for (auto _ : state) {
    t += 15.0;
    benchmark::DoNotOptimize(shell.position_ecef({31, 7}, util::Seconds{t}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Propagation);

void BM_VisibilitySweep(benchmark::State& state) {
  const orbit::Constellation shell{orbit::WalkerParams{}};
  const orbit::VisibilityOracle oracle(util::Degrees{25.0});
  const auto positions = shell.all_positions_ecef(util::Seconds{0.0});
  const util::GeoCoord ny{40.71, -74.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.visible(ny, shell, positions));
  }
  state.SetItemsProcessed(state.iterations() * shell.size());
}
BENCHMARK(BM_VisibilitySweep);

void BM_ScheduleBuildDay(benchmark::State& state) {
  // The set-up every perfbench run pays: the full-day link schedule of the
  // paper shell for the nine paper cities (5,760 epochs), on one thread.
  const orbit::Constellation shell{orbit::WalkerParams{}};
  util::set_parallel_threads(1);
  std::size_t cells = 0;
  for (auto _ : state) {
    const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                       util::kDay);
    cells = schedule.epochs() * schedule.cities();
    benchmark::DoNotOptimize(&schedule);
  }
  util::set_parallel_threads(0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_ScheduleBuildDay)->Unit(benchmark::kMillisecond);

void BM_CodecRoundTrip(benchmark::State& state) {
  net::Message m;
  m.type = net::MessageType::kRequest;
  m.object_id = 42;
  m.payload.assign(static_cast<std::size_t>(state.range(0)), 'x');
  net::FrameDecoder decoder;
  for (auto _ : state) {
    const auto bytes = net::encode(m);
    decoder.feed(bytes);
    benchmark::DoNotOptimize(decoder.next());
  }
  state.SetBytesProcessed(state.iterations() *
                          (static_cast<std::int64_t>(state.range(0)) + 48));
}
BENCHMARK(BM_CodecRoundTrip)->Arg(0)->Arg(1024)->Arg(65536);

void BM_ByteStackAlgorithm1Step(benchmark::State& state) {
  // Algorithm 1's inner loop: pop the top, reinsert at a sampled depth.
  trace::ByteStack stack;
  util::Rng rng(7);
  for (int i = 0; i < state.range(0); ++i) {
    trace::StackItem item;
    item.object = static_cast<trace::ObjectId>(i);
    item.size = 1 + rng.below(1'000'000);
    item.popularity = 1'000'000;  // never retires during the benchmark
    stack.push_back(item);
  }
  const util::Bytes total = stack.total_bytes();
  for (auto _ : state) {
    auto item = stack.pop_front();
    ++item.emitted;
    stack.insert_at_depth(rng.below(total), item);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ByteStackAlgorithm1Step)->Arg(1'000)->Arg(100'000);

void BM_MergeByTime(benchmark::State& state) {
  // merge_by_time over the nine per-city traces: concatenate, then one
  // stable sort by timestamp. Items/s is the merged-request throughput.
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.object_count = 20'000;
  p.requests_per_weight = static_cast<std::size_t>(state.range(0));
  p.duration_s = util::kHour.value();
  const trace::WorkloadModel workload(util::paper_cities(), p);
  const auto traces = workload.generate();
  std::uint64_t total = 0;
  for (auto _ : state) {
    const auto merged = trace::merge_by_time(traces);
    total = merged.size();
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_MergeByTime)->Arg(10'000)->Arg(50'000)->Unit(benchmark::kMillisecond);

void BM_GenerateStream(benchmark::State& state) {
  // End-to-end trace generation: the stream splits each city's requests
  // over minutes, then makes each minute's draws and (timestamp, city)
  // order straight into chunked SoA blocks, never materializing the trace.
  // day=0 is a 20k-object hour; day=1 is perfbench's video scale, 300k
  // objects over a full day (rpw=600000 is video_starcdn's 6.72M requests).
  auto p = trace::default_params(trace::TrafficClass::kVideo);
  p.requests_per_weight = static_cast<std::size_t>(state.range(0));
  if (state.range(1) == 0) {
    p.object_count = 20'000;
    p.duration_s = util::kHour.value();
  }
  const trace::WorkloadModel workload(util::paper_cities(), p);
  std::uint64_t total = 0;
  for (auto _ : state) {
    const auto stream = workload.generate_stream();
    trace::RequestBlock block;
    total = 0;
    while (stream->next(block)) {
      total += block.count();
      benchmark::DoNotOptimize(block.timestamp_s.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(total));
}
BENCHMARK(BM_GenerateStream)
    ->ArgNames({"rpw", "day"})
    ->Args({10'000, 0})
    ->Args({50'000, 0})
    ->Args({600'000, 1})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DiscreteSample(benchmark::State& state) {
  // One draw from a 181k-entry Zipf(1.2) table, the size of the video
  // model's largest city table. A lone table stays in cache across draws,
  // so this is the guide lookup's own cost; BM_DiscreteSampleCityTables
  // shows what a draw costs when the tables do not fit in cache.
  std::vector<double> weights(181'000);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = std::pow(static_cast<double>(i + 1), -1.2);
  }
  const trace::DiscreteSampler sampler(weights);
  util::Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(sampler.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteSample);

void BM_DiscreteSampleCityTables(benchmark::State& state) {
  // Object draws as the stream makes them: a block of draws from each of
  // the video model's nine city tables (89k-181k entries) in turn, one
  // sample() per draw (batched=0) or one sample_n() per block (batched=1).
  // A block is about one city's requests in one minute at video_starcdn's
  // scale.
  static const trace::WorkloadModel model(
      util::paper_cities(), trace::default_params(trace::TrafficClass::kVideo));
  constexpr std::size_t kBlock = 512;
  const bool batched = state.range(0) != 0;
  const std::size_t cities = model.cities().size();
  std::vector<std::uint32_t> out(kBlock);
  util::Rng rng(7);
  for (auto _ : state) {
    for (std::size_t c = 0; c < cities; ++c) {
      const trace::DiscreteSampler& sampler = model.city_table(c).sampler;
      if (batched) {
        sampler.sample_n(rng, out);
      } else {
        for (auto& o : out) o = static_cast<std::uint32_t>(sampler.sample(rng));
      }
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cities * kBlock));
}
BENCHMARK(BM_DiscreteSampleCityTables)->ArgName("batched")->Arg(0)->Arg(1);

void BM_Splitmix(benchmark::State& state) {
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x = util::splitmix64(x + 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Splitmix);

void BM_ParallelForOverhead(benchmark::State& state) {
  // Fork-join cost of an (almost) empty loop at the configured width.
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::uint64_t sink = 0;
    util::parallel_for(
        1024, [&sink](std::size_t i) { benchmark::DoNotOptimize(sink += i); },
        threads);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4);

void BM_ObsSeriesAdvance(benchmark::State& state) {
  // Per-request cost of the epoch-series recorder when the epoch does NOT
  // change — the common case (thousands of requests per 15 s epoch). Must
  // stay a single compare: the row is only collected on a crossing.
  const core::VariantMetrics metrics;
  obs::EpochSeries series(core::series_columns());
  const auto row = core::series_row(metrics);
  series.advance_to(1, row);
  for (auto _ : state) {
    series.advance_to(1, row);
    benchmark::DoNotOptimize(&series);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsSeriesAdvance);

double time_s(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Serial-vs-parallel wall-clock comparison for the two parallelized hot
/// paths: LinkSchedule construction (fan-out over epoch ranges) and a
/// 4-variant Simulator::run (fan-out over variants). Both paths are bitwise
/// deterministic for any thread count (see tests/test_determinism.cpp), so
/// the speedup is free accuracy-wise. The schedule is the full day that
/// perfbench builds; two hours take about 12 ms, too little to time. Each
/// epoch range starts by propagating every satellite, so each extra thread
/// adds one full sweep. Numbers are recorded in EXPERIMENTS.md ("parallel
/// engine").
void report_parallel_speedup() {
  const int threads = util::parallel_threads();
  std::printf("\n=== parallel engine speedup (STARCDN_THREADS=%d) ===\n",
              threads);

  core::Scenario recipe;
  recipe.workload.object_count = 50'000;
  recipe.workload.requests_per_weight = 40'000;
  recipe.workload.duration_s = 2 * util::kHour.value();
  const core::Scenario::Built s = recipe.build();
  const auto requests = trace::collect(*s.model->generate_stream());

  auto build_schedule = [&](int n) {
    util::set_parallel_threads(n);
    const double t = time_s([&] {
      const sched::LinkSchedule schedule(*s.shell, util::paper_cities(),
                                         util::kDay);
      benchmark::DoNotOptimize(&schedule);
    });
    util::set_parallel_threads(0);
    return t;
  };
  const double sched_serial = build_schedule(1);
  const double sched_parallel = build_schedule(threads);
  std::printf("LinkSchedule(1 day, 9 cities): serial %.3f s, parallel %.3f s, "
              "speedup %.2fx\n",
              sched_serial, sched_parallel, sched_serial / sched_parallel);

  auto simulate = [&](int n) {
    util::set_parallel_threads(n);
    core::SimConfig cfg;
    cfg.cache_capacity = util::mib(512);
    cfg.variants = {core::Variant::kStarCdn, core::Variant::kHashOnly,
                    core::Variant::kRelayOnly, core::Variant::kVanillaLru};
    core::Simulator sim(*s.shell, *s.schedule, cfg);
    trace::VectorStream stream(requests);
    const double t = time_s([&] { sim.run(stream); });
    util::set_parallel_threads(0);
    return t;
  };
  const double sim_serial = simulate(1);
  const double sim_parallel = simulate(threads);
  std::printf("Simulator::run(4 variants, %zu requests): serial %.3f s, "
              "parallel %.3f s, speedup %.2fx\n\n",
              requests.size(), sim_serial, sim_parallel,
              sim_serial / sim_parallel);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  report_parallel_speedup();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
