// Measurement binary of the repository benchmark.
//
// Builds one named workload through the public APIs, replays it again and
// again until a time budget is spent, and prints one JSON object holding
// every raw measurement: per-repetition set-up and replay times, each
// variant's RunReport counters and latency quantiles, and peak RSS. With
// --trace 1 it also alternates untraced and traced repetitions (the traced
// ones write a chrome trace plus a log of every RequestStream::next() call)
// and runs per-layer probes over the workload's own request sample.
// perfbench/run.py turns this into the benchmark's metrics and checks it;
// perfbench/README.md documents the workloads.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --trace-dir DIR [--scale F]
//
// --scale shrinks request volume and trace duration together (tests only).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "cache/cache.h"
#include "core/bucket_mapper.h"
#include "core/run_report.h"
#include "core/simulator.h"
#include "net/latency_model.h"
#include "obs/tracer.h"
#include "orbit/constellation.h"
#include "sched/scheduler.h"
#include "trace/stream.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/hash.h"
#include "util/mem.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace starcdn;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One benchmark workload. perfbench/README.md records why each exists.
struct Workload {
  const char* name;
  trace::TrafficClass traffic_class;
  double volume;  // requests_per_weight multiplier over default_params
  std::vector<core::Variant> variants;
  util::Bytes capacity;
  double fail_fraction;   // slots knocked out for good (Fig. 11)
  double transient_prob;  // transient outage probability per 300 s window
  bool serial;            // one pool thread instead of nproc
};

const std::vector<Workload>& workloads() {
  using core::Variant;
  static const std::vector<Workload> all = {
      {"video_starcdn", trace::TrafficClass::kVideo, 4.0, {Variant::kStarCdn},
       util::gib(8), 0.0, 0.0, false},
      {"video_six_variants", trace::TrafficClass::kVideo, 2.0,
       {Variant::kStatic, Variant::kVanillaLru, Variant::kHashOnly,
        Variant::kRelayOnly, Variant::kStarCdn, Variant::kPrefetch},
       util::gib(1), 0.0, 0.0, false},
      {"web_failover_serial", trace::TrafficClass::kWeb, 4.0,
       {Variant::kStarCdn, Variant::kVanillaLru}, util::gib(2), 0.097, 0.05,
       true},
  };
  return all;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
  double scale = 1.0;
};

/// Everything a repetition constructs before replay, with its timings.
struct Setup {
  std::unique_ptr<trace::WorkloadModel> model;
  std::unique_ptr<orbit::Constellation> shell;
  std::unique_ptr<sched::LinkSchedule> schedule;
  std::unique_ptr<core::Simulator> sim;
  double model_s = 0.0;
  double shell_s = 0.0;
  double schedule_s = 0.0;
  double sim_s = 0.0;
};

constexpr int kBuckets = 9;
// Traces per run, see main(): an untraced run replays kTraces traces, a
// traced run the first kTracedTraces of them (each untraced, then traced).
constexpr int kTraces = 6;
constexpr int kTracedTraces = 3;

/// Frees a set-up, the simulator before the structures it points into,
/// and hands the freed heap back to the kernel, so the next repetition's
/// peak RSS does not include what this one left behind.
void release(Setup& s) {
  s.sim.reset();
  s.schedule.reset();
  s.shell.reset();
  s.model.reset();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

Setup build_setup(const Workload& w, double scale, std::uint64_t seed) {
  Setup s;
  trace::WorkloadParams params = trace::default_params(w.traffic_class);
  params.duration_s = util::kDay.value() * scale;
  params.requests_per_weight = static_cast<std::size_t>(
      static_cast<double>(params.requests_per_weight) * w.volume * scale);
  params.seed = seed;

  auto t0 = Clock::now();
  s.model = std::make_unique<trace::WorkloadModel>(util::paper_cities(),
                                                   params);
  s.model_s = seconds_since(t0);

  t0 = Clock::now();
  s.shell = std::make_unique<orbit::Constellation>(orbit::WalkerParams{});
  if (w.fail_fraction > 0.0) {
    util::Rng rng(util::splitmix64(seed ^ 0xfa11edULL));
    s.shell->knock_out_random(w.fail_fraction, rng);
  }
  s.shell_s = seconds_since(t0);

  t0 = Clock::now();
  s.schedule = std::make_unique<sched::LinkSchedule>(
      *s.shell, util::paper_cities(), util::Seconds{params.duration_s});
  s.schedule_s = seconds_since(t0);

  t0 = Clock::now();
  core::SimConfig::Builder b;
  b.cache_capacity(w.capacity).buckets(kBuckets).seed(seed);
  if (w.transient_prob > 0.0) {
    b.transient_failures(w.transient_prob, util::Seconds{300.0});
  }
  for (const core::Variant v : w.variants) b.variant(v);
  s.sim = std::make_unique<core::Simulator>(*s.shell, *s.schedule, b.build());
  s.sim_s = seconds_since(t0);
  return s;
}

/// Resets the kernel's peak-RSS mark (Linux: "5" into clear_refs), so a
/// repetition's own peak can be read; false where unsupported.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  return static_cast<bool>(f << "5" << std::flush);
}

/// Peak RSS since the last reset_peak_rss() (VmHWM), or the process peak
/// when the mark cannot be reset.
std::uint64_t peak_rss_since_reset(bool was_reset) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (was_reset && std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::uint64_t kib = 0;
    if (fields >> kib) return kib * 1024;
  }
  return util::peak_rss_bytes();
}

/// Wraps the workload stream in traced repetitions and logs each next()
/// call: start on the tracer's clock (to line up with the program's spans)
/// and its own duration in nanoseconds.
class TimedStream final : public trace::RequestStream {
 public:
  struct Call {
    std::int64_t start_us;
    std::int64_t dur_ns;
    std::size_t requests;
  };

  TimedStream(trace::RequestStream& inner, const obs::Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  [[nodiscard]] bool next(trace::RequestBlock& out) override {
    const std::int64_t start_us = tracer_->now_us();
    const auto t0 = Clock::now();
    const bool more = inner_->next(out);
    const auto dur = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - t0);
    calls_.push_back({start_us, dur.count(), out.count()});
    return more;
  }
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  [[nodiscard]] const std::vector<Call>& calls() const noexcept {
    return calls_;
  }

 private:
  trace::RequestStream* inner_;
  const obs::Tracer* tracer_;
  std::vector<Call> calls_;
};

/// What a repetition keeps of one variant's RunReport. The report itself
/// (latency reservoir, epoch series) is dropped at once, so repetitions do
/// not pile up memory that later repetitions' peak RSS would include.
struct VariantSummary {
  std::string name;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::uint64_t latency_samples = 0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
};

std::vector<VariantSummary> summarize(const core::RunReport& report) {
  std::vector<VariantSummary> out;
  for (const auto& vr : report.variants) {
    const auto& lat = vr.metrics.latency_ms;
    out.push_back({vr.name, vr.counters, lat.count(),
                   lat.empty() ? 0.0 : lat.quantile(0.5),
                   lat.empty() ? 0.0 : lat.quantile(0.99)});
  }
  return out;
}

struct Rep {
  std::uint64_t trace_seed = 0;
  std::uint64_t requests = 0;  // WorkloadModel::total_request_count()
  std::uint64_t peak_rss_bytes = 0;
  bool traced = false;
  Setup setup;
  double open_s = 0.0;    // generate_stream(): the counting pass
  double run_s = 0.0;     // Simulator::run, generation included
  double finish_s = 0.0;  // Simulator::finish
  std::vector<VariantSummary> variants;
  std::vector<TimedStream::Call> calls;
  std::string trace_file;
};

Rep run_rep(const Workload& w, const Options& o, std::uint64_t trace_seed,
            bool traced, int index) {
  Rep rep;
  rep.trace_seed = trace_seed;
  rep.traced = traced;
  const bool rss_reset = reset_peak_rss();
  std::unique_ptr<obs::Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<obs::Tracer>();
    obs::set_tracer(tracer.get());
  }
  rep.setup = build_setup(w, o.scale, trace_seed);
  rep.requests = rep.setup.model->total_request_count();

  auto t0 = Clock::now();
  const auto stream = rep.setup.model->generate_stream();
  rep.open_s = seconds_since(t0);
  t0 = Clock::now();
  if (traced) {
    TimedStream timed(*stream, *tracer);
    rep.setup.sim->run(timed);
    rep.calls = timed.calls();
  } else {
    rep.setup.sim->run(*stream);
  }
  rep.run_s = seconds_since(t0);
  t0 = Clock::now();
  const core::RunReport report = rep.setup.sim->finish();
  rep.finish_s = seconds_since(t0);
  rep.variants = summarize(report);
  rep.peak_rss_bytes = peak_rss_since_reset(rss_reset);

  if (traced) {
    obs::set_tracer(nullptr);
    rep.trace_file = o.trace_dir + "/" + w.name + ".rep" +
                     std::to_string(index) + ".trace.json";
    if (!tracer->write_json(rep.trace_file)) {
      throw std::runtime_error("cannot write " + rep.trace_file);
    }
  }
  return rep;
}

// --- Per-layer probes --------------------------------------------------------

/// Results of feeding the workload's request sample to single layers.
struct Probes {
  std::size_t sample = 0;
  double first_contact_ns = 0.0;
  double mapper_ns = 0.0;
  double touch_ns = 0.0;
  double admit_ns = 0.0;
  double peek_ns = 0.0;
  std::uint64_t touches = 0;
  std::uint64_t hits = 0;
  std::uint64_t admits = 0;
  std::uint64_t evictions = 0;
  double latency_ns = 0.0;
  double checksum = 0.0;  // keeps probe loops observable
};

constexpr std::size_t kProbeSample = std::size_t{1} << 20;

double per_item_ns(Clock::duration d, std::size_t n) {
  return n == 0 ? 0.0
                : static_cast<double>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                          .count()) /
                      static_cast<double>(n);
}

/// Mean cost of one back-to-back pair of clock reads, subtracted from
/// per-call cache timings.
double clock_pair_ns() {
  constexpr int kPairs = 100'000;
  std::int64_t total = 0;
  for (int i = 0; i < kPairs; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    total += std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  }
  return static_cast<double>(total) / kPairs;
}

std::uint64_t counter(const VariantSummary& vs, const std::string& name) {
  for (const auto& [k, v] : vs.counters) {
    if (k == name) return v;
  }
  throw std::out_of_range("counter " + name);
}

Probes run_probes(const Setup& s, const VariantSummary& starcdn) {
  Probes p;
  std::vector<trace::Request> sample;
  {
    const auto stream = s.model->generate_stream();
    trace::RequestBlock block;
    while (sample.size() < kProbeSample && stream->next(block)) {
      for (std::size_t i = 0; i < block.count() && sample.size() < kProbeSample;
           ++i) {
        sample.push_back(block.at(i));
      }
    }
  }
  const std::size_t n = sample.size();
  p.sample = n;

  // sched: stage-1's first-contact lookup.
  const auto users =
      static_cast<std::uint64_t>(s.schedule->params().users_per_city);
  std::vector<sched::Candidate> fc(n);
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const util::EpochIdx epoch =
        s.schedule->epoch_of(util::Seconds{sample[i].timestamp_s});
    fc[i] = s.schedule->first_contact(epoch, util::CityId{sample[i].location},
                                      util::splitmix64(i) % users);
  }
  p.first_contact_ns = per_item_ns(Clock::now() - t0, n);

  // core: bucket mapping for the hashed variants.
  const core::BucketMapper mapper(*s.shell, kBuckets);
  const net::LatencyModel latency;
  std::vector<util::Millis> route(n, util::Millis{0.0});
  t0 = Clock::now();
  std::size_t mapped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (fc[i].sat.value() < 0) continue;
    ++mapped;
    const orbit::SatelliteId from = s.shell->id_of(fc[i].sat);
    const auto owner =
        mapper.owner(from, mapper.bucket_of_object(sample[i].object));
    if (!owner) continue;
    const auto [inter, intra] = mapper.hop_split(from, *owner);
    route[i] = latency.grid_hops_delay(inter, intra);
  }
  p.mapper_ns = per_item_ns(Clock::now() - t0, mapped);

  // cache: one cache with the workload's policy and capacity.
  const core::SimConfig& cfg = s.sim->config();
  const auto cache = cache::make_cache(
      cfg.policy, cfg.cache_capacity,
      cache::presize_hint(cfg.cache_capacity, cfg.mean_object_size_hint));
  const double pair_ns = clock_pair_ns();
  std::int64_t touch_ns = 0;
  std::int64_t admit_ns = 0;
  for (const trace::Request& r : sample) {
    const auto a = Clock::now();
    const bool hit = cache->touch(r.object);
    const auto b = Clock::now();
    touch_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
                    .count();
    ++p.touches;
    if (hit) {
      ++p.hits;
      continue;
    }
    const auto c = Clock::now();
    cache->admit(r.object, r.size);
    admit_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - c)
                    .count();
    ++p.admits;
  }
  p.evictions = cache->stats().evictions;
  p.touch_ns = std::max(
      0.0, static_cast<double>(touch_ns) / static_cast<double>(p.touches) -
               pair_ns);
  p.admit_ns =
      p.admits == 0
          ? 0.0
          : std::max(0.0, static_cast<double>(admit_ns) /
                                  static_cast<double>(p.admits) -
                              pair_ns);
  std::size_t present = 0;
  t0 = Clock::now();
  for (const trace::Request& r : sample) present += cache->peek(r.object);
  p.peek_ns = per_item_ns(Clock::now() - t0, n);

  // net: latency composition over the run's hit / relay / miss mix.
  const double requests = static_cast<double>(counter(starcdn, "requests"));
  const double local = static_cast<double>(counter(starcdn, "local_hits"));
  const double routed = static_cast<double>(counter(starcdn, "routed_hits"));
  const double relayed =
      static_cast<double>(counter(starcdn, "relay_west_hits") +
                          counter(starcdn, "relay_east_hits"));
  const double cut_local = local / requests;
  const double cut_routed = cut_local + routed / requests;
  const double cut_relay = cut_routed + relayed / requests;
  const util::Millis relay_hop =
      static_cast<double>(mapper.tile_side()) *
      latency.params().inter_orbit_hop;
  util::Rng rng(0x1a7e9c1ULL);
  double sum_ms = 0.0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const double u =
        static_cast<double>(util::splitmix64(i) >> 11) * 0x1.0p-53;
    const util::Millis gsl = fc[i].sat.value() < 0
                                 ? latency.params().default_gsl
                                 : util::Millis{fc[i].gsl_one_way_ms};
    util::Millis ms{0.0};
    if (u < cut_local) {
      ms = latency.hit_local(gsl);
    } else if (u < cut_routed) {
      ms = latency.hit_routed(gsl, route[i]);
    } else if (u < cut_relay) {
      ms = latency.hit_relayed(gsl, route[i], relay_hop);
    } else {
      ms = latency.miss(gsl, route[i], latency.params().default_gsl, rng);
    }
    sum_ms += ms.value();
  }
  p.latency_ns = per_item_ns(Clock::now() - t0, n);
  p.checksum = sum_ms + static_cast<double>(present);
  return p;
}

// --- JSON output -------------------------------------------------------------

/// Minimal streaming JSON writer: tracks comma placement per nesting level.
class Json {
 public:
  explicit Json(std::ostream& os) : os_(&os) {}

  Json& begin(char bracket) {
    sep();
    *os_ << bracket;
    first_.push_back(true);
    return *this;
  }
  Json& end(char bracket) {
    *os_ << bracket;
    first_.pop_back();
    return *this;
  }
  Json& key(const std::string& k) {
    sep();
    *os_ << '"' << k << "\":";
    pending_value_ = true;
    return *this;
  }
  Json& str(const std::string& v) {
    sep();
    *os_ << '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') *os_ << '\\';
      *os_ << c;
    }
    *os_ << '"';
    return *this;
  }
  Json& num(double v) {
    sep();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *os_ << buf;
    return *this;
  }
  Json& num(std::uint64_t v) {
    sep();
    *os_ << v;
    return *this;
  }
  Json& num(std::int64_t v) {
    sep();
    *os_ << v;
    return *this;
  }
  Json& boolean(bool v) {
    sep();
    *os_ << (v ? "true" : "false");
    return *this;
  }

 private:
  void sep() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) *os_ << ',';
    first_.back() = false;
  }

  std::ostream* os_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

void write_rep(Json& j, const Rep& r) {
  j.begin('{');
  j.key("trace_seed").num(r.trace_seed);
  j.key("requests").num(r.requests);
  j.key("peak_rss_bytes").num(r.peak_rss_bytes);
  j.key("traced").boolean(r.traced);
  j.key("model_s").num(r.setup.model_s);
  j.key("shell_s").num(r.setup.shell_s);
  j.key("schedule_s").num(r.setup.schedule_s);
  j.key("sim_s").num(r.setup.sim_s);
  j.key("open_s").num(r.open_s);
  j.key("run_s").num(r.run_s);
  j.key("finish_s").num(r.finish_s);
  j.key("variants").begin('[');
  for (const VariantSummary& vs : r.variants) {
    j.begin('{');
    j.key("name").str(vs.name);
    j.key("latency_samples").num(vs.latency_samples);
    j.key("latency_p50_ms").num(vs.latency_p50_ms);
    j.key("latency_p99_ms").num(vs.latency_p99_ms);
    j.key("counters").begin('{');
    for (const auto& [name, value] : vs.counters) j.key(name).num(value);
    j.end('}');
    j.end('}');
  }
  j.end(']');
  if (r.traced) {
    j.key("trace_file").str(r.trace_file);
    j.key("next_calls").begin('[');
    for (const auto& c : r.calls) {
      j.begin('[')
          .num(c.start_us)
          .num(c.dur_ns)
          .num(static_cast<std::uint64_t>(c.requests))
          .end(']');
    }
    j.end(']');
  }
  j.end('}');
}

void write_probes(Json& j, const Probes& p) {
  j.begin('{');
  j.key("sample").num(static_cast<std::uint64_t>(p.sample));
  j.key("first_contact_ns").num(p.first_contact_ns);
  j.key("mapper_ns").num(p.mapper_ns);
  j.key("touch_ns").num(p.touch_ns);
  j.key("admit_ns").num(p.admit_ns);
  j.key("peek_ns").num(p.peek_ns);
  j.key("touches").num(p.touches);
  j.key("hits").num(p.hits);
  j.key("admits").num(p.admits);
  j.key("evictions").num(p.evictions);
  j.key("latency_sample_ns").num(p.latency_ns);
  j.key("checksum").num(p.checksum);
  j.end('}');
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --trace-dir DIR [--scale F]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      o.trace = v == "1";
    } else if (flag == "--trace-dir") {
      o.trace_dir = v;
    } else if (flag == "--scale") {
      o.scale = std::atof(v.c_str());
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(o.scale > 0.0 && o.scale <= 1.0)) usage("--scale must be in (0, 1]");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (o.workload == cand.name) w = &cand;
  }
  if (w == nullptr) usage("unknown workload '" + o.workload + "'");

  const int nproc =
      static_cast<int>(std::max(1U, std::thread::hardware_concurrency()));
  util::set_parallel_threads(w->serial ? 1 : nproc);

  // A run cycles through traces derived from --seed, so its simulated
  // metrics average over several object universes, and keeps repeating
  // until --seconds are spent. Untraced mode: every repetition feeds the
  // end-to-end metrics. Traced mode replays each trace untraced and then
  // traced, so the tracing overhead is measured on equal inputs.
  const int per_trace = o.trace ? 2 : 1;
  const int traces = o.trace ? kTracedTraces : kTraces;
  std::vector<Rep> reps;
  const auto t0 = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= traces * per_trace && i % per_trace == 0 &&
        seconds_since(t0) >= o.seconds) {
      break;
    }
    const std::uint64_t trace_seed =
        o.seed * kTraces + static_cast<std::uint64_t>((i / per_trace) % traces);
    // Free the previous set-up first, so peak RSS reflects one repetition;
    // the last one stays alive for the probes.
    if (!reps.empty()) release(reps.back().setup);
    reps.push_back(run_rep(*w, o, trace_seed, o.trace && i % 2 == 1, i));
  }

  std::optional<Probes> probes;
  if (o.trace) {
    const Rep& last = reps.back();
    const std::string star = core::to_string(core::Variant::kStarCdn);
    const auto it =
        std::find_if(last.variants.begin(), last.variants.end(),
                     [&](const VariantSummary& v) { return v.name == star; });
    if (it == last.variants.end()) throw std::logic_error("no StarCDN variant");
    probes = run_probes(last.setup, *it);
  }

  Json j(std::cout);
  j.begin('{');
  j.key("workload").str(w->name);
  j.key("seed").num(o.seed);
  j.key("scale").num(o.scale);
  j.key("traced").boolean(o.trace);
  j.key("threads").num(static_cast<std::int64_t>(util::parallel_threads()));
  j.key("nproc").num(static_cast<std::int64_t>(nproc));
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.key("compiler").str(std::string("gcc ") + __VERSION__);
  j.key("capacity_bytes").num(static_cast<std::uint64_t>(w->capacity));
  j.key("buckets").num(static_cast<std::int64_t>(kBuckets));
  j.key("fail_fraction").num(w->fail_fraction);
  j.key("transient_prob").num(w->transient_prob);
  j.key("traffic_class").str(to_string(w->traffic_class));
  j.key("reps").begin('[');
  for (const Rep& r : reps) write_rep(j, r);
  j.end(']');
  if (probes) {
    j.key("probes");
    write_probes(j, *probes);
  }
  j.end('}');
  std::cout << '\n';
  return 0;
}
