#include "core/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/tracer.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace starcdn::core {

using util::CityId;
using util::EpochIdx;
using util::SatId;

namespace {

[[noreturn]] void bad_config(const std::string& what) {
  throw std::invalid_argument("SimConfig: " + what);
}

SimConfig validated(SimConfig config) {
  config.validate();
  return config;
}

}  // namespace

void SimConfig::validate() const {
  if (cache_capacity == 0) bad_config("cache_capacity must be positive");
  if (BucketMapper::tile_side_of(buckets) == 0) {
    bad_config("buckets must be a positive perfect square (the replica "
               "grid tiles L = s*s orbital slots); got " +
               std::to_string(buckets));
  }
  // NaN fails both comparisons' complement, so write the check to reject it.
  if (!(transient_down_prob >= 0.0 && transient_down_prob <= 1.0)) {
    bad_config("transient_down_prob must be in [0, 1]; got " +
               std::to_string(transient_down_prob));
  }
  if (!std::isfinite(transient_window.value()) ||
      transient_window.value() <= 0.0) {
    bad_config("transient_window must be positive and finite; got " +
               std::to_string(transient_window.value()));
  }
}

SimConfig SimConfig::Builder::build() const {
  cfg_.validate();
  return cfg_;
}

Simulator::Simulator(const orbit::Constellation& constellation,
                     const sched::LinkSchedule& schedule, SimConfig config,
                     CacheFactory cache_factory)
    : constellation_(&constellation),
      schedule_(&schedule),
      config_(validated(std::move(config))),
      mapper_(constellation, config_.buckets),
      cache_factory_(std::move(cache_factory)) {
  // Surface the constellation's failure remapping in the trace timeline:
  // one instant per inactive satellite, tagged with the slot that absorbs
  // its buckets (Fig. 11's failure scenario).
  if (obs::Tracer* tr = obs::tracer()) {
    for (int i = 0; i < constellation_->size(); ++i) {
      const SatId idx{i};
      if (constellation_->active(idx)) continue;
      std::vector<obs::TraceArg> args{
          obs::arg("sat", static_cast<std::int64_t>(i))};
      if (const auto target = mapper_.remap(constellation_->id_of(idx))) {
        args.push_back(obs::arg(
            "remapped_to",
            static_cast<std::int64_t>(
                constellation_->index_of(*target).value())));
      }
      tr->instant("sat_failed", "failure", std::move(args));
    }
  }
  for (const Variant v : config_.variants) register_variant(v);
}

void Simulator::register_variant(Variant v) {
  for (const auto& vs : variants_) {
    if (vs.variant == v) return;  // registering twice is a no-op
  }
  VariantState vs;
  vs.variant = v;
  vs.spec = variant_spec(v);
  need_static_ = need_static_ || vs.spec.frozen;
  need_owner_ = need_owner_ || vs.spec.hashed;
  // Per-variant deterministic streams. The transient model is seeded
  // identically for every variant so they all observe the same outage
  // schedule; the latency-sampling RNG is variant-specific so streams stay
  // independent when variants replay concurrently.
  vs.decide.transient = TransientFailureModel(config_.transient_down_prob,
                                              config_.transient_window,
                                              config_.seed ^ 0xfa11u);
  vs.fold.rng = util::Rng(config_.seed ^ static_cast<std::uint64_t>(v));
  vs.fold.series = obs::EpochSeries(series_columns());
  vs.fold.metrics.uplink_meter =
      net::UplinkMeter(schedule_->epoch_duration());
  vs.reach =
      reach_table(*constellation_, mapper_, vs.spec, config_.relay_east);
  vs.groups = coupling_groups(vs.reach);
  const auto n = static_cast<std::size_t>(constellation_->size());
  vs.decide.caches.resize(n);
  if (vs.spec.prefetch) vs.decide.prefetch_epoch.assign(n, ~0u);
  if (config_.track_per_satellite) {
    vs.fold.metrics.sat_requests.assign(n, 0);
    vs.fold.metrics.sat_hits.assign(n, 0);
    vs.fold.metrics.sat_bytes_requested.assign(n, 0);
    vs.fold.metrics.sat_bytes_hit.assign(n, 0);
  }
  variants_.push_back(std::move(vs));
  bin_keys_.emplace_back();
}

cache::Cache& Simulator::cache_at(DecideState& ds, SatId sat) {
  auto& slot = ds.caches[util::as_index(sat)];
  if (!slot) {
    slot = cache_factory_
               ? cache_factory_(sat)
               : cache::make_cache(
                     config_.policy, config_.cache_capacity,
                     cache::presize_hint(config_.cache_capacity,
                                         config_.mean_object_size_hint));
  }
  return *slot;
}

void Simulator::note_sat(FoldState& fs, SatId sat, const trace::Request& r,
                         bool hit) {
  if (!config_.track_per_satellite) return;
  const auto i = util::as_index(sat);
  ++fs.metrics.sat_requests[i];
  fs.metrics.sat_bytes_requested[i] += r.size;
  if (hit) {
    ++fs.metrics.sat_hits[i];
    fs.metrics.sat_bytes_hit[i] += r.size;
  }
}

void Simulator::build_context(const trace::RequestBlock& block,
                              std::uint64_t counter_base,
                              std::vector<RequestContext>& ctx,
                              std::vector<BinPartition>& parts) {
  const obs::TraceSpan stage1_span(obs::tracer(), "stage1_context", "core");
  const auto users_per_city =
      static_cast<std::uint64_t>(schedule_->params().users_per_city);
  ctx.resize(block.count());
  const auto sorts = [this](std::size_t v) {
    return variants_[v].bins > 1 && variants_[v].part_of == v;
  };
  for (std::size_t v = 0; v < variants_.size(); ++v) {
    if (sorts(v)) bin_keys_[v].resize(block.count());
  }
  util::parallel_for(block.count(), [&](std::size_t i) {
    RequestContext& c = ctx[i];
    c.epoch = schedule_->epoch_of(util::Seconds{block.timestamp_s[i]});
    // Logical user terminal issuing this request: rotates through the
    // city's population so an epoch's requests spread over the candidate
    // satellites exactly as CosmicBeats splits them (§5.1).
    const std::uint64_t user =
        util::splitmix64(counter_base + i) % users_per_city;
    const CityId city{block.location[i]};
    c.fc = schedule_->first_contact(c.epoch, city, user);
    c.handover = false;
    if (c.epoch.value() > 0 && c.fc.sat.value() >= 0) {
      const sched::Candidate prev = schedule_->first_contact(
          EpochIdx{c.epoch.value() - 1}, city, user);
      c.handover = prev.sat.value() != c.fc.sat.value();
    }
    if (need_static_) {
      c.fc_static = schedule_->first_contact(EpochIdx{0}, city, user);
    }
    // The hashed route (one table read per request) is shared by every
    // hashed variant, so it is resolved once here.
    c.owner = c.fc.sat;
    c.route = util::Millis{0.0};
    if (need_owner_ && c.fc.sat.value() >= 0) {
      const BucketMapper::Route r =
          mapper_.route(c.fc.sat, mapper_.bucket_of_object(block.object[i]));
      if (r.owner != util::kNoSat) {
        c.owner = r.owner;
        c.route = latency_.grid_hops_delay(r.inter, r.intra);
      }
    }
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      if (sorts(v)) {
        const VariantPlan& vp = variants_[v];
        bin_keys_[v][i] = request_bin(serving_of(vp, c), vp.bin_of);
      }
    }
  });
  for (std::size_t v = 0; v < variants_.size(); ++v) {
    if (sorts(v)) parts[v].sort(bin_keys_[v], variants_[v].bins);
  }
}

void Simulator::decide_bin(const VariantPlan& vp, DecideState& ds, int slot,
                           std::size_t bin, const trace::RequestBlock& block,
                           const std::vector<RequestContext>& ctx,
                           const BinPartition& part) {
  obs::TraceSpan span(obs::tracer(), vp.spec.name, "variant");
  if (obs::tracer() != nullptr) {
    span.set_args({obs::arg("stage", "decide"),
                   obs::arg("bin", static_cast<std::uint64_t>(bin))});
  }
  std::vector<Outcome>& out = ds.outcome[slot];
  std::vector<util::Bytes>& pre = ds.prefetched[slot];
  util::Bytes unused = 0;
  const auto one = [&, prefetching = vp.spec.prefetch](std::size_t i) {
    out[i] = decide(vp, ds, block.at(i), ctx[i],
                    prefetching ? pre[i] : unused);
  };
  if (vp.bins == 1) {
    for (std::size_t i = 0; i < block.count(); ++i) one(i);
  } else {
    for (const std::uint32_t i : part.bin(bin)) one(i);
  }
}

void Simulator::run(trace::RequestStream& stream) {
  if (variants_.empty()) return;
  std::vector<obs::TraceArg> run_args{
      obs::arg("variants", static_cast<std::uint64_t>(variants_.size()))};
  for (const auto& vs : variants_) {
    run_args.push_back(obs::arg(std::string("groups.") + vs.spec.name,
                                static_cast<std::uint64_t>(vs.groups.count)));
  }
  obs::TraceSpan run_span(obs::tracer(), "Simulator::run", "core",
                          std::move(run_args));

  // One decide bin per thread (no more than there are groups); at one
  // thread a single bin replays every request with no partition.
  const auto threads = static_cast<std::size_t>(util::parallel_threads());
  for (auto& vs : variants_) {
    vs.bins = std::min<std::size_t>(threads, vs.groups.count);
    vs.bin_of = vs.groups.group_of;
    for (auto& b : vs.bin_of) b = static_cast<std::uint32_t>(b % vs.bins);
    vs.decide.bin_seconds.resize(vs.bins, 0.0);
  }
  // Variants that serve each request at the same slot and bin the slots
  // alike share one partition, keyed and sorted for the first of them.
  for (auto vs = variants_.begin(); vs != variants_.end(); ++vs) {
    const auto alike = [&](const VariantPlan& up) {
      return up.spec.hashed == vs->spec.hashed &&
             up.spec.frozen == vs->spec.frozen && up.bins == vs->bins &&
             up.bin_of == vs->bin_of;
    };
    vs->part_of =
        std::find_if(variants_.begin(), vs, alike) - variants_.begin();
  }

  // Triple buffer: step k folds block k - 1, decides block k and produces
  // block k + 1, each in its own slot (k % kSlots). Every task of a step
  // writes disjoint state (the producer its slot, decide tasks their bin's
  // caches and outcomes, fold tasks their variant's accounting), and the
  // join at the end of each step hands the slots on race-free.
  trace::RequestBlock blocks[kSlots];
  std::vector<RequestContext> ctxs[kSlots];
  std::vector<BinPartition> parts[kSlots];  // per variant
  for (auto& p : parts) p.resize(variants_.size());
  trace::StreamPosition pos;
  // Chunk-base bookkeeping: the rotation seed advances by block length, so
  // terminals rotate the same way however the stream chops the trace.
  std::uint64_t bases[kSlots] = {variants_[0].fold.request_counter, 0, 0};
  const auto produce = [&](int b) {
    if (!stream.next(blocks[b]) || blocks[b].empty()) return false;
    trace::validate_block(blocks[b], schedule_->cities(), pos);
    build_context(blocks[b], bases[b], ctxs[b], parts[b]);
    bases[(b + 1) % kSlots] = bases[b] + blocks[b].count();
    return true;
  };
  std::vector<std::uint64_t> marked(variants_.size(), ~0ULL);

  // One task per (variant, bin) decide, per variant fold, plus the
  // producer; each step runs them longest-measured-first.
  struct Task {
    enum Kind : std::uint8_t { kProduce, kDecide, kFold } kind;
    std::size_t variant;
    std::size_t bin;
    double* seconds;  // last measured duration, the ordering key
  };
  std::vector<Task> tasks;
  double produce_seconds = 0.0;
  std::exception_ptr produce_error;

  std::size_t produced = produce(0) ? 1 : 0;
  for (std::size_t k = 0; produced > 0 && k <= produced; ++k) {
    const int cur = static_cast<int>(k % kSlots);
    const int prev = static_cast<int>((k + kSlots - 1) % kSlots);
    const int next = static_cast<int>((k + 1) % kSlots);
    const bool deciding = k < produced;
    const bool folding = k > 0;
    bool pulled = false;

    tasks.clear();
    if (deciding) tasks.push_back({Task::kProduce, 0, 0, &produce_seconds});
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      VariantState& vs = variants_[v];
      if (folding) tasks.push_back({Task::kFold, v, 0, &vs.fold.fold_seconds});
      if (!deciding) continue;
      DecideState& ds = vs.decide;
      ds.outcome[cur].resize(blocks[cur].count());
      if (vs.spec.prefetch) ds.prefetched[cur].resize(blocks[cur].count());
      for (std::size_t b = 0; b < vs.bins; ++b) {
        tasks.push_back({Task::kDecide, v, b, &ds.bin_seconds[b]});
      }
    }
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const Task& a, const Task& b) {
                       return *a.seconds > *b.seconds;
                     });
    util::parallel_tasks(tasks.size(), [&](std::size_t t) {
      const Task& task = tasks[t];
      VariantState& vs = variants_[task.variant];
      const auto start = std::chrono::steady_clock::now();
      switch (task.kind) {
        case Task::kProduce:
          // A bad block is rethrown once every earlier block is replayed.
          try {
            pulled = produce(next);
          } catch (...) {
            produce_error = std::current_exception();
          }
          break;
        case Task::kDecide:
          decide_bin(vs, vs.decide, cur, task.bin, blocks[cur], ctxs[cur],
                     parts[cur][vs.part_of]);
          break;
        case Task::kFold:
          fold_variant(vs, vs.fold, vs.decide.outcome[prev],
                       vs.decide.prefetched[prev], blocks[prev], ctxs[prev],
                       task.variant == 0, marked[task.variant]);
          break;
      }
      *task.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    });
    if (pulled) ++produced;
  }

  for (auto& vs : variants_) {
    // One trailing fold per run() call: flushing per block would split a
    // (satellite, epoch) uplink cell at chunk boundaries and skew the
    // throughput statistics.
    vs.fold.metrics.uplink_meter.flush();
  }
  if (produce_error) std::rethrow_exception(produce_error);
}

RunReport Simulator::finish() const {
  const obs::TraceSpan span(obs::tracer(), "Simulator::finish", "core");
  RunReport report;
  report.epoch_seconds = schedule_->epoch_duration().value();
  report.seed = config_.seed;

  for (const CounterField& c : kCounters) report.totals.emplace_back(c.name, 0);
  for (const auto& vs : variants_) {
    VariantReport vr;
    vr.variant = vs.variant;
    vr.name = vs.spec.name;
    vr.metrics = vs.fold.metrics;
    vr.metrics.uplink_meter.flush();  // no-op unless a run left a partial
    check_conservation(vr.metrics, vs.spec.name);
    // Seal a copy, so the live series keeps recording if run() continues.
    obs::EpochSeries series = vs.fold.series;
    series.finish(series_row(vr.metrics));  // trailing partial epoch
    vr.series = series.table(report.epoch_seconds);
    for (std::size_t c = 0; c < kCounters.size(); ++c) {
      const std::uint64_t value = vr.metrics.*kCounters[c].field;
      vr.counters.emplace_back(kCounters[c].name, value);
      report.totals[c].second += value;
    }
    report.variants.push_back(std::move(vr));
  }
  return report;
}

util::Bytes Simulator::maybe_prefetch(const VariantPlan& vp, DecideState& ds,
                                      SatId serving, EpochIdx epoch) {
  // The §3.3 alternative design: on entering a new scheduler epoch, a
  // satellite speculatively pulls the hottest objects of its trailing
  // ("west") same-bucket replica — the satellite that just served the
  // region this one is flying into. Prefetched bytes burn ISL bandwidth
  // and cache space whether or not they are ever requested; the ablation
  // bench quantifies why the paper prefers miss-triggered relay.
  auto& stamp = ds.prefetch_epoch[util::as_index(serving)];
  if (stamp == epoch.value()) return 0;
  stamp = static_cast<std::uint32_t>(epoch.value());
  const SatId west = vp.reach[util::as_index(serving)].prefetch_from;
  if (west == util::kNoSat) return 0;
  auto& replica_slot = ds.caches[util::as_index(west)];
  if (!replica_slot) return 0;  // neighbour has served nothing yet
  cache::Cache& own = cache_at(ds, serving);
  util::Bytes pulled = 0;
  for (const auto& [id, size] :
       replica_slot->hottest(kPrefetchObjectsPerEpoch)) {
    if (own.peek(id)) continue;
    own.admit(id, size);
    pulled += size;
  }
  return pulled;
}

Simulator::Outcome Simulator::decide(const VariantPlan& vp, DecideState& ds,
                                     const trace::Request& r,
                                     const RequestContext& c,
                                     util::Bytes& prefetched) {
  prefetched = 0;
  const SatId fc = first_contact(vp, c).sat;
  if (fc.value() < 0) return Outcome::kUnreachable;
  const SatId serving = serving_of(vp, c);

  // Transient cache-server outage (§3.4): report a miss and go to ground;
  // nothing is cached and no remapping happens.
  if (ds.transient.down(serving, util::Seconds{r.timestamp_s})) {
    return Outcome::kTransient;
  }
  if (vp.spec.prefetch) prefetched = maybe_prefetch(vp, ds, serving, c.epoch);
  cache::Cache& serving_cache = cache_at(ds, serving);
  if (serving_cache.touch(r.object)) {
    return serving == fc ? Outcome::kLocalHit : Outcome::kRoutedHit;
  }

  // Relayed fetch (§3.3): probe the reach row's replicas (none unless the
  // variant relays); a hit is served from the west one when both hold the
  // object, and the owner caches it.
  const Reach& reach = vp.reach[util::as_index(serving)];
  const auto holder = [&](SatId sat) -> cache::Cache* {
    if (sat == util::kNoSat) return nullptr;
    cache::Cache* cache = ds.caches[util::as_index(sat)].get();
    return cache != nullptr && cache->peek(r.object) ? cache : nullptr;
  };
  cache::Cache* const west = holder(reach.west);
  cache::Cache* const east = holder(reach.east);
  if (west != nullptr || east != nullptr) {
    (west != nullptr ? west : east)->touch(r.object);  // refresh replica
    serving_cache.admit(r.object, r.size);  // backflow: owner caches it
    if (west == nullptr) return Outcome::kRelayEast;
    return east != nullptr ? Outcome::kRelayBoth : Outcome::kRelayWest;
  }

  // Total miss: fetch from the ground.
  serving_cache.admit(r.object, r.size);
  return Outcome::kMiss;
}

void Simulator::fold_variant(const VariantPlan& vp, FoldState& fs,
                             std::span<const Outcome> out,
                             std::span<const util::Bytes> pre,
                             const trace::RequestBlock& block,
                             const std::vector<RequestContext>& ctx,
                             bool trace_epochs, std::uint64_t& marked_epoch) {
  obs::TraceSpan span(obs::tracer(), vp.spec.name, "variant");
  if (obs::tracer() != nullptr) span.set_args({obs::arg("stage", "fold")});
  obs::Tracer* const tr = trace_epochs ? obs::tracer() : nullptr;
  const bool frozen = vp.spec.frozen;
  const bool prefetching = vp.spec.prefetch;
  for (std::size_t i = 0; i < block.count(); ++i) {
    ++fs.request_counter;
    const std::uint64_t real = ctx[i].epoch.value();
    fs.series.advance_to(real, series_row(fs.metrics));
    if (tr != nullptr && real != marked_epoch) {
      marked_epoch = real;
      tr->instant("epoch", "sim", {obs::arg("epoch", real)});
    }
    // Handover accounting rides on the shared stage-1 context; a frozen
    // mapping never hands over by construction.
    if (!frozen && ctx[i].handover) ++fs.metrics.handovers;
    fold(vp, fs, block.at(i), ctx[i], out[i], prefetching ? pre[i] : 0);
  }
}

void Simulator::fold(const VariantPlan& vp, FoldState& fs,
                     const trace::Request& r, const RequestContext& c,
                     Outcome o, util::Bytes prefetched) {
  VariantMetrics& m = fs.metrics;
  ++m.requests;
  m.bytes_requested += r.size;
  const bool sample = config_.sample_latency;
  // The reservoir picks a sample's cell before it sees the value, so a
  // dropped sample is counted but never computed. A sampled leg's draw is
  // still taken first, so the stream is the same whichever samples are kept.
  const auto record = [&](auto latency) {
    if (double* cell = m.latency_ms.next_slot()) *cell = latency().value();
  };
  const util::Millis default_gsl = latency_.params().default_gsl;

  if (o == Outcome::kUnreachable) {
    // Coverage gap: served bent-pipe from the ground via a remote link.
    ++m.unreachable;
    ++m.misses;
    m.uplink_bytes += r.size;
    if (sample) {
      const util::Rng::NormalDraw d = fs.rng.normal_draw();
      record([&] { return latency_.bentpipe_starlink(default_gsl, d); });
    }
    return;
  }

  const util::Millis gsl{first_contact(vp, c).gsl_one_way_ms};
  const util::Millis route = vp.spec.hashed ? c.route : util::Millis{0.0};
  const SatId serving = serving_of(vp, c);
  const auto ground = [&] {
    ++m.misses;
    m.uplink_bytes += r.size;
    m.uplink_meter.add(serving, c.epoch, r.size);
    if (sample) {
      const util::Rng::NormalDraw d = fs.rng.normal_draw();
      record([&] { return latency_.miss(gsl, route, default_gsl, d); });
    }
  };

  if (o == Outcome::kTransient) {
    ++m.transient_misses;
    ground();
    return;
  }
  if (prefetched != 0) {
    m.isl_bytes += prefetched;
    m.prefetch_bytes += prefetched;
  }

  if (o == Outcome::kLocalHit || o == Outcome::kRoutedHit) {
    m.bytes_hit += r.size;
    if (o == Outcome::kLocalHit) {
      ++m.local_hits;
    } else {
      ++m.routed_hits;
      m.isl_bytes += r.size;
    }
    note_sat(fs, serving, r, true);
    if (sample) {
      record([&] {
        return route.value() > 0.0 ? latency_.hit_routed(gsl, route)
                                   : latency_.hit_local(gsl);
      });
    }
    return;
  }
  note_sat(fs, serving, r, false);
  if (o == Outcome::kMiss) {
    ground();
    return;
  }

  // Relay hit, with Table 3's availability among the neighbours.
  switch (o) {
    case Outcome::kRelayBoth:
      ++m.relay_both_requests;
      m.relay_both_bytes += r.size;
      ++m.relay_west_hits;
      break;
    case Outcome::kRelayWest:
      ++m.relay_west_only_requests;
      m.relay_west_only_bytes += r.size;
      ++m.relay_west_hits;
      break;
    default:
      ++m.relay_east_only_requests;
      m.relay_east_only_bytes += r.size;
      ++m.relay_east_hits;
      break;
  }
  m.bytes_hit += r.size;
  m.isl_bytes += r.size;
  if (sample) {
    record([&] {
      const int relay_hops =
          vp.spec.relay == Relay::kReplicas ? mapper_.tile_side() : 1;
      const util::Millis relay =
          static_cast<double>(relay_hops) * latency_.params().inter_orbit_hop;
      return latency_.hit_relayed(gsl, route, relay);
    });
  }
}

}  // namespace starcdn::core
