// Trace-driven discrete-time simulator for satellite-based CDNs (§5.1).
//
// Replays a multi-location request trace against a constellation with
// per-satellite edge caches under one or more architecture variants. Each
// variant is a VariantSpec row (variant.cpp holds the paper's taxonomy),
// resolved once at construction together with its per-slot reach table
// (coupling.h); the replay reads those and never the Variant enum.
//
// All variants of one run share the precomputed link schedule, so they see
// identical orbital dynamics and request assignment; only the caching
// architecture differs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "cache/cache.h"
#include "core/bucket_mapper.h"
#include "core/coupling.h"
#include "core/failure.h"
#include "core/metrics.h"
#include "core/run_report.h"
#include "core/variant.h"
#include "net/latency_model.h"
#include "obs/series.h"
#include "orbit/constellation.h"
#include "sched/scheduler.h"
#include "trace/record.h"
#include "trace/stream.h"
#include "util/ids.h"
#include "util/parallel.h"
#include "util/units.h"

namespace starcdn::core {

/// Objects a prefetching variant pulls from the trailing replica per epoch.
inline constexpr std::size_t kPrefetchObjectsPerEpoch = 64;

/// Builds the cache behind one satellite slot (see Simulator's constructor).
using CacheFactory =
    std::function<std::unique_ptr<cache::Cache>(util::SatId)>;

struct SimConfig {
  cache::Policy policy = cache::Policy::kLru;
  util::Bytes cache_capacity = util::gib(20);
  /// Mean object size used to pre-size each satellite cache's entry slab
  /// and hash index at creation (cache_capacity / hint resident objects,
  /// see cache::presize_hint), so warm caches never reallocate on the
  /// serving path. It only sizes memory, so results do not depend on it;
  /// it matches the video workload's mean object size.
  static constexpr util::Bytes mean_object_size_hint = util::mib(16);
  int buckets = 4;          // L, perfect square; used by hash variants
  bool relay_east = true;   // keep the bidirectional east link (§3.3)
  bool sample_latency = true;
  bool track_per_satellite = false;
  /// Transient cache-server outage probability per failure window (§3.4);
  /// 0 disables the model.
  double transient_down_prob = 0.0;
  util::Seconds transient_window{300.0};
  std::uint64_t seed = 1234;
  /// The variants a Simulator replays, registered by its constructor in
  /// this order; a repeated variant is registered once. Populated by
  /// Builder::variants().
  std::vector<Variant> variants;

  /// Throws std::invalid_argument on out-of-range fields (also run by the
  /// Simulator constructor, so hand-rolled brace-init configs are checked
  /// too).
  void validate() const;

  class Builder;
};

/// Fluent, validating construction for SimConfig:
///
///   using enum Variant;
///   auto cfg = SimConfig::Builder{}
///                  .policy(cache::Policy::kSieve)
///                  .cache_capacity(util::gib(40))
///                  .buckets(9)
///                  .variants({kStarCdn, kVanillaLru})
///                  .build();
///
/// build() runs SimConfig::validate(), so a bucket count that is not a
/// perfect square or an out-of-range probability throws at construction.
class SimConfig::Builder {
 public:
  Builder& policy(cache::Policy p) { cfg_.policy = p; return *this; }
  Builder& cache_capacity(util::Bytes b) {
    cfg_.cache_capacity = b;
    return *this;
  }
  Builder& buckets(int l) { cfg_.buckets = l; return *this; }
  Builder& relay_east(bool on) { cfg_.relay_east = on; return *this; }
  Builder& sample_latency(bool on) {
    cfg_.sample_latency = on;
    return *this;
  }
  Builder& track_per_satellite(bool on) {
    cfg_.track_per_satellite = on;
    return *this;
  }
  Builder& transient_failures(double prob, util::Seconds window) {
    cfg_.transient_down_prob = prob;
    cfg_.transient_window = window;
    return *this;
  }
  Builder& seed(std::uint64_t s) { cfg_.seed = s; return *this; }
  Builder& variant(Variant v) {
    cfg_.variants.push_back(v);
    return *this;
  }
  Builder& variants(std::initializer_list<Variant> vs) {
    // Element-wise rather than range insert: gcc 12's -Wstringop-overflow
    // misfires on the memmove of byte-sized enums from an initializer_list.
    cfg_.variants.reserve(cfg_.variants.size() + vs.size());
    for (const Variant v : vs) cfg_.variants.push_back(v);
    return *this;
  }

  /// SimConfig::validate(); throws std::invalid_argument with a
  /// field-naming message on failure.
  [[nodiscard]] SimConfig build() const;

 private:
  SimConfig cfg_;
};

/// The local cache of one satellite slot: config.policy at
/// config.cache_capacity, pre-sized by cache::presize_hint for
/// config.mean_object_size_hint. Simulator's default slot cache and each
/// replay worker's cache.
[[nodiscard]] std::unique_ptr<cache::Cache> make_slot_cache(
    const SimConfig& config);

class Simulator {
 public:
  /// Validates `config` (SimConfig::validate) and registers
  /// config.variants, the only way a variant enters a run. Throws
  /// std::invalid_argument on a bad config.
  ///
  /// `cache_factory` builds each satellite slot's cache the first time a
  /// variant touches the slot; empty means make_slot_cache(config). Decide
  /// tasks call it concurrently for distinct slots. replay::replay_cluster
  /// passes one that returns a proxy for the slot's worker process.
  Simulator(const orbit::Constellation& constellation,
            const sched::LinkSchedule& schedule, SimConfig config,
            CacheFactory cache_factory = {});

  /// Replay a chunked stream (trace::RequestStream), the simulator's one
  /// input, with O(chunk) memory; a materialized trace comes in as a
  /// trace::VectorStream. May be called repeatedly to replay a long trace
  /// in pieces.
  ///
  /// Every block passes trace::validate_block before it is used: a
  /// location outside the schedule's cities, a zero size, a non-finite
  /// timestamp or a timestamp that goes back in time throws
  /// std::invalid_argument.
  ///
  /// Sharded, pipelined replay (DESIGN.md, "Sharded replay"). Each block
  /// goes through three stages, each on a different block at once:
  ///   produce — pull the block, validate it, build its stage-1 context
  ///             and its decide-bin partition;
  ///   decide  — every cache decision, one task per (variant, bin of
  ///             coupling groups): caches are disjoint across bins and each
  ///             bin walks its requests in trace order;
  ///   fold    — all accounting, one task per variant, in trace order.
  /// Step k folds block k - 1, decides block k and produces block k + 1.
  /// Each variant owns its caches, metrics, RNG stream (seeded
  /// config.seed ^ variant) and request counter, and every cache sees the
  /// same operation sequence as a serial replay, so the metrics are bitwise
  /// identical for any thread count and any partition. Chunk-base
  /// bookkeeping keeps the user-terminal rotation independent of how the
  /// stream chops the trace, so metrics are bitwise identical for any chunk
  /// size. A block that fails validation is thrown after every earlier
  /// block has been replayed.
  void run(trace::RequestStream& stream);

  /// Snapshot the run: seals a copy of each variant's epoch series,
  /// checks each variant's counters with check_conservation
  /// (std::logic_error on a violation), sums the fleet totals, and returns
  /// the self-contained RunReport, the run's one output; callers write it.
  /// The simulator is left untouched, so run() may continue and a later
  /// finish() reports as if this call had never been made.
  [[nodiscard]] RunReport finish() const;

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

 private:
  /// What the decide stage found for one request; the fold stage turns it
  /// into counters, latency samples and meter updates. The relay outcomes
  /// name the Table 3 availability: both replicas held the object (the west
  /// one serves), or only the west / only the east one did.
  enum class Outcome : std::uint8_t {
    kUnreachable,  // coverage gap: bent-pipe from the ground
    kTransient,    // serving cache briefly down (§3.4)
    kLocalHit,
    kRoutedHit,
    kRelayBoth,
    kRelayWest,
    kRelayEast,
    kMiss,
  };

  /// Blocks in flight: one produced, one decided, one folded per step.
  static constexpr int kSlots = 3;

  /// A variant's replay state, split by the stage that writes it so that no
  /// field one stage writes per request shares a cache line with a field
  /// another stage reads per request (DESIGN.md, "Cache-line ownership").
  /// Variants share no mutable state. The RNG stream is derived from
  /// (config.seed, variant) and the request counter advances in lockstep
  /// across variants, making results independent of both thread count and
  /// which other variants are registered.
  ///
  /// The read-only part: fixed at construction (`bins`, `bin_of` and
  /// `part_of` at run start). Coupling group g replays in decide bin
  /// g % bins for the run.
  struct VariantPlan {
    Variant variant;
    VariantSpec spec;
    std::vector<Reach> reach;  // per satellite slot
    CouplingGroups groups;
    std::size_t bins = 1;
    std::vector<std::uint32_t> bin_of;  // per slot: group % bins
    std::size_t part_of = 0;  // the variant whose partition decide reads
  };
  /// Written by the decide tasks, each bin on its own coupling groups.
  struct alignas(util::kCacheLine) DecideState {
    std::vector<std::unique_ptr<cache::Cache>> caches;  // per satellite slot
    std::vector<std::uint32_t> prefetch_epoch;          // spec.prefetch only
    TransientFailureModel transient{0.0};  // same outage schedule per variant
    std::vector<double> bin_seconds;  // last decide time per bin
    /// Output per block slot, read by the fold stage a step later.
    std::vector<Outcome> outcome[kSlots];
    std::vector<util::Bytes> prefetched[kSlots];  // spec.prefetch only
  };
  /// Written by the variant's one fold task, in trace order.
  struct alignas(util::kCacheLine) FoldState {
    VariantMetrics metrics;
    obs::EpochSeries series;            // per-epoch metric snapshots
    util::Rng rng;                      // latency sampling stream
    std::uint64_t request_counter = 0;  // drives user-terminal rotation
    double fold_seconds = 0.0;          // last fold time
  };
  static_assert(alignof(DecideState) == util::kCacheLine);
  static_assert(alignof(FoldState) == util::kCacheLine);
  struct VariantState : VariantPlan {
    DecideState decide;
    FoldState fold;
  };

  /// Shared per-request context, hoisted out of the variant loop (stage 1):
  /// the scheduler epoch, the first-contact lookup (once per request, and
  /// once at the frozen epoch 0 when a frozen variant is registered,
  /// instead of once per variant), whether the scheduler's reshuffle
  /// handed this user to a different satellite than the previous epoch,
  /// and, when a hashed variant is registered, the bucket owner that all
  /// hashed variants serve from with its routing delay.
  struct RequestContext {
    util::EpochIdx epoch{0};
    bool handover = false;       // first contact differs from epoch - 1's
    sched::Candidate fc;         // first contact at the real epoch
    sched::Candidate fc_static;  // first contact at the frozen epoch 0
    util::SatId owner = util::kNoSat;  // hashed serving sat (fc.sat if none)
    util::Millis route{0.0};     // fc -> owner grid routing delay
  };

  /// Constructor step: resolve `v`'s spec, reach table and state; a
  /// variant already registered is skipped.
  void register_variant(Variant v);

  /// Stage-1 fan-out over one chunk: each slot is a pure function of the
  /// request index, seeded by `counter_base` (the shared request-counter
  /// position at the chunk's first request); then its decide partitions.
  void build_context(const trace::RequestBlock& block,
                     std::uint64_t counter_base,
                     std::vector<RequestContext>& ctx,
                     std::vector<BinPartition>& parts);

  [[nodiscard]] static const sched::Candidate& first_contact(
      const VariantPlan& vp, const RequestContext& c) noexcept {
    return vp.spec.frozen ? c.fc_static : c.fc;
  }
  [[nodiscard]] static util::SatId serving_of(
      const VariantPlan& vp, const RequestContext& c) noexcept {
    return vp.spec.hashed ? c.owner : first_contact(vp, c).sat;
  }

  /// Decide stage for one bin of one variant, in trace order: `part`'s
  /// requests in `bin`, or every request of the block if there is one bin.
  void decide_bin(const VariantPlan& vp, DecideState& ds, int slot,
                  std::size_t bin, const trace::RequestBlock& block,
                  const std::vector<RequestContext>& ctx,
                  const BinPartition& part);
  Outcome decide(const VariantPlan& vp, DecideState& ds,
                 const trace::Request& r, const RequestContext& c,
                 util::Bytes& prefetched);
  util::Bytes maybe_prefetch(const VariantPlan& vp, DecideState& ds,
                             util::SatId serving, util::EpochIdx epoch);
  cache::Cache& cache_at(DecideState& ds, util::SatId sat);

  /// Fold stage for one variant over one block, strictly in trace order,
  /// from the decide stage's `out` and `pre` for that block.
  /// `trace_epochs` is set for one variant only (or the trace timeline
  /// would repeat per worker); `marked_epoch` carries its epoch-instant
  /// dedup across chunks.
  void fold_variant(const VariantPlan& vp, FoldState& fs,
                    std::span<const Outcome> out,
                    std::span<const util::Bytes> pre,
                    const trace::RequestBlock& block,
                    const std::vector<RequestContext>& ctx, bool trace_epochs,
                    std::uint64_t& marked_epoch);
  void fold(const VariantPlan& vp, FoldState& fs, const trace::Request& r,
            const RequestContext& c, Outcome o, util::Bytes prefetched);
  void note_sat(FoldState& fs, util::SatId sat, const trace::Request& r,
                bool hit);

  const orbit::Constellation* constellation_;
  const sched::LinkSchedule* schedule_;
  SimConfig config_;
  BucketMapper mapper_;
  net::LatencyModel latency_;
  CacheFactory cache_factory_;
  std::vector<VariantState> variants_;
  bool need_static_ = false;  // a frozen variant: epoch-0 first contacts
  bool need_owner_ = false;   // a hashed variant: bucket owners and routes
  /// Produce-stage scratch: per variant that sorts a partition (part_of
  /// names itself), each request's decide bin.
  std::vector<std::vector<std::uint32_t>> bin_keys_;
};

}  // namespace starcdn::core
