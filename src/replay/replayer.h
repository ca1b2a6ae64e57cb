// Message-driven cluster replayer (§5.1).
//
// The paper's evaluation harness spawns one cache process per satellite and
// mimics ISLs with TCP. This module reproduces that architecture: each
// satellite runs as a worker thread owning its cache and speaking the
// net/codec wire protocol over a TCP loopback socket (net::TcpChannel).
// The orchestrator is the ordinary core::Simulator running the StarCDN
// variant, whose satellite caches are RemoteCache proxies that turn each
// cache operation into a message to the slot's worker. There is one
// request pipeline, so the cluster's RunReport equals a local Simulator's
// bit for bit.
//
// Each worker costs one thread and two socket descriptors (its end and the
// orchestrator's), so a full 72x18 shell needs about 2.6k descriptors; the
// examples and tests run small shells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "core/run_report.h"
#include "core/simulator.h"
#include "net/transport.h"
#include "orbit/constellation.h"
#include "sched/scheduler.h"
#include "trace/stream.h"

namespace starcdn::replay {

/// Orchestrator-side proxy for the cache of the worker at the other end of
/// `channel`. Each operation the simulator's decide stage issues becomes one
/// wire message:
///   touch -> kRequest RPC, peek -> kRelayProbe RPC,
///   admit -> one-way kGroundReply (the worker admits the fill).
/// hottest has no wire message and throws std::logic_error. The proxy keeps
/// no residency state, so used_bytes() and object_count() stay 0.
///
/// RPCs block on the reply. A closed channel, or a reply whose request id
/// is not the one awaited, throws std::runtime_error.
class RemoteCache final : public cache::Cache {
 public:
  RemoteCache(net::TcpChannel& channel, cache::Policy policy,
              util::Bytes capacity) noexcept
      : Cache(capacity), channel_(&channel), policy_(policy) {}

  [[nodiscard]] bool peek(cache::ObjectId id) const override;
  bool touch(cache::ObjectId id) override;
  void admit(cache::ObjectId id, util::Bytes size) override;
  [[nodiscard]] std::vector<std::pair<cache::ObjectId, util::Bytes>> hottest(
      std::size_t n) const override;
  [[nodiscard]] cache::Policy policy() const noexcept override {
    return policy_;
  }

 private:
  /// Send a `type` message for `id` and return whether the reply has the
  /// hit flag.
  bool rpc(net::MessageType type, cache::ObjectId id) const;

  net::TcpChannel* channel_;
  cache::Policy policy_;
  mutable std::uint64_t request_id_ = 0;
};

/// Replay a chunked time-ordered stream through one cache worker per
/// satellite slot: a core::Simulator over RemoteCache proxies, with
/// core::Variant::kStarCdn registered. Returns the simulator's RunReport,
/// identical to a local Simulator's run with the same config and
/// {kStarCdn}.
///
/// Throws std::invalid_argument when config.variants is neither empty nor
/// exactly {kStarCdn} (every worker holds one cache, so two variants would
/// share it), on a bad config (SimConfig::validate) and on a block that
/// fails trace::validate_block; std::runtime_error on transport failures.
[[nodiscard]] core::RunReport replay_cluster(
    const orbit::Constellation& constellation,
    const sched::LinkSchedule& schedule, trace::RequestStream& stream,
    const core::SimConfig& config);

/// Orchestrator-side channel slot a worker's hello claims: its `src`
/// must name a node below channels.size() whose slot is still empty.
/// Returns the slot; throws std::runtime_error naming the src and the node
/// count otherwise (a hello off the wire is untrusted input).
[[nodiscard]] std::size_t hello_slot(
    const std::vector<std::unique_ptr<net::TcpChannel>>& channels,
    std::uint32_t src);

}  // namespace starcdn::replay
