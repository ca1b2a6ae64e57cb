// Message-driven cluster replayer (§5.1).
//
// The paper's evaluation harness spawns one cache process per satellite and
// mimics ISLs with TCP. This module reproduces that architecture: each
// satellite runs as a worker thread owning its cache and speaking the
// net/codec wire protocol over a Channel; an orchestrator replays a trace
// by issuing Request/RelayProbe/Admit messages along the StarCDN pipeline
// (consistent hashing -> owner -> relayed fetch -> ground). Two transports
// are provided: in-process queues (fast, deterministic) and real TCP
// loopback sockets (faithful to the paper's setup). Both produce
// bit-identical results — asserted by the integration tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "net/transport.h"
#include "orbit/constellation.h"
#include "sched/scheduler.h"
#include "trace/record.h"
#include "trace/stream.h"

namespace starcdn::replay {

enum class TransportKind : std::uint8_t { kInProcess, kTcp };

struct ReplayConfig {
  cache::Policy policy = cache::Policy::kLru;
  util::Bytes cache_capacity = util::gib(1);
  int buckets = 4;
  bool relay_east = true;
  TransportKind transport = TransportKind::kInProcess;
  int users_per_city = 64;
  /// Mean-object-size hint used to pre-size each worker's cache slab
  /// (capacity / hint resident objects); 0 disables pre-sizing.
  util::Bytes mean_object_size_hint = util::mib(16);
};

struct ReplayReport {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;        // served from any satellite cache
  std::uint64_t relay_hits = 0;  // subset of hits served via relayed fetch
  std::uint64_t misses = 0;
  util::Bytes uplink_bytes = 0;

  [[nodiscard]] double request_hit_rate() const noexcept {
    return requests ? static_cast<double>(hits) / static_cast<double>(requests)
                    : 0.0;
  }
  friend bool operator==(const ReplayReport&, const ReplayReport&) = default;
};

/// Replay a chunked time-ordered stream through a per-satellite worker
/// cluster with O(chunk) trace memory. Throws std::runtime_error on
/// transport failures and std::invalid_argument on a block that fails
/// trace::validate_block.
[[nodiscard]] ReplayReport replay_cluster(
    const orbit::Constellation& constellation,
    const sched::LinkSchedule& schedule, trace::RequestStream& stream,
    const ReplayConfig& config);

/// Replay `requests` (time-ordered) through a per-satellite worker cluster.
/// Identical results to the stream overload on the same requests.
[[nodiscard]] ReplayReport replay_cluster(
    const orbit::Constellation& constellation,
    const sched::LinkSchedule& schedule,
    const std::vector<trace::Request>& requests, const ReplayConfig& config);

/// Orchestrator-side channel slot a worker's TCP hello claims: its `src`
/// must name a node below channels.size() whose slot is still empty.
/// Returns the slot; throws std::runtime_error naming the src and the node
/// count otherwise (a hello off the wire is untrusted input).
[[nodiscard]] std::size_t hello_slot(
    const std::vector<std::unique_ptr<net::Channel>>& channels,
    std::uint32_t src);

}  // namespace starcdn::replay
