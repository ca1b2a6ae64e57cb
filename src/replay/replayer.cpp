#include "replay/replayer.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "obs/tracer.h"
#include "util/ids.h"

namespace starcdn::replay {

namespace {

using net::Channel;
using net::Message;
using net::MessageType;

constexpr std::uint32_t kShutdownFlag = 1u << 1;

/// Worker: one satellite's cache server. Speaks the wire protocol until a
/// shutdown control message arrives.
void worker_loop(std::uint32_t node_id, Channel& channel,
                 const core::SimConfig& config) {
  const auto cache = cache::make_cache(
      config.policy, config.cache_capacity,
      cache::presize_hint(config.cache_capacity,
                          config.mean_object_size_hint));
  for (;;) {
    const auto msg = channel.recv();
    if (!msg) return;  // orchestrator closed the channel
    Message reply;
    reply.src = node_id;
    reply.dst = msg->src;
    reply.object_id = msg->object_id;
    reply.size_bytes = msg->size_bytes;
    reply.request_id = msg->request_id;
    switch (msg->type) {
      case MessageType::kRequest:
        // Owner-path access: touch (hit) without admitting on miss — the
        // orchestrator decides the fill source first.
        reply.type = MessageType::kResponse;
        if (cache->touch(msg->object_id)) reply.flags |= net::kFlagHit;
        channel.send(reply);
        break;
      case MessageType::kRelayProbe:
        // Side-effect-free probe of a neighbour replica.
        reply.type = MessageType::kRelayReply;
        if (cache->peek(msg->object_id)) reply.flags |= net::kFlagHit;
        channel.send(reply);
        break;
      case MessageType::kGroundReply:
        // Fill directive: object arrived (from replica or ground); admit.
        cache->admit(msg->object_id, msg->size_bytes);
        break;
      case MessageType::kControl:
        if (msg->flags & kShutdownFlag) return;
        break;
      default:
        break;  // ignore unexpected traffic rather than wedging the cluster
    }
  }
}

struct Cluster {
  std::vector<std::unique_ptr<Channel>> channels;  // orchestrator side
  std::vector<std::thread> threads;

  Cluster() = default;
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;

  ~Cluster() {
    for (auto& ch : channels) {
      if (ch) ch->close();
    }
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

Cluster spawn_cluster(int n_nodes, const core::SimConfig& config,
                      TransportKind transport) {
  Cluster cluster;
  cluster.channels.resize(static_cast<std::size_t>(n_nodes));
  if (transport == TransportKind::kInProcess) {
    for (int i = 0; i < n_nodes; ++i) {
      auto [orch_end, node_end] = net::make_inproc_pair();
      cluster.channels[static_cast<std::size_t>(i)] = std::move(orch_end);
      cluster.threads.emplace_back(
          [i, &config, node = std::shared_ptr<Channel>(std::move(node_end))] {
            worker_loop(static_cast<std::uint32_t>(i), *node, config);
          });
    }
  } else {
    // TCP mode: workers dial the orchestrator's loopback listener and
    // identify themselves with a control hello (paper setup: per-satellite
    // processes over TCP; threads here, same wire behaviour).
    net::TcpListener listener(0);
    const std::uint16_t port = listener.port();
    for (int i = 0; i < n_nodes; ++i) {
      cluster.threads.emplace_back([i, port, &config] {
        auto ch = net::TcpChannel::connect("127.0.0.1", port);
        Message hello;
        hello.type = MessageType::kControl;
        hello.src = static_cast<std::uint32_t>(i);
        ch->send(hello);
        worker_loop(static_cast<std::uint32_t>(i), *ch, config);
      });
    }
    for (int i = 0; i < n_nodes; ++i) {
      auto ch = listener.accept();
      const auto hello = ch->recv();
      if (!hello || hello->type != MessageType::kControl) {
        throw std::runtime_error("replay: bad hello from worker");
      }
      cluster.channels[hello_slot(cluster.channels, hello->src)] =
          std::move(ch);
    }
  }
  return cluster;
}

}  // namespace

bool RemoteCache::rpc(MessageType type, cache::ObjectId id) const {
  Message m;
  m.type = type;
  m.object_id = id;
  m.request_id = ++request_id_;
  channel_->send(m);
  const auto reply = channel_->recv();
  if (!reply) throw std::runtime_error("replay: worker died mid-RPC");
  if (reply->request_id != m.request_id) {
    throw std::runtime_error(
        "replay: worker replied to request id " +
        std::to_string(reply->request_id) + " while request id " +
        std::to_string(m.request_id) + " was awaited");
  }
  return (reply->flags & net::kFlagHit) != 0;
}

bool RemoteCache::peek(cache::ObjectId id) const {
  return rpc(MessageType::kRelayProbe, id);
}

bool RemoteCache::touch(cache::ObjectId id) {
  return rpc(MessageType::kRequest, id);
}

void RemoteCache::admit(cache::ObjectId id, util::Bytes size) {
  Message fill;
  fill.type = MessageType::kGroundReply;
  fill.object_id = id;
  fill.size_bytes = size;
  channel_->send(fill);
}

std::vector<std::pair<cache::ObjectId, util::Bytes>> RemoteCache::hottest(
    std::size_t /*n*/) const {
  throw std::logic_error("RemoteCache::hottest: no wire message");
}

core::RunReport replay_cluster(const orbit::Constellation& constellation,
                               const sched::LinkSchedule& schedule,
                               trace::RequestStream& stream,
                               const core::SimConfig& config,
                               TransportKind transport) {
  if (!config.variants.empty() &&
      config.variants != std::vector{core::Variant::kStarCdn}) {
    throw std::invalid_argument(
        "replay_cluster: SimConfig::variants must be empty or exactly "
        "{kStarCdn}; each worker holds one cache, so two variants would "
        "share it");
  }
  const obs::TraceSpan span(
      obs::tracer(), "replay_cluster", "replay",
      {obs::arg("requests", stream.size_hint().value_or(0)),
       obs::arg("nodes", static_cast<std::int64_t>(constellation.size()))});
  Cluster cluster = [&] {
    const obs::TraceSpan spawn_span(obs::tracer(), "spawn_cluster", "replay");
    return spawn_cluster(constellation.size(), config, transport);
  }();

  // Declared after the cluster so the proxies die before the channels close.
  // An empty variant list means {kStarCdn}; a repeat registers once.
  core::SimConfig star = config;
  star.variants.push_back(core::Variant::kStarCdn);
  core::Simulator sim(
      constellation, schedule, std::move(star), [&](util::SatId sat) {
        return std::make_unique<RemoteCache>(
            *cluster.channels[util::as_index(sat)], config.policy,
            config.cache_capacity);
      });
  sim.run(stream);

  // Graceful shutdown so worker caches drain deterministically.
  const obs::TraceSpan bye_span(obs::tracer(), "cluster_shutdown", "replay");
  for (auto& ch : cluster.channels) {
    Message bye;
    bye.type = MessageType::kControl;
    bye.flags = kShutdownFlag;
    ch->send(bye);
  }
  return sim.finish();
}

std::size_t hello_slot(const std::vector<std::unique_ptr<Channel>>& channels,
                       std::uint32_t src) {
  if (src >= channels.size()) {
    throw std::runtime_error("replay: worker hello names node " +
                             std::to_string(src) + " but the cluster has " +
                             std::to_string(channels.size()) + " nodes");
  }
  if (channels[src]) {
    throw std::runtime_error("replay: second worker hello from node " +
                             std::to_string(src) + " of " +
                             std::to_string(channels.size()));
  }
  return src;
}

}  // namespace starcdn::replay
