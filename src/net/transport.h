// TCP loopback transport for the cluster replayer.
//
// The paper's replayer spawns one process per satellite and mimics ISLs
// with TCP sockets. TcpChannel is that ISL: a connected socket carrying
// net/codec frames, and the only transport the replay module uses, so
// every cluster replay encodes and decodes the wire protocol.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "net/codec.h"

namespace starcdn::net {

/// A bidirectional, ordered, reliable message channel (ISL abstraction)
/// over a connected TCP socket; frames via FrameDecoder / encode.
class TcpChannel {
 public:
  /// Wrap an already-connected socket fd (takes ownership).
  explicit TcpChannel(int fd);
  ~TcpChannel();

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// Send one message to the peer. Throws std::runtime_error on a broken
  /// or closed channel.
  void send(const Message& m);

  /// Blocking receive; std::nullopt means the peer closed the channel.
  std::optional<Message> recv();

  void close();
  [[nodiscard]] bool closed() const;

  /// Connect to host:port; throws std::runtime_error on failure.
  [[nodiscard]] static std::unique_ptr<TcpChannel> connect(
      const std::string& host, std::uint16_t port);

 private:
  mutable std::mutex send_mu_;
  mutable std::mutex recv_mu_;
  int fd_ = -1;
  // Written under send_mu_ (close) and recv_mu_ (peer shutdown), read under
  // either — atomic so the cross-mutex accesses are race-free under TSan.
  std::atomic<bool> closed_{false};
  FrameDecoder decoder_;
};

/// Listening socket that accepts TcpChannels.
class TcpListener {
 public:
  /// Bind to 127.0.0.1:port; port 0 picks an ephemeral port (see `port()`).
  explicit TcpListener(std::uint16_t port = 0);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocking accept of the next connection.
  [[nodiscard]] std::unique_ptr<TcpChannel> accept();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace starcdn::net
