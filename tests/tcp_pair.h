// Test helper: a connected pair of TCP loopback channels.
#pragma once

#include <memory>
#include <utility>

#include "net/transport.h"

namespace starcdn::net {

/// Listen on an ephemeral loopback port, connect, accept. `first` is the
/// connecting end, `second` the accepted end; the listener closes on return.
inline std::pair<std::unique_ptr<TcpChannel>, std::unique_ptr<TcpChannel>>
tcp_pair() {
  TcpListener listener(0);
  auto connected = TcpChannel::connect("127.0.0.1", listener.port());
  auto accepted = listener.accept();
  return {std::move(connected), std::move(accepted)};
}

}  // namespace starcdn::net
