#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace starcdn::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// One direction of an in-process channel: a bounded-ish mailbox.
struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> queue;
  bool closed = false;

  void push(const Message& m) {
    {
      const std::lock_guard lock(mu);
      if (closed) throw std::runtime_error("inproc channel closed");
      queue.push_back(m);
    }
    cv.notify_one();
  }

  std::optional<Message> pop(bool blocking) {
    std::unique_lock lock(mu);
    if (blocking) cv.wait(lock, [&] { return !queue.empty() || closed; });
    if (queue.empty()) return std::nullopt;
    Message m = std::move(queue.front());
    queue.pop_front();
    return m;
  }

  void close() {
    {
      const std::lock_guard lock(mu);
      closed = true;
    }
    cv.notify_all();
  }
};

class InprocChannel final : public Channel {
 public:
  InprocChannel(std::shared_ptr<Mailbox> tx, std::shared_ptr<Mailbox> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  void send(const Message& m) override { tx_->push(m); }
  std::optional<Message> recv() override { return rx_->pop(true); }
  std::optional<Message> try_recv() override { return rx_->pop(false); }
  void close() override {
    tx_->close();
    rx_->close();
  }
  [[nodiscard]] bool closed() const override {
    const std::lock_guard lock(rx_->mu);
    return rx_->closed && rx_->queue.empty();
  }

 private:
  std::shared_ptr<Mailbox> tx_;
  std::shared_ptr<Mailbox> rx_;
};

}  // namespace

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>>
make_inproc_pair() {
  auto a_to_b = std::make_shared<Mailbox>();
  auto b_to_a = std::make_shared<Mailbox>();
  return {std::make_unique<InprocChannel>(a_to_b, b_to_a),
          std::make_unique<InprocChannel>(b_to_a, a_to_b)};
}

// --- TcpChannel --------------------------------------------------------------

TcpChannel::TcpChannel(int fd) : fd_(fd) {
  const int one = 1;
  // Latency matters more than throughput for small control frames.
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

TcpChannel::~TcpChannel() { close(); }

void TcpChannel::send(const Message& m) {
  const auto bytes = encode(m);
  const std::lock_guard lock(send_mu_);
  if (closed_) throw std::runtime_error("TcpChannel: send on closed channel");
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("TcpChannel send");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::optional<Message> TcpChannel::recv_impl(bool blocking) {
  const std::lock_guard lock(recv_mu_);
  for (;;) {
    if (auto m = decoder_.next()) return m;
    if (closed_) return std::nullopt;
    std::uint8_t chunk[16384];
    const ssize_t n =
        ::recv(fd_, chunk, sizeof chunk, blocking ? 0 : MSG_DONTWAIT);
    if (n > 0) {
      decoder_.feed({chunk, static_cast<std::size_t>(n)});
      continue;
    }
    if (n == 0) {  // orderly shutdown by peer
      closed_ = true;
      return std::nullopt;
    }
    if (errno == EINTR) continue;
    if (!blocking && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return std::nullopt;
    }
    throw_errno("TcpChannel recv");
  }
}

std::optional<Message> TcpChannel::recv() { return recv_impl(true); }
std::optional<Message> TcpChannel::try_recv() { return recv_impl(false); }

void TcpChannel::close() {
  const std::lock_guard lock(send_mu_);
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
  closed_ = true;
}

bool TcpChannel::closed() const { return closed_; }

std::unique_ptr<TcpChannel> TcpChannel::connect(const std::string& host,
                                                std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("TcpChannel::connect: bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect");
  }
  return std::make_unique<TcpChannel>(fd);
}

// --- TcpListener --------------------------------------------------------------

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int one = 1;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw_errno("bind");
  }
  if (::listen(fd_, 64) < 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpChannel> TcpListener::accept() {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return std::make_unique<TcpChannel>(fd);
    if (errno != EINTR) throw_errno("accept");
  }
}

}  // namespace starcdn::net
