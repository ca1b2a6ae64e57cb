#include "net/transport.h"

#include <gtest/gtest.h>

#include <thread>

#include "tcp_pair.h"

namespace starcdn::net {
namespace {

Message make_msg(std::uint64_t id) {
  Message m;
  m.type = MessageType::kRequest;
  m.request_id = id;
  m.object_id = id * 7;
  m.payload = "payload-" + std::to_string(id);
  return m;
}

TEST(TcpChannel, LoopbackEcho) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);

  std::thread server([&] {
    auto ch = listener.accept();
    for (;;) {
      auto m = ch->recv();
      if (!m) return;
      m->flags |= kFlagHit;  // "echo with a hit flag"
      ch->send(*m);
      if (m->type == MessageType::kControl) return;
    }
  });

  auto client = TcpChannel::connect("127.0.0.1", listener.port());
  for (std::uint64_t i = 0; i < 50; ++i) {
    client->send(make_msg(i));
    const auto echoed = client->recv();
    ASSERT_TRUE(echoed.has_value());
    EXPECT_EQ(echoed->request_id, i);
    EXPECT_TRUE(echoed->flags & kFlagHit);
  }
  Message bye;
  bye.type = MessageType::kControl;
  client->send(bye);
  EXPECT_TRUE(client->recv().has_value());
  server.join();
}

TEST(TcpChannel, LargePayloadSurvives) {
  TcpListener listener(0);
  std::thread server([&] {
    auto ch = listener.accept();
    const auto m = ch->recv();
    ASSERT_TRUE(m.has_value());
    ch->send(*m);
  });
  auto client = TcpChannel::connect("127.0.0.1", listener.port());
  Message big = make_msg(9);
  big.payload.assign(2 * 1024 * 1024, 'z');  // forces many TCP segments
  client->send(big);
  const auto back = client->recv();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload.size(), big.payload.size());
  EXPECT_EQ(*back, big);
  server.join();
}

TEST(TcpChannel, PeerCloseYieldsNullopt) {
  TcpListener listener(0);
  std::thread server([&] { auto ch = listener.accept(); /* drop */ });
  auto client = TcpChannel::connect("127.0.0.1", listener.port());
  server.join();
  EXPECT_FALSE(client->recv().has_value());
  EXPECT_TRUE(client->closed());
}

TEST(TcpChannel, OrderPreserved) {
  // 100 pipelined frames, so several land in one recv chunk.
  auto [a, b] = tcp_pair();
  for (std::uint64_t i = 0; i < 100; ++i) a->send(make_msg(i));
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto got = b->recv();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->request_id, i);
  }
}

// The EOF that makes replay workers exit when the orchestrator closes.
TEST(TcpChannel, CloseUnblocksPeerReceiver) {
  auto [a, b] = tcp_pair();
  std::thread t([&] {
    const auto got = b->recv();
    EXPECT_FALSE(got.has_value());
  });
  a->close();
  t.join();
}

TEST(TcpChannel, SendOnClosedThrows) {
  auto [a, b] = tcp_pair();
  a->close();
  EXPECT_THROW(a->send(make_msg(1)), std::runtime_error);
}

TEST(TcpChannel, ConnectRefusedThrows) {
  // Port 1 is essentially never listening on loopback.
  EXPECT_THROW((void)TcpChannel::connect("127.0.0.1", 1), std::runtime_error);
}

TEST(TcpChannel, BadAddressThrows) {
  EXPECT_THROW((void)TcpChannel::connect("not-an-ip", 80), std::runtime_error);
}

}  // namespace
}  // namespace starcdn::net
