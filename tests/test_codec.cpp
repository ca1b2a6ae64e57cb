#include "net/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace starcdn::net {
namespace {

Message sample_message() {
  Message m;
  m.type = MessageType::kRelayProbe;
  m.src = 17;
  m.dst = 1295;
  m.object_id = 0xDEADBEEFCAFEBABEULL;
  m.size_bytes = 123'456'789;
  m.request_id = 42;
  m.flags = kFlagHit;
  m.payload = "starcdn";
  return m;
}

TEST(Codec, RoundTrip) {
  const Message m = sample_message();
  const auto bytes = encode(m);
  FrameDecoder dec;
  dec.feed(bytes);
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Codec, EmptyPayloadRoundTrip) {
  Message m;
  const auto bytes = encode(m);
  FrameDecoder dec;
  dec.feed(bytes);
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
}

TEST(Codec, ByteAtATimeFeeding) {
  const Message m = sample_message();
  const auto bytes = encode(m);
  FrameDecoder dec;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_FALSE(dec.next().has_value()) << "message completed early at " << i;
    dec.feed({&bytes[i], 1});
  }
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
}

TEST(Codec, MultipleMessagesInOneBuffer) {
  std::vector<std::uint8_t> buf;
  std::vector<Message> msgs;
  for (int i = 0; i < 5; ++i) {
    Message m = sample_message();
    m.request_id = static_cast<std::uint64_t>(i);
    m.payload = std::string(static_cast<std::size_t>(i * 100), 'x');
    msgs.push_back(m);
    const auto b = encode(m);
    buf.insert(buf.end(), b.begin(), b.end());
  }
  FrameDecoder dec;
  dec.feed(buf);
  for (const auto& expected : msgs) {
    const auto out = dec.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, expected);
  }
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(Codec, CorruptLengthThrows) {
  FrameDecoder dec;
  const std::uint8_t bogus[] = {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0};
  dec.feed(bogus);
  EXPECT_THROW((void)dec.next(), std::runtime_error);
}

TEST(Codec, WrongVersionThrows) {
  auto bytes = encode(sample_message());
  bytes[5] = 99;  // version low byte
  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_THROW((void)dec.next(), std::runtime_error);
}

TEST(Codec, UnknownTypeThrows) {
  for (const int type : {0, 99}) {
    auto bytes = encode(sample_message());
    bytes[6] = 0;  // type high byte
    bytes[7] = static_cast<std::uint8_t>(type);
    FrameDecoder dec;
    dec.feed(bytes);
    try {
      (void)dec.next();
      ADD_FAILURE() << "type " << type << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("type " + std::to_string(type)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Codec, PayloadLengthMismatchThrows) {
  auto bytes = encode(sample_message());
  bytes[4 + 43] ^= 0x01;  // corrupt payload_length low byte
  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_THROW((void)dec.next(), std::runtime_error);
}

TEST(Codec, OversizedPayloadRejectedAtEncode) {
  Message m;
  m.payload.assign(FrameDecoder::kMaxFrameBytes, 'a');
  EXPECT_THROW((void)encode(m), std::runtime_error);
}

class CodecTypeTest : public ::testing::TestWithParam<MessageType> {};

TEST_P(CodecTypeTest, AllTypesRoundTrip) {
  Message m = sample_message();
  m.type = GetParam();
  FrameDecoder dec;
  dec.feed(encode(m));
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, CodecTypeTest,
    ::testing::Values(MessageType::kRequest, MessageType::kResponse,
                      MessageType::kRelayProbe, MessageType::kRelayReply,
                      MessageType::kGroundFetch, MessageType::kGroundReply,
                      MessageType::kControl));

TEST(Codec, CompactionKeepsStreamIntact) {
  // Push enough traffic through one decoder to trigger internal compaction.
  FrameDecoder dec;
  Message m = sample_message();
  m.payload = std::string(1'000, 'p');
  const auto bytes = encode(m);
  for (int i = 0; i < 100; ++i) {
    dec.feed(bytes);
    const auto out = dec.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->payload, m.payload);
  }
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

}  // namespace
}  // namespace starcdn::net
