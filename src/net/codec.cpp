#include "net/codec.h"

#include <cstring>
#include <stdexcept>
#include <string>

namespace starcdn::net {

namespace {

constexpr std::uint16_t kVersion = 1;
// version+type + src+dst + object+size+request + flags + payload_len
constexpr std::size_t kFixedBody = 2 + 2 + 4 + 4 + 8 + 8 + 8 + 4 + 4;

void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}
void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int s = 24; s >= 0; s -= 8) b.push_back(static_cast<std::uint8_t>(v >> s));
}
void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int s = 56; s >= 0; s -= 8) b.push_back(static_cast<std::uint8_t>(v >> s));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
std::uint32_t get_u32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}
std::uint64_t get_u64(const std::uint8_t* p) {
  return (std::uint64_t{get_u32(p)} << 32) | get_u32(p + 4);
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& m) {
  if (m.payload.size() > FrameDecoder::kMaxFrameBytes - kFixedBody) {
    throw std::runtime_error("encode: payload exceeds max frame size");
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + kFixedBody + m.payload.size());
  put_u32(out, static_cast<std::uint32_t>(kFixedBody + m.payload.size()));
  put_u16(out, kVersion);
  put_u16(out, static_cast<std::uint16_t>(m.type));
  put_u32(out, m.src);
  put_u32(out, m.dst);
  put_u64(out, m.object_id);
  put_u64(out, m.size_bytes);
  put_u64(out, m.request_id);
  put_u32(out, m.flags);
  put_u32(out, static_cast<std::uint32_t>(m.payload.size()));
  out.insert(out.end(), m.payload.begin(), m.payload.end());
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void FrameDecoder::compact() {
  // Reclaim consumed prefix once it dominates the buffer to keep feed()
  // amortized O(1) without reallocating per message.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
}

std::optional<Message> FrameDecoder::next() {
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return std::nullopt;
  const std::uint8_t* p = buf_.data() + consumed_;
  const std::uint32_t frame_len = get_u32(p);
  if (frame_len > kMaxFrameBytes || frame_len < kFixedBody) {
    throw std::runtime_error("FrameDecoder: corrupt frame length");
  }
  if (avail < 4 + static_cast<std::size_t>(frame_len)) return std::nullopt;
  p += 4;
  if (get_u16(p) != kVersion) {
    throw std::runtime_error("FrameDecoder: unsupported version");
  }
  const std::uint16_t type = get_u16(p + 2);
  if (type < static_cast<std::uint16_t>(MessageType::kRequest) ||
      type > static_cast<std::uint16_t>(MessageType::kControl)) {
    throw std::runtime_error("FrameDecoder: unknown message type " +
                             std::to_string(type));
  }
  Message m;
  m.type = static_cast<MessageType>(type);
  m.src = get_u32(p + 4);
  m.dst = get_u32(p + 8);
  m.object_id = get_u64(p + 12);
  m.size_bytes = get_u64(p + 20);
  m.request_id = get_u64(p + 28);
  m.flags = get_u32(p + 36);
  const std::uint32_t payload_len = get_u32(p + 40);
  if (payload_len != frame_len - kFixedBody) {
    throw std::runtime_error("FrameDecoder: payload length mismatch");
  }
  m.payload.assign(reinterpret_cast<const char*>(p + 44), payload_len);
  consumed_ += 4 + frame_len;
  compact();
  return m;
}

}  // namespace starcdn::net
