// Wire format for the cluster replayer (§5.1: the paper's cache replayer
// runs one process per satellite and mimics ISLs with TCP).
//
// Frames are length-prefixed with fixed-width big-endian integers so the
// format is self-describing and platform independent:
//
//   u32 frame_length (bytes after this field)
//   u16 version (=1)   u16 type
//   u32 src            u32 dst
//   u64 object_id      u64 size_bytes
//   u64 request_id     u32 flags
//   u32 payload_length  bytes payload
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace starcdn::net {

enum class MessageType : std::uint16_t {
  kRequest = 1,        // first contact -> bucket owner: please serve object
  kResponse = 2,       // owner -> first contact: object bytes (hit)
  kRelayProbe = 3,     // owner -> neighbour replica: do you have it?
  kRelayReply = 4,     // neighbour replica -> owner: hit/miss (+bytes)
  kGroundFetch = 5,    // owner -> ground station: origin fetch
  kGroundReply = 6,    // ground station -> owner
  kControl = 7,        // replayer orchestration (start/stop/barrier)
};

struct Message {
  MessageType type = MessageType::kRequest;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t object_id = 0;
  std::uint64_t size_bytes = 0;
  std::uint64_t request_id = 0;
  std::uint32_t flags = 0;
  std::string payload;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Flag bit set on kRelayReply / kGroundReply when the probe was a hit.
inline constexpr std::uint32_t kFlagHit = 1u << 0;

/// Serialize one message into a framed byte buffer.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& m);

/// Incremental decoder: feed arbitrary byte chunks, pop complete messages.
/// Malformed input (bad version, unknown message type, oversized frame)
/// raises std::runtime_error; a transport must drop the connection at that
/// point.
class FrameDecoder {
 public:
  /// Frames larger than this are rejected as corrupt/hostile input.
  static constexpr std::uint32_t kMaxFrameBytes = 16 * 1024 * 1024;

  void feed(std::span<const std::uint8_t> bytes);

  /// Next complete message, if any.
  [[nodiscard]] std::optional<Message> next();

  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buf_.size() - consumed_;
  }

 private:
  void compact();

  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;
};

}  // namespace starcdn::net
