// Chunked, pull-based request streaming — the O(chunk)-memory alternative
// to materializing a whole trace as std::vector<Request> (32 bytes per
// request puts the paper's 423M-request video day at ~13.5 GB; a 64K-request
// chunk is ~2 MB).
//
// RequestBlock is a structure-of-arrays chunk: the simulator's stage-1
// context fan-out walks timestamps and locations only, and SoA keeps those
// scans dense instead of striding 32-byte AoS records. RequestStream is the
// producer interface and the only way a trace reaches a consumer;
// VectorStream adapts a materialized trace, and validate_block is the one
// check every consumer runs at the stream boundary. DESIGN.md §12 documents
// the pipeline contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "trace/record.h"

namespace starcdn::trace {

/// Default requests per chunk (~2 MB of SoA payload): big enough to
/// amortize per-chunk overhead, small enough to stay cache- and
/// memory-friendly.
inline constexpr std::size_t kDefaultChunkRequests = 64 * 1024;

/// A structure-of-arrays chunk of requests. Column i of every array
/// describes one request; the arrays always have equal length.
class RequestBlock {
 public:
  std::vector<double> timestamp_s;
  std::vector<ObjectId> object;
  std::vector<Bytes> size;
  std::vector<std::uint16_t> location;

  [[nodiscard]] std::size_t count() const noexcept { return object.size(); }
  [[nodiscard]] bool empty() const noexcept { return object.empty(); }

  void clear() noexcept {
    timestamp_s.clear();
    object.clear();
    size.clear();
    location.clear();
  }

  void reserve(std::size_t n) {
    timestamp_s.reserve(n);
    object.reserve(n);
    size.reserve(n);
    location.reserve(n);
  }

  void resize(std::size_t n) {
    timestamp_s.resize(n);
    object.resize(n);
    size.resize(n);
    location.resize(n);
  }

  /// Append `count` requests of `from`, starting at its request `begin`.
  void append(const RequestBlock& from, std::size_t begin, std::size_t count) {
    const auto copy = [&](auto& to, const auto& column) {
      const auto first = column.begin() + static_cast<std::ptrdiff_t>(begin);
      to.insert(to.end(), first, first + static_cast<std::ptrdiff_t>(count));
    };
    copy(timestamp_s, from.timestamp_s);
    copy(object, from.object);
    copy(size, from.size);
    copy(location, from.location);
  }

  void push_back(const Request& r) {
    timestamp_s.push_back(r.timestamp_s);
    object.push_back(r.object);
    size.push_back(r.size);
    location.push_back(r.location);
  }

  [[nodiscard]] Request at(std::size_t i) const noexcept {
    return Request{timestamp_s[i], object[i], size[i], location[i]};
  }
};

/// Pull-based producer of globally time-ordered request chunks.
///
/// Contract: next() clears `out`, fills it with the next chunk and returns
/// true, or returns false at end of stream (leaving `out` empty). A stream
/// never yields an empty block, and concatenating all yielded blocks is the
/// complete time-ordered trace. Chunk sizes may vary between calls; only
/// the concatenation is specified.
class RequestStream {
 public:
  virtual ~RequestStream() = default;

  [[nodiscard]] virtual bool next(RequestBlock& out) = 0;

  /// Total number of requests this stream will yield, when known up front
  /// (generators know, arbitrary sources may not).
  [[nodiscard]] virtual std::optional<std::uint64_t> size_hint() const {
    return std::nullopt;
  }
};

/// Adapter: chunked stream over an already-materialized vector. Does not
/// own the vector; it must outlive the stream.
class VectorStream final : public RequestStream {
 public:
  explicit VectorStream(const std::vector<Request>& requests,
                        std::size_t chunk_requests = kDefaultChunkRequests);

  [[nodiscard]] bool next(RequestBlock& out) override;
  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return requests_->size();
  }

 private:
  const std::vector<Request>* requests_;
  std::size_t chunk_;
  std::size_t pos_ = 0;
};

/// Drain a stream into a materialized vector (tests and small scales; at
/// paper scale this is exactly the allocation streaming exists to avoid).
[[nodiscard]] std::vector<Request> collect(RequestStream& stream);

/// Where a consumer stands in a stream: carried across blocks by
/// validate_block, one per stream being consumed.
struct StreamPosition {
  std::uint64_t index = 0;  // global index of the next request
  double last_timestamp_s = -std::numeric_limits<double>::infinity();
};

/// The trust-boundary check every consumer runs once per block, before it
/// touches the requests: each location is < `cities`, each size is
/// positive, each timestamp is finite, and timestamps never decrease —
/// within the block and against the previous block (`pos`). Throws
/// std::invalid_argument naming the field, the request's global index and
/// the bad value; on success, advances `pos` past the block.
void validate_block(const RequestBlock& block, std::size_t cities,
                    StreamPosition& pos);

}  // namespace starcdn::trace
