#include "trace/stream.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace starcdn::trace {

namespace {

/// Round-trippable text for a double, so an error names the exact value.
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

VectorStream::VectorStream(const std::vector<Request>& requests,
                           std::size_t chunk_requests)
    : requests_(&requests), chunk_(std::max<std::size_t>(1, chunk_requests)) {}

bool VectorStream::next(RequestBlock& out) {
  out.clear();
  if (pos_ >= requests_->size()) return false;
  const std::size_t n = std::min(chunk_, requests_->size() - pos_);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back((*requests_)[pos_ + i]);
  pos_ += n;
  return true;
}

std::vector<Request> collect(RequestStream& stream) {
  std::vector<Request> all;
  if (const auto hint = stream.size_hint()) {
    all.reserve(static_cast<std::size_t>(*hint));
  }
  RequestBlock block;
  while (stream.next(block)) {
    for (std::size_t i = 0; i < block.count(); ++i) {
      all.push_back(block.at(i));
    }
  }
  return all;
}

void sort_by_time(std::span<Request> requests) {
  std::stable_sort(requests.begin(), requests.end(),
                   [](const Request& a, const Request& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
}

void sort_minute(std::span<const TimeKey> in, double start, double end,
                 std::span<TimeKey> out) {
  const std::size_t n = in.size();
  if (n == 0) return;
  const double last = static_cast<double>(n - 1);
  const double scale = static_cast<double>(n) / (end - start);
  const auto bucket = [&](double t) {
    return static_cast<std::size_t>(
        std::min(last, std::max(0.0, (t - start) * scale)));
  };
  std::vector<std::size_t> begin(n + 1, 0);
  for (const TimeKey& k : in) ++begin[bucket(k.timestamp_s) + 1];
  for (std::size_t q = 0; q < n; ++q) begin[q + 1] += begin[q];
  for (const TimeKey& k : in) out[begin[bucket(k.timestamp_s)]++] = k;
  for (std::size_t i = 1; i < n; ++i) {
    const TimeKey k = out[i];
    std::size_t j = i;
    for (; j > 0 && out[j - 1].timestamp_s > k.timestamp_s; --j) {
      out[j] = out[j - 1];
    }
    out[j] = k;
  }
}

std::vector<Request> merge_by_time(const MultiTrace& traces) {
  std::size_t total = 0;
  for (const auto& t : traces) total += t.requests.size();
  std::vector<Request> all;
  all.reserve(total);
  for (const auto& t : traces) {
    all.insert(all.end(), t.requests.begin(), t.requests.end());
  }
  sort_by_time(all);
  return all;
}

void validate_block(const RequestBlock& block, std::size_t cities,
                    StreamPosition& pos) {
  const auto fail = [&](std::size_t i, const char* field,
                        const std::string& what) {
    throw std::invalid_argument("request " + std::to_string(pos.index + i) +
                                ": " + field + " " + what);
  };
  double last = pos.last_timestamp_s;
  for (std::size_t i = 0; i < block.count(); ++i) {
    if (block.location[i] >= cities) {
      fail(i, "location",
           std::to_string(block.location[i]) + " is out of range for " +
               std::to_string(cities) + " cities");
    }
    if (block.size[i] == 0) {
      fail(i, "size", "is 0 (every request must fetch at least one byte)");
    }
    // NaN compares false against everything, so finiteness is checked
    // first; epoch_of would otherwise map it silently to epoch 0.
    const double t = block.timestamp_s[i];
    if (!std::isfinite(t)) {
      fail(i, "timestamp_s", exact(t) + " is not finite");
    }
    if (t < last) {
      fail(i, "timestamp_s",
           exact(t) + " precedes the previous request's " + exact(last) +
               " (the trace must be time-ordered)");
    }
    last = t;
  }
  pos.index += block.count();
  pos.last_timestamp_s = last;
}

}  // namespace starcdn::trace
