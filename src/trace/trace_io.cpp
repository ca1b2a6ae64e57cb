#include "trace/trace_io.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/csv.h"

namespace starcdn::trace {

namespace {

constexpr char kStreamMagic[8] = {'S', 'C', 'D', 'N', 'S', 'T', 'R', '1'};

/// On-disk bytes per request: one element of each packed SoA column.
constexpr std::uint64_t kRequestBytes =
    sizeof(double) + sizeof(ObjectId) + sizeof(Bytes) + sizeof(std::uint16_t);

template <typename T>
void put(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
void put_array(std::ofstream& out, const std::vector<T>& v) {
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

class FileRequestStream final : public RequestStream {
 public:
  explicit FileRequestStream(const std::string& path)
      : path_(path), in_(path, std::ios::binary | std::ios::ate) {
    if (!in_) {
      throw std::runtime_error("open_binary_stream: cannot open " + path);
    }
    file_bytes_ = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0);
    char magic[8];
    in_.read(magic, sizeof magic);
    if (!in_ || std::memcmp(magic, kStreamMagic, sizeof kStreamMagic) != 0) {
      throw std::runtime_error("open_binary_stream: bad magic in " + path);
    }
    in_.read(reinterpret_cast<char*>(&total_), sizeof total_);
    if (!in_) {
      throw std::runtime_error("open_binary_stream: truncated header in " +
                               path);
    }
  }

  [[nodiscard]] bool next(RequestBlock& out) override {
    out.clear();
    if (done_) return false;
    std::uint32_t n = 0;
    read(&n, sizeof n, "count");
    if (n == 0) {
      done_ = true;
      return false;
    }
    // The count is untrusted: bound it by the bytes left in the file
    // before anything is sized to it.
    const std::uint64_t need = n * kRequestBytes;
    const std::uint64_t left =
        file_bytes_ - static_cast<std::uint64_t>(in_.tellg());
    if (need > left) {
      fail("count " + std::to_string(n) + " needs " + std::to_string(need) +
           " bytes but only " + std::to_string(left) + " remain (truncated)");
    }
    get_array(out.timestamp_s, n);
    get_array(out.object, n);
    get_array(out.size, n);
    get_array(out.location, n);
    ++block_;
    return true;
  }

  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return total_;
  }

 private:
  /// Every format error names the file and the ordinal of the block being
  /// read (0-based; the terminating zero count is a block too).
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("open_binary_stream: " + path_ + ": block " +
                             std::to_string(block_) + ": " + what);
  }

  void read(void* into, std::size_t bytes, const char* what) {
    in_.read(static_cast<char*>(into), static_cast<std::streamsize>(bytes));
    if (!in_) fail(std::string("truncated ") + what);
  }

  template <typename T>
  void get_array(std::vector<T>& v, std::size_t n) {
    v.resize(n);
    read(v.data(), n * sizeof(T), "column");
  }

  std::string path_;
  std::ifstream in_;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t block_ = 0;
  bool done_ = false;
};

/// Parse one whole CSV field as T; `where` is "path:line:column".
template <typename T>
T parse_field(const std::string& text, const std::string& where,
              const char* name) {
  T v{};
  if (const char* why = util::parse_number(text, v)) {
    throw std::runtime_error(where + ": " + name + " '" + text + "' " + why);
  }
  return v;
}

}  // namespace

void write_binary_stream(RequestStream& stream, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_binary_stream: cannot open " + path);
  }
  out.write(kStreamMagic, sizeof kStreamMagic);
  // Total request count, patched in after the terminating zero block —
  // the actual drained count, not the stream's (optional) hint.
  const auto total_at = out.tellp();
  put(out, std::uint64_t{0});
  std::uint64_t total = 0;
  RequestBlock block;
  while (stream.next(block)) {
    if (block.empty()) continue;
    put(out, static_cast<std::uint32_t>(block.count()));
    put_array(out, block.timestamp_s);
    put_array(out, block.object);
    put_array(out, block.size);
    put_array(out, block.location);
    total += block.count();
  }
  put(out, std::uint32_t{0});
  out.seekp(total_at);
  put(out, total);
  if (!out) {
    throw std::runtime_error("write_binary_stream: write failed " + path);
  }
}

std::unique_ptr<RequestStream> open_binary_stream(const std::string& path) {
  return std::make_unique<FileRequestStream>(path);
}

void write_csv(const LocationTrace& trace, const std::string& path) {
  util::CsvWriter w(path);
  w.row({"timestamp_s", "object", "size", "location"});
  for (const auto& r : trace.requests) {
    w.row({std::to_string(r.timestamp_s), std::to_string(r.object),
           std::to_string(r.size), std::to_string(r.location)});
  }
}

LocationTrace read_csv_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_csv_trace: cannot open " + path);
  LocationTrace t;
  std::string line, last_timestamp;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line_no == 1 || line.empty()) continue;  // header, blank lines
    const auto row = util::parse_csv_line(line);
    const auto where = [&](std::size_t column) {
      return path + ":" + std::to_string(line_no) + ":" +
             std::to_string(column);
    };
    if (row.size() < 4) {
      throw std::runtime_error(
          where(row.size() + 1) + ": expected 4 fields " +
          "(timestamp_s,object,size,location), got " +
          std::to_string(row.size()));
    }
    Request r;
    r.timestamp_s = parse_field<double>(row[0], where(1), "timestamp_s");
    r.object = parse_field<ObjectId>(row[1], where(2), "object");
    r.size = parse_field<Bytes>(row[2], where(3), "size");
    r.location = parse_field<std::uint16_t>(row[3], where(4), "location");
    // LocationTrace's contract: one location, ordered by finite timestamps.
    if (!std::isfinite(r.timestamp_s)) {
      throw std::runtime_error(where(1) + ": timestamp_s '" + row[0] +
                               "' is not finite");
    }
    if (t.requests.empty()) {
      t.location = r.location;
    } else if (r.timestamp_s < t.requests.back().timestamp_s) {
      throw std::runtime_error(where(1) + ": timestamp_s '" + row[0] +
                               "' precedes the previous row's '" +
                               last_timestamp + "'");
    } else if (r.location != t.location) {
      throw std::runtime_error(where(4) + ": location '" + row[3] +
                               "' differs from the first row's " +
                               std::to_string(t.location));
    }
    t.requests.push_back(r);
    last_timestamp = row[0];
  }
  return t;
}

}  // namespace starcdn::trace
