// Minimal CSV writer/reader for bench outputs and trace interchange.
//
// The bench harness writes each regenerated table/figure both to stdout and
// to a CSV so results can be re-plotted; the trace module uses the reader in
// tests to round-trip generated traces.
#pragma once

#include <charconv>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace starcdn::util {

/// Streaming CSV writer. Quotes fields containing separators/quotes.
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path);

  /// Write one row; fields are escaped as needed.
  void row(const std::vector<std::string>& fields);

 private:
  std::ofstream out_;
};

/// Parse a single CSV line into fields (RFC-4180 quoting).
[[nodiscard]] std::vector<std::string> parse_csv_line(std::string_view line);

/// Read an entire CSV file; returns rows of fields. Throws on open failure.
[[nodiscard]] std::vector<std::vector<std::string>> read_csv(
    const std::string& path);

/// Parse all of `text` as a T by std::from_chars rules (no leading '+' or
/// whitespace; a double may spell inf or nan). Returns nullptr on success,
/// else why `text` was rejected: "is not a number" or "is out of range".
/// The one number parser behind CSV fields and command-line flags.
template <typename T>
[[nodiscard]] const char* parse_number(std::string_view text, T& out) noexcept {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec == std::errc::result_out_of_range) return "is out of range";
  if (ec != std::errc{} || ptr != end) return "is not a number";
  return nullptr;
}

}  // namespace starcdn::util
