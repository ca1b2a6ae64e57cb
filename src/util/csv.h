// Minimal CSV writer/reader for bench outputs and trace interchange.
//
// The bench harness writes each regenerated table/figure both to stdout and
// to a CSV so results can be re-plotted; the trace module uses the reader in
// tests to round-trip generated traces.
#pragma once

#include <fstream>
#include <string>
#include <string_view>
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

}  // namespace starcdn::util
