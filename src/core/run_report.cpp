#include "core/run_report.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/table.h"
#include "util/units.h"

namespace starcdn::core {

std::vector<obs::SeriesTable::Derived> core_series_derived(
    const obs::SeriesTable& table) {
  const std::size_t req = table.column("requests");
  const std::size_t local = table.column("local_hits");
  const std::size_t routed = table.column("routed_hits");
  const std::size_t west = table.column("relay_west_hits");
  const std::size_t east = table.column("relay_east_hits");
  const std::size_t breq = table.column("bytes_requested");
  const std::size_t bhit = table.column("bytes_hit");
  const std::size_t up = table.column("uplink_bytes");
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  if (req == npos || breq == npos) return {};

  std::vector<obs::SeriesTable::Derived> derived;
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den != 0 ? static_cast<double>(num) / static_cast<double>(den)
                    : 0.0;
  };
  if (local != npos && routed != npos && west != npos && east != npos) {
    derived.push_back(
        {"request_hit_rate", [=](const obs::SeriesTable& t, std::size_t row) {
           const std::uint64_t hits = t.delta(row, local) +
                                      t.delta(row, routed) +
                                      t.delta(row, west) + t.delta(row, east);
           return ratio(hits, t.delta(row, req));
         }});
  }
  if (bhit != npos) {
    derived.push_back(
        {"byte_hit_rate", [=](const obs::SeriesTable& t, std::size_t row) {
           return ratio(t.delta(row, bhit), t.delta(row, breq));
         }});
  }
  if (up != npos) {
    derived.push_back(
        {"normalized_uplink",
         [=](const obs::SeriesTable& t, std::size_t row) {
           return ratio(t.delta(row, up), t.delta(row, breq));
         }});
  }
  return derived;
}

const VariantReport& RunReport::variant(Variant v) const {
  for (const auto& vr : variants) {
    if (vr.variant == v) return vr;
  }
  throw std::out_of_range(std::string("RunReport::variant: ") + to_string(v) +
                          " not in report");
}

void RunReport::write_series_csv(Variant v, std::ostream& os) const {
  const VariantReport& vr = variant(v);
  vr.series.write_csv(os, core_series_derived(vr.series));
}

std::vector<std::string> RunReport::write_series_csv_files(
    const std::string& prefix) const {
  std::vector<std::string> written;
  for (const auto& vr : variants) {
    if (vr.series.rows() == 0) continue;
    const std::string path = prefix + vr.name + ".csv";
    std::ofstream out(path);
    if (out) vr.series.write_csv(out, core_series_derived(vr.series));
    if (!out) {
      throw std::runtime_error("RunReport: cannot write series CSV " + path);
    }
    written.push_back(path);
  }
  return written;
}

void RunReport::write_summary(std::ostream& os) const {
  util::TextTable table({"variant", "requests", "req hit rate",
                         "byte hit rate", "norm uplink", "p50 ms", "p95 ms",
                         "ISL TB", "handovers"});
  for (const auto& vr : variants) {
    const VariantMetrics& m = vr.metrics;
    table.add_row(
        {vr.name, std::to_string(m.requests),
         util::fmt_pct(m.request_hit_rate()),
         util::fmt_pct(m.byte_hit_rate()), util::fmt(m.normalized_uplink(), 3),
         util::fmt(m.latency_ms.quantile(0.50), 1),
         util::fmt(m.latency_ms.quantile(0.95), 1),
         util::fmt(static_cast<double>(m.isl_bytes) / 1e12, 2),
         std::to_string(m.handovers)});
  }
  table.print(os, "run summary");
}

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void RunReport::write_json(std::ostream& os) const {
  os << "{\"epoch_seconds\":" << epoch_seconds << ",\"seed\":" << seed
     << ",\"variants\":{";
  bool first = true;
  for (const auto& vr : variants) {
    if (!first) os << ',';
    first = false;
    json_string(os, vr.name);
    os << ":{\"counters\":{";
    bool first_c = true;
    for (const auto& [name, value] : vr.counters) {
      if (!first_c) os << ',';
      first_c = false;
      json_string(os, name);
      os << ':' << value;
    }
    const VariantMetrics& m = vr.metrics;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "},\"summary\":{\"request_hit_rate\":%.6f,"
                  "\"byte_hit_rate\":%.6f,\"normalized_uplink\":%.6f,"
                  "\"latency_p50_ms\":%.3f,\"latency_p95_ms\":%.3f}",
                  m.request_hit_rate(), m.byte_hit_rate(),
                  m.normalized_uplink(), m.latency_ms.quantile(0.50),
                  m.latency_ms.quantile(0.95));
    os << buf;
    if (vr.series.rows() != 0) {
      os << ",\"series\":";
      vr.series.write_json(os);
    }
    os << '}';
  }
  os << "},\"totals\":{";
  bool first_t = true;
  for (const auto& [name, value] : totals) {
    if (!first_t) os << ',';
    first_t = false;
    json_string(os, name);
    os << ':' << value;
  }
  os << "}}";
}

}  // namespace starcdn::core
