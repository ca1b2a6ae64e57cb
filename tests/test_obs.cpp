// Observability-layer tests (DESIGN.md §11): run-report determinism across
// thread counts, the pinned counter names, EpochSeries golden CSV,
// chrome-trace JSON schema, and the SimConfig::Builder validations.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <span>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/run_report.h"
#include "core/scenario.h"
#include "core/simulator.h"
#include "obs/series.h"
#include "obs/tracer.h"
#include "trace/workload.h"
#include "util/geo.h"
#include "util/parallel.h"

namespace starcdn {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON reader, just enough to validate the
// tracer / RunReport exports without pulling in a dependency. Numbers are
// kept as raw text (the tests only check presence and a few exact values).
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  std::string scalar;  // number text or string value
  std::vector<Json> array;
  std::map<std::string, Json> object;

  [[nodiscard]] bool has(const std::string& key) const {
    return object.find(key) != object.end();
  }
  [[nodiscard]] const Json& at(const std::string& key) const {
    return object.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    const Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json error at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return Json{};
      default:
        return number();
    }
  }

  void literal(const std::string& word) {
    skip_ws();
    if (s_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
  }

  Json boolean() {
    Json v;
    v.type = Json::Type::kBool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  Json number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    Json v;
    v.type = Json::Type::kNumber;
    v.scalar = s_.substr(start, pos_ - start);
    return v;
  }

  Json string_value() {
    expect('"');
    Json v;
    v.type = Json::Type::kString;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': v.scalar += '\n'; break;
          case 't': v.scalar += '\t'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            pos_ += 4;  // validated, not decoded; tests use ASCII
            v.scalar += '?';
            break;
          default: v.scalar += e; break;
        }
      } else {
        v.scalar += c;
      }
    }
    return v;
  }

  Json array() {
    expect('[');
    Json v;
    v.type = Json::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.type = Json::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      const Json key = string_value();
      expect(':');
      v.object.emplace(key.scalar, value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Json parse_json(const std::string& text) { return JsonParser(text).parse(); }

// ---------------------------------------------------------------------------
// EpochSeries golden CSV.

TEST(EpochSeries, GoldenCsv) {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  const auto row = [&](std::span<std::uint64_t> values) {
    values[0] = a;
    values[1] = b;
  };
  obs::EpochSeries series({"a", "b"});

  series.advance_to(0, row);  // no-op: epoch 0 is already open
  a += 1;
  b += 10;
  series.advance_to(1, row);  // closes epoch 0
  a += 2;
  b += 20;
  series.advance_to(3, row);  // closes epochs 1 and 2 (2 is empty)
  a += 4;
  b += 40;
  series.finish(row);  // closes the partial epoch 3
  series.finish(row);  // idempotent

  const obs::SeriesTable t = series.table(15.0);
  ASSERT_EQ(t.rows(), 4u);
  EXPECT_EQ(t.at(3, 0), 7u);    // cumulative
  EXPECT_EQ(t.delta(2, 1), 0u);  // quiet epoch

  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_EQ(csv.str(),
            "epoch,t_end_s,a,b\n"
            "0,15.000000,1,10\n"
            "1,30.000000,2,20\n"
            "2,45.000000,0,0\n"
            "3,60.000000,4,40\n");
}

TEST(EpochSeries, DerivedColumnsAppendAtExport) {
  obs::EpochSeries series({"hits", "reqs"});
  series.finish([](std::span<std::uint64_t> values) {
    values[0] = 1;
    values[1] = 4;
  });

  const obs::SeriesTable t = series.table(15.0);
  const std::size_t hc = t.column("hits");
  const std::size_t rc = t.column("reqs");
  std::ostringstream csv;
  t.write_csv(csv, {{"hit_rate", [hc, rc](const obs::SeriesTable& tt,
                                          std::size_t row) {
                       const double d = static_cast<double>(tt.delta(row, rc));
                       return d == 0.0
                                  ? 0.0
                                  : static_cast<double>(tt.delta(row, hc)) / d;
                     }}});
  EXPECT_EQ(csv.str(),
            "epoch,t_end_s,hits,reqs,hit_rate\n"
            "0,15.000000,1,4,0.250000\n");
}

// ---------------------------------------------------------------------------
// RunReport: the exported counter names and the series CSV files.

// perfbench and RunReport JSON consumers read counters by name.
TEST(RunReport, CounterNamesAndOrderArePinned) {
  const std::vector<std::string> pinned = {
      "requests",         "local_hits",
      "routed_hits",      "relay_west_hits",
      "relay_east_hits",  "misses",
      "unreachable",      "transient_misses",
      "handovers",        "bytes_requested",
      "bytes_hit",        "uplink_bytes",
      "isl_bytes",        "prefetch_bytes",
      "relay_west_only_requests", "relay_east_only_requests",
      "relay_both_requests",      "relay_west_only_bytes",
      "relay_east_only_bytes",    "relay_both_bytes"};
  ASSERT_EQ(core::kCounters.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(core::kCounters[i].name, pinned[i]) << "counter " << i;
  }

  const orbit::Constellation shell{orbit::WalkerParams{}};
  const sched::LinkSchedule schedule(shell, util::paper_cities(),
                                     util::Seconds{60.0});
  core::Simulator sim(
      shell, schedule,
      core::SimConfig::Builder{}
          .variants({core::Variant::kStarCdn, core::Variant::kVanillaLru})
          .build());
  const core::RunReport report = sim.finish();
  const auto names = [](const auto& pairs) {
    std::vector<std::string> out;
    for (const auto& [name, value] : pairs) out.push_back(name);
    return out;
  };
  EXPECT_EQ(names(report.totals), pinned);
  const std::vector<std::string> series_columns(
      pinned.begin(),
      pinned.begin() + static_cast<std::ptrdiff_t>(core::kSeriesColumns));
  ASSERT_EQ(report.variants.size(), 2u);
  for (const core::VariantReport& vr : report.variants) {
    EXPECT_EQ(names(vr.counters), pinned) << vr.name;
    EXPECT_EQ(vr.series.columns, series_columns) << vr.name;
  }
}

TEST(RunReport, SeriesCsvUnderMissingDirectoryThrowsNamingPath) {
  core::RunReport report;
  core::VariantReport vr;
  vr.name = "StarCDN";
  vr.series.columns = {"requests"};
  vr.series.epochs = {0};
  vr.series.values = {5};
  report.variants.push_back(vr);

  const std::filesystem::path missing =
      std::filesystem::temp_directory_path() / "starcdn-no-such-dir";
  ASSERT_FALSE(std::filesystem::exists(missing));
  const std::string prefix = (missing / "series_").string();
  try {
    (void)report.write_series_csv_files(prefix);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(prefix + "StarCDN.csv"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Tracer: chrome://tracing JSON object-format schema.

TEST(Tracer, ChromeTraceSchema) {
  obs::Tracer tracer;
  tracer.complete("phase_a", "core", 10, 25,
                  {obs::arg("requests", std::uint64_t{42})});
  tracer.instant("epoch", "sim", {obs::arg("idx", std::uint64_t{7})});
  {
    obs::TraceSpan span(&tracer, "scoped", "core");
  }
  EXPECT_EQ(tracer.events(), 3u);

  std::ostringstream os;
  tracer.write_json(os);
  const Json root = parse_json(os.str());
  ASSERT_EQ(root.type, Json::Type::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  EXPECT_EQ(root.at("displayTimeUnit").scalar, "ms");

  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArray);
  ASSERT_EQ(events.array.size(), 3u);
  for (const Json& e : events.array) {
    ASSERT_EQ(e.type, Json::Type::kObject);
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.has("cat"));
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
    ASSERT_TRUE(e.has("ph"));
    const std::string ph = e.at("ph").scalar;
    EXPECT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    if (ph == "X") {
      EXPECT_TRUE(e.has("dur"));
    }
  }

  const Json& first = events.array[0];
  EXPECT_EQ(first.at("name").scalar, "phase_a");
  EXPECT_EQ(first.at("ts").scalar, "10");
  EXPECT_EQ(first.at("dur").scalar, "25");
  EXPECT_EQ(first.at("args").at("requests").scalar, "42");

  const Json& second = events.array[1];
  EXPECT_EQ(second.at("ph").scalar, "i");
  EXPECT_EQ(second.at("args").at("idx").scalar, "7");
}

TEST(Tracer, NullTracerIsSafe) {
  obs::set_tracer(nullptr);
  EXPECT_EQ(obs::tracer(), nullptr);
  // Spans on a null tracer are no-ops (the hot wiring relies on this).
  obs::TraceSpan span(nullptr, "noop", "core");
  span.set_args({obs::arg("k", "v")});
}

// ---------------------------------------------------------------------------
// Simulator-level fixture: a small scenario shared by the determinism,
// series and summary tests.

class ObsSimTest : public ::testing::Test {
 protected:
  /// Built on first use and shared by every test.
  static const core::Scenario::Built& scenario() {
    static const core::Scenario::Built built = [] {
      core::Scenario recipe;
      recipe.workload.object_count = 10'000;
      recipe.workload.requests_per_weight = 4'000;
      recipe.workload.duration_s = 1 * util::kHour.value();
      return recipe.build();
    }();
    return built;
  }

  static core::SimConfig small_config() {
    return core::SimConfig::Builder{}
        .cache_capacity(util::mib(128))
        .buckets(4)
        .variants({core::Variant::kStarCdn, core::Variant::kVanillaLru,
                   core::Variant::kStatic})
        .build();
  }

  static core::RunReport run_report(const core::SimConfig& cfg) {
    static const auto requests =
        trace::collect(*scenario().model->generate_stream());
    core::Simulator sim(*scenario().shell, *scenario().schedule, cfg);
    trace::VectorStream stream(requests);
    sim.run(stream);
    return sim.finish();
  }
};

void expect_reports_bitwise_equal(const core::RunReport& a,
                                  const core::RunReport& b) {
  ASSERT_EQ(a.variants.size(), b.variants.size());
  ASSERT_EQ(a.totals, b.totals);
  for (std::size_t i = 0; i < a.variants.size(); ++i) {
    const core::VariantReport& va = a.variants[i];
    const core::VariantReport& vb = b.variants[i];
    EXPECT_EQ(va.variant, vb.variant);
    EXPECT_EQ(va.counters, vb.counters) << "variant " << va.name;
    EXPECT_EQ(va.series.columns, vb.series.columns);
    EXPECT_EQ(va.series.epochs, vb.series.epochs) << "variant " << va.name;
    EXPECT_EQ(va.series.values, vb.series.values) << "variant " << va.name;
    EXPECT_EQ(va.metrics.latency_ms.samples(), vb.metrics.latency_ms.samples())
        << "variant " << va.name;
  }
}

// The run report (counters, totals, series, latency samples) is bitwise
// identical for any STARCDN_THREADS value.
TEST_F(ObsSimTest, RegistryBitwiseIdenticalAcrossThreadCounts) {
  util::set_parallel_threads(1);
  const core::RunReport baseline = run_report(small_config());
  EXPECT_GT(baseline.totals.size(), 0u);
  for (const int threads : {2, 4, 8}) {
    util::set_parallel_threads(threads);
    const core::RunReport r = run_report(small_config());
    expect_reports_bitwise_equal(baseline, r);
  }
  util::set_parallel_threads(0);
}

TEST_F(ObsSimTest, SeriesMatchesFinalTotalsAndTracksHandovers) {
  const core::RunReport report = run_report(small_config());
  for (const core::VariantReport& vr : report.variants) {
    ASSERT_GT(vr.series.rows(), 0u) << vr.name;
    const std::size_t req = vr.series.column("requests");
    const std::size_t hand = vr.series.column("handovers");
    ASSERT_NE(req, std::string::npos);
    ASSERT_NE(hand, std::string::npos);
    // Cumulative last row == end-of-run totals: one source of truth.
    EXPECT_EQ(vr.series.at(vr.series.rows() - 1, req), vr.metrics.requests);
    EXPECT_EQ(vr.series.at(vr.series.rows() - 1, hand),
              vr.metrics.handovers);
  }
  // LEO first-contact satellites change every few epochs; the static
  // baseline never hands over by construction.
  EXPECT_GT(report.variant(core::Variant::kStarCdn).metrics.handovers, 0u);
  EXPECT_EQ(report.variant(core::Variant::kStatic).metrics.handovers, 0u);
}

// finish() checks conservation on every run; this run exercises every
// counter the identities relate: transient misses, relay hits both ways.
TEST_F(ObsSimTest, ConservationHoldsOnARealRun) {
  const auto cfg = core::SimConfig::Builder{}
                       .cache_capacity(util::mib(128))
                       .buckets(4)
                       .transient_failures(0.05, util::Seconds{300.0})
                       .variants({core::Variant::kStarCdn,
                                  core::Variant::kRelayOnly,
                                  core::Variant::kVanillaLru})
                       .build();
  const core::RunReport report = run_report(cfg);
  for (const core::VariantReport& vr : report.variants) {
    EXPECT_NO_THROW(core::check_conservation(vr.metrics, vr.name)) << vr.name;
  }
  const core::VariantMetrics& m =
      report.variant(core::Variant::kStarCdn).metrics;
  EXPECT_GT(m.transient_misses, 0u);
  EXPECT_GT(m.relay_west_hits, 0u);
  EXPECT_GT(m.relay_east_hits, 0u);
}

TEST_F(ObsSimTest, RunReportJsonIsWellFormed) {
  const core::RunReport report = run_report(small_config());
  std::ostringstream os;
  report.write_json(os);
  const Json root = parse_json(os.str());
  ASSERT_TRUE(root.has("variants"));
  const Json& variants = root.at("variants");
  ASSERT_EQ(variants.type, Json::Type::kObject);
  ASSERT_EQ(variants.object.size(), report.variants.size());
  for (const core::VariantReport& vr : report.variants) {
    ASSERT_TRUE(variants.has(vr.name)) << vr.name;
    const Json& v = variants.at(vr.name);
    EXPECT_TRUE(v.has("counters"));
    EXPECT_TRUE(v.has("summary"));
    EXPECT_TRUE(v.has("series"));
    EXPECT_EQ(v.at("counters").at("requests").scalar,
              std::to_string(vr.metrics.requests));
  }
  ASSERT_TRUE(root.has("totals"));
  EXPECT_TRUE(root.at("totals").has("requests"));
}

TEST_F(ObsSimTest, SummaryNamesVariantsAndRates) {
  const core::RunReport report = run_report(small_config());
  std::ostringstream summary_out;
  report.write_summary(summary_out);
  EXPECT_NE(summary_out.str().find("StarCDN"), std::string::npos);
  EXPECT_NE(summary_out.str().find("req hit rate"), std::string::npos);
  EXPECT_GT(report.variant(core::Variant::kStarCdn).metrics.requests, 0u);
}

// ---------------------------------------------------------------------------
// SimConfig::Builder validation.

TEST(SimConfigBuilder, RejectsNonSquareBuckets) {
  EXPECT_THROW((void)core::SimConfig::Builder{}.buckets(5).build(),
               std::invalid_argument);
}

TEST(SimConfigBuilder, RejectsZeroCapacity) {
  EXPECT_THROW(
      (void)core::SimConfig::Builder{}.cache_capacity(util::Bytes{0}).build(),
      std::invalid_argument);
}

TEST(SimConfigBuilder, RejectsTransientProbabilityOutOfRange) {
  EXPECT_THROW((void)core::SimConfig::Builder{}
                   .transient_failures(1.5, util::Seconds{300.0})
                   .build(),
               std::invalid_argument);
  EXPECT_THROW((void)core::SimConfig::Builder{}
                   .transient_failures(0.1, util::Seconds{0.0})
                   .build(),
               std::invalid_argument);
  // Non-finite values must throw too, naming the field: NaN slips past a
  // plain range check, and a non-finite window reaches `t / window` in the
  // outage model.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> cases[] = {
      {nan, 300.0}, {0.1, nan}, {0.1, inf}, {0.1, -inf}};
  for (const auto& [prob, window] : cases) {
    try {
      (void)core::SimConfig::Builder{}
          .transient_failures(prob, util::Seconds{window})
          .build();
      ADD_FAILURE() << "accepted prob=" << prob << " window=" << window;
    } catch (const std::invalid_argument& e) {
      const std::string field = std::isnan(prob) ? "transient_down_prob"
                                                 : "transient_window";
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(SimConfigBuilder, FluentSettersLandInConfig) {
  const auto cfg = core::SimConfig::Builder{}
                       .cache_capacity(util::mib(64))
                       .buckets(9)
                       .seed(77)
                       .sample_latency(false)
                       .variant(core::Variant::kStarCdn)
                       .build();
  EXPECT_EQ(cfg.cache_capacity, util::mib(64));
  EXPECT_EQ(cfg.buckets, 9);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_FALSE(cfg.sample_latency);
  ASSERT_EQ(cfg.variants.size(), 1u);
  EXPECT_EQ(cfg.variants[0], core::Variant::kStarCdn);
}

}  // namespace
}  // namespace starcdn
