// Shared scaffolding for the paper-reproduction bench binaries.
//
// Every bench regenerates one table or figure of the StarCDN paper: it
// prints the same rows/series the paper reports (plus a CSV dump under
// bench_results/) at a reduced, single-machine scale. EXPERIMENTS.md maps
// each output to the paper's numbers.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/run_report.h"
#include "core/scenario.h"
#include "core/simulator.h"
#include "obs/tracer.h"
#include "orbit/constellation.h"
#include "sched/scheduler.h"
#include "trace/workload.h"
#include "util/csv.h"
#include "util/geo.h"
#include "util/mem.h"
#include "util/parallel.h"
#include "util/table.h"

namespace starcdn::bench {

/// Wall-clock stopwatch for reporting bench phase timings.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}
  void reset() noexcept { start_ = Clock::now(); }
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Directory for CSV dumps; created on demand, failures ignored.
inline std::string results_dir() {
  const std::string dir = "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

inline void banner(const std::string& what, const std::string& paper_ref) {
  std::cout << "\n################################################\n"
            << "# StarCDN reproduction: " << what << "\n"
            << "# Paper reference: " << paper_ref << "\n"
            << "################################################\n";
}

/// Capacity axis used for the hit-rate curves. The paper sweeps 10-100 GB
/// against ~430 GB/day of per-satellite traffic; we sweep the same
/// *pressure ratios* against our reduced per-satellite traffic, so the
/// curves cover the same regime (see EXPERIMENTS.md, "scale mapping").
inline const std::vector<std::pair<std::string, util::Bytes>>&
capacity_axis() {
  static const std::vector<std::pair<std::string, util::Bytes>> axis = {
      {"10", util::gib(1)},  {"20", util::gib(2)},  {"40", util::gib(4)},
      {"60", util::gib(8)},  {"80", util::gib(16)}, {"100", util::gib(32)},
  };
  return axis;
}

/// Uniform CLI + lifecycle shared by every bench binary. Replaces the
/// copy-pasted banner / scenario / results-dir setup each bench used to
/// carry. Flags (all optional; an unknown flag, or a numeric value that
/// does not parse in full or is out of range, exits 2 with usage):
///
///   --threads=N    worker threads (default: STARCDN_THREADS env/cores)
///   --seed=N       workload + simulator seed (default: repo defaults)
///   --out=DIR      CSV output directory (default: bench_results)
///   --epochs=N     truncate the scenario to N scheduler epochs (15 s
///                  each) — the fast path for smoke tests and CI
///   --scale=F      workload request-volume scale factor
///   --trace=FILE   record a chrome://tracing JSON timeline to FILE
///   --series=PFX   write per-variant epoch-series CSVs under
///                  DIR/PFX<tag>_<variant>.csv from every replay
///   --rss-budget-mb=N  assert peak RSS <= N MB at exit (exit code 3 on
///                  breach); an rss_report.csv lands in --out either way
///
/// The Harness installs the process tracer for --trace and writes the
/// JSON on destruction, so `Harness h(argc, argv, ...)` at the top of
/// main() is the whole integration.
class Harness {
 public:
  struct Options {
    int threads = 0;
    std::uint64_t seed = 0;  // 0 = keep per-component defaults
    std::string out_dir = "bench_results";
    std::size_t epochs = 0;  // 0 = full-day scenario
    double scale = 1.0;
    std::string trace_path;
    std::string series_prefix;
    double rss_budget_mb = 0.0;  // 0 = report only, no assertion
  };

  Harness(int argc, char** argv, const std::string& what,
          const std::string& paper_ref)
      : what_(what) {
    parse(argc, argv);
    if (opts_.threads > 0) util::set_parallel_threads(opts_.threads);
    if (!opts_.trace_path.empty()) {
      tracer_ = std::make_unique<obs::Tracer>();
      obs::set_tracer(tracer_.get());
    }
    banner(what, paper_ref);
    std::printf("harness: threads=%d seed=%llu out=%s%s\n",
                util::parallel_threads(),
                static_cast<unsigned long long>(opts_.seed),
                opts_.out_dir.c_str(),
                opts_.epochs != 0 ? " (truncated scenario)" : "");
  }

  ~Harness() {
    if (tracer_) {
      obs::set_tracer(nullptr);
      if (tracer_->write_json(opts_.trace_path)) {
        std::printf("trace: %zu events -> %s (open in ui.perfetto.dev)\n",
                    tracer_->events(), opts_.trace_path.c_str());
      }
    }
    report_rss();
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] const Options& opts() const noexcept { return opts_; }

  /// Output directory (created on demand; failures ignored).
  [[nodiscard]] const std::string& out_dir() const {
    std::error_code ec;
    std::filesystem::create_directories(opts_.out_dir, ec);
    return opts_.out_dir;
  }
  [[nodiscard]] std::string out_path(const std::string& file) const {
    return out_dir() + "/" + file;
  }

  /// `s` shaped by --epochs / --scale / --seed: the horizon, the request
  /// volume and the workload seed. Benches set their own fields first and
  /// pass the recipe through here, so every bench honours the three flags.
  [[nodiscard]] core::Scenario shaped(core::Scenario s) const {
    if (opts_.epochs != 0) {
      s.workload.duration_s = 15.0 * static_cast<double>(opts_.epochs);
    }
    s.workload.requests_per_weight = static_cast<std::size_t>(
        static_cast<double>(s.workload.requests_per_weight) * opts_.scale);
    if (opts_.seed != 0) s.workload.seed = opts_.seed;
    return s;
  }

  /// The shared evaluation recipe: the paper's nine cities, the 72x18
  /// shell and a video day, shaped by the flags. Benches change fields (a
  /// fail fraction, say) before building it.
  [[nodiscard]] core::Scenario recipe() const { return shaped({}); }

  /// The shared scenario: `r` built on the first call and reused by every
  /// later one, with its scenario: line printed. Built lazily so
  /// geometry-only benches never pay for trace generation. Passing a
  /// recipe after the first call throws std::logic_error.
  const core::Scenario::Built& scenario(const core::Scenario& r) {
    if (scenario_) throw std::logic_error("Harness: scenario already built");
    scenario_ = std::make_unique<core::Scenario::Built>(r.build());
    std::printf("scenario: %llu requests (streamed) over %zu cities, "
                "%zu epochs\n",
                static_cast<unsigned long long>(
                    scenario_->model->total_request_count()),
                r.cities->size(), scenario_->schedule->epochs());
    return *scenario_;
  }
  const core::Scenario::Built& scenario() {
    return scenario_ ? *scenario_ : scenario(recipe());
  }

  /// Bench-chosen scenario scale, honored unless --scale was passed.
  /// Call before the first scenario() access.
  Harness& default_scale(double s) {
    if (!scale_set_) opts_.scale = s;
    return *this;
  }

  /// Every bench replay: replay `stream` over `s`'s shell and schedule with
  /// `variants` and --seed applied to `cfg`, finish() into a RunReport, and
  /// honor --series by writing per-variant epoch CSVs tagged with `tag`
  /// (unique per call; sweep points run at once).
  [[nodiscard]] core::RunReport simulate(
      const core::Scenario::Built& s, trace::RequestStream& stream,
      core::SimConfig cfg, const std::vector<core::Variant>& variants,
      const std::string& tag) {
    if (opts_.seed != 0) cfg.seed = opts_.seed;
    cfg.variants = variants;
    core::Simulator sim(*s.shell, *s.schedule, std::move(cfg));
    sim.run(stream);
    core::RunReport report = sim.finish();
    if (!opts_.series_prefix.empty()) {
      const auto paths = report.write_series_csv_files(
          out_dir() + "/" + opts_.series_prefix + tag +
          (tag.empty() ? "" : "_"));
      for (const auto& p : paths) std::printf("series: %s\n", p.c_str());
    }
    return report;
  }

  /// The same over the shared scenario's streamed trace. Call scenario()
  /// before a sweep: building it is not thread-safe.
  [[nodiscard]] core::RunReport simulate(
      core::SimConfig cfg, const std::vector<core::Variant>& variants,
      const std::string& tag) {
    const core::Scenario::Built& s = scenario();
    return simulate(s, *s.model->generate_stream(), std::move(cfg), variants,
                    tag);
  }

 private:
  void parse(int argc, char** argv) {
    const auto usage_exit = [&](const std::string& why) {
      std::fprintf(stderr,
                   "%s\nusage: %s [--threads=N] [--seed=N] [--out=DIR] "
                   "[--epochs=N] [--scale=F] [--trace=FILE] "
                   "[--series=PREFIX] [--rss-budget-mb=N]\n",
                   why.c_str(), argv[0]);
      std::exit(2);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      std::string flag, v;
      const auto eat = [&](const char* name) {
        const std::string prefix = std::string(name) + "=";
        if (a.rfind(prefix, 0) != 0) return false;
        flag = name;
        v = a.substr(prefix.size());
        return true;
      };
      // Parses the whole value into `into`, which must be finite and
      // non-negative, or positive when `positive`.
      const auto number = [&](auto& into, bool positive) {
        const char* why = util::parse_number(v, into);
        const double x = static_cast<double>(into);
        if (why == nullptr && !std::isfinite(x)) why = "is not finite";
        if (why == nullptr && positive && !(x > 0.0)) why = "is not positive";
        if (why == nullptr && x < 0.0) why = "is negative";
        if (why != nullptr) {
          usage_exit("bad value for " + flag + ": '" + v + "' " + why);
        }
      };
      if (eat("--threads")) {
        opts_.threads = util::parse_thread_count(v.c_str());
        if (opts_.threads == 0) {
          usage_exit("bad value for --threads: '" + v +
                     "' is not a whole number in [1, 4096]");
        }
      } else if (eat("--seed")) {
        number(opts_.seed, false);
      } else if (eat("--out")) {
        opts_.out_dir = v;
      } else if (eat("--epochs")) {
        number(opts_.epochs, true);
      } else if (eat("--scale")) {
        number(opts_.scale, true);
        scale_set_ = true;
      } else if (eat("--trace")) {
        opts_.trace_path = v;
      } else if (eat("--series")) {
        opts_.series_prefix = v;
      } else if (eat("--rss-budget-mb")) {
        number(opts_.rss_budget_mb, false);
      } else {
        usage_exit("unknown flag " + a);
      }
    }
  }

  /// Print peak RSS, append it to --out/rss_report.csv, and enforce the
  /// --rss-budget-mb ceiling (exit 3 on breach). Runs from the destructor
  /// so every bench gets the paper-scale memory gate for free.
  void report_rss() {
    const std::uint64_t peak = util::peak_rss_bytes();
    if (peak == 0) return;  // platform without RUSAGE maxrss support
    const double peak_mb = static_cast<double>(peak) / (1024.0 * 1024.0);
    if (opts_.rss_budget_mb > 0.0) {
      std::printf("rss: peak=%.1f MB budget=%.1f MB\n", peak_mb,
                  opts_.rss_budget_mb);
    } else {
      std::printf("rss: peak=%.1f MB\n", peak_mb);
    }
    std::ofstream report(out_path("rss_report.csv"), std::ios::app);
    if (report) {
      report << what_ << ',' << peak_mb << ',' << opts_.rss_budget_mb
             << '\n';
    }
    if (opts_.rss_budget_mb > 0.0 && peak_mb > opts_.rss_budget_mb) {
      std::fprintf(stderr, "rss: peak %.1f MB exceeds budget %.1f MB\n",
                   peak_mb, opts_.rss_budget_mb);
      std::exit(3);
    }
  }

  Options opts_;
  std::string what_;
  bool scale_set_ = false;
  std::unique_ptr<core::Scenario::Built> scenario_;
  std::unique_ptr<obs::Tracer> tracer_;
};

/// Run `point_fn(label, capacity)` for every capacity_axis() entry and
/// return the results in axis order. Points run concurrently (each one
/// populates its own Simulator and caches, so they share nothing mutable)
/// on the global pool; results land in pre-sized per-point slots, keeping
/// the sweep's output identical to a serial run. The per-point wall time
/// of the whole sweep is printed for the bench log.
template <typename Fn>
auto sweep_capacity_axis(const char* what, Fn&& point_fn) {
  const auto& axis = capacity_axis();
  using Result = decltype(point_fn(std::string{}, util::Bytes{}));
  std::vector<Result> out(axis.size());
  WallTimer timer;
  util::parallel_for(axis.size(), [&](std::size_t i) {
    out[i] = point_fn(axis[i].first, axis[i].second);
  });
  std::printf("sweep[%s]: %zu points in %.2f s (%d thread%s)\n", what,
              axis.size(), timer.seconds(), util::parallel_threads(),
              util::parallel_threads() == 1 ? "" : "s");
  return out;
}

}  // namespace starcdn::bench
