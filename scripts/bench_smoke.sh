#!/usr/bin/env bash
# Bench smoke for CI (and local use): proves the observability layer works
# end-to-end and stays cheap.
#
#   1. Runs one figure bench (Table 3) truncated via --epochs, with the
#      epoch time-series CSVs and the chrome://tracing JSON enabled, and
#      sanity-checks the artifacts (CSV header, trace JSON parses and
#      contains traceEvents).
#   2. Runs the streamed-replay RSS gate: bench_stream_scale generates and
#      replays the video trace in SoA chunks without materializing it and
#      must stay under ${SMOKE_STREAM_RSS_MB:-1500} MB peak RSS. CI raises
#      SMOKE_STREAM_SCALE to paper scale (>=100M requests); the default
#      keeps local runs quick. The rss_report.csv lands in the artifacts.
#   3. Builds bench_micro twice — default (profiling compiled out) and
#      -DSTARCDN_PROF=ON — and fails if the profiled build's geometric
#      mean slowdown across the micro benchmarks exceeds 5%.
#
# Usage: scripts/bench_smoke.sh [build-dir] [prof-build-dir]
# Artifacts land in ${SMOKE_OUT:-smoke_artifacts}.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build-smoke}
BUILD_PROF=${2:-build-smoke-prof}
OUT=${SMOKE_OUT:-smoke_artifacts}
OVERHEAD_LIMIT=${SMOKE_OVERHEAD_LIMIT:-1.05}

configure_and_build() {
  local dir=$1
  shift
  if [ ! -f "$dir/CMakeCache.txt" ]; then
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release "$@"
  fi
  cmake --build "$dir" -j "$(nproc)" \
    --target bench_table3_relay_availability bench_stream_scale bench_micro
}

echo "== build (default: profiling compiled out) =="
configure_and_build "$BUILD"
echo "== build (STARCDN_PROF=ON) =="
configure_and_build "$BUILD_PROF" -DSTARCDN_PROF=ON

mkdir -p "$OUT"

echo "== figure bench end-to-end (Table 3, truncated) =="
"$BUILD/bench/bench_table3_relay_availability" \
  --epochs=40 --scale=0.05 --threads=2 \
  --out="$OUT" --series=smoke_ --trace="$OUT/table3_trace.json"

echo "== artifact checks =="
series_count=0
for f in "$OUT"/smoke_table3_*.csv; do
  [ -s "$f" ] || { echo "FAIL: empty series CSV $f"; exit 1; }
  head -1 "$f" | grep -q '^epoch,t_end_s,requests,' ||
    { echo "FAIL: bad series header in $f"; exit 1; }
  [ "$(wc -l <"$f")" -gt 2 ] || { echo "FAIL: too few rows in $f"; exit 1; }
  series_count=$((series_count + 1))
done
[ "$series_count" -ge 3 ] ||
  { echo "FAIL: expected >=3 series CSVs, got $series_count"; exit 1; }
python3 - "$OUT/table3_trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert trace.get("displayTimeUnit") == "ms", "missing displayTimeUnit"
assert len(events) > 10, f"too few trace events: {len(events)}"
phases = {e["ph"] for e in events}
assert phases <= {"X", "i"}, f"unexpected phases: {phases}"
names = {e["name"] for e in events}
for expected in ("Simulator::run", "epoch"):
    assert expected in names, f"missing event {expected}: {sorted(names)[:10]}"
print(f"trace OK: {len(events)} events, phases {sorted(phases)}")
EOF
echo "series CSVs OK ($series_count files)"

echo "== streamed replay + RSS budget gate =="
# Request count is duration-independent, so --epochs only trims the link
# schedule build; --scale=60 is >=100M requests (CI's paper-scale gate).
STREAM_SCALE=${SMOKE_STREAM_SCALE:-3}
STREAM_RSS_MB=${SMOKE_STREAM_RSS_MB:-1500}
"$BUILD/bench/bench_stream_scale" \
  --scale="$STREAM_SCALE" --epochs=480 --threads=2 \
  --rss-budget-mb="$STREAM_RSS_MB" --out="$OUT"
grep -q '^paper-scale streamed replay' "$OUT/rss_report.csv" ||
  { echo "FAIL: missing streamed-replay row in rss_report.csv"; exit 1; }
echo "streamed replay OK (scale=$STREAM_SCALE, budget ${STREAM_RSS_MB} MB)"

echo "== profiler overhead gate (bench_micro, limit ${OVERHEAD_LIMIT}x) =="
run_micro() {
  "$1/bench/bench_micro" \
    --benchmark_min_time=0.02 --benchmark_repetitions=5 \
    --benchmark_format=json --benchmark_out="$2" \
    --benchmark_out_format=json >/dev/null
}
run_micro "$BUILD" "$OUT/micro_base.json"
run_micro "$BUILD_PROF" "$OUT/micro_prof.json"
python3 - "$OUT/micro_base.json" "$OUT/micro_prof.json" "$OVERHEAD_LIMIT" <<'EOF'
import json, math, sys

def best_times(path):
    # Min across repetitions: the standard noise-robust estimator for
    # microbenchmarks (ambient load only ever inflates a sample).
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data["benchmarks"]:
        if b.get("run_type") == "iteration":
            name = b["run_name"]
            out[name] = min(out.get(name, float("inf")), b["real_time"])
    return out

base, prof = best_times(sys.argv[1]), best_times(sys.argv[2])
limit = float(sys.argv[3])
# BM_ObsProfScope *measures the scope itself* (compiled out in the base
# build), so it is the direct cost, not overhead on a workload — excluded
# from the gate, which asks "do compiled-in timers slow real hot paths?".
common = sorted(n for n in set(base) & set(prof)
                if "BM_ObsProfScope" not in n)
assert common, "no common benchmarks between the two builds"
ratios = []
for name in common:
    r = prof[name] / base[name]
    ratios.append(r)
    flag = "  <-- slow" if r > limit else ""
    print(f"  {name:48s} {base[name]:10.1f} -> {prof[name]:10.1f} ns "
          f"({r:5.2f}x){flag}")
geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
print(f"geomean slowdown with STARCDN_PROF=ON: {geomean:.3f}x "
      f"(limit {limit:.2f}x)")
if geomean > limit:
    sys.exit(f"FAIL: profiler overhead {geomean:.3f}x exceeds {limit:.2f}x")
EOF

echo "bench smoke OK; artifacts in $OUT/"
