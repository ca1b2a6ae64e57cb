#!/usr/bin/env bash
# Bench smoke for CI (and local use): proves the observability layer works
# end-to-end and that streamed replay stays inside its memory budget.
#
#   1. Runs one figure bench (Table 3) truncated via --epochs, with the
#      epoch time-series CSVs and the chrome://tracing JSON enabled, and
#      sanity-checks the artifacts (CSV header, trace JSON parses and
#      contains traceEvents). Every variant span must name its stage
#      (decide or fold), and every decide span a bin below
#      min(2, groups.<variant>); the decide and fold ns per request of
#      each variant are printed.
#   2. Runs the streamed-replay RSS gate: bench_stream_scale generates and
#      replays the video trace in SoA chunks without materializing it and
#      must stay under ${SMOKE_STREAM_RSS_MB:-1500} MB peak RSS. CI raises
#      SMOKE_STREAM_SCALE to paper scale (>=100M requests); the default
#      keeps local runs quick. The rss_report.csv lands in the artifacts.
#   3. Checks that a sweep bench honours --series too: bench_fig8_uplink
#      must write at least one epoch-series CSV from its capacity sweep.
#   4. Checks that a malformed numeric flag is rejected: --scale=0,5 must
#      exit 2 with the flag named on stderr, not run an empty scenario.
#      Checks that --seed reaches a bench that builds its own recipe:
#      bench_fig12_web_download must print different tables for --seed=7
#      and --seed=0.
#   5. Checks thread-count invariance on the Release binaries:
#      bench_ablation_design (prefetch, six policies, transient outages)
#      must print identical tables at --threads=1 and --threads=4,
#      bench_fig11_fault_tolerance at --threads=1 and --threads=3 (on its
#      9.7%-failed shell the failure remap coarsens StarCDN into 137
#      coupling groups, which 3 bins split unevenly), and
#      bench_fig8_uplink at --threads=1 and --threads=4, tables and the
#      "GSL budget check" line (the uplink meter's mean, peak, overloaded
#      cells and cell count) alike, and bench_fig12_web_download at
#      --threads=1 and --threads=4 (web and download caches hold thousands
#      of small objects, so the cache index grows and erases hardest
#      there).
#   6. Checks the ISL counts of the healthy 72x18 shell:
#      bench_fig3_groundtrack must print 2592 ISLs and 0 broken.
#   7. Runs the examples: quickstart, replay_cluster over in-process
#      queues, and starcdn_sim with all six variants, failures and
#      transient outages; each must exit 0 and print a row per variant.
#      starcdn_sim --fail-fraction nan and --class vidoe must exit 1, the
#      latter naming the value. constellation_explorer must print
#      "ISL fabric: 2592 links, 0 broken", and exit 1 naming the value on
#      a malformed (40.7x -74) or out-of-range (91 0) coordinate.
#
# Usage: scripts/bench_smoke.sh [build-dir]
# Artifacts land in ${SMOKE_OUT:-smoke_artifacts}.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build-smoke}
OUT=${SMOKE_OUT:-smoke_artifacts}

echo "== build =="
if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" -j "$(nproc)" \
  --target bench_table3_relay_availability bench_fig8_uplink \
  bench_fig12_web_download bench_ablation_design \
  bench_fig11_fault_tolerance bench_stream_scale bench_fig3_groundtrack \
  quickstart replay_cluster starcdn_sim constellation_explorer

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
python3 - "$OUT/table3_trace.json" "$OUT" <<'EOF'
import collections, csv, glob, json, os, sys
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
# Variant spans say which stage they time; a decide span's bin is below
# the bin count, min(threads, groups) at --threads=2.
groups = {}
for e in events:
    if e["name"] == "Simulator::run":
        for key, value in e.get("args", {}).items():
            if key.startswith("groups."):
                name = key[len("groups."):]
                groups[name] = min(groups.get(name, value), value)
busy_us = collections.defaultdict(float)
for e in events:
    if e.get("cat") != "variant" or e["ph"] != "X":
        continue
    args = e.get("args", {})
    stage = args.get("stage")
    assert stage in ("decide", "fold"), f"{e['name']} span stage {stage!r}"
    if stage == "decide":
        bins = min(2, groups[e["name"]])
        assert "bin" in args and args["bin"] < bins, \
            f"{e['name']} decide span bin {args.get('bin')} of {bins}"
    busy_us[(e["name"], stage)] += e["dur"]
# Requests per variant: the per-epoch rows of its series CSVs.
requests = collections.Counter()
for path in glob.glob(os.path.join(sys.argv[2], "smoke_table3_*.csv")):
    name = os.path.basename(path)[:-len(".csv")].rsplit("_", 1)[1]
    with open(path) as f:
        requests[name] += sum(int(row["requests"]) for row in csv.DictReader(f))
assert busy_us, "no variant spans in the trace"
for (name, stage), us in sorted(busy_us.items()):
    assert requests[name] > 0, f"no series CSV rows for {name}"
    print(f"  {name} {stage}: {us * 1e3 / requests[name]:.1f} ns/request")
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

echo "== sweep bench writes series CSVs (Fig. 8, truncated) =="
rm -f "$OUT"/smoke_fig8_*.csv
"$BUILD/bench/bench_fig8_uplink" --epochs=40 --scale=0.05 --threads=2 \
  --out="$OUT" --series=smoke_fig8_ >"$OUT/fig8.log"
fig8_count=0
for f in "$OUT"/smoke_fig8_*.csv; do
  [ -e "$f" ] || continue
  head -1 "$f" | grep -q '^epoch,t_end_s,requests,' ||
    { echo "FAIL: bad series header in $f"; exit 1; }
  fig8_count=$((fig8_count + 1))
done
[ "$fig8_count" -ge 1 ] ||
  { echo "FAIL: bench_fig8_uplink --series wrote no series CSV"; exit 1; }
echo "fig8 series CSVs OK ($fig8_count files)"

echo "== malformed numeric flag is rejected =="
status=0
"$BUILD/bench/bench_table3_relay_availability" --scale=0,5 \
  >/dev/null 2>"$OUT/bad_flag.err" || status=$?
[ "$status" -eq 2 ] ||
  { echo "FAIL: --scale=0,5 exited $status, expected 2"; exit 1; }
grep -q -- '--scale' "$OUT/bad_flag.err" ||
  { echo "FAIL: --scale=0,5 error does not name the flag"; exit 1; }
echo "bad flag OK: $(head -1 "$OUT/bad_flag.err")"

echo "== --seed reaches a bench's own recipe (Fig. 12, truncated) =="
for seed in 0 7; do
  "$BUILD/bench/bench_fig12_web_download" --epochs=40 --scale=0.05 \
    --threads=2 --seed="$seed" --out="$OUT" >"$OUT/fig12_seed$seed.log"
  grep '|' "$OUT/fig12_seed$seed.log" >"$OUT/fig12_seed$seed.tables"
done
if cmp -s "$OUT/fig12_seed0.tables" "$OUT/fig12_seed7.tables"; then
  echo "FAIL: bench_fig12_web_download printed the same tables for" \
    "--seed=7 and --seed=0"
  exit 1
fi
echo "fig12 --seed OK"

echo "== tables do not depend on the thread count (truncated) =="
# Fails unless bench $1 prints the same non-empty '|' table lines (and
# "GSL budget check" line, where it prints one) at --threads=1 and
# --threads=$2.
same_tables() {
  local bench=$1 threads=$2 t
  for t in 1 "$threads"; do
    "$BUILD/bench/$bench" --epochs=40 --scale=0.05 --threads="$t" \
      --out="$OUT" >"$OUT/${bench}_t$t.log"
    grep -e '|' -e '^GSL budget check' "$OUT/${bench}_t$t.log" \
      >"$OUT/${bench}_t$t.tables"
  done
  [ -s "$OUT/${bench}_t1.tables" ] ||
    { echo "FAIL: $bench printed no table lines"; exit 1; }
  if ! cmp -s "$OUT/${bench}_t1.tables" "$OUT/${bench}_t$threads.tables"; then
    echo "FAIL: $bench tables differ between --threads=1 and $threads"
    diff "$OUT/${bench}_t1.tables" "$OUT/${bench}_t$threads.tables" | head -20
    exit 1
  fi
  echo "$bench tables identical at 1 and $threads threads" \
    "($(wc -l <"$OUT/${bench}_t1.tables") lines)"
}
same_tables bench_ablation_design 4
same_tables bench_fig11_fault_tolerance 3
same_tables bench_fig8_uplink 4
same_tables bench_fig12_web_download 4
grep -q '^GSL budget check' "$OUT/bench_fig8_uplink_t1.tables" ||
  { echo "FAIL: bench_fig8_uplink printed no GSL budget check line"; exit 1; }

echo "== ISL counts of the healthy shell (Fig. 3) =="
"$BUILD/bench/bench_fig3_groundtrack" --out="$OUT" >"$OUT/fig3.log"
grep -q '2592 ISLs' "$OUT/fig3.log" && grep -q ' 0 broken' "$OUT/fig3.log" ||
  { echo "FAIL: fig3 did not print 2592 ISLs and 0 broken"; exit 1; }
echo "fig3 ISL counts OK: $(grep '^ISL grid' "$OUT/fig3.log")"

echo "== examples =="
EXAMPLES=$(cd "$BUILD/examples" && pwd)
# Fails unless every named variant starts a row of the summary in $1.
expect_rows() {
  local log=$1
  shift
  for v in "$@"; do
    grep -q "^$v *|" "$log" ||
      { echo "FAIL: no $v row in $log"; exit 1; }
  done
}
(cd "$OUT" && "$EXAMPLES/quickstart") >"$OUT/quickstart.log"
grep -q '^VanillaLRU .*request hit rate' "$OUT/quickstart.log" &&
  grep -q '^StarCDN .*request hit rate' "$OUT/quickstart.log" ||
  { echo "FAIL: quickstart printed no variant rows"; exit 1; }
"$EXAMPLES/replay_cluster" inproc >"$OUT/replay_cluster.log"
expect_rows "$OUT/replay_cluster.log" StarCDN
"$EXAMPLES/starcdn_sim" --variants static,lru,hash,relay,starcdn,prefetch \
  --hours 1 --scale 0.05 --fail-fraction 0.05 --transient-prob 0.02 \
  >"$OUT/starcdn_sim.log"
expect_rows "$OUT/starcdn_sim.log" StaticCache VanillaLRU StarCDN-Fetch \
  StarCDN-Hashing StarCDN StarCDN-Prefetch
status=0
"$EXAMPLES/starcdn_sim" --fail-fraction nan >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] ||
  { echo "FAIL: --fail-fraction nan exited $status, expected 1"; exit 1; }
status=0
"$EXAMPLES/starcdn_sim" --class vidoe >/dev/null 2>"$OUT/bad_class.err" ||
  status=$?
[ "$status" -eq 1 ] ||
  { echo "FAIL: --class vidoe exited $status, expected 1"; exit 1; }
grep -q "vidoe" "$OUT/bad_class.err" ||
  { echo "FAIL: --class vidoe error does not name the value"; exit 1; }
"$EXAMPLES/constellation_explorer" >"$OUT/constellation_explorer.log"
grep -q '^ISL fabric: 2592 links, 0 broken$' "$OUT/constellation_explorer.log" ||
  { echo "FAIL: constellation_explorer ISL fabric line"; exit 1; }
for coords in "40.7x -74" "91 0"; do
  read -r lat lon <<<"$coords"
  status=0
  "$EXAMPLES/constellation_explorer" "$lat" "$lon" >/dev/null \
    2>"$OUT/bad_coords.err" || status=$?
  [ "$status" -eq 1 ] ||
    { echo "FAIL: constellation_explorer $coords exited $status, expected 1"
      exit 1; }
  grep -q "'$lat'" "$OUT/bad_coords.err" ||
    { echo "FAIL: constellation_explorer $coords error does not name $lat"
      exit 1; }
done
echo "examples OK"

echo "bench smoke OK; artifacts in $OUT/"
