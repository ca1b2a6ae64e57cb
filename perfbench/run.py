#!/usr/bin/env python3
"""The repository benchmark: streamed-replay workloads of the StarCDN simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload video_starcdn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

It builds perfbench/perfbench.cpp and the simulator libraries from source
into .bench_build/ (Release), runs the named workload for --seconds, checks
the outputs, writes a result file with a manifest under .bench_results/,
prints every metric with its unit, and prints one JSON object as the last
line of standard output. --trace 0 gives the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. perfbench/README.md explains
the workloads and metrics; perfbench/compare.py compares two result sets.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
BINARY_TIMEOUT_S = 170

# Variant names as RunReport prints them, in registration order.
VARIANTS = ["StaticCache", "VanillaLRU", "StarCDN-Fetch", "StarCDN-Hashing",
            "StarCDN", "StarCDN-Prefetch"]
HEADLINE_VARIANT = "StarCDN"  # every workload runs it


class BenchError(Exception):
    """The benchmark could not produce a result (build or run failure)."""


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def load_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def load_reference():
    return load_json(os.path.join(HERE, "reference.json"))


# --- Build --------------------------------------------------------------------

def build():
    """Configure (once) and build the perfbench binary; return its path."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError("build step failed: %s\n%s%s" % (
                " ".join(cmd), proc.stdout[-4000:], proc.stderr[-4000:]))
    return os.path.join(BUILD_DIR, "perfbench")


def run_binary(binary, workload, seed, seconds, traced, scale):
    trace_dir = os.path.join(RESULTS_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if traced else "0",
           "--trace-dir", trace_dir, "--scale", repr(float(scale))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError("%s timed out after %d s" % (workload, e.timeout))
    if proc.returncode != 0:
        raise BenchError("perfbench exited %d: %s" % (proc.returncode,
                                                      proc.stderr[-4000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench printed nothing")
    return json.loads(lines[-1])


# --- Run-end checks -------------------------------------------------------------

def hits(counters):
    return (counters["local_hits"] + counters["routed_hits"] +
            counters["relay_west_hits"] + counters["relay_east_hits"])


def request_hit_rate(counters):
    return hits(counters) / counters["requests"]


def normalized_uplink(counters):
    return counters["uplink_bytes"] / counters["bytes_requested"]


def check_rep(rep, bands, reference_rep):
    """Return the failed checks of one repetition (empty when it passes).

    Per variant: requests = hits + misses; bytes_hit + uplink_bytes =
    bytes_requested; the variant counted every trace request; hit rate and
    normalized uplink lie in the reference band (when `bands` is given); and
    the counters equal those of `reference_rep`, the run's first replay of
    the same trace (the replay is deterministic).
    """
    failures = []
    expected = {v["name"]: v["counters"] for v in reference_rep["variants"]}
    for v in rep["variants"]:
        name, c = v["name"], v["counters"]
        if c["requests"] != hits(c) + c["misses"]:
            failures.append("%s: requests != hits + misses" % name)
        if c["bytes_hit"] + c["uplink_bytes"] != c["bytes_requested"]:
            failures.append("%s: bytes_hit + uplink_bytes != bytes_requested"
                            % name)
        if c["requests"] != rep["requests"]:
            failures.append("%s: counted %d requests, trace has %d"
                            % (name, c["requests"], rep["requests"]))
        if c != expected.get(name):
            failures.append("%s: counters differ from the first replay of "
                            "trace %d" % (name, rep["trace_seed"]))
        band = (bands or {}).get(name)
        if band and c["requests"] and c["bytes_requested"]:
            for metric, value in (("request_hit_rate", request_hit_rate(c)),
                                  ("normalized_uplink", normalized_uplink(c))):
                lo, hi = band[metric]
                if not lo <= value <= hi:
                    failures.append("%s: %s %.4f outside [%.4f, %.4f]"
                                    % (name, metric, value, lo, hi))
    return failures


def first_replays(raw):
    """The first repetition of each distinct trace, in run order."""
    first = {}
    for rep in raw["reps"]:
        first.setdefault(rep["trace_seed"], rep)
    return list(first.values())


def counters_digest(raw):
    """Hash of every variant's counters on every trace of the run: equal
    digests mean bitwise-equal simulated results. Information only; never
    fails a run."""
    canon = json.dumps([[rep["trace_seed"], v["name"],
                         sorted(v["counters"].items())]
                        for rep in first_replays(raw) for v in rep["variants"]],
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# --- Metrics --------------------------------------------------------------------

def throughput(rep):
    """Trace requests per second of stream open + run() + finish() (Mreq/s)."""
    return rep["requests"] / (rep["open_s"] + rep["run_s"] + rep["finish_s"]) / 1e6


def setup_seconds(rep):
    return rep["model_s"] + rep["shell_s"] + rep["schedule_s"] + rep["sim_s"]


def pooled_counters(raw, variant):
    """One variant's counters summed over the run's distinct traces."""
    total = defaultdict(int)
    for rep in first_replays(raw):
        for v in rep["variants"]:
            if v["name"] == variant:
                for k, value in v["counters"].items():
                    total[k] += value
    return total


def fidelity(raw):
    """Simulated results per variant, pooled over the run's traces and per
    trace (information for the result file)."""
    out = {}
    for v in raw["reps"][0]["variants"]:
        c = pooled_counters(raw, v["name"])
        per_trace = {}
        for rep in first_replays(raw):
            t = next(x["counters"] for x in rep["variants"]
                     if x["name"] == v["name"])
            per_trace[rep["trace_seed"]] = [request_hit_rate(t),
                                            normalized_uplink(t)]
        out[v["name"]] = {
            "request_hit_rate": request_hit_rate(c),
            "byte_hit_rate": c["bytes_hit"] / c["bytes_requested"],
            "normalized_uplink": normalized_uplink(c),
            "per_trace_hit_rate_and_uplink": per_trace,
        }
    return out


def end_to_end(raw):
    reps = [r for r in raw["reps"] if not r["traced"]]
    # Simulated results: the median over the run's traces, which one
    # universe with a huge popular object cannot drag the way a pooled sum
    # of bytes can.
    star = [next(v for v in rep["variants"] if v["name"] == HEADLINE_VARIANT)
            for rep in first_replays(raw)]
    return {
        "throughput_mreq_s": statistics.median(throughput(r) for r in reps),
        "setup_s": statistics.median(setup_seconds(r) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_bytes"] for r in reps) / 2**20,
        "request_hit_rate": statistics.median(
            request_hit_rate(v["counters"]) for v in star),
        "uplink_saving_frac": statistics.median(
            1.0 - normalized_uplink(v["counters"]) for v in star),
        "latency_p50_ms": statistics.median(v["latency_p50_ms"] for v in star),
        "latency_p99_ms": statistics.median(v["latency_p99_ms"] for v in star),
    }


def percentile(values, q):
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def trace_costs(rep, threads):
    """Per-layer costs of one traced repetition, from the chrome trace the
    program wrote and the bench-side log of RequestStream::next() calls."""
    events = load_json(rep["trace_file"])["traceEvents"]
    spans = defaultdict(list)
    for e in events:
        if e["ph"] == "X":
            spans[e["name"]].append(e)
    run = spans["Simulator::run"][-1]
    calls = rep["next_calls"]  # [start_us, dur_ns, requests]
    stage1 = spans["stage1_context"]
    replay = {name: spans.get(name, []) for name in VARIANTS}
    requests = rep["requests"]

    # Step k of the double-buffered loop runs from pull k + 1 to the next
    # pull (the last step ends with run()). In it the variants replay block
    # k while the producer pulls block k + 1 and builds its context.
    bounds = [c[0] for c in calls[1:]] + [run["ts"] + run["dur"]]
    steps_ms = []
    replay_wait_us = producer_wait_us = 0.0
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        step = b - a
        per_thread = defaultdict(float)
        for evs in replay.values():
            for e in evs:
                if a <= e["ts"] < b:
                    per_thread[e["tid"]] += e["dur"]
        slowest = max(per_thread.values(), default=0.0)
        producer = calls[k + 1][1] / 1e3 + sum(
            e["dur"] for e in stage1 if a <= e["ts"] < b)
        replay_wait_us += max(0.0, step - slowest)
        producer_wait_us += max(0.0, step - producer)
        steps_ms.append(step / 1e3)

    next_ns = sum(c[1] for c in calls)
    stage1_us = sum(e["dur"] for e in stage1)
    replay_us = {name: sum(e["dur"] for e in evs) for name, evs in replay.items()}
    costs = {
        "trace.next_ns_per_req": next_ns / requests,
        "trace.next_busy_s": next_ns / 1e9,
        "trace.next_calls": len(calls),
        "trace.next_max_ms": max(c[1] for c in calls) / 1e6,
        "core.stage1_ns_per_req": stage1_us * 1e3 / requests,
        "core.replay_wait_s": replay_wait_us / 1e6,
        "core.producer_wait_s": producer_wait_us / 1e6,
        "core.finish_ms": spans["Simulator::finish"][-1]["dur"] / 1e3,
        "util.pool_busy_frac": (sum(replay_us.values()) + stage1_us +
                                next_ns / 1e3) / (run["dur"] * threads),
    }
    for name, us in replay_us.items():
        costs["core.replay_ns_per_req." + name] = us * 1e3 / requests
    return costs, steps_ms


def per_layer(raw):
    traced = [r for r in raw["reps"] if r["traced"]]
    untraced = [r for r in raw["reps"] if not r["traced"]]
    per_rep, steps = [], []
    for rep in traced:
        costs, rep_steps = trace_costs(rep, raw["threads"])
        per_rep.append(costs)
        steps += rep_steps
    metrics = {k: statistics.median(c[k] for c in per_rep) for k in per_rep[0]}

    every = raw["reps"]
    metrics["orbit.shell_build_s"] = statistics.median(r["shell_s"] for r in every)
    metrics["sched.schedule_build_s"] = statistics.median(r["schedule_s"] for r in every)
    metrics["trace.model_build_s"] = statistics.median(r["model_s"] for r in every)
    metrics["trace.stream_open_s"] = statistics.median(r["open_s"] for r in every)
    metrics["core.step_ms_p50"] = percentile(steps, 50)
    metrics["core.step_ms_p90"] = percentile(steps, 90)
    metrics["core.step_samples"] = len(steps)

    # An owner miss at a live cache probes the relay replicas and ends in
    # one admission, from a replica (backflow) or from the ground.
    def owner_misses(c):
        return c["misses"] - c["unreachable"] - c["transient_misses"]

    def relay_hits(c):
        return c["relay_west_hits"] + c["relay_east_hits"]

    star = pooled_counters(raw, HEADLINE_VARIANT)
    probes = owner_misses(star) + relay_hits(star)
    metrics["core.relay_probe_per_req"] = probes / star["requests"]
    metrics["core.relay_success_frac"] = relay_hits(star) / probes if probes else 0.0
    every_variant = [pooled_counters(raw, v["name"])
                     for v in raw["reps"][0]["variants"]]
    metrics["cache.admits_per_req"] = (
        sum(owner_misses(c) + relay_hits(c) for c in every_variant) /
        sum(c["requests"] for c in every_variant))

    p = raw["probes"]
    metrics["sched.first_contact_ns"] = p["first_contact_ns"]
    metrics["core.mapper_ns"] = p["mapper_ns"]
    metrics["cache.touch_ns"] = p["touch_ns"]
    metrics["cache.admit_ns"] = p["admit_ns"]
    metrics["cache.peek_ns"] = p["peek_ns"]
    metrics["cache.evictions_per_admit"] = (
        p["evictions"] / p["admits"] if p["admits"] else 0.0)
    metrics["cache.probe_hit_frac"] = p["hits"] / p["touches"]
    metrics["net.latency_sample_ns"] = p["latency_sample_ns"]

    untraced_tp = statistics.median(throughput(r) for r in untraced)
    traced_tp = statistics.median(throughput(r) for r in traced)
    metrics["obs.tracing_overhead_frac"] = 1.0 - traced_tp / untraced_tp
    return metrics


def evaluate(raw, spec, reference):
    """Checks and metrics of one perfbench invocation: the benchmark's
    result object plus the information that goes into its result file."""
    bands = reference.get(raw["workload"]) if raw["scale"] == 1.0 else None
    firsts = {rep["trace_seed"]: rep for rep in first_replays(raw)}
    attempted = failed = 0
    failures = []
    for i, rep in enumerate(raw["reps"]):
        rep_failures = check_rep(rep, bands, firsts[rep["trace_seed"]])
        attempted += rep["requests"]
        if rep_failures:
            failed += rep["requests"]
            failures += ["rep %d: %s" % (i, f) for f in rep_failures]
    kind = "per_layer" if raw["traced"] else "end_to_end"
    values = per_layer(raw) if raw["traced"] else end_to_end(raw)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failed_frac": failed / attempted,
        "failures": failures,
        "counters_digest": counters_digest(raw),
        "fidelity": fidelity(raw),
        "repetitions": [{"trace_seed": r["trace_seed"], "traced": r["traced"],
                         "throughput_mreq_s": throughput(r),
                         "setup_s": setup_seconds(r),
                         "peak_rss_mb": r["peak_rss_bytes"] / 2**20}
                        for r in raw["reps"]],
    }


# --- Manifest and output ---------------------------------------------------------

def git_revision():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src",
                                "perfbench"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if rev.returncode != 0:
        return None
    return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def source_digest():
    """Hash of the sources the binary is built from; identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def manifest(raw, seconds):
    return {
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "nproc": raw["nproc"],
        "threads": raw["threads"],
        "seed": raw["seed"],
        "seconds": seconds,
        "traced": raw["traced"],
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": {
            "name": raw["workload"],
            "traffic_class": raw["traffic_class"],
            "requests_per_trace": raw["reps"][0]["requests"],
            "trace_seeds": [r["trace_seed"] for r in first_replays(raw)],
            "variants": [v["name"] for v in raw["reps"][0]["variants"]],
            "capacity_bytes": raw["capacity_bytes"],
            "buckets": raw["buckets"],
            "fail_fraction": raw["fail_fraction"],
            "transient_prob": raw["transient_prob"],
            "scale": raw["scale"],
            "repetitions": len(raw["reps"]),
            "traced_repetitions": sum(r["traced"] for r in raw["reps"]),
        },
    }


def write_result(out_dir, raw, seconds, result):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s.seed%d.trace%d.json" % (
        raw["workload"], raw["seed"], int(raw["traced"])))
    doc = {"manifest": manifest(raw, seconds), "workload": raw["workload"],
           "traced": raw["traced"], **result}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
    return path


def print_table(workload, result, path):
    print("== %s (%s) -> %s" % (workload, "correct" if result["correct"]
                                else "FAILED", os.path.relpath(path, ROOT)))
    for name, m in result["metrics"].items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-40s %14.6g fraction" % ("failed_frac", result["failed_frac"]))
    print("  %-40s %14s" % ("counters_digest", result["counters_digest"]))
    for f in result["failures"]:
        print("  check failed: " + f)


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=RESULTS_DIR,
                    help="directory for result files (default .bench_results)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink request volume and duration (tests only)")
    args = ap.parse_args(argv)

    try:
        reference = load_reference()
        binary = build()
        results = {}
        for workload in names if args.workload == "all" else [args.workload]:
            raw = run_binary(binary, workload, args.seed, args.seconds,
                             args.trace == 1, args.scale)
            result = evaluate(raw, spec, reference)
            path = write_result(args.out, raw, args.seconds, result)
            print_table(workload, result, path)
            results[workload] = result
    except (BenchError, OSError, KeyError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        final = {k: next(iter(results.values()))[k] for k in keys}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
