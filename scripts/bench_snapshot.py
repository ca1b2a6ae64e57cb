#!/usr/bin/env python3
"""Snapshot a before/after benchmark pair into BENCH_<label>.json.

    python3 scripts/bench_snapshot.py --label NAME [--base REV] [--workdir DIR]

Checks out BASE (default HEAD~1) and HEAD of this repository into two git
worktrees under a temporary directory (or --workdir), builds perfbench in
each, then runs `perfbench/run.py --workload all --out DIR` on the two sides
alternately, at BENCHMARK.json's run length: pair i runs seed i + 1 on both
sides, base first on even pairs and head first on odd ones. 10 end-to-end
pairs run first, then 2 pairs with --trace 1 for the per-layer metrics. The
worktrees are removed at the end.

BENCH_<label>.json is written at the root of this checkout. It holds both
sides' result files (each with its manifest), the order the runs took, the
verdict of perfbench/compare.py for every metric, the per-workload
counters digests, and compare.py's printed table. Standard library only.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")
PAIRS = 10         # end-to-end (--trace 0) pairs
TRACED_PAIRS = 2   # per-layer (--trace 1) pairs


def git(*args, cwd=ROOT):
    proc = subprocess.run(["git"] + list(args), cwd=cwd, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit("git %s failed: %s" % (" ".join(args), proc.stderr.strip()))
    return proc.stdout.strip()


def run(cmd, cwd):
    """Run a command, echoing it; exit with its output if it fails."""
    print("+ (%s) %s" % (os.path.basename(cwd), " ".join(cmd)), flush=True)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit("command failed (%d): %s\n%s%s" % (
            proc.returncode, " ".join(cmd), proc.stdout[-4000:],
            proc.stderr[-4000:]))
    return proc.stdout


def load_compare():
    """This checkout's perfbench/compare.py as a module."""
    sys.dont_write_bytecode = True  # leave perfbench/ as checked out
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import compare  # pylint: disable=import-outside-toplevel
    return compare


def summarize(compare, values):
    q1, med, q3 = compare.quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def verdicts(compare, spec, base_dir, head_dir):
    """{workload: {"end_to_end"|"per_layer": {metric: summary}}}."""
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = compare.load_results(base_dir)
    head = compare.load_results(head_dir)
    out = {}
    for key in sorted(set(base) & set(head)):
        workload, traced = key
        rows = {}
        for name, m in metric_spec.items():
            b = base[key].get(name)
            h = head[key].get(name)
            if b is None or h is None:
                continue
            rows[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "base": summarize(compare, b),
                "head": summarize(compare, h),
                "verdict": (compare.verdict(b, h, m["better"], m["bound"])
                            if "bound" in m else "info"),
            }
        out.setdefault(workload, {})["per_layer" if traced else "end_to_end"] = rows
    return out


def load_docs(directory):
    """Every result file run.py wrote into `directory`, in name order."""
    docs = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                docs.append(json.load(f))
    return docs


def counters_digests(results):
    """{workload: {"runs": {"seed<K>.trace<T>": {side: digest}}, "equal"}}:
    equal digests mean both sides simulated bitwise-equal results."""
    out = {}
    for side in SIDES:
        for doc in load_docs(results[side]):
            runs = out.setdefault(doc["workload"], {"runs": {}})["runs"]
            run_key = "seed%d.trace%d" % (doc["manifest"]["seed"],
                                          int(doc["traced"]))
            runs.setdefault(run_key, {})[side] = doc["counters_digest"]
    for entry in out.values():
        entry["equal"] = all(len(set(r.values())) == 1 and len(r) == 2
                             for r in entry["runs"].values())
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="names the output file BENCH_<label>.json")
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--workdir", default=None,
                    help="where the worktrees and results go "
                         "(default: a new temporary directory)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    revs = {"base": git("rev-parse", args.base),
            "head": git("rev-parse", "HEAD")}
    workdir = args.workdir or tempfile.mkdtemp(prefix="bench_snapshot_")
    trees = {side: os.path.join(workdir, side) for side in SIDES}
    results = {side: os.path.join(workdir, "results_" + side) for side in SIDES}
    for side in SIDES:
        os.makedirs(results[side])  # fails on a reused --workdir
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", trees[side], revs[side])
            # The same build step run.py takes before its first run.
            run([sys.executable, "-c",
                 "import sys; sys.path.insert(0, 'perfbench'); "
                 "import run; run.build()"], trees[side])

        order = []
        schedule = ([(0, i + 1) for i in range(PAIRS)] +
                    [(1, i + 1) for i in range(TRACED_PAIRS)])
        for pair, (trace, seed) in enumerate(schedule):
            # Alternate which side runs first, so neither always runs on a
            # machine the other has just warmed (or heated).
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
                       "--seed", str(seed), "--trace", str(trace),
                       "--out", results[side]]
                last = run(cmd, trees[side]).strip().splitlines()[-1]
                order.append({"side": side, "seed": seed, "trace": trace,
                              "correct": json.loads(last)["correct"]})

        # compare.py exits 1 when it finds a regression; its table is kept
        # either way.
        table = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "compare.py"),
             results["base"], results["head"]],
            cwd=ROOT, capture_output=True, text=True).stdout
        snapshot = {
            "label": args.label,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "revisions": revs,
            "order": order,
            "verdicts": verdicts(load_compare(), spec, results["base"],
                                 results["head"]),
            "counters_digest": counters_digests(results),
            "compare_table": table,
            "results": {side: load_docs(results[side]) for side in SIDES},
        }
    finally:
        for side in SIDES:
            if os.path.exists(trees[side]):
                git("worktree", "remove", "--force", trees[side])
        git("worktree", "prune")
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    path = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(snapshot, f, indent=1)
        f.write("\n")
    print(snapshot["compare_table"])
    print("wrote %s" % os.path.relpath(path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
