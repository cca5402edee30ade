"""Paired benchmark runs of a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent REV --pr N
        [--pairs count=10 lattice=3 ...] [--traced count=1 ...]
        [--seed 1100]

Run from the root of a source checkout.  The parent commit is exported
with `git archive` into a temporary directory, so the repository's own
metadata is left as it was.  For each workload the script runs
`perfbench/run.py` on both trees, one pair after the other, the two runs
of a pair with the same seed; which side runs first alternates from pair
to pair, so that a drift of the host's speed falls on both sides alike.
Every run lasts the `run_seconds` that `BENCHMARK.json` declares.  By
default each workload runs ten pairs: a gain is claimed only when the
change wins at least nine of ten.
`--traced` adds pairs of traced runs (`--trace 1`), whose per-layer
metrics are summarized the same way; for these the record also keeps the
calls and self time per op of every span label, and the summary each
label's median self time per side.

The output, `BENCH_<N>.json` at the root of the checkout, holds every
run (its record and result lines, in the order run) and, per workload
and metric, each side's median and quartiles, the change's median
relative to the parent's, the share of pairs the change wins and whether
the gap between the medians exceeds the parent's interquartile range;
plus the environment: both revisions, the host, the interpreter and the
load average before and after.  A run that exits nonzero is kept with
its exit code and the tail of its stderr, counts as one failed op of its
side, and leaves its pair out of the metrics; the session goes on.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(rev, dest):
    """Files of commit `rev` under `dest`, without touching the repo."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")


def counts(specs):
    """['count=10', 'lattice=3'] -> {'count': 10, 'lattice': 3}."""
    out = {}
    for spec in specs:
        name, _, n = spec.partition("=")
        out[name] = int(n)
    return out


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run: {"record", "result"} from its last two lines, or
    {"failure"} with its exit code and the tail of its stderr."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"failure": {"exit": proc.returncode,
                            "stderr_tail": proc.stderr.strip()[-2000:]}}
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def span_seconds(tree, workload, seed, ops):
    """Calls and self time per traced op for every span label of a traced
    run, from the spans file perfbench writes; raw wall seconds, so that
    labels the per-layer metrics do not name can be compared too."""
    path = os.path.join(tree, ".bench_build", "perfbench",
                        "BENCH_%s_seed%d_trace1-spans.json" % (workload, seed))
    with open(path) as f:
        spans = json.load(f)["spans"]
    children = {}
    for _, _, parent, _, t0, t1 in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + t1 - t0
    out = {}
    for _, sid, _, label, t0, t1 in spans:
        s = out.setdefault(label, {"calls": 0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += t1 - t0 - children.get(sid, 0.0)
    return {label: {k: v / ops for k, v in s.items()}
            for label, s in sorted(out.items())}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs, better):
    """Per metric: both sides' quartiles and the change's pair wins, over
    the pairs whose two runs both finished.  A failed run counts as one
    failed op of its side.  `better` maps a metric name to "lower" or
    "higher"."""
    sides = {}
    for run in runs:
        if "result" in run:
            sides.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for p in sides.values() if len(p) == 2]
    failed = {side: sum(run["result"]["failed"] if "result" in run else 1
                        for run in runs if run["side"] == side)
              for side in ("parent", "change")}
    out = {}
    if not pairs:
        return {"metrics": out, "failed_ops": failed}
    for name in sorted(pairs[0]["parent"]["result"]["metrics"]):
        vals = {side: [p[side]["result"]["metrics"][name]["value"]
                       for p in pairs] for side in ("parent", "change")}
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        wins = sum(sign * (c - a) < 0
                   for a, c in zip(vals["parent"], vals["change"]))
        q = {side: quartiles(v) for side, v in vals.items()}
        gap = abs(q["change"][1] - q["parent"][1])
        iqr = q["parent"][2] - q["parent"][0]
        out[name] = {
            "unit": pairs[0]["parent"]["result"]["metrics"][name]["unit"],
            "better": better.get(name, "lower"),
            "parent": dict(zip(("q1", "median", "q3"), q["parent"])),
            "change": dict(zip(("q1", "median", "q3"), q["change"])),
            "change_over_parent": (q["change"][1] / q["parent"][1]
                                   if q["parent"][1] else None),
            "pairs": len(pairs),
            "change_wins": wins,
            "win_fraction": wins / len(pairs),
            "median_gap_exceeds_parent_iqr": gap > iqr,
        }
    summary = {"metrics": out, "failed_ops": failed}
    if "span_s" in pairs[0]["parent"]:
        # median self seconds per op of every span label, by side
        labels = sorted({label for p in pairs for run in p.values()
                         for label in run["span_s"]})
        summary["span_self_s"] = {
            label: {side: statistics.median(
                p[side]["span_s"].get(label, {"self_s": 0.0})["self_s"]
                for p in pairs) for side in ("parent", "change")}
            for label in labels}
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--pr", required=True, help="number in BENCH_<pr>.json")
    ap.add_argument("--pairs", nargs="+", default=["count=10", "lattice=10",
                                                   "direct=10", "pseudo=10"],
                    help="workload=N untraced pairs")
    ap.add_argument("--traced", nargs="*", default=[],
                    help="workload=N traced pairs (per-layer metrics)")
    ap.add_argument("--seed", type=int, default=1100,
                    help="seed of the first pair; pair i uses seed + i")
    args = ap.parse_args(argv)
    plan = [(w, n, 0) for w, n in counts(args.pairs).items()]
    plan += [(w, n, 1) for w, n in counts(args.traced).items()]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    parent_rev = git("rev-parse", args.parent)
    env = {
        "parent": parent_rev,
        "run_seconds": seconds,
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_files": len(git("status", "--porcelain")
                                            .splitlines())},
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "loadavg_start": os.getloadavg()},
        "command": ["tools/bench_pairs.py"] + list(argv or sys.argv[1:]),
    }
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        export_tree(parent_rev, tmp)
        trees = {"parent": tmp, "change": ROOT}
        for workload, n, trace in plan:
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    t0 = time.time()
                    run = {"side": side, "workload": workload,
                           "trace": trace, "pair": i, "seed": args.seed + i,
                           **run_once(trees[side], workload, args.seed + i,
                                      seconds, trace)}
                    if trace and "record" in run:
                        run["span_s"] = span_seconds(
                            trees[side], workload, args.seed + i,
                            run["record"]["traced_samples"])
                    runs.append(run)
                    print("%s trace=%d pair %d %s: %.0f s%s" % (
                        workload, trace, i, side, time.time() - t0,
                        " FAILED, exit %d" % run["failure"]["exit"]
                        if "failure" in run else ""),
                        file=sys.stderr, flush=True)
    env["host"]["loadavg_end"] = os.getloadavg()
    env["bench_env"] = next((r["record"]["env"] for r in runs
                             if "record" in r), None)
    summary = {}
    for workload, _, trace in plan:
        key = workload + (" traced" if trace else "")
        summary[key] = summarize(
            [r for r in runs if r["workload"] == workload
             and r["trace"] == trace], better)
    with open(os.path.join(ROOT, "BENCH_%s.json" % args.pr), "w") as f:
        json.dump({"about": __doc__.split("\n\n")[0], "environment": env,
                   "summary": summary, "runs": runs}, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
