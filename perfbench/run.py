"""qnmlattice benchmark.

    python3 perfbench/run.py --workload {lattice,direct,count,pseudo}
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/`.  One process, one client, closed loop: each op starts when the
previous one has finished.  BLAS and OpenMP are pinned to one thread and
the process to one CPU.  The run executes whole blocks of ops (see
workloads.py) for about S seconds, checks every op's output, runs the
workload's known-failure probes and repeats one op to compare its output
byte for byte.

With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced second
half of the run, and the first, untraced half gives the tracing overhead.
The line before it is the record: environment, sample counts, raw wall
times, probe messages and accuracy figures.  Records and spans are also
written to .bench_build/perfbench/BENCH_*.json.
"""

import argparse
import bisect
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from time import perf_counter, thread_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5


class SpeedSampler:
    """Measures the CPU speed the benchmark gets, while it runs.

    On a shared host that speed drifts by tens of percent within seconds,
    about the length of one op, and raw wall times of whole runs differ by
    up to 40%.  A background thread times a fixed interpreter-bound kernel
    every PERIOD_S on the CPU the process is pinned to, in thread CPU time
    so that time spent waiting for the CPU does not count.  Time metrics
    are in calibrated seconds: wall time scaled by NOMINAL_S over the mean
    kernel time during it, i.e. the time at the speed where the kernel
    takes NOMINAL_S.  The kernel calls no qnmlattice code, so a change to
    the program moves only the wall time.  The sampler takes about 2% of
    the CPU, alike in every measured time.
    """

    PERIOD_S = 0.05
    NOMINAL_S = 0.0008

    def __init__(self):
        self.samples = []       # (wall time at start, kernel CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    @staticmethod
    def _kernel(n):
        acc = {}
        for i in range(n):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, 0.0) + i * 1.5

    def _loop(self):
        while not self._stop.wait(self.PERIOD_S):
            # untimed warm-up: after the sleep the caches hold the ops' data
            self._kernel(300)
            wall, cpu = perf_counter(), thread_time()
            self._kernel(2000)
            self.samples.append((wall, thread_time() - cpu))

    def close(self):
        self._stop.set()
        self._thread.join()

    def calibrated(self, t0, t1, least=4):
        """Calibrated length of the wall interval [t0, t1], from the
        kernel samples inside it, widened to at least `least` samples."""
        starts = [w for w, _ in self.samples]
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        while j - i < least and (i > 0 or j < len(starts)):
            i = max(i - 1, 0)
            j = min(j + 1, len(starts))
        kernel = statistics.fmean(cpu for _, cpu in self.samples[i:j])
        return (t1 - t0) * self.NOMINAL_S / kernel


def measure_setup(sampler):
    """Median calibrated and raw wall time from a fresh interpreter to
    qnmlattice.cli imported."""
    env = dict(os.environ, PYTHONPATH=SRC)
    stamps = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # no timeout: with one, the wait polls and rounds to 50 ms steps
        subprocess.run([sys.executable, "-c", "import qnmlattice.cli"],
                       env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        stamps.append((t0, perf_counter()))
    return (statistics.median(sampler.calibrated(a, b) for a, b in stamps),
            statistics.median(b - a for a, b in stamps))


def environment(seed):
    import platform

    import numpy
    import scipy

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": dep.get("name"), "version": dep.get("version")}

    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
        "loop": "closed",
        "clients": 1,
        "processes": 1,
    }


class Phase:
    """Checked ops of one half (or all) of a run."""

    def __init__(self):
        self.stamps = []        # (start, end) wall time of each checked op
        self.configs = []
        self.errs = []          # (config, accuracy figure) per checked op
        self.output_bytes = 0
        self.points = 0         # lattice points the ops counted or returned
        self.failures = []
        self.outputs = {}       # first output text per config
        self.span = (0.0, 0.0)  # wall interval of the phase

    def wall(self):
        return [b - a for a, b in self.stamps]

    def calibrated(self, sampler):
        return [sampler.calibrated(a, b) for a, b in self.stamps]


def run_blocks(wl, rng, seconds, phase, tracer, op_ids):
    """Whole blocks until the block boundary nearest to `seconds`."""
    start = perf_counter()
    block_s = 0.0
    while perf_counter() - start + block_s / 2.0 < seconds:
        block_start = perf_counter()
        block = list(wl.configs)
        rng.shuffle(block)
        for cfg in block:
            op_id = next(op_ids)
            if tracer is not None:
                tracer.op = op_id
            t0 = perf_counter()
            try:
                out = wl.run(cfg)
                t1 = perf_counter()
                err = wl.check(cfg, out)
            except Exception as e:  # a failed op is counted, not fatal
                phase.failures.append({"op": op_id, "config": repr(cfg),
                                       "error": "%s: %s"
                                       % (type(e).__name__, e),
                                       "traceback": traceback.format_exc()})
                continue
            text = wl.text(out)
            phase.stamps.append((t0, t1))
            phase.configs.append(cfg)
            phase.errs.append((cfg, err))
            phase.output_bytes += len(text.encode())
            phase.points += wl.points(cfg, out)
            phase.outputs.setdefault(cfg, text)
        block_s = perf_counter() - block_start
    phase.span = (start, perf_counter())


def run_probes(wl):
    """Known failures, run once untimed.  Returns (records, unexpected)."""
    records, unexpected = [], 0
    for cfg, known in wl.probes:
        try:
            wl.check(cfg, wl.run(cfg))
        except Exception as e:
            msg = "%s: %s" % (type(e).__name__, e)
            status = "known failure" if known in str(e) else "unexpected"
        else:
            msg, status = "", "passes"
        unexpected += status == "unexpected"
        records.append({"config": repr(cfg), "status": status,
                        "message": msg})
    return records, unexpected


def timing(times):
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {"op_s.p50": deciles[4], "op_s.p90": deciles[8],
            "ops_per_s": len(times) / sum(times)}


def end_to_end(wl, phase, setup_s, sampler):
    err_max, accuracy = wl.accuracy(phase.errs)
    t = timing(phase.calibrated(sampler))
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (t["op_s.p50"], "s"),
        "op_s.p90": (t["op_s.p90"], "s"),
        "ops_per_s": (t["ops_per_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "err_max": (err_max, "rel"),
    }, accuracy


# (metric, statistic, tracer labels): calls, counts and computed GFLOP per
# op, inclusive ("s") or self ("self_s") calibrated seconds per op
LAYER_METRICS = [
    ("series.Series2.mul.calls", "calls", ["series.Series2.mul"]),
    ("series.Series2.mul.self_s", "self_s", ["series.Series2.mul"]),
    ("series.Series1.compose.s", "s", ["series.Series1.compose"]),
    ("series.hcompose.s", "s", ["series.hcompose"]),
    ("potentials.taylor.s", "s", ["potentials.shifted_potential_taylor",
                                  "potentials.subprincipal_taylor"]),
    ("potentials.W_parts.calls", "calls", ["potentials.potential_W_parts"]),
    ("potentials.W_parts.points", "count",
     ["potentials.potential_W_parts.points"]),
    ("potentials.W_parts.s", "s", ["potentials.potential_W_parts"]),
    ("potentials.critical_data.calls", "calls", ["potentials.critical_data"]),
    ("normalform.quad_reduce.s", "s", ["normalform.quad_reduce"]),
    ("normalform.conjugate_classical.s", "s",
     ["normalform.conjugate_classical"]),
    ("normalform.quantum_average.s", "s", ["normalform.quantum_average"]),
    ("normalform.weyl_to_spectral.s", "s", ["normalform.weyl_to_spectral"]),
    ("normalform.qnm_symbol.self_s", "self_s", ["normalform.qnm_symbol"]),
    ("scaling.hermite_quadrature.s", "s", ["scaling.hermite_quadrature"]),
    ("scaling.build_scaled_operator.s", "s",
     ["scaling.build_scaled_operator"]),
    ("scaling.eigensolve.calls", "calls", ["scaling.eigensolve"]),
    ("scaling.eigensolve.s", "s", ["scaling.eigensolve"]),
    ("scaling.eigensolve.gflop_computed", "gflop",
     ["scaling.eigensolve.gflop_computed"]),
    ("catalog.eval_symbol.calls", "calls", ["catalog.eval_symbol"]),
    ("catalog.eval_symbol.points", "count", ["catalog.eval_symbol.points"]),
    ("catalog.eval_symbol.s", "s", ["catalog.eval_symbol"]),
    ("catalog.asymptotic_check.self_s", "self_s",
     ["catalog.asymptotic_check"]),
    ("catalog.validity_radius.s", "s", ["catalog.validity_radius"]),
    ("catalog.counting_constant.s", "s", ["catalog.counting_constant"]),
    ("pseudospectrum.hermite_galerkin_matrix.s", "s",
     ["pseudospectrum.hermite_galerkin_matrix"]),
    ("pseudospectrum.eigensolve.s", "s", ["pseudospectrum.eigensolve"]),
    ("pseudospectrum.instability_report.self_s", "self_s",
     ["pseudospectrum.instability_report"]),
]
UNITS = {"calls": "1/op", "count": "1/op", "gflop": "GFLOP/op",
         "s": "s/op", "self_s": "s/op"}


def per_layer(wl, tracer, traced, plain, sampler):
    n = len(traced.stamps)
    # one speed factor for the traced phase scales its span times
    scale = sampler.calibrated(*traced.span) / (traced.span[1]
                                                - traced.span[0])
    source = {"calls": tracer.calls, "count": tracer.counts,
              "gflop": tracer.counts, "s": tracer.inclusive,
              "self_s": tracer.self_time}
    m = {}
    for name, stat, labels in LAYER_METRICS:
        total = sum(source[stat][label] for label in labels)
        if stat in ("s", "self_s"):
            total *= scale
        m[name] = (total / n, UNITS[stat])

    def ratio(a, b):
        return a / b if b else 0.0

    cnt = tracer.counts
    m["scaling.qnm_direct.kept_ratio"] = (
        ratio(cnt["scaling.qnm_direct.modes"],
              cnt["scaling.qnm_direct.eigenvalues"]), "ratio")
    m["catalog.points_per_mode"] = (
        ratio(cnt["catalog.eval_symbol.points"], traced.points), "ratio")
    m["cli.self_s"] = (tracer.layer_self_time("cli") * scale / n, "s/op")
    m["cli.output_bytes"] = (traced.output_bytes / n if wl.via_cli else 0,
                             "B/op")
    m["trace.spans"] = (len(tracer.spans) / n, "1/op")
    mean_traced = statistics.fmean(traced.calibrated(sampler))
    mean_plain = statistics.fmean(plain.calibrated(sampler))
    m["trace.overhead_s"] = (mean_traced - mean_plain, "s/op")
    m["trace.overhead_share"] = (mean_traced / mean_plain - 1.0, "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["lattice", "direct", "count", "pseudo"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "qnmlattice", "cli.py")):
        print("error: no qnmlattice sources under %s" % SRC, file=sys.stderr)
        return 2
    # one CPU, so that the speed sampler and the ops share a core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the thread pins must be in place before numpy loads BLAS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import leaver
    import spans
    import workloads
    from qnmlattice import (catalog, cli, normalform, potentials,
                            pseudospectrum, scaling, series)

    leaver.self_check()
    wl = workloads.WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    op_ids = itertools.count(1)
    plain = Phase()
    tracer = traced = None
    sampler = SpeedSampler()
    try:
        setup_s, setup_wall_s = measure_setup(sampler)
        wl.prepare()
        probes, unexpected = run_probes(wl)
        if args.trace:
            run_blocks(wl, rng, args.seconds / 2.0, plain, None, op_ids)
            tracer = spans.Tracer()
            undo = spans.install(
                tracer,
                [series, potentials, normalform, scaling, catalog,
                 pseudospectrum, cli],
                [(series.Series2, ("__mul__", "__rmul__"),
                  "series.Series2.mul"),
                 (series.Series1, ("compose",), "series.Series1.compose")])
            traced = Phase()
            try:
                run_blocks(wl, rng, args.seconds / 2.0, traced, tracer,
                           op_ids)
            finally:
                spans.uninstall(undo)
        else:
            run_blocks(wl, rng, args.seconds, plain, None, op_ids)
    finally:
        sampler.close()

    # repeat the first config of the workload and compare byte for byte
    repeat_cfg = wl.configs[0]
    failures = plain.failures + (traced.failures if traced else [])
    try:
        if wl.text(wl.run(repeat_cfg)) != plain.outputs.get(repeat_cfg):
            failures.append({"op": "repeat", "config": repr(repeat_cfg),
                             "error": "output differs on rerun"})
    except Exception as e:  # a failed op is counted, not fatal
        failures.append({"op": "repeat", "config": repr(repeat_cfg),
                         "error": "%s: %s" % (type(e).__name__, e)})
    phases = [plain] + ([traced] if traced else [])
    if not all(p.stamps for p in phases):
        print("error: no op passed its check; first failure: %s"
              % failures[0]["error"], file=sys.stderr)
        return 1
    attempted = 1 + sum(len(p.stamps) + len(p.failures) for p in phases)

    if args.trace:
        metrics = per_layer(wl, tracer, traced, plain, sampler)
        accuracy = {}
    else:
        metrics, accuracy = end_to_end(wl, plain, setup_s, sampler)
    result = {
        "correct": not failures and not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "env": environment(args.seed),
        "op_s.samples": len(plain.stamps),
        "traced_samples": len(traced.stamps) if traced else 0,
        "wall": dict(timing(plain.wall()), setup_s=setup_wall_s),
        "kernel_s.median": statistics.median(c for _, c in sampler.samples),
        "accuracy": accuracy, "probes": probes,
        "failures": [{k: v for k, v in f.items() if k != "traceback"}
                     for f in failures],
    }
    detail = {
        "failures": failures,
        "op_times": [[repr(c), a, b] for c, (a, b) in
                     zip(plain.configs, plain.stamps)],
        "kernel_samples": sampler.samples,
        "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "BENCH_%s_seed%d_trace%d"
                        % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as f:
        json.dump(dict(record, **detail), f, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as f:
            json.dump({"fields": ["op", "id", "parent", "label", "start",
                                  "end"], "spans": tracer.spans}, f)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
