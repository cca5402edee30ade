"""The four benchmark workloads and the checks on their outputs.

Every op is m = 1.  A run executes whole blocks: each block is one pass
over a workload's `configs` in a seeded order, so every run covers each
configuration equally often and its percentiles do not depend on the seed.
`run` is the timed call into qnmlattice; `check` verifies its output
against a reference that shares no code with the package and returns the
op's accuracy figure.  Probes are known failure cases executed once per run
outside the timing.
"""

import cmath
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import leaver
from qnmlattice import catalog, cli, normalform, potentials


class OpFailed(RuntimeError):
    """The program reported an error for an op."""


class CheckFailed(AssertionError):
    """An op's output disagrees with its reference."""


SCHWARZSCHILD = potentials.BlackHoleParams(m=1.0)
_ORACLE = {}


def oracle(ell, n):
    """Leaver frequency M w of mode (ell, n), computed once per process."""
    if (ell, n) not in _ORACLE:
        _ORACLE[(ell, n)] = leaver.qnm(ell, n)
    return _ORACLE[(ell, n)]


def rel_err(value, ell, n):
    ref = oracle(ell, n)
    return abs(complex(value) - ref) / abs(ref)


def cli_call(argv):
    """In-process `qnmlattice` CLI run; returns its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed("exit %d: %s" % (rc, err.getvalue().strip()))
    return out.getvalue()


class Lattice:
    """Library-driven, because the CLI caps --h-order at 2."""

    name = "lattice"
    via_cli = False
    configs = [(20, 2), (16, 4), (18, 4)]       # (series degree, h-order K)
    probes = [((20, 4), "symbol level 4 is not diagonal")]
    GATE = 1e-2     # the K=0 symbol misses it (2.8e-2 at l=1)

    def prepare(self):
        for ell in range(1, 9):
            for n in range(2):
                oracle(ell, n)

    def run(self, cfg):
        degree, k = cfg
        G = normalform.qnm_symbol(SCHWARZSCHILD, degree=degree, h_order=k)
        rad = catalog.validity_radius(G.levels[0])
        modes = {}
        for ell in range(1, 33):
            h = 1.0 / (ell + 0.5)
            for n in range(5):
                x = 2.0 * math.pi * (n + 0.5) * h
                if x > rad:
                    break
                modes[(ell, n)] = complex(catalog.eval_symbol(G, x, h)) / h
        return modes

    def text(self, modes):
        return "".join("%d %d %r\n" % (ell, n, lam)
                       for (ell, n), lam in sorted(modes.items()))

    def check(self, cfg, modes):
        errs = []
        for ell in range(1, 9):
            for n in range(2):
                if (ell, n) not in modes:
                    raise CheckFailed("mode l=%d n=%d missing" % (ell, n))
                errs.append(rel_err(modes[(ell, n)], ell, n))
        err = max(errs)
        if not err < self.GATE:
            raise CheckFailed("relative error %.3g vs Leaver" % err)
        return err

    def points(self, cfg, modes):
        return len(modes)

    def accuracy(self, errs):
        """err_max over all symbols, with the K=2 and K=4 figures."""
        by_k = {}
        for (_, k), err in errs:
            by_k[k] = max(by_k.get(k, 0.0), err)
        return max(by_k.values()), {"err_max.k%d" % k: v
                                    for k, v in sorted(by_k.items())}


class Direct:
    name = "direct"
    via_cli = True
    configs = list(range(4, 17))                 # ell
    probes = [(ell, "no eigenvalues in the spectral window")
              for ell in (1, 2, 3)]
    N_MAX = 4
    GATE = 1e-4

    def prepare(self):
        for ell in self.configs:
            for n in range(self.N_MAX + 1):
                oracle(ell, n)

    def run(self, ell):
        return cli_call(["direct", "--ell-range", str(ell), str(ell),
                         "--theta", "0.3", "--basis-size", "160",
                         "--n-max", str(self.N_MAX), "--format", "json"])

    def text(self, out):
        return out

    def check(self, ell, out):
        data = json.loads(out)["data"]
        if len(data) != 1 or data[0]["ell"] != ell:
            raise CheckFailed("expected one block for l=%d" % ell)
        qnm = data[0]["qnm"]
        if not 1 <= len(qnm) <= self.N_MAX + 1:
            raise CheckFailed("%d modes at l=%d" % (len(qnm), ell))
        err = max(rel_err(complex(re, im), ell, n)
                  for n, (re, im) in enumerate(qnm))
        if not err < self.GATE:
            raise CheckFailed("relative error %.3g vs Leaver at l=%d"
                              % (err, ell))
        return err

    def points(self, ell, out):
        return 0

    def accuracy(self, errs):
        return max(err for _, err in errs), {}


def brute_count(levels, t, radii):
    """Multiplicity-weighted counts N(r) and numbers of (l, n) lattice
    points in the sectors {1 <= |lam| <= r, arg lam > -t}, enumerated
    directly from the printed symbol coefficients.

    For each l the walk in n stops at the first mode with arg lam <= -t;
    l stops once three in a row have modes in the wedge but none with
    |lam| <= max(radii).
    """
    polys = [(int(k), np.array([complex(re, im) for re, im in cs])[::-1])
             for k, cs in levels.items()]
    counts = [0] * len(radii)
    points = [0] * len(radii)
    ell, idle = 1, 0
    while idle < 3:
        h = 1.0 / (ell + 0.5)
        size = 64
        while True:
            x = 2.0 * math.pi * (np.arange(size) + 0.5) * h
            lam = sum(np.polyval(c, x) * h ** k for k, c in polys) / h
            outside = np.angle(lam) <= -t
            if outside.any():
                break
            size *= 2
        mag = np.abs(lam[:int(np.argmax(outside))])
        for i, r in enumerate(radii):
            inside = int(np.count_nonzero((mag >= 1.0) & (mag <= r)))
            counts[i] += (2 * ell + 1) * inside
            points[i] += inside
        # low l can have no mode inside the wedge at all
        idle = idle + 1 if mag.size and mag.min() > radii[-1] else 0
        ell += 1
    return counts, points


class Count:
    name = "count"
    via_cli = True
    configs = [0.0, 0.01, 0.02]                  # cosmological constant
    probes = []
    T = 0.05
    RADII = [50.0, 100.0, 200.0, 400.0]
    GATE = 0.05     # acceptance gate on |N(r)/(c r^3) - 1| at the largest r

    def prepare(self):
        self.expected = {}
        for lam in self.configs:
            doc = json.loads(cli_call(["gsymbol", "--lam", repr(lam),
                                       "--format", "json"]))
            self.expected[lam] = (doc["config"],
                                  brute_count(doc["data"], self.T,
                                              self.RADII))

    def run(self, lam):
        return cli_call(["count", "--t", repr(self.T), "--r-list"]
                        + [repr(r) for r in self.RADII]
                        + ["--lam", repr(lam), "--format", "json"])

    def text(self, out):
        return out

    def check(self, lam, out):
        doc = json.loads(out)
        sym_cfg, (counts, _) = self.expected[lam]
        for key in ("series_degree", "h_order", "lambda", "m"):
            if doc["config"][key] != sym_cfg[key]:
                raise CheckFailed("count and gsymbol differ in %s" % key)
        rows = doc["data"]["rows"]
        if [r["r"] for r in rows] != self.RADII:
            raise CheckFailed("radii %s" % [r["r"] for r in rows])
        got = [r["count"] for r in rows]
        if got != counts:
            raise CheckFailed("counts %s, enumeration gives %s"
                              % (got, counts))
        if any(r["coverage_gaps"] for r in rows):
            raise CheckFailed("coverage gaps %s"
                              % [r["coverage_gaps"] for r in rows])
        dev = abs(rows[-1]["ratio"] - 1.0)
        if not dev <= self.GATE:
            raise CheckFailed("|N/(c r^3) - 1| = %.3g at r=%g"
                              % (dev, self.RADII[-1]))
        return dev

    def points(self, lam, out):
        return sum(self.expected[lam][1][1])

    def accuracy(self, errs):
        dev = max(err for _, err in errs)
        return dev, {"ratio_dev": dev}


class Pseudo:
    name = "pseudo"
    via_cli = True
    configs = [151, 302, 400]                    # basis size
    probes = []
    H = 0.05
    FIRST = 20
    GATE = 1e-6
    # errors of the first eigenvalues are rounding times their condition
    # number; below this they say nothing about accuracy and are read as it
    FLOOR = 1e-8

    def prepare(self):
        pass

    def run(self, size):
        return cli_call(["pseudo", "--pseudo-h", repr(self.H),
                         "--basis-size", str(size), "--format", "json"])

    def text(self, out):
        return out

    def check(self, size, out):
        rows = json.loads(out)["data"]["rows"]
        if len(rows) != size:
            raise CheckFailed("%d rows for basis size %d" % (len(rows), size))
        rot = cmath.exp(0.25j * math.pi)
        errs = []
        for n, row in enumerate(rows[:self.FIRST]):
            exact = rot * self.H * (2 * n + 1)
            if row[0] != n:
                raise CheckFailed("row %d has index %r" % (n, row[0]))
            errs.append(abs(complex(row[3], row[4]) - exact) / abs(exact))
        err = max(errs)
        if not err < self.GATE:
            raise CheckFailed("eigenvalue error %.3g in the first %d"
                              % (err, self.FIRST))
        return err

    def points(self, size, out):
        return 0

    def accuracy(self, errs):
        raw = max(err for _, err in errs)
        return max(raw, self.FLOOR), {"err_first%d" % self.FIRST: raw}


WORKLOADS = {w.name: w for w in (Lattice, Direct, Count, Pseudo)}
