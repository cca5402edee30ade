"""Acceptance suite: one end-to-end check per shipped guarantee.

Each test prints a single summary line with the measured figure of merit;
pytest -v adds the PASS/FAIL verdict per criterion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from qnmlattice.series import HGraded, Series1, Series2
from qnmlattice.potentials import (BlackHoleParams, critical_data,
                                   horizon_roots, inverse_tortoise, tortoise)
from qnmlattice.normalform import (homological_solve, qnm_symbol,
                                   quad_reduce, weyl_to_spectral)
from qnmlattice.catalog import asymptotic_check, eval_symbol
from qnmlattice.scaling import (ScalingConfig, build_scaled_operator,
                                eigensolve, qnm_direct)
from qnmlattice.pseudospectrum import RotatedHOConfig, instability_report
from qnmlattice.cli import main as cli_main

from reference import (GaussianRational, classical_bnf, functional_inverse,
                       hcompose, moyal_product, weyl_monomial_action)
from test_normalform import (barrier_symbol, contour_action,
                             triple_identity_residuals)
from test_pseudospectrum import (ROUNDING_SIZES, TRUNCATION_SIZES,
                                 assert_divergence_regimes,
                                 divergence_indices)

P1 = BlackHoleParams(m=1.0)


def report(name, detail):
    print("\nacceptance | %-34s | PASS | %s" % (name, detail), flush=True)


def test_acceptance_1_leading_symbol_coefficients():
    t0 = time.time()
    s3 = math.sqrt(3.0)
    pi = math.pi
    ref = [1.0 / (3.0 * s3),
           -1j / (6.0 * s3 * pi),
           -5.0 / (432.0 * s3 * pi ** 2),
           -235j / (93312.0 * s3 * pi ** 3),
           17795.0 / (40310784.0 * s3 * pi ** 4)]
    G = qnm_symbol(P1, degree=10, h_order=2)
    g0 = G.level(0)
    worst = 0.0
    for j, want in enumerate(ref):
        got = complex(g0.coeffs[j])
        worst = max(worst, abs(got - want) / abs(want))
    assert worst <= 1e-6
    dt = time.time() - t0
    assert dt <= 60.0
    report("leading-symbol coefficients",
           "5 coefficients, worst rel err %.2e, %.1fs" % (worst, dt))


def test_acceptance_2_general_parameter_leading_behavior():
    t0 = time.time()
    worst0 = worst1 = 0.0
    for m in np.linspace(0.6, 2.2, 5):
        for s in np.linspace(0.0, 0.8, 5):
            p = BlackHoleParams(m=float(m), lam=float(s) / (9.0 * m * m))
            G = qnm_symbol(p, degree=8, h_order=0)
            g0 = G.level(0)
            c0 = complex(g0.coeffs[0])
            c1 = complex(g0.coeffs[1])
            want0 = math.sqrt(1.0 - 9.0 * p.lam * m * m) \
                / (3.0 * math.sqrt(3.0) * m)
            worst0 = max(worst0, abs(c0 - want0) / want0)
            worst1 = max(worst1, abs(c1 / c0 - (-1j / (2.0 * math.pi))))
    assert worst0 <= 1e-8 and worst1 <= 1e-8
    dt = time.time() - t0
    assert dt <= 60.0
    report("leading behavior on (m,L) grid",
           "5x5 grid, value err %.2e, slope err %.2e, %.1fs"
           % (worst0, worst1, dt))


def test_acceptance_3_action_identities_and_contour_oracle():
    t0 = time.time()
    cd = critical_data(P1)
    nf10 = classical_bnf(barrier_symbol(P1, 10), 10)
    r1, r2, r3 = triple_identity_residuals(nf10, 10, scale=cd.E0)
    assert max(r1, r2, r3) <= 1e-11
    # independent contour-integral action, |E| <= 0.3 E0
    N = 24
    p2 = barrier_symbol(P1, N)
    red = quad_reduce(p2.homogeneous_part(2))
    nf = classical_bnf(p2, N)
    Sc = np.array([complex(c) for c in nf.S.coeffs])[::-1]
    worst = 0.0
    for frac in (0.1, 0.3, -0.3, 0.3j, -0.3j, 0.21 + 0.21j, 0.2 - 0.2j):
        E = frac * cd.E0
        oracle = contour_action(p2, red, E)
        series = np.polyval(Sc, E)
        worst = max(worst, abs(oracle - series) / abs(series))
    assert worst <= 1e-6
    dt = time.time() - t0
    report("action identities + contour oracle",
           "triple-identity res %.1e, contour rel err %.1e, %.1fs"
           % (max(r1, r2, r3), worst, dt))


def test_acceptance_4_symbol_calculus_oracles():
    t0 = time.time()
    # (a) homological identity, exact rational arithmetic
    rng = random.Random(41)
    coeffs = {}
    for m in range(9):
        for n in range(9 - m):
            if m != n:
                coeffs[(m, n)] = GaussianRational(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    r = Series2(coeffs, 8)
    a = homological_solve(r)
    i_gr = GaussianRational.i()
    for (m, n), c in coeffs.items():
        assert a[(m, n)] * Fraction(m - n) * i_gr == c * GaussianRational(-1)
    # (b) Moyal associativity to stored orders
    def rand_sym(K, N):
        return HGraded(
            {k: Series2({(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1))
                         for m in range(4) for n in range(4 - m)}, N)
             for k in range(K + 1)}, K)
    x, y, z = (rand_sym(2, 9) for _ in range(3))
    left = moyal_product(moyal_product(x, y, 2, 9), z, 2, 9)
    right = moyal_product(x, moyal_product(y, z, 2, 9), 2, 9)
    assoc = 0.0
    for k in set(left.levels) | set(right.levels):
        la = left.level(k)
        ra = right.level(k)
        keys = set(la.coeffs if la else {}) | set(ra.coeffs if ra else {})
        for key in keys:
            va = complex(la.coeffs.get(key, 0.0)) if la else 0.0
            vb = complex(ra.coeffs.get(key, 0.0)) if ra else 0.0
            assoc = max(assoc, abs(va - vb))
    assert assoc <= 1e-11
    # (c) monomial action of the spectral form, k = 0..8, h-levels <= 2
    K = 2
    levels = {0: Series1([0.0, 0.3, 0.0, 0.0, 1.0], 4),
              1: Series1([0.2, 0.5], 4),
              2: Series1([1.0, 0.0, -0.3], 4)}
    gs = weyl_to_spectral(levels, K)
    mono = 0.0
    for n in range(9):
        want = weyl_monomial_action(levels, K, n, 4)
        got = {}
        for kh, s in gs.levels.items():
            for j, c in enumerate(s.coeffs):
                lvl = kh + j
                if lvl <= K and complex(c) != 0:
                    got[lvl] = got.get(lvl, 0.0) \
                        + complex(c) * (-1j * (n + 0.5)) ** j
        for lvl in range(K + 1):
            mono = max(mono, abs(got.get(lvl, 0.0) - want.get(lvl, 0.0)))
    assert mono <= 1e-12
    # (d) graded functional inverse residual
    rng2 = random.Random(43)
    S_levels = {0: Series1([0.0, 1.0] + [rng2.gauss(0, 0.3)
                                         for _ in range(7)], 8)}
    for k in (1, 2):
        S_levels[k] = Series1([0.0] + [rng2.gauss(0, 0.3)
                                       for _ in range(8)], 8)
    S = HGraded(S_levels, 2)
    Ginv = functional_inverse(S)
    res = hcompose(S, Ginv)
    finv_res = 0.0
    for k, s in res.levels.items():
        for j, c in enumerate(s.coeffs):
            want = 1.0 if (k, j) == (0, 1) else 0.0
            finv_res = max(finv_res, abs(complex(c) - want))
    assert finv_res <= 1e-11
    dt = time.time() - t0
    assert dt <= 120.0
    report("symbol-calculus oracle suite",
           "rational exact, assoc %.1e, monomial %.1e, inverse %.1e, %.1fs"
           % (assoc, mono, finv_res, dt))


def test_acceptance_5_counting_law():
    t0 = time.time()
    details = []
    for p in (P1, BlackHoleParams(m=1.0, lam=0.02)):
        G = qnm_symbol(p, degree=10, h_order=2)
        rows = asymptotic_check(p, G, 0.05, [50.0, 100.0, 200.0])
        dev = abs(rows[-1]["ratio"] - 1.0)
        assert dev <= 0.05, p.lam
        assert rows[-1]["coverage_gaps"] == 0
        details.append("L=%g: N(200)=%d, |ratio-1|=%.4f"
                       % (p.lam, rows[-1]["count"], dev))
    dt = time.time() - t0
    assert dt <= 300.0
    report("cubic counting law", "; ".join(details) + ", %.1fs" % dt)


def test_acceptance_6_lattice_vs_direct_convergence():
    t0 = time.time()
    ells = [4, 8, 16]
    errs = []
    for ell in ells:
        h = 1.0 / (ell + 0.5)
        cfg = ScalingConfig(theta=0.3, basis_size=160)
        lam_d = qnm_direct(ell, cfg, P1, max_modes=1)[0].lam
        G = qnm_symbol(P1, degree=10, h_order=0)   # leading symbol only
        lam_l = complex(eval_symbol(G, 2.0 * math.pi * 0.5 * h, h)) / h
        errs.append(abs(lam_l - lam_d) / abs(lam_d))
    slope = np.polyfit(np.log([1.0 / (l + 0.5) for l in ells]),
                       np.log(errs), 1)[0]
    assert slope >= 1.5
    dt = time.time() - t0
    assert dt <= 600.0
    report("lattice vs direct convergence",
           "rel errs %s, fitted slope %.3f, %.1fs"
           % (["%.1e" % e for e in errs], slope, dt))


def test_acceptance_7_rotated_oscillator_instability():
    t0 = time.time()
    rep = instability_report(RotatedHOConfig(h=0.05, basis_size=151))
    for row in rep["rows"][:6]:
        assert row["distance"] <= 1e-8 * abs(row["exact"])
    n1 = rep["divergence_index"]
    assert n1 is not None
    nstar = divergence_indices(TRUNCATION_SIZES + ROUNDING_SIZES)
    assert None not in nstar.values(), nstar
    assert_divergence_regimes(nstar)
    dt = time.time() - t0
    assert dt <= 30.0
    report("rotated-oscillator instability",
           "n<=5 accurate, n* %s at N=%s, %s at N=%s, %.1fs"
           % ("/".join(str(nstar[n]) for n in TRUNCATION_SIZES),
              "/".join(str(n) for n in TRUNCATION_SIZES),
              "/".join(str(nstar[n]) for n in ROUNDING_SIZES),
              "/".join(str(n) for n in ROUNDING_SIZES), dt))


def test_acceptance_8_infrastructure(tmp_path):
    t0 = time.time()
    # tortoise round trips
    worst_rt = 0.0
    for r in np.geomspace(2.0 + 1e-6, 50.0, 60):
        x = tortoise(float(r), P1)
        worst_rt = max(worst_rt,
                       abs(inverse_tortoise(x, P1) - r) / max(1.0, r))
    p_ds = BlackHoleParams(m=1.0, lam=0.02)
    hz = horizon_roots(p_ds)
    for s in np.geomspace(1e-4, 0.999, 60):
        r = hz.r_minus + float(s) * (hz.r_plus - hz.r_minus)
        x = tortoise(r, p_ds)
        worst_rt = max(worst_rt,
                       abs(inverse_tortoise(x, p_ds) - r) / max(1.0, r))
    assert worst_rt <= 1e-12
    # eigensolver trace identity
    cfg = ScalingConfig(theta=0.3, h=1.0 / 8.5, basis_size=120)
    mat = build_scaled_operator(cfg, P1)
    vals = eigensolve(mat)
    tr_err = abs(np.sum(vals) - np.trace(mat)) / abs(np.trace(mat))
    assert tr_err <= 1e-9
    # theta-robustness of resonances
    la = qnm_direct(8, ScalingConfig(theta=0.2, basis_size=160), P1,
                    max_modes=1)[0].lam
    lb = qnm_direct(8, ScalingConfig(theta=0.3, basis_size=160), P1,
                    max_modes=1)[0].lam
    th_err = abs(la - lb) / abs(la)
    assert th_err <= 1e-6
    # byte-identical determinism through the CLI
    out = tmp_path / "det.csv"
    argv = ["lattice", "--ell-range", "1", "3", "--n-max", "2",
            "--output", str(out)]
    assert cli_main(argv) == 0
    first = out.read_bytes()
    assert cli_main(argv) == 0
    assert out.read_bytes() == first
    dt = time.time() - t0
    report("infrastructure",
           "round-trip %.1e, trace %.1e, theta %.1e, reruns identical, %.1fs"
           % (worst_rt, tr_err, th_err, dt))
