"""Unit tests for the barrier-top normal form and graded Weyl calculus."""

import cmath
import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qnmlattice.series import HGraded, Series1, Series2
from qnmlattice.potentials import (BlackHoleParams, critical_data,
                                   shifted_potential_taylor,
                                   subprincipal_taylor)
from qnmlattice import normalform, potentials
from qnmlattice.catalog import eval_symbol
from qnmlattice.normalform import (SPECTRAL_ARG, TWO_PI, _birkhoff,
                                   _degree, _level_offsets, _mode_symbol,
                                   _plan, _s_table, _start, _taylor_levels,
                                   moyal_commutator, qnm_symbol, quad_reduce,
                                   weyl_to_spectral)

from reference import (GaussianRational, average_by_flow_quadrature,
                       average_through_inverse, birkhoff, birkhoff_dict,
                       birkhoff_h0, birkhoff_levels, classical_bnf,
                       dense_to_graded, deriv, diag_levels,
                       homological_solve, moyal_commutator_dict,
                       moyal_commutator_pairwise, moyal_commutator_ref,
                       moyal_product, poisson, poschl_teller_taylor,
                       reduced_levels, rosen_morse_symbol,
                       rosen_morse_symbol_taylor, rosen_morse_taylor,
                       sds_poschl_teller_limit, series2_to_dense,
                       weyl_monomial_action)

P1 = BlackHoleParams(m=1.0)


def barrier_taylor(lam, N, m=1.0):
    """The Taylor coefficients of V and W1 at the barrier top of the hole
    lam = lambda m^2 at mass m: the x^k coefficient is the unit-mass one
    over m^(k + 2)."""
    return [[c / m ** (k + 2) for k, c in enumerate(f(lam, N).coeffs)]
            for f in (shifted_potential_taylor, subprincipal_taylor)]


def barrier_symbol(lam, N, m=1.0):
    """Full classical symbol xi^2 + V(x) (shifted) as a Series2."""
    V, _ = barrier_taylor(lam, N, m)
    return Series2({(k, 0): c for k, c in enumerate(V) if c != 0},
                   N) + Series2.monomial(0, 2, 1.0, N)


def contour_action(p2, red, E, nodes=512):
    """Independent action oracle: \\oint xi dx / i on the cycle {p2 = E}.

    The model cycle z zeta = E/mu is mapped through the linear reduction and
    Newton-corrected radially onto the level set; the integral uses FFT
    differentiation of the periodic parameterization.
    """
    (a, b), (c, d) = red.linmap
    w = E / red.mu
    t = 2.0 * np.pi * np.arange(nodes) / nodes
    z = np.sqrt(complex(w)) * np.exp(1j * t)
    ze = np.sqrt(complex(w)) * np.exp(-1j * t)
    x0 = a * z + b * ze
    xi0 = c * z + d * ze
    deg = max(m + n for (m, n) in p2.coeffs)
    # coefficients of p2 along the radial family s -> (s x0, s xi0)
    P = np.zeros((deg + 1, nodes), dtype=complex)
    for (m, n), cc in p2.coeffs.items():
        P[m + n] += complex(cc) * x0 ** m * xi0 ** n
    s = np.ones(nodes, dtype=complex)
    for _ in range(100):
        f = np.zeros(nodes, dtype=complex)
        fp = np.zeros(nodes, dtype=complex)
        for dgr in range(deg, 0, -1):
            f = f * s + P[dgr]
            fp = fp * s + dgr * P[dgr]
        f = f * s + P[0] - E
        ds = f / fp
        s = s - ds
        if np.max(np.abs(ds)) < 1e-15 * np.max(np.abs(s)):
            break
    x = s * x0
    xi = s * xi0
    k = np.fft.fftfreq(nodes, d=1.0 / nodes)
    dx = np.fft.ifft(1j * k * np.fft.fft(x))
    return np.sum(xi * dx) * 2.0 * np.pi / nodes / 1j


# ---------------------------------------------------------------------------
# quadratic reduction


def check_reduction(q, red, tol=1e-13):
    (a, b), (c, d) = red.linmap
    got = q.subs_linear(a, b, c, d)
    scale = max(abs(complex(v)) for v in q.coeffs.values())
    for (m, n), cc in got.coeffs.items():
        want = red.mu if (m, n) == (1, 1) else 0.0
        assert abs(complex(cc) - want) <= tol * scale, (m, n)
    assert abs(a * d - b * c - 1.0) <= tol


def test_quad_reduce_model_identity():
    q = Series2({(1, 1): 1.0}, 2)
    red = quad_reduce(q)
    assert red.mu == 1.0
    assert red.linmap == ((1, 0), (0, 1))


def test_quad_reduce_elliptic():
    q = Series2({(2, 0): -0.5, (0, 2): -0.5}, 2)
    red = quad_reduce(q)
    assert abs(red.mu ** 2 + 1.0) <= 1e-14
    assert (-1j * red.mu).real > 0
    check_reduction(q, red)


def test_quad_reduce_barrier():
    # xi^2 - x^2/(729 m^4) is nondegenerate at any mass m
    for m in (1.0, 1e3, 1e4):
        c0 = (1.0 / (27.0 * m * m)) ** 2
        q = Series2({(2, 0): -c0, (0, 2): 1.0}, 2)
        red = quad_reduce(q)
        assert abs(red.mu ** 2 - 4.0 * c0) <= 1e-16 / m ** 4
        check_reduction(q, red)


def test_quad_reduce_random():
    rng = random.Random(11)
    for _ in range(10):
        q = Series2({(2, 0): complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                     (1, 1): complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                     (0, 2): complex(rng.gauss(0, 1), rng.gauss(0, 1))}, 2)
        red = quad_reduce(q)
        check_reduction(q, red, tol=1e-11)


def test_quad_reduce_degenerate_raises():
    with pytest.raises(ValueError):
        quad_reduce(Series2({(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}, 2))
    with pytest.raises(ValueError):
        quad_reduce(Series2({}, 2))
    with pytest.raises(ValueError, match="no xi\\^2 term"):
        quad_reduce(Series2({(2, 0): -1.0, (1, 1): 1.0}, 2))


# ---------------------------------------------------------------------------
# homological equation and averaging


def test_homological_diagonal_passthrough():
    r = Series2({(1, 1): 1.0, (2, 2): 0.5}, 5)
    a = homological_solve(r)
    avg = r.diagonal()
    assert not a.coeffs
    assert avg.coeffs[1] == 1.0 and avg.coeffs[2] == 0.5


def test_homological_identity_simple():
    r = Series2({(2, 1): 1.0}, 4)
    a = homological_solve(r)
    avg = r.diagonal()
    assert not any(abs(complex(c)) for c in avg.coeffs)
    # i (z d_z - zeta d_zeta) a = -r off the diagonal, i.e.
    # i (m - n) a_{mn} = -r_{mn}
    for (m, n), c in r.coeffs.items():
        assert abs(1j * (m - n) * complex(a[(m, n)]) + complex(c)) <= 1e-15


def test_homological_exact_rational():
    rng = random.Random(3)
    coeffs = {}
    for m in range(9):
        for n in range(9 - m):
            if m != n and rng.random() < 0.5:
                coeffs[(m, n)] = GaussianRational(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    r = Series2(coeffs, 8)
    a = homological_solve(r)
    avg = r.diagonal()
    assert not avg.coeffs or all(c == 0 for c in avg.coeffs)
    i_gr = GaussianRational.i()
    for (m, n), c in coeffs.items():
        # exact identity in Gaussian-rational arithmetic
        lhs = a[(m, n)] * Fraction(m - n) * i_gr
        assert lhs == c * GaussianRational(-1)


def test_flow_quadrature_average_oracle():
    rng = random.Random(7)
    coeffs = {}
    for m in range(9):
        for n in range(9 - m):
            coeffs[(m, n)] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    r = Series2(coeffs, 8)
    avg = r.diagonal()
    q_avg = average_by_flow_quadrature(r, nodes=64)
    for (m, n), c in q_avg.coeffs.items():
        want = complex(avg.coeffs[m]) if m == n else 0.0
        assert abs(complex(c) - want) <= 1e-10


# ---------------------------------------------------------------------------
# classical normal form


def test_classical_bnf_already_diagonal():
    p = Series2({(1, 1): 1.0, (2, 2): 1.0}, 6)
    nf = classical_bnf(p, 6)
    assert abs(nf.mu - 1.0) <= 1e-14
    g = [complex(c) for c in nf.g.coeffs]
    assert abs(g[1] - 1.0) <= 1e-14 and abs(g[2] - 1.0) <= 1e-14
    assert all(abs(c) <= 1e-12 for c in g[3:])


def test_classical_bnf_pure_quadratic():
    c0 = 0.25
    p = Series2({(2, 0): -c0, (0, 2): 1.0}, 8)
    nf = classical_bnf(p, 8)
    assert abs(nf.mu - 2.0 * math.sqrt(c0)) <= 1e-14
    assert all(abs(complex(c)) <= 1e-13 for c in nf.f.coeffs[1:])
    assert abs(complex(nf.S.coeffs[1]) - TWO_PI / nf.mu) <= 1e-13


def test_classical_bnf_rejects_linear_part():
    with pytest.raises(ValueError):
        classical_bnf(Series2({(1, 0): 1.0, (0, 2): 1.0, (2, 0): -1.0}, 6), 6)


def triple_identity_residuals(nf, degree, scale=1.0):
    """Residual coefficients of g'(t) f(g(t)) - 1, mu S' - 2pi f,
    and mu S(g(w)) - 2pi w.

    `scale` rescales the invariant/energy variables (t -> scale*t,
    E -> scale*E); the identities are invariant, but with scale ~ the
    natural energy of the problem all coefficients are O(1) and the
    residuals measure pure arithmetic error.
    """
    n = degree // 2
    b = scale
    g = Series1([complex(c) * b ** (k - 1)
                 for k, c in enumerate(nf.g.coeffs)], n)
    f = Series1([complex(c) * b ** k
                 for k, c in enumerate(nf.f.coeffs)], n)
    S = Series1([complex(c) * b ** (k - 1)
                 for k, c in enumerate(nf.S.coeffs)], n)
    r1 = deriv(g) * f.truncate(n - 1).compose(g.truncate(n - 1))
    res1 = max(abs(complex(c) - (1.0 if k == 0 else 0.0))
               for k, c in enumerate(r1.coeffs))
    r2 = nf.mu * deriv(S)
    res2 = max(abs(complex(a) - TWO_PI * complex(c))
               for a, c in zip(r2.coeffs, f.coeffs))
    r3 = nf.mu * S.compose(g)
    res3 = max(abs(complex(c) - (TWO_PI if k == 1 else 0.0))
               for k, c in enumerate(r3.coeffs))
    return res1, res2, res3


def test_triple_identity_barrier():
    p2 = barrier_symbol(0.0, 10)
    nf = classical_bnf(p2, 10)
    r1, r2, r3 = triple_identity_residuals(nf, 10, scale=critical_data(0.0))
    assert r1 <= 1e-11
    assert r2 <= 1e-11
    assert r3 <= 1e-11


def test_action_series_vs_contour_oracle():
    E0 = critical_data(0.0)
    N = 24
    p2 = barrier_symbol(0.0, N)
    red = quad_reduce(p2.homogeneous_part(2))
    nf = classical_bnf(p2, N)
    Sc = np.array([complex(c) for c in nf.S.coeffs])[::-1]
    for frac in (0.1, -0.3, 0.3j, 0.2 - 0.2j):
        E = frac * E0
        oracle = contour_action(p2, red, E)
        series = np.polyval(Sc, E)
        assert abs(oracle - series) <= 1e-6 * abs(series), frac


def test_action_trivial_orientation():
    # p = x xi: the action of the cycle {p = E} is exactly 2 pi E
    p = Series2({(1, 1): 1.0}, 6)
    red = quad_reduce(p.homogeneous_part(2))
    A = contour_action(p, red, 0.05, nodes=64)
    assert abs(A - TWO_PI * 0.05) <= 1e-12


# ---------------------------------------------------------------------------
# graded Weyl calculus


def graded(d, K, N):
    return HGraded({k: Series2(v, N) for k, v in d.items()}, K)


def levels_close(a, b, tol=1e-11):
    keys = set(a.levels) | set(b.levels)
    for k in keys:
        sa = a.level(k)
        sb = b.level(k)
        ca = sa.coeffs if sa is not None else {}
        cb = sb.coeffs if sb is not None else {}
        for key in set(ca) | set(cb):
            va = complex(ca.get(key, 0.0))
            vb = complex(cb.get(key, 0.0))
            assert abs(va - vb) <= tol, (k, key, va, vb)


def plan_levels(plan, off, v):
    """The levels of a flat vector with offsets `off` that the plan's bins
    fold into."""
    reached = np.unique(np.searchsorted(off, plan.dst, side="right") - 1)
    return {lvl: v[off[lvl]:off[lvl + 1]] for lvl in reached.tolist()}


def flat_commutator(a, gl, levels, K, N):
    """[a, levels] by the kernel: the dense levels in one flat vector, one
    plan over them and one `moyal_commutator` call; the levels reached."""
    off = _level_offsets(K, N)
    flat = np.zeros(off[-1], complex)
    for kb, v in levels.items():
        flat[off[kb]:off[kb] + len(v)] = v
    plan = _plan(a, gl, [kb in levels for kb in range(len(off) - 1)], K, N,
                 off)
    return plan_levels(plan, off, moyal_commutator(plan, flat))


def dense_commutator(gen, sym, K, N):
    """[gen, sym] from the dense kernel: one call per homogeneous part of
    each generator level, on the levels of sym kept to degree N - 2k."""
    levels = {k: series2_to_dense(s.truncate(N - 2 * k))
              for k, s in sym.levels.items()}
    out = {}
    for gl, g in gen.levels.items():
        for d in range(g.trunc_order + 1):
            a = np.array([complex(g[(d - n, n)]) for n in range(d + 1)])
            if not a.any():
                continue
            for lvl, v in flat_commutator(a, gl, levels, K, N).items():
                out[lvl] = out[lvl] + v if lvl in out else v
    return dense_to_graded(out, K)


def test_moyal_unit():
    one = graded({0: {(0, 0): 1.0}}, 2, 6)
    b = graded({0: {(2, 1): 1.5, (0, 3): -2j}, 1: {(1, 1): 0.5}}, 2, 6)
    levels_close(moyal_product(one, b, 2, 6), b)
    levels_close(moyal_product(b, one, 2, 6), b)


def test_moyal_commutator_z2_zeta2():
    a = graded({0: {(2, 0): 1.0}}, 3, 6)
    b = graded({0: {(0, 2): 1.0}}, 3, 6)
    comm = dense_commutator(a, b, 3, 6)
    # h^1 level is (1/i){z^2, zeta^2} = 4i z zeta in this package's bracket
    # orientation; all other levels vanish
    lvl1 = comm.level(1)
    assert abs(complex(lvl1[(1, 1)]) - 4j) <= 1e-14
    for k, s in comm.levels.items():
        for key, c in s.coeffs.items():
            if (k, key) != (1, (1, 1)):
                assert abs(complex(c)) <= 1e-14


def test_moyal_commutator_leading_is_poisson():
    rng = random.Random(19)

    def rand_poly(deg, N):
        return Series2({(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1))
                        for m in range(deg + 1) for n in range(deg + 1 - m)},
                       N)

    a2 = rand_poly(3, 8)
    b2 = rand_poly(3, 8)
    a = HGraded({0: a2}, 3)
    b = HGraded({0: b2}, 3)
    comm = dense_commutator(a, b, 3, 8)
    pb = (1.0 / 1j) * poisson(a2, b2)
    lvl1 = comm.level(1)
    for key in set(pb.coeffs) | set(lvl1.coeffs):
        assert abs(complex(lvl1.coeffs.get(key, 0.0))
                   - complex(pb.coeffs.get(key, 0.0))) <= 1e-12
    # even levels of the commutator vanish identically
    assert comm.level(0) is None or not comm.level(0).coeffs
    assert comm.level(2) is None or not comm.level(2).coeffs


def test_moyal_commutator_matches_derivative_oracle():
    # the dense kernel against the same closed form summed per monomial
    # pair and against repeated series derivatives; the generators are
    # split into homogeneous parts.  At (10, 28) the generator at h^-1 is
    # homogeneous of degree 15, whose k = 11 tables pass 2^63
    rng = random.Random(31)

    def rand_level(N, d=None):
        return Series2({(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1))
                        for m in range(N + 1) for n in range(N + 1 - m)
                        if d is None or m + n == d}, N)

    cases = [(K, N, None) for K in (2, 4, 6) for N in (8, 14, 20)]
    for K, N, dgr in cases + [(10, 28, 15)]:
        gen = HGraded({-1: rand_level(N, dgr), 1: rand_level(N - 2)}, K)
        sym = HGraded({k: rand_level(N - 2 * k) for k in (0, 2, 4)}, K)
        got = dense_commutator(gen, sym, K, N)
        for want in (moyal_commutator_dict(gen, sym, K, N),
                     moyal_commutator_ref(gen, sym, K, N)):
            for k, w in want.levels.items():
                if not w.coeffs:
                    continue
                g = got.levels[k]
                assert g.trunc_order == w.trunc_order, (K, N, k)
                scale = max(abs(c) for c in w.coeffs.values())
                for key in set(g.coeffs) | set(w.coeffs):
                    assert abs(g[key] - w[key]) <= 1e-13 * scale, \
                        (K, N, k, key)
            assert all(not s.coeffs for k, s in got.levels.items()
                       if k not in want.levels), (K, N)


def test_s_table_is_exact_integer_sum_rounded_once():
    # the products the kernel reads, for k = 11 against rows of degree
    # 11..23 and columns up to degree 34 - dgr, the tables of a degree-32
    # reduction, where many S_k exceed 2^63, and for k = 1, 3, 5 against
    # rows and columns of degree <= 20, the tables of the CLI's and the
    # benchmark's symbols: every nonzero S_k once, the integer sum rounded
    # once, in column-degree order, with its row n1, its graded column
    # and its target offset, the graded index of z^(m1+m2-k)
    # zeta^(n1+n2-k) plus k, and the prefix index by column degree
    biggest = 0
    cases = [(11, dgr, 34 - dgr) for dgr in range(11, 24)]
    cases += [(k, dgr, 20) for k in (1, 3, 5) for dgr in range(k, 21)]
    for k, dgr, hi in cases:
        _s_table(k, dgr, hi - 4)
        idx, vals, pos = _s_table(k, dgr, hi)
        want = {}
        for n1 in range(dgr + 1):
            m1 = dgr - n1
            u = [math.comb(k, j) * (-1) ** (k - j) * math.perm(m1, k - j)
                 * math.perm(n1, j) for j in range(k + 1)]
            for d2 in range(hi + 1):
                for n2 in range(d2 + 1):
                    s = sum(ui * math.perm(d2 - n2, j) * math.perm(n2, k - j)
                            for j, ui in enumerate(u))
                    biggest = max(biggest, abs(s))
                    if s:
                        want[n1, _start(d2) + n2] = (
                            float(s), _start(dgr + d2 - 2 * k) + n2 + n1 - k)
        p = pos[hi + 1]
        rows, cols, targets = idx[:, :p].tolist()
        got = {(n1, c): (v, t) for n1, c, v, t
               in zip(rows, cols, vals[:p].tolist(), targets)}
        assert len(got) == p and got == want, (k, dgr, hi)
        degrees = [_degree(c) for c in cols]
        assert degrees == sorted(degrees), (k, dgr, hi)
        assert pos[:hi + 2] == [sum(d < e for d in degrees)
                                for e in range(hi + 2)], (k, dgr, hi)
    assert biggest >= 2 ** 63


def store_state(store):
    """Every stored array of the S_k products as bytes, dtype and shape,
    and the prefix index, by key."""
    return {key: [(x.tobytes(), x.dtype.str, x.shape) for x in t[:2]] + [t[2]]
            for key, t in store.items()}


def symbol_bytes(G):
    return {k: np.array(lvl.coeffs, complex).tobytes()
            for k, lvl in G.levels.items()}


def test_product_store_is_independent_of_growth_order(monkeypatch):
    # the products of a table are built with the columns they belong to,
    # whatever degree the plan that grows it asks for: (28,10) then (18,4)
    # grows tables past what (18,4) asks for, (18,4) then (28,10) grows
    # them in pieces, and a direct _s_table(k, 5, 30) is read by the
    # (18,4) plans at degrees <= 15; symbols and stores equal bit for bit
    p = BlackHoleParams(m=1.0)
    runs = []
    for order in (((28, 10), (18, 4)), ((18, 4), (28, 10))):
        monkeypatch.setattr(normalform, "_S_TABLES", {})
        got = {shape: symbol_bytes(qnm_symbol(p, *shape)) for shape in order}
        runs.append((got, store_state(normalform._S_TABLES)))
    assert runs[0] == runs[1]
    monkeypatch.setattr(normalform, "_S_TABLES", {})
    for k in (1, 3):
        _s_table(k, 5, 30)
    assert symbol_bytes(qnm_symbol(p, 18, 4)) == runs[0][0][(18, 4)]
    wide = store_state(normalform._S_TABLES)
    monkeypatch.setattr(normalform, "_S_TABLES", {})
    for hi in (4, 15, 17, 30):
        for k in (1, 3):
            _s_table(k, 5, hi)
    grown = store_state(normalform._S_TABLES)
    assert all(wide[key] == grown[key] for key in ((1, 5), (3, 5)))


def test_product_store_size_at_degree_32(monkeypatch):
    # the products of every table a (32,12) symbol reads, indices in
    # uint8 or uint16: 3.33 MB measured, bound 25% above
    monkeypatch.setattr(normalform, "_S_TABLES", {})
    qnm_symbol(BlackHoleParams(m=1.0), 32, 12)
    store = normalform._S_TABLES.values()
    assert {t[0].dtype for t in store} <= {np.dtype(np.uint8),
                                           np.dtype(np.uint16)}
    assert sum(t[0].nbytes + t[1].nbytes for t in store) <= 1.25 * 3.33e6


def test_moyal_commutator_matches_pairwise_scatter_bitwise(monkeypatch):
    # the kernel's one gather and two scatters per exp-series term against
    # one scatter per level pair and odd k, byte for byte: random levels,
    # one of them all zero and one whose nonzero degrees start at 3, at
    # gl = -1, 0, 1; a degree-15 generator at (10, 28), whose k = 11
    # tables pass 2^63 and whose products fill arrays past numpy's 256 KiB
    # temporary elision, which rounds a * tmp as tmp * a; and every term
    # of the reduction loop on the barrier levels of each lattice bench
    # symbol, (20,2), (16,4) and (18,4) at lambda = 0, of (10,2) and
    # (20,2) at lambda = 0.02, and of (28,10) at lambda = 0 (214 of the
    # 567 kernel calls).  The oracle leaves out a (source level, k)
    # block with no nonzero coefficient in its degree range, which the
    # kernel multiplies out to zeros and folds in; that can turn a -0 of
    # the sum into +0 and changes nothing else.  So in a level such a
    # block feeds, and only there, got may hold +0 where want holds -0,
    # and a level the oracle leaves out must be fed only by such blocks
    # and hold only zeros
    rng = np.random.default_rng(37)
    calls = []

    def rand(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def zero_fed(a, gl, levels, sources, K, N):
        # the target levels of the kernel's blocks that the oracle skips:
        # no nonzero coefficient of the source level in degrees k..hi
        dgr = len(a) - 1
        out = set()
        for kb in sources:
            hi = min(N - 2 * (gl + kb) - dgr, N - 2 * kb)
            nz = np.flatnonzero(levels[kb])
            for k in range(1, min(K, N // 2) - gl - kb + 1, 2):
                if k <= min(dgr, hi) and (not nz.size or _degree(nz[0]) > hi
                                          or _degree(nz[-1]) < k):
                    out.add(gl + kb + k)
        return out

    def compare(got, a, gl, levels, sources, K, N):
        want = moyal_commutator_pairwise(a, gl, levels, K, N)
        loose = zero_fed(a, gl, levels, sources, K, N)
        key = (gl, len(a) - 1, K, N)
        assert set(want) <= set(got) <= set(want) | loose, key
        for lvl, v in got.items():
            if lvl not in want:
                assert not v.any(), key + (lvl,)
                continue
            w = want[lvl]
            if lvl in loose:
                w = w.copy()
                wp, vp = w.view(float), v.view(float)
                wp[(wp == 0) & np.signbit(wp) & (vp == 0)
                   & ~np.signbit(vp)] = 0.0
            assert v.tobytes() == w.tobytes(), key + (lvl,)
        calls.append(len(want))

    built = {}

    def record(a, gl, present, K, N, off):
        plan = _plan(a, gl, present, K, N, off)
        built[id(plan)] = (plan, a, gl, K, N, off,
                           [kb for kb, p in enumerate(plan.present) if p])
        return plan

    def check(plan, term):
        got = moyal_commutator(plan, term)
        _, a, gl, K, N, off, sources = built[id(plan)]
        levels = {kb: term[off[kb]:off[kb + 1]] for kb in range(len(off) - 1)}
        compare(plan_levels(plan, off, got), a, gl, levels, sources, K, N)
        return got

    for K, N, degrees in ((4, 12, range(1, 9)), (6, 16, (3, 7, 10)),
                          (10, 28, (15,))):
        levels = {kb: rand(_start(N - 2 * kb + 1)) for kb in range(K + 1)}
        levels[1][:] = 0
        levels[2][:_start(3)] = 0
        for gl in (-1, 0, 1):
            for dgr in degrees:
                a = rand(dgr + 1)
                compare(flat_commutator(a, gl, levels, K, N), a, gl, levels,
                        range(K + 1), K, N)
    assert min(calls) > 0
    calls.clear()
    monkeypatch.setattr(normalform, "_plan", record)
    monkeypatch.setattr(normalform, "moyal_commutator", check)
    for lam, N, K in ((0.0, 20, 2), (0.0, 16, 4), (0.0, 18, 4),
                      (0.02, 10, 2), (0.02, 20, 2), (0.0, 28, 10)):
        mu, levels = _taylor_levels(*barrier_taylor(lam, N), N, K)
        start = len(calls)
        _birkhoff(levels, mu, K, N)
        assert len(calls) > start and max(calls[start:]) > 1, (lam, N, K)
    assert len(calls) > 450


def asymmetric_barrier(N):
    """Taylor coefficients of exp(-x^2) (1 + 0.3 x^3) - 1 and of
    0.1 exp(-x^2), to x^N: a barrier with odd terms, and its h^2 part."""
    e = [(-1) ** (k // 2) / math.factorial(k // 2) if k % 2 == 0 else 0.0
         for k in range(N + 1)]
    V = [e[k] + (0.3 * e[k - 3] if k >= 3 else 0.0) for k in range(N + 1)]
    V[0] -= 1.0
    return V, [0.1 * c for c in e]


def test_birkhoff_equals_dict_loop_bitwise(monkeypatch):
    # the flat loop against the dict loop it replaced, byte for byte on
    # every level of the dict loop's output, the input levels of each
    # `_mode_symbol` call: Schwarzschild at K = 0..5, 10, 12 up to
    # (32,12), m from 0.05 to 50 and lambda m^2 in {0, 0.01, 0.02}, where
    # the deepest symbols are refused after the loop; the even
    # Poschl-Teller barrier and an asymmetric one at each (N, K)
    runs = []

    def check(levels, mu, K, N):
        got = _birkhoff(levels, mu, K, N)
        want = birkhoff_levels(dict(levels), mu, K, N)
        assert sorted(got) == sorted(want), (N, K)
        for lvl, v in want.items():
            assert got[lvl].tobytes() == v.tobytes(), (N, K, lvl)
        runs.append((N, K))
        return got

    monkeypatch.setattr(normalform, "_birkhoff", check)
    shapes = [(6, 0), (6, 1), (10, 2), (12, 3), (18, 4), (16, 5), (28, 10),
              (32, 12)]
    for N, K in shapes:
        for m in (0.05, 1.0, 3.7, 50.0):
            for lam9 in (0.0, 0.01, 0.02):
                try:
                    qnm_symbol(BlackHoleParams(m=m, lam=lam9 / (m * m)), N, K)
                except (ValueError, RuntimeError):
                    pass
        for V, W1 in ((poschl_teller_taylor(N), [0.0] * (N + 1)),
                      asymmetric_barrier(N)):
            try:
                _mode_symbol(V, W1, 1.0, N, K)
            except ValueError:
                pass
    assert len(runs) == len(shapes) * 14


def test_exp_series_ends_at_its_last_possible_term(monkeypatch):
    # the exp series of step (ell, dgr) makes at most J = (N - 1) // (dgr
    # + 2 ell - 2) kernel calls (the bound `_birkhoff`'s docstring proves),
    # every call but the last returns a nonzero term, and a series whose
    # last term is nonzero ends at J: 108 symbols, m in {0.37, 1, 3.7},
    # lambda m^2 in {0, 0.01, 0.02} and 12 shapes from (6,1) to (32,12),
    # refusals included, and the Poschl-Teller and asymmetric barriers at
    # each shape.  The lattice bench's symbols make 82, 73 and 86 calls at
    # (20,2), (16,4) and (18,4)
    steps, calls = [], {}

    def plan(a, gl, present, K, N, off):
        p = _plan(a, gl, present, K, N, off)
        # ell = gl + 1, so dgr + 2 ell - 2 = dgr + 2 gl
        steps.append((id(p), (N - 1) // (len(a) - 1 + 2 * gl), []))
        return p

    def commutator(p, term):
        out = moyal_commutator(p, term)
        assert id(p) == steps[-1][0]
        steps[-1][2].append(bool(out.any()))
        calls[key] = calls.get(key, 0) + 1
        return out

    monkeypatch.setattr(normalform, "_plan", plan)
    monkeypatch.setattr(normalform, "moyal_commutator", commutator)
    shapes = [(6, 1), (8, 2), (10, 2), (12, 3), (16, 4), (18, 4), (20, 2),
              (20, 6), (24, 8), (28, 10), (30, 12), (32, 12)]
    refused = 0
    for N, K in shapes:
        for m in (0.37, 1.0, 3.7):
            for lam9 in (0.0, 0.01, 0.02):
                key = (N, K, m, lam9)
                try:
                    qnm_symbol(BlackHoleParams(m=m, lam=lam9 / (m * m)), N, K)
                except (ValueError, RuntimeError):
                    refused += 1
        for key, (V, W1) in ((("PT", N, K), (poschl_teller_taylor(N),
                                             [0.0] * (N + 1))),
                             (("asym", N, K), asymmetric_barrier(N))):
            try:
                _mode_symbol(V, W1, 1.0, N, K)
            except ValueError:
                pass
    assert 0 < refused < 108
    at_bound = 0
    for _, J, nonzero in steps:
        assert 1 <= len(nonzero) <= J
        assert all(nonzero[:-1])
        if nonzero[-1]:
            assert len(nonzero) == J
            at_bound += 1
    # the bound, not a zero term, ends most series (6211 of 6867 steps)
    assert at_bound > len(steps) // 2, (at_bound, len(steps))
    assert [calls[N, K, 1.0, 0.0] for N, K in ((20, 2), (16, 4), (18, 4))] \
        == [82, 73, 86]


def test_birkhoff_dense_loop_matches_dict_loop():
    # the dense loop against the same steps on dicts of monomials; level k
    # carries the rounding of the levels below it, so it is measured on
    # the scale of levels 0..k, as `_diag_levels` does
    for lam, N, K in ((0.0, 12, 2), (0.02, 16, 4)):
        sym = barrier_levels(lam, N, K)
        mu, got = birkhoff(sym, K, N)
        mu_ref, want = birkhoff_dict(sym, K, N)
        assert mu == mu_ref
        assert sorted(got.levels) == sorted(want.levels)
        scale = 0.0
        for k, w in sorted(want.levels.items()):
            g = got.levels[k]
            assert g.trunc_order == w.trunc_order
            scale = max([scale] + [abs(c) for c in w.coeffs.values()])
            for key in set(g.coeffs) | set(w.coeffs):
                assert abs(g[key] - w[key]) <= 1e-12 * scale, (N, K, k, key)


def test_moyal_associativity():
    rng = random.Random(23)

    def rand_sym(K, N):
        return HGraded(
            {k: Series2({(m, n): complex(rng.gauss(0, 1), rng.gauss(0, 1))
                         for m in range(4) for n in range(4 - m)}, N)
             for k in range(K + 1)}, K)

    a, b, c = (rand_sym(2, 9) for _ in range(3))
    left = moyal_product(moyal_product(a, b, 2, 9), c, 2, 9)
    right = moyal_product(a, moyal_product(b, c, 2, 9), 2, 9)
    levels_close(left, right, tol=1e-11)


# ---------------------------------------------------------------------------
# quantum averaging (the steps of the Birkhoff loop at h^ell, ell >= 1)
# and the spectral variable


def eigen_levels(levels_s1, K, n):
    """Per-h-level eigenvalue of a diagonal graded symbol on z^n."""
    return weyl_monomial_action(levels_s1, K, n, max(
        s.trunc_order for s in levels_s1.values()))


def test_quantum_average_output_is_diagonal():
    q = graded({0: {(1, 1): 1.0, (2, 2): 0.3},
                1: {(3, 1): 0.2, (2, 2): 0.1}}, 2, 10)
    _, G = birkhoff(q, 2, 10)
    for k, s in G.levels.items():
        off = s.off_diagonal()
        assert all(abs(complex(c)) <= 1e-12 for c in off.coeffs.values()), k


def test_diagonal_check_refuses_real_off_diagonal_terms():
    # the check is relative to the symbol's size, yet 1e-6 of it is far
    # above rounding: refused at h^0 and at a higher level
    q = graded({0: {(1, 1): 1.0, (2, 2): 0.3, (2, 1): 1e-6}}, 2, 10)
    with pytest.raises(ValueError, match="symbol level 0 is not diagonal"):
        diag_levels(q)
    sym = graded({0: {(1, 1): 1.0}, 2: {(2, 2): 0.5, (3, 1): 1e-6}}, 2, 10)
    with pytest.raises(ValueError, match="symbol level 2 is not diagonal"):
        diag_levels(sym)


def test_quantum_average_preserves_triangular_eigenvalues():
    # q has only degree-raising off-diagonal terms, so the operator matrix
    # on monomials is triangular and its eigenvalues are the diagonal
    # entries; the reduction must preserve them exactly through h^2
    K, N = 2, 12
    q = graded({0: {(1, 1): 1.0, (2, 2): 0.3},
                1: {(3, 1): 0.2, (2, 2): 0.1},
                2: {(4, 2): -0.4, (1, 1): 0.25}}, K, N)
    q_diag = {k: s.diagonal() for k, s in q.levels.items()}
    G_diag = diag_levels(birkhoff(q, K, N)[1])
    for n in range(5):
        want = eigen_levels(q_diag, K, n)
        got = eigen_levels(G_diag, K, n)
        for lvl in range(K + 1):
            assert abs(got.get(lvl, 0.0) - want.get(lvl, 0.0)) <= 1e-10, \
                (n, lvl)


def test_quantum_average_no_spurious_odd_level():
    q = graded({0: {(1, 1): 1.0, (3, 3): 0.2},
                2: {(2, 2): 0.4}}, 2, 10)
    lvl1 = diag_levels(birkhoff(q, 2, 10)[1]).get(1)
    assert lvl1 is None or all(abs(complex(c)) <= 1e-12
                               for c in lvl1.coeffs)


def barrier_levels(lam, N, K, m=1.0):
    """The graded barrier symbol xi^2 + V, with h^2 W1, that `qnm_symbol`
    hands to the Birkhoff reduction (at m = 1)."""
    _, W1 = barrier_taylor(lam, N, m)
    levels = {0: barrier_symbol(lam, N, m),
              2: Series2({(k, 0): c for k, c in enumerate(W1) if c != 0}, N)}
    return HGraded(levels, K)


def test_taylor_levels_match_series2_substitution_bitwise():
    # the dense levels built from the Taylor coefficients against the
    # linear substitution of the Series2 symbol, byte for byte, for the
    # barrier in units of m = 1 and of m = 1e-3 and 1e3
    for m in (1e-3, 1.0, 1e3):
        for lam9 in (0.0, 0.02):
            for N, K in ((10, 2), (18, 4), (28, 10)):
                mu, got = _taylor_levels(*barrier_taylor(lam9, N, m), N, K)
                mu_ref, want = reduced_levels(barrier_levels(lam9, N, K, m),
                                              K, N)
                assert mu == mu_ref, (m, lam9, N, K)
                assert sorted(got) == sorted(want) == [0, 2]
                for k, v in want.items():
                    assert got[k].tobytes() == v.tobytes(), (m, lam9, N, K, k)


def test_mode_symbol_of_poschl_teller_is_exact():
    # xi^2 + sech^2(x): G = sqrt(1 - h^2/4) - i x/2pi, so G_0 = 1 - i x/2pi,
    # G_2j = C(1/2, j) (-1/4)^j (-1/8, -1/128, ...) and every other
    # coefficient is 0; errors relative to |G_k(0)|, odd levels exactly 0.
    # Rounding grows about 10^3 per h^2 level; at (28,10) the bounds sit
    # within 5x of the measured 2.3e-19, 2.0e-16, 5.0e-14, 2.5e-11, 2.0e-8
    # and 2.3e-5
    bound = {0: 1e-16, 2: 1e-15, 4: 1e-12, 6: 1e-10, 8: 1e-7, 10: 1e-4}
    for N, K in ((20, 4), (28, 10)):
        G = _mode_symbol(poschl_teller_taylor(N), [0.0] * (N + 1), 1.0, N,
                         K)
        assert sorted(G.levels) == list(range(K + 1))
        g0 = 1.0
        for k, lvl in sorted(G.levels.items()):
            assert len(lvl.coeffs) == N // 2 - k + 1
            if k % 2:
                assert all(c == 0 for c in lvl.coeffs), (N, k)
                continue
            if k:
                g0 *= (0.5 - (k // 2 - 1)) / (k // 2) * -0.25
            want = [g0] + ([-1j / TWO_PI] if k == 0 else []) + [0] * N
            err = max(abs(c - w) for c, w in zip(lvl.coeffs, want))
            assert err <= bound[k] * abs(g0), (N, k)


def test_mode_symbol_of_rosen_morse_matches_closed_form():
    # xi^2 + sech^2(y) + V1 tanh(y), an asymmetric barrier whose odd
    # Taylor terms feed every odd-degree path of the reduction: G(x; h) at
    # the modes x = 2 pi (n + 1/2) h, n = 0, 1, 2, against the closed form,
    # relative error, at V1 = 0.6 and 0.2.  Each bound is twice the error
    # measured there (to one digit), and no less than 1e-15, a few units
    # of rounding (0 and 2.1e-16 measured at (28,10))
    table = {(0.6, 16, 4): {0.2: (4e-8, 9e-7, 2e-4),
                            0.1: (4e-10, 1e-9, 3e-7),
                            0.05: (6e-12, 8e-12, 5e-10)},
             (0.6, 20, 6): {0.2: (6e-10, 5e-7, 2e-4),
                            0.1: (2e-12, 2e-10, 8e-8),
                            0.05: (7e-15, 1e-13, 4e-11)},
             (0.6, 28, 10): {0.2: (7e-14, 1e-8, 3e-5),
                             0.1: (7e-18, 4e-13, 1e-9),
                             0.05: (2e-16, 3e-17, 3e-14)},
             (0.2, 16, 4): {0.1: (8e-10, 6e-9, 7e-7),
                            0.05: (1e-11, 2e-11, 1e-9)},
             (0.2, 28, 10): {0.1: (2e-16, 3e-14, 1e-10),
                             0.05: (2e-16, 2e-16, 4e-15)}}
    V0 = 1.0
    for (V1, N, K), rows in table.items():
        E0, V = rosen_morse_taylor(V0, V1, N)
        assert V[1] == 0.0 and V[3] != 0.0
        G = _mode_symbol(V, [0.0] * (N + 1), E0, N, K)
        for h, bounds in rows.items():
            for n, bound in enumerate(bounds):
                x = TWO_PI * (n + 0.5) * h
                want = rosen_morse_symbol(V0, V1, x, h)
                err = abs(complex(eval_symbol(G, x, h)) - want) / abs(want)
                assert err <= max(2.0 * bound, 1e-15), (V1, N, K, h, n,
                                                        err)


def test_mode_symbol_of_rosen_morse_matches_closed_form_coefficients():
    # G_k[x^j] against the closed form's Taylor coefficients in 40 digits,
    # V0 = 1: errors relative to each level's largest coefficient, odd
    # levels exactly 0.  Each bound sits within 5x of the error measured
    # at (28,10) (at (20,4) it is the same to two digits or smaller):
    # 2.8e-17, 1.6e-16, 7.0e-14, 3.7e-11, 2.6e-8 and 3.1e-5 at V1 = 0.2;
    # 5.8e-18, 6.4e-16, 1.2e-12, 4.4e-9, 6.8e-6 and 3.7e-3 at V1 = 0.6
    bounds = {0.2: {0: 1e-16, 2: 5e-16, 4: 3e-13, 6: 1e-10, 8: 1e-7,
                    10: 1e-4},
              0.6: {0: 3e-17, 2: 3e-15, 4: 5e-12, 6: 2e-8, 8: 3e-5,
                    10: 1e-2}}
    for V1, bound in bounds.items():
        for N, K in ((20, 4), (28, 10)):
            E0, V = rosen_morse_taylor(1.0, V1, N)
            G = _mode_symbol(V, [0.0] * (N + 1), E0, N, K)
            want = rosen_morse_symbol_taylor(1.0, V1, K, N // 2)
            assert sorted(G.levels) == list(range(K + 1))
            for k, lvl in sorted(G.levels.items()):
                assert len(lvl.coeffs) == N // 2 - k + 1
                if k % 2:
                    assert all(c == 0 for c in lvl.coeffs), (V1, N, k)
                    continue
                scale = max(map(abs, want[k][:len(lvl.coeffs)]))
                err = max(abs(c - w) for c, w in zip(lvl.coeffs, want[k]))
                assert err <= bound[k] * scale, (V1, N, K, k, err / scale)


def test_mode_symbol_of_a_flat_rosen_morse_barrier_is_refused_deep():
    # as V1 -> 2 V0 the barrier top flattens and the level-0 off-diagonal
    # residue of the reduction grows: relative to level 0 it measures
    # 3.6e-13 and 1.1e-11 at (10,2), which runs, but 2.3e-9 and 1.5e-5
    # at (16,4), past DIAG_REL = 1e-10, at V1 = 1.6 and 1.9
    for V1 in (1.6, 1.9):
        E0, V = rosen_morse_taylor(1.0, V1, 10)
        G = _mode_symbol(V, [0.0] * 11, E0, 10, 2)
        assert all(np.isfinite(c) for lvl in G.levels.values()
                   for c in lvl.coeffs)
        E0, V = rosen_morse_taylor(1.0, V1, 16)
        with pytest.raises(ValueError,
                           match="symbol level 0 is not diagonal"):
            _mode_symbol(V, [0.0] * 17, E0, 16, 4)


def test_quantum_average_keeps_principal_level_exactly():
    # the steps at h^ell >= 1 leave the h^0 level as the h^0 pass left it
    for N, K in ((10, 2), (14, 4)):
        sym = barrier_levels(0.0, N, K)
        G = diag_levels(birkhoff(sym, K, N)[1])
        assert G[0].coeffs == birkhoff_h0(sym, K, N)[1].level(0) \
            .diagonal().coeffs


@pytest.mark.parametrize("lam", [0.0, 0.02])
@pytest.mark.parametrize("N,K", [(16, 4), (17, 4), (20, 2)])
def test_birkhoff_leaves_every_level_diagonal(lam, N, K):
    # level ell is carried to degree N - 2 ell, the part the mode symbol
    # resolves, and comes out diagonal there
    _, sym = birkhoff(barrier_levels(lam, N, K), K, N)
    assert sorted(sym.levels) == list(range(0, K + 1, 2))
    for k, s in sym.levels.items():
        assert s.trunc_order == N - 2 * k
        scale = max(abs(complex(c)) for c in s.coeffs.values())
        assert all(abs(complex(c)) <= 1e-10 * scale
                   for c in s.off_diagonal().coeffs.values()), k


@pytest.mark.parametrize("m,lam", [(1.0, 0.0), (1.0, 0.02), (2.5, 0.0)])
@pytest.mark.parametrize("N,K", [(10, 2), (14, 4)])
def test_quantum_average_vs_average_through_inverse(m, lam, N, K):
    # the round trip through g^{-1}(Q) and back, from the h^0 pass alone,
    # reaches the same levels on every resolved coefficient, w^j at level k
    # with 2j + 2k <= N; at m = 2.5 the barrier in units of that mass
    sym = barrier_levels(lam, N, K, m)
    got = diag_levels(birkhoff(sym, K, N)[1])
    want = average_through_inverse(birkhoff_h0(sym, K, N)[1], K, N)

    def resolved(G, k):
        cs = [complex(c) for c in G[k].coeffs] if k in G else []
        return (cs + [0j] * N)[:N // 2 - k + 1]

    for k in range(K + 1):
        # odd levels vanish in exact arithmetic: measure them on the h^0 scale
        scale = max(map(abs, resolved(want, k if k % 2 == 0 else 0)))
        for j, (x, y) in enumerate(zip(resolved(got, k), resolved(want, k))):
            assert abs(x - y) <= 1e-10 * scale, (k, j)


def test_weyl_to_spectral_linear():
    gs = weyl_to_spectral({0: Series1([0.0, 1.0, 0.0])}, 2)
    lvl0 = gs.level(0)
    assert abs(complex(lvl0.coeffs[1]) - 1.0) <= 1e-14
    assert abs(complex(lvl0.coeffs[0])) <= 1e-14
    for k in (1, 2):
        s = gs.level(k)
        assert s is None or all(abs(complex(c)) <= 1e-14 for c in s.coeffs)


def test_weyl_to_spectral_square():
    gs = weyl_to_spectral({0: Series1([0.0, 0.0, 1.0])}, 2)
    lvl0 = [complex(c) for c in gs.level(0).coeffs]
    assert abs(lvl0[2] - 1.0) <= 1e-14
    assert max(abs(lvl0[0]), abs(lvl0[1])) <= 1e-14
    lvl2 = [complex(c) for c in gs.level(2).coeffs]
    assert abs(lvl2[0] + 0.25) <= 1e-14


def test_weyl_to_spectral_vs_monomial_action():
    # eigenvalue of Op_w(F) on z^n computed two ways: substitute the model
    # eigenvalue -i(n+1/2)h into the spectral form, or apply the
    # symmetrized-ordering formula directly; for an input with even levels
    # only, the odd spectral levels vanish in exact arithmetic (on z^n,
    # Op_w(w^m) is a polynomial in n + 1/2 with the parity of m) and come
    # out exactly 0
    rng = random.Random(31)
    # tolerances: absolute at K = 2; at K = 4, where the eigenvalues reach
    # 1e4, relative to the largest level of each eigenvalue
    for K, input_levels in ((2, (0, 1, 2)), (4, (0, 2, 4))):
        levels = {k: Series1([complex(rng.gauss(0, 1), rng.gauss(0, 1))
                              for _ in range(5)], 4) for k in input_levels}
        gs = weyl_to_spectral(levels, K)
        for n in range(9):
            want = weyl_monomial_action(levels, K, n, 4)
            got = {}
            for kh, s in gs.levels.items():
                for j, c in enumerate(s.coeffs):
                    lvl = kh + j
                    if lvl <= K and complex(c) != 0:
                        got[lvl] = got.get(lvl, 0.0) \
                            + complex(c) * (-1j * (n + 0.5)) ** j
            scale = 1.0 if K == 2 else max(map(abs, want.values()))
            for lvl in range(K + 1):
                assert abs(got.get(lvl, 0.0) - want.get(lvl, 0.0)) \
                    <= 1e-12 * scale, (K, n, lvl)
        if 1 not in input_levels:
            for k in range(1, K + 1, 2):
                assert all(c == 0 for c in gs.level(k).coeffs), k


def test_weyl_to_spectral_exact_to_degree_32():
    # Op_w(w^n) z^j = (h/2i)^n P_n(j + 1/2) z^j with P_n from its defining
    # sum in exact rationals: every spectral coefficient of w^n, n <= 16,
    # is that exact dyadic rational
    half = Fraction(1, 2)
    for n in range(17):
        pn = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            prod = [Fraction(1)]
            for t in range(n):
                root = n - i - t - half
                prod = [a + root * b for a, b in
                        zip([Fraction(0)] + prod, prod + [Fraction(0)])]
            pn = [a + math.comb(n, i) * b for a, b in zip(pn, prod)]
        levels = {0: Series1([0.0] * n + [1.0], n)}
        gs = weyl_to_spectral(levels, n)
        for p in range(n + 1):
            want = 0 if (n - p) % 2 else \
                pn[p] * (-1) ** ((n - p) // 2) / 2 ** n
            assert complex(gs.level(n - p).coeffs[p]) == float(want), (n, p)


def test_monomial_action_quartic_all_orders():
    # w^4 at three h-levels, checked against the spectral substitution for
    # k = 0..8
    levels = {0: Series1([0.0, 0.0, 0.0, 0.0, 1.0], 4),
              1: Series1([0.0, 0.5], 4),
              2: Series1([1.0, 0.0, -0.3], 4)}
    K = 2
    gs = weyl_to_spectral(levels, K)
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
            assert abs(got.get(lvl, 0.0) - want.get(lvl, 0.0)) <= 1e-12, \
                (n, lvl)


# ---------------------------------------------------------------------------
# assembled mode symbol


def test_qnm_symbol_leading_value_and_slope():
    for m in (0.7, 1.0, 1.9):
        for lam9 in (0.0, 0.2, 0.6):
            p = BlackHoleParams(m=m, lam=lam9 / (9.0 * m * m))
            G = qnm_symbol(p, degree=8, h_order=1)
            g0 = G.level(0)
            want0 = math.sqrt(1.0 - 9.0 * p.lam * m * m) \
                / (3.0 * math.sqrt(3.0) * m)
            c0 = complex(g0.coeffs[0])
            c1 = complex(g0.coeffs[1])
            assert abs(c0 - want0) <= 1e-8 * want0
            assert abs(c1 / c0 - SPECTRAL_ARG) <= 1e-8


def test_qnm_symbol_subprincipal_vanishes():
    G = qnm_symbol(P1, degree=10, h_order=2)
    lvl1 = G.level(1)
    assert lvl1 is None or all(abs(complex(c)) <= 1e-12 for c in lvl1.coeffs)


def test_qnm_symbol_mass_covariance():
    # frequencies scale as 1/m, so every retained coefficient does, also
    # at masses where the barrier's quadratic form is tiny or huge; m c2
    # is compared with c1, so the bound is relative at every mass
    G1 = qnm_symbol(BlackHoleParams(m=1.0), degree=10, h_order=2)
    for m in (2.0, 1e3, 1e4, 1e-8):
        G2 = qnm_symbol(BlackHoleParams(m=m), degree=10, h_order=2)
        for k in G1.levels:
            a = G1.level(k)
            b = G2.level(k)
            for c1, c2 in zip(a.coeffs, b.coeffs):
                assert abs(complex(c2) * m - complex(c1)) \
                    <= 1e-10 * max(abs(complex(c1)), 1e-12)


def test_qnm_symbol_passes_mass_scan_at_degree_28_h_order_10():
    # (28,10) passes at 13 log-spaced masses in [0.05, 50]
    for m in np.geomspace(0.05, 50.0, 13):
        G = qnm_symbol(BlackHoleParams(m=float(m)), degree=28, h_order=10)
        assert sorted(G.levels) == list(range(11)), m


@functools.lru_cache(maxsize=None)
def symbol_at(m, N, K):
    return qnm_symbol(BlackHoleParams(m=m), degree=N, h_order=K)


def test_qnm_symbol_h_order_4_at_degree_20():
    # the degree-20 symbol extends the degree-18 one: same coefficients
    # where both are resolved
    G20 = symbol_at(1.0, 20, 4)
    G18 = symbol_at(1.0, 18, 4)
    for k, lvl in G18.levels.items():
        scale = max(abs(complex(c)) for c in lvl.coeffs)
        for c18, c20 in zip(lvl.coeffs, G20.level(k).coeffs):
            assert abs(complex(c20) - complex(c18)) <= 1e-14 * scale, k


@pytest.mark.parametrize("m,N,K,ref", [(1.0, 24, 4, (1.0, 20, 4)),
                                       (1.0, 18, 6, (1.0, 18, 4)),
                                       (0.5, 20, 4, (1.0, 20, 4))])
def test_qnm_symbol_off_diagonal_residue_is_relative(m, N, K, ref):
    # the averaged residues here are a few 1e-15 of the symbol's size but
    # above 1e-9 in absolute terms; each symbol returns, with exactly zero
    # odd levels, and agrees with a smaller one where both are resolved
    # (frequencies scale as 1/m, so every coefficient does)
    G = symbol_at(m, N, K)
    G_ref = symbol_at(*ref)
    assert sorted(G.levels) == list(range(K + 1))
    for k, lvl in G.levels.items():
        if k % 2:
            assert all(c == 0 for c in lvl.coeffs), k
    for k, lvl in G_ref.levels.items():
        scale = max(abs(complex(c)) for c in lvl.coeffs)
        for c_ref, c in zip(lvl.coeffs, G.level(k).coeffs):
            assert abs(complex(c) * m - complex(c_ref) * ref[0]) \
                <= 1e-14 * scale * ref[0], k


@pytest.mark.parametrize("lam", [0.0, 0.02])
@pytest.mark.parametrize("N,K", [(10, 2), (16, 4)])
def test_qnm_symbol_odd_degree_equals_even_below(lam, N, K):
    # degree N + 1 resolves the same coefficients as degree N; the extra
    # odd degree only feeds terms the final trim drops
    p = BlackHoleParams(m=1.0, lam=lam)
    G = qnm_symbol(p, N, K)
    G_odd = qnm_symbol(p, N + 1, K)
    assert sorted(G_odd.levels) == sorted(G.levels)
    for k, lvl in G.levels.items():
        assert G_odd.level(k).coeffs == lvl.coeffs, k


@pytest.mark.parametrize("lam", [5e-324, 1e-300, 1e-100, 1e-40, 1e-20])
def test_qnm_symbol_at_tiny_lambda_is_the_lambda_zero_symbol(lam):
    # lam enters the barrier series as lam r^2 / 3 next to terms of order
    # 1, so below about 1e-17 it rounds away; the horizons, which the
    # cubic cannot resolve below lam m^2 ~ 1e-62, are never asked for
    G0 = qnm_symbol(P1, 10, 2)
    G = qnm_symbol(BlackHoleParams(m=1.0, lam=lam), 10, 2)
    assert sorted(G.levels) == sorted(G0.levels)
    for k, lvl in G0.levels.items():
        assert np.array(G.level(k).coeffs).tobytes() == \
            np.array(lvl.coeffs).tobytes(), k


def test_qnm_symbol_degree_guard():
    with pytest.raises(ValueError):
        qnm_symbol(P1, degree=6, h_order=2)


@pytest.mark.parametrize("m", [1e-20, 1e20])
def test_qnm_symbol_runs_at_extreme_mass(m):
    # powers of 1/m in the degree-20 Taylor series in units of m would
    # overflow; at unit mass they do not, and G/m is finite
    G = qnm_symbol(BlackHoleParams(m=m), degree=20, h_order=2)
    assert sorted(G.levels) == [0, 1, 2]
    assert all(cmath.isfinite(c) for lvl in G.levels.values()
               for c in lvl.coeffs)
    g0 = G.level(0).coeffs[0]
    assert g0.imag == 0 and abs(g0.real * m - 27 ** -0.5) <= 1e-16


def test_qnm_symbol_builds_one_barrier_series(monkeypatch):
    # `shifted_potential_taylor` and `subprincipal_taylor` share one
    # barrier series per symbol, at unit mass, and return, byte for byte,
    # what each returns alone there; the series stays cached (at most 8),
    # so a symbol of the same (lam m^2, N) builds none
    taylor = {}

    def keep(fn):
        def run(p, N):
            taylor[fn] = fn(p, N)
            return taylor[fn]
        return run

    for fn in (shifted_potential_taylor, subprincipal_taylor):
        monkeypatch.setattr(normalform, fn.__name__, keep(fn))
    cache = potentials._barrier_series
    cache.cache_clear()
    p = BlackHoleParams(m=3.7, lam=0.02 / 3.7 ** 2)
    qnm_symbol(p, 18, 4)
    info = cache.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (1, 1, 8)
    # the same unit-mass hole at another mass reads the cached series
    qnm_symbol(BlackHoleParams(m=1.0, lam=p.unit_mass().lam), 18, 4)
    assert cache.cache_info()[:2] == (3, 1)
    cache.cache_clear()
    for fn, got in taylor.items():
        assert np.array(got.coeffs).tobytes() \
            == np.array(fn(p.unit_mass().lam, 18).coeffs).tobytes(), \
            fn.__name__
    # lam m^2 = 0.01 exactly, where the unit-mass (32,12) symbol is refused
    p = BlackHoleParams(m=2.0, lam=0.0025)
    assert p.unit_mass() == BlackHoleParams(m=1.0, lam=0.01)
    with pytest.raises(ValueError, match="not diagonal"):
        qnm_symbol(p, 32, 12)
    assert cache.cache_info().misses == 2


@pytest.mark.parametrize("lam_m2", [0.0, 0.02])
def test_qnm_symbol_is_the_unit_mass_symbol_over_m(lam_m2):
    # every coefficient is the one at unit mass divided by m, bit for bit,
    # from the smallest accepted mass to the largest
    for m in (2.9e-155, 0.05, 3.7, 50.0, 1e100, 2.5e153):
        p = BlackHoleParams(m=m, lam=lam_m2 / m ** 2)
        G, G1 = qnm_symbol(p, 16, 4), qnm_symbol(p.unit_mass(), 16, 4)
        assert sorted(G.levels) == sorted(G1.levels) == list(range(5))
        for k, lvl in G1.levels.items():
            want = [c / m for c in lvl.coeffs]
            assert np.array(G.level(k).coeffs).tobytes() \
                == np.array(want).tobytes(), (m, k)


def test_qnm_symbol_tends_to_poschl_teller_limit():
    # as delta = 1 - 9 lam m^2 -> 0 the symbol tends to kappa (sqrt(1 -
    # h^2/2) - i x/2pi), kappa = sqrt(E0), with every deviation O(delta):
    # the quotients d = (G_k[x^j] - limit) / (kappa delta) of the (16,4)
    # symbol settle, each tenfold step of delta moving d at most 0.2 times
    # the step before (0.1 measured; 0.01 where the next term vanishes).
    # d carries the rounding of G_k / kappa over delta, which moves (0,1),
    # (0,2) and (2,0), whose deviations are linear in delta, by 3e-11 to
    # 6e-11 at delta = 1e-4; the floor 2e-10 covers it
    quotients = []
    for target in (1e-2, 1e-3, 1e-4):
        p = BlackHoleParams(m=1.0, lam=(1.0 - target) / 9.0)
        E0 = critical_data(p.lam)
        # delta as rounded into E0 = delta / 27 at m = 1
        kappa, delta = math.sqrt(E0), 27.0 * E0
        G = qnm_symbol(p, 16, 4)
        quotients.append({
            (k, j): (c - sds_poschl_teller_limit(E0, k, j)) / (kappa * delta)
            for k, lvl in G.levels.items() for j, c in enumerate(lvl.coeffs)})
    d1, d2, d3 = quotients
    assert len(d1) == 9 + 8 + 7 + 6 + 5
    for key in d1:
        assert abs(d3[key] - d2[key]) \
            <= 0.2 * abs(d2[key] - d1[key]) + 2e-10, key


def test_qnm_symbol_deep_shapes_pass_mass_scan():
    # at unit mass the refusal depends on lam m^2 alone: (30,12) and
    # (32,12) build at lam m^2 = 0 on the 13 masses of the (28,10) scan
    for m in np.geomspace(0.05, 50.0, 13):
        for N, K in ((30, 12), (32, 12)):
            G = qnm_symbol(BlackHoleParams(m=float(m)), N, K)
            assert sorted(G.levels) == list(range(K + 1)), (m, N, K)


@pytest.mark.parametrize("m,lam", [(1.0, 0.0), (1.0, 0.02), (2.5, 0.0)])
@pytest.mark.parametrize("N", [10, 14])
def test_qnm_symbol_leading_level_is_classical_normal_form(m, lam, N):
    # both run the one Birkhoff reduction: G_0(x)^2 = E0 + g(mu * SPECTRAL_ARG
    # * x) with g, mu the Vey-normalized classical normal form of the
    # barrier in units of m
    p = BlackHoleParams(m=m, lam=lam)
    E0 = critical_data(p.unit_mass().lam) / m ** 2
    G0 = qnm_symbol(p, N, h_order=0).level(0)
    nf = classical_bnf(barrier_symbol(p.unit_mass().lam, N, m), N)
    want = [E0 * (k == 0) + complex(c) * (nf.mu * SPECTRAL_ARG) ** k
            for k, c in enumerate(nf.g.coeffs)]
    got = (G0 * G0).coeffs
    assert len(got) == len(want) == N // 2 + 1
    for k, (a, b) in enumerate(zip(got, want)):
        assert abs(complex(a) - b) <= 1e-13 * E0, k
