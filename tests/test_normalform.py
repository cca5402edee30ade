"""Unit tests for the barrier-top normal form and graded Weyl calculus."""

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
from qnmlattice.normalform import (SPECTRAL_ARG, TWO_PI, _birkhoff,
                                   _diag_levels, homological_solve,
                                   moyal_commutator, qnm_symbol, quad_reduce,
                                   weyl_to_spectral)

from reference import (GaussianRational, average_by_flow_quadrature,
                       average_through_inverse, birkhoff_h0, classical_bnf,
                       deriv, moyal_product, poisson, weyl_monomial_action)

P1 = BlackHoleParams(m=1.0)


def barrier_symbol(p, N):
    """Full classical symbol xi^2 + V(x) (shifted) as a Series2."""
    V = shifted_potential_taylor(p, N)
    return Series2({(k, 0): c for k, c in enumerate(V.coeffs) if c != 0},
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
    cd = critical_data(P1)
    p2 = barrier_symbol(P1, 10)
    nf = classical_bnf(p2, 10)
    r1, r2, r3 = triple_identity_residuals(nf, 10, scale=cd.E0)
    assert r1 <= 1e-11
    assert r2 <= 1e-11
    assert r3 <= 1e-11


def test_action_series_vs_contour_oracle():
    cd = critical_data(P1)
    N = 24
    p2 = barrier_symbol(P1, N)
    red = quad_reduce(p2.homogeneous_part(2))
    nf = classical_bnf(p2, N)
    Sc = np.array([complex(c) for c in nf.S.coeffs])[::-1]
    for frac in (0.1, -0.3, 0.3j, 0.2 - 0.2j):
        E = frac * cd.E0
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


def test_moyal_unit():
    one = graded({0: {(0, 0): 1.0}}, 2, 6)
    b = graded({0: {(2, 1): 1.5, (0, 3): -2j}, 1: {(1, 1): 0.5}}, 2, 6)
    levels_close(moyal_product(one, b, 2, 6), b)
    levels_close(moyal_product(b, one, 2, 6), b)


def test_moyal_commutator_z2_zeta2():
    a = graded({0: {(2, 0): 1.0}}, 3, 6)
    b = graded({0: {(0, 2): 1.0}}, 3, 6)
    comm = moyal_commutator(a, b, 3, 6)
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
    comm = moyal_commutator(a, b, 3, 8)
    pb = (1.0 / 1j) * poisson(a2, b2)
    lvl1 = comm.level(1)
    for key in set(pb.coeffs) | set(lvl1.coeffs):
        assert abs(complex(lvl1.coeffs.get(key, 0.0))
                   - complex(pb.coeffs.get(key, 0.0))) <= 1e-12
    # even levels of the commutator vanish identically
    assert comm.level(0) is None or not comm.level(0).coeffs
    assert comm.level(2) is None or not comm.level(2).coeffs


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
    _, G = _birkhoff(q, 2, 10)
    for k, s in G.levels.items():
        off = s.off_diagonal()
        assert all(abs(complex(c)) <= 1e-12 for c in off.coeffs.values()), k


def test_diagonal_check_refuses_real_off_diagonal_terms():
    # the check is relative to the symbol's size, yet 1e-6 of it is far
    # above rounding: refused at h^0 and at a higher level
    q = graded({0: {(1, 1): 1.0, (2, 2): 0.3, (2, 1): 1e-6}}, 2, 10)
    with pytest.raises(ValueError, match="symbol level 0 is not diagonal"):
        _diag_levels(q)
    sym = graded({0: {(1, 1): 1.0}, 2: {(2, 2): 0.5, (3, 1): 1e-6}}, 2, 10)
    with pytest.raises(ValueError, match="symbol level 2 is not diagonal"):
        _diag_levels(sym)


def test_quantum_average_preserves_triangular_eigenvalues():
    # q has only degree-raising off-diagonal terms, so the operator matrix
    # on monomials is triangular and its eigenvalues are the diagonal
    # entries; the reduction must preserve them exactly through h^2
    K, N = 2, 12
    q = graded({0: {(1, 1): 1.0, (2, 2): 0.3},
                1: {(3, 1): 0.2, (2, 2): 0.1},
                2: {(4, 2): -0.4, (1, 1): 0.25}}, K, N)
    q_diag = {k: s.diagonal() for k, s in q.levels.items()}
    G_diag = _diag_levels(_birkhoff(q, K, N)[1])
    for n in range(5):
        want = eigen_levels(q_diag, K, n)
        got = eigen_levels(G_diag, K, n)
        for lvl in range(K + 1):
            assert abs(got.get(lvl, 0.0) - want.get(lvl, 0.0)) <= 1e-10, \
                (n, lvl)


def test_quantum_average_no_spurious_odd_level():
    q = graded({0: {(1, 1): 1.0, (3, 3): 0.2},
                2: {(2, 2): 0.4}}, 2, 10)
    lvl1 = _diag_levels(_birkhoff(q, 2, 10)[1]).get(1)
    assert lvl1 is None or all(abs(complex(c)) <= 1e-12
                               for c in lvl1.coeffs)


def barrier_levels(p, N, K):
    """The graded barrier symbol xi^2 + V, with h^2 W1, that `qnm_symbol`
    hands to the Birkhoff reduction."""
    W1 = subprincipal_taylor(p, N)
    levels = {0: barrier_symbol(p, N),
              2: Series2({(k, 0): c for k, c in enumerate(W1.coeffs)
                          if c != 0}, N)}
    return HGraded(levels, K)


def test_quantum_average_keeps_principal_level_exactly():
    # the steps at h^ell >= 1 leave the h^0 level as the h^0 pass left it
    for N, K in ((10, 2), (14, 4)):
        sym = barrier_levels(P1, N, K)
        G = _diag_levels(_birkhoff(sym, K, N)[1])
        assert G[0].coeffs == birkhoff_h0(sym, K, N)[1].level(0) \
            .diagonal().coeffs


@pytest.mark.parametrize("lam", [0.0, 0.02])
@pytest.mark.parametrize("N,K", [(16, 4), (17, 4), (20, 2)])
def test_birkhoff_leaves_every_level_diagonal(lam, N, K):
    # level ell is carried to degree N - 2 ell, the part the mode symbol
    # resolves, and comes out diagonal there
    _, sym = _birkhoff(barrier_levels(BlackHoleParams(m=1.0, lam=lam), N, K),
                       K, N)
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
    # with 2j + 2k <= N
    sym = barrier_levels(BlackHoleParams(m=m, lam=lam), N, K)
    got = _diag_levels(_birkhoff(sym, K, N)[1])
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
    # at masses where the barrier's quadratic form is tiny
    G1 = qnm_symbol(BlackHoleParams(m=1.0), degree=10, h_order=2)
    for m in (2.0, 1e3, 1e4):
        G2 = qnm_symbol(BlackHoleParams(m=m), degree=10, h_order=2)
        for k in G1.levels:
            a = G1.level(k)
            b = G2.level(k)
            for c1, c2 in zip(a.coeffs, b.coeffs):
                assert abs(complex(c2) - complex(c1) / m) \
                    <= 1e-10 * max(abs(complex(c1)), 1e-12)


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


def test_qnm_symbol_degree_guard():
    with pytest.raises(ValueError):
        qnm_symbol(P1, degree=6, h_order=2)


@pytest.mark.parametrize("m,lam", [(1.0, 0.0), (1.0, 0.02), (2.5, 0.0)])
@pytest.mark.parametrize("N", [10, 14])
def test_qnm_symbol_leading_level_is_classical_normal_form(m, lam, N):
    # both run the one Birkhoff reduction: G_0(x)^2 = E0 + g(mu * SPECTRAL_ARG
    # * x) with g, mu the Vey-normalized classical normal form
    p = BlackHoleParams(m=m, lam=lam)
    E0 = critical_data(p).E0
    G0 = qnm_symbol(p, N, h_order=0).level(0)
    nf = classical_bnf(barrier_symbol(p, N), N)
    want = [E0 * (k == 0) + complex(c) * (nf.mu * SPECTRAL_ARG) ** k
            for k, c in enumerate(nf.g.coeffs)]
    got = (G0 * G0).coeffs
    assert len(got) == len(want) == N // 2 + 1
    for k, (a, b) in enumerate(zip(got, want)):
        assert abs(complex(a) - b) <= 1e-13 * E0, k
