"""Unit tests for the mode lattice, sector counting, and the cubic law."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnmlattice.series import HGraded, Series1
from qnmlattice.potentials import BlackHoleParams
from qnmlattice.normalform import qnm_symbol
from qnmlattice import catalog
from qnmlattice.catalog import (asymptotic_check, counting_constant,
                                eval_symbol, lattice, validity_radius)

from reference import (count_walk, eval_symbol_polyval, polyval_ascending,
                       validity_radius_bisect80)

P1 = BlackHoleParams(m=1.0)


def g_symbol(p=P1, degree=10):
    return qnm_symbol(p, degree=degree, h_order=2)


def test_asymptotic_check_validates_sector():
    G = g_symbol()
    with pytest.raises(ValueError):
        asymptotic_check(P1, G, 0.1, [0.5, 10.0])
    with pytest.raises(ValueError):
        asymptotic_check(P1, G, 0.0, [10.0])
    with pytest.raises(ValueError):
        asymptotic_check(P1, G, 0.4, [10.0])
    # an ell range above MAX_ELL is refused before the search: at m = 1,
    # |G(0)| = 0.19, so r = 2e5 counts ell up to 1.04e6
    with pytest.raises(ValueError, match="above %d" % catalog.MAX_ELL):
        asymptotic_check(P1, G, 0.1, [10.0, 2e5])
    # refused as not finite, before the order check that nan fails too
    for r_list in ([math.nan], [50.0, math.nan], [50.0, math.inf],
                   [-math.inf, 50.0]):
        with pytest.raises(ValueError, match="sector radius must be finite"):
            asymptotic_check(P1, G, 0.05, r_list)


def test_validity_radius_linear_symbol():
    # G0 = 1 + 0.01 x: top term reaches 5% of the total at x ~ 5.26
    g0 = Series1([1.0, 0.01], 1)
    rad = validity_radius(g0)
    x = rad
    assert abs(0.01 * x - 0.05 * abs(1.0 + 0.01 * x)) <= 1e-10


def test_validity_radius_constant_is_infinite():
    assert validity_radius(Series1([2.0], 0)) == math.inf


def test_validity_radius_equals_full_bisection():
    # the bisection stops once its midpoint meets an end, where no later
    # step moves lo: the same float as all 80 steps on the bench symbols,
    # lattice's (20,2), (16,4), (18,4) and count's (10,2) at each lambda,
    # at h-level 0 and at each nonzero level above it
    syms = [qnm_symbol(P1, N, K) for N, K in ((20, 2), (16, 4), (18, 4))]
    syms += [qnm_symbol(BlackHoleParams(m=1.0, lam=lam), 10, 2)
             for lam in (0.0, 0.01, 0.02)]
    for G in syms:
        for lvl in G.levels.values():
            if any(lvl.coeffs):
                assert validity_radius(lvl) == validity_radius_bisect80(lvl)
    assert math.isfinite(validity_radius(syms[0].levels[0]))


def test_eval_symbol_matches_manual_sum():
    G = g_symbol()
    h = 0.25
    x = 1.3
    want = 0.0
    for k, lvl in G.levels.items():
        want += sum(complex(c) * x ** j
                    for j, c in enumerate(lvl.coeffs)) * h ** k
    got = complex(eval_symbol(G, x, h))
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("lam", [0.0, 0.02])
@pytest.mark.parametrize("degree,K",
                         [(20, 2), (16, 4), (18, 4), (10, 2), (28, 10)])
def test_eval_symbol_bitwise_equals_polyval(degree, K, lam):
    # the Horner loop runs np.polyval's float operations in its order
    p = BlackHoleParams(m=1.0, lam=lam)
    G = qnm_symbol(p, degree=degree, h_order=K)
    rad = validity_radius(G.levels[0])
    xs = np.linspace(0.0, 1.5 * rad, 97)
    for h in (1.0 / 1.5, 1.0 / 12.5, 0.0):
        got = eval_symbol(G, xs, h)
        want = eval_symbol_polyval(G, xs, h)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for x in (xs[5], float(xs[40]), np.asarray(xs[96]), 0):
            got = eval_symbol(G, x, h)
            assert type(got) is complex
            assert np.complex128(got).tobytes() == \
                eval_symbol_polyval(G, x, h).tobytes()
    # an array h, as the count passes one h per ell
    ells = np.arange(1, 300)
    h = 1.0 / (ells + 0.5)
    x = 2.0 * math.pi * 2.5 * h
    assert eval_symbol(G, x, h).tobytes() == \
        eval_symbol_polyval(G, x, h).tobytes()


@pytest.mark.parametrize("degree,K", [(20, 2), (16, 4), (18, 4)])
def test_eval_symbol_scalar_equals_array_on_bench_points(degree, K):
    # the lattice benchmark's points, x = 2 pi (n + 1/2) h for ell 1..32
    # and n = 0..4 within the validity radius, one Python float at a time
    # against one array per ell, byte for byte
    G = qnm_symbol(BlackHoleParams(m=1.0), degree=degree, h_order=K)
    rad = validity_radius(G.levels[0])
    for ell in range(1, 33):
        h = 1.0 / (ell + 0.5)
        xs = [x for x in (2.0 * math.pi * (n + 0.5) * h for n in range(5))
              if x <= rad]
        got = [eval_symbol(G, x, h) for x in xs]
        assert all(type(v) is complex for v in got)
        assert np.array(got, complex).tobytes() == \
            eval_symbol(G, np.array(xs), h).tobytes(), ell


@pytest.mark.parametrize("lam", [0.0, 0.01, 0.02])
def test_counting_constant_unchanged_by_horner(monkeypatch, lam):
    p = BlackHoleParams(m=1.0, lam=lam)
    G0 = qnm_symbol(p, degree=10, h_order=2).levels[0]
    ts = (0.01, 0.05, 0.1, 0.3)
    got = [counting_constant(t, p, G0)[0] for t in ts]
    # the arg crossing by the np.polyval route, grid and bisection alike
    monkeypatch.setattr(catalog, "_horner", polyval_ascending)
    assert got == [counting_constant(t, p, G0)[0] for t in ts]


def test_asymptotic_check_bisects_validity_radius_once(monkeypatch):
    G = g_symbol()
    want = asymptotic_check(P1, G, 0.1, [5.0, 10.0])
    calls = []

    def counted(G0):
        calls.append(G0)
        return validity_radius(G0)

    monkeypatch.setattr(catalog, "validity_radius", counted)
    assert asymptotic_check(P1, G, 0.1, [5.0, 10.0]) == want
    assert calls == [G.levels[0]]


def walk(G, ell_max, r, t):
    """(ell, n) -> lam for the walker's modes with |lam| <= r, arg > -t."""
    rad = validity_radius(G.levels[0])
    return {(ell, n): complex(lam)
            for ell in range(1, ell_max + 1)
            for n, lam in enumerate(lattice(G, ell, rad))
            if abs(lam) <= r and np.angle(lam) > -t}


def test_lattice_leading_order_positions():
    # lam ~ ((l+1/2) - i(n+1/2)) (1-9 Lam m^2)^{1/2} / (3 sqrt3 m)
    G = g_symbol()
    modes = walk(G, 6, 4.0, 0.3)
    assert modes
    s27 = 3.0 * math.sqrt(3.0)
    for (ell, n), lam in modes.items():
        approx = complex(ell + 0.5, -(n + 0.5)) / s27
        # expansion parameter is (n+1/2)/(l+1/2)
        tol = 0.35 * (n + 0.5) / (ell + 0.5) + 0.01
        assert abs(lam - approx) <= tol * abs(approx), (ell, n)


def test_lattice_walk_stops_at_validity_radius_and_n_max():
    G = g_symbol()
    rad = validity_radius(G.levels[0])
    for ell in (1, 4, 9):
        h = 1.0 / (ell + 0.5)
        lams = lattice(G, ell, rad)
        xs = 2.0 * math.pi * (np.arange(lams.size + 1) + 0.5) * h
        assert np.all(xs[:-1] <= rad) and xs[-1] > rad
        for n, lam in enumerate(lams):
            want = complex(eval_symbol(G, xs[n], h)) / h
            assert abs(lam - want) <= 1e-15 * abs(want)
        assert np.array_equal(lattice(G, ell, rad, n_max=2), lams[:3])
        assert lattice(G, ell, 0.1).size == 0


def test_lattice_reference_mode_ell2():
    # fundamental l = 2 mode from the quartic leading symbol, evaluated
    # straight from the rule (it has |lam| < 1, below the sector floor
    # used for counting)
    G = g_symbol(degree=8)
    h = 1.0 / 2.5
    x = 2.0 * math.pi * 0.5 * h
    lam = complex(sum(complex(c) * x ** j
                      for j, c in enumerate(G.levels[0].coeffs))) / h
    assert abs(lam - complex(0.4785, -0.0965)) <= 2e-4


def test_lattice_de_sitter_scaling():
    lam9 = 0.3
    p = BlackHoleParams(m=1.0, lam=lam9 / 9.0)
    G = qnm_symbol(p, degree=10, h_order=2)
    modes = walk(G, 5, 3.0, 0.25)
    fac = math.sqrt(1.0 - lam9)
    s27 = 3.0 * math.sqrt(3.0)
    for (ell, n), lam in modes.items():
        if n == 0:
            approx = complex(ell + 0.5, -0.5) * fac / s27
            assert abs(lam - approx) <= 0.05 * abs(approx), ell


def test_lattice_coverage_gaps():
    # a symbol whose arg reaches -0.3 close to its validity radius (~9.98):
    # the walks of ell = 1 and 2 end at the radius still inside the wedge
    G = HGraded({0: Series1([1.0, -0.036j, 5.6e-4], 2)}, 0)
    rad = validity_radius(G.levels[0])
    assert [np.angle(lattice(G, ell, rad)[-1]) > -0.3
            for ell in range(1, 5)] == [True, True, False, False]
    rows = asymptotic_check(P1, G, 0.3, [1.0, 3.0])
    assert [row["coverage_gaps"] for row in rows] == [2, 2]
    # validity radius ~1.62 < pi h at ell = 1, which so has no mode at all;
    # ell = 2, 3 end inside the wedge of t = 0.05
    G = HGraded({0: Series1([1.0, -0.036j, 0.02], 2)}, 0)
    assert lattice(G, 1, validity_radius(G.levels[0])).size == 0
    rows = asymptotic_check(P1, G, 0.05, [1.0])
    assert rows[0]["coverage_gaps"] == 3


@pytest.mark.parametrize("lam", [0.0, 0.02])
def test_lattice_degree_32_extends_degree_28(lam):
    # at l = 20, n <= 20 (x up to 2 pi, inside both validity radii) the
    # degree-32 lattice refines the degree-28 one; rounding in the top
    # Taylor coefficients of the potential would show here first
    p = BlackHoleParams(m=1.0, lam=lam)
    lam32 = lattice(qnm_symbol(p, degree=32, h_order=0), 20, 10.0, 20)
    lam28 = lattice(qnm_symbol(p, degree=28, h_order=0), 20, 10.0, 20)
    assert len(lam32) == 21
    assert np.max(np.abs(lam32 - lam28) / np.abs(lam28)) <= 1e-4


def test_count_weights_multiplicity():
    # G = 2 - 0.001i x: lam = (2 ell + 1)(1 - 0.0005i x), so |lam| exceeds
    # 2 ell + 1 by less than 0.2%, and arg lam > -0.04 iff x < 80.04; that
    # leaves 19 modes (n <= 18) at ell = 1 and 32 (n <= 31) at ell = 2
    G = HGraded({0: Series1([2.0, -0.001j], 1)}, 0)
    rows = asymptotic_check(P1, G, 0.04, [4.0, 6.0])
    assert [row["count"] for row in rows] == [3 * 19, 3 * 19 + 5 * 32]
    assert [row["coverage_gaps"] for row in rows] == [0, 0]


def test_counting_constant_positive_and_linear_in_small_t():
    G = g_symbol()
    g0 = G.levels[0]
    c1 = counting_constant(0.01, P1, g0)[0]
    c2 = counting_constant(0.02, P1, g0)[0]
    assert c1 > 0
    # arg G0 decreases approximately linearly near x = 0, so c ~ t
    assert abs(c2 / c1 - 2.0) <= 0.05


def test_counting_constant_small_t_closed_form():
    # for small t the crossing is at x ~ 2 pi t (unit slope of -arg G0),
    # giving c ~ 2 * 3^{3.5} m^3 t / (1 - 9 Lam m^2)^{3/2}
    G = g_symbol()
    t = 0.003
    c = counting_constant(t, P1, G.levels[0])[0]
    want = 2.0 * 3.0 ** 3.5 * t
    assert abs(c - want) <= 0.02 * want


def test_counting_constant_rejects_bad_t():
    g0 = g_symbol().levels[0]
    with pytest.raises(ValueError):
        counting_constant(0.0, P1, g0)
    with pytest.raises(ValueError):
        counting_constant(0.5, P1, g0)


def test_asymptotic_ratio_tends_to_one():
    G = g_symbol()
    rows = asymptotic_check(P1, G, 0.05, [50.0, 100.0, 200.0])
    assert [row["r"] for row in rows] == [50.0, 100.0, 200.0]
    devs = [abs(row["ratio"] - 1.0) for row in rows]
    assert devs[-1] <= 0.02
    assert all(row["coverage_gaps"] == 0 for row in rows)
    # counts grow like r^3
    assert rows[-1]["count"] > 6.0 * rows[-2]["count"]


def test_asymptotic_ratio_de_sitter():
    p = BlackHoleParams(m=1.0, lam=0.02)
    G = qnm_symbol(p, degree=10, h_order=2)
    rows = asymptotic_check(p, G, 0.05, [100.0])
    assert abs(rows[0]["ratio"] - 1.0) <= 0.05


def test_asymptotic_check_requires_sorted_radii():
    G = g_symbol()
    with pytest.raises(ValueError):
        asymptotic_check(P1, G, 0.05, [100.0, 50.0])


def test_count_consistency_lattice_vs_arithmetic():
    # asymptotic_check against a scalar enumeration of the lattice rule:
    # for each ell every n up to the first mode outside the arg wedge;
    # ell stops once three in a row have modes in the wedge but none
    # with |lam| <= r.  At lam = 0.01 the validity radius is about 75,
    # far past the arg crossing near x = 0.31.
    t = 0.05
    for p in (P1, BlackHoleParams(m=1.0, lam=0.01)):
        G = g_symbol(p)
        rad = validity_radius(G.levels[0])
        for r in (12.0, 30.0):
            want = 0
            ell, idle = 1, 0
            while idle < 3:
                h = 1.0 / (ell + 0.5)
                mags = []
                n = 0
                while 2.0 * math.pi * (n + 0.5) * h <= rad:
                    x = 2.0 * math.pi * (n + 0.5) * h
                    lam = sum(complex(c) * x ** j * h ** k
                              for k, lvl in G.levels.items()
                              for j, c in enumerate(lvl.coeffs)) / h
                    if math.atan2(lam.imag, lam.real) <= -t:
                        break
                    mags.append(abs(lam))
                    n += 1
                want += (2 * ell + 1) * sum(1.0 <= a <= r for a in mags)
                idle = idle + 1 if mags and min(mags) > r else 0
                ell += 1
            rows = asymptotic_check(p, G, t, [r])
            assert rows[0]["count"] == want > 0, (p.lam, r)
            assert rows[0]["coverage_gaps"] == 0


def test_count_stops_each_ell_at_first_mode_outside_wedge():
    # G0 = 1 + 1e-6 x^3 + i(0.01 x^2 - 0.1 x): arg G0 <= -0.1 only on
    # about (1.13, 8.87), and the validity radius is about 490.  ell = 1, 2
    # start outside the wedge, ell = 3 has one mode (n = 0) before it
    # leaves, and ell >= 4 have none within |lam| <= 4.  The modes past
    # x = 8.87 are back inside the wedge but are not counted, and no ell
    # reaches the validity radius inside the wedge, so there is no gap.
    G = HGraded({0: Series1([1.0, -0.1j, 0.01j, 1e-6], 3)}, 0)
    t = 0.1
    rad = validity_radius(G.levels[0])
    assert 400.0 < rad < 600.0
    returning = 0
    for ell in (1, 2, 3):
        lams = lattice(G, ell, rad)
        out = np.angle(lams) <= -t
        first = int(np.argmax(out))
        assert out[first] and not out[-1]
        back = lams[first:][~out[first:]]
        returning += np.count_nonzero((np.abs(back) >= 1.0)
                                      & (np.abs(back) <= 4.0))
    assert returning > 0
    rows = asymptotic_check(P1, G, t, [4.0])
    assert rows[0]["count"] == 7
    assert rows[0]["coverage_gaps"] == 0


def test_count_bisects_with_few_symbol_evaluations(monkeypatch):
    # the count bench config at lam = 0.01 (validity radius about 75, far
    # past the arg crossing near x = 0.31): the walk in n makes 111 calls
    # on 121 000 points, the bisections 11 on about 6 500
    p = BlackHoleParams(m=1.0, lam=0.01)
    G = g_symbol(p)
    evals = []

    def counted(G, x, h):
        evals.append(np.size(x))
        return eval_symbol(G, x, h)

    monkeypatch.setattr(catalog, "eval_symbol", counted)
    rows = asymptotic_check(p, G, 0.05, [50.0, 100.0, 200.0, 400.0])
    assert all(row["coverage_gaps"] == 0 for row in rows)
    assert len(evals) <= 20
    assert sum(evals) <= 10_000


def assert_count_is_walk(p, G, t, r_list):
    """asymptotic_check gives the walk's rows, or refuses as it does."""
    try:
        want = count_walk(p, G, t, r_list)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            asymptotic_check(p, G, t, r_list)
    else:
        assert asymptotic_check(p, G, t, r_list) == want


@pytest.mark.parametrize("lam,t,r_list", [
    # the count bench configs
    (0.0, 0.05, [50.0, 100.0, 200.0, 400.0]),
    (0.01, 0.05, [50.0, 100.0, 200.0, 400.0]),
    (0.02, 0.05, [50.0, 100.0, 200.0, 400.0]),
    # the README command, and acceptance test 5
    (0.0, 0.05, [50.0, 100.0, 200.0]),
    (0.0, 0.05, [50.0, 100.0, 200.0, 2000.0]),
    (0.02, 0.05, [50.0, 100.0, 200.0, 2000.0]),
])
def test_count_equals_walk(lam, t, r_list):
    p = BlackHoleParams(m=1.0, lam=lam)
    assert_count_is_walk(p, g_symbol(p), t, r_list)


@pytest.mark.parametrize("coeffs,t,r_list", [
    # re-enters the wedge past its exit
    ([1.0, -0.1j, 0.01j, 1e-6], 0.1, [4.0]),
    # coverage gaps, one of them an ell without any mode
    ([1.0, -0.036j, 5.6e-4], 0.3, [1.0, 3.0]),
    ([1.0, -0.036j, 0.02], 0.05, [1.0]),
    # |lam| just above 2 ell + 1
    ([2.0, -0.001j], 0.04, [4.0, 6.0]),
])
def test_count_equals_walk_on_synthetic_symbols(coeffs, t, r_list):
    G = HGraded({0: Series1(coeffs, len(coeffs) - 1)}, 0)
    assert_count_is_walk(P1, G, t, r_list)


@settings(max_examples=40, deadline=None)
@given(lam=st.one_of(st.just(0.0), st.floats(1e-6, 0.1)),
       t=st.floats(0.0, 0.3, exclude_min=True),
       degree_k=st.sampled_from([(10, 2), (10, 0), (20, 2), (12, 1),
                                 (16, 2), (8, 0)]),
       radii=st.lists(st.floats(1.0, 300.0), min_size=1, max_size=4))
def test_count_equals_walk_hypothesis(lam, t, degree_k, radii):
    p = BlackHoleParams(m=1.0, lam=lam)
    G = qnm_symbol(p, degree=degree_k[0], h_order=degree_k[1])
    assert_count_is_walk(p, G, t, sorted(radii))


@pytest.mark.parametrize("coeffs,r_list", [
    # G0 = 1 - (0.1 + 0.01i) x + 1e-7 x^3: |G0| falls from 1 while arg G0
    # stays above -0.1 up to x ~ 5 (validity radius ~214); the search for
    # the wedge exit sees it
    ([1.0, -0.1 - 0.01j, 0.0, 1e-7], [1.0, 3.0]),
    # G0 = 1 + (1 - 0.1017i) x - x^2 / 2 + 1e-9 x^5: |G0| peaks at 1.50
    # near x = 1 and falls to 1.43 at the arg crossing x = 1.40, above its
    # value at the first mode of every ell with two modes in the wedge;
    # only the radius searches see it, and without their check the count
    # at r = 24 is 878, where the walk gives 845
    ([1.0, 1.0 - 0.1017j, -0.5, 0.0, 0.0, 1e-9], [1.0, 24.0]),
])
def test_count_refuses_lam_decreasing_inside_wedge(coeffs, r_list):
    # |lam| decreases in n inside the wedge, against the order the
    # count's bisections rest on
    G = HGraded({0: Series1(coeffs, len(coeffs) - 1)}, 0)
    with pytest.raises(RuntimeError,
                       match="decreases in n inside the wedge at ell = "):
        asymptotic_check(P1, G, 0.1, r_list)


def test_nonfinite_walk_radius_is_refused():
    G = g_symbol()
    for rad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            lattice(G, 2, rad)
    # a constant G0 has an infinite validity radius: refused before any
    # grid is built (no RuntimeWarning) and before the n-walk starts
    const = HGraded({0: Series1([2.0], 0)}, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            counting_constant(0.05, P1, const.levels[0])
        with pytest.raises(ValueError, match="not finite"):
            asymptotic_check(P1, const, 0.05, [10.0])


def test_lattice_recomputable():
    G = g_symbol()
    rad = validity_radius(G.levels[0])
    for ell in range(1, 9):
        assert np.array_equal(lattice(G, ell, rad), lattice(G, ell, rad))
