"""Unit tests for potentials, tortoise coordinates, and barrier data.

Below `BlackHoleParams` the package works in units of the mass and takes
the hole as lam = lambda m^2; the tests of those functions run there.  A
mass enters at the `potential` command, whose table is checked at masses
other than 1 against oracles at the given mass, and through `unit_x`.
"""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.special

from qnmlattice import cli
from qnmlattice.potentials import (_ARRAY, _SCALAR, BlackHoleParams,
                                   _barrier_series, _chart, _log1p,
                                   alpha_squared, critical_data,
                                   horizon_roots, inverse_tortoise,
                                   inverse_tortoise_ray, potential_from_r,
                                   shifted_potential_taylor,
                                   subprincipal_taylor)

from reference import (barrier_series_rebuild, barrier_taylor_mp,
                       inverse_tortoise_homotopy, inverse_tortoise_mp,
                       _lam_digits, _roots_mp, inverse_tortoise_rk4,
                       inverse_tortoise_wright, tortoise)

# lam m^2 across the band where the cosmological horizon lies far out,
# near sqrt(3/lam): from the subnormal edge through a solar-mass hole in
# our universe (2e-46) to where the horizons' cancelling log terms once
# failed the continuation (below about 1e-11)
BAND = [5e-324, 1e-300, 1e-61, 2e-46, 1e-40, 1e-20, 1e-12]


def W0(x, lam):
    """W0 at real tortoise coordinates x (scalar or array), unit mass."""
    w0, _ = potential_from_r(*inverse_tortoise(x, lam), lam, 1.0)
    return w0.real if np.ndim(x) else float(w0.real)


def r_of(x, lam):
    """r(x) at real tortoise coordinates x, a float for a scalar x."""
    r = inverse_tortoise(x, lam)[0].real
    return r if np.ndim(x) else float(r)


def unit_x(x, m, lam=0.0):
    """The tortoise coordinate x of the hole (m, lam/m^2) in units of m,
    as the `potential` command solves it: x/m, less 2 log m at lam = 0,
    where the package's chart at mass m is log(r - 2m)."""
    return np.asarray(x) / m - (2.0 * math.log(m) if lam == 0 else 0.0)


def potential_table(m, lam, x_min=-20.0, x_max=40.0, x_points=121):
    """The columns x, W0 and W1 of the `potential` command's table."""
    cfg = dict(cli.DEFAULTS, m=m, x_min=x_min, x_max=x_max,
               x_points=x_points)
    cfg["lambda"] = lam
    cli._check_config(cfg, "potential")
    rows = [[float(v) for v in line.split(",")]
            for line in cli.cmd_potential(cfg).splitlines()[2:]]
    return np.array(rows).T


def test_params_validation():
    with pytest.raises(ValueError):
        BlackHoleParams(m=-1.0)
    with pytest.raises(ValueError):
        BlackHoleParams(m=1.0, lam=1.0 / 9.0)
    BlackHoleParams(m=1.0, lam=0.11)  # just subextremal
    for m, lam in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan),
                   (1.0, math.inf)):
        with pytest.raises(ValueError):
            BlackHoleParams(m=m, lam=lam)


def test_alpha_squared_horizon_and_barrier():
    assert alpha_squared(2.0, 0.0) == 0.0
    assert abs(alpha_squared(3.0, 0.0) - 1.0 / 3.0) <= 1e-15


def test_alpha_squared_vanishes_at_computed_roots():
    for r in horizon_roots(0.03):
        assert abs(alpha_squared(r, 0.03)) <= 1e-12


def test_horizon_roots_small_lambda_limit():
    for lam in (1e-6, 1e-4):
        assert abs(horizon_roots(lam)[1] - 2.0) <= 20.0 * lam


def test_horizon_roots_extremal_degeneration():
    _, r_minus, r_plus = horizon_roots(0.999 / 9.0)
    assert abs(r_minus - 3.0) < 0.2
    assert abs(r_plus - 3.0) < 0.2


def test_horizon_roots_vieta():
    lam = 0.04
    rs = horizon_roots(lam)
    assert abs(sum(rs)) <= 1e-12 * max(abs(r) for r in rs)
    pairwise = rs[0] * rs[1] + rs[0] * rs[2] + rs[1] * rs[2]
    assert abs(pairwise - (-3.0 / lam)) <= 1e-12 * abs(3.0 / lam)
    assert abs(rs[0] * rs[1] * rs[2] - (-6.0 / lam)) <= 1e-12 * abs(6.0 / lam)


@pytest.mark.parametrize("lam", BAND + [0.02, 0.11110810840027086,
                                        0.1111111111111])
def test_horizon_roots_and_residues_match_mpmath(lam):
    # the roots within 2 ulp of mpmath's, and the chart's slopes dx/dv at
    # v -> -inf and +inf against the residues c_minus and -c_plus, and its
    # alpha^2 at the barrier top against (1 - 9 lam)/3.  At the subnormal
    # lam, lam/3 underflows to 0, (r_minus - r0)(r_plus - r0) overflows
    # and 2/r_plus**2 raises OverflowError, so the chart forms none of
    # them.  Next to extremality (1 - 9 lam = 2.7e-5 and 1e-13) the
    # rounding of r_plus - r_minus = D, about 3 eps/D relative, sets the
    # bound
    _, roots = _roots_mp(lam, 40 + _lam_digits(lam))
    for got, (a, _, _) in zip(horizon_roots(lam), roots):
        assert abs(got - a) <= 4.5e-16 * abs(a), (got, a)
    _, c_minus, c_plus = (float(c) for _, c, _ in roots)
    tol = 1e-15 * (1.0 + 3.0 / float(roots[2][0] - roots[1][0]))
    ch = _chart(lam)
    _, _, dv_dx, _ = ch.at(np.array([-800.0, 800.0], dtype=complex), _ARRAY)
    assert abs(1.0 / dv_dx[0].real - c_minus) <= tol * c_minus
    assert abs(1.0 / dv_dx[1].real + c_plus) <= tol * -c_plus
    r, _, _, a2 = ch.at(complex(ch.v3), _SCALAR)
    with mpmath.workdps(40):
        want = float((1 - 9 * mpmath.mpf(lam)) / 3)
    assert abs(r - 3.0) <= 1e-15 and abs(a2 - want) <= tol * want


def test_chart_log1p_matches_mpmath():
    # numpy's complex log1p is log(1 + w), which loses w below eps:
    # np.log1p(1e-30+1e-31j) is 1e-31j.  The chart's 2 atanh(w/(2 + w))
    # keeps full relative precision for |w| <= 1, with numpy's arctanh
    # on arrays and cmath's atanh on scalars, up to log1p's own condition
    # number |w/(1 + w)|/|log1p(w)|, 145 at w = -0.999
    rng = np.random.default_rng(7)
    w = np.concatenate([
        [1e-30 + 1e-31j, -1e-300 + 0j, 0.5j, 1.0, -0.999, 1e-8 - 3e-9j],
        np.exp(1j * rng.uniform(-np.pi, np.pi, 60)) * np.geomspace(
            1e-20, 0.99, 60)])
    want = np.array([complex(mpmath.log1p(mpmath.mpc(v))) for v in w])
    got = _log1p(w, np.arctanh)
    one = np.array([_log1p(complex(v), cmath.atanh) for v in w])
    tol = 4e-16 * np.maximum(np.abs(want), np.abs(w / (1.0 + w)))
    for have in (got, one):
        assert np.all(np.abs(have - want) <= tol)


def test_tortoise_residue_signs():
    # the residues c0 > 0 and c_minus > 0 > c_plus make the chart's x(v)
    # increasing and convex, its slope dx/dv rising from c_minus at
    # v -> -inf to -c_plus at v -> +inf
    _, roots = _roots_mp(0.05, 30)
    c0, c_minus, c_plus = (c for _, c, _ in roots)
    assert c0 > 0 and c_minus > 0 > c_plus
    _, x, dv_dx, _ = _chart(0.05).at(np.linspace(-40.0, 40.0, 801)
                                     .astype(complex), _ARRAY)
    dx_dv = 1.0 / dv_dx.real
    assert np.all(np.diff(x.real) > 0)
    assert np.all(np.diff(dx_dv) >= -4e-16 * dx_dv[1:])


def test_tortoise_closed_form_points():
    assert abs(tortoise(4.0, 0.0) - (4.0 + 2.0 * math.log(2.0))) <= 1e-14
    assert abs(tortoise(3.0, 0.0) - 3.0) <= 1e-14


def test_tortoise_round_trip_lambda_zero():
    for r in np.geomspace(2.0 + 1e-6, 50.0, 100):
        x = tortoise(float(r), 0.0)
        assert abs(r_of(x, 0.0) - r) <= 1e-12 * max(1.0, r)
    # far out, where e^{x/2} overflows a double
    for x in (1500.0, 2000.0):
        assert abs(tortoise(r_of(x, 0.0), 0.0) - x) <= 1e-13 * x


@pytest.mark.parametrize("m", [1e-8, 1.0, 900.0])
def test_inverse_tortoise_lambda_zero_matches_wright_omega_oracle(m):
    # r(x) of the hole of mass m is m r(unit_x(x)): the unit-mass solve on
    # the points `potential` gives it at mass m, against Wright omega at m
    xs = m * np.array([-800.0, -60.0, -5.0, 0.0, 3.0, 40.0, 1e4, 1e8])
    r = m * r_of(unit_x(xs, m), 0.0)
    ref = inverse_tortoise_wright(xs, m)
    assert np.all(np.abs(r - ref) <= 1e-14 * ref), np.abs(r / ref - 1.0)
    assert [m * r_of(float(x), 0.0) for x in unit_x(xs, m)] == list(r)
    # across the barrier top x(3), where the seed switches from the
    # asymptote r = 2 + e^(x/2 - 1) to r = x
    near = tortoise(3.0, 0.0) \
        + np.array([-1.0, -1e-9, -1e-12, 1e-12, 1e-9, 1.0])
    ref = inverse_tortoise_wright(near, 1.0)
    assert np.all(np.abs(r_of(near, 0.0) - ref) <= 1e-14 * ref)
    # further in, (r - 2)/2 = omega ~ e^(x/2 - 1)/2 underflows to 0; r is
    # 2 there, not NaN
    deep_x = m * np.array([-1600.0, -1e5, -1e300])
    deep = m * r_of(unit_x(deep_x, m), 0.0)
    assert np.array_equal(deep, np.full(3, 2.0 * m))
    assert np.array_equal(deep, inverse_tortoise_wright(deep_x, m))


def test_tortoise_round_trip_lambda_positive():
    _, lo, hi = horizon_roots(0.02)
    rs = lo + np.geomspace(1e-5, 0.999, 100) * (hi - lo)
    xs = np.array([tortoise(float(r), 0.02) for r in rs])
    for r, x in zip(rs, xs):
        assert abs(r_of(x, 0.02) - r) <= 1e-12 * max(1.0, r)
    back = r_of(xs, 0.02)
    assert back.shape == rs.shape
    assert np.all(np.abs(back - rs) <= 1e-12 * np.maximum(1.0, rs))


def test_inverse_tortoise_array_matches_scalar_calls():
    # 121 points from r - r_minus ~ 1e-15 to r_plus - r ~ 1e-14
    lam = 0.02
    _, r_minus, r_plus = horizon_roots(lam)
    xs = np.linspace(-80.0, 250.0, 121)
    r = r_of(xs, lam)
    one = np.array([r_of(float(x), lam) for x in xs])
    with mpmath.workdps(40):
        ref = np.array([float(inverse_tortoise_mp(
            x, BlackHoleParams(m=1.0, lam=lam))[0]) for x in xs])
    assert np.all(np.abs(r - one) <= 4.0 * np.spacing(one))
    assert np.all(np.abs(r - ref) <= 4.0 * np.spacing(ref))
    assert r.min() - r_minus < 1e-14 and r_plus - r.max() < 1e-13
    # (r, alpha^2) come back complex, of x's shape, with zero imaginary
    # parts
    assert [v.shape for v in inverse_tortoise(1.0, lam)] == [(), ()]
    grid, grid_a2 = inverse_tortoise(xs.reshape(11, 11), lam)
    _, a2 = inverse_tortoise(xs, lam)
    assert grid.shape == grid_a2.shape == (11, 11)
    assert np.array_equal(grid.ravel(), r) and np.array_equal(grid_a2.ravel(),
                                                               a2)
    assert not np.any(grid.imag) and not np.any(grid_a2.imag)


def test_inverse_tortoise_lambda_positive_matches_mpmath_root():
    # at lam m^2 = 0.02 over |x| <= 900m, at the l = 6 quadrature node
    # x = -477m and at x = +-m, which is (m, x) = (10, 10) at m = 10: the
    # unit-mass solve at x/m, times m, against the 40-digit root at m
    for m in (1e-6, 1.0, 10.0, 1e3, 1e8):
        p = BlackHoleParams(m=m, lam=0.02 / m ** 2)
        lam = p.unit_mass().lam
        xs = m * np.concatenate([np.linspace(-900.0, 900.0, 61),
                                 [-477.0, -1.0, 1.0]])
        r = m * r_of(unit_x(xs, m, lam), lam)
        with mpmath.workdps(40):
            ref = np.array([float(inverse_tortoise_mp(x, p)[0]) for x in xs])
        assert np.all(np.abs(r - ref) <= 1e-14 * ref), m


@pytest.mark.parametrize("lam", BAND)
def test_inverse_tortoise_band_matches_mpmath(lam):
    # across the barrier top and out to r = 2 + 1e-217 and r = 1e5, against
    # the root of `inverse_tortoise_mp`, whose horizons are mpmath's own.
    # The chart resolves the distance to the near horizon to about eps |v|
    # relative, and |v| reaches log(r_plus/3), about log(3/lam)/2, while x
    # is rounded to eps |x|, which alpha^2 ~ e^(x/2) near r_minus feels
    eps = np.finfo(float).eps
    xs = tortoise(3.0, lam) + np.concatenate(
        [np.linspace(-100.0, 100.0, 41), [-1000.0, -400.0, -1e-9, 1e-9,
                                          1e3, 1e5]])
    r, a2 = inverse_tortoise(xs, lam)
    with mpmath.workdps(30):
        ref = np.array([[float(v) for v in inverse_tortoise_mp(
            x, BlackHoleParams(m=1.0, lam=lam))] for x in xs]).T
    tol = eps * (8.0 - 0.5 * math.log(lam) + np.abs(xs))
    assert np.all(np.abs(r.real - ref[0]) <= tol * ref[0])
    assert np.all(np.abs(a2.real - ref[1]) <= 2.0 * tol * ref[1])


@pytest.mark.parametrize("m", [1e-8, 1.0, 900.0])
@pytest.mark.parametrize("lam", [0.0, 0.02])
def test_inverse_tortoise_equals_homotopy_on_real_line(m, lam):
    # the real-axis solver is the homotopy at Im x = 0, bit for bit, on
    # the points `potential` solves at mass m for the grids of the Wright
    # omega and mpmath checks above, and at the far points of the
    # mixed-magnitude check below
    far = [-1e300, -1e15, 1e300]
    if lam == 0:
        xs = m * np.array([-800.0, -60.0, -5.0, 0.0, 3.0, 40.0, 1e4, 1e8,
                           -1600.0, -1e5, -1e300])
        xs = np.concatenate([unit_x(xs, m), tortoise(3.0, lam) + np.array(
            [-1.0, -1e-9, -1e-12, 1e-12, 1e-9, 1.0])])
    else:
        xs = unit_x(m * np.concatenate([np.linspace(-900.0, 900.0, 61),
                                        [-477.0, -1.0, 1.0]]), m, lam)
    xs = np.concatenate([xs, far])
    r, a2 = inverse_tortoise(xs, lam)
    r_ref, a2_ref = inverse_tortoise_homotopy(xs.astype(complex), lam)
    assert np.array_equal(r, r_ref) and np.array_equal(a2, a2_ref)


@pytest.mark.parametrize("lam, xs", [
    pytest.param(0.0, [-1e15, 1.0 + 0.5j], id="0.0-xs0"),
    pytest.param(0.02, [1.0, 1e300], id="0.02-xs1"),
    # next to the barrier top, whose Newton needs more steps than the far
    # points beside it
    pytest.param(0.0, [tortoise(3.0, 0.0) + 1e-12, -1e15, 5.0],
                 id="0.0-xs2"),
    # the same at the points `potential` solves at m = 900 for x(2700)
    # - 9e-10 and 9e10
    pytest.param(0.0, [tortoise(3.0, 0.0) - 1e-12, float(unit_x(9e10, 900.0))],
                 id="0.0-xs3-m900")])
def test_inverse_tortoise_mixed_magnitudes_match_each_point(lam, xs):
    # each point leaves the Newton on its own step: a far point, whose
    # step bound 1e-13 |L| is large, must not end a near point's iteration,
    # nor a slow point prolong a converged one's
    real = [x for x in xs if not complex(x).imag]
    r, a2 = inverse_tortoise(np.array(real), lam)
    for x, ri, a2i in zip(real, r, a2):
        one, one_a2 = inverse_tortoise(x, lam)
        assert ri == one and a2i == one_a2, x
    # the same of the homotopy, the oracle, off the real line too
    r, a2 = inverse_tortoise_homotopy(np.array(xs, dtype=complex), lam)
    for x, ri, a2i in zip(xs, r, a2):
        one, one_a2 = inverse_tortoise_homotopy(np.array([x], dtype=complex),
                                                lam)
        assert ri == one[0] and a2i == one_a2[0], x


def test_inverse_tortoise_complex_is_holomorphic():
    # the march solves dr/dx = alpha^2(r) along the ray: centered
    # differences of r in t equal (1 + i theta) alpha^2(r), with alpha^2
    # as the march returns it
    eps = 1e-5
    for lam in (0.0, 0.02):
        for theta in (0.3, 1.2):
            for t0 in (-4.0, 1.0, 8.0):
                r, a2 = inverse_tortoise_ray(
                    np.array([t0 - eps, t0, t0 + eps]), theta, lam)
                d = (r[2] - r[0]) / (2 * eps)
                want = (1.0 + 1j * theta) * a2[1]
                assert abs(d - want) <= 1e-6 * max(1.0, abs(want)), \
                    (lam, theta, t0)


@pytest.mark.parametrize("theta, lam", [
    (theta, lam) for theta in (0.4, 1.0, 1.6, 2.0) for lam in (0.02, 0.0)]
    + [(2.5, 0.02), (3.0, 0.02)]
    + [(theta, lam) for theta in (0.4, 1.0) for lam in BAND])
def test_inverse_tortoise_complex_matches_rk4_oracle(lam, theta):
    # r(x) along the scaled contour x0 + (1 + i theta) t, |t| <= 25, which
    # covers the quadrature nodes of the l = 8 operator; at lam = 0.02 the
    # contour's r(x) winds around r_plus from theta ~ 2.7 on.  x0 is
    # x(3) to the rounding of |x0|, which reaches 741 at the subnormal lam
    x0 = tortoise(3.0, lam)
    t, r_ref = inverse_tortoise_rk4(1.0, lam, x0, 1.0 + 1j * theta, 25.0,
                                    20000)
    t, r_ref = t[::400], r_ref[::400]
    for r, _ in (inverse_tortoise_homotopy(x0 + (1.0 + 1j * theta) * t, lam),
                 inverse_tortoise_ray(t, theta, lam)):
        assert np.max(np.abs(r - r_ref) / np.abs(r_ref)) <= 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.02])
def test_inverse_tortoise_ray_matches_homotopy(lam):
    # the march and the homotopy on direct's quadrature nodes sigma u_j:
    # the bench grid (l = 4..16, theta = 0.3, 2(160 + 40) nodes) and l = 1
    # at the cap theta = 1.2 with 4000 nodes (N = 1960), where the nodes
    # reach |t| = 378 m and the largest gap |dx| is 2.1 m
    x0 = tortoise(3.0, lam)
    c0 = critical_data(lam) ** 2
    grid = [(ell, 0.3, 400) for ell in range(4, 17)] + [(1, 1.2, 4000)]
    for ell, theta, npts in grid:
        u = scipy.linalg.eigvalsh_tridiagonal(
            np.zeros(npts), np.sqrt(0.5 * np.arange(1, npts)))
        t = c0 ** -0.25 * math.sqrt(1.0 / (ell + 0.5)) * u
        r, a2 = inverse_tortoise_ray(t, theta, lam)
        r_ref, a2_ref = inverse_tortoise_homotopy(
            x0 + (1.0 + 1j * theta) * t, lam)
        assert np.max(np.abs(r - r_ref) / np.abs(r_ref)) <= 1e-13, ell
        assert np.max(np.abs(a2 - a2_ref) / np.abs(a2_ref)) <= 1e-13, ell


@pytest.mark.parametrize("theta, lam", [(4.0, 0.0), (4.1, 0.02)])
def test_inverse_tortoise_complex_leaves_rk4_past_theta_c(lam, theta):
    # past theta_c (3.894 at lam = 0, 4.06 at lam = 0.02 and m = 1), the
    # bound of `ScalingConfig`, the contour's r(x) passes an image of
    # r = 0, where W is singular and complex scaling is no longer valid;
    # on the same contour as above the march of `direct` and RK4 disagree
    # by 1.45 and 1.53 relative there (as the homotopy and RK4 do),
    # against 1.7e-12 at theta = 3
    x0 = tortoise(3.0, lam)
    t, r_ref = inverse_tortoise_rk4(1.0, lam, x0, 1.0 + 1j * theta, 25.0,
                                    20000)
    t, r_ref = t[::400], r_ref[::400]
    r, _ = inverse_tortoise_ray(t, theta, lam)
    assert np.max(np.abs(r - r_ref) / np.abs(r_ref)) > 0.5


def test_inverse_tortoise_complex_failure_raises():
    # the first node 1000 m out at theta = 1: the Euler step from r = 3m
    # lands at Re L = 332, and Newton's steps of about 1 down the
    # exponential do not return within its 40 steps; the march ends there,
    # so the node at 2000 m fails too
    with pytest.raises(RuntimeError,
                       match="tortoise continuation failed at 2 points"):
        inverse_tortoise_ray(np.array([2000.0, 1000.0]), 1.0, 0.0)
    # at 3000 m the seed's e^L overflows, which cmath raises
    with pytest.raises(RuntimeError,
                       match="tortoise continuation failed at 1 points"):
        inverse_tortoise_ray(np.array([-1.0, 3000.0]), 1.0, 0.0)


def mp_potential_W_parts(x, p):
    """W0, W1 at a real x of the hole p, at its mass, from the root of
    `inverse_tortoise_mp`."""
    r, a2 = inverse_tortoise_mp(x, p)
    w0 = a2 / r ** 2
    dalpha2 = 2 * p.m / r ** 2 - 2 * mpmath.mpf(p.lam) * r / 3
    return complex(w0), complex(w0 * (r * dalpha2 - 0.25))


def test_potential_W_parts_near_horizons_mpmath():
    # r - r_horizon between 7.6e-10 and 1.7e-5
    for lam, x in [(0.0, -20.0), (0.0, -40.0), (0.02, -40.0), (0.02, 120.0)]:
        with mpmath.workdps(50):
            want0, want1 = mp_potential_W_parts(
                x, BlackHoleParams(m=1.0, lam=lam))
        got0, got1 = potential_from_r(*inverse_tortoise(np.array([x]), lam),
                                      lam, 1.0)
        assert abs(got0[0] - want0) <= 1e-13 * abs(want0), (lam, x)
        assert abs(got1[0] - want1) <= 1e-13 * abs(want1), (lam, x)


def test_potential_peak_value_and_flatness():
    for lam in (0.0, 0.04):
        E0 = critical_data(lam)
        x0 = tortoise(3.0, lam)
        assert abs(W0(x0, lam) - E0) <= 1e-12 * E0
        d = 1e-4
        fd = (W0(x0 + d, lam) - W0(x0 - d, lam)) / (2 * d)
        assert abs(fd) <= 1e-8


def test_potential_decay():
    assert abs(W0(-60.0, 0.0)) < 1e-8
    # de Sitter decay toward the cosmological horizon is slower (smaller
    # surface gravity), so probe further out
    assert abs(W0(-100.0, 0.02)) < 1e-8
    assert abs(W0(100.0, 0.02)) < 1e-7


def test_critical_data_values():
    assert abs(tortoise(3.0, 0.0) - 3.0) <= 1e-14
    assert abs(critical_data(0.0) - 1.0 / 27.0) <= 1e-16


def test_critical_data_extremal_refusal():
    with pytest.raises(ValueError):
        critical_data((1.0 - 1e-9) / 9.0)


def test_critical_data_near_extremal_sweep():
    # alpha^2(3)/9 sums terms of order 1 that cancel down to
    # E0 = delta/27, delta = 1 - 9 lam, so its consistency check is
    # bounded by their rounding and holds down to the E0 refusal
    for delta in np.concatenate([np.linspace(2.71e-5, 1e-4, 300),
                                 np.geomspace(1e-4, 1.0, 300)]):
        E0 = critical_data((1.0 - delta) / 9.0)
        assert abs(E0 * 27.0 - delta) <= 1e-10, delta


def test_curvature_identity_random_params():
    rng = random.Random(5)
    for _ in range(5):
        lam = rng.uniform(0.0, 0.9) / 9.0
        E0 = critical_data(lam)
        d = 1e-2
        w = W0(tortoise(3.0, lam) + d * np.arange(-2, 3), lam)
        # fourth-order central second difference
        w2 = (-w[0] + 16 * w[1] - 30 * w[2] + 16 * w[3] - w[4]) / (12 * d * d)
        assert abs(-2.0 * w2 - 4.0 * E0 ** 2) <= 1e-8 * 4.0 * E0 ** 2


def _cauchy_taylor(lam, nodes=64):
    """Independent Taylor oracle: the Cauchy integral of W0 - E0 on the
    circle |x - x0| = 2 around the barrier top, by the trapezoid rule
    (an FFT of the node values), divided by rho^j.  Against the 50-digit
    `barrier_taylor_mp` it is within 4e-14 relative for j <= 7."""
    rho = 2.0
    z = rho * np.exp(2j * math.pi * np.arange(nodes) / nodes)
    w0, _ = potential_from_r(
        *inverse_tortoise_homotopy(tortoise(3.0, lam) + z, lam), lam, 1.0)
    c = np.fft.fft(w0) / nodes / rho ** np.arange(nodes)
    c[0] -= critical_data(lam)
    return c


def test_shifted_potential_taylor_structure():
    for lam in (0.0, 0.0225):
        E0 = critical_data(lam)
        V = shifted_potential_taylor(lam, 8)
        assert complex(V.coeffs[0]) == 0
        assert complex(V.coeffs[1]) == 0
        assert abs(complex(V.coeffs[2]) + E0 ** 2) <= 1e-12 * E0 ** 2


def test_shifted_potential_taylor_vs_cauchy_oracle():
    # the two agree to 2e-14 here, so the bound leaves 50x margin
    V = shifted_potential_taylor(0.0, 6)
    oracle = _cauchy_taylor(0.0)
    for j in range(2, 7):
        c = complex(V.coeffs[j])
        assert abs(c - oracle[j]) <= 1e-12 * abs(c), j


def test_subprincipal_taylor_matches_values():
    lam = 0.01
    x0 = tortoise(3.0, lam)
    W1 = subprincipal_taylor(lam, 6)
    for x in (-0.2, 0.0, 0.15):
        _, w1 = potential_from_r(
            *inverse_tortoise(np.array([x0 + x]), lam), lam, 1.0)
        approx = sum(complex(c) * x ** j for j, c in enumerate(W1.coeffs))
        assert abs(approx - complex(w1[0])) <= 1e-6 * abs(w1[0])


@pytest.mark.parametrize("lam", [0.0, 0.02])
def test_barrier_taylor_vs_mpmath_oracle(lam):
    # every coefficient of V and W1 at degree 24 to near double rounding;
    # reverting the tortoise antiderivative in double precision instead
    # loses up to 5e-9 relative in the top coefficients
    N = 24
    V_ref, W1_ref = barrier_taylor_mp(1.0, lam, N)
    V = shifted_potential_taylor(lam, N)
    W1 = subprincipal_taylor(lam, N)
    assert V.trunc_order == W1.trunc_order == N
    for j in range(2, N + 1):
        assert abs(complex(V.coeffs[j]) - V_ref[j]) <= 1e-12 * abs(V_ref[j]), j
    for j in range(N + 1):
        assert abs(complex(W1.coeffs[j]) - W1_ref[j]) \
            <= 1e-12 * abs(W1_ref[j]), j
    # the O(N^2) recurrence does Series1's operations in Series1's order,
    # so it equals the O(N^3) rebuild bit for bit, signed zeros included
    for got, want in zip(_barrier_series(lam, N),
                         barrier_series_rebuild(lam, N)):
        assert list(map(repr, got.coeffs)) == list(map(repr, want.coeffs))


def test_scaling_covariance():
    # the `potential` command's W0 at mass m and x m is the unit-mass W0
    # at x over m^2
    sigma = 0.3
    m = 2.0
    _, w_m, _ = potential_table(m, sigma / (9.0 * m * m), -5.0 * m,
                                10.0 * m, 12)
    _, w_1, _ = potential_table(1.0, sigma / 9.0, -5.0, 10.0, 12)
    assert np.all(np.abs(w_m - w_1 / m ** 2)
                  <= 1e-10 * np.maximum(np.abs(w_1 / m ** 2), 1e-12))


@pytest.mark.parametrize("m", [1e-8, 3.7, 900.0])
@pytest.mark.parametrize("lam", [0.0, 0.02])
def test_potential_table_matches_oracles_at_mass(m, lam):
    # the `potential` command solves at unit mass and forms W at m r:
    # its default table at mass m against W at m from Wright omega at
    # lam = 0 (omega = (r - 2m)/2m: alpha^2 = omega/(1 + omega)) and from
    # the 50-digit root of `inverse_tortoise_mp` at lam > 0, within the
    # unit-mass bound of the mpmath check above
    p = BlackHoleParams(m=m, lam=lam / m ** 2)
    xs, w0, w1 = potential_table(m, p.lam)
    if lam == 0:
        om = scipy.special.wrightomega(xs / (2.0 * m) - 1.0
                                       - math.log(2.0 * m))
        want0 = om / (1.0 + om) / (2.0 * m * (1.0 + om)) ** 2
        want1 = want0 * (1.0 / (1.0 + om) - 0.25)
    else:
        with mpmath.workdps(50):
            want0, want1 = np.array([mp_potential_W_parts(x, p)
                                     for x in xs]).real.T
    assert np.any(want0 > 0)
    assert np.all(np.abs(w0 - want0) <= 1e-13 * np.abs(want0)), (m, lam)
    assert np.all(np.abs(w1 - want1) <= 1e-13 * np.abs(want1)), (m, lam)


def test_potential_far_out_at_small_mass():
    # at m = 1e-10, x = 1e150, r/m = 1e160 and (r/m)^2 overflows while
    # W0 ~ 1/x^2 = 1e-300 is a normal float: W0 is formed at m r, so the
    # table holds W0 and W1 ~ -W0/4, as against Wright omega at m
    m = 1e-10
    xs, w0, w1 = potential_table(m, 0.0, 1e145, 1e150, 2)
    assert list(xs) == [1e145, 1e150]
    r = inverse_tortoise_wright(xs, m)
    want0 = (1.0 - 2.0 * m / r) / r ** 2
    assert np.all(w0 >= np.finfo(float).tiny)
    assert np.all(np.abs(w0 - want0) <= 1e-13 * want0)
    assert np.all(np.abs(w1 - want0 * (2.0 * m / r - 0.25))
                  <= 1e-13 * want0)


def test_barrier_monotonicity():
    # x V'(x) < 0 away from the top: W0 increases up to x0, decreases after
    x0 = tortoise(3.0, 0.0)
    xs = x0 + np.linspace(-6.0, 6.0, 25)
    w = W0(xs, 0.0)
    i0 = np.argmin(np.abs(xs - x0))
    assert np.all(np.diff(w[:i0 + 1]) > 0)
    assert np.all(np.diff(w[i0:]) < 0)


def test_potential_W_h_combination():
    # W = W0 + h^2 W1 with W0 = alpha^2/r^2, W1 = W0 (r alpha^2' - 1/4)
    # at r = r(x) from the real-axis inverse
    lam = 0.01
    x, h = 2.0, 0.25
    r = r_of(x, lam)
    a2 = alpha_squared(r, lam)
    w0 = a2 / r ** 2
    full = w0 * (1.0 + h * h * (r * (2.0 / r ** 2 - 2.0 * lam * r / 3.0)
                                - 0.25))
    arr0, arr1 = potential_from_r(*inverse_tortoise(np.array([x]), lam),
                                  lam, 1.0)
    assert abs(w0 - arr0[0].real) <= 1e-12
    assert abs(full - (arr0[0] + h * h * arr1[0]).real) <= 1e-12
