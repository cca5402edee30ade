"""Unit tests for potentials, tortoise coordinates, and barrier data."""

import math
import random

import mpmath
import numpy as np
import pytest

from qnmlattice.potentials import (BlackHoleParams, _barrier_series,
                                   alpha_squared, critical_data,
                                   horizon_roots,
                                   inverse_tortoise,
                                   inverse_tortoise_complex,
                                   potential_W_parts,
                                   shifted_potential_taylor,
                                   subprincipal_taylor, tortoise)

from reference import (barrier_series_rebuild, barrier_taylor_mp,
                       inverse_tortoise_mp, inverse_tortoise_rk4,
                       inverse_tortoise_wright)

P1 = BlackHoleParams(m=1.0)


def W0(x, p):
    """W0 at real tortoise coordinates x (scalar or array)."""
    w0, _ = potential_W_parts(np.atleast_1d(np.asarray(x, dtype=complex)), p)
    return w0.real if np.ndim(x) else float(w0[0].real)


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
    assert alpha_squared(2.0, P1) == 0.0
    assert abs(alpha_squared(3.0, P1) - 1.0 / 3.0) <= 1e-15


def test_alpha_squared_vanishes_at_computed_roots():
    p = BlackHoleParams(m=1.0, lam=0.03)
    hz = horizon_roots(p)
    for r in (hz.r0, hz.r_minus, hz.r_plus):
        assert abs(alpha_squared(r, p)) <= 1e-12


def test_horizon_roots_small_lambda_limit():
    for lam in (1e-6, 1e-4):
        hz = horizon_roots(BlackHoleParams(m=1.0, lam=lam))
        assert abs(hz.r_minus - 2.0) <= 20.0 * lam


def test_horizon_roots_extremal_degeneration():
    p = BlackHoleParams(m=1.0, lam=0.999 / 9.0)
    hz = horizon_roots(p)
    assert abs(hz.r_minus - 3.0) < 0.2
    assert abs(hz.r_plus - 3.0) < 0.2


def test_horizon_roots_vieta():
    m, lam = 1.0, 0.04
    hz = horizon_roots(BlackHoleParams(m=m, lam=lam))
    rs = (hz.r0, hz.r_minus, hz.r_plus)
    assert abs(sum(rs)) <= 1e-12 * max(abs(r) for r in rs)
    pairwise = rs[0] * rs[1] + rs[0] * rs[2] + rs[1] * rs[2]
    assert abs(pairwise - (-3.0 / lam)) <= 1e-12 * abs(3.0 / lam)
    assert abs(rs[0] * rs[1] * rs[2] - (-6.0 * m / lam)) \
        <= 1e-12 * abs(6.0 * m / lam)


def test_tortoise_residue_signs():
    hz = horizon_roots(BlackHoleParams(m=1.0, lam=0.05))
    assert hz.a0 > 0 and hz.a_minus > 0 and hz.a_plus < 0


def test_tortoise_closed_form_points():
    assert abs(tortoise(4.0, P1) - (4.0 + 2.0 * math.log(2.0))) <= 1e-14
    assert abs(tortoise(3.0, P1) - 3.0) <= 1e-14


def test_tortoise_round_trip_lambda_zero():
    for r in np.geomspace(2.0 + 1e-6, 50.0, 100):
        x = tortoise(float(r), P1)
        assert abs(inverse_tortoise(x, P1) - r) <= 1e-12 * max(1.0, r)
    # far out, where e^{x/2m} overflows a double
    for x in (1500.0, 2000.0):
        assert abs(tortoise(inverse_tortoise(x, P1), P1) - x) <= 1e-13 * x


@pytest.mark.parametrize("m", [1e-8, 1.0, 900.0])
def test_inverse_tortoise_lambda_zero_matches_wright_omega_oracle(m):
    p = BlackHoleParams(m=m)
    xs = m * np.array([-800.0, -60.0, -5.0, 0.0, 3.0, 40.0, 1e4, 1e8])
    r = inverse_tortoise(xs, p)
    ref = inverse_tortoise_wright(xs, m)
    assert np.all(np.abs(r - ref) <= 1e-14 * ref), np.abs(r / ref - 1.0)
    assert [inverse_tortoise(float(x), p) for x in xs] == list(r)
    # further in, (r - 2m)/2m = omega ~ e^(x/2m - 1)/2m underflows to 0;
    # r is 2m there, not NaN
    deep_x = m * np.array([-1600.0, -1e5, -1e300])
    deep = inverse_tortoise(deep_x, p)
    assert np.array_equal(deep, np.full(3, 2.0 * m))
    assert np.array_equal(deep, inverse_tortoise_wright(deep_x, m))


def test_tortoise_round_trip_lambda_positive():
    p = BlackHoleParams(m=1.0, lam=0.02)
    hz = horizon_roots(p)
    lo, hi = hz.r_minus, hz.r_plus
    rs = lo + np.geomspace(1e-5, 0.999, 100) * (hi - lo)
    xs = np.array([tortoise(float(r), p) for r in rs])
    for r, x in zip(rs, xs):
        assert abs(inverse_tortoise(x, p) - r) <= 1e-12 * max(1.0, r)
    back = inverse_tortoise(xs, p)
    assert back.shape == rs.shape
    assert np.all(np.abs(back - rs) <= 1e-12 * np.maximum(1.0, rs))


def test_inverse_tortoise_array_matches_scalar_calls():
    # 121 points from r - r_minus ~ 1e-15 to r_plus - r ~ 1e-14
    p = BlackHoleParams(m=1.0, lam=0.02)
    hz = horizon_roots(p)
    xs = np.linspace(-80.0, 250.0, 121)
    r = inverse_tortoise(xs, p)
    one = np.array([inverse_tortoise(float(x), p) for x in xs])
    with mpmath.workdps(40):
        ref = np.array([float(inverse_tortoise_mp(x, p)[0]) for x in xs])
    assert isinstance(inverse_tortoise(1.0, p), float)
    assert np.all(np.abs(r - one) <= 4.0 * np.spacing(one))
    assert np.all(np.abs(r - ref) <= 4.0 * np.spacing(ref))
    assert r.min() - hz.r_minus < 1e-14 and hz.r_plus - r.max() < 1e-13
    grid = inverse_tortoise(xs.reshape(11, 11), p)
    assert np.array_equal(grid.ravel(), r)


def test_inverse_tortoise_lambda_positive_matches_mpmath_root():
    # at lam m^2 = 0.02 over |x| <= 900m, at the l = 6 quadrature node
    # x = -477m and at x = +-m, which is (m, x) = (10, 10) at m = 10:
    # forward error in r against the 40-digit root
    for m in (1e-6, 1.0, 10.0, 1e3, 1e8):
        p = BlackHoleParams(m=m, lam=0.02 / m ** 2)
        xs = m * np.concatenate([np.linspace(-900.0, 900.0, 61),
                                 [-477.0, -1.0, 1.0]])
        r = inverse_tortoise(xs, p)
        with mpmath.workdps(40):
            ref = np.array([float(inverse_tortoise_mp(x, p)[0]) for x in xs])
        assert np.all(np.abs(r - ref) <= 1e-14 * ref), m


def test_inverse_tortoise_complex_matches_real_axis():
    p = BlackHoleParams(m=1.0, lam=0.02)
    xs = np.linspace(-30.0, 30.0, 31)
    r1 = inverse_tortoise_complex(xs.astype(complex), p)[0]
    r2 = np.array([inverse_tortoise(float(x), p) for x in xs])
    assert np.max(np.abs(r1 - r2)) <= 1e-9


def test_inverse_tortoise_complex_is_holomorphic():
    # Cauchy-Riemann via centered differences at a few interior points
    for p in (P1, BlackHoleParams(m=1.0, lam=0.02)):
        for x0 in (1.0 + 0.5j, -4.0 - 1.0j, 8.0 + 2.0j):
            eps = 1e-5
            pts = np.array([x0 + eps, x0 - eps, x0 + 1j * eps,
                            x0 - 1j * eps])
            r = inverse_tortoise_complex(pts, p)[0]
            d_re = (r[0] - r[1]) / (2 * eps)
            d_im = (r[2] - r[3]) / (2j * eps)
            assert abs(d_re - d_im) <= 1e-6 * max(1.0, abs(d_re))


@pytest.mark.parametrize("theta, lam", [
    (theta, lam) for theta in (0.4, 1.0, 1.6, 2.0) for lam in (0.02, 0.0)]
    + [(2.5, 0.02), (3.0, 0.02)])
def test_inverse_tortoise_complex_matches_rk4_oracle(lam, theta):
    # r(x) along the scaled contour x0 + (1 + i theta) t, |t| <= 25, which
    # covers the quadrature nodes of the l = 8 operator; at lam = 0.02 the
    # contour's r(x) winds around r_plus from theta ~ 2.7 on
    p = BlackHoleParams(m=1.0, lam=lam)
    x0 = critical_data(p).x0
    t, r_ref = inverse_tortoise_rk4(1.0, lam, x0, 1.0 + 1j * theta, 25.0,
                                    20000)
    t, r_ref = t[::400], r_ref[::400]
    r, _ = inverse_tortoise_complex(x0 + (1.0 + 1j * theta) * t, p)
    assert np.max(np.abs(r - r_ref) / np.abs(r_ref)) <= 1e-12


def test_inverse_tortoise_complex_failure_raises():
    # Newton diverges here; the NaN residual must not pass the check
    with pytest.raises(RuntimeError, match="tortoise continuation failed"):
        inverse_tortoise_complex(np.array([50j]),
                                 BlackHoleParams(m=1.0, lam=0.02))


def mp_potential_W_parts(x, p):
    """W0, W1 at a real x from the root of `inverse_tortoise_mp`."""
    r, a2 = inverse_tortoise_mp(x, p)
    w0 = a2 / r ** 2
    dalpha2 = 2 * p.m / r ** 2 - 2 * mpmath.mpf(p.lam) * r / 3
    return complex(w0), complex(w0 * (r * dalpha2 - 0.25))


def test_potential_W_parts_near_horizons_mpmath():
    # r - r_horizon between 7.6e-10 and 1.7e-5
    for lam, x in [(0.0, -20.0), (0.0, -40.0), (0.02, -40.0), (0.02, 120.0)]:
        p = BlackHoleParams(m=1.0, lam=lam)
        with mpmath.workdps(50):
            want0, want1 = mp_potential_W_parts(x, p)
        got0, got1 = potential_W_parts(np.array([x], dtype=complex), p)
        assert abs(got0[0] - want0) <= 1e-13 * abs(want0), (lam, x)
        assert abs(got1[0] - want1) <= 1e-13 * abs(want1), (lam, x)


def test_potential_peak_value_and_flatness():
    for p in (P1, BlackHoleParams(m=2.0, lam=0.01)):
        cd = critical_data(p)
        assert abs(W0(cd.x0, p) - cd.E0) <= 1e-12 * cd.E0
        d = 1e-4
        fd = (W0(cd.x0 + d, p) - W0(cd.x0 - d, p)) / (2 * d)
        assert abs(fd) <= 1e-8


def test_potential_decay():
    assert abs(W0(-60.0, P1)) < 1e-8
    # de Sitter decay toward the cosmological horizon is slower (smaller
    # surface gravity), so probe further out
    p = BlackHoleParams(m=1.0, lam=0.02)
    assert abs(W0(-100.0, p)) < 1e-8
    assert abs(W0(100.0, p)) < 1e-7


def test_critical_data_values():
    cd = critical_data(P1)
    assert cd.r_crit == 3.0
    assert abs(cd.x0 - 3.0) <= 1e-14
    assert abs(cd.E0 - 1.0 / 27.0) <= 1e-16
    assert abs(cd.c0 - cd.E0 ** 2) == 0


def test_critical_data_extremal_refusal():
    with pytest.raises(ValueError):
        critical_data(BlackHoleParams(m=1.0, lam=(1.0 - 1e-9) / 9.0))


def test_curvature_identity_random_params():
    rng = random.Random(5)
    for _ in range(5):
        m = rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.0, 0.9) / (9.0 * m * m)
        p = BlackHoleParams(m=m, lam=lam)
        cd = critical_data(p)
        d = 1e-2 * m
        w = W0(cd.x0 + d * np.arange(-2, 3), p)
        # fourth-order central second difference
        w2 = (-w[0] + 16 * w[1] - 30 * w[2] + 16 * w[3] - w[4]) / (12 * d * d)
        assert abs(-2.0 * w2 - 4.0 * cd.E0 ** 2) <= 1e-8 * 4.0 * cd.E0 ** 2


def _poly_fit_taylor(p, deg, half_width):
    """Independent Taylor oracle: polynomial fit of the shifted potential
    on Chebyshev nodes around the barrier top."""
    cd = critical_data(p)
    k = np.arange(4 * deg + 1)
    xs = half_width * np.cos(math.pi * k / (4.0 * deg))
    vals = W0(cd.x0 + xs, p) - cd.E0
    return np.polyfit(xs, vals, deg)[::-1]


def test_shifted_potential_taylor_structure():
    for p in (P1, BlackHoleParams(m=1.5, lam=0.01)):
        cd = critical_data(p)
        V = shifted_potential_taylor(p, 8)
        assert complex(V.coeffs[0]) == 0
        assert complex(V.coeffs[1]) == 0
        assert abs(complex(V.coeffs[2]) + cd.E0 ** 2) <= 1e-12 * cd.E0 ** 2


def test_shifted_potential_taylor_vs_fit_oracle():
    V = shifted_potential_taylor(P1, 6)
    fit = _poly_fit_taylor(P1, 10, 0.4)
    for j in range(2, 7):
        c = complex(V.coeffs[j])
        assert abs(c - fit[j]) <= 1e-6 * abs(c), j


def test_subprincipal_taylor_matches_values():
    p = BlackHoleParams(m=1.0, lam=0.01)
    cd = critical_data(p)
    W1 = subprincipal_taylor(p, 6)
    for x in (-0.2, 0.0, 0.15):
        _, w1 = potential_W_parts(np.array([cd.x0 + x], dtype=complex), p)
        approx = sum(complex(c) * x ** j for j, c in enumerate(W1.coeffs))
        assert abs(approx - complex(w1[0])) <= 1e-6 * abs(w1[0])


@pytest.mark.parametrize("lam", [0.0, 0.02])
def test_barrier_taylor_vs_mpmath_oracle(lam):
    # every coefficient of V and W1 at degree 24 to near double rounding;
    # reverting the tortoise antiderivative in double precision instead
    # loses up to 5e-9 relative in the top coefficients
    N = 24
    p = BlackHoleParams(m=1.0, lam=lam)
    V_ref, W1_ref = barrier_taylor_mp(1.0, lam, N)
    V = shifted_potential_taylor(p, N)
    W1 = subprincipal_taylor(p, N)
    assert V.trunc_order == W1.trunc_order == N
    for j in range(2, N + 1):
        assert abs(complex(V.coeffs[j]) - V_ref[j]) <= 1e-12 * abs(V_ref[j]), j
    for j in range(N + 1):
        assert abs(complex(W1.coeffs[j]) - W1_ref[j]) \
            <= 1e-12 * abs(W1_ref[j]), j
    # the O(N^2) recurrence does Series1's operations in Series1's order,
    # so it equals the O(N^3) rebuild bit for bit, signed zeros included
    for got, want in zip(_barrier_series(p, N), barrier_series_rebuild(p, N)):
        assert list(map(repr, got.coeffs)) == list(map(repr, want.coeffs))


def test_scaling_covariance():
    sigma = 0.3
    m = 2.0
    p_m = BlackHoleParams(m=m, lam=sigma / (9.0 * m * m))
    p_1 = BlackHoleParams(m=1.0, lam=sigma / 9.0)
    for x in np.linspace(-5.0, 10.0, 12):
        w_m = W0(m * float(x), p_m)
        w_1 = W0(float(x), p_1)
        assert abs(w_m - w_1 / m ** 2) <= 1e-10 * max(abs(w_1 / m ** 2), 1e-12)


def test_barrier_monotonicity():
    # x V'(x) < 0 away from the top: W0 increases up to x0, decreases after
    cd = critical_data(P1)
    xs = cd.x0 + np.linspace(-6.0, 6.0, 25)
    w = W0(xs, P1)
    i0 = np.argmin(np.abs(xs - cd.x0))
    assert np.all(np.diff(w[:i0 + 1]) > 0)
    assert np.all(np.diff(w[i0:]) < 0)


def test_potential_W_h_combination():
    # W = W0 + h^2 W1 with W0 = alpha^2/r^2, W1 = W0 (r alpha^2' - 1/4)
    # at r = r(x) from the real-axis inverse
    p = BlackHoleParams(m=1.0, lam=0.01)
    x, h = 2.0, 0.25
    r = inverse_tortoise(x, p)
    a2 = alpha_squared(r, p)
    w0 = a2 / r ** 2
    full = w0 * (1.0 + h * h * (r * (2.0 / r ** 2 - 2.0 * p.lam * r / 3.0)
                                - 0.25))
    arr0, arr1 = potential_W_parts(np.array([x], dtype=complex), p)
    assert abs(w0 - arr0[0].real) <= 1e-12
    assert abs(full - (arr0[0] + h * h * arr1[0]).real) <= 1e-12
