"""Unit tests for the complex-scaled operator and the direct mode solver."""

import math

import numpy as np
import pytest

from qnmlattice.potentials import (BlackHoleParams, critical_data,
                                   potential_W_parts)
from qnmlattice.scaling import (DRIFT_EXTRA, QUAD_FACTOR, THETA_MAX,
                                ScalingConfig, _d2_matrix,
                                build_scaled_operator, eigensolve,
                                hermite_basis, qnm_direct)
from reference import (hermite_basis_tridiagonal, hermite_function_values,
                       hermite_quadrature)

P1 = BlackHoleParams(m=1.0)


def test_config_validation():
    ScalingConfig(theta=THETA_MAX)
    with pytest.raises(ValueError):
        ScalingConfig(theta=0.7)
    with pytest.raises(ValueError):
        ScalingConfig(theta=THETA_MAX + 0.01)
    with pytest.raises(ValueError):
        ScalingConfig(basis_size=0)


# ---------------------------------------------------------------------------
# Hermite machinery


def test_hermite_orthonormality():
    _, b = hermite_basis(31, 80)
    assert np.max(np.abs(b @ b.T - np.eye(31))) <= 1e-12


def test_hermite_quadrature_large_n_finite():
    u, b = hermite_basis(101, 600)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(b))
    assert np.max(np.abs(b @ b.T - np.eye(101))) <= 1e-10


@pytest.mark.parametrize("n, npts", [(31, 80), (101, 600), (160, 320),
                                     (440, 880)])
def test_hermite_basis_matches_recurrence(n, npts):
    # Golub-Welsch against the recurrence oracle: the same nodes, and per
    # column the same values h_k(u_j) sqrt(what_j) up to one sign
    u, b = hermite_basis(n, npts)
    u_ref, what = hermite_quadrature(npts)
    ref = hermite_function_values(n - 1, u_ref) * np.sqrt(what)
    assert np.max(np.abs(u - u_ref)) <= 1e-12
    sign = np.where(np.sum(b * ref, axis=0) < 0, -1.0, 1.0)
    assert np.max(np.abs(b * sign - ref)) <= 1e-12


@pytest.mark.parametrize("n, npts", [(31, 80), (160, 320), (200, 400)])
def test_hermite_basis_matches_tridiagonal_oracle(n, npts):
    # the dense symmetric eigensolver against the tridiagonal one: the
    # same nodes, and the same Galerkin matrices, where column signs cancel
    u, b = hermite_basis(n, npts)
    u_ref, b_ref = hermite_basis_tridiagonal(n, npts)
    assert np.max(np.abs(u - u_ref)) <= 1e-14 * np.max(np.abs(u_ref))
    rng = np.random.default_rng(n)
    for f in (1.0 / (1.0 + u * u), rng.normal(size=npts)):
        gal, ref = (b * f) @ b.T, (b_ref * f) @ b_ref.T
        assert np.max(np.abs(gal - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_hermite_basis_cached_read_only():
    u, b = hermite_basis(40, 80)
    u2, b2 = hermite_basis(40, 80)
    assert u2 is u and b2 is b
    # an in-place write would corrupt the basis of every later caller
    for arr in (u, b):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_hermite_function_ode():
    # -h_n'' + u^2 h_n = (2n+1) h_n, via finite differences
    d = 1e-4
    for n in (0, 3, 10):
        for u0 in (0.3, 2.1):
            vals = hermite_function_values(n, np.array([u0 - d, u0, u0 + d]))
            hm, h0, hp = vals[n]
            lhs = -(hp - 2 * h0 + hm) / d ** 2 + u0 ** 2 * h0
            assert abs(lhs - (2 * n + 1) * h0) <= 1e-5 * max(abs(h0), 1e-3)


# ---------------------------------------------------------------------------
# scaled symbol and ellipticity


def scaled_symbol(x, xi, cfg, p):
    """p_theta(x, xi) = ((1+i theta)^{-1} xi)^2 + V(x + i theta x).

    x is measured from the barrier top (shifted coordinate); V is the
    holomorphically continued shifted potential.
    """
    cd = critical_data(p)
    th = cfg.theta
    xc = cd.x0 + x * (1.0 + 1j * th)
    w0, _ = potential_W_parts(np.array([xc]), p)
    v = complex(w0[0]) - cd.E0
    return ((1.0 + 1j * th) ** -1 * xi) ** 2 + v


def ellipticity_scan(cfg, p, eps, x_grid, xi_grid):
    """min of |p_theta|/(1+xi^2) outside the eps-ball around (0,0)."""
    cd = critical_data(p)
    th = cfg.theta
    xg = np.asarray(x_grid, float)
    xc = cd.x0 + xg * (1.0 + 1j * th)
    w0, _ = potential_W_parts(xc, p)
    v = w0 - cd.E0
    best = None
    argmin = None
    for xi in np.asarray(xi_grid, float):
        pvals = ((1.0 + 1j * th) ** -1 * xi) ** 2 + v
        ratio = np.abs(pvals) / (1.0 + xi ** 2)
        mask = xg ** 2 + xi ** 2 > eps ** 2
        if not np.any(mask):
            continue
        i = int(np.argmin(np.where(mask, ratio, np.inf)))
        if best is None or ratio[i] < best:
            best = float(ratio[i])
            argmin = (float(xg[i]), float(xi))
    if best is None:
        return {"min_ratio": None, "argmin": None, "empty_domain": True}
    return {"min_ratio": best, "argmin": argmin, "empty_domain": False}


def test_scaled_symbol_unrotated_and_origin():
    cfg0 = ScalingConfig(theta=0.0)
    cd = critical_data(P1)
    # theta = 0: p = xi^2 + (W0(x0+x) - E0)
    assert abs(scaled_symbol(0.0, 0.5, cfg0, P1) - 0.25) <= 1e-12
    assert abs(scaled_symbol(0.0, 0.0, cfg0, P1)) <= 1e-14
    # critical point: gradient vanishes for any theta
    cfg = ScalingConfig(theta=0.3)
    d = 1e-5
    gx = (scaled_symbol(d, 0.0, cfg, P1)
          - scaled_symbol(-d, 0.0, cfg, P1)) / (2 * d)
    assert abs(gx) <= 1e-8 * cd.E0


def test_scaled_symbol_sign_of_imaginary_part():
    # near the barrier top, Im p_theta <= -c theta (x^2 + xi^2); the
    # constant along the x-direction is of order E0^2 (the barrier
    # curvature), much smaller than the O(1) xi-direction constant
    cd = critical_data(P1)
    cfg = ScalingConfig(theta=0.2)
    worst = -np.inf
    for x in np.linspace(-1.0, 1.0, 9):
        for xi in np.linspace(-1.0, 1.0, 9):
            if x * x + xi * xi < 1e-4:
                continue
            v = scaled_symbol(float(x), float(xi), cfg, P1)
            worst = max(worst, v.imag / (x * x + xi * xi))
    assert worst < -0.5 * cfg.theta * cd.E0 ** 2


def test_ellipticity_scan_positive():
    cfg = ScalingConfig(theta=0.2)
    grid = np.linspace(-2.0, 2.0, 41)
    rep = ellipticity_scan(cfg, P1, 0.3, grid, grid)
    assert not rep["empty_domain"]
    assert rep["min_ratio"] > 0.0
    x, xi = rep["argmin"]
    assert x * x + xi * xi >= 0.3 ** 2 - 1e-12


def test_ellipticity_scan_empty():
    cfg = ScalingConfig(theta=0.2)
    grid = np.linspace(-0.05, 0.05, 5)
    rep = ellipticity_scan(cfg, P1, 1.0, grid, grid)
    assert rep["empty_domain"]


def test_ellipticity_scales_with_theta():
    grid = np.linspace(-1.5, 1.5, 61)
    r1 = ellipticity_scan(ScalingConfig(theta=0.1), P1, 0.3, grid, grid)
    r2 = ellipticity_scan(ScalingConfig(theta=0.2), P1, 0.3, grid, grid)
    ratio = r2["min_ratio"] / r1["min_ratio"]
    assert 1.0 < ratio < 4.0


# ---------------------------------------------------------------------------
# Galerkin operator


def hermite_operator(h, sigma, n, potential):
    """Galerkin matrix of -h^2 d^2/dt^2 + potential(t) in the Hermite
    functions of t/sigma, by the quadrature `build_scaled_operator` uses."""
    u, b = hermite_basis(n, max(QUAD_FACTOR * n, n + 8))
    pot = (b * potential(sigma * u)) @ b.T
    return -(h / sigma) ** 2 * _d2_matrix(n) + pot


def test_operator_harmonic_oscillator_oracle():
    # potential t^2 with sigma = sqrt(h): eigenvalues (2n+1)h
    h = 0.1
    mat = hermite_operator(h, math.sqrt(h), 64, lambda t: t * t)
    vals = eigensolve(mat)
    vals = vals[np.argsort(vals.real)]
    for n in range(16):
        assert abs(vals[n] - (2 * n + 1) * h) <= 1e-10


def test_operator_free_particle_nonnegative():
    mat = hermite_operator(0.2, 1.0, 48, np.zeros_like)
    vals = eigensolve(mat)
    assert np.min(vals.real) >= -1e-12
    assert np.max(np.abs(vals.imag)) <= 1e-12


def test_operator_complex_symmetric():
    cfg = ScalingConfig(theta=0.3, basis_size=40)
    mat = build_scaled_operator(cfg, P1, 1.0 / 8.5)
    assert np.max(np.abs(mat - mat.T)) <= 1e-13


# qnm_direct takes the basis_size matrix as the leading block of its one
# basis_size + DRIFT_EXTRA build.  The Hermite basis is nested and the
# kinetic part exact, so the block differs from a separate basis_size build
# only by the quadrature error of the potential on 2N against 2(N + 40)
# nodes: rounding at these l, but up to 9e-10 of max|A| at l = 1, 2
# (theta = 0.4, N = 128), where no mode survives.
@pytest.mark.parametrize("lam", [0.0, 0.02])
@pytest.mark.parametrize("theta", [0.3, 0.4])
@pytest.mark.parametrize("n", [128, 160])
def test_leading_block_of_enlarged_build(n, theta, lam):
    p = BlackHoleParams(m=1.0, lam=lam)
    for ell in (4, 10, 16):
        h = 1.0 / (ell + 0.5)
        mat = build_scaled_operator(ScalingConfig(theta=theta, basis_size=n),
                                    p, h)
        big = build_scaled_operator(
            ScalingConfig(theta=theta, basis_size=n + DRIFT_EXTRA), p, h)
        assert np.max(np.abs(big[:n, :n] - mat)) \
            <= 1e-12 * np.max(np.abs(mat)), ell


def test_eigensolve_basics():
    d = np.diag([3.0, 1.0, 2.0])
    vals = eigensolve(d)
    assert np.allclose(vals, [1.0, 2.0, 3.0])
    # LAPACK returns a real array for a real matrix with a real spectrum
    assert vals.dtype == np.complex128
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    vals = eigensolve(rot)
    assert np.allclose(vals, [-1j, 1j])


def test_eigensolve_trace_identity_and_residuals():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    vals = eigensolve(m)
    assert abs(np.sum(vals) - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))
    # residual: each value is an eigenvalue of m to rounding, i.e. the
    # smallest singular value of m - lam is tiny
    eye = np.eye(m.shape[0])
    res = [np.linalg.svd(m - lam * eye, compute_uv=False)[-1] for lam in vals]
    assert np.max(res) <= 1e-8 * np.linalg.norm(m)


def test_eigensolve_nan_raises_value_error():
    m = np.eye(4, dtype=complex)
    m[1, 2] = np.nan
    with pytest.raises(ValueError):
        eigensolve(m)


def test_eigensolve_size_guard():
    with pytest.raises(ValueError):
        eigensolve(np.zeros((2001, 2001), dtype=complex))


# ---------------------------------------------------------------------------
# direct mode solver


def test_qnm_direct_basic_structure():
    # deeper modes approach the continuum ray rotated by -2 theta, so the
    # three least-damped modes at l = 8 need the full rotation angle, and
    # the third passes the drift filter from N = 480 on (N = 400 keeps 2)
    cfg = ScalingConfig(theta=0.4, basis_size=480)
    lams = qnm_direct(8, cfg, P1, max_modes=3)
    assert len(lams) == 3
    # least-damped first, all decaying, all in the admissible sector
    assert lams[0].imag > lams[1].imag > lams[2].imag
    for lam in lams:
        assert lam.imag < 0 and lam.real > 0
        assert np.angle(lam) > -2.0 * cfg.theta
    # leading behavior lambda ~ ((l+1/2) - i(n+1/2))/(3 sqrt 3); the
    # expansion parameter grows with n, so the comparison loosens with n
    s27 = 3.0 * math.sqrt(3.0)
    for n, lam in enumerate(lams):
        approx = complex(8.5, -(n + 0.5)) / s27
        assert abs(lam - approx) <= 0.1 * (n + 0.5) * abs(approx), n


def test_qnm_direct_mode_set_on_bench_grid():
    # the modes kept at l = 4..16, theta = 0.3, N = 160 (the direct bench
    # workload): as many per l as the separate basis_size build kept, each
    # an eigenvalue z = (h lambda)^2 of that separate build to rounding
    counts = {4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 2, 11: 2, 12: 2,
              13: 2, 14: 2, 15: 3, 16: 3}
    cfg = ScalingConfig(theta=0.3, basis_size=160)
    for ell, count in counts.items():
        h = 1.0 / (ell + 0.5)
        lams = qnm_direct(ell, cfg, P1)
        assert len(lams) == count, ell
        vals = eigensolve(build_scaled_operator(cfg, P1, h))
        for z in (h * lams) ** 2:
            assert np.min(np.abs(vals - z)) <= 1e-12 * abs(z), ell


def test_qnm_direct_theta_robustness():
    cfg_a = ScalingConfig(theta=0.2, basis_size=160)
    cfg_b = ScalingConfig(theta=0.3, basis_size=160)
    la = qnm_direct(8, cfg_a, P1, max_modes=1)[0]
    lb = qnm_direct(8, cfg_b, P1, max_modes=1)[0]
    assert abs(la - lb) <= 1e-6 * abs(la)


def scaled_mode_move(m, lam_m2):
    """|m lambda(m) - lambda(1)| / |lambda(1)| for the least-damped l = 6
    mode at fixed lam m^2: lambda scales exactly as 1/m."""
    cfg = ScalingConfig(theta=0.3, basis_size=140)
    l1 = qnm_direct(6, cfg, BlackHoleParams(m=1.0, lam=lam_m2),
                    max_modes=1)[0]
    lm = qnm_direct(6, cfg, BlackHoleParams(m=m, lam=lam_m2 / m ** 2),
                    max_modes=1)[0]
    return abs(m * lm - l1) / abs(l1)


def test_qnm_direct_mass_scaling():
    # the continuation counts its homotopy steps and its residual in
    # units of m, so the scaled problem runs the same steps
    for m, lam_m2 in ((1e-3, 0.0), (2.0, 0.0), (1e3, 0.0), (1e-3, 0.02),
                      (2.0, 0.02), (1e3, 0.02)):
        assert scaled_mode_move(m, lam_m2) <= 1e-12, (m, lam_m2)


def test_qnm_direct_de_sitter():
    p = BlackHoleParams(m=1.0, lam=0.02)
    cfg = ScalingConfig(theta=0.3, basis_size=160)
    lam = qnm_direct(8, cfg, p, max_modes=1)[0]
    # leading behavior carries the (1-9 Lambda m^2)^(1/2) factor
    s27 = 3.0 * math.sqrt(3.0)
    approx = complex(8.5, -0.5) * math.sqrt(1.0 - 9.0 * 0.02) / s27
    assert abs(lam - approx) <= 0.02 * abs(approx)


def test_qnm_direct_ell_guard():
    with pytest.raises(ValueError):
        qnm_direct(0, ScalingConfig(), P1)


def test_qnm_direct_numerical_failure():
    # a tiny basis cannot resolve any window eigenvalue stably
    cfg = ScalingConfig(theta=0.3, basis_size=8)
    with pytest.raises(RuntimeError,
                       match="no eigenvalues in the spectral window"):
        qnm_direct(8, cfg, P1)
    # at l = 2 window candidates exist, and the drift filter removes them
    cfg = ScalingConfig(theta=0.3, basis_size=160)
    with pytest.raises(RuntimeError, match=r"drift filters: \d+/\d+/0; "
                       r"smallest relative drift"):
        qnm_direct(2, cfg, P1)
