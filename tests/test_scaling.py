"""Unit tests for the complex-scaled operator and the direct mode solver."""

import math

import numpy as np
import pytest

from qnmlattice import potentials, pseudospectrum, scaling
from qnmlattice.potentials import (BlackHoleParams, critical_data,
                                   inverse_tortoise_ray, potential_from_r)
from qnmlattice.scaling import (DRIFT_EXTRA, QUAD_FACTOR, STAB_REL,
                                THETA_MAX, WINDOW, ScalingConfig, _d2_matrix,
                                _enlarged_shift, build_scaled_operator,
                                eigensolve, hermite_basis, qnm_direct)
from reference import (continued_eigenvalue, direct_modes_four_filters,
                       enlarged_shift_loop, hermite_basis_tridiagonal,
                       hermite_function_values, hermite_quadrature,
                       relative_drift)

P1 = BlackHoleParams(m=1.0)


def test_config_validation():
    ScalingConfig(theta=THETA_MAX, basis_size=128)
    with pytest.raises(ValueError):
        ScalingConfig(theta=1.21, basis_size=128)
    with pytest.raises(ValueError):
        ScalingConfig(theta=THETA_MAX + 0.01, basis_size=128)
    with pytest.raises(ValueError):
        ScalingConfig(theta=0.3, basis_size=0)


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
    # B is a copy of the n leading eigenvector rows, with their bytes: the
    # cache does not keep the whole npts x npts eigenvector matrix alive
    assert b.flags.owndata and b.base is None and b.flags.c_contiguous
    _, vec = np.linalg.eigh(np.diag(np.sqrt(0.5 * np.arange(1, 80)), -1))
    assert b.tobytes() == vec[:40].tobytes()


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


def scaled_symbol(x, xi, cfg, lam):
    """p_theta(x, xi) = ((1+i theta)^{-1} xi)^2 + V(x + i theta x).

    x is measured from the barrier top (shifted coordinate); V is the
    holomorphically continued shifted potential, from the march along the
    ray.
    """
    th = cfg.theta
    w0, _ = potential_from_r(*inverse_tortoise_ray(np.array([x]), th, lam),
                             lam, 1.0)
    v = complex(w0[0]) - critical_data(lam)
    return ((1.0 + 1j * th) ** -1 * xi) ** 2 + v


def ellipticity_scan(cfg, lam, eps, x_grid, xi_grid):
    """min of |p_theta|/(1+xi^2) outside the eps-ball around (0,0)."""
    th = cfg.theta
    xg = np.asarray(x_grid, float)
    w0, _ = potential_from_r(*inverse_tortoise_ray(xg, th, lam), lam, 1.0)
    v = w0 - critical_data(lam)
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
    cfg0 = ScalingConfig(theta=0.0, basis_size=128)
    # theta = 0: p = xi^2 + (W0(x0+x) - E0)
    assert abs(scaled_symbol(0.0, 0.5, cfg0, 0.0) - 0.25) <= 1e-12
    assert abs(scaled_symbol(0.0, 0.0, cfg0, 0.0)) <= 1e-14
    # critical point: gradient vanishes for any theta
    cfg = ScalingConfig(theta=0.3, basis_size=128)
    d = 1e-5
    gx = (scaled_symbol(d, 0.0, cfg, 0.0)
          - scaled_symbol(-d, 0.0, cfg, 0.0)) / (2 * d)
    assert abs(gx) <= 1e-8 * critical_data(0.0)


def test_scaled_symbol_sign_of_imaginary_part():
    # near the barrier top, Im p_theta <= -c theta (x^2 + xi^2); the
    # constant along the x-direction is of order E0^2 (the barrier
    # curvature), much smaller than the O(1) xi-direction constant
    E0 = critical_data(0.0)
    cfg = ScalingConfig(theta=0.2, basis_size=128)
    worst = -np.inf
    for x in np.linspace(-1.0, 1.0, 9):
        for xi in np.linspace(-1.0, 1.0, 9):
            if x * x + xi * xi < 1e-4:
                continue
            v = scaled_symbol(float(x), float(xi), cfg, 0.0)
            worst = max(worst, v.imag / (x * x + xi * xi))
    assert worst < -0.5 * cfg.theta * E0 ** 2


def test_ellipticity_scan_positive():
    cfg = ScalingConfig(theta=0.2, basis_size=128)
    grid = np.linspace(-2.0, 2.0, 41)
    rep = ellipticity_scan(cfg, 0.0, 0.3, grid, grid)
    assert not rep["empty_domain"]
    assert rep["min_ratio"] > 0.0
    x, xi = rep["argmin"]
    assert x * x + xi * xi >= 0.3 ** 2 - 1e-12


def test_ellipticity_scan_empty():
    cfg = ScalingConfig(theta=0.2, basis_size=128)
    grid = np.linspace(-0.05, 0.05, 5)
    rep = ellipticity_scan(cfg, 0.0, 1.0, grid, grid)
    assert rep["empty_domain"]


def test_ellipticity_scales_with_theta():
    grid = np.linspace(-1.5, 1.5, 61)
    r1 = ellipticity_scan(ScalingConfig(theta=0.1, basis_size=128), 0.0,
                          0.3, grid, grid)
    r2 = ellipticity_scan(ScalingConfig(theta=0.2, basis_size=128), 0.0,
                          0.3, grid, grid)
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
    mat = build_scaled_operator(cfg, 0.0, 1.0 / 8.5)
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
    for ell in (4, 10, 16):
        h = 1.0 / (ell + 0.5)
        mat = build_scaled_operator(ScalingConfig(theta=theta, basis_size=n),
                                    lam, h)
        big = build_scaled_operator(
            ScalingConfig(theta=theta, basis_size=n + DRIFT_EXTRA), lam, h)
        assert np.max(np.abs(big[:n, :n] - mat)) \
            <= 1e-12 * np.max(np.abs(mat)), ell


def same_multiset(a, b, tol):
    """Whether each value of `a` lies within `tol` of its own value of `b`
    (greedy nearest matching; `eigensolve` keeps LAPACK's order)."""
    left = list(b)
    for z in a:
        j = int(np.argmin(np.abs(np.subtract(left, z))))
        if abs(left.pop(j) - z) > tol:
            return False
    return len(a) == len(b)


def test_eigensolve_basics():
    for mat, want in ((np.diag([3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]),
                      (np.array([[0.0, 1.0], [-1.0, 0.0]]), [-1j, 1j])):
        vals = eigensolve(mat)
        assert same_multiset(vals, want, 1e-14), mat
        # LAPACK returns a real array for a real matrix with a real spectrum
        assert vals.dtype == np.complex128
        vals, vecs = eigensolve(mat, vectors=True)
        assert same_multiset(vals, want, 1e-14), mat
        assert np.max(np.abs(mat @ vecs - vecs * vals)) <= 1e-14


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


def test_eigensolve_vectors_sorted_with_their_values():
    # column i of the vectors belongs to value i, and both modes give the
    # same values, in whatever order LAPACK leaves them
    rng = np.random.default_rng(3)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    m = m + m.T
    vals, vecs = eigensolve(m, vectors=True)
    assert vals.dtype == np.complex128
    scale = np.max(np.abs(vals))
    assert same_multiset(vals, eigensolve(m), 1e-12 * scale)
    assert np.max(np.abs(m @ vecs - vecs * vals)) <= 1e-12 * np.linalg.norm(m)
    assert np.all(np.linalg.norm(vecs, axis=0) > 0.5)
    # a real matrix with a real spectrum still gives complex eigenvalues
    vals, _ = eigensolve(np.diag([3.0, 1.0, 2.0]), vectors=True)
    assert vals.dtype == np.complex128
    assert same_multiset(vals, [1.0, 2.0, 3.0], 1e-14)


def test_outputs_do_not_read_the_eigensolve_order(monkeypatch):
    # with every spectrum `eigensolve` returns reversed, pairs together,
    # qnm_direct on the bench grid and on an l that keeps no mode (by its
    # message) and instability_report give the same bytes
    def run():
        cfg = ScalingConfig(theta=0.3, basis_size=160)
        out = [qnm_direct(ell, cfg, P1).tobytes() for ell in range(4, 17)]
        with pytest.raises(RuntimeError, match="drift filters") as err:
            qnm_direct(2, cfg, P1)
        out.append(str(err.value))
        for n in (151, 302):
            out.append(repr(pseudospectrum.instability_report(
                pseudospectrum.RotatedHOConfig(h=0.05, basis_size=n))))
        return out

    calls = []

    def reversing(mat, vectors=False):
        calls.append(vectors)
        if vectors:
            vals, vecs = eigensolve(mat, vectors)
            return vals[::-1], vecs[:, ::-1]
        return eigensolve(mat)[::-1]

    want = run()
    monkeypatch.setattr(scaling, "eigensolve", reversing)
    monkeypatch.setattr(pseudospectrum, "eigensolve", reversing)
    assert run() == want
    # one eig per l, one dgeev per parity block
    assert calls == [True] * 14 + [False] * 4


def test_eigensolve_nan_raises_value_error():
    m = np.eye(4, dtype=complex)
    m[1, 2] = np.nan
    for vectors in (False, True):
        with pytest.raises(ValueError):
            eigensolve(m, vectors)


def test_eigensolve_size_guard():
    for vectors in (False, True):
        with pytest.raises(ValueError):
            eigensolve(np.zeros((2001, 2001), dtype=complex), vectors)


# ---------------------------------------------------------------------------
# direct mode solver


def test_qnm_direct_basic_structure():
    # deeper modes approach the continuum ray rotated by -2 theta, so the
    # three least-damped modes at l = 8 need the full rotation angle, and
    # the third passes the drift filter from N = 480 on (N = 400 keeps 2)
    cfg = ScalingConfig(theta=0.4, basis_size=480)
    lams = qnm_direct(8, cfg, P1, max_modes=3)
    assert len(lams) == 3
    # least-damped first, all decaying, and all in the admissible sector
    # arg lambda > -2 theta, though no filter imposes it
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
        vals = eigensolve(build_scaled_operator(cfg, 0.0, h))
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
    # the solve runs at unit mass, so m lambda(m) is lambda(1) up to the
    # rounding of the division by m and the product with it
    for m, lam_m2 in ((1e-3, 0.0), (2.0, 0.0), (1e3, 0.0), (1e-3, 0.02),
                      (2.0, 0.02), (1e3, 0.02)):
        assert scaled_mode_move(m, lam_m2) <= 1e-12, (m, lam_m2)


@pytest.mark.parametrize("lam_m2", [0.0, 0.02])
def test_qnm_direct_is_the_unit_mass_solve_over_m(lam_m2):
    # the modes are those of the unit-mass solve divided by m, bit for
    # bit, from the smallest accepted mass to the largest, where the
    # operator in units of m would have c0 = E0^2 outside the floats
    cfg = ScalingConfig(theta=0.3, basis_size=160)
    for m in (2.9e-155, 0.05, 3.7, 50.0, 1e100, 2.5e153):
        p = BlackHoleParams(m=m, lam=lam_m2 / m ** 2)
        got = qnm_direct(4, cfg, p)
        want = qnm_direct(4, cfg, p.unit_mass()) / m
        assert got.size and got.tobytes() == want.tobytes(), m


def test_qnm_direct_de_sitter():
    p = BlackHoleParams(m=1.0, lam=0.02)
    cfg = ScalingConfig(theta=0.3, basis_size=160)
    lam = qnm_direct(8, cfg, p, max_modes=1)[0]
    # leading behavior carries the (1-9 Lambda m^2)^(1/2) factor
    s27 = 3.0 * math.sqrt(3.0)
    approx = complex(8.5, -0.5) * math.sqrt(1.0 - 9.0 * 0.02) / s27
    assert abs(lam - approx) <= 0.02 * abs(approx)


@pytest.mark.parametrize("lam_m2", [5e-324, 1e-300, 1e-61, 2e-46, 1e-40,
                                    1e-20, 1e-12])
def test_qnm_direct_tiny_lambda_is_the_schwarzschild_solve(lam_m2):
    # where the cosmological horizon lies out near sqrt(3/lam m^2), the
    # modes are the lam = 0 modes moved by about -4.5 lam m^2 relative
    # (omega ~ sqrt(E0), E0 = (1 - 9 lam m^2)/27), plus rounding
    cfg = ScalingConfig(theta=0.3, basis_size=160)
    for ell in (4, 8, 16):
        want = qnm_direct(ell, cfg, P1)
        got = qnm_direct(ell, cfg, BlackHoleParams(m=1.0, lam=lam_m2))
        assert got.size == want.size, ell
        assert np.all(np.abs(got - want)
                      <= (5.0 * lam_m2 + 1e-13) * np.abs(want)), ell


def test_qnm_direct_ell_guard():
    with pytest.raises(ValueError):
        qnm_direct(0, ScalingConfig(theta=0.3, basis_size=128), P1)


def test_qnm_direct_numerical_failure():
    # a tiny basis cannot resolve any window eigenvalue stably
    cfg = ScalingConfig(theta=0.3, basis_size=8)
    with pytest.raises(RuntimeError,
                       match="no eigenvalues in the spectral window"):
        qnm_direct(8, cfg, P1)
    # at l = 2 window candidates exist, and the drift filter removes them
    cfg = ScalingConfig(theta=0.3, basis_size=160)
    with pytest.raises(RuntimeError, match=r"drift filters: \d+/0; "
                       r"smallest relative drift"):
        qnm_direct(2, cfg, P1)


def test_qnm_direct_marches_without_the_homotopy(monkeypatch):
    # the contour's r(x) comes from the march along the ray alone, not
    # from the real-axis solver
    def refuse(*args):
        raise AssertionError("real-axis solver called")

    monkeypatch.setattr(potentials, "inverse_tortoise", refuse)
    cfg = ScalingConfig(theta=0.3, basis_size=160)
    for p in (P1, BlackHoleParams(m=1.0, lam=0.02)):
        assert qnm_direct(8, cfg, p).size == 1


@pytest.fixture
def spectra(monkeypatch):
    """What each `eigensolve` call of `qnm_direct` returns, in call order."""
    out = []

    def recording(mat, vectors=False):
        out.append(eigensolve(mat, vectors))
        return out[-1]

    monkeypatch.setattr(scaling, "eigensolve", recording)
    return out


def test_qnm_direct_one_eigensolve_per_ell(monkeypatch):
    # the drift is read from the basis_size block's eigenpairs, so the
    # basis_size + DRIFT_EXTRA build is never solved, whether modes are
    # kept (l = 8) or not (l = 2)
    rows = []
    for name in ("eig", "eigvals"):
        solve = getattr(np.linalg, name)

        def spy(mat, solve=solve, name=name):
            rows.append((name, mat.shape))
            return solve(mat)

        monkeypatch.setattr(np.linalg, name, spy)
    cfg = ScalingConfig(theta=0.3, basis_size=160)
    assert qnm_direct(8, cfg, P1).size == 1
    assert rows == [("eig", (160, 160))]
    rows.clear()
    with pytest.raises(RuntimeError, match="drift filters"):
        qnm_direct(2, cfg, P1)
    assert rows == [("eig", (160, 160))]


# a share of the (lam, theta, N, l) grid {0, 0.02} x {0.05, 0.1, 0.2, 0.3,
# 0.4} x {100, 160, 240} x {1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 30}, on all
# 330 of which the one-step drift keeps what the nearest-eigenvalue drift
# of the two spectra kept (327 modes)
ORACLE_GRID = [(lam, theta, n, ell) for lam in (0.0, 0.02)
               for theta, n in ((0.05, 240), (0.1, 160), (0.2, 100),
                                (0.3, 240), (0.4, 160))
               for ell in (2, 8, 16)]


def test_qnm_direct_selection_matches_four_filter_oracle(spectra):
    # the window and the one-step drift keep, byte for byte, what the
    # window, |z| >= 0.6 E0, nearest-eigenvalue drift and arg lambda >
    # -2 theta filters keep on the spectra of the block and of the whole
    # N + 40 build; where that drift lies in [1e-8, 1e-4] the two drifts
    # agree within 1e-3 relative (4e-4 measured on the whole grid)
    kept = compared = 0
    for lam, theta, n, ell in ORACLE_GRID:
        p = BlackHoleParams(m=1.0, lam=lam)
        E0 = critical_data(lam)
        h = 1.0 / (ell + 0.5)
        cfg = ScalingConfig(theta=theta, basis_size=n)
        spectra.clear()
        try:
            got = qnm_direct(ell, cfg, p)
        except RuntimeError:
            got = np.zeros(0, complex)
        ((vals, vecs),) = spectra
        mat2 = build_scaled_operator(
            ScalingConfig(theta=theta, basis_size=n + DRIFT_EXTRA), lam, h)
        vals2 = eigensolve(mat2)
        want = direct_modes_four_filters(vals, vals2, E0, h, theta)
        assert got.tobytes() == want.tobytes(), (lam, theta, n, ell)
        kept += got.size
        inside = np.flatnonzero(np.abs(vals - E0) <= WINDOW * E0)
        zs = vals[inside]
        drift = _enlarged_shift(mat2, vals, vecs, inside) \
            / np.maximum(np.abs(zs), 1e-3 * E0)
        ref = relative_drift(zs, vals2, E0)
        sel = (ref >= 1e-8) & (ref <= 1e-4)
        assert np.all(np.abs(drift[sel] - ref[sel]) <= 1e-3 * ref[sel]), \
            (lam, theta, n, ell)
        compared += int(sel.sum())
    # N = 160 keeps 2 and 4 modes per lam at l = 8 and 16 for theta = 0.4,
    # none for theta = 0.1: 12 of the 23; 11 drifts fall in the compared range
    assert kept == 23
    assert compared >= 10


def test_enlarged_shift_refuses_degenerate_pairs():
    # a self-orthogonal eigenvector (s_i = v_i^T v_i = 0, a defective
    # block) leaves the resolvent expansion undefined for every candidate,
    # and a repeated eigenvalue for its copies: inf, without a RuntimeWarning
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    mat = mat + mat.T
    vals, vecs = eigensolve(mat[:3, :3], vectors=True)
    shift = _enlarged_shift(mat, vals, vecs, np.arange(3))
    assert np.all(np.isfinite(shift))
    null = vecs.copy()
    null[:, 1] = [1.0, 1j, 0.0]
    shift = _enlarged_shift(mat, vals, null, np.arange(3))
    assert np.all(shift == np.inf)
    twin = vals.copy()
    twin[2] = twin[0]
    shift = _enlarged_shift(mat, twin, vecs, np.arange(3))
    assert shift[0] == shift[2] == np.inf and np.isfinite(shift[1])


def window_eigenpairs(ell, theta, n):
    """What `qnm_direct` hands `_enlarged_shift` at m = 1, lam = 0: the
    whole n + DRIFT_EXTRA build, the block's eigenpairs, the window
    candidates, and the scale that turns a shift into a relative drift."""
    E0 = critical_data(0.0)
    mat2 = build_scaled_operator(
        ScalingConfig(theta=theta, basis_size=n + DRIFT_EXTRA), 0.0,
        1.0 / (ell + 0.5))
    vals, vecs = eigensolve(mat2[:n, :n], vectors=True)
    inside = np.flatnonzero(np.abs(vals - E0) <= WINDOW * E0)
    return mat2, vals, vecs, inside, np.maximum(np.abs(vals[inside]),
                                                1e-3 * E0)


# the bench grid, and theta = 1.0 at N = 60 and 80 from l = 1 to 40
BATCH_GRID = ([(ell, 0.3, 160) for ell in range(4, 17)]
              + [(ell, 1.0, n) for n in (60, 80)
                 for ell in (1, 2, 3, 8, 20, 40)])


def test_enlarged_shift_batch_matches_the_loop_oracle():
    # one batch of candidates against one candidate at a time: the same
    # drifts within 1e-10 relative (rounding; 7.5e-11 at theta = 1.0,
    # N = 60, l = 40), the same kept set everywhere
    kept = 0
    for ell, theta, n in BATCH_GRID:
        mat2, vals, vecs, inside, scale = window_eigenpairs(ell, theta, n)
        got = _enlarged_shift(mat2, vals, vecs, inside)
        want = enlarged_shift_loop(mat2, vals, vecs, inside)
        assert np.all(np.abs(got - want) <= 1e-10 * want), (ell, theta, n)
        keep = got / scale <= STAB_REL
        assert np.array_equal(keep, want / scale <= STAB_REL), \
            (ell, theta, n)
        kept += int(keep.sum())
    # 22 modes on the bench grid (1 at l = 4..9, 2 at 10..14, 3 at 15, 16),
    # 37 and 41 at theta = 1.0 with N = 60 and 80
    assert kept == 100


def test_enlarged_shift_takes_any_candidate_list():
    # idx as a list, as one candidate, and empty: each candidate's shift
    # does not depend on the others of its batch
    mat2, vals, vecs, inside, _ = window_eigenpairs(8, 0.3, 160)
    every = _enlarged_shift(mat2, vals, vecs, inside)
    some = inside[::7]
    part = _enlarged_shift(mat2, vals, vecs, list(some))
    assert np.allclose(part, every[::7], rtol=1e-12, atol=0.0)
    for j in some:
        one = _enlarged_shift(mat2, vals, vecs, [j])
        assert one.shape == (1,)
        assert np.allclose(one, enlarged_shift_loop(mat2, vals, vecs, [j]),
                           rtol=1e-12, atol=0.0)
    for empty in ([], np.zeros(0, int), np.zeros(0)):
        out = _enlarged_shift(mat2, vals, vecs, empty)
        assert out.shape == (0,) and out.dtype == float


def test_qnm_direct_drift_follows_the_continued_eigenvalue(spectra):
    # at theta = 0.05, N = 800, l = 2 the window removes every candidate.
    # Outside it, the continuum value z ~ (148.75 - 14.91i) E0 lies within
    # 8.7e-7 |z| of an eigenvalue of the N + 40 build, so the nearest-
    # eigenvalue drift of the two spectra would call it stable.  That
    # neighbour is another continuum value: the eigenvalue that continues
    # z, the secular equation's root, lies 3.1e-3 |z| away, and the one
    # step qnm_direct takes gives 5.5e-3 |z|, far above STAB_REL
    cfg = ScalingConfig(theta=0.05, basis_size=800)
    h = 1.0 / 2.5
    with pytest.raises(RuntimeError,
                       match="no eigenvalues in the spectral window"):
        qnm_direct(2, cfg, P1)
    ((vals, vecs),) = spectra
    mat2 = build_scaled_operator(ScalingConfig(theta=0.05, basis_size=840),
                                 0.0, h)
    vals2 = eigensolve(mat2)
    E0 = critical_data(0.0)
    outside = np.flatnonzero(np.abs(vals - E0) > WINDOW * E0)
    near = relative_drift(vals[outside], vals2, E0)
    ((j,),) = np.nonzero(near <= STAB_REL)
    j = outside[j]
    z = vals[j]
    assert abs(z / E0 - (148.75 - 14.91j)) <= 0.01
    assert 8.6e-7 <= np.min(np.abs(vals2 - z)) / abs(z) <= 8.8e-7
    root = continued_eigenvalue(mat2, vals, vecs, j)
    assert np.min(np.abs(vals2 - root)) <= 1e-12 * abs(z)
    assert 3.0e-3 <= abs(root - z) / abs(z) <= 3.2e-3
    step = _enlarged_shift(mat2, vals, vecs, [j])[0] / abs(z)
    assert 5.4e-3 <= step <= 5.6e-3
