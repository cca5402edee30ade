"""Unit tests for the rotated harmonic oscillator instability experiment."""

import cmath
import math

import numpy as np
import pytest

from qnmlattice import pseudospectrum
from qnmlattice.pseudospectrum import (RotatedHOConfig, exact_rotated_ho_eigs,
                                       instability_report)
from qnmlattice.scaling import _u2_matrix, eigensolve, hermite_basis
from reference import hermite_galerkin_matrix


def test_config_validation():
    with pytest.raises(ValueError):
        RotatedHOConfig(h=0.0, basis_size=151)
    with pytest.raises(ValueError):
        RotatedHOConfig(h=0.05, basis_size=4)
    # a NaN h would give NaN rows and no divergence index
    for h in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            RotatedHOConfig(h=h, basis_size=151)


def test_exact_eigenvalues():
    cfg = RotatedHOConfig(h=1.0, basis_size=10)
    vals = exact_rotated_ho_eigs(cfg, 3)
    rot = cmath.exp(1j * math.pi / 4.0)
    assert abs(vals[0] - rot) <= 1e-15
    assert abs(vals[1] - 3.0 * rot) <= 1e-15
    # all on the ray arg = pi/4, spaced by 2h
    for v in vals:
        assert abs(cmath.phase(v) - math.pi / 4.0) <= 1e-14
    assert abs(vals[2] - vals[1] - 2.0 * rot) <= 1e-14
    with pytest.raises(ValueError):
        exact_rotated_ho_eigs(cfg, 11)


def test_matrix_entries_against_quadrature():
    # i x^2 part: compare the ladder-matrix entries of u^2 against direct
    # quadrature of u^2 h_m h_n
    cfg = RotatedHOConfig(h=0.3, basis_size=12)
    mat = hermite_galerkin_matrix(cfg)
    u, b = hermite_basis(12, 60)
    u2 = (b * u ** 2) @ b.T
    want = np.diag((2.0 * np.arange(12) + 1.0) * cfg.h) \
        + (1j - 1.0) * cfg.h * u2
    assert np.max(np.abs(mat - want)) <= 1e-12


def test_matrix_complex_symmetric():
    m = hermite_galerkin_matrix(RotatedHOConfig(h=0.05, basis_size=40))
    assert np.max(np.abs(m - m.T)) == 0.0


def test_parity_blocks_exact_and_split_spectrum():
    # x^2 couples Hermite index k only to k and k +- 2, so the matrix is
    # exactly 0 where j - k is odd, and instability_report solves the even
    # and odd blocks apart.  Odd N: the blocks have 76 and 75 rows.
    cfg = RotatedHOConfig(h=0.05, basis_size=151)
    mat = hermite_galerkin_matrix(cfg)
    j, k = np.indices(mat.shape)
    assert np.all(mat[(j - k) % 2 == 1] == 0)
    full = eigensolve(mat)
    rows = instability_report(cfg)["rows"]
    # both solves carry rounding kappa_n * u, with kappa_n about 2.3x per
    # index, so the two agree to 1e-10 only while that stays small (n < 15,
    # about 3e-11 here); up to n = 30 the split is as accurate as the full
    # solve against the exact values, to within the scatter of rounding
    for row in rows[:15]:
        z = row["computed"]
        assert np.min(np.abs(full - z)) <= 1e-10 * abs(z), row["n"]
    split_err = max(row["distance"] / abs(row["exact"]) for row in rows[:30])
    full_err = max(np.min(np.abs(full - row["exact"])) / abs(row["exact"])
                   for row in rows[:30])
    assert split_err <= 10.0 * full_err


def test_trace_identity():
    # the sum of computed eigenvalues must equal the matrix trace even
    # where the individual eigenvalues are wildly wrong, on the complex
    # matrix and on the real parity blocks alike
    cfg = RotatedHOConfig(h=0.05, basis_size=151)
    mat = hermite_galerkin_matrix(cfg)
    vals = eigensolve(mat)
    tr = np.trace(mat)
    assert abs(np.sum(vals) - tr) <= 1e-9 * abs(tr)
    split = sum(row["computed"] for row in instability_report(cfg)["rows"])
    assert abs(split - tr) <= 1e-9 * abs(tr)


def test_real_blocks_similar_to_complex_blocks(monkeypatch):
    # one real dgeev per parity, so a return to complex blocks (zgeev) or to
    # one dense solve fails here; and the parity-p block of the complex
    # matrix is (1+i) h S T_p S^-1 with T_p real tridiagonal and
    # S = diag(i^j), i^j from a table, as 1j**j drifts by 1e-14 at j ~ 200
    seen = []

    def spy(mat):
        seen.append(mat)
        return eigensolve(mat)
    monkeypatch.setattr(pseudospectrum, "eigensolve", spy)
    u = np.finfo(float).eps / 2
    for n in (151, 302):
        seen.clear()
        cfg = RotatedHOConfig(h=0.05, basis_size=n)
        instability_report(cfg)
        assert [(m.dtype, m.shape) for m in seen] == [
            (np.float64, ((n + 1) // 2,) * 2), (np.float64, (n // 2,) * 2)]
        mat = hermite_galerkin_matrix(cfg)
        for p, t in enumerate(seen):
            assert np.all(np.triu(t, 2) == 0) and np.all(np.tril(t, -2) == 0)
            s = np.array([1, 1j, -1, -1j])[np.arange(len(t)) % 4]
            got = (1 + 1j) * cfg.h * (s[:, None] * t * s.conj())
            block = mat[p::2, p::2]
            assert (np.max(np.abs(got - block))
                    <= 2 * u * np.max(np.abs(block))), (n, p)


@pytest.mark.parametrize("n", [8, 9, 151, 302, 400])
def test_parity_blocks_built_at_their_own_size(n):
    # T_p from its two diagonals, byte for byte the construction from the
    # dense N x N ladder matrix: tril(U2[p::2, p::2]) - triu(U2[p::2, p::2], 1)
    u2 = _u2_matrix(n)
    for p in (0, 1):
        b = u2[p::2, p::2]
        old = np.tril(b) - np.triu(b, 1)
        new = pseudospectrum._parity_block(n, p)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes(), (n, p)


def test_low_modes_accurate():
    # the pseudo workload of perfbench/ reads the relative error of the
    # first 20 rows at h = 0.05 against its floor 1e-8
    h = 0.05
    rot = cmath.exp(0.25j * math.pi)
    for n in (151, 302, 400):
        rows = instability_report(RotatedHOConfig(h=h, basis_size=n))["rows"]
        for k, row in enumerate(rows[:20]):
            exact = rot * h * (2 * k + 1)
            assert abs(row["computed"] - exact) <= 1e-8 * abs(exact), (n, k)


# n* is the lesser of two limits.  Basis truncation caps it near 0.31*N,
# in exact arithmetic too (n* = 19, 31, 47, 62, 94 at N = 60, 100, 151,
# 200, 302 with 40-50 digit eigensolves).  Rounding caps it where the
# eigenvalue condition number kappa_n (about 2.3x per index) passes 1/u,
# near n = 47 whatever N is.  The two limits meet at N = 151: below it n*
# grows with N, above it n* is pinned by rounding and moves by a few
# indices with the BLAS build and thread count.
TRUNCATION_SIZES = (60, 100, 151)
ROUNDING_SIZES = (302, 400)
PLATEAU_WIDTH = 3


def divergence_indices(sizes):
    return {n: instability_report(RotatedHOConfig(h=0.05, basis_size=n))
            ["divergence_index"] for n in sizes}


def assert_divergence_regimes(nstar):
    """n* grows with N up to N=151, then stays within PLATEAU_WIDTH of
    n*(151) and well below the truncation limit."""
    small, mid, large = TRUNCATION_SIZES
    assert nstar[small] < nstar[mid] < nstar[large], nstar
    for n in ROUNDING_SIZES:
        assert abs(nstar[n] - nstar[large]) <= PLATEAU_WIDTH, nstar
        assert nstar[n] < 0.2 * n, nstar


def test_divergence_index_exists_and_grows():
    rep1 = instability_report(RotatedHOConfig(h=0.05, basis_size=151))
    n1 = rep1["divergence_index"]
    assert n1 is not None
    assert 0 < n1 < 151
    nstar = divergence_indices(TRUNCATION_SIZES + ROUNDING_SIZES)
    assert None not in nstar.values(), nstar
    assert_divergence_regimes(nstar)
    # beyond n*, the mismatch persists (non-normality, not an isolated
    # glitch): most subsequent rows stay bad
    tail = rep1["rows"][n1:n1 + 20]
    bad = sum(1 for row in tail if row["distance"] > 0.1 * abs(row["exact"]))
    assert bad >= 15


def test_divergence_regimes_check_can_fail():
    # double-precision values pass; a flat n*, n* following the
    # exact-arithmetic truncation limit (94 at N=302), and n* dropping
    # from a less accurate eigensolve must not
    measured = {60: 19, 100: 31, 151: 47, 302: 48, 400: 48}
    assert_divergence_regimes(measured)
    flat = {**measured, 60: 47, 100: 47}
    exact = {**measured, 302: 94}
    degraded = {**measured, 400: 40}
    for nstar in (flat, exact, degraded):
        with pytest.raises(AssertionError):
            assert_divergence_regimes(nstar)


def test_divergence_index_h_independent():
    n_a = instability_report(RotatedHOConfig(h=0.05, basis_size=151))
    n_b = instability_report(RotatedHOConfig(h=0.1, basis_size=151))
    assert n_a["divergence_index"] == n_b["divergence_index"]


def test_h_covariance_of_computed_spectrum():
    # computed = (1+i) h eig(T_p) with T_p free of h, and 0.1 = 2 * 0.05
    # exactly, so doubling h doubles every row bit for bit
    for n in (151, 302, 400):
        a = instability_report(RotatedHOConfig(h=0.05, basis_size=n))
        b = instability_report(RotatedHOConfig(h=0.1, basis_size=n))
        assert b["divergence_index"] == a["divergence_index"], n
        for ra, rb in zip(a["rows"], b["rows"]):
            assert rb["exact"] == 2 * ra["exact"], (n, ra["n"])
            assert rb["computed"] == 2 * ra["computed"], (n, ra["n"])
            assert rb["distance"] == 2 * ra["distance"], (n, ra["n"])


def test_report_is_deterministic():
    cfg = RotatedHOConfig(h=0.05, basis_size=151)
    a = instability_report(cfg)
    b = instability_report(cfg)
    assert a == b


@pytest.mark.parametrize("h,n", [(1e308, 8), (1e306, 400), (3e305, 400)])
def test_overflowing_spectrum_refused_without_warnings(h, n):
    # h times the spectrum leaves the floats: a RuntimeError, not inf or
    # nan rows, and no floating-point warning on the way (the test
    # configuration turns a RuntimeWarning into an error)
    with pytest.raises(RuntimeError, match="spectrum not finite at h = "):
        instability_report(RotatedHOConfig(h=h, basis_size=n))


def test_large_finite_spectrum_reported():
    # a large h short of the overflow is still reported, its rows the
    # h = 1 rows times h (a power of 2, so bit for bit)
    h = 2.0 ** 1000
    a = instability_report(RotatedHOConfig(h=1.0, basis_size=8))
    b = instability_report(RotatedHOConfig(h=h, basis_size=8))
    assert b["divergence_index"] == a["divergence_index"]
    for ra, rb in zip(a["rows"], b["rows"]):
        assert rb["computed"] == h * ra["computed"], ra["n"]
        assert rb["distance"] == h * ra["distance"], ra["n"]
