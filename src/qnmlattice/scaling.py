"""Complex-scaled operator and a direct spectral solver for mode frequencies.

The operator is restricted to the deformed contour through the barrier
top, x0 + (1+i theta) t, and discretized in a Galerkin basis of scaled
Hermite functions.  Eigenvalues z near the barrier height E0 yield mode
frequencies lambda = h^{-1} sqrt(z), with h = (l+1/2)^{-1}.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .potentials import critical_data, inverse_tortoise_ray, potential_from_r

WINDOW = 2.0        # spectral window |z - E0| <= WINDOW * E0
QUAD_FACTOR = 2     # quadrature nodes = QUAD_FACTOR * basis size built
MAX_MATRIX = 2000   # largest matrix `eigensolve` accepts
# basis enlargement of the self-convergence filter: `qnm_direct` builds one
# operator at basis_size + DRIFT_EXTRA (with QUAD_FACTOR times that many
# nodes), solves its leading basis_size block, and reads each eigenvalue's
# move under the enlargement from that block's eigenpairs and the
# DRIFT_EXTRA added rows
DRIFT_EXTRA = 40
STAB_REL = 1e-6     # largest relative drift a kept eigenvalue may show
THETA_MAX = 1.2     # largest scaling angle theta accepted (ScalingConfig)


@dataclass(frozen=True)
class ScalingConfig:
    """Scaling angle theta of the contour x0 + (1+i theta) t and basis size.

    Complex scaling holds up to the theta_c at which the contour's r(x)
    meets r = 0, where W is singular: theta_c = 3.894 at lam = 0, and
    3.97, 4.06, 4.16 at lam m^2 = 0.01, 0.02, 0.03.  The cap THETA_MAX =
    1.2 sits well inside it; there, at N = 160, every n = 0 mode for
    l = 1..8 is within 7e-11 of Leaver's continued fraction.
    """
    theta: float
    basis_size: int

    def __post_init__(self):
        if not (0.0 <= self.theta <= THETA_MAX):
            raise ValueError("need 0 <= theta <= %g" % THETA_MAX)
        if self.basis_size < 1:
            raise ValueError("basis_size must be positive")


@functools.lru_cache(maxsize=8)
def hermite_basis(n, npts):
    """Gauss-Hermite nodes u_j and the values B[k, j] = h_k(u_j) sqrt(what_j),
    k < n, of the Hermite functions times the square roots of the weights.

    h_k are the L^2-normalized eigenfunctions of -d^2/du^2 + u^2, and
    int f(u) du ~ sum_j what_j f(u_j) for f = (poly deg < 2*npts) * e^{-u^2},
    so (B * f(u)) @ B.T is the Galerkin matrix of f.  Golub-Welsch (Math.
    Comp. 23 (1969) 221): the nodes are the eigenvalues of the Jacobi matrix
    of the Hermite recurrence, and row k of its orthonormal eigenvectors
    is h_k(u_j) sqrt(what_j) up to a sign per column, which cancels in
    every product B W B^T.  Results are cached and read-only, since
    `qnm_direct` asks for the same (n, npts) at every l.
    """
    # eigh reads the lower triangle only
    u, vec = np.linalg.eigh(np.diag(np.sqrt(0.5 * np.arange(1, npts)), -1))
    b = vec[:n]
    u.flags.writeable = False
    b.flags.writeable = False
    return u, b


def _d2_matrix(n):
    """Matrix of d^2/du^2 in the Hermite-function basis (pentadiagonal)."""
    k = np.arange(n)
    m = np.diag(-(2.0 * k + 1.0)).astype(float)
    m += _u2_matrix(n)
    return m


def _u2_matrix(n):
    """Matrix of multiplication by u^2 in the Hermite-function basis."""
    k = np.arange(n)
    m = np.diag(k + 0.5)
    off = 0.5 * np.sqrt((k[:-2] + 1.0) * (k[:-2] + 2.0))
    m += np.diag(off, 2) + np.diag(off, -2)
    return m


def build_scaled_operator(cfg, lam, h):
    """Galerkin matrix of the complex-scaled operator (complex symmetric)
    of the hole lam = lambda m^2 at unit mass.

    Basis: Hermite functions of t/sigma, sigma = (E0^2)^{-1/4} sqrt(h),
    centered at the barrier top, on the contour x = x0 + (1+i theta) t.
    """
    n = cfg.basis_size
    th = cfg.theta
    E0 = critical_data(lam)
    sigma = (E0 * E0) ** -0.25 * math.sqrt(h)
    u, b = hermite_basis(n, max(QUAD_FACTOR * n, n + 8))
    w0, w1 = potential_from_r(*inverse_tortoise_ray(sigma * u, th, lam), lam,
                              1.0)
    w = w0 + h * h * w1
    # two real products: a complex w would promote b.T to a complex gemm
    pot = (b * w.real) @ b.T + 1j * ((b * w.imag) @ b.T)
    kin = -(h / sigma) ** 2 * _d2_matrix(n) * (1.0 + 1j * th) ** -2
    return kin + pot


def eigensolve(mat, vectors=False):
    """All eigenvalues of a dense real or complex matrix, in LAPACK's order;
    with `vectors`, the pair (eigenvalues, right eigenvectors as the
    columns of a second array, in the same order).  No caller reads the
    order: sort what is kept.

    The eigenvalues are complex even where the spectrum is real; a matrix
    with a NaN or inf entry raises `np.linalg.LinAlgError`, a `ValueError`.
    """
    m = np.asarray(mat)
    if m.shape[0] > MAX_MATRIX:
        raise ValueError("matrix too large")
    if not vectors:
        return np.linalg.eigvals(m).astype(complex, copy=False)
    vals, vecs = np.linalg.eig(m)
    return vals.astype(complex, copy=False), vecs


def _lexsorted(vals):
    """`vals` sorted by real part, ties by imaginary part."""
    return vals[np.lexsort((vals.imag, vals.real))]


def _enlarged_shift(mat, vals, vecs, idx):
    """|delta_j| for each j in idx: how far the eigenvalue of the complex
    symmetric `mat` that continues the eigenvalue z_j = vals[j] of its
    leading n x n block A11 lies from z_j, to first order.

    With the right eigenvectors v_i of A11 (the columns of `vecs`) and
    s_i = v_i^T v_i, unconjugated, (mu - A11)^{-1} = sum_i v_i v_i^T /
    (s_i (mu - z_i)).  The Schur complement of A11 and the determinant
    lemma then put an eigenvalue mu of `mat` at mu - z_j = y_j^T M_j^{-1}
    y_j / s_j, with y_i = mat[n:, :n] v_i and M_j = mu - mat[n:, n:] -
    sum_{i != j} y_i y_i^T / (s_i (mu - z_i)); delta_j is that right-hand
    side at mu = z_j.  A zero s_i (a defective block) or a z_i equal to
    z_j, i != j, leaves the expansion undefined and gives inf.  The
    candidates are taken one at a time, so the work array stays
    (rows added) x n.
    """
    n = vals.size
    s = np.einsum("ij,ij->j", vecs, vecs)
    y = mat[n:, :n] @ vecs
    c = mat[n:, n:]
    eye = np.eye(c.shape[0])
    out = np.full(len(idx), np.inf)
    for k, j in enumerate(idx):
        d = s * (vals[j] - vals)
        d[j] = 1.0
        if s[j] == 0 or not d.all():
            continue
        w = 1.0 / d
        w[j] = 0.0
        m = vals[j] * eye - c - (y * w) @ y.T
        out[k] = abs(y[:, j] @ np.linalg.solve(m, y[:, j]) / s[j])
    return out


def qnm_direct(ell, cfg, p, max_modes=None):
    """Mode frequencies near the barrier top from the direct eigensolver.

    One operator is built, at basis_size + DRIFT_EXTRA; its leading
    basis_size block is the basis_size matrix.  The Hermite basis is
    nested and the kinetic part exact, so the block differs from a
    separate basis_size build only by the quadrature error of the
    potential: below 1e-13 of max|A| for l >= 4, up to 1e-12 at l = 3 and
    1e-9 at l = 1, 2, where no mode survives.  The drift filter compares
    the block with the whole build, so it measures basis convergence only.

    Of the eigenvalues z of the basis_size matrix, those with |z - E0|
    <= WINDOW*E0 whose relative drift |delta|/max(|z|, 1e-3 E0) is at most
    STAB_REL are kept and mapped to lambda = h^{-1} sqrt(z) (branch
    Re > 0).  delta is the first-order move of z to the eigenvalue of the
    larger build that continues it (`_enlarged_shift`), read from the
    block's eigenpairs, so the one dense eigensolve per l is that of the
    basis_size block.  Returns the complex array of lambda by increasing
    damping (index n = 0 least damped).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    h = 1.0 / (ell + 0.5)
    lam = p.unit_mass().lam
    E0 = critical_data(lam)
    big = replace(cfg, basis_size=cfg.basis_size + DRIFT_EXTRA)
    mat2 = build_scaled_operator(big, lam, h)
    n = cfg.basis_size
    vals, vecs = eigensolve(mat2[:n, :n], vectors=True)
    inside = np.flatnonzero(np.abs(vals - E0) <= WINDOW * E0)
    zs = vals[inside]
    # self-convergence filter: keep eigenvalues stable under basis enlargement
    drift = _enlarged_shift(mat2, vals, vecs, inside)
    drift /= np.maximum(np.abs(zs), 1e-3 * E0)
    kept = zs[drift <= STAB_REL]
    if kept.size == 0:
        raise RuntimeError(
            "no eigenvalues in the spectral window (candidates left after "
            "the window and drift filters: %d/0%s)"
            % (zs.size, "; smallest relative drift %.2g > STAB_REL %.2g"
               % (drift.min(), STAB_REL) if zs.size else ""))
    lams = np.sqrt(kept) / h
    lams = np.where(lams.real < 0, -lams, lams)
    return lams[np.argsort(-lams.imag)][:max_modes] / p.m
