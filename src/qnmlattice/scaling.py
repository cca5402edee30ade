"""Complex-scaled operator and a direct spectral solver for mode frequencies.

The operator is restricted to the deformed contour through the barrier
top, x0 + (1+i theta) t, and discretized in a Galerkin basis of scaled
Hermite functions.  Eigenvalues z near the barrier height E0 yield mode
frequencies lambda = h^{-1} sqrt(z).
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.special

from .catalog import QnmEntry
from .potentials import critical_data, potential_W_parts

WINDOW = 2.0        # spectral window |z - E0| <= WINDOW * E0
QUAD_FACTOR = 2     # quadrature nodes = QUAD_FACTOR * basis_size
MAX_MATRIX = 2000   # largest matrix `eigensolve` accepts
DRIFT_EXTRA = 40    # basis enlargement of the self-convergence filter


@dataclass(frozen=True)
class ScalingConfig:
    theta: float = 0.3
    h: float = 0.5
    basis_size: int = 128
    stab_rel: float = 1e-6     # self-convergence filter on window eigenvalues

    def __post_init__(self):
        if not (0.0 <= self.theta <= 0.4):
            raise ValueError("need 0 <= theta <= 0.4")
        if self.basis_size < 1:
            raise ValueError("basis_size must be positive")
        if self.h <= 0:
            raise ValueError("h must be positive")


def hermite_function_values(nmax, u):
    """Values of the Hermite functions h_0..h_nmax at the points u.

    h_n are the L^2-normalized eigenfunctions of -d^2/du^2 + u^2.  Uses a
    log-rescaled three-term recurrence so that large |u| does not under-
    or overflow.
    """
    u = np.asarray(u, dtype=float)
    npts = u.size
    out = np.zeros((nmax + 1, npts))
    logscale = -0.5 * u * u
    vprev = np.zeros(npts)
    vcur = np.full(npts, math.pi ** -0.25)
    out[0] = vcur * np.exp(logscale)
    for n in range(nmax):
        vnext = (math.sqrt(2.0 / (n + 1)) * u * vcur
                 - math.sqrt(n / (n + 1.0)) * vprev)
        vprev, vcur = vcur, vnext
        big = np.abs(vcur) > 1e100
        if np.any(big):
            vcur[big] *= 1e-200
            vprev[big] *= 1e-200
            logscale[big] += 200.0 * math.log(10.0)
        out[n + 1] = vcur * np.exp(logscale)
    return out


def hermite_quadrature(npts):
    """Nodes u_j and Hermite-function weights what_j with
    int f(u) du ~ sum_j what_j f(u_j) for f = (poly deg < 2*npts) * e^{-u^2}.
    """
    u, _ = scipy.special.roots_hermite(npts)
    hlast = hermite_function_values(npts - 1, u)[npts - 1]
    hsq = npts * hlast ** 2
    # where h_{npts-1} underflows, every basis function of lower index is
    # an exact double-precision zero too, so the node contributes nothing
    what = np.where(hsq > 0, 1.0 / np.where(hsq > 0, hsq, 1.0), 0.0)
    return u, what


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


def build_scaled_operator(cfg, p):
    """Galerkin matrix of the complex-scaled operator (complex symmetric).

    Basis: Hermite functions of t/sigma, sigma = c0^{-1/4} sqrt(h), centered
    at the barrier top, on the contour x = x0 + (1+i theta) t.
    """
    n = cfg.basis_size
    h = cfg.h
    th = cfg.theta
    cd = critical_data(p)
    sigma = cd.c0 ** -0.25 * math.sqrt(h)
    npts = max(QUAD_FACTOR * n, n + 8)
    u, what = hermite_quadrature(npts)
    t = sigma * u
    w0, w1 = potential_W_parts(cd.x0 + (1.0 + 1j * th) * t, p)
    hv = hermite_function_values(n - 1, u)
    pot = (hv * (what * (w0 + h * h * w1))) @ hv.T
    kin = -(h / sigma) ** 2 * _d2_matrix(n) * (1.0 + 1j * th) ** -2
    return kin + pot


def eigensolve(mat):
    """All eigenvalues of a dense complex matrix, deterministically sorted."""
    m = np.asarray(mat)
    if m.shape[0] > MAX_MATRIX:
        raise ValueError("matrix too large")
    vals = scipy.linalg.eigvals(m)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def qnm_direct(ell, cfg, p, max_modes=None):
    """Mode frequencies near the barrier top from the direct eigensolver.

    Eigenvalues z of the scaled operator with |z - E0| < WINDOW*E0 are
    mapped to lambda = h^{-1} sqrt(z) (branch Re > 0); entries are ordered
    by increasing damping (n = 0 least damped).
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    h = 1.0 / (ell + 0.5)
    if abs(h - cfg.h) > 1e-12 * h:
        cfg = replace(cfg, h=h)
    cd = critical_data(p)
    vals = eigensolve(build_scaled_operator(cfg, p))
    cfg2 = replace(cfg, h=h, basis_size=cfg.basis_size + DRIFT_EXTRA)
    vals2 = eigensolve(build_scaled_operator(cfg2, p))
    win = np.abs(vals - cd.E0) <= WINDOW * cd.E0
    # the discretized, scaling-rotated continuum clusters near z = 0;
    # barrier-top modes stay at |z| comparable to the barrier height
    win &= np.abs(vals) >= 0.6 * cd.E0
    zs = vals[win]
    # self-convergence filter: keep eigenvalues stable under basis enlargement
    if zs.size:
        drift = np.array([np.min(np.abs(vals2 - z)) for z in zs])
        zs = zs[drift <= cfg.stab_rel * np.maximum(np.abs(zs), 1e-3 * cd.E0)]
    if zs.size == 0:
        raise RuntimeError("no eigenvalues in the spectral window")
    lams = np.sqrt(zs) / h
    lams = np.where(lams.real < 0, -lams, lams)
    keep = np.angle(lams) > -2.0 * cfg.theta
    lams = lams[keep]
    order = np.argsort(-lams.imag)
    lams = lams[order]
    if max_modes is not None:
        lams = lams[:max_modes]
    return [QnmEntry(ell=ell, n=i, lam=complex(l), multiplicity=2 * ell + 1)
            for i, l in enumerate(lams)]
