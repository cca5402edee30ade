"""Rotated harmonic oscillator: exact spectrum vs Galerkin numerics.

The operator -h^2 d^2/dx^2 + i x^2 has exact eigenvalues
e^{i pi/4} h (2n+1), but its strong non-normality makes numerically
computed eigenvalues unreliable deep in the complex plane.  This module
quantifies where the computed spectrum detaches from the true one.

The divergence index n* is the lesser of two limits.  Basis truncation
caps it near 0.31*N for basis size N, in exact arithmetic too.  Rounding
caps it where the eigenvalue condition number kappa_n = |v|^2/|v^T v|
(about 2.3x larger per index) reaches 1/u, u the unit roundoff: near
n = 47 in double precision, whatever N is.  The operator is h times an
h-independent matrix, so n* does not depend on h; and since the two
limits meet at N ~ 150, n* stops growing there and larger bases only move
it by a few indices of rounding noise (Davies, Proc. R. Soc. A 455
(1999) 585).

The spectrum is solved as two real tridiagonal matrices.  -h^2 d^2 + i x^2
commutes with x -> -x, and in the Hermite basis x^2 couples index k only
to k and k +- 2, so the even and odd Hermite functions span invariant
subspaces.  With U2 the ladder matrix of u^2, the Galerkin matrix
h diag(2k+1) + (i-1) h U2 equals (1+i) h (diag(U2) + i offdiag(U2)), as
(1+i) i = i-1.  Its parity-p block, with index j, is (1+i) h S T_p S^-1
for the unitary S = diag(i^j) and the real, h-free, tridiagonal
T_p = tril(U2[p::2, p::2]) - triu(U2[p::2, p::2], 1).  A unitary
similarity leaves every kappa_n unchanged, and the computed spectrum is
exactly linear in h.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .scaling import eigensolve


@dataclass(frozen=True)
class RotatedHOConfig:
    h: float
    basis_size: int

    def __post_init__(self):
        if not (0 < self.h < math.inf):
            raise ValueError("h must be positive and finite")
        if self.basis_size < 8:
            raise ValueError("basis_size must be >= 8")


def exact_rotated_ho_eigs(cfg, count):
    """Exact eigenvalues e^{i pi/4} h (2n+1), n = 0..count-1."""
    if count > cfg.basis_size:
        raise ValueError("count exceeds basis size")
    rot = cmath.exp(1j * math.pi / 4.0)
    return [rot * cfg.h * (2 * n + 1) for n in range(count)]


def _parity_block(n, p):
    """T_p of the module docstring, built at its own size: for the Hermite
    indices k = p, p+2, ... below n, the diagonal k + 1/2 of U2, the
    subdiagonal 0.5 sqrt((k+1)(k+2)) of U2 and the superdiagonal its
    negative."""
    k = np.arange(p, n, 2)
    off = 0.5 * np.sqrt((k[:-1] + 1.0) * (k[:-1] + 2.0))
    return np.diag(k + 0.5) + np.diag(off, -1) - np.diag(off, 1)


def _lexsorted(vals):
    """`vals` sorted by real part, ties by imaginary part."""
    return vals[np.lexsort((vals.imag, vals.real))]


def instability_report(cfg):
    """Greedy match of computed vs exact eigenvalues, with the first index
    where the distance exceeds 10% of |lam_exact|.

    The computed spectrum is (1+i) h times the eigenvalues of T_0 and T_1,
    real dgeev solves of ceil(N/2) and floor(N/2) rows, sorted by (real,
    imaginary) part; see the module docstring for the similarity.

    Returns {"rows": [...], "divergence_index": n* or None}.  Matching is
    nearest-neighbor in order of increasing |lam_exact| (a heuristic; the
    threshold index is robust to the matching choice).

    n* is min(truncation limit ~0.31*N, rounding limit where kappa_n
    passes 1/u), so it is independent of h and, in double precision,
    stays near 47 for N beyond ~150; see the module docstring.
    """
    # an h near the top of the float range overflows the spectrum, which
    # is refused below: the floating-point warnings are muted
    with np.errstate(over="ignore", invalid="ignore"):
        computed = _lexsorted((1 + 1j) * cfg.h * np.concatenate(
            [eigensolve(_parity_block(cfg.basis_size, p)) for p in (0, 1)]))
        exact = exact_rotated_ho_eigs(cfg, cfg.basis_size)
        avail = np.ones(len(computed), dtype=bool)
        rows = []
        nstar = None
        for n, ex in enumerate(exact):
            d = np.where(avail, np.abs(computed - ex), np.inf)
            j = int(np.argmin(d))
            avail[j] = False
            dist = float(d[j])
            # finite only if both eigenvalues are, and each row has one
            # computed and one exact eigenvalue
            if not math.isfinite(dist):
                raise RuntimeError("spectrum not finite at h = %g" % cfg.h)
            rows.append({"n": n, "exact": ex,
                         "computed": complex(computed[j]), "distance": dist})
            if nstar is None and dist > 0.1 * abs(ex):
                nstar = n
    return {"rows": rows, "divergence_index": nstar}
