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

The spectrum is solved as two parity blocks.  -h^2 d^2 + i x^2 commutes
with x -> -x, and in the Hermite basis x^2 couples index k only to k and
k +- 2, so the Galerkin matrix is exactly 0 wherever j - k is odd.  The
even and odd Hermite functions then span invariant subspaces, and the
spectrum is the union of the spectra of the two blocks, for about a
quarter of the flops of one dense eigensolve.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .scaling import _lexsorted, _u2_matrix, eigensolve


@dataclass(frozen=True)
class RotatedHOConfig:
    h: float = 0.05
    basis_size: int = 151

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.basis_size < 8:
            raise ValueError("basis_size must be >= 8")


def exact_rotated_ho_eigs(cfg, count):
    """Exact eigenvalues e^{i pi/4} h (2n+1), n = 0..count-1."""
    if count > cfg.basis_size:
        raise ValueError("count exceeds basis size")
    rot = cmath.exp(1j * math.pi / 4.0)
    return [rot * cfg.h * (2 * n + 1) for n in range(count)]


def hermite_galerkin_matrix(cfg):
    """Matrix of -h^2 d^2 + i x^2 in the h-scaled Hermite eigenbasis.

    The basis diagonalizes -h^2 d^2 + x^2 with eigenvalues (2n+1)h, and
    x^2 is pentadiagonal (h times the u^2 ladder matrix), so the operator
    is diag((2n+1)h) + (i-1)*[x^2].
    """
    n = cfg.basis_size
    h = cfg.h
    k = np.arange(n)
    mat = np.diag((2.0 * k + 1.0) * h).astype(complex)
    mat += (1j - 1.0) * h * _u2_matrix(n)
    return mat


def instability_report(cfg):
    """Greedy match of computed vs exact eigenvalues, with the first index
    where the distance exceeds 10% of |lam_exact|.

    The computed spectrum is that of the even block mat[0::2, 0::2] joined
    with that of the odd block mat[1::2, 1::2], sorted as `eigensolve`
    sorts; the entries coupling the two parities are exactly 0, so the
    split changes no eigenvalue in exact arithmetic.

    Returns {"rows": [...], "divergence_index": n* or None}.  Matching is
    nearest-neighbor in order of increasing |lam_exact| (a heuristic; the
    threshold index is robust to the matching choice).

    n* is min(truncation limit ~0.31*N, rounding limit where kappa_n
    passes 1/u), so it is independent of h and, in double precision,
    stays near 47 for N beyond ~150; see the module docstring.
    """
    mat = hermite_galerkin_matrix(cfg)
    computed = _lexsorted(np.concatenate([eigensolve(mat[0::2, 0::2]),
                                          eigensolve(mat[1::2, 1::2])]))
    exact = exact_rotated_ho_eigs(cfg, cfg.basis_size)
    avail = np.ones(len(computed), dtype=bool)
    rows = []
    nstar = None
    for n, ex in enumerate(exact):
        d = np.where(avail, np.abs(computed - ex), np.inf)
        j = int(np.argmin(d))
        avail[j] = False
        dist = float(d[j])
        rows.append({"n": n, "exact": ex, "computed": complex(computed[j]),
                     "distance": dist})
        if nstar is None and dist > 0.1 * abs(ex):
            nstar = n
    return {"rows": rows, "divergence_index": nstar}
