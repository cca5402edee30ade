"""Effective radial potentials, tortoise coordinate, and barrier-top data.

Geometric units.  The metric function is alpha(r)^2 = 1 - 2m/r - (1/3)L r^2
with mass m > 0 and cosmological constant 0 <= L < 1/(9 m^2).  The wave
potential splits as W(x, h) = W0(x) + h^2 W1(x) in the tortoise
coordinate x, and the barrier top sits at r = 3m.
"""

import math
from dataclasses import dataclass

import numpy as np

from .series import Series1


@dataclass(frozen=True)
class BlackHoleParams:
    m: float
    lam: float = 0.0

    def __post_init__(self):
        if not (0 < self.m < math.inf):
            raise ValueError("mass must be positive and finite")
        # written so that a NaN lam fails it too
        if not (0 <= self.lam and 9.0 * self.lam * self.m ** 2 < 1.0):
            raise ValueError("need 0 <= lam < 1/(9 m^2)")


@dataclass(frozen=True)
class HorizonData:
    r0: float
    r_minus: float
    r_plus: float
    a0: float
    a_minus: float
    a_plus: float


@dataclass(frozen=True)
class CriticalData:
    r_crit: float
    x0: float
    E0: float
    c0: float


def alpha_squared(r, p):
    """alpha(r)^2 = 1 - 2m/r - (1/3) lam r^2 (complex-safe)."""
    if np.any(r == 0):
        raise ValueError("r = 0 outside the domain")
    return 1.0 - 2.0 * p.m / r - p.lam * r * r / 3.0


def _dalpha2_dr(r, p):
    return 2.0 * p.m / r ** 2 - 2.0 * p.lam * r / 3.0


def horizon_roots(p):
    """Real roots of r*alpha^2(r) = 0 for lam > 0, with tortoise residues."""
    if p.lam <= 0:
        raise ValueError("horizon_roots requires lam > 0")
    # r*alpha^2 = -(lam/3) r^3 + r - 2m
    roots = np.roots([-p.lam / 3.0, 0.0, 1.0, -2.0 * p.m])
    roots = np.sort(roots.real[np.abs(roots.imag) < 1e-8 * np.max(np.abs(roots))])
    if len(roots) != 3:
        raise ValueError("ill-conditioned horizon roots (near-extremal?)")
    r0, rm, rp = roots
    if not (r0 < 0 < rm < rp):
        raise ValueError("unexpected root ordering; parameters near-extremal")
    a0, am, ap = (1.0 / _dalpha2_dr(r, p) for r in (r0, rm, rp))
    return HorizonData(r0=r0, r_minus=rm, r_plus=rp,
                       a0=a0, a_minus=am, a_plus=ap)


@dataclass(frozen=True)
class _Tortoise:
    """The log structure of the tortoise coordinate, for roots (a, c, s):

    x(r) = lin * r + sum c log(s (r - a)),   alpha^2 = k prod s (r - a) / r.

    lam = 0 has the one root (2m, 2m, +1) with lin = k = 1; lam > 0 has the
    three roots of r alpha^2 with their residues, lin = 0 and k = lam/3.
    The signs s make every log argument positive between the horizons.
    """
    lin: float
    k: float
    roots: tuple

    def x(self, r, skip=None):
        """x(r), leaving out the log term of root `skip`."""
        return self.lin * r + sum(c * np.log(s * (r - a))
                                  for i, (a, c, s) in enumerate(self.roots)
                                  if i != skip)

    def alpha2(self, r, skip=None):
        """alpha^2(r), divided by s (r - a) of root `skip`."""
        out = self.k / r
        for i, (a, _, s) in enumerate(self.roots):
            if i != skip:
                out = out * (s * (r - a))
        return out


def _tortoise_terms(p):
    if p.lam == 0:
        return _Tortoise(1.0, 1.0, ((2.0 * p.m, 2.0 * p.m, 1.0),))
    hz = horizon_roots(p)
    return _Tortoise(0.0, p.lam / 3.0,
                     ((hz.r0, hz.a0, 1.0), (hz.r_minus, hz.a_minus, 1.0),
                      (hz.r_plus, hz.a_plus, -1.0)))


def tortoise(r, p):
    """x(r) with dx/dr = 1/alpha^2, real-valued on the exterior region."""
    tt = _tortoise_terms(p)
    if not all(s * (r - a) > 0 for a, _, s in tt.roots):
        raise ValueError("need r between the horizons")
    return float(tt.x(r))


def _wright_omega(z):
    """Wright omega of a real array z: the solution w > 0 of w + log w = z.

    Three Fritsch-Shafer-Crowley steps (the iteration of Lawrence, Corless
    and Jeffrey, ACM TOMS 38 (2012) 20), written in r / (1 + w) so that
    each step rescales w by a factor and nothing overflows at large z; two
    steps leave 2e-11 near z = 1, the third reaches rounding.  Below
    z = -40, w = e^z to double precision, and e^z may underflow to 0.
    """
    zc = np.maximum(z, -40.0)
    w = np.where(zc > 1.0, zc - np.log(np.maximum(zc, 1.0)),
                 np.exp(np.minimum(zc, 1.0)))
    for _ in range(3):
        r = zc - w - np.log(w)
        t = r / (1.0 + w)
        s = 2.0 * (1.0 + w) + (4.0 / 3.0) * r
        w = w * (1.0 + t * (s - t) / (s - 2.0 * t))
    return np.where(z > -40.0, w, np.exp(np.minimum(z, -40.0)))


def inverse_tortoise(x, p):
    """r(x) on the real line for a scalar or an array x: for lam = 0,
    r = 2m (1 + omega(x/2m - 1 - log 2m)) with the Wright omega function
    `_wright_omega`; for lam > 0, `inverse_tortoise_complex` at Im x = 0."""
    if p.lam > 0:
        r = inverse_tortoise_complex(x, p)[0].real
        return r if np.ndim(x) else float(r)
    xf = np.array(x, dtype=float).ravel()
    # x = r + 2m log(r - 2m) <=> (r - 2m)/2m = omega(x/2m - 1 - log 2m)
    r = 2.0 * p.m * (1.0 + _wright_omega(
        xf / (2.0 * p.m) - 1.0 - math.log(2.0 * p.m)))
    return r.reshape(np.shape(x)) if np.ndim(x) else float(r[0])


# a diverging run may overflow to inf or nan: the callers' residual check
# on |x(r) - x| catches it, so the floating-point warnings are muted
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _continue(x, tt, L, root, m):
    """Homotopy-Newton continuation of x(r) = x in the log-distance
    L = log(s (r - a)) to the root (a, c, s) of index `root`, from
    real-axis seeds L, with Im(x) switched on in steps of at most m/2.
    r = a + s e^L and x(r) = c L + (the other terms) avoid forming r - a
    when it is exponentially small and make winding in Im(x) automatic.
    Returns r, alpha^2(r), formed from e^L for full relative precision,
    and |x(r) - x|.
    """
    a, c, s = tt.roots[root]

    def solve(L):
        # dx/dL = s e^L / alpha^2; alpha^2 / e^L in factored form stays
        # finite when e^L underflows below the ulp of r
        r = a + s * np.exp(L)
        return r, c * L + tt.x(r, skip=root), tt.alpha2(r, skip=root) / s
    nsteps = max(4, math.ceil(2.0 * float(np.max(np.abs(x.imag))) / m))
    for j in range(1, nsteps + 1):
        xt = x.real + 1j * x.imag * (j / nsteps)
        for _ in range(40):
            _, xL, dL_dx = solve(L)
            dL = -(xL - xt) * dL_dx
            L = L + dL
            if np.max(np.abs(dL)) < 1e-13 * max(1.0, np.max(np.abs(L))):
                break
    r, xL, _ = solve(L)
    # alpha^2 = (alpha^2 / e^L) e^L, without forming r - a
    return r, tt.alpha2(r, skip=root) * np.exp(L), np.abs(xL - x)


def inverse_tortoise_complex(x, p):
    """Holomorphic continuation r(x) off the real axis, and alpha^2(r(x)).

    Vectorized over a complex array x; returns the pair (r, alpha^2).
    Each point is continued by `_continue` in the log-distance to one
    horizon a from a real seed L.  At lam = 0 that is 2m, seeded from the
    Wright omega root at Re x (from the asymptote where r - 2m
    underflows).  At lam > 0 it is the horizon on Re x's side of the
    barrier top, r_minus if Re x < x(3m) else r_plus, seeded at
    L = min((Re x - the other terms of x at r = a)/c, log s (3m - a)):
    the other terms grow from r = a to 3m, so both lie on the barrier-top
    side of the root.  x(L) is increasing and convex on r_minus's chart,
    decreasing and concave on r_plus's, so Newton moves monotonically to
    the real root and stays in the chart.
    """
    x = np.asarray(x, dtype=complex)
    xf = x.ravel()
    tt = _tortoise_terms(p)
    root = np.where(xf.real < tt.x(3.0 * p.m), 1, 2) if p.lam > 0 \
        else np.zeros(xf.shape, dtype=int)
    r = np.zeros(xf.shape, dtype=complex)
    a2 = np.zeros(xf.shape, dtype=complex)
    resid = np.zeros(xf.shape)
    for i, (a, c, s) in enumerate(tt.roots):
        mask = root == i
        if np.any(mask):
            L = (xf.real[mask] - tt.x(a, skip=i)) / c
            if p.lam == 0:
                e = inverse_tortoise(xf.real[mask], p) - a
                L = np.where(e > 0, np.log(np.maximum(e, 1e-300)), L)
            else:
                L = np.minimum(L, math.log(s * (3.0 * p.m - a)))
            r[mask], a2[mask], resid[mask] = _continue(
                xf[mask], tt, L.astype(complex), i, p.m)
    bad = ~(resid <= 1e-9 * np.maximum(p.m, np.abs(xf)))
    if np.any(bad):
        raise RuntimeError("tortoise continuation failed at %d points"
                           % int(np.sum(bad)))
    return r.reshape(x.shape), a2.reshape(x.shape)


def critical_data(p):
    """Barrier-top data: r = 3m, height E0, curvature c0 = E0^2."""
    m, lam = p.m, p.lam
    r_crit = 3.0 * m
    E0 = (1.0 - 9.0 * lam * m * m) / (27.0 * m * m)
    if E0 < 1e-6 / (m * m):
        raise ValueError("degenerate barrier: E0 too small (near-extremal)")
    x0 = tortoise(r_crit, p)
    # construction-time consistency check
    val = alpha_squared(r_crit, p) / r_crit ** 2
    assert abs(val - E0) <= 1e-12 * abs(E0)
    return CriticalData(r_crit=r_crit, x0=x0, E0=E0, c0=E0 * E0)


def potential_W_parts(x_arr, p):
    """Vectorized (W0, W1) on a complex array of tortoise coordinates,
    with W = W0 + h^2 W1."""
    r, a2 = inverse_tortoise_complex(x_arr, p)
    w0 = a2 / r ** 2
    return w0, w0 * (r * _dalpha2_dr(r, p) - 0.25)


def _barrier_series(p, N):
    """r(x0 + x) from dr/dx = alpha^2(r), r(0) = 3m, and 1/r and
    W0 = alpha^2/r^2 along it, as series in x to order N.  k r_k =
    [alpha^2(r(x))]_{k-1} needs 1/r and r r only to order k - 1, so each
    step adds one coefficient of each, summed as Series1 sums them."""
    m, lam = p.m, p.lam
    c, inv, a2 = [3.0 * m], [1 / (3.0 * m)], []
    for k in range(N + 1):
        if k:
            inv.append(-inv[0] * sum(c[j] * inv[k - j]
                                     for j in range(1, k + 1) if c[j] != 0))
        rr = sum((c[i] * c[k - i] for i in range(k + 1)
                  if c[i] != 0 and c[k - i] != 0), 0j)
        # alpha^2 = 1 - 2m/r - (lam/3) r r, negated as Series1 negates
        a = -(inv[k] * (2.0 * m))
        a2.append((a + 1.0 if k == 0 else a) + -(rr * (lam / 3.0)))
        if k < N:
            c.append(a2[k] / (k + 1))
    inv_r = Series1(inv)
    return Series1(c), inv_r, Series1(a2) * inv_r * inv_r


def shifted_potential_taylor(p, N):
    """Taylor series of V(x) = W0(x0 + x) - E0 at the barrier top.

    V(0) = V'(0) = 0 and V''(0)/2 = -c0.
    """
    if N > 32:
        raise ValueError("degree capped at 32")
    _, _, w0 = _barrier_series(p, max(N, 1))
    cd = critical_data(p)
    coeffs = list(w0.coeffs)
    coeffs[0] -= cd.E0
    # enforce the exact critical-point structure; V'(0) scales as E0 over
    # the barrier's length scale 1/sqrt(E0)
    if abs(coeffs[0]) > 1e-10 * cd.E0 \
            or abs(coeffs[1]) > 1e-10 * cd.E0 ** 1.5:
        raise RuntimeError("potential Taylor inconsistent at critical point")
    coeffs[0] = 0.0
    coeffs[1] = 0.0
    return Series1(coeffs).truncate(N)


def subprincipal_taylor(p, N):
    """Taylor series of W1(x0 + x) at the barrier top."""
    r, inv_r, w0 = _barrier_series(p, N)
    return w0 * (2.0 * p.m * inv_r - (2.0 * p.lam / 3.0) * (r * r) - 0.25)
