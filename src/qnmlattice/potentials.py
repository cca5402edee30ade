"""Effective radial potentials, tortoise coordinate, and barrier-top data.

Geometric units.  The metric function is alpha(r)^2 = 1 - 2m/r - (1/3)L r^2
with mass m > 0 and cosmological constant 0 <= L < 1/(9 m^2).  The wave
potential splits as W(x, h) = W0(x) + h^2 W1(x) in the tortoise
coordinate x, and the barrier top sits at r = 3m.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .series import Series1


@dataclass(frozen=True)
class BlackHoleParams:
    m: float
    lam: float = 0.0

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if self.lam < 0 or 9.0 * self.lam * self.m ** 2 >= 1.0:
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


def inverse_tortoise(x, p):
    """r(x) on the real line for a scalar or an array x: Wright omega for
    lam = 0, safeguarded Newton (per point) for lam > 0."""
    if p.lam == 0:
        # x = r + 2m log(r - 2m) <=> (r - 2m)/2m = omega(x/2m - 1 - log 2m)
        return 2.0 * p.m * (1.0 + scipy.special.wrightomega(
            np.asarray(x, dtype=float) / (2.0 * p.m) - 1.0
            - math.log(2.0 * p.m)))
    tt = _tortoise_terms(p)
    xf = np.array(x, dtype=float).ravel()
    r = np.full(xf.shape, 3.0 * p.m)
    # bracketed by the horizons r_minus and r_plus, roots 1 and 2
    lo = np.full(xf.shape, tt.roots[1][0])
    hi = np.full(xf.shape, tt.roots[2][0])
    todo = np.arange(xf.size)
    for _ in range(200):
        rt, xt = r[todo], xf[todo]
        f = tt.x(rt) - xt
        go = ~(np.abs(f) < 1e-14 * np.maximum(1.0, np.abs(xt)))
        todo, rt, f = todo[go], rt[go], f[go]
        if not todo.size:
            break
        rn = rt - f * tt.alpha2(rt)
        # bisection safeguard
        out = ~((lo[todo] < rn) & (rn < hi[todo]))
        up = f > 0
        hi[todo[out & up]] = rt[out & up]
        lo[todo[out & ~up]] = rt[out & ~up]
        rn = np.where(out, 0.5 * (lo[todo] + hi[todo]), rn)
        r[todo] = rn
        # at machine resolution next to a horizon, r is as good as it gets
        todo = todo[~(np.abs(rn - rt) <= 4.0 * np.spacing(np.abs(rt)))]
    if todo.size:
        raise RuntimeError("inverse_tortoise: Newton failed in [%g, %g]"
                           % (lo[todo[0]], hi[todo[0]]))
    return r.reshape(np.shape(x)) if np.ndim(x) else float(r[0])


# a diverging run may overflow to inf or nan: the callers' residual check
# on |x(r) - x| catches it, so the floating-point warnings are muted
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _continue(x, tt, u, root=None):
    """Homotopy-Newton continuation of x(r) = x from real-axis seeds u.

    The unknown u is r itself, or, for the index `root` of a root (a, c, s),
    the log-distance L = log(s (r - a)): then r = a + s e^L and
    x(r) = c L + (the other terms), which avoids the cancellation of
    forming r - a when it is exponentially small and makes winding in
    Im(x) automatic.  Returns r, alpha^2(r) and |x(r) - x|; alpha^2 is
    formed from e^L there, so it keeps full relative precision.
    """
    if root is None:
        def solve(u):
            return u, tt.x(u), tt.alpha2(u)
    else:
        a, c, s = tt.roots[root]

        def solve(u):
            # dx/dL = s e^L / alpha^2; alpha^2 / e^L in factored form stays
            # finite when e^L underflows below the ulp of r
            r = a + s * np.exp(u)
            return r, c * u + tt.x(r, skip=root), tt.alpha2(r, skip=root) / s
    nsteps = max(4, int(math.ceil(float(np.max(np.abs(x.imag))) * 2.0)))
    for j in range(1, nsteps + 1):
        xt = x.real + 1j * x.imag * (j / nsteps)
        for _ in range(40):
            _, xu, du_dx = solve(u)
            du = -(xu - xt) * du_dx
            u = u + du
            if np.max(np.abs(du)) < 1e-13 * max(1.0, np.max(np.abs(u))):
                break
    r, xu, _ = solve(u)
    # near a root alpha^2 = (alpha^2 / e^L) e^L, without forming r - a
    a2 = tt.alpha2(r) if root is None else tt.alpha2(r, skip=root) * np.exp(u)
    return r, a2, np.abs(xu - x)


def inverse_tortoise_complex(x, p):
    """Holomorphic continuation r(x) off the real axis, and alpha^2(r(x)).

    Vectorized over a complex array x; returns the pair (r, alpha^2).
    Points whose real part puts r close to a horizon are solved in the
    log-distance variable (stable down to exponentially small separations);
    the rest use plain Newton continuation.
    """
    x = np.asarray(x, dtype=complex)
    shape = x.shape
    xf = x.ravel()
    tt = _tortoise_terms(p)
    r_real = inverse_tortoise(xf.real, p)
    # for lam > 0, a quarter of the span between r_minus and r_plus
    near = p.m if p.lam == 0 else 0.25 * (tt.roots[2][0] - tt.roots[1][0])
    out = np.zeros(xf.shape, dtype=complex)
    a2 = np.zeros(xf.shape, dtype=complex)
    resid = np.zeros(xf.shape)
    rest = np.ones(xf.shape, dtype=bool)
    # the root r0 < 0 of lam > 0 is never within `near` of the exterior
    for i, (a, c, s) in enumerate(tt.roots):
        eps0 = s * (r_real - a)
        mask = eps0 < near
        if np.any(mask):
            # asymptotic seed where the real-line distance underflowed
            L = np.where(eps0[mask] > 0,
                         np.log(np.maximum(eps0[mask], 1e-300)),
                         (xf.real[mask] - tt.x(a, skip=i)) / c)
            out[mask], a2[mask], resid[mask] = _continue(
                xf[mask], tt, L.astype(complex), i)
        rest &= ~mask
    if np.any(rest):
        out[rest], a2[rest], resid[rest] = _continue(
            xf[rest], tt, r_real[rest].astype(complex))
    bad = ~(resid <= 1e-9 * np.maximum(1.0, np.abs(xf)))
    if np.any(bad):
        raise RuntimeError("tortoise continuation failed at %d points"
                           % int(np.sum(bad)))
    return out.reshape(shape), a2.reshape(shape)


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
    """W0 = alpha^2/r^2, r and 1/r as series in rho = r - 3m, and the
    reversion rho(x) of x(3m + rho) - x0."""
    m, lam = p.m, p.lam
    # 1/(3m + rho) = (1/3m) sum (-rho/3m)^k
    inv_r = Series1([(1.0 / (3.0 * m)) * (-1.0 / (3.0 * m)) ** k
                     for k in range(N + 1)])
    r = 3.0 * m + Series1.identity(N)
    a2 = 1.0 - 2.0 * m * inv_r - (lam / 3.0) * (r * r)
    # x(3m+rho) - x0 = integral of 1/alpha^2 d rho
    rho_of_x = a2.reciprocal().integ().truncate(N).reversion()
    return a2 * inv_r * inv_r, r, inv_r, rho_of_x


def shifted_potential_taylor(p, N):
    """Taylor series of V(x) = W0(x0 + x) - E0 at the barrier top.

    V(0) = V'(0) = 0 and V''(0)/2 = -c0.
    """
    if N > 32:
        raise ValueError("degree capped at 32")
    Np = N + 4  # working margin
    w0, _, _, rho_of_x = _barrier_series(p, Np)
    u = w0.compose(rho_of_x)
    cd = critical_data(p)
    coeffs = list(u.coeffs)
    coeffs[0] -= cd.E0
    # enforce the exact critical-point structure
    if abs(coeffs[0]) > 1e-10 * cd.E0 or abs(coeffs[1]) > 1e-10 * cd.E0:
        raise RuntimeError("potential Taylor inconsistent at critical point")
    coeffs[0] = 0.0
    coeffs[1] = 0.0
    return Series1(coeffs, Np).truncate(N)


def subprincipal_taylor(p, N):
    """Taylor series of W1(x0 + x) at the barrier top."""
    w0, r, inv_r, rho_of_x = _barrier_series(p, N + 4)
    da2 = 2.0 * p.m * (inv_r * inv_r) - (2.0 * p.lam / 3.0) * r
    return (w0 * (r * da2 - 0.25)).compose(rho_of_x).truncate(N)
