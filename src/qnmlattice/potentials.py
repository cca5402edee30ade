"""Effective radial potentials, tortoise coordinate, and barrier-top data.

Geometric units.  The metric function is alpha(r)^2 = 1 - 2m/r - (1/3)L r^2
with mass m > 0 and cosmological constant 0 <= L < 1/(9 m^2).  The wave
potential splits as W(x, h) = W0(x) + h^2 W1(x) in the tortoise
coordinate x, and the barrier top sits at r = 3m.  Below
`BlackHoleParams` every function works in units of the mass, m = 1, and
takes the hole as lam = L m^2 alone (`BlackHoleParams.unit_mass`).
"""

import cmath
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .series import Series1


@dataclass(frozen=True)
class BlackHoleParams:
    m: float
    lam: float = 0.0

    def __post_init__(self):
        # E0 = (1 - 9 lam m^2)/(27 m^2) needs 27 m^2 a normal, finite float
        tiny, huge = sys.float_info.min, sys.float_info.max
        if not (0 < self.m and tiny <= 27.0 * self.m * self.m <= huge):
            raise ValueError(
                "m = %r is out of range: need m > 0 with 27 m^2 a normal, "
                "finite float, about %.2g <= m <= %.2g"
                % (self.m, math.sqrt(tiny / 27.0), math.sqrt(huge / 27.0)))
        # NaN fails; lam m m first, as in unit_mass, since 9 lam may overflow
        if not (0 <= self.lam and 9.0 * (self.lam * self.m * self.m) < 1.0):
            raise ValueError("need 0 <= lam < 1/(9 m^2)")

    def unit_mass(self):
        """(1, lam m^2): this hole in units of its mass.  r -> r/m takes
        alpha^2 at (m, lam) to alpha^2 at (1, lam m^2), so each mode
        frequency and mode-symbol coefficient is the unit-mass one over m."""
        return BlackHoleParams(1.0, self.lam * self.m * self.m)


def alpha_squared(r, lam):
    """alpha(r)^2 = 1 - 2/r - (1/3) lam r^2 (complex-safe)."""
    if np.any(r == 0):
        raise ValueError("r = 0 outside the domain")
    return 1.0 - 2.0 / r - lam * r * r / 3.0


def _dalpha2_dr(r, lam):
    return 2.0 / r ** 2 - 2.0 * lam * r / 3.0


def horizon_roots(lam):
    """(r0, r_minus, r_plus), the roots of r alpha^2 at 0 < lam < 1/9.
    Newton on the cubic in d = r - 3, (1 - 9 lam)(1 + d) - lam d^2
    (3 + d/3), whose terms keep their precision as the horizons close on
    3, rises from r = 2 to r_minus and falls from sqrt(3/lam) to r_plus:
    the cubic is concave, and monotone on each side.  Nothing forms lam/3
    or d^3, which leave the floats at the subnormal lam."""
    if not (0 < lam and 9.0 * lam < 1.0):
        raise ValueError("horizon_roots requires 0 < lam < 1/9")
    e9 = (1.0 - 8.0 * lam) - lam
    roots = []
    for d, sign in ((-1.0, 1.0), (math.sqrt(3.0) / math.sqrt(lam) - 3.0,
                                  -1.0)):
        for _ in range(100):
            ld = lam * d
            step = d - (e9 * (1.0 + d) - ld * d * (3.0 + d / 3.0)) \
                / (e9 - ld * (6.0 + d))
            if not (step - d) * sign > 0:
                break
            d = step
        roots.append(3.0 + d)
    rm, rp = roots
    return -(rm + rp), rm, rp


def _log1p(w, atanh):
    """log(1 + w) for complex w with Re w > -1, to full relative
    precision at small |w|: numpy's complex log1p forms 1 + w, and cmath
    has none."""
    return 2.0 * atanh(w / (2.0 + w))


# the chart's functions on numpy arrays, and on Python complex scalars,
# whose arithmetic is faster than numpy scalars' in `_march`'s loop
_ARRAY = (np.exp, np.arctanh)
_SCALAR = (cmath.exp, cmath.atanh)


class _Chart(NamedTuple):
    """One chart of the exterior r_minus < r < r_plus in units of the
    mass: `at(v, fns)` gives (r, x, dv/dx, alpha^2) at the chart
    coordinate v, with fns `_ARRAY` or `_SCALAR`; `seed(x)` a v at or
    above the root of x(v) = x for a real array x; (v3, x3) the barrier
    top r = 3."""
    at: Callable
    seed: Callable
    v3: float
    x3: float


def _chart(lam):
    """The tortoise chart of the hole lam: a coordinate v of the exterior
    on which x(v) is increasing and convex, so Newton from a seed at or
    above the root falls monotonically to it.

    At lam = 0, v = L = log(r - 2): r = 2 + e^L, x = 2 L + r and
    dL/dx = 1/r.  Below the barrier top the seed is min((x - 2)/2, 0), as
    x(L) lies above its asymptote 2 L + 2; above it, log(x - 3 + 1), at
    r = x, where x(L) - x = 2 log(r - 2) >= 0.  At mass m the package's
    tortoise coordinate is m x(r/m) + 2m log m.

    At lam > 0, v = log((r - r_minus)/(r_plus - r)).  With D =
    r_plus - r_minus, the logistic s(v) = 1/(1 + e^-v) and the residues
    c = 1/alpha^2'(a) of the roots a,

      r = r_minus + D s(v),    dv/dx = (lam D/3)(r - r0)/r,
      x = c_minus log s(v) + c_plus log s(-v)
          + c0 log1p((r - 3)/(3 - r0)) + c0 log1p((3 + 2 r_minus)/D).

    As the residues sum to 0, this is sum c log|r - a| (at mass m the
    package's x is m x(r/m)), but no term is larger than x.  Only
    e^-|Re v| is formed, and no r - a next to a horizon: alpha^2 =
    (dv/dx) D s(v) s(-v).  dx/dv = 3r/(lam D (r - r0)) grows with r, and
    x(v) lies above its asymptotes c_minus v + x_in at -inf and
    -c_plus v + x_out at +inf.  The seed is the lesser of v3 and the inner
    asymptote's root below x3, and above it the lesser of the outer
    asymptote's root and v(3 + x - x3), since dx/dr = 1/alpha^2 >= 1.
    """
    if lam == 0:
        def at(L, fns):
            e = fns[0](L)
            r = 2.0 + e
            dL_dx = 1.0 / r
            return r, 2.0 * L + r, dL_dx, dL_dx * e

        def seed(x):
            return np.where(x < 3.0, np.minimum((x - 2.0) / 2.0, 0.0),
                            np.log(np.maximum(x - 3.0, 0.0) + 1.0))
        return _Chart(at, seed, 0.0, 3.0)
    r0, rm, rp = horizon_roots(lam)
    D = rp - rm
    # lam D/3, not lam/3 D: lam/3 underflows at the subnormal lam
    k = lam * D / 3.0
    # the residues 1/alpha^2'(a), factored so that no product overflows
    cm = rm / (k * (rm - r0))
    cp = -rp / (k * (rp - r0))
    c0 = -r0 / (rp - r0) * (D / (k * (rm - r0)))
    top = 3.0 - r0
    K = c0 * math.log1p((3.0 + 2.0 * rm) / D)
    log_D = math.log(D)

    def at(v, fns):
        exp, atanh = fns
        # 1 on r_plus's side of v = 0, else 0; g = +-v has Re g >= 0
        up = 1.0 * (v.real >= 0)
        dn = 1.0 - up
        g = v * (up - dn)
        # D e^-g, the distance to the near horizon, stays normal where
        # e^-g alone underflows: D reaches 7.8e161
        De = exp(log_D - g)
        e = De / D
        e1 = 1.0 + e
        Dq = De / e1
        r = (rp * up + rm * dn) + Dq * (dn - up)
        x = c0 * (_log1p(e, atanh) + _log1p((r - 3.0) / top, atanh)) \
            + (cm * dn - cp * up) * v + K
        dv_dx = k * (r - r0) / r
        return r, x, dv_dx, dv_dx * (Dq / e1)

    v3 = math.log((3.0 - rm) / (rp - 3.0))
    x3 = at(complex(v3), _SCALAR)[1].real
    x_in = c0 * math.log1p((rm - 3.0) / top) + K
    x_out = c0 * math.log1p((rp - 3.0) / top) + K

    def seed(x):
        rs = 3.0 + (x - x3)
        with np.errstate(divide="ignore", invalid="ignore"):
            v_rs = np.where(rs < rp, np.log((rs - rm) / (rp - rs)), np.inf)
        return np.where(x < x3, np.minimum((x - x_in) / cm, v3),
                        np.minimum(v_rs, (x - x_out) / -cp))
    return _Chart(at, seed, v3, x3)


def _failed(count):
    return RuntimeError("tortoise continuation failed at %d points" % count)


def inverse_tortoise(x, lam):
    """r(x) and alpha^2(r(x)) on the real line for a real array x, as
    complex arrays of x's shape with zero imaginary parts.

    Each point is solved by Newton on the chart of `_chart` from its
    seed, which Newton leaves monotonically for the root.  A point leaves
    the iteration once its own step is below 1e-13 max(1, |v|), so its
    result does not depend on the other points.  A residual
    |x(r) - x| above 1e-9 max(1, |x|) fails the call.
    """
    x = np.asarray(x, dtype=float)
    xf = x.ravel()
    ch = _chart(lam)
    v = ch.seed(xf).astype(complex)
    # a diverging point may overflow to inf or nan: the residual check
    # below catches it, so the floating-point warnings are muted
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        live = np.arange(v.size)
        for _ in range(40):
            _, xv, dv_dx, _ = ch.at(v[live], _ARRAY)
            dv = -(xv - xf[live]) * dv_dx
            v[live] += dv
            live = live[~(np.abs(dv)
                          < 1e-13 * np.maximum(1.0, np.abs(v[live])))]
            if not live.size:
                break
        r, xv, _, a2 = ch.at(v, _ARRAY)
        bad = int(np.sum(~(np.abs(xv - xf)
                           <= 1e-9 * np.maximum(1.0, np.abs(xf)))))
    if bad:
        raise _failed(bad)
    return r.reshape(x.shape), a2.reshape(x.shape)


def _march(xs, ch):
    """(r, alpha^2) pairs at the points xs (Python complex numbers, in
    order along a path from the barrier top), each node's Newton seeded
    from the one before.  The march stops at the first node that fails,
    so on failure fewer pairs than points come back."""
    v, x_prev = complex(ch.v3), ch.x3
    _, _, dv_dx, _ = ch.at(v, _SCALAR)
    out = []
    for x in xs:
        try:
            # one Euler step from the previous node, then Newton
            v += (x - x_prev) * dv_dx
            for _ in range(40):
                _, xv, dv_dx, _ = ch.at(v, _SCALAR)
                dv = -(xv - x) * dv_dx
                v += dv
                if abs(dv) < 1e-13 * max(1.0, abs(v)):
                    break
            r, xv, dv_dx, a2 = ch.at(v, _SCALAR)
            if not abs(xv - x) <= 1e-9 * max(1.0, abs(x)):
                break
        except (ArithmeticError, ValueError):
            # cmath raises where numpy gives inf or nan
            break
        out.append((r, a2))
        x_prev = x
    return out


def inverse_tortoise_ray(t, theta, lam):
    """r(x) and alpha^2(r(x)) at x = x(3) + (1 + i theta) t for a real
    array t: r(x) continued holomorphically off the real line from the
    barrier top r(x(3)) = 3 along the ray, by one Newton pass per node.
    Each side of t = 0 is sorted by |t| and marched outward from r = 3 on
    the chart of `_chart`.  A node's Newton starts from its neighbour's v
    plus one Euler step, (x - x_prev) dv/dx, and stops on its own step as
    `inverse_tortoise`'s does; its residual is held to the same
    1e-9 max(1, |x|).  A node that fails ends its side's march, and it
    and the nodes past it count as failed.  The cost is two or three chart
    evaluations per node, whatever theta.
    """
    t = np.asarray(t, dtype=float)
    ch = _chart(lam)
    xf = (ch.x3 + (1.0 + 1j * theta) * t).ravel()
    tf = t.ravel()
    r = np.empty(xf.shape, dtype=complex)
    a2 = np.empty(xf.shape, dtype=complex)
    bad = 0
    for side in (tf < 0, tf >= 0):
        idx = np.flatnonzero(side)
        idx = idx[np.argsort(np.abs(tf[idx]), kind="stable")]
        out = _march(xf[idx].tolist(), ch)
        bad += idx.size - len(out)
        if out:
            r[idx[:len(out)]], a2[idx[:len(out)]] = zip(*out)
    if bad:
        raise _failed(bad)
    return r.reshape(t.shape), a2.reshape(t.shape)


def potential_from_r(r, a2, lam, m):
    """(W0, W1) at the radii m r of a hole of mass m, for r in units of
    m and a2 = alpha^2(r); W1/W0 = r alpha^2'(r) - 1/4 in any unit."""
    # W0 ~ 1/(27 m^2), but (m r)^2 is subnormal below m of about 4e-155;
    # the unit-mass W0 over m^2 would be 0 where r^2 overflows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w0 = a2 / (m * r) ** 2
        w1 = w0 * (r * _dalpha2_dr(r, lam) - 0.25)
    if not (np.all(np.isfinite(w0)) and np.all(np.isfinite(w1))):
        raise RuntimeError("potential not finite at m = %g" % m)
    return w0, w1


def critical_data(lam):
    """The barrier height E0 = (1 - 9 lam)/27 at its top r = 3; its
    curvature there, -W0''/2 in x, is E0^2."""
    E0 = (1.0 - 9.0 * lam) / 27.0
    if E0 < 1e-6:
        raise ValueError("degenerate barrier: E0 too small (near-extremal)")
    # construction-time consistency check: alpha^2(3) sums O(1) terms
    # that cancel down to 1 - 9 lam, so its rounding is O(eps), not
    # O(eps E0), near extremality
    assert abs(alpha_squared(3.0, lam) / 9.0 - E0) <= 1e-12 / 9.0
    return E0


# (lam, N) -> `_barrier_series(lam, N)`, kept only while a `_barrier_memo`
# block runs; `qnm_symbol` reads one series twice per symbol
_MEMO = []


@contextmanager
def _barrier_memo():
    """Inside the block, `_barrier_series` builds each (lam, N) once; the
    series are dropped when the block ends."""
    _MEMO.append({})
    try:
        yield
    finally:
        _MEMO.pop()


def _barrier_series(lam, N):
    """r(x0 + x) from dr/dx = alpha^2(r), r(0) = 3, and 1/r and
    W0 = alpha^2/r^2 along it, as series in x to order N.  k r_k =
    [alpha^2(r(x))]_{k-1} needs 1/r and r r only to order k - 1, so each
    step adds one coefficient of each, summed as Series1 sums them."""
    if _MEMO and (lam, N) in _MEMO[-1]:
        return _MEMO[-1][lam, N]
    c, inv, a2 = [3.0], [1 / 3.0], []
    for k in range(N + 1):
        if k:
            inv.append(-inv[0] * sum(c[j] * inv[k - j]
                                     for j in range(1, k + 1) if c[j] != 0))
        rr = sum((c[i] * c[k - i] for i in range(k + 1)
                  if c[i] != 0 and c[k - i] != 0), 0j)
        # alpha^2 = 1 - 2/r - (lam/3) r r, negated as Series1 negates
        a = -(inv[k] * 2.0)
        a2.append((a + 1.0 if k == 0 else a) + -(rr * (lam / 3.0)))
        if k < N:
            c.append(a2[k] / (k + 1))
    inv_r = Series1(inv)
    out = Series1(c), inv_r, Series1(a2) * inv_r * inv_r
    if _MEMO:
        _MEMO[-1][lam, N] = out
    return out


def shifted_potential_taylor(lam, N):
    """Taylor series of V(x) = W0(x0 + x) - E0 at the barrier top.

    V(0) = V'(0) = 0 and V''(0)/2 = -E0^2.
    """
    if N > 32:
        raise ValueError("degree capped at 32")
    _, _, w0 = _barrier_series(lam, max(N, 1))
    E0 = critical_data(lam)
    coeffs = list(w0.coeffs)
    coeffs[0] -= E0
    # enforce the exact critical-point structure; V'(0) scales as E0 over
    # the barrier's length scale 1/sqrt(E0)
    if abs(coeffs[0]) > 1e-10 * E0 or abs(coeffs[1]) > 1e-10 * E0 ** 1.5:
        raise RuntimeError("potential Taylor inconsistent at critical point")
    coeffs[0] = 0.0
    coeffs[1] = 0.0
    return Series1(coeffs).truncate(N)


def subprincipal_taylor(lam, N):
    """Taylor series of W1(x0 + x) at the barrier top."""
    r, inv_r, w0 = _barrier_series(lam, N)
    return w0 * (2.0 * inv_r - (2.0 * lam / 3.0) * (r * r) - 0.25)
