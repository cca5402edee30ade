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


@dataclass(frozen=True)
class HorizonData:
    r0: float
    r_minus: float
    r_plus: float
    a0: float
    a_minus: float
    a_plus: float


def alpha_squared(r, lam):
    """alpha(r)^2 = 1 - 2/r - (1/3) lam r^2 (complex-safe)."""
    if np.any(r == 0):
        raise ValueError("r = 0 outside the domain")
    return 1.0 - 2.0 / r - lam * r * r / 3.0


def _dalpha2_dr(r, lam):
    return 2.0 / r ** 2 - 2.0 * lam * r / 3.0


def horizon_roots(lam):
    """Real roots of r*alpha^2(r) = 0 for lam > 0, with tortoise residues."""
    if lam <= 0:
        raise ValueError("horizon_roots requires lam > 0")
    # r*alpha^2 = -(lam/3) r^3 + r - 2
    roots = np.roots([-lam / 3.0, 0.0, 1.0, -2.0])
    roots = np.sort(roots.real[np.abs(roots.imag) < 1e-8 * np.max(np.abs(roots))])
    if len(roots) != 3:
        raise ValueError("ill-conditioned horizon roots (near-extremal?)")
    r0, rm, rp = roots
    # the root 2 collapses to 0 next to the roots near +-sqrt(3/lam)
    if not (r0 < 0 < rm):
        raise ValueError("lam m^2 = %g is too small to resolve the "
                         "cosmological horizon" % lam)
    if not rm < rp:
        raise ValueError("unexpected root ordering; parameters near-extremal")
    a0, am, ap = (1.0 / _dalpha2_dr(r, lam) for r in (r0, rm, rp))
    return HorizonData(r0=r0, r_minus=rm, r_plus=rp,
                       a0=a0, a_minus=am, a_plus=ap)


@dataclass(frozen=True)
class _Tortoise:
    """The log structure of the tortoise coordinate, for roots (a, c, s):

    x(r) = lin * r + sum c log(s (r - a)),   alpha^2 = k prod s (r - a) / r.

    lam = 0 has the one root (2, 2, +1) with lin = k = 1; lam > 0 has the
    three roots of r alpha^2 with their residues, lin = 0 and k = lam/3.
    The signs s make every log argument positive between the horizons.

    This is x in units of the mass.  At mass m the package's tortoise
    coordinate is m x(r/m) for lam > 0, since the residues sum to 0, and
    m x(r/m) + 2m log m for lam = 0, whose chart there is log(r - 2m).
    """
    lin: float
    k: float
    roots: tuple

    def x(self, r, skip=None):
        """x(r), leaving out the log term of root `skip`."""
        return self.lin * r + sum(c * np.log(s * (r - a))
                                  for i, (a, c, s) in enumerate(self.roots)
                                  if i != skip)

    def chart(self, root, exp, log):
        """The log chart L = log(s (r - a)) of root (a, c, s): a function
        of L giving r = a + s e^L, x(r) = c L + (the other terms) and
        dL/dx = alpha^2 / (s e^L), with `exp` and `log` of numpy (arrays)
        or of cmath (scalars).  None of them forms r - a, which may be
        exponentially small: alpha^2 / e^L is the product of the other
        roots' factors, finite when e^L underflows below the ulp of r, and
        winding in Im(x) is carried by L itself."""
        a, c, s = self.roots[root]
        lin, k = self.lin, self.k
        others = [rt for i, rt in enumerate(self.roots) if i != root]

        def at(L):
            r = a + s * exp(L)
            xo, q = 0, k / r
            for ai, ci, si in others:
                d = si * (r - ai)
                xo = xo + ci * log(d)
                q = q * d
            return r, c * L + (lin * r + xo), q / s
        return at


def _tortoise_terms(lam):
    if lam == 0:
        return _Tortoise(1.0, 1.0, ((2.0, 2.0, 1.0),))
    hz = horizon_roots(lam)
    # Python floats: numpy scalars would slow `_march`'s scalar arithmetic
    return _Tortoise(0.0, lam / 3.0, tuple(
        (float(a), float(c), s) for a, c, s in
        ((hz.r0, hz.a0, 1.0), (hz.r_minus, hz.a_minus, 1.0),
         (hz.r_plus, hz.a_plus, -1.0))))


def tortoise(r, lam):
    """x(r) with dx/dr = 1/alpha^2, real-valued on the exterior region."""
    tt = _tortoise_terms(lam)
    if not all(s * (r - a) > 0 for a, _, s in tt.roots):
        raise ValueError("need r between the horizons")
    return float(tt.x(r))


def _failed(count, tt, lam):
    """The error for `count` points whose residual |x(r) - x| exceeds
    1e-9 max(1, |x|)."""
    msg = "tortoise continuation failed at %d points" % count
    if lam > 0:
        # the outer horizons' residues grow as sqrt(3/lam)/2, so below
        # lam of about 1e-12 the rounding of their cancelling c log terms
        # in x(r) alone fails the residual test
        cmax = max(abs(c) for _, c, _ in tt.roots)
        msg += (" (lam m^2 = %.3g: x(r) sums cancelling horizon terms "
                "c log(r - a) with |c| up to %.3g m, whose rounding, "
                "about %.2g m, is held to 1e-9 max(m, |x|))"
                % (lam, cmax, np.finfo(float).eps
                   * cmax * max(1.0, abs(math.log(cmax)))))
    return RuntimeError(msg)


def inverse_tortoise(x, lam):
    """r(x) and alpha^2(r(x)) on the real line for a real array x, as
    complex arrays of x's shape with zero imaginary parts.

    Each point is solved by Newton in the log-distance L = log(s (r - a))
    to one horizon a (`_Tortoise.chart`): to 2 at lam = 0, and at lam > 0
    to the horizon on x's side of the barrier top, r_minus if x < x(3)
    else r_plus.  The seed is L = min((x - the other terms of x at
    r = a)/c, log s (3 - a)): the other terms grow from r = a to 3, so
    both lie on the barrier-top side of the root.  At lam = 0 past the
    barrier top it is L = log(x - x(3) + 1), r = x, where
    x(r) - x = 2 log(r - 2) >= 0.  x(L) is increasing and convex on
    2's and r_minus's chart, decreasing and concave on r_plus's, so
    Newton moves monotonically to the root and stays in the chart.  A
    point leaves the iteration once its own step in L is below
    1e-13 max(1, |L|), so its result does not depend on the other points.
    alpha^2 is formed from e^L for full relative precision; a residual
    |x(r) - x| above 1e-9 max(1, |x|) fails the call.
    """
    x = np.asarray(x, dtype=float)
    xf = x.ravel()
    tt = _tortoise_terms(lam)
    x3 = tt.x(3.0)
    root = np.where(xf < x3, 1, 2) if lam > 0 \
        else np.zeros(xf.shape, dtype=int)
    r = np.zeros(xf.shape, dtype=complex)
    a2 = np.zeros(xf.shape, dtype=complex)
    bad = 0
    for i in np.unique(root):
        a, c, s = tt.roots[i]
        mask = root == i
        xr = xf[mask]
        L = np.minimum((xr - tt.x(a, skip=i)) / c, math.log(s * (3.0 - a)))
        if lam == 0:
            L = np.where(xr < x3, L, np.log(np.maximum(xr - x3, 0.0) + 1.0))
        L = L.astype(complex)
        chart = tt.chart(i, np.exp, np.log)
        # a diverging point may overflow to inf or nan: the residual check
        # below catches it, so the floating-point warnings are muted
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            live = np.arange(L.size)
            for _ in range(40):
                _, xL, dL_dx = chart(L[live])
                dL = -(xL - xr[live]) * dL_dx
                L[live] += dL
                live = live[~(np.abs(dL)
                              < 1e-13 * np.maximum(1.0, np.abs(L[live])))]
                if not live.size:
                    break
            r[mask], xL, dL_dx = chart(L)
            # alpha^2 = (alpha^2 / e^L) e^L, without forming r - a
            a2[mask] = s * dL_dx * np.exp(L)
            bad += int(np.sum(~(np.abs(xL - xr)
                                <= 1e-9 * np.maximum(1.0, np.abs(xr)))))
    if bad:
        raise _failed(bad, tt, lam)
    return r.reshape(x.shape), a2.reshape(x.shape)


def _march(xs, x3, tt, root):
    """(r, alpha^2) pairs at the points xs (Python complex numbers, in
    order along a path from x3 = x(3)), each node's Newton seeded from
    the one before.  The march stops at the first node that fails, so on
    failure fewer pairs than points come back."""
    a, _, s = tt.roots[root]
    chart = tt.chart(root, cmath.exp, cmath.log)
    L = complex(math.log(s * (3.0 - a)))
    x_prev = x3
    _, _, dL_dx = chart(L)
    out = []
    for x in xs:
        try:
            # one Euler step from the previous node, then Newton
            L += (x - x_prev) * dL_dx
            for _ in range(40):
                _, xL, dL_dx = chart(L)
                dL = -(xL - x) * dL_dx
                L += dL
                if abs(dL) < 1e-13 * max(1.0, abs(L)):
                    break
            r, xL, dL_dx = chart(L)
            if not abs(xL - x) <= 1e-9 * max(1.0, abs(x)):
                break
        except (ArithmeticError, ValueError):
            # cmath raises where numpy gives inf or nan
            break
        out.append((r, s * dL_dx * cmath.exp(L)))
        x_prev = x
    return out


def inverse_tortoise_ray(t, theta, lam):
    """r(x) and alpha^2(r(x)) at x = x(3) + (1 + i theta) t for a real
    array t: r(x) continued holomorphically off the real line from the
    barrier top r(x(3)) = 3 along the ray, by one Newton pass per node.
    Each side of t = 0 is sorted by |t| and marched outward from r = 3 on
    the horizon chart `inverse_tortoise` takes on that side of the barrier
    top (2's at lam = 0; r_minus's for t < 0 and r_plus's for t >= 0 at
    lam > 0).  A node's Newton starts from its neighbour's L plus one
    Euler step, (x - x_prev) dL/dx, and stops on its own step as
    `inverse_tortoise`'s does; its residual is held to the same
    1e-9 max(1, |x|).  A node that fails ends its side's march, and it
    and the nodes past it count as failed.  The cost is two or three chart
    evaluations per node, whatever theta.
    """
    t = np.asarray(t, dtype=float)
    tt = _tortoise_terms(lam)
    x3 = float(tt.x(3.0))
    xf = (x3 + (1.0 + 1j * theta) * t).ravel()
    tf = t.ravel()
    r = np.empty(xf.shape, dtype=complex)
    a2 = np.empty(xf.shape, dtype=complex)
    bad = 0
    for side, root in ((tf < 0, 1), (tf >= 0, 2)):
        idx = np.flatnonzero(side)
        idx = idx[np.argsort(np.abs(tf[idx]), kind="stable")]
        out = _march(xf[idx].tolist(), x3, tt, root if lam > 0 else 0)
        bad += idx.size - len(out)
        if out:
            r[idx[:len(out)]], a2[idx[:len(out)]] = zip(*out)
    if bad:
        raise _failed(bad, tt, lam)
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
