"""Reference implementations that only the tests use.

Exact Gaussian-rational coefficients for the exact-arithmetic checks, and
independent oracles for the symbol calculus: the series derivatives, the
Poisson bracket, the flow-quadrature average, the symmetrized-ordering
action of a Weyl symbol on monomials, graded composition `hcompose` and
the graded functional inverse built on it, the graded Weyl product and
commutator by repeated series derivatives (`_moyal_term`), the closed-form
commutator on dicts of monomials (`moyal_commutator_dict`) and the
reduction loop built on it (`birkhoff_dict`), the dense commutator with
one scatter per level pair and odd k (`moyal_commutator_pairwise`, the
bit-for-bit oracle of each term `normalform.moyal_commutator` forms, on
S_k tables of its own, `s_k_rows`),
the reduction loop on a dict of dense levels built on it
(`reduce_step_levels` and `birkhoff_levels`, the bit-for-bit oracle of
the flat loop `normalform._birkhoff`), and quantum averaging by the
round trip through g^{-1}(Q) after the h^0 pass of the Birkhoff
reduction alone.  The dict-of-monomials (`Series2`) side of the normal
form: the level sum and scaling of graded symbols, the homological
solution `homological_solve`, the linear reduction by
`Series2.subs_linear` into dense levels, `reduced_levels` (the
bit-for-bit oracle of `normalform._taylor_levels`), and `birkhoff` and
`diag_levels`, which run the dense loop and diagonal check on `Series2`
symbols.  The Taylor series of the Poschl-Teller barrier sech^2(x) - 1,
whose mode symbol is known exactly, `poschl_teller_taylor`, and of the
asymmetric Rosen-Morse barrier at its top, `rosen_morse_taylor`, with
its exact mode symbol `rosen_morse_symbol` and that symbol's coefficients,
`rosen_morse_symbol_taylor`; the Poschl-Teller limit of the
Schwarzschild-de Sitter symbol, `sds_poschl_teller_limit`.  Also the
classical normal form with its
Jacobian factor and action, `classical_bnf`, the series antiderivative
and reversion these oracles use, and a 50-digit Taylor oracle for the
barrier potential, `barrier_taylor_mp`, the tortoise coordinate x(r)
from mpmath's own horizon roots, `tortoise`, the real inverse tortoise
coordinate at lam = 0 from scipy's Wright omega, `inverse_tortoise_wright`,
at any lam as a bracketed mpmath root in the log-distance to a horizon,
`inverse_tortoise_mp`, and its complex continuation along a straight
contour by RK4 on dr/dx = alpha^2(r), `inverse_tortoise_rk4`, and to
any complex x by a homotopy in Im x, `inverse_tortoise_homotopy` (the
oracle of the march along the direct solver's contour, and bit for bit
the real-axis solver at Im x = 0); and the
barrier-top series of r, 1/r and W0 by whole Series1 rebuilds,
`barrier_series_rebuild`.
For the direct solver, the Hermite functions by their three-term
recurrence and the Gauss-Hermite rule built on it, and Golub-Welsch by
LAPACK's tridiagonal eigensolver, `hermite_basis_tridiagonal`: the
oracles for `hermite_basis`.  For the rotated oscillator, its complex
Galerkin matrix, `hermite_galerkin_matrix`: the oracle for the real
parity blocks that `instability_report` solves.  For the direct solver's
mode selection, the four filters it once ran, `direct_modes_four_filters`
with its drift `relative_drift`: the bit-for-bit oracle of the window and
drift filters `qnm_direct` keeps.  For the lattice rule,
the symbol G(x; h) by `np.polyval` on complex coefficient arrays,
`eval_symbol_polyval`: the bit-for-bit oracle of the Horner loop in
`catalog`, and the validity radius by all 80 bisection steps,
`validity_radius_bisect80`.  For sector counting, the walk in n over
all ell at once, `count_walk`: the integer-for-integer oracle of the
bisections in
`catalog.asymptotic_check`.
"""

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg
import scipy.special

from qnmlattice.catalog import (MAX_ELL, VALIDITY_FRAC, counting_constant,
                                eval_symbol)
from qnmlattice.normalform import (TWO_PI, _birkhoff, _columns, _degree,
                                   _diag_levels, _start,
                                   quad_reduce)
from qnmlattice.potentials import _ARRAY, _chart, _failed
from qnmlattice.scaling import STAB_REL, WINDOW, _u2_matrix
from qnmlattice.series import HGraded, Series1, Series2


class GaussianRational:
    """Exact complex number a + b*i with rational a, b.

    Python ints, Fractions, floats and complex numbers coerce exactly
    (through `Fraction`), so `1j * c` stays exact.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, complex):
            return GaussianRational(Fraction(x.real), Fraction(x.imag))
        if isinstance(x, (int, float, Fraction)):
            return GaussianRational(x, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return "GaussianRational(%s, %s)" % (self.re, self.im)

    @staticmethod
    def i():
        return GaussianRational(0, 1)


def deriv(s):
    """Derivative of a Series1 (order drops by one)."""
    n = s.trunc_order
    if n == 0:
        return Series1((0,), 0)
    return Series1(tuple(k * s.coeffs[k] for k in range(1, n + 1)), n - 1)


def integ(s):
    """Antiderivative of a Series1 with zero constant term (extends order
    by one)."""
    n = s.trunc_order
    out = [0]
    for k in range(n + 1):
        c = s.coeffs[k]
        out.append(c / (k + 1) if c != 0 else 0)
    return Series1(out, n + 1)


def reversion(s):
    """Compositional inverse T of a Series1, s(T(y)) = y + O(y^{N+1})."""
    if s.coeffs[0] != 0:
        raise ValueError("reversion requires vanishing constant term")
    s1 = s.coeffs[1]
    if s1 == 0:
        raise ValueError("reversion requires nonzero linear term")
    n = s.trunc_order
    inv1 = 1 / s1
    out = [0, inv1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t = Series1(out, n)
        e = s.compose(t).coeffs[k]
        out[k] = -inv1 * e
    return Series1(out, n)


def dz(s):
    """d/dz of a Series2 (order drops by one)."""
    out = {}
    for (m, n), c in s.coeffs.items():
        if m > 0:
            out[(m - 1, n)] = m * c
    return Series2(out, s.trunc_order - 1 if s.trunc_order else 0)


def dzeta(s):
    """d/dzeta of a Series2 (order drops by one)."""
    out = {}
    for (m, n), c in s.coeffs.items():
        if n > 0:
            out[(m, n - 1)] = n * c
    return Series2(out, s.trunc_order - 1 if s.trunc_order else 0)


def poisson(a, b):
    """{a, b} = d_zeta a * d_z b - d_z a * d_zeta b."""
    return dzeta(a) * dz(b) + (-1) * (dz(a) * dzeta(b))


def _moyal_term(a, b, k, degree):
    """k-th bidifferential term of the Weyl product (without h^k), by
    repeated series derivatives.

    Inputs are treated as exact polynomials; the result is truncated at
    total degree `degree` only.
    """
    if k == 0:
        return (Series2(a.coeffs, degree + 1)
                * Series2(b.coeffs, degree + 1)).truncate(degree)
    pref = (1.0 / (2j)) ** k / math.factorial(k)
    pad = degree + k + 1
    out = Series2.zero(degree)
    for j in range(k + 1):
        da = Series2(a.coeffs, pad)
        for _ in range(j):
            da = dzeta(da)
        for _ in range(k - j):
            da = dz(da)
        db = Series2(b.coeffs, pad)
        for _ in range(j):
            db = dz(db)
        for _ in range(k - j):
            db = dzeta(db)
        out = out + (math.comb(k, j) * ((-1) ** (k - j))
                     * (da * db).truncate(degree))
    return pref * out


def moyal_commutator_ref(a, b, K, degree):
    """a # b - b # a from `_moyal_term`; even bidifferential terms cancel
    identically.  Oracle for `normalform.moyal_commutator`.

    Result level ell is kept to total degree `degree` - 2 ell.
    """
    out = {}
    for ka, sa in a.levels.items():
        for kb, sb in b.levels.items():
            for k in range(1, min(K, degree // 2) - ka - kb + 1, 2):
                lvl = ka + kb + k
                t = 2.0 * _moyal_term(sa, sb, k, degree - 2 * lvl)
                out[lvl] = out.get(lvl, Series2.zero(degree)) + t
    return HGraded(out, K)


def series2_value(s, z, zeta):
    """Value of a Series2 at the point (z, zeta)."""
    return sum(c * z ** m * zeta ** n for (m, n), c in s.coeffs.items())


def average_by_flow_quadrature(r, nodes=64):
    """<r> via (1/2pi) integral of r(e^{it} z, e^{-it} zeta) dt, trapezoid.

    Returns a Series2 (diagonal).  Independent oracle for the average <r>,
    the diagonal part that homological_solve leaves.
    """
    n = r.trunc_order
    acc = {}
    for j in range(nodes):
        t = 2.0 * math.pi * j / nodes
        ph = cmath.exp(1j * t)
        for (m, k), c in r.coeffs.items():
            w = complex(c) * ph ** (m - k)
            acc[(m, k)] = acc.get((m, k), 0.0) + w
    return Series2({k: v / nodes for k, v in acc.items()}, n)


def weyl_monomial_action(levels, K, k_z, nw):
    """Apply Op_weyl of a diagonal graded symbol to z^{k_z}.

    Uses the symmetrized-ordering formula Op_w(z^a zeta^b) =
    2^{-a} sum_j C(a,j) z^j (hD)^b z^{a-j}.  Returns {h_level: coeff} of
    the resulting multiple of z^{k_z}.
    """
    out = {}
    for kf in levels:
        s = levels[kf]
        for n, c in enumerate(s.coeffs):
            c = complex(c)
            if c == 0:
                continue
            # Op_w(z^n zeta^n) z^k = 2^{-n} sum_j C(n,j) z^j (hD)^n z^{n-j+k}
            for j in range(n + 1):
                p = n - j + k_z     # power before the derivatives
                # (hD)^n z^p = (h/i)^n p!/(p-n)! z^{p-n}
                if p - n < 0:
                    continue
                fall = 1.0
                for t in range(n):
                    fall *= (p - t)
                coeff = (c * 2.0 ** (-n) * math.comb(n, j)
                         * (1.0 / 1j) ** n * fall)
                # resulting power: j + (p - n) = k_z  -> contributes h^n
                lvl = kf + n
                if lvl <= K:
                    out[lvl] = out.get(lvl, 0.0) + coeff
    return out


def hcompose(F, G):
    """Graded composition F(G(x;h); h) for univariate symbols.

    F's levels are series in one variable w; G is an h-graded series in x
    whose h^0 level need not vanish at 0 only if F tolerates it (we require
    G_0(0) = 0 so that plain series composition applies level by level).
    """
    K = min(F.h_order, G.h_order)
    G0 = G.level(0)
    if G0 is None:
        raise ValueError("hcompose requires an h^0 level in the argument")
    if G0.coeffs[0] != 0:
        raise ValueError("hcompose requires G_0(0) = 0")
    N = min(F.trunc_order(), G0.trunc_order)
    # powers of the h>=1 tail of G, expanded in h
    tail = {k: s for k, s in G.levels.items() if k >= 1}
    out = {}

    def add_level(k, s):
        # pad to the shared order N; exact whenever the inputs are
        # polynomials embedded with margin below N
        s = Series1(s.coeffs, N)
        out[k] = out.get(k, Series1.constant(0, N)) + s

    # u^t where u = sum_{k>=1} h^k G_k ; store as dict h-level -> Series1
    upows = [{0: Series1.constant(1, N)}]
    cur = {0: Series1.constant(1, N)}
    for _ in range(K):
        nxt = {}
        for k1, s1 in cur.items():
            for k2, s2 in tail.items():
                k = k1 + k2
                if k <= K:
                    nxt[k] = nxt.get(k, Series1.constant(0, N)) + s1 * s2
        cur = nxt
        upows.append(cur)
    for j, Fj in F.levels.items():
        if j > K:
            continue
        # F_j(G0 + u) = sum_t F_j^{(t)}(G0)/t! u^t
        der = Fj.truncate(N)
        fact = 1
        for t in range(0, K - j + 1):
            if t > 0:
                # levels are exact polynomials, so the derivative keeps the
                # full stored order
                der = Series1(deriv(der).coeffs, N)
                fact *= t
            if not upows[t]:
                continue
            base = der.compose(G0.truncate(N))
            for k2, s2 in upows[t].items():
                k = j + k2
                if k <= K:
                    add_level(k, (1 / fact) * (base * s2) if fact != 1
                              else base * s2)
    return HGraded(out, K)


def functional_inverse(S):
    """Graded inverse G with S(G(x;h);h) = x to stored orders."""
    S0 = S.level(0)
    if S0 is None or S0.coeffs[0] != 0:
        raise ValueError("functional_inverse requires S_0(0) = 0")
    if S0.coeffs[1] == 0:
        raise ValueError("functional_inverse requires S_0'(0) != 0")
    N = S.trunc_order()
    K = S.h_order
    G0 = reversion(S0.truncate(N))
    levels = {0: G0}
    dS0_at_G0 = Series1(deriv(S0.truncate(N)).compose(G0).coeffs, N)
    inv_dS0 = dS0_at_G0.reciprocal()
    for k in range(1, K + 1):
        for _ in range(8):
            G = HGraded(levels, k)
            res = hcompose(HGraded(dict(S.levels), k), G)
            rk = res.level(k)
            if rk is None or all(abs(complex(c)) < 1e-14
                                 for c in rk.coeffs):
                break
            corr = Series1((-(rk * inv_dS0)).coeffs, N)
            levels[k] = levels.get(k, Series1.constant(0, N)) + corr
    return HGraded(levels, K)


def moyal_product(a, b, K, degree):
    """Graded Weyl product of two h-graded bivariate symbols."""
    out = {}
    for ka, sa in a.levels.items():
        for kb, sb in b.levels.items():
            for k in range(0, K - ka - kb + 1):
                lvl = ka + kb + k
                t = _moyal_term(sa, sb, k, degree)
                out[lvl] = out.get(lvl, Series2.zero(degree)) + t
    return HGraded(out, K)


def moyal_function(fs, q, h_order, degree):
    """Weyl symbol of f(Q) for a scalar series f and graded symbol q."""
    one = HGraded({0: Series2({(0, 0): 1.0}, degree)}, h_order)
    out = graded_scale(one, complex(fs.coeffs[0]))
    power = one
    tmax = degree + 2 * h_order + 2
    for t in range(1, min(fs.trunc_order, tmax) + 1):
        power = moyal_product(power, q, h_order, degree)
        if not any(s.coeffs for s in power.levels.values()):
            break
        c = complex(fs.coeffs[t])
        if c != 0:
            out = graded_add(out, graded_scale(power, c))
    return out


def graded_add(a, b):
    """Level-wise sum of two h-graded symbols, to the lower h-order."""
    ko = min(a.h_order, b.h_order)
    out = {}
    for k in range(ko + 1):
        x, y = a.levels.get(k), b.levels.get(k)
        if x is None and y is None:
            continue
        out[k] = y if x is None else (x if y is None else x + y)
    return HGraded(out, ko)


def graded_scale(a, c):
    """Every level of an h-graded symbol times the scalar c."""
    return HGraded({k: c * s for k, s in a.levels.items()}, a.h_order)


def homological_solve(r):
    """Solve i(z d_z - zeta d_zeta) a = -r + <r> termwise on a Series2.

    Returns a with a_{mn} = i r_{mn}/(m-n) off the diagonal; the average
    <r> is the diagonal part, `r.diagonal()`.
    """
    return Series2({(m, n): 1j * c / (m - n)
                    for (m, n), c in r.coeffs.items() if m != n},
                   r.trunc_order)


def series2_to_dense(s):
    """Dense graded vector of a Series2: z^m zeta^n at (m+n)(m+n+1)/2 + n,
    to its truncation order."""
    v = np.zeros(_start(s.trunc_order + 1), complex)
    for (m, n), c in s.coeffs.items():
        v[_start(m + n) + n] = c
    return v


def dense_to_graded(levels, K):
    """HGraded of Series2 from dense levels."""
    out = {}
    for k, v in levels.items():
        D = _degree(len(v) - 1)
        out[k] = Series2({(d - n, n): c for d in range(D + 1) for n, c in
                          enumerate(v[_start(d):_start(d + 1)].tolist())}, D)
    return HGraded(out, K)


def reduced_levels(sym, K, N):
    """mu and the dense levels of a graded Series2 symbol after the linear
    reduction of its quadratic part by `Series2.subs_linear`, level ell
    kept to degree N - 2ell.  Bit-for-bit oracle of
    `normalform._taylor_levels`."""
    red = quad_reduce(sym.level(0).homogeneous_part(2))
    (a, b), (c, d) = red.linmap
    return red.mu, {k: series2_to_dense(s.truncate(N - 2 * k)
                                        .subs_linear(a, b, c, d))
                    for k, s in sym.levels.items() if 2 * k <= N}


def birkhoff(sym, K, N):
    """`normalform._birkhoff` on a graded Series2 symbol whose h^0 level is
    q + O(3): mu and the diagonal symbol as HGraded of Series2."""
    mu, levels = reduced_levels(sym, K, N)
    return mu, dense_to_graded(_birkhoff(levels, mu, K, N), K)


def diag_levels(sym):
    """`normalform._diag_levels` on a graded Series2 symbol."""
    return _diag_levels({k: series2_to_dense(s)
                         for k, s in sym.levels.items()})


def poschl_teller_taylor(N):
    """Taylor coefficients of sech^2(x) - 1 = -tanh^2(x) to x^N, in double
    precision, from the tanh recurrence T' = 1 - T^2, T(0) = 0.

    The barrier xi^2 + sech^2(x) has the exact mode symbol
    G(x; h) = sqrt(1 - h^2/4) - i x/(2 pi) (Ferrari-Mashhoon 1984)."""
    t = [0.0]
    for n in range(N):
        tt = sum(t[i] * t[n - i] for i in range(n + 1))
        t.append(((1.0 if n == 0 else 0.0) - tt) / (n + 1))
    return [-sum(t[i] * t[k - i] for i in range(k + 1)) for k in range(N + 1)]


def rosen_morse_taylor(V0, V1, N):
    """The top E0 = V0 + V1^2/(4 V0) of the Rosen-Morse barrier
    V(y) = V0 sech^2(y) + V1 tanh(y) and the Taylor coefficients of
    V(y* + x) - E0 to x^N, at tanh y* = V1/(2 V0), summed exactly in
    rationals of the float inputs from the tanh recurrence T' = 1 - T^2,
    T(0) = tanh y*, and rounded once.

    The barrier is asymmetric for V1 != 0, and xi^2 + V has the exact mode
    symbol `rosen_morse_symbol` (Rosen-Morse 1932)."""
    t = Fraction(V1) / (2 * Fraction(V0))
    T = [t]
    for n in range(N):
        tt = sum(T[i] * T[n - i] for i in range(n + 1))
        T.append(((1 if n == 0 else 0) - tt) / (n + 1))
    V = [Fraction(V0) * ((1 if k == 0 else 0)
                         - sum(T[i] * T[k - i] for i in range(k + 1)))
         + Fraction(V1) * T[k] for k in range(N + 1)]
    return float(V[0]), [0.0] + [float(c) for c in V[1:]]


def rosen_morse_symbol(V0, V1, x, h):
    """The exact mode symbol G(x; h) of xi^2 + V0 sech^2(y) + V1 tanh(y),
    in 40 digits: G^2 = -sigma^2 - V1^2/(4 sigma^2) with sigma = -x/2pi -
    i sqrt(V0 - h^2/4), the resonances E_n = G(2 pi (n+1/2) h; h)^2 of
    -h^2 d^2/dy^2 + V continued from the well's bound states; the root
    with Re G > 0, G(0; 0) = sqrt(E0).  At V1 = 0 it is the Poschl-Teller
    symbol."""
    with mpmath.workdps(40):
        s = -mpmath.mpf(x) / (2 * mpmath.pi) \
            - 1j * mpmath.sqrt(mpmath.mpf(V0) - mpmath.mpf(h) ** 2 / 4)
        return complex(mpmath.sqrt(-s * s - mpmath.mpf(V1) ** 2
                                   / (4 * s * s)))


def sds_poschl_teller_limit(E0, k, j):
    """G_k[x^j] of the Poschl-Teller limit of Schwarzschild-de Sitter,
    G(x; h) = kappa (sqrt(1 - h^2/2) - i x/2pi) with kappa = sqrt(E0).

    As delta = 1 - 9 lam m^2 -> 0 the barrier between the closing horizons
    tends to kappa^2 l(l+1) sech^2(kappa x) (Cardoso-Lemos, Phys. Rev. D 67
    (2003) 084020), whose modes kappa (sqrt((l+1/2)^2 - 1/2) - i(n+1/2))
    are h^{-1} G(2 pi (n+1/2) h; h): G_0 = kappa (1 - i x/2pi), G_2j(0) =
    kappa C(1/2, j) (-1/2)^j, and every other coefficient is 0."""
    kappa = math.sqrt(E0)
    if (k, j) == (0, 1):
        return -1j * kappa / TWO_PI
    if j or k % 2:
        return 0.0
    return kappa * math.prod(0.5 - i for i in range(k // 2)) \
        / math.factorial(k // 2) * (-0.5) ** (k // 2)


def rosen_morse_symbol_taylor(V0, V1, K, J):
    """The coefficients G_k[x^j], k <= K, j <= J, of `rosen_morse_symbol`
    in 40 digits, as rows of complex numbers by k.

    sigma = -x/2pi - i sqrt(V0 - h^2/4) is expanded in h and x, and
    G^2 = -sigma^2 - V1^2/(4 sigma^2) and G = sqrt(G^2), G_0[x^0] =
    sqrt(E0) > 0, follow from the Cauchy-product recurrences of the square,
    the reciprocal and the square root, each coefficient from those at
    lower powers of h, or of x at the same power of h."""
    with mpmath.workdps(40):
        zero = mpmath.mpc(0)
        idx = [(k, j) for k in range(K + 1) for j in range(J + 1)]

        def mul(a, b, k, j, skip=()):
            return mpmath.fsum(a[i][q] * b[k - i][j - q]
                               for i in range(k + 1) for q in range(j + 1)
                               if (i, q) not in skip)

        def solve(lead, rhs):
            # c with lead * c = rhs term by term, lead[0][0] != 0
            c = [[zero] * (J + 1) for _ in range(K + 1)]
            for k, j in idx:
                c[k][j] = (rhs(c, k, j)
                           - mul(lead, c, k, j, skip={(0, 0)})) \
                    / lead[0][0]
            return c

        sig = [[zero] * (J + 1) for _ in range(K + 1)]
        root = mpmath.sqrt(mpmath.mpf(V0))
        for i in range(K // 2 + 1):
            sig[2 * i][0] = -1j * root * mpmath.binomial(0.5, i) \
                * (-1 / (4 * mpmath.mpf(V0))) ** i
        sig[0][1] = -1 / (2 * mpmath.pi)
        sq = [[mul(sig, sig, k, j) for j in range(J + 1)]
              for k in range(K + 1)]
        inv = solve(sq, lambda c, k, j: mpmath.mpf((k, j) == (0, 0)))
        F = [[-sq[k][j] - mpmath.mpf(V1) ** 2 / 4 * inv[k][j]
              for j in range(J + 1)] for k in range(K + 1)]
        G = [[zero] * (J + 1) for _ in range(K + 1)]
        G[0][0] = mpmath.sqrt(F[0][0])
        for k, j in idx[1:]:
            G[k][j] = (F[k][j] - mul(G, G, k, j, skip={(0, 0), (k, j)})) \
                / (2 * G[0][0])
        return [[complex(c) for c in row] for row in G]


def birkhoff_h0(sym, K, N):
    """The h^0 pass of the Birkhoff reduction alone.

    Runs the dict loop's step, `reduce_step_levels` (bit for bit a step
    of `normalform._birkhoff`), at h-level 0 for each degree 3..N: every
    level goes through the symplectic reduction of q to mu z zeta, then
    is conjugated by exp((i/h) a), where i mu a solves the homological
    equation for the off-diagonal h^0 part of that degree.  The h^0 level
    comes out diagonal through degree N; the higher levels are conjugated
    but not reduced.  Returns mu and the symbol.
    """
    mu, levels = reduced_levels(sym, K, N)
    for dgr in range(3, N + 1):
        levels = reduce_step_levels(levels, 0, dgr, mu, K, N)
    return mu, dense_to_graded(levels, K)


def reduce_step_levels(levels, ell, dgr, mu, K, N):
    """The reduction loop's step at level ell and degree dgr on a dict of
    dense levels: conjugates by exp((i/h) h^ell a) with i mu a the
    homological solution for the off-diagonal part of level ell at degree
    dgr, a_n = i r_n / (dgr - 2n) for 2n != dgr, each term from
    `moyal_commutator_pairwise`; returns the levels unchanged when that
    part is 0.  A level the series reaches joins the dict.
    """
    r = levels.get(ell)
    if r is None or len(r) < _start(dgr + 1):
        return levels
    off = [(n, c) for n, c in
           enumerate(r[_start(dgr):_start(dgr + 1)].tolist())
           if 2 * n != dgr and c != 0]
    if not off:
        return levels
    inv = 1.0 / (1j * mu)
    a = np.zeros(dgr + 1, complex)
    for n, c in off:
        a[n] = 1j * c / (dgr - 2 * n) * inv * 1j
    # exp(ad_gen) levels; (i/h) h^ell a is the generator at h-level ell - 1
    out = dict(levels)
    term = levels
    for j in range(1, 4 * (K + N + 3)):
        term = {lvl: v * (1.0 / j) for lvl, v in
                moyal_commutator_pairwise(a, ell - 1, term, K, N).items()}
        if not any(v.any() for v in term.values()):
            break
        for lvl, v in term.items():
            out[lvl] = v if lvl not in out else \
                out[lvl] + v[:len(out[lvl])]
    return out


def birkhoff_levels(levels, mu, K, N):
    """The reduction loop of `normalform._birkhoff` on a dict of dense
    levels, one `reduce_step_levels` per h-level and degree: the loop the
    flat vector and its per-step plans replaced, and their bit-for-bit
    oracle."""
    for ell in range(K + 1):
        for dgr in range(3 if ell == 0 else 0, N - 2 * ell + 1):
            levels = reduce_step_levels(levels, ell, dgr, mu, K, N)
    return levels


def moyal_commutator_dict(a, b, K, degree):
    """a # b - b # a on dicts of monomials, in one pass over their pairs.

    The k-th bidifferential term of the Weyl product takes z^m1 zeta^n1
    and z^m2 zeta^n2 to (2i)^-k/k! S_k z^(m1+m2-k) zeta^(n1+n2-k) with the
    integer S_k = sum_j u_j v_j, u_j = C(k,j) (-1)^(k-j) (m1)_(k-j) (n1)_j,
    v_j = (m2)_j (n2)_(k-j), and (m)_i the falling factorial.  Even k
    cancel, odd k count twice.  Result level ell is kept to total degree
    `degree` - 2 ell.  Oracle for the dense `normalform.moyal_commutator`:
    the same closed form, one Python sum per monomial pair.
    """
    out = {}
    for ka, sa in a.levels.items():
        for kb, sb in b.levels.items():
            top = degree - 2 * (ka + kb)   # largest m1+n1+m2+n2 kept
            dmin = min((m + n for m, n in sa.coeffs), default=top)
            for k in range(1, min(K, degree // 2) - ka - kb + 1, 2):
                pref = 2.0 * (1.0 / (2j)) ** k / math.factorial(k)
                left = [(m + n, m - k, n - k, c,
                         [math.comb(k, j) * (-1) ** (k - j)
                          * math.perm(m, k - j) * math.perm(n, j)
                          for j in range(k + 1)])
                        for (m, n), c in sa.coeffs.items()]
                right = [(m + n, m, n, c,
                          [math.perm(m, j) * math.perm(n, k - j)
                           for j in range(k + 1)])
                         for (m, n), c in sb.coeffs.items()
                         if dmin + m + n <= top]
                acc = out.setdefault(ka + kb + k, {})
                for d1, m1, n1, ca, u in left:
                    for d2, m2, n2, cb, v in right:
                        if d1 + d2 > top:
                            continue
                        s = sum(map(operator.mul, u, v))
                        if s:
                            key = (m1 + m2, n1 + n2)
                            acc[key] = acc.get(key, 0) + pref * s * ca * cb
    return HGraded({lvl: Series2(coeffs, degree - 2 * lvl)
                    for lvl, coeffs in out.items()}, K)


@functools.lru_cache(maxsize=None)
def s_k_rows(k, dgr, hi):
    """The integers S_k of `moyal_commutator_dict` for the rows
    z^(dgr-n1) zeta^n1 against the monomials of degree <= hi in graded
    order, summed in Python ints and rounded to float64 once."""
    d2, n2 = _columns(0, hi)
    u = np.array([[math.comb(k, j) * (-1) ** (k - j)
                   * math.perm(dgr - n1, k - j) * math.perm(n1, j)
                   for j in range(k + 1)] for n1 in range(dgr + 1)],
                 dtype=object)
    v = np.array([[math.perm(m2, j) * math.perm(n, k - j)
                   for j in range(k + 1)]
                  for m2, n in zip((d2 - n2).tolist(), n2.tolist())],
                 dtype=object)
    return (u @ v.T).astype(np.float64)


def moyal_commutator_pairwise(a, gl, levels, K, N):
    """[a, b] for a homogeneous generator a at h-level gl on a dict of
    dense levels, with one scatter per level pair and odd k: the target
    indices formed from the columns' degrees and zeta exponents, and two
    `np.bincount` calls of their own per pair.  The bit-for-bit oracle of
    each term `normalform.moyal_commutator` forms on a step's plan, which
    runs the same bins in one scatter per term.
    """
    dgr = len(a) - 1
    n1 = np.arange(dgr + 1)[:, None]
    out = {}
    for kb, b in levels.items():
        nz = np.flatnonzero(b)
        if not nz.size:
            continue
        hi = min(N - 2 * (gl + kb) - dgr, _degree(nz[-1]))
        lo0 = _degree(nz[0])
        c0 = _start(lo0)
        if hi < lo0:
            continue
        d2, n2 = _columns(lo0, hi)
        outer = a[:, None] * b[None, c0:_start(hi + 1)]
        for k in range(1, min(K, N // 2) - gl - kb + 1, 2):
            lo = max(lo0, k)
            if k > dgr or lo > hi:
                continue
            lvl = gl + kb + k
            size = _start(N - 2 * lvl + 1)
            s = _start(lo) - c0
            w = s_k_rows(k, dgr, hi)[:, _start(lo):] \
                * outer[:, s:]
            td = dgr + d2[s:] - 2 * k
            idx = (td * (td + 1) // 2 + n2[s:] + n1).ravel()
            acc = (np.bincount(idx, w.real.ravel(), size + 2 * k)
                   + 1j * np.bincount(idx, w.imag.ravel(), size + 2 * k)
                   )[k:size + k]
            pref = 2.0 * (1.0 / (2j)) ** k / math.factorial(k)
            out[lvl] = out[lvl] + pref * acc if lvl in out else pref * acc
    return out


def _ad_exp(gen, sym, h_order, degree):
    """exp(ad_gen) sym with ad = [gen, .] from `moyal_commutator_dict`.

    A generator at h-level -1, (i/h) a, conjugates by exp((i/h) a).
    """
    out = sym
    term = sym
    for k in range(1, 4 * (h_order + degree + 3)):
        term = graded_scale(moyal_commutator_dict(gen, term, h_order, degree),
                            1.0 / k)
        if not any(s.coeffs for s in term.levels.values()):
            break
        out = graded_add(out, term)
    return out


def birkhoff_dict(sym, K, N):
    """The Birkhoff reduction loop on dicts of monomials: the steps of
    `normalform._birkhoff`, each conjugation by `_ad_exp`.  Oracle for the
    dense loop."""
    red = quad_reduce(sym.level(0).homogeneous_part(2))
    (a, b), (c, d) = red.linmap
    sym = HGraded({k: s.truncate(N - 2 * k).subs_linear(a, b, c, d)
                   for k, s in sym.levels.items() if 2 * k <= N}, K)
    for ell in range(K + 1):
        for dgr in range(3 if ell == 0 else 0, N - 2 * ell + 1):
            r_off = sym.levels.get(ell, Series2.zero(0)) \
                .homogeneous_part(dgr).off_diagonal()
            if not r_off.coeffs:
                continue
            gen = (1.0 / (1j * red.mu)) * homological_solve(r_off)
            sym = _ad_exp(HGraded({ell - 1: 1j * gen}, K), sym, K, N)
    return red.mu, sym


def average_through_inverse(qsym, K, N):
    """Quantum average of a graded symbol with diagonal h^0 part g(w), by
    the round trip: map the principal part to w with g^{-1}(Q), average
    against w, map back with g.  Returns the levels {k: Series1 in w}.
    Independent oracle for the higher h-levels of `_birkhoff`.
    """
    g = qsym.level(0).diagonal()
    # g is treated as an exact polynomial, so extend the inversion order
    # far enough for all Moyal powers that can contribute
    tmax = (N + 2 * K) // 2 + 2
    finv = reversion(Series1(g.coeffs, tmax))
    cur = moyal_function(finv, HGraded(dict(qsym.levels), K), K, N)
    for ell in range(1, K + 1):
        r = cur.level(ell)
        if r is None or not r.off_diagonal().coeffs:
            continue
        gen = HGraded({ell - 1: homological_solve(r.off_diagonal())}, K)
        # exp(ad_gen) cur on the derivative-route commutator
        term = cur
        for k in range(1, 4 * (K + N + 3)):
            term = graded_scale(moyal_commutator_ref(gen, term, K, N), 1.0 / k)
            if not any(s.coeffs for s in term.levels.values()):
                break
            cur = graded_add(cur, term)
    # w^m -> z^m zeta^m; Series2 drops the terms beyond degree N
    dsym = HGraded({k: Series2({(m, m): c for m, c in enumerate(s.coeffs)}, N)
                    for k, s in diag_levels(cur).items()}, K)
    out = moyal_function(Series1(g.coeffs, tmax), dsym, K, N)
    return {k: s.diagonal() for k, s in out.levels.items()}


@dataclass(frozen=True)
class NormalFormResult:
    mu: complex
    g: Series1             # Vey-normalized: g(t) = t + O(t^2)
    f: Series1             # Jacobian factor, f(0) = 1
    S: Series1             # action, mu S'(w) = 2 pi f(w), S(0) = 0


def classical_bnf(p_taylor, degree):
    """Classical Birkhoff normal form through total degree `degree`."""
    N = degree
    p = p_taylor.truncate(N)
    if not all(abs(complex(p[(m, n)])) < 1e-14
               for m in range(2) for n in range(2 - m)):
        raise ValueError("constant/linear part of the symbol must vanish")
    mu, sym = birkhoff(HGraded({0: p}, 0), 0, N)
    g_eig = sym.level(0).diagonal()
    # Vey normalization: g(t) = g_eig(t/mu), so g'(0) = 1
    g = Series1([gc * (1.0 / mu) ** k for k, gc in enumerate(g_eig.coeffs)])
    f = _f_from_g(g)
    S = (TWO_PI / mu) * integ(f)
    return NormalFormResult(mu=mu, g=g, f=f, S=S)


def _f_from_g(g):
    """Jacobian factor from g'(t) f(g(t)) = 1 (order drops by one)."""
    return deriv(g).compose(reversion(g).truncate(g.trunc_order - 1)) \
        .reciprocal()


def barrier_taylor_mp(m, lam, N):
    """Taylor series of V = W0(x0 + x) - E0 and W1(x0 + x) at the barrier
    top in 50-digit mpmath, by a route independent of `potentials`:
    alpha^2, W0 and W1 as series in rho = r - 3m, the antiderivative of
    1/alpha^2 reverted to rho(x), and each series composed with it.
    Returns the two coefficient lists as complex numbers.
    """
    with mpmath.workdps(50):
        m, lam = mpmath.mpf(m), mpmath.mpf(lam)
        r0 = 3 * m
        inv_r = Series1([(-1) ** k / r0 ** (k + 1) for k in range(N + 1)])
        r = Series1([r0, 1], N)
        a2 = 1 - 2 * m * inv_r - (lam / 3) * (r * r)
        rho_of_x = reversion(integ(a2.reciprocal()).truncate(N))
        w0 = a2 * inv_r * inv_r
        w1 = w0 * (2 * m * inv_r - (2 * lam / 3) * (r * r) - mpmath.mpf(1) / 4)
        E0 = (1 - 9 * lam * m * m) / (27 * m * m)
        V = w0.compose(rho_of_x) - E0
        return ([complex(c) for c in V.coeffs],
                [complex(c) for c in w1.compose(rho_of_x).coeffs])


def barrier_series_rebuild(lam, N):
    """r(x0 + x), 1/r and W0 at the barrier top as `_barrier_series`
    returns them, in units of the mass, by Series1 arithmetic that
    rebuilds the reciprocal and r r from all of r for each new coefficient
    r_k = [alpha^2]_{k-1}/k, O(N^3): the reference its O(N^2) recurrence
    matches bit for bit."""
    c = [3.0]
    while True:
        r = Series1(c)
        inv_r = r.reciprocal()
        a2 = 1.0 - 2.0 * inv_r - (lam / 3.0) * (r * r)
        if len(c) > N:
            return r, inv_r, a2 * inv_r * inv_r
        c.append(a2.coeffs[-1] / len(c))


def inverse_tortoise_wright(x, m):
    """r(x) at lam = 0 and mass m from `scipy.special.wrightomega`:
    x = r + 2m log(r - 2m) <=> (r - 2m)/2m = omega(x/2m - 1 - log 2m)."""
    return 2.0 * m * (1.0 + scipy.special.wrightomega(
        np.asarray(x, dtype=float) / (2.0 * m) - 1.0 - math.log(2.0 * m)))


def _lam_digits(lam):
    """Digits to add for the hole lam > 0: its far roots are near
    +-sqrt(3/lam), with residues near +-sqrt(3/lam)/2, and x(r) =
    sum c log|r - a| cancels their log terms down to O(r)."""
    return max(0, -math.floor(math.log10(lam))) if lam else 0


@functools.lru_cache(maxsize=None)
def _roots_mp(lam, dps):
    """(lin, ((a, c, s), ...)) at dps digits for x(r) = lin r +
    sum c log(s (r - a)): the roots a of r alpha^2 at unit mass, their
    residues c = 1/alpha^2'(a) and the signs s with s (r - a) > 0 between
    the horizons.  At lam = 0 the one root 2 and lin = 1; at lam > 0 the
    three roots of -(lam/3) r^3 + r - 2, sqrt(3/lam) times those of
    rho^3 - rho + 2/sqrt(3/lam) from `mpmath.polyroots`, and lin = 0."""
    with mpmath.workdps(dps):
        if lam == 0:
            return 1, ((mpmath.mpf(2), mpmath.mpf(2), 1),)
        lam = mpmath.mpf(lam)
        scale = mpmath.sqrt(3 / lam)
        rhos = mpmath.polyroots([1, 0, -1, 2 / scale], maxsteps=200,
                                extraprec=mpmath.mp.prec)
        roots = sorted(mpmath.re(rho) * scale for rho in rhos)
        return 0, tuple((a, 1 / (2 / a ** 2 - 2 * lam * a / 3), s)
                        for a, s in zip(roots, (1, 1, -1)))


def _tortoise_mp(lam):
    """x(r, skip) = lin r + sum c log(s (r - a)) of `_roots_mp` at the
    working precision, leaving out the term of root index `skip`, and
    the roots."""
    lin, roots = _roots_mp(lam, mpmath.mp.dps)

    def x_of(r, skip=None):
        return lin * r + sum(c * mpmath.log(s * (r - a))
                             for i, (a, c, s) in enumerate(roots)
                             if i != skip)
    return x_of, roots


def tortoise(r, lam):
    """x(r), the package's tortoise coordinate at unit mass, as a float:
    r + 2 log(r - 2) at lam = 0, and sum c log|r - a| over the horizon
    roots a and residues c of `_roots_mp` at lam > 0, in 30 digits plus
    `_lam_digits`, for r between the horizons."""
    with mpmath.workdps(30 + _lam_digits(lam)):
        x_of, roots = _tortoise_mp(lam)
        if not all(s * (r - a) > 0 for a, _, s in roots):
            raise ValueError("need r between the horizons")
        return float(x_of(mpmath.mpf(r)))


def inverse_tortoise_mp(x, p):
    """r(x) and alpha^2(r(x)) at a real x to the working precision, for
    the package's tortoise coordinate of the hole p at its mass m,
    m x1(r/m), plus 2m log m at lam = 0, where x1(r) = lin r +
    sum c log(s (r - a)) is the unit-mass one, with alpha^2 = k
    prod s (r - a) / r and its horizon roots a and residues c from
    `_roots_mp`, solved at the working precision plus `_lam_digits`; x
    below the barrier top at lam = 0, anywhere between the horizons at
    lam > 0.  alpha^2 takes the factor s (r - a) of the chart's horizon
    as e^L, to full precision next to it.

    Solves x1(L) = x/m (less 2 log m at lam = 0) in the log-distance
    L = log(s (r - a)) to the horizon on x's side of the barrier top (2 or
    r_minus below x1(3), r_plus above).  There x1 = c L + (the other
    terms), and the other terms lie between their values at r = a and at
    r = 3, which brackets L, and L is at most log(s (3 - a)); the bracket
    goes to mpmath's Anderson-Bjorck solver.
    """
    lam = p.unit_mass().lam
    with mpmath.workdps(mpmath.mp.dps + _lam_digits(lam)):
        m = mpmath.mpf(p.m)
        x_of, roots = _tortoise_mp(lam)
        k = mpmath.mpf(lam) / 3 if lam else 1
        x = mpmath.mpf(x) / m - (2 * mpmath.log(m) if lam == 0 else 0)
        r_top = mpmath.mpf(3)
        above = x >= x_of(r_top)
        if lam == 0 and above:
            raise ValueError("lam = 0 needs x below the barrier top")
        root = 0 if lam == 0 else (2 if above else 1)
        a, c, s = roots[root]
        bracket = ((x - x_of(r_top, skip=root)) / c,
                   min((x - x_of(a, skip=root)) / c,
                       mpmath.log(s * (r_top - a))))
        L = mpmath.findroot(lambda L: c * L + x_of(a + s * mpmath.exp(L),
                                                   skip=root) - x,
                            bracket, solver="anderson")
        r = a + s * mpmath.exp(L)
        # s (r - a) = e^L, which r alone may not resolve
        a2 = k / r * mpmath.exp(L)
        for i, (aa, _, ss) in enumerate(roots):
            if i != root:
                a2 *= ss * (r - aa)
        return m * r, a2


def inverse_tortoise_rk4(m, lam, x0, direction, t_max, steps):
    """r(x0 + direction t) for t = k t_max / steps, k = -steps..steps, by
    classical RK4 on dr/dt = direction alpha^2(r) from r(x0) = 3m, with
    alpha^2 = 1 - 2m/r - lam r^2/3 and x0 the tortoise coordinate of 3m.
    Marches out from t = 0 in both directions; returns (t, r)."""
    def f(r):
        return direction * (1.0 - 2.0 * m / r - lam * r * r / 3.0)

    half = []
    for dt in (-t_max / steps, t_max / steps):
        r = complex(3.0 * m)
        rs = [r]
        for _ in range(steps):
            k1 = f(r)
            k2 = f(r + 0.5 * dt * k1)
            k3 = f(r + 0.5 * dt * k2)
            k4 = f(r + dt * k3)
            r = r + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rs.append(r)
        half.append(np.array(rs))
    t = np.arange(-steps, steps + 1) * (t_max / steps)
    return t, np.concatenate([half[0][:0:-1], half[1]])


# a diverging run may overflow to inf or nan: the callers' residual check
# on |x(r) - x| catches it, so the floating-point warnings are muted
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _continue(x, ch, v):
    """Homotopy-Newton continuation of x(r) = x on the chart `ch` of
    `potentials._chart`, from real-axis seeds v, with Im(x) switched on in
    steps of at most 1/2 (one step if Im(x) = 0 throughout).  In each
    homotopy step a point leaves the Newton iteration once its own step in
    v is below 1e-13 max(1, |v|), so its result does not depend on the
    other points of the array.  Returns r, alpha^2(r) and |x(r) - x|.
    """
    # with Im(x) = 0 every step would solve for the same target
    im_max = float(np.max(np.abs(x.imag)))
    nsteps = max(4, math.ceil(2.0 * im_max)) if im_max else 1
    for j in range(1, nsteps + 1):
        xt = x.real + 1j * x.imag * (j / nsteps)
        live = np.arange(v.size)
        for _ in range(40):
            _, xv, dv_dx, _ = ch.at(v[live], _ARRAY)
            dv = -(xv - xt[live]) * dv_dx
            v[live] += dv
            live = live[~(np.abs(dv)
                          < 1e-13 * np.maximum(1.0, np.abs(v[live])))]
            if not live.size:
                break
    r, xv, _, a2 = ch.at(v, _ARRAY)
    return r, a2, np.abs(xv - x)


def inverse_tortoise_homotopy(x, lam):
    """Holomorphic continuation r(x) off the real axis, and alpha^2(r(x)),
    in units of the mass: the oracle of `potentials.inverse_tortoise_ray`,
    which marches along the ray instead, and at Im x = 0 the bit-for-bit
    oracle of `potentials.inverse_tortoise`.

    Vectorized over a complex array x; returns the pair (r, alpha^2).
    Each point is continued by `_continue` on the chart of
    `potentials._chart` from the chart's seed at Re x, which Newton
    leaves monotonically for the real root.
    """
    x = np.asarray(x, dtype=complex)
    xf = x.ravel()
    ch = _chart(lam)
    r, a2, resid = _continue(xf, ch, ch.seed(xf.real).astype(complex))
    bad = int(np.sum(~(resid <= 1e-9 * np.maximum(1.0, np.abs(xf)))))
    if bad:
        raise _failed(bad)
    return r.reshape(x.shape), a2.reshape(x.shape)


def hermite_basis_tridiagonal(n, npts):
    """Golub-Welsch by `scipy.linalg.eigh_tridiagonal`: the Gauss-Hermite
    nodes and the first n rows of the eigenvectors of the Hermite Jacobi
    matrix (zero diagonal, off-diagonal sqrt(k/2)), which are
    h_k(u_j) sqrt(what_j) up to a sign per column."""
    u, vec = scipy.linalg.eigh_tridiagonal(np.zeros(npts),
                                           np.sqrt(0.5 * np.arange(1, npts)))
    return u, vec[:n]


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


def relative_drift(zs, vals2, E0):
    """Distance of each z in zs to the nearest eigenvalue in vals2,
    relative to max(|z|, 1e-3 E0), one candidate at a time."""
    drift = np.array([np.min(np.abs(vals2 - z)) for z in zs])
    return drift / np.maximum(np.abs(zs), 1e-3 * E0)


def direct_modes_four_filters(vals, vals2, E0, h, theta):
    """Mode frequencies from the spectra vals (basis_size block) and vals2
    (the enlarged build) by four filters in turn: the window |z - E0| <=
    WINDOW E0, |z| >= 0.6 E0 against the continuum near z = 0, relative
    drift <= STAB_REL, and arg lambda > -2 theta on lambda = h^{-1}
    sqrt(z) (branch Re > 0).  By increasing damping; empty where no
    eigenvalue passes."""
    zs = vals[(np.abs(vals - E0) <= WINDOW * E0) & (np.abs(vals) >= 0.6 * E0)]
    kept = zs[relative_drift(zs, vals2, E0) <= STAB_REL]
    lams = np.sqrt(kept) / h
    lams = np.where(lams.real < 0, -lams, lams)
    lams = lams[np.angle(lams) > -2.0 * theta]
    return lams[np.argsort(-lams.imag)]


def continued_eigenvalue(mat, vals, vecs, j, tol=1e-15, max_iter=200):
    """The eigenvalue mu of the complex symmetric `mat` that continues the
    eigenvalue z_j = vals[j] of its leading n x n block (right eigenvectors
    `vecs`): the fixed point of mu = z_j + y_j^T M_j(mu)^{-1} y_j / s_j,
    the secular equation whose first step from mu = z_j is
    `scaling._enlarged_shift`, iterated to a relative step below `tol`."""
    n = vals.size
    s = np.einsum("ij,ij->j", vecs, vecs)
    y = mat[n:, :n] @ vecs
    c = mat[n:, n:]
    z = mu = vals[j]
    for _ in range(max_iter):
        d = s * (mu - vals)
        d[j] = 1.0
        w = 1.0 / d
        w[j] = 0.0
        m = mu * np.eye(len(c)) - c - (y * w) @ y.T
        new = z + y[:, j] @ np.linalg.solve(m, y[:, j]) / s[j]
        if abs(new - mu) <= tol * abs(z):
            return new
        mu = new
    raise RuntimeError("secular iteration did not converge")


def polyval_ascending(coeffs, x):
    """sum_j coeffs[j] x^j by `np.polyval` on the complex array."""
    return np.polyval(np.asarray(coeffs, dtype=complex)[::-1], x)


def eval_symbol_polyval(G, x, h):
    """G(x; h) = sum_k G_k(x) h^k as a complex array of x's shape."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for k, lvl in G.levels.items():
        out += polyval_ascending(lvl.coeffs, x) * h ** k
    return out


def validity_radius_bisect80(G0):
    """`catalog.validity_radius` with all 80 bisection steps, none left
    out once the midpoint meets an end: its bit-for-bit oracle."""
    coeffs = list(G0.coeffs)
    k = max(j for j, c in enumerate(coeffs) if abs(c) != 0)
    if k == 0:
        return math.inf
    ck = coeffs[k]

    def bad(x):
        tot = sum(c * x ** j for j, c in enumerate(coeffs))
        return abs(ck) * x ** k >= VALIDITY_FRAC * abs(tot)

    hi = 1.0
    while not bad(hi):
        hi *= 2.0
        if hi > 1e8:
            return math.inf
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bad(mid):
            hi = mid
        else:
            lo = mid
    return lo


def count_walk(p, G, t, r_list):
    """Table of N(r) / (c r^3) for increasing radii r.

    N(r) is the multiplicity-weighted number of lattice modes in the
    sector {1 <= |lam| <= r, arg lam > -t}; radius r counts
    ell <= ceil(r / |G(0)|) + 2.  One walk in n = 0, 1, ... serves every
    ell and radius: step n evaluates the symbol once on the array of ell
    still walking.  An ell leaves the walk at its first mode with
    arg lam <= -t, or once x = 2 pi (n+1/2) h passes the validity radius;
    the latter is a coverage gap of every radius counting that ell.
    """
    radii = np.array(r_list, dtype=float)
    if list(radii) != sorted(radii):
        raise ValueError("r_list must be increasing")
    if radii.size and radii[0] < 1.0:
        raise ValueError("sector radius must be >= 1")
    c, rad, _ = counting_constant(t, p, G.levels[0])
    g0 = abs(complex(eval_symbol(G, 0.0, 0.0)))
    if radii.size and radii[-1] / g0 > MAX_ELL - 2:
        raise ValueError("radius %g counts ell above %d"
                         % (radii[-1], MAX_ELL))
    ell_max = np.ceil(radii / g0).astype(int) + 2
    ells = np.arange(1, int(ell_max.max(initial=0)) + 1)
    counts = np.zeros(radii.size, dtype=int)
    gaps = np.zeros(radii.size, dtype=int)
    n = 0
    # counting_constant refused a radius that is not finite, so every ell
    # leaves by n = rad / (2 pi h)
    while ells.size:
        h = 1.0 / (ells + 0.5)
        x = 2.0 * math.pi * (n + 0.5) * h
        past = x > rad
        gaps += np.count_nonzero(ells[past] <= ell_max[:, None], axis=1)
        ells, h, x = ells[~past], h[~past], x[~past]
        lams = eval_symbol(G, x, h) / h
        mags = np.abs(lams)
        wedge = np.angle(lams) > -t
        weight = np.where(wedge & (mags >= 1.0), 2 * ells + 1, 0)
        counts += ((mags <= radii[:, None]) & (ells <= ell_max[:, None])
                   ) @ weight
        ells = ells[wedge]
        n += 1
    return [{"r": r, "count": N, "c_r3": c * r ** 3,
             "ratio": N / (c * r ** 3), "coverage_gaps": g}
            for r, N, g in zip(radii.tolist(), counts.tolist(),
                               gaps.tolist())]
