"""Reference implementations that only the tests use.

Exact Gaussian-rational coefficients for the exact-arithmetic checks, and
independent oracles for the symbol calculus: the series derivatives, the
Poisson bracket, the flow-quadrature average, the symmetrized-ordering
action of a Weyl symbol on monomials, graded composition `hcompose` and
the graded functional inverse built on it, the graded Weyl product and
commutator by repeated series derivatives (`_moyal_term`), the closed-form
commutator on dicts of monomials (`moyal_commutator_dict`) and the
reduction loop built on it (`birkhoff_dict`), and quantum averaging by
the round trip through g^{-1}(Q) after the h^0 pass of the Birkhoff
reduction alone.  Also the classical normal form with its
Jacobian factor and action, `classical_bnf`, the series antiderivative
and reversion these oracles use, and a 50-digit Taylor oracle for the
barrier potential, `barrier_taylor_mp`, the real inverse tortoise
coordinate at lam = 0 from scipy's Wright omega, `inverse_tortoise_wright`,
at any lam as a bracketed mpmath root in the log-distance to a horizon,
`inverse_tortoise_mp`, and its complex continuation along a straight
contour by RK4 on dr/dx = alpha^2(r), `inverse_tortoise_rk4`; and the
barrier-top series of r, 1/r and W0 by whole Series1 rebuilds,
`barrier_series_rebuild`.
For the direct solver, the Hermite functions by their three-term
recurrence and the Gauss-Hermite rule built on it, and Golub-Welsch by
LAPACK's tridiagonal eigensolver, `hermite_basis_tridiagonal`: the
oracles for `hermite_basis`.  For the rotated oscillator, its complex
Galerkin matrix, `hermite_galerkin_matrix`: the oracle for the real
parity blocks that `instability_report` solves.
"""

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg
import scipy.special

from qnmlattice.normalform import (TWO_PI, _birkhoff, _diag_levels, _graded,
                                   _reduce_step, _reduced_levels,
                                   homological_solve, quad_reduce)
from qnmlattice.potentials import horizon_roots
from qnmlattice.scaling import _u2_matrix
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
    out = one.scale(complex(fs.coeffs[0]))
    power = one
    tmax = degree + 2 * h_order + 2
    for t in range(1, min(fs.trunc_order, tmax) + 1):
        power = moyal_product(power, q, h_order, degree)
        if not any(s.coeffs for s in power.levels.values()):
            break
        c = complex(fs.coeffs[t])
        if c != 0:
            out = out + power.scale(c)
    return out


def birkhoff_h0(sym, K, N):
    """The h^0 pass of the Birkhoff reduction alone.

    Runs the reduction loop's own step, `_reduce_step`, at h-level 0 for
    each degree 3..N: every level goes through the symplectic reduction of
    q to mu z zeta, then is conjugated by exp((i/h) a), where i mu a
    solves the homological equation for the off-diagonal h^0 part of that
    degree.  The h^0 level comes out diagonal through degree N; the higher
    levels are conjugated but not reduced.  Returns mu and the symbol.
    """
    mu, levels = _reduced_levels(sym, K, N)
    for dgr in range(3, N + 1):
        levels = _reduce_step(levels, 0, dgr, mu, K, N)
    return mu, _graded(levels, K)


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


def _ad_exp(gen, sym, h_order, degree):
    """exp(ad_gen) sym with ad = [gen, .] from `moyal_commutator_dict`.

    A generator at h-level -1, (i/h) a, conjugates by exp((i/h) a).
    """
    out = sym
    term = sym
    for k in range(1, 4 * (h_order + degree + 3)):
        term = moyal_commutator_dict(gen, term, h_order, degree) \
            .scale(1.0 / k)
        if not any(s.coeffs for s in term.levels.values()):
            break
        out = out + term
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
            term = moyal_commutator_ref(gen, term, K, N).scale(1.0 / k)
            if not any(s.coeffs for s in term.levels.values()):
                break
            cur = cur + term
    # w^m -> z^m zeta^m; Series2 drops the terms beyond degree N
    dsym = HGraded({k: Series2({(m, m): c for m, c in enumerate(s.coeffs)}, N)
                    for k, s in _diag_levels(cur).items()}, K)
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
    mu, sym = _birkhoff(HGraded({0: p}, 0), 0, N)
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


def barrier_series_rebuild(p, N):
    """r(x0 + x), 1/r and W0 at the barrier top as `_barrier_series`
    returns them, by Series1 arithmetic that rebuilds the reciprocal and
    r r from all of r for each new coefficient r_k = [alpha^2]_{k-1}/k,
    O(N^3): the reference its O(N^2) recurrence matches bit for bit."""
    m, lam = p.m, p.lam
    c = [3.0 * m]
    while True:
        r = Series1(c)
        inv_r = r.reciprocal()
        a2 = 1.0 - 2.0 * m * inv_r - (lam / 3.0) * (r * r)
        if len(c) > N:
            return r, inv_r, a2 * inv_r * inv_r
        c.append(a2.coeffs[-1] / len(c))


def inverse_tortoise_wright(x, m):
    """r(x) at lam = 0 and mass m from `scipy.special.wrightomega`:
    x = r + 2m log(r - 2m) <=> (r - 2m)/2m = omega(x/2m - 1 - log 2m)."""
    return 2.0 * m * (1.0 + scipy.special.wrightomega(
        np.asarray(x, dtype=float) / (2.0 * m) - 1.0 - math.log(2.0 * m)))


def inverse_tortoise_mp(x, p):
    """r(x) and alpha^2(r(x)) at a real x to the working precision, for
    the package's tortoise coordinate x(r) = lin r + sum c log(s (r - a))
    with alpha^2 = k prod s (r - a) / r, its horizon roots a and residues
    c from `horizon_roots` taken as exact; x below the barrier top at
    lam = 0, anywhere between the horizons at lam > 0.

    Solves x(L) = x in the log-distance L = log(s (r - a)) to the horizon
    on x's side of the barrier top (2m or r_minus below x(3m), r_plus
    above).  There x = c L + (the other terms), and the other terms lie
    between their values at r = a and at r = 3m, which brackets L, and L
    is at most log(s (3m - a)); the bracket goes to mpmath's
    Anderson-Bjorck solver.
    """
    if p.lam == 0:
        lin, k, roots = 1, 1, [(2 * p.m, 2 * p.m, 1)]
    else:
        hz = horizon_roots(p)
        lin, k = 0, mpmath.mpf(p.lam) / 3
        roots = [(hz.r0, hz.a0, 1), (hz.r_minus, hz.a_minus, 1),
                 (hz.r_plus, hz.a_plus, -1)]
    roots = [(mpmath.mpf(a), mpmath.mpf(c), s) for a, c, s in roots]
    x = mpmath.mpf(x)
    r_top = 3 * mpmath.mpf(p.m)

    def x_of(r, skip=None):
        return lin * r + sum(c * mpmath.log(s * (r - a))
                             for i, (a, c, s) in enumerate(roots)
                             if i != skip)

    above = x >= x_of(r_top)
    if p.lam == 0 and above:
        raise ValueError("lam = 0 needs x below the barrier top")
    root = 0 if p.lam == 0 else (2 if above else 1)
    a, c, s = roots[root]
    bracket = ((x - x_of(r_top, skip=root)) / c,
               min((x - x_of(a, skip=root)) / c, mpmath.log(s * (r_top - a))))
    L = mpmath.findroot(lambda L: c * L + x_of(a + s * mpmath.exp(L),
                                               skip=root) - x,
                        bracket, solver="anderson")
    r = a + s * mpmath.exp(L)
    a2 = k / r
    for aa, _, ss in roots:
        a2 *= ss * (r - aa)
    return r, a2


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
