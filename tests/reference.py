"""Reference implementations that only the tests use.

Exact Gaussian-rational coefficients for the exact-arithmetic checks, and
independent oracles for the symbol calculus: the Poisson bracket, the
flow-quadrature average, the symmetrized-ordering action of a Weyl
symbol on monomials, graded composition `hcompose` and the graded
functional inverse built on it, the graded Weyl product, and quantum
averaging by the round trip through g^{-1}(Q).
"""

import cmath
import math
from fractions import Fraction

from qnmlattice.normalform import (_ad_exp, _diag_levels, _moyal_term,
                                   homological_solve)
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


def poisson(a, b):
    """{a, b} = d_zeta a * d_z b - d_z a * d_zeta b."""
    return a.dzeta() * b.dz() + (-1) * (a.dz() * b.dzeta())


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
                der = Series1(der.deriv().coeffs, N)
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
    G0 = S0.truncate(N).reversion()
    levels = {0: G0}
    dS0_at_G0 = Series1(S0.truncate(N).deriv().compose(G0).coeffs, N)
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


def average_through_inverse(qsym, K, N):
    """Quantum average of a graded symbol with diagonal h^0 part g(w), by
    the round trip: map the principal part to w with g^{-1}(Q), average
    against w, map back with g.  Independent oracle for quantum_average.
    """
    g = qsym.level(0).diagonal()
    # g is treated as an exact polynomial, so extend the inversion order
    # far enough for all Moyal powers that can contribute
    tmax = (N + 2 * K) // 2 + 2
    finv = Series1(g.coeffs, tmax).reversion()
    cur = moyal_function(finv, HGraded(dict(qsym.levels), K), K, N)
    for ell in range(1, K + 1):
        r = cur.level(ell)
        if r is None or not r.off_diagonal().coeffs:
            continue
        a_h = homological_solve(r.off_diagonal())
        cur = _ad_exp(HGraded({ell - 1: a_h}, K), cur, K, N)
    dsym = HGraded({k: Series2.from_diagonal(s, N)
                    for k, s in _diag_levels(cur).items()}, K)
    out = moyal_function(Series1(g.coeffs, tmax), dsym, K, N)
    return HGraded({k: Series2.from_diagonal(s.diagonal(), N)
                    for k, s in out.levels.items()}, K)
