"""Truncated power series in one and two variables, and h-graded symbols.

All objects are immutable; every operation returns a new value and
truncates to the minimum truncation order of its inputs.  Coefficients
are complex floats; the arithmetic uses only +, -, * and / on them.
"""


class Series1:
    """Truncated power series sum_{k<=N} c_k z^k."""

    __slots__ = ("coeffs", "trunc_order")

    def __init__(self, coeffs, trunc_order=None):
        coeffs = tuple(coeffs)
        if trunc_order is None:
            trunc_order = len(coeffs) - 1
        if trunc_order < 0:
            raise ValueError("trunc_order must be >= 0")
        if len(coeffs) < trunc_order + 1:
            coeffs = coeffs + (0j,) * (trunc_order + 1 - len(coeffs))
        elif len(coeffs) > trunc_order + 1:
            coeffs = coeffs[:trunc_order + 1]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "trunc_order", trunc_order)

    def __setattr__(self, *a):
        raise AttributeError("Series1 is immutable")

    @classmethod
    def constant(cls, c, trunc_order):
        return cls((c,), trunc_order)

    @classmethod
    def identity(cls, trunc_order):
        return cls((0, 1), trunc_order)

    def truncate(self, n):
        return Series1(self.coeffs[:n + 1], min(n, self.trunc_order))

    def __add__(self, other):
        if isinstance(other, Series1):
            n = min(self.trunc_order, other.trunc_order)
            return Series1(tuple(self.coeffs[k] + other.coeffs[k]
                                 for k in range(n + 1)), n)
        return Series1((self.coeffs[0] + other,) + self.coeffs[1:],
                       self.trunc_order)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other if not isinstance(other, Series1) \
            else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Series1(tuple(-c for c in self.coeffs), self.trunc_order)

    def __mul__(self, other):
        if isinstance(other, Series1):
            n = min(self.trunc_order, other.trunc_order)
            out = [0j] * (n + 1)
            for i, a in enumerate(self.coeffs[:n + 1]):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] = out[i + j] + a * b
            return Series1(out, n)
        return Series1(tuple(c * other for c in self.coeffs),
                       self.trunc_order)

    __rmul__ = __mul__

    def integ(self):
        """Antiderivative with zero constant term (extends order by one)."""
        n = self.trunc_order
        out = [0]
        for k in range(n + 1):
            c = self.coeffs[k]
            out.append(c / (k + 1) if c != 0 else 0)
        return Series1(out, n + 1)

    def compose(self, inner):
        """self(inner(z)); requires inner(0) = 0."""
        if inner.coeffs[0] != 0:
            raise ValueError("inner series must vanish at 0")
        n = min(self.trunc_order, inner.trunc_order)
        acc = Series1.constant(self.coeffs[n] if n <= self.trunc_order else 0, n)
        inner_t = inner.truncate(n)
        for k in range(n - 1, -1, -1):
            acc = acc * inner_t + self.coeffs[k]
        return acc

    def reciprocal(self):
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("reciprocal of series vanishing at 0")
        n = self.trunc_order
        inv0 = 1 / a0
        out = [inv0] + [0] * n
        for k in range(1, n + 1):
            s = 0
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if aj != 0:
                    s = s + aj * out[k - j]
            out[k] = -inv0 * s
        return Series1(out, n)

    def reversion(self):
        """Compositional inverse T with self(T(y)) = y + O(y^{N+1})."""
        if self.coeffs[0] != 0:
            raise ValueError("reversion requires vanishing constant term")
        s1 = self.coeffs[1]
        if s1 == 0:
            raise ValueError("reversion requires nonzero linear term")
        n = self.trunc_order
        inv1 = 1 / s1
        out = [0, inv1] + [0] * (n - 1)
        for k in range(2, n + 1):
            t = Series1(out, n)
            e = self.compose(t).coeffs[k]
            out[k] = -inv1 * e
        return Series1(out, n)


class Series2:
    """Truncated power series sum_{m+n<=N} c_{mn} z^m zeta^n."""

    __slots__ = ("coeffs", "trunc_order")

    def __init__(self, coeffs, trunc_order):
        clean = {}
        for (m, n), c in dict(coeffs).items():
            if m + n <= trunc_order and c != 0:
                clean[(m, n)] = c
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "trunc_order", trunc_order)

    def __setattr__(self, *a):
        raise AttributeError("Series2 is immutable")

    @classmethod
    def zero(cls, trunc_order):
        return cls({}, trunc_order)

    @classmethod
    def monomial(cls, m, n, c, trunc_order):
        return cls({(m, n): c}, trunc_order)

    def __getitem__(self, key):
        return self.coeffs.get(key, 0)

    def truncate(self, n):
        return Series2(self.coeffs, min(n, self.trunc_order))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return Series2(out, min(self.trunc_order, other.trunc_order))

    def __mul__(self, other):
        if isinstance(other, Series2):
            n = min(self.trunc_order, other.trunc_order)
            out = {}
            for (m1, n1), a in self.coeffs.items():
                if m1 + n1 > n:
                    continue
                for (m2, n2), b in other.coeffs.items():
                    m, nn = m1 + m2, n1 + n2
                    if m + nn <= n:
                        k = (m, nn)
                        out[k] = out.get(k, 0) + a * b
            return Series2(out, n)
        return Series2({k: c * other for k, c in self.coeffs.items()},
                       self.trunc_order)

    __rmul__ = __mul__

    def __repr__(self):
        return "Series2(%r, trunc_order=%d)" % (self.coeffs, self.trunc_order)

    def dz(self):
        out = {}
        for (m, n), c in self.coeffs.items():
            if m > 0:
                out[(m - 1, n)] = m * c
        return Series2(out, self.trunc_order - 1 if self.trunc_order else 0)

    def dzeta(self):
        out = {}
        for (m, n), c in self.coeffs.items():
            if n > 0:
                out[(m, n - 1)] = n * c
        return Series2(out, self.trunc_order - 1 if self.trunc_order else 0)

    def homogeneous_part(self, d):
        return Series2({k: c for k, c in self.coeffs.items()
                        if k[0] + k[1] == d}, self.trunc_order)

    def diagonal(self):
        """Coefficients with m = n, as a Series1 in w = z*zeta."""
        nw = self.trunc_order // 2
        out = [0] * (nw + 1)
        for (m, n), c in self.coeffs.items():
            if m == n:
                out[m] = c
        return Series1(out, nw)

    def off_diagonal(self):
        return Series2({k: c for k, c in self.coeffs.items()
                        if k[0] != k[1]}, self.trunc_order)

    def subs_linear(self, a, b, c, d):
        """Substitute z -> a z + b zeta, zeta -> c z + d zeta."""
        n = self.trunc_order
        zp = [Series2({(0, 0): 1}, n)]
        wp = [Series2({(0, 0): 1}, n)]
        lz = Series2({(1, 0): a, (0, 1): b}, n)
        lw = Series2({(1, 0): c, (0, 1): d}, n)
        for _ in range(n):
            zp.append(zp[-1] * lz)
            wp.append(wp[-1] * lw)
        out = Series2.zero(n)
        for (m, k), coef in self.coeffs.items():
            out = out + coef * (zp[m] * wp[k])
        return out


class HGraded:
    """Finite h-expansion sum_k h^k * level_k, levels Series1 or Series2."""

    __slots__ = ("levels", "h_order")

    def __init__(self, levels, h_order):
        clean = {}
        for k, s in dict(levels).items():
            if k <= h_order:
                clean[k] = s
        object.__setattr__(self, "levels", clean)
        object.__setattr__(self, "h_order", h_order)

    def __setattr__(self, *a):
        raise AttributeError("HGraded is immutable")

    def level(self, k):
        return self.levels.get(k)

    def trunc_order(self):
        return min(s.trunc_order for s in self.levels.values()) \
            if self.levels else 0

    def __add__(self, other):
        ko = min(self.h_order, other.h_order)
        out = {}
        for k in range(ko + 1):
            a, b = self.levels.get(k), other.levels.get(k)
            if a is None and b is None:
                continue
            out[k] = b if a is None else (a if b is None else a + b)
        return HGraded(out, ko)

    def scale(self, c):
        return HGraded({k: c * s for k, s in self.levels.items()},
                       self.h_order)

    def __repr__(self):
        return "HGraded(%r, h_order=%d)" % (self.levels, self.h_order)

