"""Birkhoff normal form of a symbol at a nondegenerate critical point.

One reduction loop takes a graded symbol with h^0 level q + O(3) to a
diagonal symbol G(z*zeta; h), level by level in h and degree by degree,
by polynomial generators conjugating it in the Weyl (Moyal) calculus; at
h-order 0 it is the classical Birkhoff normal form.  G is converted to
the spectral variable s = z h D_z + h/2i, whose eigenvalue on z^n is
-i(n+1/2)h, by the closed form of Op_w((z*zeta)^n) on monomials.  The
assembled output G(x; h), the square root of E0 plus that spectral
symbol taken level by level in h, gives the mode lattice
lambda_{l,n} = h^{-1} G(2 pi (n+1/2) h; h).
"""

import cmath
import math
from dataclasses import dataclass

from numpy.polynomial.polynomial import polyfromroots

from .series import HGraded, Series1, Series2
from .potentials import critical_data, shifted_potential_taylor, \
    subprincipal_taylor

TWO_PI = 2.0 * math.pi
# Argument calibration of the spectral variable against the lattice
# convention x = 2 pi (n + 1/2) h: the model eigenvalue -i(n+1/2)h equals
# SPECTRAL_ARG * x.  Fixed once against the known linear coefficient of
# the leading symbol; never re-fit.
SPECTRAL_ARG = -1j / TWO_PI


@dataclass(frozen=True)
class QuadraticReduction:
    mu: complex
    linmap: tuple          # ((a, b), (c, d)): x = a z + b zeta, xi = c z + d zeta


def quad_reduce(q):
    """Symplectic linear reduction of a quadratic form to mu * z * zeta.

    The sign of mu is fixed by the admissibility rule Re(-i mu) > 0
    (decaying model lattice), with Re mu > 0 as tie-break.
    """
    A = complex(q[(2, 0)])
    B = complex(q[(1, 1)])
    C = complex(q[(0, 2)])
    if A == 0 and C == 0:
        if B == 0:
            raise ValueError("zero quadratic form")
        return QuadraticReduction(mu=B, linmap=((1, 0), (0, 1)))
    disc = B * B - 4.0 * A * C
    # |B|^2 + 4|AC| is invariant under the scaling x -> s x, xi -> xi/s
    if abs(disc) < 1e-14 * (abs(B) ** 2 + 4.0 * abs(A * C)):
        raise ValueError("degenerate quadratic form (vanishing discriminant)")
    mu = cmath.sqrt(disc)
    # branch of mu: decaying model lattice Re(-i mu) > 0, tie-break Re mu > 0
    if abs((-1j * mu).real) > 1e-12 * abs(mu):
        if (-1j * mu).real < 0:
            mu = -mu
    elif mu.real < 0:
        mu = -mu
    if C == 0:
        # symplectic rotation to make the xi^2 coefficient nonzero
        ct, st = math.cos(0.7), math.sin(0.7)
        qr = q.subs_linear(ct, -st, st, ct)
        inner = quad_reduce(qr)
        (a, b), (c, d) = inner.linmap
        lin = ((ct * a - st * c, ct * b - st * d),
               (st * a + ct * c, st * b + ct * d))
        return QuadraticReduction(mu=inner.mu, linmap=lin)
    # q = C (xi - ap x)(xi - am x); ap - am = mu/C so C*(ap - am) = mu
    ap = (-B + mu) / (2.0 * C)
    am = (-B - mu) / (2.0 * C)
    delta = ap - am
    s = cmath.sqrt(delta)
    t = delta / s
    # x = (t z - s zeta)/delta, xi = (ap t z - am s zeta)/delta; det = st/delta = 1
    lin = ((t / delta, -s / delta), (ap * t / delta, -am * s / delta))
    return QuadraticReduction(mu=mu, linmap=lin)


def homological_solve(r):
    """Solve i(z d_z - zeta d_zeta) a = -r + <r> termwise.

    Returns a with a_{mn} = i r_{mn}/(m-n) off the diagonal; the average
    <r> is the diagonal part, `r.diagonal()`.
    """
    return Series2({(m, n): 1j * c / (m - n)
                    for (m, n), c in r.coeffs.items() if m != n},
                   r.trunc_order)


def _birkhoff(sym, K, N):
    """Birkhoff normal form of a graded symbol whose h^0 level is q + O(3).

    Maps every level through the symplectic reduction of q to mu z zeta.
    Then for each h-level ell = 0..K and degree (3..N at ell = 0, 0..N-2ell
    above) conjugates by exp((i/h) h^ell a), where i mu a solves the
    homological equation for the off-diagonal part there; the rest of
    h^ell {a, g(w)} + O(h^(ell+2)) lands at a higher degree or two levels
    up.  At h-order 0 this is the classical flow exp({a, .}).  Level ell is
    kept to degree N - 2ell, which fixes w^j at level ell for
    2j + 2ell <= N.  Returns mu and the diagonal symbol.
    """
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


# ---------------------------------------------------------------------------
# graded Weyl (Moyal) calculus


def _moyal_term(a, b, k, degree):
    """k-th bidifferential term of the Weyl product (without h^k).

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
            da = da.dzeta()
        for _ in range(k - j):
            da = da.dz()
        db = Series2(b.coeffs, pad)
        for _ in range(j):
            db = db.dz()
        for _ in range(k - j):
            db = db.dzeta()
        out = out + (math.comb(k, j) * ((-1) ** (k - j))
                     * (da * db).truncate(degree))
    return pref * out


def moyal_commutator(a, b, K, degree):
    """a # b - b # a; even bidifferential terms cancel identically.

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


def _ad_exp(gen, sym, h_order, degree):
    """exp(ad_gen) sym with ad = [gen, .]_moyal.

    A generator at h-level -1, (i/h) a, conjugates by exp((i/h) a).
    """
    out = sym
    term = sym
    for k in range(1, 4 * (h_order + degree + 3)):
        term = moyal_commutator(gen, term, h_order, degree).scale(1.0 / k)
        if not any(s.coeffs for s in term.levels.values()):
            break
        out = out + term
    return out


def _diag_levels(sym, rel=1e-10):
    """Extract levels of a diagonal graded symbol as Series1 in w.

    Level k is refused when an off-diagonal coefficient exceeds `rel` times
    the largest coefficient of levels 0..k.
    """
    out = {}
    scale = 0.0
    for k, s in sorted(sym.levels.items()):
        scale = max([scale] + [abs(complex(c)) for c in s.coeffs.values()])
        if any(abs(complex(c)) > rel * scale
               for c in s.off_diagonal().coeffs.values()):
            raise ValueError("symbol level %d is not diagonal" % k)
        out[k] = s.diagonal()
    return out


def weyl_to_spectral(levels, h_order):
    """Spectral form of a diagonal graded symbol F = {k: Series1 in w}.

    Returns g_spec with Op_weyl(F) = g_spec(z h D_z + h/(2i); h); the model
    operator has eigenvalue -i(n+1/2)h on z^n.  On z^j, with nu = j + 1/2,
    Op_w(w^n) z^j = (h/2i)^n P_n(nu) z^j, where
    P_n(nu) = sum_i C(n,i) prod_{t<n} (nu + n - i - t - 1/2), and
    h nu = i s, so the term P_n[p] nu^p lands on h-level n - p at s^p.
    P_n has the parity of n and exact dyadic coefficients, so odd h-levels
    come out exactly 0.  Output levels are as long as the longest input.
    """
    K = h_order
    nw = max(s.trunc_order for s in levels.values())
    out = {k: [0j] * (nw + 1) for k in range(K + 1)}
    for n in range(nw + 1):
        pn = sum(math.comb(n, i) * polyfromroots([i - n + t + 0.5
                                                   for t in range(n)])
                 for i in range(n + 1)).tolist()
        for p in range(n % 2, n + 1, 2):
            # (2i)^-n i^p = 2^-n (-1)^((n-p)/2)
            fac = pn[p] * (-1) ** ((n - p) // 2) / 2 ** n
            for kf, s in levels.items():
                if kf + n - p <= K and n <= s.trunc_order \
                        and s.coeffs[n] != 0:
                    out[kf + n - p][p] += fac * s.coeffs[n]
    return HGraded({k: Series1(v, nw) for k, v in out.items()}, K)


# ---------------------------------------------------------------------------
# assembly of the mode symbol


def qnm_symbol(p, degree=10, h_order=2):
    """Mode symbol G(x; h): lambda_{l,n} = h^{-1} G(2 pi (n+1/2) h; h).

    G_0(x) = sqrt(E0 + g_eig(SPECTRAL_ARG * x)) with g_eig the classical
    eigenvalue curve at the barrier top; h-levels from the Birkhoff normal
    form of the graded symbol (the h^2 potential correction included).
    """
    N = degree
    K = h_order
    if N < 2 * K + 4:
        raise ValueError("need degree >= 2*h_order + 4")
    cd = critical_data(p)
    V = shifted_potential_taylor(p, N)
    p0 = Series2({(k, 0): c for k, c in enumerate(V.coeffs) if c != 0}, N)
    p0 = p0 + Series2.monomial(0, 2, 1.0, N)
    levels = {0: p0}
    if K >= 2:
        W1 = subprincipal_taylor(p, N)
        levels[2] = Series2({(k, 0): c for k, c in enumerate(W1.coeffs)
                             if c != 0}, N)
    # the linear reduction of the quadratic part is exact for Weyl symbols
    _, sym = _birkhoff(HGraded(levels, K), K, N)
    gs = weyl_to_spectral(_diag_levels(sym), K)
    # substitute s = SPECTRAL_ARG * x and build sqrt(E0 + .)
    nx = gs.trunc_order()
    u = [Series1([cc * SPECTRAL_ARG ** j for j, cc in enumerate(s.coeffs)],
                 nx) for _, s in sorted(gs.levels.items())]
    # Taylor of sqrt(E0 + w) in w
    root = math.sqrt(cd.E0)
    cs = [root]
    for j in range(1, nx + 1):
        cs.append(cs[-1] * (0.5 - (j - 1)) / j / cd.E0)
    # G = sqrt(E0 + u) level by level: G_0 = sqrt(E0 + u_0), and the h^k
    # part of G^2 = E0 + u gives 2 G_0 G_k = u_k - sum_{0<i<k} G_i G_{k-i}
    G = [Series1(cs, nx).compose(u[0])]
    inv_2g0 = (2 * G[0]).reciprocal()
    for k in range(1, K + 1):
        rest = u[k]
        for i in range(1, k):
            rest = rest - G[i] * G[k - i]
        G.append(rest * inv_2g0)
    # coefficient of x^j at h-level k needs bivariate degree 2j + 2k; keep
    # only the fully resolved part of each level
    return HGraded({k: lvl.truncate(max(N // 2 - k, 0))
                    for k, lvl in enumerate(G)}, K)
