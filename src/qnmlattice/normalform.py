"""Birkhoff normal form of a symbol at a nondegenerate critical point.

One reduction loop takes a graded symbol with h^0 level q + O(3) to a
diagonal symbol G(z*zeta; h), level by level in h and degree by degree,
by polynomial generators conjugating it in the Weyl (Moyal) calculus; at
h-order 0 it is the classical Birkhoff normal form.  The loop runs on
one flat complex vector that holds every h-level at a fixed offset, each
over the monomials z^m zeta^n in graded order, built straight from the
barrier's Taylor coefficients and read back as diagonals; `qnm_symbol`
supplies the black hole's, and `_mode_symbol` takes any barrier's.  Each
generator is homogeneous, so its Moyal commutator is, per source level
and odd bidifferential order k, a gather of the nonzero products of the
integers S_k (summed exactly, rounded to float64 once) with their target
monomials.  The products are kept in column-degree order, so the
products up to a degree are a prefix.  Each reduction step builds one
gather/scatter plan of those prefixes over every level its exp series
can reach, a bin of each (source level, k) fixing the column degree, so
that the products of a bin come in the order of a row-by-row plan; each
term of the series is then one gather, one `np.add.at` of the products
into a complex accumulator and one more that folds its weighted bins
into the next term.
G is converted to the spectral variable s = z h D_z + h/2i, whose
eigenvalue on z^n is -i(n+1/2)h, by the integer recurrence of
Op_w((z*zeta)^n) on monomials.  The assembled output G(x; h), the square
root of E0 plus that spectral symbol taken level by level in h, gives
the mode lattice lambda_{l,n} = h^{-1} G(2 pi (n+1/2) h; h).
"""

import cmath
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .series import HGraded, Series1
from .potentials import critical_data, shifted_potential_taylor, \
    subprincipal_taylor

TWO_PI = 2.0 * math.pi
# Argument calibration of the spectral variable against the lattice
# convention x = 2 pi (n + 1/2) h: the model eigenvalue -i(n+1/2)h equals
# SPECTRAL_ARG * x.  Fixed once against the known linear coefficient of
# the leading symbol; never re-fit.
SPECTRAL_ARG = -1j / TWO_PI
DIAG_REL = 1e-10  # off-diagonal tolerance of `_diag_levels`


@dataclass(frozen=True)
class QuadraticReduction:
    mu: complex
    linmap: tuple          # ((a, b), (c, d)): x = a z + b zeta, xi = c z + d zeta


def quad_reduce(q):
    """Symplectic linear reduction of a quadratic form to mu * z * zeta.

    q needs a xi^2 term unless it is B x xi; barrier symbols xi^2 + V
    have one.  The sign of mu is fixed by the admissibility rule
    Re(-i mu) > 0 (decaying model lattice), with Re mu > 0 as tie-break.
    """
    A = complex(q[(2, 0)])
    B = complex(q[(1, 1)])
    C = complex(q[(0, 2)])
    if A == 0 and C == 0:
        if B == 0:
            raise ValueError("zero quadratic form")
        return QuadraticReduction(mu=B, linmap=((1, 0), (0, 1)))
    if C == 0:
        raise ValueError("quadratic form has no xi^2 term")
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
    # q = C (xi - ap x)(xi - am x); ap - am = mu/C so C*(ap - am) = mu
    ap = (-B + mu) / (2.0 * C)
    am = (-B - mu) / (2.0 * C)
    delta = ap - am
    s = cmath.sqrt(delta)
    t = delta / s
    # x = (t z - s zeta)/delta, xi = (ap t z - am s zeta)/delta; det = st/delta = 1
    lin = ((t / delta, -s / delta), (ap * t / delta, -am * s / delta))
    return QuadraticReduction(mu=mu, linmap=lin)


def _birkhoff(levels, mu, K, N):
    """Birkhoff normal form of dense levels whose h^0 level is mu z zeta +
    O(3), level ell kept to degree N - 2ell.

    For each h-level ell = 0..K and degree (3..N at ell = 0, 0..N-2ell
    above) conjugates by exp((i/h) h^ell a), where i mu a solves the
    homological equation for the off-diagonal part there, a_n = i r_n /
    (dgr - 2n) for 2n != dgr; the rest of h^ell {a, g(w)} + O(h^(ell+2))
    lands at a higher degree or two levels up.  At h-order 0 this is the
    classical flow exp({a, .}).  Level ell fixes w^j for 2j + 2ell <= N.
    The levels live in one flat vector (`_level_offsets`), and each step
    runs its exp series on one `_plan`.  Returns the diagonal levels: those
    given and those the steps reach.

    The exp series of step (ell, dgr) has at most J = (N - 1) // (dgr +
    2ell - 2) nonzero terms, for any input levels.  Call N - 2 lvl - d the
    headroom of degree d on level lvl; the truncation keeps headroom >= 0.
    The block (source level L, odd k) of the generator's plan takes a
    column of degree d2 on level L to degree dgr + d2 - 2k on level
    ell - 1 + L + k, so each commutator lowers the headroom by exactly
    dgr + 2ell - 2.  S_k vanishes below column degree k >= 1, so a column
    that yields a product has headroom at most N - 1, and a nonzero
    coefficient of term j has headroom at most N - 1 - j (dgr + 2ell - 2).
    The plan keeps only targets of headroom >= 0, so past J terms no
    product lands inside the truncation.  dgr + 2ell - 2 >= 1 in every
    step that runs: ell = 0 starts at degree 3, and degree 0 has no
    off-diagonal coefficient.  A term can vanish earlier (symmetric
    barriers reach a numerically zero term first), and the series stops
    there too.
    """
    off = _level_offsets(K, N)
    flat = np.zeros(off[-1], complex)
    for lvl, v in levels.items():
        flat[off[lvl]:off[lvl] + len(v)] = v
    present = [lvl in levels for lvl in range(len(off) - 1)]
    inv = 1.0 / (1j * mu)
    for ell in range(len(off) - 1):
        if not present[ell]:
            continue
        for dgr in range(3 if ell == 0 else 0, N - 2 * ell + 1):
            s = off[ell] + _start(dgr)
            offd = [(n, c) for n, c in enumerate(flat[s:s + dgr + 1].tolist())
                    if 2 * n != dgr and c != 0]
            if not offd:
                continue
            a = np.zeros(dgr + 1, complex)
            for n, c in offd:
                a[n] = 1j * c / (dgr - 2 * n) * inv * 1j
            # exp(ad_gen); (i/h) h^ell a is the generator at h-level ell - 1
            plan = _plan(a, ell - 1, present, K, N, off)
            present = plan.present
            term = flat
            for j in range(1, (N - 1) // (dgr + 2 * ell - 2) + 1):
                term = moyal_commutator(plan, term)
                term *= 1.0 / j
                if not term.any():
                    break
                flat += term
    return {lvl: flat[off[lvl]:off[lvl + 1]]
            for lvl, seen in enumerate(present) if seen}


def _taylor_levels(V, W1, N, K):
    """mu and the dense levels of xi^2 + V(x), with h^2 W1(x) when K >= 2,
    after the linear reduction of the quadratic part to mu z zeta, level
    ell kept to degree N - 2ell.  x^k becomes the binomial row of
    (a z + b zeta)^k and xi^2 that of (c z + d zeta)^2; a slot sums
    c_k * (p * 1) over V's nonzero terms, then 1.0 * (1 * q) for xi^2: the
    float operations, in order, of the generic linear substitution.
    """
    red = quad_reduce({(2, 0): V[2], (1, 1): 0j, (0, 2): 1.0})
    (a, b), (c, d) = red.linmap

    def rows(u, v, n):
        # (u z + v zeta)^k for k = 0..n, each row from the one before
        out = [[1]]
        for _ in range(n):
            out.append([x * u + y * v for x, y in zip(out[-1] + [0],
                                                      [0] + out[-1])])
        return out

    zp = rows(a, b, N)

    def level(coeffs, D):
        acc = [0] * _start(D + 1)
        for k, ck in enumerate(coeffs[:D + 1]):
            if ck != 0:
                for i, p in enumerate(zp[k]):
                    acc[_start(k) + i] += ck * (p * 1)
        return acc

    lvl0 = level(V, N)
    for j, q in enumerate(rows(c, d, 2)[2]):
        lvl0[_start(2) + j] += 1.0 * (1 * q)
    levels = {0: lvl0}
    if K >= 2:
        levels[2] = level(W1, N - 4)
    # a slot whose sum is 0 holds 0j
    return red.mu, {k: np.array([c if c != 0 else 0j for c in v], complex)
                    for k, v in levels.items()}


# ---------------------------------------------------------------------------
# dense graded storage and the Moyal commutator on it
#
# Inside the loop a level is one complex vector over the monomials
# z^m zeta^n, m + n <= D, in graded order: degree d starts at d(d+1)/2
# and z^m zeta^n sits at d(d+1)/2 + n.  Truncation is a prefix and a
# homogeneous part is a slice.  The loop keeps its levels end to end in
# one flat vector, at the offsets of `_level_offsets`.


def _start(d):
    """Index of the first monomial of degree d."""
    return d * (d + 1) // 2


def _degree(i):
    """Degree of the monomial at index i."""
    return (math.isqrt(8 * i + 1) - 1) // 2


def _columns(lo, hi):
    """Degree d and zeta exponent n of each monomial of degree lo..hi, in
    graded order."""
    d = np.repeat(np.arange(lo, hi + 1), np.arange(lo + 1, hi + 2))
    return d, np.arange(_start(lo), _start(hi + 1)) - _start(d)


# (k, row degree) -> the nonzero products of S_k, grown by columns, in
# column-degree order (d2, then n1, then column), as (idx, S, pos): idx
# stacks each product's row n1, graded column and target offset
# T[column] + n1 - k in the narrowest unsigned type that holds them, S
# its S_k, and pos[d] counts the products of column degree < d, so the
# products of degree <= hi are the prefix [:pos[hi + 1]]
_S_TABLES = {}
# 2 (2i)^-k / k!, the odd-k weight of the commutator; k! leaves the float
# range past k = 170
_PREFACTOR = np.array([2.0 * (1.0 / (2j)) ** k / math.factorial(k)
                       for k in range(171)])


def _s_table(k, dgr, hi):
    """The nonzero products (idx, S, pos) of `_S_TABLES` of the rows
    z^(dgr-n1) zeta^n1 against every monomial of degree <= hi (at least).

    S_k(m1, n1, m2, n2) = sum_j u_j v_j with u_j = C(k,j) (-1)^(k-j)
    (m1)_(k-j) (n1)_j and v_j = (m2)_j (n2)_(k-j), (m)_i the falling
    factorial, is summed exactly, in int64 where no factor, term or
    partial sum can reach 2^63 and in Python ints elsewhere, and rounded to
    float64 once.  Row n1 and column z^m2 zeta^n2 of degree d2 map to
    z^(m1+m2-k) zeta^(n1+n2-k), whose graded index plus k is T[column] +
    n1 with T = _start(dgr + d2 - 2k) + n2.  The entry grows by columns:
    the nonzero products of the new columns, all of a higher degree than
    the old ones, are appended; so its size is bounded by the largest
    degree asked for.
    """
    t = _S_TABLES.get((k, dgr))
    if t is not None and len(t[2]) > hi + 1:
        return t
    lo = 0 if t is None else len(t[2]) - 1   # pos runs over degrees 0..D+1
    n1 = np.arange(dgr + 1)
    d2, n2 = _columns(lo, hi)
    # perm[m, i] = (m)_i and sign[j] = C(k,j) (-1)^(k-j); ub[j] and vb[j]
    # bound |u_j| and |v_j|, and (big)_k every (m)_i
    big = max(dgr, hi)
    sign = [math.comb(k, j) * (-1) ** (k - j) for j in range(k + 1)]
    ub = [abs(c) * math.perm(dgr, k - j) * math.perm(dgr, j)
          for j, c in enumerate(sign)]
    vb = [math.perm(hi, j) * math.perm(hi, k - j) for j in range(k + 1)]
    if max(ub + vb + [math.perm(big, min(k, big)),
                      sum(map(operator.mul, ub, vb))]) < 2 ** 63:
        perm = np.ones((big + 1, k + 1), np.int64)
        np.cumprod(np.arange(big + 1)[:, None] - np.arange(k), axis=1,
                   out=perm[:, 1:])
        sign = np.array(sign, np.int64)
    else:
        perm = np.array([[math.perm(m, i) for i in range(k + 1)]
                         for m in range(big + 1)], dtype=object)
        sign = np.array(sign, dtype=object)
    u = sign * perm[dgr - n1, ::-1] * perm[n1]   # (rows, j)
    v = perm[d2 - n2] * perm[n2, ::-1]            # (columns, j)
    td = dgr + d2 - 2 * k
    S, T = (u @ v.T).astype(np.float64), td * (td + 1) // 2 + n2
    # the new nonzero products, row by row, stably sorted by column degree
    row, col = np.nonzero(S)
    deg = d2[col]
    o = deg.argsort(kind="stable")
    row, col = row[o], col[o]
    idx = np.array([row, col + _start(lo), T[col] + row - k])
    vals = S[row, col]
    pos = [0]
    if t is not None:
        idx = np.concatenate([t[0], idx], axis=1)
        vals = np.concatenate([t[1], vals])
        pos = t[2]
    counts = np.bincount(deg - lo, minlength=hi - lo + 1).tolist()
    t = _S_TABLES[(k, dgr)] = (
        idx.astype(np.min_scalar_type(idx.max(initial=0))), vals,
        pos + list(accumulate(counts, initial=pos[-1]))[1:])
    return t


def _level_offsets(K, N):
    """Offsets of the h-levels 0..min(K, N//2) in one flat vector: level
    lvl, kept to degree N - 2 lvl, fills [off[lvl], off[lvl + 1])."""
    off = [0]
    for lvl in range(min(K, N // 2) + 1):
        off.append(off[-1] + _start(N - 2 * lvl + 1))
    return off


# one generator's Moyal commutator on flat levels: per product, the
# generator's coefficient, the flat index of the other factor, S_k and the
# accumulator bin; per bin, 2 (2i)^-k/k! and the flat index it folds into;
# per level, whether it is given or the exp series can reach it
_Plan = namedtuple("_Plan", "arow cols S bins pref dst present")
_NO_PRODUCTS = np.empty((3, 0), np.uint8)     # the products of no block


def _plan(a, gl, present, K, N, off):
    """The commutator plan of a homogeneous generator a at h-level gl on
    flat levels with offsets `off`, over the levels marked in `present`.

    The k-th bidifferential term of the Weyl product takes z^m1 zeta^n1
    and z^m2 zeta^n2 to (2i)^-k/k! S_k z^(m1+m2-k) zeta^(n1+n2-k); even k
    cancel, odd k count twice.  For each source level kb, in ascending
    order, and odd k the plan holds a block of products, rows of a
    against the monomials of kb up to degree hi, where hi keeps the target
    within degree N - 2 lvl, lvl = gl + kb + k: the prefix of the S_k
    table's nonzero products that ends at column degree hi (S_k = 0 where
    the target is not a monomial, and below column degree k).  Each
    product has its row, its flat column (the level's offset added), its
    S_k and its bin, the stored target offset plus the start of a segment
    of bins of its own that maps onto level lvl.  Blocks never share a
    bin, and inside a block a bin fixes the target degree and so the
    column degree; so the products of each bin come in the order (n1,
    column) of a row-by-row plan, and `np.add.at` sums them alike.  A
    target level counts as present from then on, so a level the series
    creates is a source for the levels above it: the plan covers every
    level the exp series can reach, and its `present` marks those and the
    levels given.
    """
    dgr = len(a) - 1
    idx, vals, blocks = [_NO_PRODUCTS], [_NO_PRODUCTS[0]], []
    end = 0
    present = list(present)
    top = min(K, N // 2) - gl
    for kb in range(len(off) - 1):
        if not present[kb]:
            continue
        hi = min(N - 2 * (gl + kb) - dgr, N - 2 * kb)
        for k in range(1, min(top - kb, dgr, hi) + 1, 2):
            lvl = gl + kb + k
            present[lvl] = True
            ix, v, pos = _s_table(k, dgr, hi)
            p = pos[hi + 1]
            idx.append(ix[:, :p])
            vals.append(v[:p])
            size = off[lvl + 1] - off[lvl]
            blocks.append((0, off[kb], end, p, k, off[lvl] - end, size))
            end += size
    # per block the offsets of row, column and bin and the product count,
    # then the weight's k, the fold's shift and the bin count
    blocks = np.array(blocks, np.intp).reshape(-1, 7).T
    idx = np.concatenate(idx, axis=1, dtype=np.intp)
    idx += blocks[:3].repeat(blocks[3], axis=1)
    row, cols, bins = idx
    k, dst = blocks[4:6].repeat(blocks[6], axis=1)
    dst += np.arange(end)
    return _Plan(a[row], cols, np.concatenate(vals), bins, _PREFACTOR[k],
                 dst, present)


def moyal_commutator(plan, term):
    """[a, term] = a # term - term # a for the generator a the plan was
    built for, on a flat vector of levels; level lvl of the result is
    kept to total degree N - 2 lvl, and levels the plan does not reach
    are -0.

    One gather of the plan's products from term, times a and S_k; one
    `np.add.at` of the products into a zeroed complex accumulator; then
    each bin times 2 (2i)^-k/k!, and one `np.add.at` folds the bins into
    their levels, in the plan's (source level, k) order, on -0, the zero
    that leaves the first addend as it is.  The products are formed in
    place with the operands in that order: numpy's complex multiply
    rounds a * b and b * a apart, and may swap the operands of a large
    temporary.
    """
    w = term[plan.cols]
    np.multiply(plan.arow, w, out=w)
    np.multiply(plan.S, w, out=w)
    acc = np.zeros(len(plan.dst), complex)
    np.add.at(acc, plan.bins, w)
    np.multiply(plan.pref, acc, out=acc)
    out = np.empty(len(term), complex)
    out.fill(complex(-0.0, -0.0))
    np.add.at(out, plan.dst, acc)
    return out


def _diag_levels(levels):
    """Diagonal of dense levels as Series1 in w = z zeta.

    Level k is refused when an off-diagonal coefficient exceeds DIAG_REL
    times the largest coefficient of levels 0..k (NaN is passed over).
    """
    out = {}
    scale = 0.0
    for k, v in sorted(levels.items()):
        D = _degree(len(v) - 1)
        d, n = _columns(0, D)
        diag = d == 2 * n
        mag = np.abs(v)
        scale = np.fmax.reduce(mag, initial=scale)
        if (mag[~diag] > DIAG_REL * scale).any():
            raise ValueError("symbol level %d is not diagonal" % k)
        out[k] = Series1(v[diag].tolist(), D // 2)
    return out


def weyl_to_spectral(levels, h_order):
    """Spectral form of a diagonal graded symbol F = {k: Series1 in w}.

    Returns g_spec with Op_weyl(F) = g_spec(z h D_z + h/(2i); h); the model
    operator has eigenvalue -i(n+1/2)h on z^n.  On z^j, with nu = j + 1/2,
    Op_w(w^n) z^j = (h/2i)^n P_n(nu) z^j, and w # w^n = w^(n+1)
    - (h/2i)^2 n^2 w^(n-1) gives P_(n+1) = 2 nu P_n + n^2 P_(n-1), P_0 = 1.
    In u = 2 nu that recurrence has integer coefficients, so P_n[p] nu^p =
    R_n[p] 2^p nu^p is exact; with h nu = i s the term lands on h-level
    n - p at s^p.  R_n has the parity of n, so odd h-levels come out
    exactly 0.  Output levels are as long as the longest input.
    """
    K = h_order
    nw = max(s.trunc_order for s in levels.values())
    out = {k: [0j] * (nw + 1) for k in range(K + 1)}
    r_prev, r = [], [1]       # R_(n-1), R_n in u = 2 nu, lowest power first
    for n in range(nw + 1):
        for p in range(n % 2, n + 1, 2):
            # (2i)^-n i^p 2^p = 2^(p-n) (-1)^((n-p)/2)
            fac = r[p] * (-1) ** ((n - p) // 2) / 2 ** (n - p)
            for kf, s in levels.items():
                if kf + n - p <= K and n <= s.trunc_order \
                        and s.coeffs[n] != 0:
                    out[kf + n - p][p] += fac * s.coeffs[n]
        r_next = [0] + r
        for p, c in enumerate(r_prev):
            r_next[p] += n * n * c
        r_prev, r = r, r_next
    return HGraded({k: Series1(v, nw) for k, v in out.items()}, K)


# ---------------------------------------------------------------------------
# assembly of the mode symbol


def qnm_symbol(p, degree, h_order):
    """Mode symbol G(x; h): lambda_{l,n} = h^{-1} G(2 pi (n+1/2) h; h).

    G_0(x) = sqrt(E0 + g_eig(SPECTRAL_ARG * x)) with g_eig the classical
    eigenvalue curve at the barrier top; h-levels from the Birkhoff normal
    form of the graded symbol (the h^2 potential correction included).
    """
    N = degree
    K = h_order
    if N < 2 * K + 4:
        raise ValueError("need degree >= 2*h_order + 4")
    lam = p.unit_mass().lam
    V = shifted_potential_taylor(lam, N).coeffs
    W1 = subprincipal_taylor(lam, N).coeffs if K >= 2 else ()
    G = _mode_symbol(V, W1, critical_data(lam), N, K)
    return HGraded({k: Series1([c / p.m for c in lvl.coeffs])
                    for k, lvl in G.levels.items()}, K)


def _mode_symbol(V, W1, E0, N, K):
    """Mode symbol of the barrier xi^2 + E0 + V(x) + h^2 W1(x) to degree
    N >= 2K + 4 and h-order K, from the Taylor coefficients V and W1 of
    x^0..x^N at the barrier top (V(0) = V'(0) = 0; W1 read when K >= 2).
    """
    mu, levels = _taylor_levels(V, W1, N, K)
    gs = weyl_to_spectral(_diag_levels(_birkhoff(levels, mu, K, N)), K)
    # substitute s = SPECTRAL_ARG * x and build sqrt(E0 + .)
    nx = gs.trunc_order()
    u = [Series1([cc * SPECTRAL_ARG ** j for j, cc in enumerate(s.coeffs)],
                 nx) for _, s in sorted(gs.levels.items())]
    # Taylor of sqrt(E0 + w) in w
    root = math.sqrt(E0)
    cs = [root]
    for j in range(1, nx + 1):
        cs.append(cs[-1] * (0.5 - (j - 1)) / j / E0)
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
