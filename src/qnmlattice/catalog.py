"""Mode lattices, sector counting, and the cubic counting law.

The lattice rule is lam_{ell,n} = h^{-1} G(2 pi (n+1/2) h; h) with
h = (ell+1/2)^{-1}; each (ell, n) mode carries multiplicity 2 ell + 1.
Counting in the sector A_t(r) = {1 <= |lam| <= r, arg lam > -t} follows
the cubic law N(r) ~ c(t, m, lam) r^3.
"""

import math

import numpy as np

VALIDITY_FRAC = 0.05  # share of the sum the top retained term may reach
# largest ell a count searches, at a time and memory linear in it (about
# 200 B an ell); radius 1e5 at m = 1 needs 520 000
MAX_ELL = 600_000


def validity_radius(G0):
    """Largest x > 0 where the top term is < VALIDITY_FRAC of the sum.

    Beyond this radius the polynomial truncation is treated as unreliable
    and the lattice is refused rather than extrapolated.
    """
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
        # once mid is lo or hi no later step moves lo: bad(hi) holds
        if mid == lo or mid == hi:
            break
        if bad(mid):
            hi = mid
        else:
            lo = mid
    return lo


def _horner(coeffs, x):
    """sum_j coeffs[j] x^j by Horner's rule: the float operations of
    np.polyval, in its order, without its per-call array overhead."""
    y = 0.0
    for c in reversed(coeffs):
        y = y * x + c
    return y


def eval_symbol(G, x, h):
    """G(x; h) = sum_k G_k(x) h^k for scalar or array x and h.

    A scalar x gives a Python complex, an array x a complex array.  An
    h-level above 0 whose coefficients are all zero is skipped: it adds
    only zeros (every odd level of `qnm_symbol` is one); `G.terms` lists
    the others once per symbol."""
    # np.ndim takes about a quarter of a scalar call; a float needs float()
    x = float(x) if isinstance(x, (int, float)) or np.ndim(x) == 0 \
        else np.asarray(x, dtype=float)
    out = 0j
    for k, coeffs in G.terms:
        out += _horner(coeffs, x) * h ** k
    return out


def lattice(G, ell, rad, n_max=None):
    """lam_{ell,n} = h^{-1} G(2 pi (n+1/2) h; h), h = (ell+1/2)^{-1}, for
    n = 0, 1, ... while x = 2 pi (n+1/2) h <= rad, and n <= n_max."""
    if not math.isfinite(rad):
        raise ValueError("walk radius must be finite, got %r" % rad)
    h = 1.0 / (ell + 0.5)
    n_cap = rad / (2.0 * math.pi * h) - 0.5
    if n_max is not None:
        n_cap = min(n_cap, n_max)
    xs = 2.0 * math.pi * (np.arange(math.floor(n_cap) + 1) + 0.5) * h
    return eval_symbol(G, xs, h) / h


def _unwrapped_arg_crossing(G0, t, rad):
    """Smallest x > 0 with (continuously tracked) arg G0(x) = -t."""
    xs = np.linspace(0.0, rad, 4001)
    vals = _horner(G0.coeffs, xs)
    args = np.unwrap(np.angle(vals))
    args = args - args[0]  # branch continuous from arg G0(0) = 0
    below = args <= -t
    if not np.any(below):
        raise ValueError("arg G0 never reaches -t within validity radius")
    i = int(np.argmax(below))
    lo, hi = float(xs[i - 1]), float(xs[i])
    alo = args[i - 1]

    def arg_at(x):
        v = _horner(G0.coeffs, x)
        # local branch continuation from the grid value
        a = math.atan2(v.imag, v.real)
        k = round((alo - a) / (2.0 * math.pi))
        return a + 2.0 * math.pi * k

    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if arg_at(mid) <= -t:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def counting_constant(t, p, G0):
    """c(t, m, lam) = pi^{-1}(1-9 lam m^2)^{-3/2} 3^{7/2} m^3 |I_t|,
    where I_t = {x > 0 : arg G0(x) > -t} for the leading symbol G0, and
    the validity radius and the crossing of G0 it measured:
    (c, rad, x_cross)."""
    if not (0.0 < t <= 0.3):
        raise ValueError("need 0 < t <= 0.3")
    rad = validity_radius(G0)
    if not math.isfinite(rad):
        raise ValueError("validity radius of G0 is not finite")
    x_cross = _unwrapped_arg_crossing(G0, t, rad)
    interval = x_cross  # I_t = (0, x_cross) since arg decreases from 0
    m = p.m
    pref = (1.0 - 9.0 * p.unit_mass().lam) ** -1.5
    c = interval * pref * 3.0 ** 3.5 * m ** 3 / math.pi
    if not c >= np.finfo(float).tiny:
        raise RuntimeError("counting constant underflows at m = %g" % m)
    # independent arithmetic path for the same prefactor
    c_alt = (interval / (3.0 * math.pi)) * (3.0 * math.sqrt(3.0) * m) ** 3 \
        * pref
    assert abs(c - c_alt) <= 1e-12 * abs(c)
    return c, rad, x_cross


def sector_radii(r_list, g0):
    """The radii of `r_list` as an array, and the largest ell each counts,
    ceil(r / g0) + 2, for g0 = |G(0)|; ValueError unless they are finite,
    increasing and >= 1, with no ell above MAX_ELL.  At g0 = inf no ell
    bound applies."""
    radii = np.array(r_list, dtype=float)
    if not np.all(np.isfinite(radii)):
        raise ValueError("sector radius must be finite")
    if list(radii) != sorted(radii):
        raise ValueError("r_list must be increasing")
    if radii.size and radii[0] < 1.0:
        raise ValueError("sector radius must be >= 1")
    if radii.size and radii[-1] / g0 > MAX_ELL - 2:
        raise ValueError("radius %g counts ell above %d"
                         % (radii[-1], MAX_ELL))
    return radii, np.ceil(radii / g0).astype(int) + 2


def asymptotic_check(p, G, t, r_list):
    """Table of N(r) / (c r^3) for increasing radii r.

    N(r) is the multiplicity-weighted number of lattice modes in the
    sector {1 <= |lam| <= r, arg lam > -t}; radius r counts
    ell <= ceil(r / |G(0)|) + 2.  An ell counts its modes n < n_exit, the
    first n with arg lam <= -t, or with x = 2 pi (n+1/2) h past the
    validity radius; the latter is a coverage gap of every radius counting
    that ell.  Inside the wedge |lam| increases with n, so the count of
    ell at radius r is the first n with |lam| > r less the first n with
    |lam| >= 1.  Each of these is a bisection over the array of all ell.
    The search for n_exit starts at the first x at or past the arg
    crossing of G0 and gallops from there, up while inside the wedge but
    never past the validity radius, down while outside it, so that modes
    back inside the wedge past an exit are not counted.  A probe that shows
    |lam| decreasing in n inside the wedge raises RuntimeError rather than
    miscount.
    """
    radii, ell_max = sector_radii(
        r_list, abs(complex(eval_symbol(G, 0.0, 0.0))))
    c, rad, x_cross = counting_constant(t, p, G.levels[0])
    ells = np.arange(1, int(ell_max.max(initial=0)) + 1)
    h = 1.0 / (ells + 0.5)

    def at(e, n):
        """|lam| at mode n of ells[e], and whether lam is outside the
        wedge; x by the float expression of `lattice`."""
        he = h[e]
        lams = eval_symbol(G, 2.0 * math.pi * (n + 0.5) * he, he) / he
        return np.abs(lams), ~(np.angle(lams) > -t)

    def first(e, lo, hi, mlo, nxt, thr=None, mhi=None):
        """First n in (lo, hi] of each ells[e] with |lam| > thr, or outside
        the wedge for thr None, and |lam| at the n before it.  Probes nxt
        while it lies inside the bracket, moving it 1, 2, 4, ... toward
        the answer, then bisects.  |lam| at lo is mlo, and at hi mhi: a
        probe below the answer with |lam| < mlo, or above it with
        |lam| > mhi, refutes the order the search rests on."""
        step = 1
        while True:
            k = np.flatnonzero(hi - lo > 1)
            if not k.size:
                return hi, mlo
            gal = (lo[k] < nxt[k]) & (nxt[k] < hi[k])
            n = np.where(gal, nxt[k], (lo[k] + hi[k]) // 2)
            mag, out = at(e[k], n)
            up = out if thr is None else mag > thr[k]
            bad = ~up & (mag < mlo[k])
            if mhi is not None:
                bad |= up & (mag > mhi[k])
                mhi[k] = np.where(up, mag, mhi[k])
            if np.any(bad):
                raise RuntimeError(
                    "|lambda| decreases in n inside the wedge at ell = %d; "
                    "the count cannot bisect" % ells[e[k[bad]][0]])
            lo[k] = np.where(up, lo[k], n)
            mlo[k] = np.where(up, mlo[k], mag)
            hi[k] = np.where(up, n, hi[k])
            nxt[k] = np.where(gal, np.where(up, n - step, n + step), hi[k])
            step *= 2

    # first n with x > rad, x computed as in `at`
    n_rad = np.maximum(np.floor(rad / (2.0 * math.pi * h) - 0.5) + 1,
                       0).astype(int)
    n_rad += ~(2.0 * math.pi * (n_rad + 0.5) * h > rad)
    n_rad -= (n_rad > 0) & (2.0 * math.pi * (n_rad - 0.5) * h > rad)
    live = np.flatnonzero(n_rad > 0)
    m0, out = at(live, 0)
    lo = np.full(ells.size, -1)
    lo[live[~out]] = 0
    hi = n_rad.copy()
    hi[live[out]] = 0
    mfirst = np.full(ells.size, np.inf)
    mfirst[live] = m0
    # bracket from the first n at or past the arg crossing of G0
    n_cross = np.ceil(x_cross / (2.0 * math.pi * h) - 0.5)
    nxt = np.maximum(n_cross, 1).astype(int)
    n_exit, mlast = first(np.arange(ells.size), lo, hi, mfirst.copy(), nxt)
    # first n with |lam| >= 1 (> the float below 1), then > each r
    thr = np.concatenate([[np.nextafter(1.0, 0.0)], radii])[:, None]
    first_n = np.where(mfirst > thr, 0, n_exit)
    j, e = np.nonzero((mfirst <= thr) & (mlast > thr) & (n_exit > 0)
                      & (ells <= np.append(ells.size, ell_max)[:, None]))
    first_n[j, e], _ = first(e, np.zeros(e.size, dtype=int), n_exit[e] - 1,
                             mfirst[e], n_exit[e] - 1, thr[j, 0], mlast[e])
    # bisections of one ell share their probes until one goes up and the
    # other down, so no first |lam| > r precedes the first |lam| >= 1
    counted = ells <= ell_max[:, None]
    counts = ((first_n[1:] - first_n[0]) * counted) @ (2 * ells + 1)
    gaps = np.count_nonzero(counted & (n_exit == n_rad), axis=1)
    return [{"r": r, "count": N, "c_r3": c * r ** 3,
             "ratio": N / (c * r ** 3), "coverage_gaps": g}
            for r, N, g in zip(radii.tolist(), counts.tolist(),
                               gaps.tolist())]
