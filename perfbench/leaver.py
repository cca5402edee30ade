"""Independent accuracy oracle: Leaver's continued fraction for the
quasinormal modes of a scalar field (s = 0) on Schwarzschild.

Leaver, Proc. R. Soc. A 402 (1985) 285, in units 2M = 1 with time
dependence e^{-i w t}.  The three-term recurrence coefficients are

    alpha_n = n^2 + (2 - 2iw) n + 1 - 2iw
    beta_n  = -(2n^2 + (2 - 8iw) n - 8w^2 - 4iw + l(l+1) + 1 - s^2)
    gamma_n = n^2 - 4iw n - 4w^2 - s^2

and overtone n is the root of the n-times inverted fraction, which makes
it the most stable root of that equation.  Roots are searched by the secant
method from the eikonal guess M w = ((l+1/2) - i(n+1/2)) / sqrt(27); nothing
here calls the code under test.  Frequencies are returned as M w, the
convention of the qnmlattice mode lists (M = 1).
"""

import cmath
import math

# Literature values of M w (scalar field, Schwarzschild), checked before
# any error against this oracle is reported.
LITERATURE = {
    (1, 0): 0.292936 - 0.097660j,
    (1, 1): 0.264449 - 0.306257j,
    (2, 0): 0.483644 - 0.096759j,
}
LITERATURE_TOL = 2e-6


def _coeffs(k, w, ell):
    iw = 1j * w
    a = k * k + (2.0 - 2.0 * iw) * k + 1.0 - 2.0 * iw
    b = -(2.0 * k * k + (2.0 - 8.0 * iw) * k - 8.0 * w * w - 4.0 * iw
          + ell * (ell + 1) + 1.0)
    c = k * k - 4.0 * iw * k - 4.0 * w * w
    return a, b, c


def _tail(w, ell, start, depth):
    """alpha_s gamma_{s+1} / (beta_{s+1} - alpha_{s+1} gamma_{s+2} / ...),
    evaluated bottom-up from `depth` terms below `start`."""
    acc = 0.0
    for k in range(start + depth, start, -1):
        a_prev = _coeffs(k - 1, w, ell)[0]
        _, b, c = _coeffs(k, w, ell)
        acc = a_prev * c / (b - acc)
    return acc


def _inverted_fraction(w, ell, n, depth):
    """Leaver's n-times inverted condition; zero at overtone n."""
    _, b_n, _ = _coeffs(n, w, ell)
    head = 0.0
    for k in range(0, n):
        a, b, _ = _coeffs(k, w, ell)
        _, _, c_next = _coeffs(k + 1, w, ell)
        head = a * c_next / (b - head)
    return b_n - head - _tail(w, ell, n, depth)


def _secant(ell, n, depth, w0):
    """Root of the fraction truncated at `depth`, by the secant method."""
    w1 = w0 * (1.0 + 1e-4)
    f0 = _inverted_fraction(w0, ell, n, depth)
    f1 = _inverted_fraction(w1, ell, n, depth)
    for _ in range(60):
        if f1 == f0 or abs(w1 - w0) <= 1e-14 * abs(w1):
            return w1
        w0, f0, w1 = w1, f1, w1 - f1 * (w1 - w0) / (f1 - f0)
        f1 = _inverted_fraction(w1, ell, n, depth)
    raise ArithmeticError("Leaver secant did not converge at l=%d n=%d"
                          % (ell, n))


def qnm(ell, n):
    """M w of the scalar-field Schwarzschild mode (ell, n).

    The fraction is truncated ever deeper, each root seeding the next,
    until the root stops moving.
    """
    w = 2.0 * ((ell + 0.5) - 1j * (n + 0.5)) / math.sqrt(27.0)
    depth = 150
    w = _secant(ell, n, depth, w)
    while True:
        depth *= 2
        if depth > 40000:
            raise ArithmeticError("Leaver fraction did not converge at "
                                  "l=%d n=%d" % (ell, n))
        w_deeper = _secant(ell, n, depth, w)
        moved = abs(w_deeper - w)
        w = w_deeper
        if moved <= 1e-12 * abs(w):
            break
    if not (cmath.isfinite(w) and w.real > 0 and w.imag < 0):
        raise ArithmeticError("Leaver root at l=%d n=%d is unphysical: %r"
                              % (ell, n, w))
    return w / 2.0


def self_check():
    """Reproduce the literature values; raise if the oracle is off."""
    for (ell, n), ref in LITERATURE.items():
        got = qnm(ell, n)
        if abs(got - ref) > LITERATURE_TOL:
            raise ArithmeticError("Leaver oracle gives %r at l=%d n=%d, "
                                  "literature %r" % (got, ell, n, ref))
