"""Unit tests for the truncated-series algebra."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qnmlattice.series import HGraded, Series1, Series2

from reference import (GaussianRational, deriv, functional_inverse,
                       hcompose, integ, poisson, reversion, series2_value)


def coeffs_close(a, b, tol=1e-12):
    ca = [complex(c) for c in a.coeffs]
    cb = [complex(c) for c in b.coeffs]
    n = min(len(ca), len(cb))
    return all(abs(x - y) <= tol for x, y in zip(ca[:n], cb[:n]))


finite_c = st.complex_numbers(min_magnitude=0.0, max_magnitude=10.0,
                              allow_nan=False, allow_infinity=False)


def series8(draw):
    return Series1(draw(st.lists(finite_c, min_size=9, max_size=9)))


# ---------------------------------------------------------------------------
# multiplication


def test_mul_difference_of_squares():
    a = Series1([1, 1, 0])
    b = Series1([1, -1, 0])
    assert coeffs_close(a * b, Series1([1, 0, -1]), 0)


def test_mul_identity():
    a = Series1([2, 3j, -1, 0.5])
    one = Series1([1, 0, 0, 0])
    assert coeffs_close(a * one, a, 0)


def test_mul_matches_schoolbook_convolution():
    import random
    rng = random.Random(7)
    a = Series1([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(9)])
    b = Series1([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(9)])
    prod = a * b
    for k in range(9):
        conv = sum(complex(a.coeffs[j]) * complex(b.coeffs[k - j])
                   for j in range(k + 1))
        assert abs(complex(prod.coeffs[k]) - conv) <= 1e-14


def test_mul_truncation_is_min_of_inputs():
    a = Series1([1, 2, 3])
    b = Series1([1, 1])
    assert (a * b).trunc_order == 1


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_ring_laws(data):
    a, b, c = (series8(data.draw) for _ in range(3))
    assert coeffs_close(a * b, b * a, 1e-9)
    assert coeffs_close((a * b) * c, a * (b * c), 1e-6)
    assert coeffs_close(a * (b + c), a * b + a * c, 1e-6)
    assert coeffs_close((a + b) + c, a + (b + c), 1e-9)


def test_rational_mode_exact():
    half = GaussianRational(1, 0) / GaussianRational(2, 0)
    i = GaussianRational.i()
    a = Series1([half, i, GaussianRational(3)])
    b = Series1([GaussianRational(2), half * i])
    prod = a * b
    assert prod.coeffs[0] == GaussianRational(1)
    # (1/2)(i/2) + (i)(2) = i/4 + 2i = 9i/4
    assert complex(prod.coeffs[1]) == 2.25j


# ---------------------------------------------------------------------------
# composition


def test_compose_square():
    f = Series1([0, 0, 1, 0, 0])           # w^2
    g = Series1([0, 1, 1, 0, 0])           # z + z^2
    assert coeffs_close(f.compose(g), Series1([0, 0, 1, 2, 1]), 0)


def test_compose_identity():
    g = Series1([0, 1, -2j, 0.25])
    f = Series1([0, 1, 0, 0])
    assert coeffs_close(f.compose(g), g, 0)


def test_compose_exp_log():
    n = 12
    expo = Series1([1.0 / math.factorial(k) for k in range(n + 1)])
    log1p = Series1([0] + [(-1.0) ** (k + 1) / k for k in range(1, n + 1)])
    out = expo.compose(log1p)
    want = Series1([1, 1] + [0] * (n - 1))
    assert coeffs_close(out, want, 1e-12)


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError):
        Series1([1, 1]).compose(Series1([1, 1]))


# ---------------------------------------------------------------------------
# reciprocal


def test_reciprocal_geometric():
    a = Series1([1, -1, 0, 0, 0, 0])
    assert coeffs_close(a.reciprocal(), Series1([1] * 6), 1e-14)


def test_reciprocal_constant():
    assert abs(complex(Series1([4.0]).reciprocal().coeffs[0]) - 0.25) \
        == 0


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_reciprocal_product_residual(data):
    small_c = st.complex_numbers(min_magnitude=0.0, max_magnitude=1.0,
                                 allow_nan=False, allow_infinity=False)
    c0 = data.draw(st.complex_numbers(min_magnitude=0.5, max_magnitude=5.0,
                                      allow_nan=False, allow_infinity=False))
    rest = data.draw(st.lists(small_c, min_size=8, max_size=8))
    a = Series1([c0] + rest)
    res = a * a.reciprocal()
    want = [1] + [0] * 8
    assert all(abs(complex(c) - w) <= 1e-12
               for c, w in zip(res.coeffs, want))


# ---------------------------------------------------------------------------
# graded functional inverse


def test_functional_inverse_linear():
    S = HGraded({0: Series1([0, 2.0, 0])}, 0)
    G = functional_inverse(S)
    assert coeffs_close(G.level(0), Series1([0, 0.5, 0]), 1e-14)


def test_functional_inverse_shift():
    # S(x; h) = x - h  ->  G(x; h) = x + h
    S = HGraded({0: Series1([0, 1.0, 0]), 1: Series1([-1.0, 0, 0])}, 1)
    G = functional_inverse(S)
    assert coeffs_close(G.level(0), Series1([0, 1.0, 0]), 1e-14)
    assert abs(complex(G.level(1).coeffs[0]) - 1.0) <= 1e-14


def test_functional_inverse_random_residual():
    import random
    rng = random.Random(3)
    n = 8
    levels = {0: Series1([0, 1.0, 0.3] + [0] * (n - 2))}
    for k in range(1, 5):
        levels[k] = Series1([0.3 * rng.uniform(-1, 1) for _ in range(n + 1)])
    S = HGraded(levels, 4)
    G = functional_inverse(S)
    res = hcompose(S, G)
    for k, lvl in res.levels.items():
        want = [0, 1] if k == 0 else []
        for j, c in enumerate(lvl.coeffs):
            w = want[j] if j < len(want) else 0
            assert abs(complex(c) - w) <= 1e-11, (k, j)


def test_functional_inverse_involution():
    # levels vanish at 0 so every coefficient of the double inverse is
    # determined by the stored orders
    levels = {0: Series1([0, 1.0, 0.2, -0.1, 0, 0, 0, 0]),
              1: Series1([0, -0.05, 0.1, 0, 0, 0, 0, 0]),
              2: Series1([0, 0.02, 0, 0, 0, 0, 0, 0])}
    S = HGraded(levels, 2)
    back = functional_inverse(functional_inverse(S))
    for k in levels:
        assert coeffs_close(back.level(k), S.level(k), 1e-11)


def test_functional_inverse_preconditions():
    with pytest.raises(ValueError):
        functional_inverse(HGraded({0: Series1([1.0, 1.0])}, 0))
    with pytest.raises(ValueError):
        functional_inverse(HGraded({0: Series1([0, 0, 1.0])}, 0))


# ---------------------------------------------------------------------------
# ODE solve g' = 1/f(g), g(0) = 0, as the reversion of the antiderivative
# of f: the route of the Taylor oracle `barrier_taylor_mp` to rho(x) from
# d rho/dx = alpha^2, which `potentials` solves by a recurrence instead


def ode_g_from_f(f):
    return reversion(integ(f).truncate(f.trunc_order))


def test_ode_constant():
    g = ode_g_from_f(Series1([1.0, 0, 0, 0]))
    assert coeffs_close(g, Series1([0, 1, 0, 0]), 1e-14)


def test_ode_affine_closed_form():
    # g' = 1/(1+g): g + g^2/2 = t, so g = -1 + sqrt(1+2t)
    n = 8
    g = ode_g_from_f(Series1([1.0, 1.0] + [0] * (n - 1)))
    want = Series1([0.0] + [math.prod(0.5 - i for i in range(k))
                            / math.factorial(k) * 2.0 ** k
                            for k in range(1, n + 1)])
    assert coeffs_close(g, Series1([0, 1, -0.5, 0.5] + [0] * (n - 3)), 1e-12) \
        or coeffs_close(g, want, 1e-12)


def test_ode_round_trip_residual():
    import random
    rng = random.Random(11)
    f = Series1([1.5] + [rng.uniform(-1, 1) for _ in range(8)])
    g = ode_g_from_f(f)
    res = f.compose(g) * deriv(g)
    assert abs(complex(res.coeffs[0]) - 1.0) <= 1e-11
    assert all(abs(complex(c)) <= 1e-11 for c in res.coeffs[1:])


# ---------------------------------------------------------------------------
# bivariate series


def test_series2_poisson_bracket():
    # {z zeta, z^2} = d_zeta(z zeta) d_z(z^2) - d_z(z zeta) d_zeta(z^2)
    a = Series2.monomial(1, 1, 1.0, 4)
    b = Series2.monomial(2, 0, 1.0, 4)
    br = poisson(a, b)
    assert abs(complex(br[(2, 0)]) - 2.0) <= 1e-15


def test_series2_subs_linear_is_substitution():
    s = Series2({(2, 0): 1.0, (1, 1): -1.0}, 4)
    out = s.subs_linear(1.0, 2.0, 0.5, 1.0)  # z -> z+2zeta, zeta -> z/2+zeta
    z, zeta = 0.3, -0.7
    want = series2_value(s, z + 2 * zeta, 0.5 * z + zeta)
    assert abs(series2_value(out, z, zeta) - want) <= 1e-12
