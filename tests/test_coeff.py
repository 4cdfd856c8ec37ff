"""Ring axioms and canonicality of the exact scalar layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinlrl.coeff import (
    G_ONE,
    GaussianRational,
    P_ALPHA,
    P_E,
    P_I,
    P_ONE,
    P_ZERO,
    ParamPoly,
    gauss,
    poly,
)


def rand_gauss(rng):
    return GaussianRational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_poly(rng, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[(rng.randint(0, 3), rng.randint(0, 3))] = rand_gauss(rng)
    return ParamPoly(terms)


# -- Gaussian rationals -------------------------------------------------


def test_gaussian_basics():
    assert gauss(0, 1) * gauss(0, 1) == GaussianRational(-1)
    assert gauss(1, 2).conjugate() == gauss(1, -2)
    assert gauss(Fraction(1, 2)) + gauss(Fraction(1, 2)) == G_ONE
    assert gauss(3, 4) * gauss(3, 4).inverse() == G_ONE


def test_gaussian_str_forms():
    assert str(gauss(0)) == "0"
    assert str(gauss(0, 1)) == "i"
    assert str(gauss(0, -1)) == "-i"
    assert str(gauss(0, Fraction(1, 2))) == "1/2i"
    assert str(gauss(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(gauss(-2, 1)) == "-2+i"


def test_gaussian_zero_division():
    with pytest.raises(ZeroDivisionError):
        gauss(0).inverse()


# -- specific polynomial values -----------------------------------------


def test_poly_add_examples():
    assert P_ALPHA + (-P_ALPHA) == P_ZERO
    half = poly(Fraction(1, 2))
    assert (half + P_E) + (half - P_E) == P_ONE
    assert (2 * P_E * P_ALPHA) + (3 * P_E * P_ALPHA) == 5 * P_E * P_ALPHA


def test_poly_mul_examples():
    assert (P_ONE - 2 * P_E) * (P_ONE + 2 * P_E) == P_ONE - 4 * P_E * P_E
    assert P_I * P_I == poly(-1)
    assert P_ALPHA * P_ZERO == P_ZERO


def test_poly_conjugate_examples():
    assert P_I.conjugate() == -P_I
    three_plus = poly(3) + 2 * P_I * P_E
    assert three_plus.conjugate() == poly(3) - 2 * P_I * P_E
    assert P_ALPHA.conjugate() == P_ALPHA


def test_poly_substitute_examples():
    one_minus = P_ONE - 2 * P_E
    assert one_minus.substitute(e_value=gauss(Fraction(1, 2))) == P_ZERO
    assert (P_ALPHA * P_ALPHA).substitute(alpha_value=gauss(3)) == poly(9)
    assert (P_ALPHA * P_E).substitute() == P_ALPHA * P_E


def test_poly_substitute_both():
    p = P_ALPHA * P_E + poly(1)
    assert p.substitute(gauss(2), gauss(3)) == poly(7)


# -- ring axioms on 1000+ random triples ---------------------------------


def test_ring_axioms_bulk():
    rng = random.Random(20240817)
    for _ in range(1000):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert hash(a * (b + c)) == hash(a * b + a * c)
        assert hash((a - b) + b) == hash(a)


def test_conjugate_involution_bulk():
    rng = random.Random(7)
    for _ in range(300):
        a = rand_poly(rng)
        assert a.conjugate().conjugate() == a


def test_no_zero_coefficients_stored():
    rng = random.Random(99)
    for _ in range(400):
        a, b = rand_poly(rng), rand_poly(rng)
        for result in (a + b, a * b, a - b, -a, a.conjugate()):
            for _, coeff in result.items():
                assert coeff


# -- canonical storage: one int denominator, Gaussian-integer numerators ----


def test_equal_values_through_different_denominators():
    half = poly(Fraction(1, 2))
    assert half + half == P_ONE
    assert hash(half + half) == hash(P_ONE)
    # (1/2 + i/2)(1 - i) = 1: the product's content must be divided out
    product = poly(gauss(Fraction(1, 2), Fraction(1, 2))) * poly(gauss(1, -1))
    assert product == P_ONE
    assert hash(product) == hash(P_ONE)
    thirds = poly(Fraction(1, 3)) * P_ALPHA + poly(Fraction(2, 3)) * P_ALPHA
    assert thirds == P_ALPHA and hash(thirds) == hash(P_ALPHA)
    sixth = poly(Fraction(1, 2)) * P_E + poly(Fraction(-1, 3)) * P_E
    assert sixth == poly(Fraction(1, 6)) * P_E


def test_items_round_trip():
    rng = random.Random(5)
    for _ in range(300):
        p = rand_poly(rng)
        again = ParamPoly(dict(p.items()))
        assert again == p
        assert hash(again) == hash(p)


def test_items_and_constant_value_are_gaussian_rationals():
    p = poly(gauss(Fraction(3, 4), Fraction(-1, 2))) * P_E + poly(Fraction(1, 6))
    assert dict(p.items()) == {(0, 1): gauss(Fraction(3, 4), Fraction(-1, 2)), (0, 0): gauss(Fraction(1, 6))}
    assert poly(gauss(Fraction(2, 4), 3)).constant_value() == gauss(Fraction(1, 2), 3)
    assert P_ZERO.constant_value() == gauss(0)
    assert (P_ALPHA + P_ONE).constant_value() is None


# -- hypothesis property layer -------------------------------------------

small_fraction = st.fractions(min_value=-20, max_value=20, max_denominator=8)
gaussians = st.builds(GaussianRational, small_fraction, small_fraction)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, gaussians, max_size=4).map(ParamPoly)


@settings(max_examples=120)
@given(polys, polys)
def test_hypothesis_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert hash(a * b) == hash(b * a)

@settings(max_examples=120)
@given(polys, polys, polys)
def test_hypothesis_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert hash((a + b) + c) == hash(a + (b + c))


@settings(max_examples=120)
@given(polys)
def test_hypothesis_conjugate_multiplicative(a):
    assert (a * a.conjugate()).conjugate() == a * a.conjugate()


# -- rendering ------------------------------------------------------------


def test_poly_str_sorted_descending():
    p = P_E + P_ALPHA * P_ALPHA + poly(1)
    assert str(p) == "alpha^2 + E + 1"


def test_poly_str_wraps_awkward_coefficients():
    p = poly(gauss(1, 2)) * P_ALPHA + poly(3)
    assert str(p) == "(1+2i) alpha + 3"
