"""Ring axioms and canonicality of the exact scalar layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinlrl.coeff import P_ALPHA, P_E, P_I, P_ONE, P_ZERO, ParamPoly, poly


def gaussian(re=0, im=0):
    """The Gaussian rational re + im*i as a constant ParamPoly."""
    return poly(Fraction(re)) + P_I * Fraction(im)


def rand_constant(rng):
    return gaussian(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_poly(rng, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[(rng.randint(0, 3), rng.randint(0, 3))] = rand_constant(rng)
    return ParamPoly(terms)


# -- Gaussian rationals: the constant polynomials ------------------------


def test_gaussian_basics():
    assert gaussian(0, 1) * gaussian(0, 1) == -1
    assert gaussian(0, 1) == P_I and gaussian(Fraction(1, 2)) == Fraction(1, 2)
    assert gaussian(Fraction(1, 2)) + gaussian(Fraction(1, 2)) == P_ONE
    # (3 + 4i)(3 - 4i) / 25 = 1
    assert gaussian(3, 4) * gaussian(Fraction(3, 25), Fraction(-4, 25)) == P_ONE


def test_gaussian_str_forms():
    assert str(gaussian(0)) == "0"
    assert str(gaussian(0, 1)) == "i"
    assert str(gaussian(0, -1)) == "-i"
    assert str(gaussian(0, Fraction(1, 2))) == "1/2i"
    assert str(gaussian(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(gaussian(-2, 1)) == "-2+i"


def test_scalars_other_than_int_fraction_and_parampoly_are_refused():
    for value in (0.5, 1j, "1", None):
        with pytest.raises(TypeError):
            ParamPoly.of(value)
    with pytest.raises(TypeError):
        ParamPoly({(0, 0): 0.5})
    # map coefficients and substituted values must be constants
    with pytest.raises(TypeError):
        ParamPoly({(1, 0): P_ALPHA})
    with pytest.raises(TypeError):
        P_E.substitute(e_value=P_ALPHA)


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


def test_poly_substitute_examples():
    one_minus = P_ONE - 2 * P_E
    assert one_minus.substitute(e_value=gaussian(Fraction(1, 2))) == P_ZERO
    assert (P_ALPHA * P_ALPHA).substitute(alpha_value=gaussian(3)) == poly(9)
    assert (P_ALPHA * P_E).substitute() == P_ALPHA * P_E
    # ints and Fractions are taken as they are
    assert (P_ALPHA * P_ALPHA + P_E).substitute(alpha_value=3, e_value=Fraction(1, 2)) == Fraction(19, 2)


def test_poly_substitute_both():
    p = P_ALPHA * P_E + poly(1)
    assert p.substitute(gaussian(2), gaussian(3)) == poly(7)
    # complex values: (1 - i)^2 (2i)^3 + 1 = (-2i)(-8i) + 1 = -15
    q = P_ALPHA * P_ALPHA * P_E * P_E * P_E + poly(1)
    assert q.substitute(gaussian(1, -1), gaussian(0, 2)) == poly(-15)


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


def test_no_zero_coefficients_stored():
    rng = random.Random(99)
    for _ in range(400):
        a, b = rand_poly(rng), rand_poly(rng)
        for result in (a + b, a * b, a - b, -a, ParamPoly(dict(a.items()) | {(4, 4): 0})):
            for _, coeff in result.items():
                assert coeff
            assert all(num != (0, 0) for num in result.int_form()[1].values())


# -- canonical storage: one int denominator, Gaussian-integer numerators ----


def test_equal_values_through_different_denominators():
    half = poly(Fraction(1, 2))
    assert half + half == P_ONE
    assert hash(half + half) == hash(P_ONE)
    # (1/2 + i/2)(1 - i) = 1: the product's content must be divided out
    product = gaussian(Fraction(1, 2), Fraction(1, 2)) * gaussian(1, -1)
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
    # both hand out constant ParamPolys, in lowest terms
    p = gaussian(Fraction(3, 4), Fraction(-1, 2)) * P_E + poly(Fraction(1, 6))
    items = dict(p.items())
    assert len(p.items()) == 2
    assert items == {(0, 1): gaussian(Fraction(3, 4), Fraction(-1, 2)), (0, 0): gaussian(Fraction(1, 6))}
    assert all(type(c) is ParamPoly and c.constant_value() is c for c in items.values())
    assert items[(0, 0)].int_form() == (6, {(0, 0): (1, 0)})
    assert gaussian(Fraction(2, 4), 3).constant_value() == gaussian(Fraction(1, 2), 3)
    assert P_ZERO.constant_value() is P_ZERO
    assert (P_ALPHA + P_ONE).constant_value() is None


# -- hypothesis property layer -------------------------------------------

small_fraction = st.fractions(min_value=-20, max_value=20, max_denominator=8)
gaussians = st.builds(gaussian, small_fraction, small_fraction)
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


# -- rendering ------------------------------------------------------------


def test_poly_str_sorted_descending():
    p = P_E + P_ALPHA * P_ALPHA + poly(1)
    assert str(p) == "alpha^2 + E + 1"


def test_poly_str_wraps_awkward_coefficients():
    p = gaussian(1, 2) * P_ALPHA + poly(3)
    assert str(p) == "(1+2i) alpha + 3"
