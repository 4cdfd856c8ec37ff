"""Named operator builders: definitions, index handling, determinism."""

from fractions import Fraction

import pytest

from spinlrl import ops, weyl
from spinlrl.coeff import P_ALPHA, P_E, P_I

I = P_I


def test_schrodinger_operators():
    d = 2
    H = ops.hamiltonian(d)
    rebuilt = Fraction(1, 2) * ops.p_squared(d) + P_ALPHA * weyl.multiply(weyl.rinv2(d), ops.gamma_dot_x(d))
    assert H == rebuilt
    K = ops.sturm_k(d)
    assert K == weyl.multiply(ops.gamma_dot_x(d), Fraction(1, 2) * ops.p_squared(d) - weyl.scalar(d, P_E))


def test_radial_schrodinger_interconversion():
    for d in (2, 3):
        H, K = ops.hamiltonian(d), ops.sturm_k(d)
        gx = ops.gamma_dot_x(d)
        E = weyl.scalar(d, P_E)
        alpha = weyl.scalar(d, P_ALPHA)
        assert (K - (weyl.multiply(gx, H - E) - alpha)).is_zero()
        assert (weyl.multiply(ops.gx_over_r2(d), K + alpha) + E - H).is_zero()


def test_dilation_value():
    d = 2
    expected = ops.x_dot_p(d) + weyl.scalar(d, P_I * Fraction(-1, 2))
    assert ops.dilation(d) == expected


def test_rotation_generators():
    d = 3
    assert ops.so_j(d, 1, 1).is_zero()
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            assert ops.so_j(d, i, j) == ops.angular(d, i, j) + ops.spin(d, i, j)
            assert ops.so_j(d, i, j) == -ops.so_j(d, j, i)


def test_boost_difference_is_position():
    for d in (2, 3, 4):
        for i in range(1, d + 1):
            assert ops.boost_m(d, i) - ops.boost_a(d, i) == weyl.x(d, i)
        assert ops.boost_a(d, 1) != ops.boost_m(d, 1)


def test_ladder_difference():
    for d in (2, 3):
        assert ops.gamma0(d) - ops.gamma_d1(d) == ops.gamma_dot_x(d)


def test_sturm_b_split():
    for d in (2, 3, 4):
        for i in range(1, d + 1):
            assert ops.sturm_b(d, i) == ops.sturm_b1(d, i) + ops.sturm_b2(d, i)


def test_b2_explicit_form():
    got = ops.sturm_b2(3, 1)
    expected = weyl.multiply(ops.spin(3, 1, 2), weyl.p(3, 2)) + weyl.multiply(ops.spin(3, 1, 3), weyl.p(3, 3))
    assert got == expected


def test_lrl_is_energy_free():
    for d in (2, 3, 4):
        for i in range(1, d + 1):
            built = ops.lrl(d, i)
            assert built == ops.lrl_explicit(d, i)
            assert built.max_param_powers()[1] == 0


def test_casimir_values():
    for d in (2, 3, 4):
        assert ops.casimir_q2(d) == weyl.scalar(d, Fraction(-(d - 1) * (d + 2), 8))


def test_spin_square_constant():
    for d in (2, 3, 4, 5):
        assert ops.s_squared(d) == weyl.scalar(d, Fraction(d * (d - 1), 8))


def test_vector_contractions_d3_only():
    assert ops.vector_s(3, 3) == ops.spin(3, 1, 2)
    assert ops.vector_l(3, 1) == ops.angular(3, 2, 3)
    for builder in (ops.x_dot_s, ops.p_dot_s):
        with pytest.raises(ops.IndexError_):
            builder(4)
    with pytest.raises(ops.IndexError_):
        ops.vector_j(2, 1)


def test_d3_vector_commutator():
    lhs = weyl.commutator(ops.vector_j(3, 1), ops.vector_j(3, 2))
    assert lhs == I * ops.vector_j(3, 3)


def test_index_bounds():
    with pytest.raises(ops.IndexError_):
        ops.boost_a(3, 4)
    with pytest.raises(ops.IndexError_):
        ops.so_j(3, 0, 1)
    with pytest.raises(ops.IndexError_):
        ops.lorentz_generator(3, 6, 1)


def test_lorentz_generator_dispatch():
    d = 3
    assert ops.lorentz_generator(d, 1, 2) == ops.so_j(d, 1, 2)
    assert ops.lorentz_generator(d, 1, d + 1) == ops.boost_a(d, 1)
    assert ops.lorentz_generator(d, 2, d + 2) == ops.boost_m(d, 2)
    assert ops.lorentz_generator(d, d + 1, d + 2) == ops.dilation(d)
    assert ops.lorentz_generator(d, d + 2, d + 1) == -ops.dilation(d)
    assert ops.lorentz_generator(d, 2, 2).is_zero()


def test_builders_deterministic():
    for name, indices in (("H", ()), ("K", ()), ("Q2", ()), ("LRL", (1,)), ("J", (1, 2))):
        first = ops.build(3, name, *indices)
        second = ops.build(3, name, *indices)
        assert first == second


def test_build_dispatch_errors():
    with pytest.raises(KeyError):
        ops.build(3, "NOPE")
    with pytest.raises(ops.IndexError_):
        ops.build(3, "H", 1)
    with pytest.raises(ops.IndexError_):
        ops.build(3, "J", 1)
