"""Named operators: definitions, index handling, determinism, the table's golden."""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spinlrl import ops, weyl
from spinlrl.coeff import P_ALPHA, P_E, P_I

I = P_I


def test_schrodinger_operators():
    d = 2
    H = ops.build(d, "H")
    rebuilt = Fraction(1, 2) * ops.build(d, "P2") + P_ALPHA * weyl.multiply(weyl.rinv2(d), ops.build(d, "GX"))
    assert H == rebuilt
    K = ops.build(d, "K")
    assert K == weyl.multiply(ops.build(d, "GX"), Fraction(1, 2) * ops.build(d, "P2") - weyl.scalar(d, P_E))


def test_radial_schrodinger_interconversion():
    for d in (2, 3):
        H, K = ops.build(d, "H"), ops.build(d, "K")
        gx = ops.build(d, "GX")
        E = weyl.scalar(d, P_E)
        alpha = weyl.scalar(d, P_ALPHA)
        assert (K - (weyl.multiply(gx, H - E) - alpha)).is_zero()
        assert (weyl.multiply(ops.build(d, "Y"), K + alpha) + E - H).is_zero()


def test_dilation_value():
    d = 2
    expected = ops.build(d, "XP") + weyl.scalar(d, P_I * Fraction(-1, 2))
    assert ops.build(d, "T") == expected


def test_rotation_generators():
    d = 3
    assert ops.build(d, "J", 1, 1).is_zero()
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            assert ops.build(d, "J", i, j) == ops.build(d, "L", i, j) + ops.build(d, "S", i, j)
            assert ops.build(d, "J", i, j) == -ops.build(d, "J", j, i)


def test_boost_difference_is_position():
    for d in (2, 3, 4):
        for i in range(1, d + 1):
            assert ops.build(d, "M", i) - ops.build(d, "A", i) == weyl.x(d, i)
        assert ops.build(d, "A", 1) != ops.build(d, "M", 1)


def test_ladder_difference():
    for d in (2, 3):
        assert ops.build(d, "G0") - ops.build(d, "Gd1") == ops.build(d, "GX")


def test_sturm_b_split():
    for d in (2, 3, 4):
        for i in range(1, d + 1):
            assert ops.build(d, "B", i) == ops.build(d, "B1", i) + ops.build(d, "B2", i)


def test_b2_explicit_form():
    got = ops.build(3, "B2", 1)
    expected = weyl.multiply(ops.build(3, "S", 1, 2), weyl.p(3, 2)) + weyl.multiply(ops.build(3, "S", 1, 3), weyl.p(3, 3))
    assert got == expected


def test_lrl_is_energy_free():
    for d in (2, 3, 4):
        for i in range(1, d + 1):
            built = ops.build(d, "LRL", i)
            assert built == ops.build(d, "LRLX", i)
            assert built.max_param_powers()[1] == 0


def test_casimir_values():
    for d in (2, 3, 4):
        assert ops.build(d, "Q2") == weyl.scalar(d, Fraction(-(d - 1) * (d + 2), 8))


def test_spin_square_constant():
    for d in (2, 3, 4, 5):
        assert ops.build(d, "S2") == weyl.scalar(d, Fraction(d * (d - 1), 8))


def test_vector_contractions_d3_only():
    assert ops.build(3, "Svec", 3) == ops.build(3, "S", 1, 2)
    assert ops.build(3, "Lvec", 1) == ops.build(3, "L", 2, 3)
    for name in ("XS", "PS"):
        with pytest.raises(ops.IndexError_):
            ops.build(4, name)
    with pytest.raises(ops.IndexError_):
        ops.build(2, "Jvec", 1)


def test_d3_vector_commutator():
    lhs = weyl.commutator(ops.build(3, "Jvec", 1), ops.build(3, "Jvec", 2))
    assert lhs == I * ops.build(3, "Jvec", 3)


def test_index_bounds():
    with pytest.raises(ops.IndexError_):
        ops.build(3, "A", 4)
    with pytest.raises(ops.IndexError_):
        ops.build(3, "J", 0, 1)
    with pytest.raises(ops.IndexError_):
        ops.lorentz_generator(3, 6, 1)


def test_lorentz_generator_dispatch():
    d = 3
    assert ops.lorentz_generator(d, 1, 2) == ops.build(d, "J", 1, 2)
    assert ops.lorentz_generator(d, 1, d + 1) == ops.build(d, "A", 1)
    assert ops.lorentz_generator(d, 2, d + 2) == ops.build(d, "M", 2)
    assert ops.lorentz_generator(d, d + 1, d + 2) == ops.build(d, "T")
    assert ops.lorentz_generator(d, d + 2, d + 1) == -ops.build(d, "T")
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


def test_cli_vocabulary_is_pinned():
    # the table's first part, and nothing the registry fuses
    assert ops.BUILDER_ARITY == {
        **dict.fromkeys(("P2", "XP", "GX", "GP", "R2", "T", "H", "K", "G0", "Gd1", "J2", "L2", "S2", "LS", "Q2", "XS", "PS"), 0),
        **dict.fromkeys(("A", "M", "G", "B1", "B2", "B", "LRL", "Jvec", "Lvec", "Svec"), 1),
        **dict.fromkeys(("J", "L", "S"), 2),
    }


def test_build_error_messages():
    with pytest.raises(ops.IndexError_, match="^epsilon-contracted vector operators exist only at d=3$"):
        ops.build(2, "Jvec", 1)
    with pytest.raises(ops.IndexError_, match="^operator index 3 outside 1..2$"):
        ops.build(2, "J", 1, 3)
    with pytest.raises(ops.IndexError_, match="^LRL takes exactly one index$"):
        ops.build(3, "LRL")
    with pytest.raises(KeyError, match="'delta'"):
        ops.build(3, "delta", 1, 1)


def test_a_row_is_one_object_per_index_tuple():
    d = 3
    assert ops.build(d, "J", 1, 2) is ops.build(d, "J", 1, 2)
    assert ops.build(d, "x", 2) is ops.build(d, "x", 2)
    assert ops.lorentz_generator(d, 1, 2) is ops.build(d, "J", 1, 2)


def test_import_builds_nothing():
    # the table's plans are read at import, but no operator is built
    code = (
        "from spinlrl import cli, expr, ops, verify;"
        "assert ops.build.cache_info().currsize == ops.lorentz_generator.cache_info().currsize == 0"
    )
    src = str(Path(ops.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


# every CLI name and index tuple at d = 2..5 (the d = 3 vectors at d = 3)
# and the registry's fused factors, rendered by the per-name builders the
# table replaced
NAMED_GOLDEN = json.loads((Path(__file__).parent / "golden" / "named_ops.json").read_text())


@pytest.mark.parametrize("d", sorted(NAMED_GOLDEN))
def test_named_operators_match_golden(d):
    golden = NAMED_GOLDEN[d]
    d = int(d)
    got = {}
    for key in golden:
        name, _, rest = key.partition("(")
        indices = tuple(int(i) for i in rest.rstrip(")").split(",")) if rest else ()
        got[key] = weyl.render(ops.build(d, name, *indices))
    assert got == golden
    # the golden holds every CLI name at every index tuple
    vectors = {"Jvec", "Lvec", "Svec", "XS", "PS"}
    for name, arity in ops.BUILDER_ARITY.items():
        for indices in itertools.product(range(1, d + 1), repeat=arity):
            key = name + (f"({','.join(map(str, indices))})" if indices else "")
            assert (key in golden) == (d == 3 or name not in vectors), key
