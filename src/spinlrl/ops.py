"""Every named operator of the model, stated once as a row of one table.

A row is name -> (index letters, ``(coefficient, chain)`` terms), written in
the paper's index notation, the notation the registry's sides use too:

* A chain is space-separated factors ``NAME`` or ``NAME_letters``:
  ``"x_i P2"``, ``"J_jk J_jk"``, ``""`` for a scalar.  A factor is another
  row, a generator x, p, g or rinv2, or one of the scalar factors
  ``delta_ij`` and ``eps_ijk`` (the d = 3 Levi-Civita symbol, an
  ``IndexError_`` at any other d).
* The row's own letters are bound to the indices it is built at; every
  other letter is summed over 1..d.  A chain with a zero factor (S_ii,
  L_ii, J_ii) or a zero delta or eps is left out; a delta or eps is dropped
  from its chain, an eps of -1 negating the coefficient.
* Consecutive terms that sum over the same letters are expanded together,
  one index tuple at a time; sums meant to follow one another take
  different letters, A_j A_j - M_k M_k.
* A coefficient is a number, or a function of d where it depends on d (T's
  -i(d-1)/2).  The chains do not depend on d, so each row's expansion
  ``_plan`` is read once, at import.

``build(d, name, *indices)`` is the one builder: it expands the row with
``_expand`` and canonicalises the chains with ``weyl.combine_products``.  It
is cached, so each (d, name, indices) is one object in every chain that
names it.  The CLI vocabulary, ``BUILDER_ARITY``, is the table's first
part; its second holds the factors the registry's sides fuse (Y, W, HmE,
the brackets with Y, ...).  ``verify`` reads its sides with the same
``_plan`` and ``_expand``.

Conventions: the Hamiltonian couples through alpha/r^2 times (gamma . x); the
radial eigenproblem uses K = (gamma . x)(p^2/2 - E) with E kept symbolic; the
conserved vector in the Schroedinger picture is built both as B_i + x_i(H - E)
(LRL) and from its closed form (LRLX), which the suite checks to agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Sequence, Tuple

from . import weyl
from .coeff import P_ALPHA, P_E, P_I
from .weyl import OperatorExpr

HALF = Fraction(1, 2)
_QUARTER_I = P_I * Fraction(1, 4)
_MINUS_E = -P_E

EPS3 = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1, (3, 2, 1): -1, (1, 3, 2): -1, (2, 1, 3): -1}


class IndexError_(ValueError):
    pass


def _check_index(d: int, *indices: int) -> None:
    for i in indices:
        if not 1 <= i <= d:
            raise IndexError_(f"operator index {i} outside 1..{d}")


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


# the CLI vocabulary, as name -> (index letters, terms)
_OPERATORS = {
    # contractions of the generators
    "P2": ("", [(1, "p_j p_j")]),
    "XP": ("", [(1, "x_j p_j")]),
    "GX": ("", [(1, "x_j g_j")]),
    "GP": ("", [(1, "p_j g_j")]),
    "R2": ("", [(1, "x_j x_j")]),
    # the so(d+1,1) generators: rotations, dilation, both boosts
    "L": ("ij", [(1, "x_i p_j"), (-1, "x_j p_i")]),
    "S": ("ij", [(-_QUARTER_I, "g_i g_j"), (_QUARTER_I, "g_j g_i")]),
    "J": ("ij", [(1, "L_ij"), (1, "S_ij")]),
    "T": ("", [(1, "XP"), (lambda d: P_I * Fraction(1 - d, 2), "")]),
    "A": ("i", [(HALF, "x_i P2"), (-1, "T p_i"), (1, "B2_i"), (-HALF, "x_i")]),
    "M": ("i", [(1, "A_i"), (1, "x_i")]),
    # Hamiltonian, radial operator and ladder operators
    "H": ("", [(HALF, "P2"), (P_ALPHA, "Y")]),
    "K": ("", [(HALF, "GX P2"), (_MINUS_E, "GX")]),
    "G0": ("", [(HALF, "GX P2"), (HALF, "GX")]),
    "Gd1": ("", [(HALF, "GX P2"), (-HALF, "GX")]),
    "G": ("i", [(1, "GX p_i")]),
    # Sturm's B_i, its spin-free and spin parts, and the conserved vector
    "B1": ("i", [(HALF, "x_i P2"), (-1, "T p_i"), (P_E, "x_i")]),
    "B2": ("i", [(1, "S_ij p_j")]),
    "B": ("i", [(1, "B1_i"), (1, "B2_i")]),
    "LRL": ("i", [(1, "B_i"), (1, "x_i H"), (_MINUS_E, "x_i")]),
    # quadratic contractions and the Casimir
    "J2": ("", [(HALF, "J_jk J_jk")]),
    "L2": ("", [(HALF, "L_jk L_jk")]),
    "S2": ("", [(HALF, "S_jk S_jk")]),
    "LS": ("", [(1, "L_jk S_jk")]),
    "Q2": ("", [(1, "J2"), (1, "A_j A_j"), (-1, "M_k M_k"), (-1, "T T")]),
    # the d = 3 vectors
    "Jvec": ("i", [(HALF, "eps_ijk J_jk")]),
    "Lvec": ("i", [(HALF, "eps_ijk L_jk")]),
    "Svec": ("i", [(HALF, "eps_ijk S_jk")]),
    "XS": ("", [(1, "x_j Svec_j")]),
    "PS": ("", [(1, "p_j Svec_j")]),
}

# the factors the registry's sides fuse, as name -> (index letters, terms);
# not part of the CLI vocabulary
_FUSED = {
    "Y": ("", [(1, "rinv2 GX")]),
    "W": ("", [
        (1, "R2 P2"),
        (-2, "XP XP"),
        (lambda d: P_I * 2 * (d - 1), "XP"),
        (1, "LS"),
        (lambda d: Fraction(d * (d - 1), 2), ""),
        (2 * P_E, "R2"),
    ]),
    "LRLX": ("i", [(1, "x_i P2"), (-1, "T p_i"), (1, "B2_i"), (P_ALPHA, "x_i Y")]),
    "HmE": ("", [(1, "H"), (_MINUS_E, "")]),
    "KpA": ("", [(1, "K"), (P_ALPHA, "")]),
    "P2h": ("", [(HALF, "P2")]),
    "TP": ("i", [(1, "T p_i")]),
    "Acore": ("i", [(1, "A_i"), (HALF, "x_i")]),
    "MmA": ("i", [(1, "M_i"), (-1, "A_i")]),
    "XPXP": ("", [(1, "XP XP")]),
    "cP2Y": ("", [(1, "P2 Y"), (-1, "Y P2")]),
    "cXPXPY": ("", [(1, "XPXP Y"), (-1, "Y XPXP")]),
    "cXPY": ("", [(1, "XP Y"), (-1, "Y XP")]),
    "cLSY": ("", [(1, "LS Y"), (-1, "Y LS")]),
}


# the generators, as name -> (index letters, weyl constructor)
_GENERATORS = {"x": ("i", weyl.x), "p": ("i", weyl.p), "g": ("i", weyl.gamma), "rinv2": ("", weyl.rinv2)}


def _eps(d: int, ijk: tuple) -> int:
    if d != 3:
        raise IndexError_("epsilon-contracted vector operators exist only at d=3")
    return EPS3.get(ijk, 0)


# the scalar factors, as name -> (index letters, weight(d, indices))
_SCALARS = {"delta": ("ij", lambda d, ij: ij[0] == ij[1]), "eps": ("ijk", _eps)}


_TABLE = {**_OPERATORS, **_FUSED}
BUILDER_ARITY = {name: len(letters) for name, (letters, _) in _OPERATORS.items()}
_ARITY = {name: len(letters) for table in (_TABLE, _GENERATORS, _SCALARS) for name, (letters, _) in table.items()}
_TAKES = ("no indices", "exactly one index", "exactly two indices")


# ---------------------------------------------------------------------------
# the expander
# ---------------------------------------------------------------------------


def _token(word: str) -> Tuple[str, str]:
    """A factor ``NAME`` or ``NAME_letters`` as (name, letters)."""
    name, _, letters = word.partition("_")
    arity = _ARITY.get(name)
    if arity is None:
        raise ValueError(f"unknown factor {word!r}")
    if arity != len(letters):
        raise ValueError(f"factor {word!r}: {name} takes {arity} index letter(s)")
    return name, letters


def _plan(chains: Sequence[str], bound: Tuple[str, ...]) -> tuple:
    """How terms' chains expand, read once: runs of consecutive chains that
    sum over one set of letters, as (number of summed letters, [(chain
    position, [(name, pick)], [(scalar weight, pick)])]).  A pick takes a
    factor's indices, as a tuple, from the ``bound`` letters' values, then
    the summed ones in the order the run's first chain names them; None
    takes none."""
    runs: list = []  # [(summed letters, where, width, steps)]
    for n, chain in enumerate(chains):
        tokens = [_token(word) for word in chain.split()]
        summed = tuple(dict.fromkeys([c for _, letters in tokens for c in letters if c not in bound])) if "_" in chain else ()
        if not runs or runs[-1][0] != set(summed):
            runs.append((set(summed), {c: k for k, c in enumerate(bound + summed)}, len(summed), []))
        _, where, _, steps = runs[-1]
        factors = []
        scalars = []
        for name, letters in tokens:
            at = [where[c] for c in letters]
            # a one-letter slice keeps a single index a tuple
            pick = itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1)) if at else None
            if name in _SCALARS:
                scalars.append((_SCALARS[name][1], pick))
            else:
                factors.append((name, pick))
        steps.append((n, tuple(factors), tuple(scalars)))
    return tuple((width, tuple(steps)) for _, _, width, steps in runs)


def _expand(d: int, terms: Sequence[tuple], plan: tuple, fixed: tuple) -> list:
    """The ``(coefficient, chain)`` terms expanded by their ``_plan`` at d,
    with ``fixed`` the values of the letters it binds, as (coefficient,
    factors) pairs; each factor is ``build``'s object."""
    out = []
    indices = range(1, d + 1)
    for width, run in plan:
        for values in product(indices, repeat=width):
            at = fixed + values
            for n, factors, scalars in run:
                coeff = terms[n][0]
                if scalars:
                    weight = 1
                    for scalar, pick in scalars:
                        weight *= scalar(d, pick(at))
                    if not weight:
                        continue
                    if weight < 0:
                        coeff = -coeff
                chain = []
                for name, pick in factors:
                    f = build(d, name, *pick(at)) if pick else build(d, name)
                    if not f.num:
                        break
                    chain.append(f)
                else:
                    out.append((coeff, chain))
    return out


_PLANS = {name: _plan([chain for _, chain in terms], tuple(letters)) for name, (letters, terms) in _TABLE.items()}


@lru_cache(maxsize=None)
def build(d: int, name: str, *indices: int) -> OperatorExpr:
    """The named operator ``name`` at ``indices``: a row of the table, or a
    generator.  ``BUILDER_ARITY``'s names are the ones the CLI reads."""
    if name not in _ARITY or name in _SCALARS:
        raise KeyError(f"unknown operator name {name!r}")
    if len(indices) != _ARITY[name]:
        raise IndexError_(f"{name} takes {_TAKES[_ARITY[name]]}")
    _check_index(d, *indices)
    if name in _GENERATORS:
        return _GENERATORS[name][1](d, *indices)
    terms = [(c(d) if callable(c) else c, chain) for c, chain in _TABLE[name][1]]
    return weyl.combine_products(d, _expand(d, terms, _PLANS[name], indices))


# ---------------------------------------------------------------------------
# metric picture of the non-compact algebra
# ---------------------------------------------------------------------------


def metric_signature(d: int) -> tuple:
    """diag(1, ..., 1, -1) over the d+2 generator labels."""
    return (1,) * (d + 1) + (-1,)


@lru_cache(maxsize=None)
def lorentz_generator(d: int, a: int, b: int) -> OperatorExpr:
    """The antisymmetric generator family: rotations, both boosts, dilation.

    Labels run over 1..d+2 with (i, d+1) -> A_i, (i, d+2) -> M_i and
    (d+1, d+2) -> T.
    """
    if not (1 <= a <= d + 2 and 1 <= b <= d + 2):
        raise IndexError_(f"generator label ({a},{b}) outside 1..{d + 2}")
    if a == b:
        return weyl.zero(d)
    if a > b:
        return -lorentz_generator(d, b, a)
    if b <= d:
        return build(d, "J", a, b)
    if b == d + 1:
        return build(d, "A", a)
    if a <= d:
        return build(d, "M", a)
    return build(d, "T")
