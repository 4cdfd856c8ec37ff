"""Exact operator algebra and identity verification for a d-dimensional
spin-1/2 Hamiltonian with inverse-square matrix coupling.

The engine works in the Weyl algebra (positions x_i and momenta p_i with
[x_i, p_j] = i delta_ij) tensored with the Clifford algebra Cl_d, localized
at r^2 = sum x_i^2.  Every named conserved operator of the problem is built
exactly over Q(i)[alpha, E], and the full catalog of commutation relations,
Casimir identities, and Laplace-Runge-Lenz properties is checked to zero
residual, cross-validated by an independent function-application oracle.
"""

__version__ = "0.1.0"

# the largest d any check declares, and the suite names: read by ``verify``
# and by the command line, which imports ``verify`` only for its commands
MAX_DIMENSION = 8
SUITES = ("core", "sturm", "schrodinger", "appendix", "d3", "all")

from .coeff import P_I, Fraction, ParamPoly, poly
from .weyl import (
    DimensionMismatch,
    OperatorExpr,
    adjoint,
    anticommutator,
    commutator,
    gamma,
    linear_combine,
    multiply,
    normalize,
    one,
    p,
    pauli_project,
    reduce_denominator,
    rinv2,
    scalar,
    x,
    zero,
)

__all__ = [
    "Fraction",
    "P_I",
    "ParamPoly",
    "poly",
    "DimensionMismatch",
    "OperatorExpr",
    "adjoint",
    "anticommutator",
    "commutator",
    "gamma",
    "linear_combine",
    "multiply",
    "normalize",
    "one",
    "p",
    "pauli_project",
    "reduce_denominator",
    "rinv2",
    "scalar",
    "x",
    "zero",
    "__version__",
]
