"""Restriction of scalars for affine schemes over finite F_p-algebras.

The package builds the restricted scheme by basis expansion, enumerates
geometric points and their Frobenius action on both the restriction and
the fibers over the algebra's geometric points, and certifies that the
two component sets match as Frobenius sets, with explicit witnesses.

`__all__` is the public contract, the names README lists; every other
name stays importable from its own module.
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
# No module reads _linalg; it is loaded because bench/tracer.py wraps the
# functions it names, looking the module up among the loaded ones.
from . import _linalg  # noqa: F401
from .exactfield import (
    ExtField,
    FieldElement,
    PrimeField,
    UniPoly,
    embed,
    factor_univariate,
    make_ext_field,
    roots_in,
    stage_field,
)
from .multipoly import MPoly, buchberger
from .finalg import (
    AlgebraHom,
    AlgebraPresentation,
    LocalFactor,
    decompose_local,
    etale_check,
    product_algebra,
    tensor_extend,
)
from .weilres import (
    RestrictedScheme,
    SchemePresentation,
    algebra_points,
    enumerate_points,
    open_cover_check,
    weil_restrict,
    zero_dim_solve,
)
from .gammaset import (
    GammaSet,
    evaluation_map,
    fiber,
    gamma_iso,
    pi0_points,
    reduction_map,
)

__all__ = [
    "AlgebraHom",
    "AlgebraPresentation",
    "ExtField",
    "FieldElement",
    "GammaSet",
    "LocalFactor",
    "MPoly",
    "PrimeField",
    "RestrictedScheme",
    "SchemePresentation",
    "UniPoly",
    "algebra_points",
    "buchberger",
    "decompose_local",
    "embed",
    "enumerate_points",
    "etale_check",
    "evaluation_map",
    "factor_univariate",
    "fiber",
    "gamma_iso",
    "make_ext_field",
    "open_cover_check",
    "pi0_points",
    "product_algebra",
    "reduction_map",
    "roots_in",
    "stage_field",
    "tensor_extend",
    "weil_restrict",
    "zero_dim_solve",
]
