"""Restriction of scalars for affine schemes over finite F_p-algebras.

The package builds the restricted scheme by basis expansion, enumerates
geometric points and their Frobenius action on both the restriction and
the fibers over the algebra's geometric points, and certifies that the
two component sets match as Frobenius sets, with explicit witnesses.
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
# No module reads _linalg; it is loaded because bench/tracer.py wraps the
# functions it names, looking the module up among the loaded ones.
from . import _linalg  # noqa: F401
from .exactfield import (  # noqa: F401
    ExtField,
    FieldElement,
    PrimeField,
    UniPoly,
    embed,
    factor_univariate,
    frobenius,
    is_irreducible,
    make_ext_field,
    roots_in,
    stage_field,
)
from .multipoly import (  # noqa: F401
    INFINITE,
    GroebnerBasis,
    MPoly,
    buchberger,
    normal_form,
    standard_monomials,
)
from .multipoly import rename_context  # noqa: F401
from .finalg import (  # noqa: F401
    AlgebraHom,
    AlgebraPresentation,
    EtaleCertificate,
    LocalFactor,
    ProductAlgebra,
    decompose_local,
    etale_check,
    product_algebra,
    tensor_extend,
)
from .weilres import (  # noqa: F401
    AdjunctionCertificate,
    CoverCertificate,
    ProductFormulaCertificate,
    RestrictedScheme,
    SchemePresentation,
    adjunction_check,
    algebra_points,
    enumerate_points,
    open_cover_check,
    product_formula_check,
    regroup_point,
    weil_restrict,
    zero_dim_solve,
)
from .gammaset import (  # noqa: F401
    EquivariantMap,
    GammaSet,
    GeometricPoint,
    ProductPoint,
    evaluation_map,
    fiber,
    gamma_iso,
    pi0_points,
    product_gamma_set,
    reduction_map,
)
