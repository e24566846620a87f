"""Exact symbolic computation with bialgebra twists and the deformations
they generate: the two operads a bialgebra spans, twisting elements and
their moduli, deformed (star) products, and the ternary/interchange/diagram
generalizations.  All arithmetic is exact rational; nothing is floating
point."""

__version__ = "0.1.0"

from .kernel import Monomial, Polynomial, QQ, TruncSeries
from .bialgebra import (
    BialgebraSpec,
    CounitUnavailable,
    CutoffError,
    TensorElement,
    construct_bialgebra,
)
from .operad import (
    check_assoc_cases,
    check_equivariance,
    check_unit,
    circ_B,
    circ_b,
)
from .twist import (
    UDF,
    GaugeElement,
    TwistingElement,
    check_twisting,
    gauge_transform,
    make_exp_udf,
)
from .cobar import (
    check_oracle_agreement,
    h2,
    twi_direct,
)
from .deform import (
    AlgebraEndomorphism,
    Derivation,
    FiniteDimensionalAlgebra,
    HochschildCochain,
    ModuleAction,
    PolynomialTruncatedAlgebra,
    action_from_derivations,
    check_associativity,
    check_module_algebra,
    infinitesimal_cocycle,
    is_hochschild_coboundary,
    wedge_over_A,
)
from .generalized import (
    DiagramArrow,
    DiagramNode,
    DiagramSpec,
    FreePAssAlgebra,
    TernaryAction,
    TernaryTwist,
    TwistTriple,
    check_partial_assoc,
    diagram_compat_check,
    diagram_twist_check,
    interchange_check,
    pass_udf,
)
