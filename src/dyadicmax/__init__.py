"""Exact workbench for dyadic rectangle maximal operators.

Builds Cantor-like crystal sets, translation-invariant rectangle
families, and exact grid evaluations of the associated maximal
operators, and certifies the m-parametrized superlevel lower bounds at
desk scale.  All arithmetic is exact (dyadic rationals, integer
prefix sums); nothing is ever rounded.
"""

from .crystal import (
    Crystal1D,
    CrystalND,
    ScaleSet,
    Shape,
    crystal_measure,
    primitive_rectangle,
    product_crystal,
)
from .dyadic import DyadicRational
from .errors import (
    BudgetExceededError,
    ConstructionError,
    NoProgressionError,
    ParameterError,
)
from .evaluator import (
    AverageField,
    BitMask,
    GridSpec,
    anchored_union_measure,
    maximal_field,
    prefix_sums,
    rasterize,
)
from .family import (
    find_progression,
    generate_shapes,
    is_member,
)
from .verify import (
    TheoremInstance,
    VerificationReport,
    build_instance,
    check_disjointness,
    check_homogeneity,
    cube_counterexample,
    verify_theorem,
)

__version__ = "0.1.0"
