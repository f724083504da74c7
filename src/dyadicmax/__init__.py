"""Exact workbench for dyadic rectangle maximal operators.

Builds Cantor-like crystal sets, translation-invariant rectangle
families, and exact grid evaluations of the associated maximal
operators, and certifies the m-parametrized superlevel lower bounds at
desk scale.  All arithmetic is exact (dyadic rationals, integer
prefix sums); nothing is ever rounded.
"""

from .evaluator import maximal_field
from .verify import cube_counterexample, verify_theorem
