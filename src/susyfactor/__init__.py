"""Exact factorization engine for hypergeometric-like differential operators.

The package builds shape-invariant ladder factorizations of operators
H = -p(x) d^2/dx^2 - q(x) d/dx with deg p <= 2, deg q <= 1, entirely over
rational arithmetic, and cross-checks them numerically in Schrodinger form.
"""

from .core import Poly, Problem
from .diffop import DiffOp, hamiltonian
from .principal import (
    Breakdown, DegreeError, FactorEntry, Ladders,
    direct_match_table, equivalent_forms_check, factor_table,
    hypergeom_like_hl, ladder_pair, principal_eigenfunction,
    shape_invariance_check, superpotential_w0, three_term_check,
)
from .associated import (
    ClassifyError, RangeError, assoc_bottom_up, assoc_delta_plus,
    assoc_hamiltonian, assoc_ladders, assoc_lambda, assoc_normsq,
    assoc_shape_invariance, assoc_three_term, assoc_top_down,
    classify_expanded, pHm_factorization, principal_form_equivalence,
    proportional, standard_hermitian_relation, verify_associated,
)
from .degenerate import (
    DegeneracyReport, collapse_check, detect, hermite_generate,
    hermite_operator, quasi_hermite_generate,
)

__version__ = "0.1.0"
