"""Exact engine for generalized Clifford algebras on n qudits.

The algebra on 2n generators obeys c_i c_j = q c_j c_i for i < j and
c_i^N = 1 with q a primitive N-th root of unity.  This package provides

* exact cyclotomic scalar arithmetic (:mod:`gcalg.cyclo`),
* canonical normal ordering of generator words (:mod:`gcalg.symbolic`),
* the standard action on n qudits with exact amplitudes, and each
  generator's action as an integer phased-permutation table
  (:mod:`gcalg.rep`),
* an executable verification suite for the defining identities
  (:mod:`gcalg.axioms`),
* a parser/printer for a small bra-ket expression language
  (:mod:`gcalg.expr`), and
* a command-line front-end (:mod:`gcalg.cli`).

All equality decisions are exact; floats appear only in display output.
"""

from .axioms import (
    ALL_CHECKS,
    CheckReport,
    check_commutation,
    check_ground_identity,
    check_homomorphism,
    check_order,
    check_orthonormal_basis,
    check_power_formula,
    check_projector_identity,
    check_unitarity,
    check_zeta_root,
    run_suite,
    suite_report,
)
from .cyclo import (
    AlgebraContext,
    ContextMismatchError,
    CycloScalar,
    admissible_zeta_exps,
    cyclotomic_polynomial,
)
from .expr import (
    MAX_PAREN_DEPTH,
    EvalError,
    ParseError,
    eval_element,
    eval_scalar,
    eval_state,
    parse,
    print_canonical,
)
from .rep import (
    DENSE_CAP_DEFAULT,
    BasisIndex,
    DenseCapError,
    NotPhasedPermutationError,
    PhasedPermutation,
    QuditState,
    apply_element,
    apply_even,
    apply_generator,
    apply_odd,
    apply_projector,
    apply_word,
    basis_indices,
    basis_label,
    basis_state,
    check_dense_cap,
    dense_matrix,
    generator_tables,
    gram,
    ground_state,
    monomial_table,
    ordered_basis,
    scalar_product,
    state_to_json,
)
from .symbolic import AlgebraElement, NormalMonomial, Word, normal_order, projector_element

__version__ = "0.1.0"
