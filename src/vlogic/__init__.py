"""Vector logic: matrix logic gates over truth-vector bases, the square
roots of NOT, one-probe gate diagnosis, and fully matrix Euler identities."""

from .basis import TruthBasis, canonical_basis, make_basis, random_basis
from .diagnosis import (
    DiagnosisResult,
    GateSignature,
    classify_dyadic,
    classify_monadic,
    enumerate_dyadic_signatures,
    probe_dyadic,
    probe_monadic,
)
from .matfun import (
    C_of,
    C_series,
    IdentityReport,
    LogicAlgebraContext,
    S_of,
    S_series,
    SeriesPolicy,
    logical_exp,
    logical_exp_series,
    make_context,
    pi_matrix,
    verify_euler_suite,
)
from .operators import (
    apply_dyadic,
    apply_monadic,
    dyadic_operator,
    identity_operator,
    kron,
    max_norm,
    monadic_operator,
    negation_operator,
)
from .scalar_logic import (
    AND,
    CID,
    CNOT,
    EQUI,
    FALSE,
    ID,
    IMPL,
    NAND,
    NOR,
    NOT,
    OR,
    TRUE,
    XOR,
    DyadicTable,
    MonadicTable,
    dyad_eval,
    mon_eval,
)
from .srn import SrnPair, eigenvalues, solve_srn_coefficients, sqrt_not

__all__ = [
    "TruthBasis", "canonical_basis", "make_basis", "random_basis",
    "DiagnosisResult", "GateSignature", "classify_dyadic", "classify_monadic",
    "enumerate_dyadic_signatures", "probe_dyadic", "probe_monadic",
    "C_of", "C_series", "IdentityReport", "LogicAlgebraContext", "S_of", "S_series",
    "SeriesPolicy", "logical_exp", "logical_exp_series", "make_context", "pi_matrix",
    "verify_euler_suite",
    "apply_dyadic", "apply_monadic", "dyadic_operator", "identity_operator",
    "kron", "max_norm", "monadic_operator", "negation_operator",
    "AND", "CID", "CNOT", "EQUI", "FALSE", "ID", "IMPL", "NAND", "NOR",
    "NOT", "OR", "TRUE", "XOR", "DyadicTable", "MonadicTable",
    "dyad_eval", "mon_eval",
    "SrnPair", "eigenvalues", "solve_srn_coefficients", "sqrt_not",
]
