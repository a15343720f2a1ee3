"""Vector logic: matrix logic gates over truth-vector bases, the square
roots of NOT, one-probe gate diagnosis, and fully matrix Euler identities."""

from .basis import TruthBasis, canonical_basis, make_basis, random_basis
from .diagnosis import (
    DiagnosisResult,
    GateSignature,
    classify,
    enumerate_dyadic_signatures,
    probe,
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
    verify_euler_suite,
)
from .operators import gate_operator, identity_operator, max_norm, negation_operator
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
    TruthTable,
    evaluate,
)
from .srn import SrnPair, eigenvalues, solve_srn_coefficients, sqrt_not

__all__ = [
    "TruthBasis", "canonical_basis", "make_basis", "random_basis",
    "DiagnosisResult", "GateSignature", "classify", "enumerate_dyadic_signatures", "probe",
    "C_of", "C_series", "IdentityReport", "LogicAlgebraContext", "S_of", "S_series",
    "SeriesPolicy", "logical_exp", "logical_exp_series", "make_context", "verify_euler_suite",
    "gate_operator", "identity_operator", "max_norm", "negation_operator",
    "AND", "CID", "CNOT", "EQUI", "FALSE", "ID", "IMPL", "NAND", "NOR",
    "NOT", "OR", "TRUE", "XOR", "TruthTable", "evaluate",
    "SrnPair", "eigenvalues", "solve_srn_coefficients", "sqrt_not",
]
