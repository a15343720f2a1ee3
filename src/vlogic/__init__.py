"""Vector logic: matrix logic gates over truth-vector bases, the square
roots of NOT, one-probe gate diagnosis, and fully matrix Euler identities."""

from .basis import TruthBasis, canonical_basis, make_basis, random_basis
from .diagnosis import (
    DiagnosisResult,
    GateSignature,
    classify,
    enumerate_signatures,
    probe,
)
from .matfun import (
    C_of,
    C_series,
    IdentityReport,
    LogicAlgebraContext,
    S_of,
    S_series,
    logical_exp,
    logical_exp_series,
    make_context,
    verify_euler_suite,
)
from .operators import Gate, gate_operator, max_norm
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
from .srn import SrnPair, solve_srn_coefficients, sqrt_not

__all__ = [
    "TruthBasis", "canonical_basis", "make_basis", "random_basis",
    "DiagnosisResult", "GateSignature", "classify", "enumerate_signatures", "probe",
    "C_of", "C_series", "IdentityReport", "LogicAlgebraContext", "S_of", "S_series",
    "logical_exp", "logical_exp_series", "make_context", "verify_euler_suite",
    "Gate", "gate_operator", "max_norm",
    "AND", "CID", "CNOT", "EQUI", "FALSE", "ID", "IMPL", "NAND", "NOR",
    "NOT", "OR", "TRUE", "XOR", "TruthTable", "evaluate",
    "SrnPair", "solve_srn_coefficients", "sqrt_not",
]
