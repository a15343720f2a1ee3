"""Vector logic: matrix logic gates over truth-vector bases, the square
roots of NOT, one-probe gate diagnosis, and fully matrix Euler identities.

The names below are exported lazily (PEP 562): `from vlogic import probe`
imports `vlogic.diagnosis` on first use, so a process loads only the
modules it reads.
"""

from importlib import import_module

# The module of each exported name
_MODULES = {
    "basis": "TruthBasis canonical_basis make_basis random_basis",
    "diagnosis": "DiagnosisResult GateSignature classify enumerate_signatures probe",
    "matfun": "C_of C_series IdentityReport LogicAlgebraContext S_of S_series "
    "logical_exp logical_exp_series make_context verify_euler_suite",
    "operators": "Gate gate_operator max_norm",
    "scalar_logic": "AND CID CNOT EQUI FALSE ID IMPL NAND NOR NOT OR TRUE XOR TruthTable evaluate",
    "srn": "SrnPair solve_srn_coefficients sqrt_not",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:  # a submodule such as cli is imported by the import system
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
