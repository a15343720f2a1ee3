"""One-probe identification of hidden logic gates.

A hidden monadic gate U is probed with the single input A s (the true
vector prefiltered by a square root of NOT); a hidden dyadic gate T with
(A(x)A)(s(x)s). By the mixed-product rule that input is the Q^2 vector
(As)(x)(As), so a probe builds only its Q^2 probe vector and never the
Q^2 x Q^2 matrix A(x)A. The output's real and imaginary coefficients along
s and n form a four-number signature that distinguishes all four monadic
gates and the seven named dyadic gates; a diagnosis also reports the
runner-up reference and its distance. The oracle is received as an opaque
matrix, never as a gate name. Any basis will do, orthonormal or oblique:
A s = alpha*s + beta*n holds in every basis, and the duals read the
output's coefficients along s and n exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import TruthBasis
from .errors import DimensionMismatch
from .operators import dyadic_operator, max_norm
from .scalar_logic import ALL_DYADIC_TABLES, MONADIC_GATES, NAMED_DYADIC_GATES, TRUE, DyadicTable
from .srn import ALPHA, BETA

UNKNOWN = "UNKNOWN"
AMBIGUOUS = "AMBIGUOUS"

DEFAULT_CLASSIFY_TOL = 1e-6

# The probe input expanded over the gate's inputs: A s = alpha*s + beta*n on
# (t, f), and (As)(x)(As) on (tt, tf, ft, ff).
_MONADIC_WEIGHTS = (ALPHA, BETA)
_DYADIC_WEIGHTS = (ALPHA * ALPHA, ALPHA * BETA, ALPHA * BETA, BETA * BETA)


def _signature_of_table(weights, outputs) -> tuple[float, float, float, float]:
    """(re_s, re_n, im_s, im_n): the s coefficient collects the weights of the
    TRUE outputs and the n coefficient those of the FALSE outputs."""
    cs = sum(w for w, out in zip(weights, outputs) if out == TRUE)
    cn = sum(w for w, out in zip(weights, outputs) if out != TRUE)
    return (complex(cs).real, complex(cn).real, complex(cs).imag, complex(cn).imag)


@dataclass(frozen=True)
class GateSignature:
    re_s: float
    re_n: float
    im_s: float
    im_n: float
    residual: float  # norm of the output component outside span{s, n}

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.re_s, self.re_n, self.im_s, self.im_n)


@dataclass(frozen=True)
class DiagnosisResult:
    verdict: str
    signature: GateSignature
    distance: float
    runner_up: str  # second-nearest reference signature
    runner_up_distance: float


def _signature_of_output(out: np.ndarray, basis: TruthBasis) -> GateSignature:
    c = basis.duals @ out  # the coefficients along s and n
    return GateSignature(
        float(c[0].real), float(c[1].real), float(c[0].imag), float(c[1].imag),
        residual=max_norm(out - basis.frame @ c),
    )


def _root_times_true(basis: TruthBasis) -> np.ndarray:
    # A s = alpha I s + beta N s = alpha s + beta n in any basis; forming the
    # Q x Q root A would cost more memory than the whole dyadic probe vector
    return basis.frame @ np.array(_MONADIC_WEIGHTS)


def _apply_probe(oracle: np.ndarray, v: np.ndarray) -> np.ndarray:
    # real and imaginary parts apart, so a real oracle is never cast to a
    # complex copy
    return oracle @ v.real + 1j * (oracle @ v.imag)


def probe_monadic(oracle: np.ndarray, basis: TruthBasis) -> GateSignature:
    """Signature of oracle @ (A s) for a hidden Q x Q gate."""
    oracle = np.asarray(oracle)
    if oracle.shape != (basis.dim, basis.dim):
        raise DimensionMismatch(f"monadic oracle must be {basis.dim}x{basis.dim}, got {oracle.shape}")
    out = _apply_probe(oracle, _root_times_true(basis))
    return _signature_of_output(out, basis)


def probe_dyadic(oracle: np.ndarray, basis: TruthBasis) -> GateSignature:
    """Signature of oracle @ (A(x)A)(s(x)s) for a hidden Q x Q^2 gate."""
    oracle = np.asarray(oracle)
    if oracle.shape != (basis.dim, basis.dim * basis.dim):
        raise DimensionMismatch(
            f"dyadic oracle must be {basis.dim}x{basis.dim ** 2}, got {oracle.shape}"
        )
    a_s = _root_times_true(basis)
    out = _apply_probe(oracle, np.kron(a_s, a_s))  # = (A(x)A)(s(x)s)
    return _signature_of_output(out, basis)


def _classify(sig: GateSignature, references: dict, tol: float) -> DiagnosisResult:
    # np.max propagates NaN, so a non-finite signature is far from every
    # reference and `not best < tol` sends it to UNKNOWN
    dists = np.abs(np.array(list(references.values())) - sig.coefficients).max(axis=1)
    ranked = sorted(zip(dists.tolist(), references))
    (best, best_name), (second, second_name) = ranked[0], ranked[1]
    if not best < tol:
        verdict = UNKNOWN
    elif second < tol:
        verdict = AMBIGUOUS
    else:
        verdict = best_name
    return DiagnosisResult(verdict, sig, best, second_name, second)


def classify_monadic(sig: GateSignature, tol: float = DEFAULT_CLASSIFY_TOL) -> DiagnosisResult:
    """Nearest monadic reference in max-norm: the verdict if closer than tol.

    The references are at least 0.5 apart, so for tol <= 0.25 a signature
    within tol of a reference classifies as that gate, never as AMBIGUOUS.
    """
    return _classify(sig, MONADIC_REFERENCE_SIGNATURES, tol)


def classify_dyadic(sig: GateSignature, tol: float = DEFAULT_CLASSIFY_TOL) -> DiagnosisResult:
    """Nearest named dyadic reference in max-norm: the verdict if closer than tol.

    The seven references are at least 0.5 apart, so for tol <= 0.25 a
    signature within tol of a reference classifies as that gate, never as
    AMBIGUOUS.
    """
    return _classify(sig, DYADIC_REFERENCE_SIGNATURES, tol)


def symbolic_dyadic_signature(table: DyadicTable) -> tuple[float, float, float, float]:
    """Exact probe signature of a dyadic table, without building any matrix.

    T(A(x)A)(s(x)s) = alpha^2*e + alpha*beta*f + alpha*beta*g + beta^2*h.
    """
    return _signature_of_table(_DYADIC_WEIGHTS, table.outputs)


# Reference signature of each named gate.
MONADIC_REFERENCE_SIGNATURES = {
    name: _signature_of_table(_MONADIC_WEIGHTS, (t.out_t, t.out_f)) for name, t in MONADIC_GATES.items()
}
DYADIC_REFERENCE_SIGNATURES = {
    name: symbolic_dyadic_signature(t) for name, t in NAMED_DYADIC_GATES.items()
}


def enumerate_dyadic_signatures(
    basis: TruthBasis,
) -> tuple[dict[str, GateSignature], list[list[str]]]:
    """Probe signatures of all 16 dyadic gates, grouped into collision classes.

    Returns (name -> signature, collision classes); each class lists the
    gates sharing one signature, classes of size >= 2 being genuine
    one-probe ambiguities (e.g. the constant-true gate collides with XOR).
    """
    signatures: dict[str, GateSignature] = {}
    groups: dict[tuple, list[str]] = {}
    for table in ALL_DYADIC_TABLES:
        sig = probe_dyadic(dyadic_operator(basis, table), basis)
        signatures[table.name] = sig
        key = tuple(round(c, 9) for c in sig.coefficients)
        groups.setdefault(key, []).append(table.name)
    classes = sorted(groups.values(), key=lambda names: (-len(names), names))
    return signatures, classes
