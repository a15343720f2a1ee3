"""One-probe identification of hidden logic gates.

A hidden k-ary gate is probed with the single input A^{(x)k} s^{(x)k}: the
true vector of each input prefiltered by a square root of NOT (A s for a
monadic gate, (A(x)A)(s(x)s) for a dyadic one). By the mixed-product rule
that input is the Q^k vector (As)^{(x)k}, so a probe builds only its probe
vector and never the Q^k x Q^k matrix A^{(x)k}. The output's real and
imaginary coefficients along s and n form a four-number signature that
distinguishes all four monadic gates and the seven named dyadic gates; a
diagnosis also reports the runner-up reference and its distance. The
oracle is received as an opaque matrix, never as a gate name. Any basis
will do, orthonormal or oblique: A s = alpha*s + beta*n holds in every
basis, and the duals read the output's coefficients along s and n exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .basis import TruthBasis
from .errors import DimensionMismatch, UnsupportedArity
from .operators import _kron_power, gate_operator, max_norm
from .scalar_logic import ALL_DYADIC_TABLES, MONADIC_GATES, NAMED_DYADIC_GATES, TRUE, TruthTable
from .srn import ALPHA, BETA

UNKNOWN = "UNKNOWN"
AMBIGUOUS = "AMBIGUOUS"

DEFAULT_CLASSIFY_TOL = 1e-6


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


def probe(oracle: np.ndarray, basis: TruthBasis, arity: int) -> GateSignature:
    """Signature of oracle @ (As)^{(x)k} for a hidden Q x Q^k gate of arity k."""
    oracle = np.asarray(oracle)
    shape = (basis.dim, basis.dim**arity)
    if oracle.shape != shape:
        raise DimensionMismatch(f"arity-{arity} oracle must be {shape[0]}x{shape[1]}, got {oracle.shape}")
    # A s = alpha s + beta n in any basis; forming the Q x Q root A would
    # cost more memory than the whole probe vector
    a_s = basis.frame @ np.array((ALPHA, BETA))
    v = _kron_power(a_s[None, :], arity)[0]
    # real and imaginary parts apart, so a real oracle is never cast to a
    # complex copy
    return _signature_of_output(oracle @ v.real + 1j * (oracle @ v.imag), basis)


def symbolic_signature(table: TruthTable) -> tuple[float, float, float, float]:
    """Exact probe signature of a truth table, without building any matrix.

    (As)^{(x)k} = (alpha s + beta n)^{(x)k} weighs input combination j by
    alpha^{#T} beta^{#F}; the gate sends it to s or n, so (re_s, re_n,
    im_s, im_n) sum the weights of the TRUE and of the FALSE outputs.
    """
    weights = (math.prod(c) for c in product((ALPHA, BETA), repeat=table.arity))
    c = [0j, 0j]  # along s and n
    for w, out in zip(weights, table.outputs):
        c[0 if out == TRUE else 1] += w
    return (c[0].real, c[1].real, c[0].imag, c[1].imag)


# Reference signature of each named gate, by arity.
MONADIC_REFERENCE_SIGNATURES = {name: symbolic_signature(t) for name, t in MONADIC_GATES.items()}
DYADIC_REFERENCE_SIGNATURES = {name: symbolic_signature(t) for name, t in NAMED_DYADIC_GATES.items()}
_REFERENCES = {
    arity: (list(refs), np.array(list(refs.values())))
    for arity, refs in ((1, MONADIC_REFERENCE_SIGNATURES), (2, DYADIC_REFERENCE_SIGNATURES))
}


def classify(sig: GateSignature, arity: int, tol: float = DEFAULT_CLASSIFY_TOL) -> DiagnosisResult:
    """Nearest named reference of the given arity in max-norm: the verdict if closer than tol.

    The references of each arity are at least 0.5 apart, so for tol <= 0.25
    a signature within tol of a reference classifies as that gate, never as
    AMBIGUOUS.
    """
    if arity not in _REFERENCES:
        raise UnsupportedArity(f"no reference signatures for arity {arity}; known: {sorted(_REFERENCES)}")
    names, refs = _REFERENCES[arity]
    # np.max propagates NaN, so a non-finite signature is far from every
    # reference and `not best < tol` sends it to UNKNOWN
    dists = np.abs(refs - sig.coefficients).max(axis=1)
    ranked = sorted(zip(dists.tolist(), names))
    (best, best_name), (second, second_name) = ranked[0], ranked[1]
    if not best < tol:
        verdict = UNKNOWN
    elif second < tol:
        verdict = AMBIGUOUS
    else:
        verdict = best_name
    return DiagnosisResult(verdict, sig, best, second_name, second)


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
        sig = probe(gate_operator(basis, table), basis, 2)
        signatures[table.name] = sig
        key = tuple(round(c, 9) for c in sig.coefficients)
        groups.setdefault(key, []).append(table.name)
    classes = sorted(groups.values(), key=lambda names: (-len(names), names))
    return signatures, classes


# Fixed-arity names, kept for callers written against them.


def probe_monadic(oracle: np.ndarray, basis: TruthBasis) -> GateSignature:
    return probe(oracle, basis, 1)


def probe_dyadic(oracle: np.ndarray, basis: TruthBasis) -> GateSignature:
    return probe(oracle, basis, 2)


def classify_monadic(sig: GateSignature, tol: float = DEFAULT_CLASSIFY_TOL) -> DiagnosisResult:
    return classify(sig, 1, tol)


def classify_dyadic(sig: GateSignature, tol: float = DEFAULT_CLASSIFY_TOL) -> DiagnosisResult:
    return classify(sig, 2, tol)


def symbolic_dyadic_signature(table: TruthTable) -> tuple[float, float, float, float]:
    return symbolic_signature(table)
