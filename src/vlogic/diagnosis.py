"""One-probe identification of hidden logic gates.

A hidden k-ary gate is probed with the single input A^{(x)k} s^{(x)k}: the
true vector of each input prefiltered by a square root of NOT (A s for a
monadic gate, (A(x)A)(s(x)s) for a dyadic one). By the mixed-product rule
that input is the Q^k vector (As)^{(x)k}, so a probe never builds the
Q^k x Q^k matrix A^{(x)k}. `probe` receives its oracle as an opaque
operator (a matrix-free Gate or a dense matrix), never as a gate name, and
applies it with @ to the Q^k probe vector. `enumerate_signatures` builds
its gates itself, as one stack of one arity, so it applies them to the
Q x 1 factor As alone (`Gate.on_product`) and never forms the probe
vector. The output's real and imaginary coefficients along s and n form a
four-number signature that distinguishes all four monadic gates and the
seven named dyadic gates; a diagnosis also reports the runner-up reference
and its distance. Any basis will do, orthonormal or oblique: A s =
alpha*s + beta*n holds in every basis, and the duals read the output's
coefficients along s and n exactly.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from .basis import TruthBasis
from .errors import DimensionMismatch, UnsupportedArity
from .operators import _kron, gate_operator
from .scalar_logic import MONADIC_GATES, NAMED_DYADIC_GATES, TRUE, TruthTable
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


def _root_of_true(basis: TruthBasis) -> np.ndarray:
    """A s = alpha s + beta n, a complex Q-vector: true prefiltered by a root
    of NOT, in any basis, without forming the Q x Q root A."""
    return basis.frame @ np.array((ALPHA, BETA))


def _probe_vector(basis: TruthBasis, arity: int) -> np.ndarray:
    """(As)^{(x)k} as a Q^k x 2 real view, its real and imaginary parts side
    by side, so a real oracle is read once and never cast to complex."""
    return functools.reduce(_kron, [_root_of_true(basis)[None, :]] * arity)[0].view(np.float64).reshape(-1, 2)


def _coefficients(out: np.ndarray, basis: TruthBasis) -> tuple[np.ndarray, np.ndarray]:
    """The complex coefficients along s and n, shape (G, 2), and the residuals
    outside span{s, n}, shape (G,), of G complex probe outputs of shape
    (G, Q), all read with one product by the duals."""
    c = out @ basis.duals.T
    return c, np.abs(out - c @ basis.frame.T).max(axis=1)


def probe(oracle, basis: TruthBasis, arity: int) -> GateSignature:
    """Signature of oracle @ (As)^{(x)k} for a hidden Q x Q^k gate of arity k.

    The oracle is anything with .shape and @ (a matrix-free Gate, a dense
    array); anything else goes through np.asarray. A stack of gates is no
    oracle: `enumerate_signatures` probes stacks. An arity below 1 raises
    UnsupportedArity.
    """
    if arity < 1:
        raise UnsupportedArity(f"a probed gate has arity at least 1, got {arity}")
    if not (hasattr(oracle, "shape") and hasattr(oracle, "__matmul__")):
        oracle = np.asarray(oracle)
    shape = (basis.dim, basis.dim**arity)
    if oracle.shape != shape:
        raise DimensionMismatch(f"arity-{arity} oracle must be {shape[0]}x{shape[1]}, got {oracle.shape}")
    out = oracle @ _probe_vector(basis, arity)  # (Q, 2): real and imaginary parts
    c, residual = _coefficients((out[:, 0] + 1j * out[:, 1])[None], basis)
    ((s, n),) = c.tolist()
    return GateSignature(s.real, n.real, s.imag, n.imag, residual=residual.item())


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
    ((verdict, best, second_name, second),) = _nearest([sig.coefficients], arity, tol)
    return DiagnosisResult(verdict, sig, best, second_name, second)


def _nearest(coefficients, arity: int, tol: float) -> list[tuple[str, float, str, float]]:
    """`classify`'s rule for each row of signature coefficients (m, 4), read
    from one m x R distance matrix: (verdict, distance, runner-up name,
    runner-up distance)."""
    if arity not in _REFERENCES:
        raise UnsupportedArity(f"no reference signatures for arity {arity}; known: {sorted(_REFERENCES)}")
    names, refs = _REFERENCES[arity]
    # np.max propagates NaN, so a non-finite signature is far from every
    # reference and `not best < tol` sends it to UNKNOWN
    dists = np.abs(np.asarray(coefficients, dtype=float)[:, None, :] - refs).max(axis=2)
    out = []
    for row in dists.tolist():
        (best, best_name), (second, second_name) = sorted(zip(row, names))[:2]
        if not best < tol:
            verdict = UNKNOWN
        elif second < tol:
            verdict = AMBIGUOUS
        else:
            verdict = best_name
        out.append((verdict, best, second_name, second))
    return out


def _enumerate(basis: TruthBasis, tables: Sequence[TruthTable]) -> tuple[np.ndarray, np.ndarray, list[list[str]]]:
    """`enumerate_signatures` on arrays and with no per-gate object: the
    (G, 4) signature coefficients and (G,) residuals of the tables, in
    order, and their collision classes."""
    gate = gate_operator(basis, tables)
    a_s = _root_of_true(basis)[:, None]
    c, residuals = _coefficients(gate.on_product(*[a_s] * gate.arity)[..., 0], basis)
    coefficients = np.concatenate((c.real, c.imag), axis=1)
    # one rounding of every signature's coefficients for the collision keys
    groups: dict[tuple, list[str]] = {}
    for table, key in zip(tables, np.round(coefficients, 9).tolist()):
        groups.setdefault(tuple(key), []).append(table.name)
    classes = sorted(groups.values(), key=lambda names: (-len(names), names))
    return coefficients, residuals, classes


def enumerate_signatures(
    basis: TruthBasis, tables: Iterable[TruthTable]
) -> tuple[dict[str, GateSignature], list[list[str]]]:
    """Probe signatures of the given gates of one arity, grouped into collision classes.

    The gates are probed as one stacked `Gate`, applied to the probe input
    (As)^{(x)k} through its factors (`Gate.on_product(As, ..., As)`), so
    no Q^k vector is formed; one product by the duals reads all their
    signatures. Mixed arities raise ValueError; no tables give ({}, []).
    Returns (name -> signature, collision classes); each class lists the
    gates sharing one signature, largest first, classes of size >= 2 being
    genuine one-probe ambiguities (e.g. the constant-true gate collides
    with XOR).
    """
    tables = list(tables)
    if not tables:
        return {}, []
    coefficients, residuals, classes = _enumerate(basis, tables)
    signatures = {
        t.name: GateSignature(*c, residual=r) for t, c, r in zip(tables, coefficients.tolist(), residuals.tolist())
    }
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
