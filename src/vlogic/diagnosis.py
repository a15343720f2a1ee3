"""One-probe identification of hidden logic gates.

A hidden k-ary gate is probed with the single input A^{(x)k} s^{(x)k}: the
true vector of each input prefiltered by a square root of NOT (A s for a
monadic gate, (A(x)A)(s(x)s) for a dyadic one). By the mixed-product rule
that input is the Q^k vector (As)^{(x)k}, so a probe never builds the
Q^k x Q^k matrix A^{(x)k}. `probe` receives its oracle as an opaque
operator (a matrix-free Gate or a dense matrix), never as a gate name.
A Gate S M (Y^T)^{(x)k}, like the stack that `enumerate_signatures`
builds, is read in core space: As = S_b (alpha, beta)^T over the probe's
basis b, so its duals meet the input as w = (G_in (alpha, beta)^T)^{(x)k}
with G_in = Y^T S_b, its output is S m with m = M w, and the duals of b
read that output as c = G_out m with G_out = Y_b^T S. Both 2 x 2 products
are the basis's `gram` when the gate was built on it, and one (2, Q) @
(Q, 2) product each for a gate of another basis, so a signature costs
O(2^k) beyond them and never meets a Q-length array; only the residual,
the max-norm of S m - S_b c, has Q rows. A dense oracle, which is read
whole anyway, is applied with @ to the Q^k probe vector, and its output
read by one product by the duals. The output's real and imaginary
coefficients along s and n form a four-number signature that distinguishes
all four monadic gates and the seven named dyadic gates; a diagnosis also
reports the runner-up reference and its distance. Any basis will do,
orthonormal or oblique: in each, A s = alpha*s + beta*n and the duals read
the s and n parts exactly.
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
from .operators import Gate, _kron, gate_operator
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


_ROOT_OF_TRUE = np.array((ALPHA, BETA))  # A s = alpha s + beta n: As is frame @ _ROOT_OF_TRUE, with no Q x Q A


def _probe_vector(basis: TruthBasis, arity: int) -> np.ndarray:
    """(As)^{(x)k} as a Q^k x 2 real view, its real and imaginary parts side
    by side, so a real dense oracle is read once and never cast to complex."""
    return functools.reduce(_kron, [(basis.frame @ _ROOT_OF_TRUE)[None, :]] * arity)[0].view(np.float64).reshape(-1, 2)


def _core_read(gate: Gate, basis: TruthBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read of a Gate or a stack of one basis on the probe input in core space (see the module docstring),
    with no checks: the coefficients c (..., 2, 2) of each output along s and n (rows), real and imaginary parts
    side by side, and factors f, v whose product f @ v (..., Q, 2) is the part of each output outside span{s, n}.
    Only the Kronecker power w is complex; M, G_out and f meet its real view."""
    same = gate.frame is basis.frame and gate.duals is basis.duals
    g_in, g_out = (basis.gram, basis.gram) if same else (gate.duals @ basis.frame, basis.duals @ gate.frame)
    d = w = g_in @ _ROOT_OF_TRUE[:, None]
    for _ in range(1, gate.arity):  # functools.reduce would add a call to every probe
        w = _kron(w, d)
    m = gate.core @ w.view(np.float64)
    c = g_out @ m
    if same:  # S m less its s and n parts S c
        return c, basis.frame, m - c
    return c, np.concatenate((gate.frame, basis.frame), axis=-1), np.concatenate((m, -c), axis=-2)


def probe(oracle, basis: TruthBasis, arity: int) -> GateSignature:
    """Signature of oracle @ (As)^{(x)k} for a hidden Q x Q^k gate of arity k.

    A Gate, built on this basis or on another of the same Q, is read in core
    space (see the module docstring); any other oracle, anything with .shape
    and @ (a dense array) or else np.asarray of it, is applied to the Q^k
    vector. A stack of gates is no oracle: `enumerate_signatures` probes
    stacks. An arity that is no int of at least 1 raises UnsupportedArity,
    and a basis stack DimensionMismatch.
    """
    if type(arity) is not int or arity < 1:
        raise UnsupportedArity(f"a probed gate has an int arity of at least 1, got {arity!r}")
    if basis.frame.ndim != 2:
        raise DimensionMismatch(f"probe takes one basis, not a stack of frames {basis.frame.shape}: probe each")
    gate = isinstance(oracle, Gate)
    if not (gate or hasattr(oracle, "shape") and hasattr(oracle, "__matmul__")):
        oracle = np.asarray(oracle)
    q = basis.frame.shape[0]
    if oracle.shape != (q, q**arity):
        raise DimensionMismatch(f"arity-{arity} oracle must be {q}x{q**arity}, got {oracle.shape}")
    if gate:
        c, f, v = _core_read(oracle, basis)
        (re_s, im_s), (re_n, im_n) = c.tolist()
        outside = f @ v  # (Q, 2): real and imaginary parts
        outside = np.hypot(outside[:, 0], outside[:, 1])
    else:
        out = oracle @ _probe_vector(basis, arity)  # (Q, 2): real and imaginary parts
        out = out[:, 0] + 1j * out[:, 1]
        c = out @ basis.duals.T
        s, n = c.tolist()
        re_s, re_n, im_s, im_n = s.real, n.real, s.imag, n.imag
        outside = np.abs(out - c @ basis.frame.T)
    return GateSignature(re_s, re_n, im_s, im_n, residual=float(np.maximum.reduce(outside)))


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


_REFERENCES = {  # arity -> (names, (R, 4) signatures of the references)
    arity: (list(refs), np.array(list(refs.values())))
    for arity, refs in ((1, MONADIC_REFERENCE_SIGNATURES), (2, DYADIC_REFERENCE_SIGNATURES))
}
_RUNNER_UP_TIE = 1e-12  # distances this close tie for the runner-up


def classify(sig: GateSignature, arity: int, tol: float = DEFAULT_CLASSIFY_TOL) -> DiagnosisResult:
    """Nearest named reference of the given arity in max-norm: the verdict if closer than tol.

    The references of each arity are at least 0.5 apart, so for tol <= 0.25
    a signature within tol of a reference classifies as that gate, never as
    AMBIGUOUS. Of the references within 1e-12 of the runner-up distance the
    runner-up is the first by name, so last-bit rounding never picks it.
    A NaN signature is UNKNOWN. Raises ValueError for a tol that is not a
    finite positive number, UnsupportedArity for an arity that is no int
    with references.
    """
    try:
        valid = 0 < tol < math.inf
    except (TypeError, ValueError):  # no number, or an array
        valid = False
    if not valid:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    if type(arity) is not int or arity not in _REFERENCES:
        raise UnsupportedArity(f"no reference signatures for arity {arity!r}; known: {sorted(_REFERENCES)}")
    names, refs = _REFERENCES[arity]
    row = np.maximum.reduce(np.abs(np.subtract(sig.coefficients, refs)), axis=1)
    (best, best_name), (second, runner_up), *others = sorted(zip(row.tolist(), names))
    for distance, name in others:  # a tie at the runner-up goes to the first name
        if distance <= second + _RUNNER_UP_TIE and name < runner_up:
            runner_up = name
    verdict = UNKNOWN if not best < tol else AMBIGUOUS if second < tol else best_name
    return DiagnosisResult(verdict, sig, best, runner_up, second)


def _signature_coefficients(basis: TruthBasis, tables: Sequence[TruthTable]) -> tuple[np.ndarray, np.ndarray]:
    """The (G, 4) signature coefficients of the tables, in order, and the
    (G, 2, 2) parts v of their outputs outside span{s, n} in core space,
    which the frame carries to Q rows. The tables are read as one stacked
    Gate by `_core_read`, so every gate gets `probe`'s coefficients and
    residual to the last bit."""
    c, _, v = _core_read(gate_operator(basis, tables), basis)
    return c.mT.reshape(-1, 4), v


def _collision_classes(tables: Sequence[TruthTable], coefficients: np.ndarray) -> list[list[str]]:
    """The names of the tables grouped by their signature coefficients (G, 4),
    rounded once for the keys, largest class first."""
    groups: dict[tuple, list[str]] = {}
    for table, key in zip(tables, np.round(coefficients, 9).tolist()):
        groups.setdefault(tuple(key), []).append(table.name)
    return sorted(groups.values(), key=lambda names: (-len(names), names))


def enumerate_signatures(
    basis: TruthBasis, tables: Iterable[TruthTable]
) -> tuple[dict[str, GateSignature], list[list[str]]]:
    """Probe signatures of the given gates of one arity, grouped into collision classes.

    The gates are probed as one stacked `Gate` in core space and read by
    `_signature_coefficients`, so each gets `probe`'s signature to the last
    bit. Mixed arities raise ValueError, and a basis stack
    DimensionMismatch; no tables give ({}, []).
    Returns (name -> signature, collision classes); each class lists the
    gates sharing one signature, largest first, classes of size >= 2 being
    genuine one-probe ambiguities (e.g. the constant-true gate collides
    with XOR).
    """
    if basis.frame.ndim != 2:
        raise DimensionMismatch(f"enumerate_signatures takes one basis, not a stack of frames {basis.frame.shape}")
    tables = list(tables)
    if not tables:
        return {}, []
    coefficients, v = _signature_coefficients(basis, tables)
    outside = basis.frame @ v  # probe's product and modulus, gate by gate
    residuals = np.maximum.reduce(np.hypot(outside[..., 0], outside[..., 1]), axis=1)
    signatures = {
        t.name: GateSignature(*c, residual=r) for t, c, r in zip(tables, coefficients.tolist(), residuals.tolist())
    }
    return signatures, _collision_classes(tables, coefficients)


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
