"""Truth-vector bases of arbitrary dimension with their dual vectors.

A basis is a pair of unit vectors s (true) and n (false) with overlap
epsilon = <s, n>. The duals y (pseudo-true) and z (pseudo-false) come from
the exact two-column pseudoinverse of [s n]:

    y = (s - eps*n) / (1 - eps^2),   z = (n - eps*s) / (1 - eps^2),

so that <y,s> = <z,n> = 1 and <y,n> = <z,s> = 0. Negative eps in (-1, 0) is
accepted; the formulas are valid for any |eps| < 1.

Every gate, root of NOT and series value is a small core carried by the
frame S = [s n] (Q x 2) and its duals Y^T = [y z]^T (2 x Q), Y^T S = I2.
A basis stores both, read-only, with its overlap and their Gram matrix
Y^T S (I2 up to rounding), through which a read in core space, such as a
probe's signature, meets the basis; dim, s, n, y and z are derived from
them, s, n, y and z as views of their columns and rows.

A stack of B bases of one dim, built by `make_basis` from s and n of shape
(B, Q), has the same fields with a leading basis axis: frame (B, Q, 2),
duals (B, 2, Q), gram (B, 2, 2) and B overlaps. The frame layer
(`operators.gate_operator`, `Gate.on_product`, the roots of NOT and the
per-basis checks of `verify`) takes a stack wherever it takes a basis, and
gives one result per member.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadArgument,
    BadEpsilon,
    DimensionMismatch,
    NearlyDependent,
    NotUnitNorm,
    QTooSmall,
    UnknownName,
)

DEFAULT_TOL = 1e-10
# The rounding error of every check grows like 1.5e-16 / (1 - |eps|); at
# this overlap it stays below 1e-11, inside the checks' fixed tolerance.
DEPENDENCE_THRESHOLD = 1.0 - 1e-4


def _readonly(m: np.ndarray) -> np.ndarray:
    """m itself, made read-only."""
    m.setflags(write=False)
    return m


def _named(names, residuals: np.ndarray) -> dict[str, float] | list[dict[str, float]]:
    """{name: residual} from the residuals (n,) of one basis, or one such
    dict per member from the residuals (B, n) of a stack."""
    rows = residuals.tolist()
    return dict(zip(names, rows)) if residuals.ndim == 1 else [dict(zip(names, row)) for row in rows]


@dataclass(frozen=True)
class TruthBasis:
    """Built by `make_basis`; s, n, y and z are read-only views. A stack
    has a leading basis axis on each array and a list of overlaps."""

    frame: np.ndarray  # [s n], Q x 2
    duals: np.ndarray  # [y z]^T, 2 x Q
    epsilon: float  # <s, n>
    gram: np.ndarray  # duals @ frame, 2 x 2

    dim = property(lambda b: b.frame.shape[-2])
    s = property(lambda b: b.frame[..., 0])
    n = property(lambda b: b.frame[..., 1])
    y = property(lambda b: b.duals[..., 0, :])
    z = property(lambda b: b.duals[..., 1, :])


def make_basis(s, n) -> TruthBasis:
    """Build a TruthBasis from real unit vectors s, n, computing the duals
    and their Gram matrix with the frame; s and n of shape (B, Q) build a
    stack of B bases, each checked alike."""
    try:  # a ragged stack raises ValueError, and a complex entry is refused, never dropped
        s, n = np.asarray(s), np.asarray(n)
        if "c" in s.dtype.kind + n.dtype.kind:
            raise TypeError(f"got dtypes {s.dtype} and {n.dtype}")
        s, n = s.astype(float, copy=False), n.astype(float, copy=False)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch(f"s and n must be real vectors or stacks (B, Q) of them: {exc}") from None
    if s.ndim not in (1, 2) or s.shape != n.shape or s.size == 0 and s.ndim == 2:
        raise DimensionMismatch(f"s and n must be equal-length vectors or non-empty stacks (B, Q) of them, "
                                f"got shapes {s.shape} and {n.shape}")
    if s.shape[-1] < 2:
        raise QTooSmall("truth vectors need dimension >= 2")
    x = np.concatenate((s, n), axis=-1).reshape(-1, 2, s.shape[-1])  # (B, 2, Q): rows s and n, copied
    # one product per vector and per overlap, the values v @ v and s @ n have
    for i, square in enumerate((x[..., None, :] @ x[..., :, None]).ravel().tolist()):
        norm = math.sqrt(square)  # np.linalg.norm's value for a real vector
        if not abs(norm - 1.0) <= DEFAULT_TOL:
            raise NotUnitNorm(f"|{'sn'[i % 2]}| = {norm!r}; pre-normalize to unit length")
    eps = x[:, :1] @ x[:, 1, :, None]
    overlaps = eps.ravel().tolist()
    for overlap in overlaps:
        if abs(overlap) > DEPENDENCE_THRESHOLD:
            raise NearlyDependent(f"|<s,n>| = {abs(overlap)} too close to 1")
    frame = x.swapaxes(-1, -2).copy()
    duals = (x - eps * x[..., ::-1, :]) / (1.0 - eps * eps)  # y and z as in the module docstring
    gram = duals @ frame
    if s.ndim == 1:  # a stack of one: bit for bit a member on any BLAS
        frame, duals, gram = frame[0], duals[0], gram[0]
    return TruthBasis(_readonly(frame), _readonly(duals), overlaps[0] if s.ndim == 1 else overlaps, _readonly(gram))


_CANONICAL = {
    "SET1": ([1.0, 0.0], [0.0, 1.0]),
    "SET2": ([1 / np.sqrt(2)] * 2, [1 / np.sqrt(2), -1 / np.sqrt(2)]),
    "DIM4": ([0.5, 0.5, 0.5, 0.5], [0.5, -0.5, -0.5, 0.5]),
}


def canonical_basis(name: str) -> TruthBasis:
    try:
        s, n = _CANONICAL[name.upper()]
    except KeyError:
        raise UnknownName(f"unknown canonical basis {name!r}; expected SET1, SET2 or DIM4") from None
    return make_basis(s, n)


def random_basis(dim: int, epsilon: float = 0.0, seed: int = 0) -> TruthBasis:
    """Seeded random basis with prescribed overlap <s,n> = epsilon.

    Uses numpy's default_rng (PCG64), so outputs are reproducible for a
    given (dim, epsilon, seed). Two orthonormal directions are drawn by
    Gram-Schmidt on standard-normal vectors, then n is tilted toward s to
    realize the requested overlap.

    dim and seed are ints (a numpy integer too; bool, float and str are
    not): QTooSmall below dim 2, BadArgument for a dim past sys.maxsize,
    numpy's largest array length, or a negative seed.
    """
    return make_basis(*_random_vectors(dim, epsilon, seed))


def _as_int(name: str, value) -> int:
    """A numpy integer as an int; BadArgument, naming the argument, for anything else."""
    if isinstance(value, np.integer):
        return int(value)
    raise BadArgument(f"{name} must be an int, got {value!r}")


def _random_vectors(dim: int, epsilon: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit vectors s and n of `random_basis`, not yet a basis."""
    # type(x) is int keeps the common path free of calls; bool is no int here
    if type(dim) is not int:
        dim = _as_int("dim", dim)
    if type(seed) is not int:
        seed = _as_int("seed", seed)
    if dim < 2:
        raise QTooSmall(f"dim must be >= 2, got {dim}")
    if dim > sys.maxsize:
        raise BadArgument(f"dim must be at most {sys.maxsize}, the largest array length, got {dim}")
    if not abs(epsilon) < 1.0:
        raise BadEpsilon(f"|epsilon| must be < 1, got {epsilon}")
    if seed < 0:
        raise BadArgument(f"seed must be a non-negative int, got {seed}")
    rng = np.random.default_rng(seed)
    while True:
        v1 = rng.standard_normal(dim)
        v2 = rng.standard_normal(dim)
        norm = math.sqrt(v1 @ v1)
        if norm < 1e-8:
            continue
        s = v1 / norm
        perp = v2 - (v2 @ s) * s
        norm = math.sqrt(perp @ perp)
        if norm < 1e-8:
            continue
        perp /= norm
        n = epsilon * s + math.sqrt(1.0 - epsilon * epsilon) * perp
        return s, n
