"""Truth-vector bases of arbitrary dimension with their dual vectors.

A basis is a pair of unit vectors s (true) and n (false) with overlap
epsilon = <s, n>. The duals y (pseudo-true) and z (pseudo-false) come from
the exact two-column pseudoinverse of [s n]:

    y = (s - eps*n) / (1 - eps^2),   z = (n - eps*s) / (1 - eps^2),

so that <y,s> = <z,n> = 1 and <y,n> = <z,s> = 0. Negative eps in (-1, 0) is
accepted; the formulas are valid for any |eps| < 1.

Every gate, root of NOT and series value is a small core carried by the
frame S = [s n] (Q x 2) and its duals Y^T = [y z]^T (2 x Q), Y^T S = I2.
A basis stores both, read-only, and its overlap; dim, s, n, y and z are
derived from them, s, n, y and z as views of their columns and rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
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


@dataclass(frozen=True)
class TruthBasis:
    """Built by `make_basis`; s, n, y and z are read-only views."""

    frame: np.ndarray  # [s n], Q x 2
    duals: np.ndarray  # [y z]^T, 2 x Q
    epsilon: float  # <s, n>

    dim = property(lambda b: b.frame.shape[0])
    s = property(lambda b: b.frame[:, 0])
    n = property(lambda b: b.frame[:, 1])
    y = property(lambda b: b.duals[0])
    z = property(lambda b: b.duals[1])


def make_basis(s, n) -> TruthBasis:
    """Build a TruthBasis from unit vectors s, n, computing the duals."""
    s = np.asarray(s, dtype=float)
    n = np.asarray(n, dtype=float)
    if s.ndim != 1 or n.ndim != 1 or s.shape != n.shape:
        raise DimensionMismatch(f"s and n must be equal-length vectors, got shapes {s.shape} and {n.shape}")
    if s.size < 2:
        raise QTooSmall("truth vectors need dimension >= 2")
    for name, v in (("s", s), ("n", n)):
        norm = math.sqrt(v @ v)  # np.linalg.norm's value for a real vector
        if not abs(norm - 1.0) <= DEFAULT_TOL:
            raise NotUnitNorm(f"|{name}| = {norm!r}; pre-normalize to unit length")
    eps = float(s @ n)
    if abs(eps) > DEPENDENCE_THRESHOLD:
        raise NearlyDependent(f"|<s,n>| = {abs(eps)} too close to 1")
    frame = np.column_stack((s, n))  # a copy: the caller's later writes never reach the basis
    duals = np.array((s - eps * n, n - eps * s)) / (1.0 - eps * eps)  # y and z as in the module docstring
    return TruthBasis(_readonly(frame), _readonly(duals), eps)


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
    """
    if dim < 2:
        raise QTooSmall(f"dim must be >= 2, got {dim}")
    if not abs(epsilon) < 1.0:
        raise BadEpsilon(f"|epsilon| must be < 1, got {epsilon}")
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
        return make_basis(s, n)
