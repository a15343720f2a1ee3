"""Truth-vector bases of arbitrary dimension with their dual vectors.

A basis is a pair of unit vectors s (true) and n (false) with overlap
epsilon = <s, n>. The duals y (pseudo-true) and z (pseudo-false) come from
the exact two-column pseudoinverse of [s n]:

    y = (s - eps*n) / (1 - eps^2),   z = (n - eps*s) / (1 - eps^2),

so that <y,s> = <z,n> = 1 and <y,n> = <z,s> = 0. Negative eps in (-1, 0) is
accepted; the formulas are valid for any |eps| < 1.

Every gate, root of NOT and series value is a small core carried by the
frame S = [s n] (Q x 2) and its duals Y^T = [y z]^T (2 x Q), Y^T S = I2;
each basis holds both, read-only.
"""

from __future__ import annotations

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
# Beyond this overlap the 1/(1-eps^2) factor loses too many digits.
DEPENDENCE_THRESHOLD = 1.0 - 1e-6


def _frozen(v: np.ndarray) -> np.ndarray:
    out = np.array(v, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TruthBasis:
    dim: int
    s: np.ndarray
    n: np.ndarray
    epsilon: float
    y: np.ndarray
    z: np.ndarray
    frame: np.ndarray  # [s n], Q x 2
    duals: np.ndarray  # [y z]^T, 2 x Q


def make_basis(s, n) -> TruthBasis:
    """Build a TruthBasis from unit vectors s, n, computing the duals."""
    s = np.asarray(s, dtype=float)
    n = np.asarray(n, dtype=float)
    if s.ndim != 1 or n.ndim != 1 or s.shape != n.shape:
        raise DimensionMismatch(f"s and n must be equal-length vectors, got shapes {s.shape} and {n.shape}")
    if s.size < 2:
        raise QTooSmall("truth vectors need dimension >= 2")
    for name, v in (("s", s), ("n", n)):
        if not abs(np.linalg.norm(v) - 1.0) <= DEFAULT_TOL:
            raise NotUnitNorm(f"|{name}| = {np.linalg.norm(v)!r}; pre-normalize to unit length")
    eps = float(s @ n)
    if abs(eps) > DEPENDENCE_THRESHOLD:
        raise NearlyDependent(f"|<s,n>| = {abs(eps)} too close to 1")
    y = (s - eps * n) / (1.0 - eps * eps)
    z = (n - eps * s) / (1.0 - eps * eps)
    return TruthBasis(
        dim=s.size, s=_frozen(s), n=_frozen(n), epsilon=eps, y=_frozen(y), z=_frozen(z),
        frame=_frozen(np.stack((s, n), axis=1)), duals=_frozen(np.stack((y, z))),
    )


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
        if np.linalg.norm(v1) < 1e-8:
            continue
        s = v1 / np.linalg.norm(v1)
        perp = v2 - (v2 @ s) * s
        if np.linalg.norm(perp) < 1e-8:
            continue
        perp /= np.linalg.norm(perp)
        n = epsilon * s + np.sqrt(1.0 - epsilon * epsilon) * perp
        return make_basis(s, n)
