"""Logic gates as matrices over a truth basis.

Monadic gates are Q x Q matrices U = [a b] [y z]^T, so that U s = a and
U n = b, where a and b are columns of the frame [s n]. Dyadic gates are
Q x Q^2 matrices acting on Kronecker products of truth vectors,
T = e (y(x)y)^T + f (y(x)z)^T + g (z(x)y)^T + h (z(x)z)^T.

For a non-orthogonal basis these constructions give the generalized
identity sy^T + nz^T and negation ny^T + sz^T automatically. The canonical
residual norm everywhere is the max-norm (largest absolute entry).
"""

from __future__ import annotations

import numpy as np

from .basis import TruthBasis
from .errors import DimensionMismatch
from .scalar_logic import ID, NOT, TRUE, DyadicTable, MonadicTable


def max_norm(m) -> float:
    """Largest absolute entry (0 for an empty array); dimension-independent residual norm."""
    return float(np.max(np.abs(m), initial=0.0))


def kron(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.kron(u, v)


def lift(basis: TruthBasis, core) -> np.ndarray:
    """[s n] core [y z]^T: the Q x Q matrix whose 2 x 2 core over the frame is core."""
    return basis.frame @ core @ basis.duals


def _output_columns(basis: TruthBasis, outputs) -> np.ndarray:
    """The frame column of each output: s for TRUE, n for FALSE."""
    return basis.frame[:, [0 if out == TRUE else 1 for out in outputs]]


def monadic_operator(basis: TruthBasis, table: MonadicTable) -> np.ndarray:
    return _output_columns(basis, (table.out_t, table.out_f)) @ basis.duals


def dyadic_operator(basis: TruthBasis, table: DyadicTable) -> np.ndarray:
    """[e f g h] @ rows(y(x)y, y(x)z, z(x)y, z(x)z): one Q x 4 @ 4 x Q^2 product."""
    w = basis.duals
    rows = (w[:, None, :, None] * w[None, :, None, :]).reshape(4, basis.dim * basis.dim)
    return _output_columns(basis, table.outputs) @ rows


def _dyadic_times_kron(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T (X(x)Y) for a Q x Q^2 gate T and Q x Q matrices X, Y, without the
    Q^2 x Q^2 Kronecker matrix: T as Q x Q x Q, contracted with Y over its
    last index in one product and with X over its middle index in another."""
    q = x.shape[0]
    ty = (t.reshape(q * q, q) @ y).reshape(q, q, q)  # [i, k, l] = sum_m T[i, k, m] Y[m, l]
    return (x.T @ ty).reshape(q, q * q)  # [i, j, l] = sum_k X[k, j] ty[i, k, l]


def identity_operator(basis: TruthBasis) -> np.ndarray:
    """The logical identity: s y^T + n z^T. Not the full identity for Q > 2."""
    return monadic_operator(basis, ID)


def negation_operator(basis: TruthBasis) -> np.ndarray:
    """The logical negation: n y^T + s z^T."""
    return monadic_operator(basis, NOT)


def apply_monadic(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    u = np.asarray(u)
    x = np.asarray(x)
    if u.ndim != 2 or x.ndim != 1 or u.shape[1] != x.size:
        raise DimensionMismatch(f"cannot apply {u.shape} operator to length-{x.size} vector")
    return u @ x


def apply_dyadic(t: np.ndarray, xy: np.ndarray) -> np.ndarray:
    t = np.asarray(t)
    xy = np.asarray(xy)
    if t.ndim != 2 or xy.ndim != 1 or t.shape[1] != xy.size:
        raise DimensionMismatch(f"cannot apply {t.shape} operator to length-{xy.size} vector")
    return t @ xy
