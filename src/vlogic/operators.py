"""Logic gates as matrices over a truth basis.

Monadic gates are Q x Q matrices built from dual outer products,
U = a y^T + b z^T, so that U s = a and U n = b. Dyadic gates are Q x Q^2
matrices acting on Kronecker products of truth vectors,
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
    """Largest absolute entry; dimension-independent residual norm."""
    return float(np.max(np.abs(m)))


def kron(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.kron(u, v)


def monadic_operator(basis: TruthBasis, table: MonadicTable) -> np.ndarray:
    a = basis.s if table.out_t == TRUE else basis.n
    b = basis.s if table.out_f == TRUE else basis.n
    return np.outer(a, basis.y) + np.outer(b, basis.z)


def dyadic_operator(basis: TruthBasis, table: DyadicTable) -> np.ndarray:
    """[e f g h] @ rows(y(x)y, y(x)z, z(x)y, z(x)z): one Q x 4 @ 4 x Q^2 product."""
    outs = np.stack([basis.s if out == TRUE else basis.n for out in table.outputs], axis=1)
    w = np.stack((basis.y, basis.z))
    duals = (w[:, None, :, None] * w[None, :, None, :]).reshape(4, basis.dim * basis.dim)
    return outs @ duals


def _dyadic_times_kron(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """T (X(x)Y) for a Q x Q^2 gate T and Q x Q matrices X, Y, without the
    Q^2 x Q^2 Kronecker matrix: T as Q x Q x Q contracted with X and Y."""
    q = x.shape[0]
    return np.einsum("ikm,kj,ml->ijl", t.reshape(q, q, q), x, y, optimize=True).reshape(q, q * q)


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
