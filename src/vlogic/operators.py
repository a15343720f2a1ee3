"""Logic gates as matrices over a truth basis.

A k-ary gate is the Q x Q^k matrix [a_1 ... a_{2^k}] ([y z]^T)^{(x)k}: its
output columns of the frame [s n] times the k-th Kronecker power of the
duals. Row j of that power is the product of y (true) and z (false) picked
by input combination j, so the gate maps the matching product of s and n to
output column j. For k = 1 this is U = [a b] [y z]^T, with U s = a and
U n = b; for k = 2, T = e (y(x)y)^T + f (y(x)z)^T + g (z(x)y)^T + h (z(x)z)^T.

For a non-orthogonal basis these constructions give the generalized
identity sy^T + nz^T and negation ny^T + sz^T automatically. The canonical
residual norm everywhere is the max-norm (largest absolute entry).
"""

from __future__ import annotations

import numpy as np

from .basis import TruthBasis
from .scalar_logic import ID, NOT, TRUE, TruthTable


def max_norm(m) -> float:
    """Largest absolute entry (0 for an empty array); dimension-independent residual norm."""
    return float(np.max(np.abs(m), initial=0.0))


def lift(basis: TruthBasis, core) -> np.ndarray:
    """[s n] core [y z]^T: the Q x Q matrix whose 2 x 2 core over the frame is core."""
    return basis.frame @ core @ basis.duals


def _kron(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x (x) m by broadcasting: row i*p + j, column a*q + b is x[i, a] m[j, b]."""
    return (x[:, None, :, None] * m[None, :, None, :]).reshape(x.shape[0] * m.shape[0], -1)


def _kron_power(m: np.ndarray, k: int) -> np.ndarray:
    """m (x) ... (x) m with k >= 1 factors."""
    out = m
    for _ in range(k - 1):
        out = _kron(out, m)
    return out


def gate_operator(basis: TruthBasis, table: TruthTable) -> np.ndarray:
    """The Q x Q^k matrix of a k-ary gate: one Q x 2^k @ 2^k x Q^k product."""
    outputs = basis.frame[:, [0 if out == TRUE else 1 for out in table.outputs]]
    return outputs @ _kron_power(basis.duals, table.arity)


def _times_kron_cores(basis: TruthBasis, t: np.ndarray, core_x, core_y) -> np.ndarray:
    """T (X(x)Y) for a Q x Q^2 gate T and X, Y with 2 x 2 cores core_x, core_y
    over the frame: by the mixed-product rule X(x)Y = [s n]^{(x)2} (core_x (x)
    core_y) ([y z]^T)^{(x)2}, so T is read only through T [s n]^{(x)2}. O(Q^3)."""
    return (t @ _kron_power(basis.frame, 2)) @ _kron(core_x, core_y) @ _kron_power(basis.duals, 2)


def identity_operator(basis: TruthBasis) -> np.ndarray:
    """The logical identity: s y^T + n z^T. Not the full identity for Q > 2."""
    return gate_operator(basis, ID)


def negation_operator(basis: TruthBasis) -> np.ndarray:
    """The logical negation: n y^T + s z^T."""
    return gate_operator(basis, NOT)


# Fixed-arity names, kept for callers written against them.


def monadic_operator(basis: TruthBasis, table: TruthTable) -> np.ndarray:
    return gate_operator(basis, table)


def dyadic_operator(basis: TruthBasis, table: TruthTable) -> np.ndarray:
    return gate_operator(basis, table)
