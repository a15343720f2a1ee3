"""Logic gates as matrices over a truth basis.

A k-ary gate is the Q x Q^k matrix [a_1 ... a_{2^k}] ([y z]^T)^{(x)k}: its
output columns of the frame [s n] times the k-th Kronecker power of the
duals. Row j of that power is the product of y (true) and z (false) picked
by input combination j, so the gate maps the matching product of s and n to
output column j. For k = 1 this is U = [a b] [y z]^T, with U s = a and
U n = b; for k = 2, T = e (y(x)y)^T + f (y(x)z)^T + g (z(x)y)^T + h (z(x)z)^T.
`gate_operator` keeps a gate in this factored form, a `Gate`, and applies
it without forming the matrix.

For a non-orthogonal basis these constructions give the generalized
identity sy^T + nz^T and negation ny^T + sz^T automatically. The canonical
residual norm everywhere is the max-norm (largest absolute entry).
"""

from __future__ import annotations

import numpy as np

from .basis import TruthBasis
from .errors import DimensionMismatch
from .scalar_logic import TRUE, TruthTable

# the 2 x 2 cores of I and N over the frame [s n]
I2 = np.eye(2)
J = np.array([[0.0, 1.0], [1.0, 0.0]])


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


class Gate:
    """A k-ary gate held matrix-free: its Q x 2^k output columns of the frame
    and the 2 x Q duals, standing for the Q x Q^k matrix outputs
    ([y z]^T)^{(x)k}.

    `gate @ v` takes v of shape (Q^k,) or (Q^k, m), real or complex, and
    contracts the duals with each Kronecker factor of v in turn (mixed-product
    rule, Van Loan 2000): O(Q^k m) time and no array larger than v.
    `m @ gate` is again a Gate, with output columns m outputs; `gate @ gate`
    raises TypeError. `np.asarray(gate)` builds the dense matrix, and so does
    any numpy function that converts its arguments (np.kron, np.allclose);
    numpy ufunc arithmetic on a gate raises TypeError rather than densifying
    it unasked.
    """

    __array_ufunc__ = None

    def __init__(self, outputs: np.ndarray, duals: np.ndarray, arity: int):
        self.outputs, self.duals, self.arity = outputs, duals, arity
        self.shape = (outputs.shape[0], duals.shape[1] ** arity)

    def __matmul__(self, v):
        if isinstance(v, Gate):
            raise TypeError("gate @ gate is not supported; apply np.asarray to one side to densify it")
        v = np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[0] != self.shape[1]:
            raise DimensionMismatch(f"cannot apply a {self.shape[0]}x{self.shape[1]} gate to shape {v.shape}")
        q = self.duals.shape[1]
        # axis 0 collects the dual rows (y or z) picked so far, axis 1 is
        # the next Kronecker factor, axis 2 the rest of v
        x = v.reshape(1, q, v.size // q)
        for _ in range(self.arity - 1):
            x = (self.duals @ x).reshape(2 * x.shape[0], q, x.shape[2] // q)
        return self.outputs @ (self.duals @ x).reshape(2**self.arity, *v.shape[1:])

    def __rmatmul__(self, m):
        """M @ gate for a P x Q matrix M: the gate with output columns M outputs."""
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[1] != self.shape[0]:
            raise DimensionMismatch(f"cannot apply shape {m.shape} to a {self.shape[0]}x{self.shape[1]} gate")
        return Gate(m @ self.outputs, self.duals, self.arity)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a Gate stores no dense matrix to share")
        # numpy casts the result to a requested dtype itself
        return self.outputs @ _kron_power(self.duals, self.arity)


def gate_operator(basis: TruthBasis, table: TruthTable) -> Gate:
    """The k-ary gate of a truth table: the frame column of each output."""
    outputs = basis.frame[:, [0 if out == TRUE else 1 for out in table.outputs]]
    return Gate(outputs, basis.duals, table.arity)


def _times_kron_cores(basis: TruthBasis, t, core_x, core_y) -> np.ndarray:
    """T (X(x)Y) for a Q x Q^2 gate T and X, Y with 2 x 2 cores core_x, core_y
    over the frame: by the mixed-product rule X(x)Y = [s n]^{(x)2} (core_x (x)
    core_y) ([y z]^T)^{(x)2}, so T is read only through T [s n]^{(x)2}; for a
    Gate T the Q x Q^2 result is the only dense array. O(Q^3)."""
    return (t @ _kron_power(basis.frame, 2)) @ _kron(core_x, core_y) @ _kron_power(basis.duals, 2)


def identity_operator(basis: TruthBasis) -> np.ndarray:
    """The logical identity: s y^T + n z^T. Not the full identity for Q > 2."""
    return lift(basis, I2)


def negation_operator(basis: TruthBasis) -> np.ndarray:
    """The logical negation: n y^T + s z^T."""
    return lift(basis, J)


# Fixed-arity names, kept for callers written against them.


def monadic_operator(basis: TruthBasis, table: TruthTable) -> Gate:
    return gate_operator(basis, table)


def dyadic_operator(basis: TruthBasis, table: TruthTable) -> Gate:
    return gate_operator(basis, table)
