"""Logic gates as matrices over a truth basis.

A k-ary gate is the Q x Q^k matrix [a_1 ... a_{2^k}] ([y z]^T)^{(x)k}: its
output columns of the frame [s n] times the k-th Kronecker power of the
duals. Row j of that power is the product of y (true) and z (false) picked
by input combination j, so the gate maps the matching product of s and n to
output column j. For k = 1 this is U = [a b] [y z]^T, with U s = a and
U n = b; for k = 2, T = e (y(x)y)^T + f (y(x)z)^T + g (z(x)y)^T + h (z(x)z)^T.
`gate_operator` keeps a gate in this factored form, a `Gate`, and applies
it without forming the matrix. Given a sequence of G tables of one arity it
returns them as one stacked `Gate` of shape (G, Q, Q^k), the (..., Q, Q)
stack idiom of `matfun`, so one `@` applies every gate of the stack.
`gate.on_product(f_1, ..., f_k)` applies a gate or a stack to a Kronecker
product of Q-row factors without forming it.

The logical identity I and negation N are the monadic gates ID and NOT,
sy^T + nz^T and ny^T + sz^T over any basis, orthonormal or not. The
canonical residual norm everywhere is the max-norm (largest absolute entry).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

import numpy as np

from .basis import TruthBasis, _readonly
from .errors import DimensionMismatch
from .scalar_logic import TRUE, TruthTable

def max_norm(m) -> float:
    """Largest absolute entry (0 for an empty array); dimension-independent residual norm."""
    return float(np.abs(m).max(initial=0.0))


def lift(basis: TruthBasis, core) -> np.ndarray:
    """[s n] core [y z]^T: the Q x Q matrix whose 2 x 2 core over the frame is core."""
    return basis.frame @ core @ basis.duals


def _kron(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x (x) m by broadcasting: row i*p + j, column a*q + b is x[i, a] m[j, b]."""
    return (x[:, None, :, None] * m[None, :, None, :]).reshape(x.shape[0] * m.shape[0], -1)


class Gate:
    """A k-ary gate held matrix-free: its Q x 2^k output columns of the frame
    and the 2 x Q duals, standing for the Q x Q^k matrix outputs
    ([y z]^T)^{(x)k}. A stack of G gates has outputs (G, Q, 2^k) and shape
    (G, Q, Q^k). Any other shapes raise DimensionMismatch.

    `gate @ v` takes v of shape (Q^k,) or (Q^k, m), real or complex, and
    contracts the duals with each Kronecker factor of v in turn (mixed-product
    rule, Van Loan 2000): O(Q^k m) time and no array larger than v. A stack
    applies all its gates to the same v, giving (G, Q) or (G, Q, m).
    `gate @ gate`, `m @ gate` and numpy ufunc arithmetic on a gate raise
    TypeError rather than densifying it unasked. `np.asarray(gate)` builds the
    dense matrix as gate.on_product(I_Q, ..., I_Q), and so does any numpy
    function that converts its arguments (np.kron, np.allclose).

    `gate.on_product(f_1, ..., f_k)` is gate @ (f_1 (x) ... (x) f_k) for k
    factors of shape (Q, m_i): outputs ((duals f_1) (x) ... (x) (duals f_k))
    by the same rule, of shape (..., Q, prod m_i). It costs O(Q 2^k prod m_i)
    per gate and never forms an input of Q^k rows.
    """

    __array_ufunc__ = None

    def __init__(self, outputs: np.ndarray, duals: np.ndarray):
        k = outputs.shape[-1].bit_length() - 1 if outputs.ndim >= 2 else 0  # 2^k output columns
        if not (k >= 1 and outputs.shape[-1] == 2**k and duals.shape == (2, outputs.shape[-2])):
            raise DimensionMismatch(f"a gate takes outputs (..., Q, 2^k), k >= 1, and duals (2, Q), got "
                                    f"{outputs.shape} and {duals.shape}")
        self.outputs, self.duals, self.arity = outputs, duals, k
        self.shape = (*outputs.shape[:-1], duals.shape[1] ** self.arity)

    def __matmul__(self, v):
        if isinstance(v, Gate):
            raise TypeError("gate @ gate is not supported; apply np.asarray to one side to densify it")
        v = np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[0] != self.shape[-1]:
            shape = "x".join(map(str, self.shape))
            raise DimensionMismatch(f"cannot apply a {shape} gate to shape {v.shape}")
        q = self.duals.shape[1]
        # axis 0 collects the dual rows (y or z) picked so far, axis 1 is
        # the next Kronecker factor, axis 2 the rest of v
        x = v.reshape(1, q, v.size // q)
        for _ in range(self.arity - 1):
            x = (self.duals @ x).reshape(2 * x.shape[0], q, x.shape[2] // q)
        return self.outputs @ (self.duals @ x).reshape(2**self.arity, *v.shape[1:])

    def on_product(self, *factors) -> np.ndarray:
        if len(factors) != self.arity:
            raise DimensionMismatch(f"an arity-{self.arity} gate takes {self.arity} factors, got {len(factors)}")
        q = self.duals.shape[1]
        coefficients = []
        for f in map(np.asarray, factors):
            if f.ndim != 2 or f.shape[0] != q:
                raise DimensionMismatch(f"each factor must have shape ({q}, m), got {f.shape}")
            coefficients.append(self.duals @ f)
        return self.outputs @ functools.reduce(_kron, coefficients)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a Gate stores no dense matrix to share")
        # numpy casts the result to a requested dtype itself
        return self.on_product(*[np.eye(self.duals.shape[1])] * self.arity)


def gate_operator(basis: TruthBasis, tables: TruthTable | Iterable[TruthTable]) -> Gate:
    """The k-ary gate of a truth table: the frame column of each output.

    A sequence of tables of one arity gives their gates as one stack, in
    order; an empty sequence or mixed arities raise ValueError.
    """
    if isinstance(tables, TruthTable):
        return Gate(basis.frame[:, _frame_columns((tables.outputs,))[0]], basis.duals)
    # (Q, G, 2^k) -> (G, Q, 2^k)
    return Gate(basis.frame[:, _frame_columns(tuple(t.outputs for t in tables))].swapaxes(0, 1), basis.duals)


@functools.lru_cache(maxsize=64)
def _frame_columns(outputs: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Frame column (0 for s, 1 for n) of each output of each table, (G, 2^k).

    Keyed on the tables' outputs, plain tuples of ints, so a warm call hashes
    no TruthTable; the index array of each set of tables is built once, and
    checked once to hold tables of one arity (a ValueError is not kept).
    """
    arities = sorted({len(outs).bit_length() - 1 for outs in outputs})
    if len(arities) != 1:
        raise ValueError(f"a gate stack needs tables of one arity, got arities {arities}")
    return _readonly(np.array([[0 if out == TRUE else 1 for out in outs] for outs in outputs]))


# Fixed-arity names, kept for callers written against them.


def monadic_operator(basis: TruthBasis, table: TruthTable) -> Gate:
    return gate_operator(basis, table)


def dyadic_operator(basis: TruthBasis, table: TruthTable) -> Gate:
    return gate_operator(basis, table)
