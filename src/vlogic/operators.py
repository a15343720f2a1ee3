"""Logic gates as matrices over a truth basis.

A k-ary gate is the Q x Q^k matrix [s n] M ([y z]^T)^{(x)k}: its 2 x 2^k
core M over the frame [s n] times the k-th Kronecker power of the duals.
Row j of that power is the product of y (true) and z (false) picked by input
combination j, so the gate maps the matching product of s and n to [s n]
times column j of M: (1, 0) for a TRUE output of a truth table, (0, 1) for
FALSE. For k = 1 this is U = [a b] [y z]^T, with U s = a and U n = b; for
k = 2, T = e (y(x)y)^T + f (y(x)z)^T + g (z(x)y)^T + h (z(x)z)^T.
`gate_operator` keeps a gate in this factored form, a `Gate`, and applies
it without forming the matrix. Given a sequence of G tables of one arity it
returns them as one stacked `Gate` of core (G, 2, 2^k) and shape
(G, Q, Q^k), so one `@` applies every gate of the stack.
`gate.on_product(f_1, ..., f_k)` applies a gate or a stack to a Kronecker
product of Q-row factors without forming it. Over a stack of B bases
(`basis.make_basis`) the frame, the duals and the shape gain a leading
basis axis, and the members share one core; `on_product` applies each
member's gates to its own factors (B, Q, m) or to shared ones (Q, m).

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
    return basis.frame @ (core @ basis.duals)


def _apply(op, x: np.ndarray) -> np.ndarray:
    """op x for Q-row blocks x (..., Q, m): a monadic Gate, over one basis or
    a stack, as frame (core (duals x)), the rule of `@` and `on_product`;
    anything else, such as a dense (..., Q, Q) matrix, by @."""
    return op.frame @ (op.core @ (op.duals @ x)) if isinstance(op, Gate) else op @ x


def _kron(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x (x) m by broadcasting: row i*p + j, column a*q + b is x[..., i, a] m[..., j, b],
    for each member of any leading axes, such as a basis stack's."""
    return (x[..., None, :, None] * m[..., None, :, None, :]).reshape(x.shape[:-2] + (x.shape[-2] * m.shape[-2], -1))


class Gate:
    """A k-ary gate held matrix-free: its 2 x 2^k core M with the frame S and
    duals Y^T of its basis, for the Q x Q^k matrix S M (Y^T)^{(x)k}. A stack
    of G gates has a core (G, 2, 2^k) and shape (G, Q, Q^k). Over a stack of
    B bases the frame, duals and shape gain a leading axis B, and the members
    share the core. Any other core raises DimensionMismatch, and a basis that
    is no TruthBasis TypeError. `gate.outputs`, S M, is formed when read.

    `gate @ v` takes v of shape (Q^k,) or (Q^k, m), real or complex, and
    contracts the duals with each Kronecker factor of v in turn (mixed-product
    rule, Van Loan 2000): O(Q^k m) time and no array larger than v. A stack
    applies all its gates to the same v, giving (G, Q) or (G, Q, m). `@`
    takes the gates of one basis; a basis stack's go through `on_product`.
    `gate @ gate`, `m @ gate` and numpy ufunc arithmetic on a gate raise
    TypeError rather than densifying it unasked. `np.asarray(gate)` builds the
    dense matrix as gate.on_product(I_Q, ..., I_Q), and so does any numpy
    function that converts its arguments (np.kron, np.allclose).

    `gate.on_product(f_1, ..., f_k)` is gate @ (f_1 (x) ... (x) f_k) for k
    factors of shape (Q, m_i): S (M ((Y^T f_1) (x) ... (x) (Y^T f_k))), of
    shape (..., Q, prod m_i). It costs O(Q 2^k prod m_i) per gate and never
    forms an input of Q^k rows. Over a basis stack a factor is (B, Q, m_i),
    one block per member, or (Q, m_i) for all.
    """

    __array_ufunc__ = None

    def __init__(self, basis: TruthBasis, core: np.ndarray):
        k = core.shape[-1].bit_length() - 1 if type(core) is np.ndarray and core.ndim else 0  # 2^k core columns
        if not (k >= 1 and core.shape[-2:] == (2, 2**k) and type(basis) is TruthBasis):
            raise (DimensionMismatch if type(basis) is TruthBasis else TypeError)(
                f"a gate takes a TruthBasis and a core array (..., 2, 2^k), k > 0, got {type(basis)}, {np.shape(core)}")
        self.core, self.frame, self.duals, self.arity = core, basis.frame, basis.duals, k
        self.shape = (*self.duals.shape[:-2], *core.shape[:-2], self.duals.shape[-1], self.duals.shape[-1] ** k)

    # S M (..., Q, 2^k), formed when read; a basis stack's frame gains an axis per gate axis
    outputs = property(lambda g: g.frame.reshape(g.duals.shape[:-2] + (1,) * (g.core.ndim - 2) + g.frame.shape[-2:])
                       @ g.core)

    def __matmul__(self, v):
        if isinstance(v, Gate):
            raise TypeError("gate @ gate is not supported; apply np.asarray to one side to densify it")
        if self.duals.ndim != 2:
            raise DimensionMismatch(f"@ takes the gates of one basis, not duals {self.duals.shape}: use on_product")
        v = np.asarray(v)
        if v.ndim not in (1, 2) or v.shape[0] != self.shape[-1]:
            shape = "x".join(map(str, self.shape))
            raise DimensionMismatch(f"cannot apply a {shape} gate to shape {v.shape}")
        q = self.duals.shape[1]
        # row i of x: the dual rows (y or z) picked so far; its columns: the rest of v
        x = v.reshape(1, -1)
        for _ in range(self.arity):
            x = (self.duals @ x.reshape(x.shape[0], q, -1)).reshape(2 * x.shape[0], -1)
        return (self.frame @ (self.core @ x)).reshape(self.shape[:-1] + v.shape[1:])

    def on_product(self, *factors) -> np.ndarray:
        if len(factors) != self.arity:
            raise DimensionMismatch(f"an arity-{self.arity} gate takes {self.arity} factors, got {len(factors)}")
        q, bases = self.duals.shape[-1], self.duals.shape[:-2]
        coefficients = []
        for f in map(np.asarray, factors):
            if f.shape[-2:-1] != (q,) or f.shape[:-2] not in ((), bases):
                stacked = f" or ({bases[0]}, {q}, m)" if bases else ""
                raise DimensionMismatch(f"each factor must have shape ({q}, m){stacked}, got {f.shape}")
            coefficients.append(self.duals @ f)
        product = functools.reduce(_kron, coefficients)
        # one product and one frame per basis, shared by the basis's stack of gates
        pad = bases + (1,) * (self.core.ndim - 2)
        return self.frame.reshape(pad + self.frame.shape[-2:]) @ (self.core @ product.reshape(pad + product.shape[-2:]))

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a Gate stores no dense matrix to share")
        # numpy casts the result to a requested dtype itself
        return self.on_product(*[np.eye(self.duals.shape[-1])] * self.arity)


def gate_operator(basis: TruthBasis, tables: TruthTable | Iterable[TruthTable]) -> Gate:
    """The k-ary gate of a truth table: its one-hot core over the basis.

    A sequence of tables of one arity gives their gates as one stack, in
    order; no tables, mixed arities or anything else raise ValueError. A
    basis stack gives each member's gates along a leading basis axis.
    """
    one = isinstance(tables, TruthTable)
    try:
        cores = _one_hot_cores((tables.outputs,) if one else tuple(t.outputs for t in tables))
    except (AttributeError, TypeError):  # no sequence, or no tables in it
        raise ValueError(f"tables must be a TruthTable or a sequence of them, got {tables!r:.60}") from None
    return Gate(basis, cores[0] if one else cores)


@functools.lru_cache(maxsize=64)
def _one_hot_cores(outputs: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """One-hot core of each table, (G, 2, 2^k): column j is (1, 0) if output j is TRUE, else (0, 1).

    Keyed on the tables' outputs, plain tuples of ints, so a warm call hashes
    no TruthTable; the cores of each set of tables are built once, and
    checked once to hold tables of one arity (a ValueError is not kept).
    """
    arities = sorted({len(outs).bit_length() - 1 for outs in outputs})
    if len(arities) != 1:
        raise ValueError(f"a gate stack needs tables of one arity, got arities {arities}")
    return _readonly(np.array([[[o == TRUE for o in outs], [o != TRUE for o in outs]] for outs in outputs], float))


# Fixed-arity names, kept for callers written against them.


def monadic_operator(basis: TruthBasis, table: TruthTable) -> Gate:
    return gate_operator(basis, table)


def dyadic_operator(basis: TruthBasis, table: TruthTable) -> Gate:
    return gate_operator(basis, table)
