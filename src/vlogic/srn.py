"""The two generalized square roots of the negation operator.

With alpha = (1+i)/2 and beta = (1-i)/2, the roots of the logical negation
N over any truth basis (orthonormal or not) are

    A = alpha*I + beta*N,    B = beta*I + alpha*N,

where I and N are the gates ID and NOT of the basis. A and B are entrywise
conjugates, A^2 = B^2 = N and A B = B A = I. A is the matrix counterpart of
the imaginary unit i; B of -i.

Over the frame S = [s n] each root is S core Y^T with the 2 x 2 core
alpha*I2 + beta*J (A) or beta*I2 + alpha*J (B), J the swap: `A_CORE` and
`B_CORE`. `factored_roots` keeps each root as the monadic `Gate` of its
core, so A @ v costs O(Q m) for a Q x m block; `sqrt_not` lifts the dense
Q x Q matrices S (core Y^T). `factored_roots` and
`identity_report` take a stack of bases too (`basis.make_basis`), and the
report then has one dict per member.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .basis import TruthBasis, _named, _readonly
from .operators import Gate, _apply, gate_operator, lift
from .scalar_logic import NOT


def solve_srn_coefficients() -> tuple[complex, complex]:
    """Solve the root-coefficient system from scratch.

    Writing A s = alpha*s + beta*n and A n = alpha'*s + beta'*n and imposing
    A(As) = n, A(An) = s forces the symmetric solution alpha' = beta,
    beta' = alpha with alpha^2 + beta^2 = 0 and 2*alpha*beta = 1. Hence
    (alpha + beta)^2 = 1; taking the positive root, alpha and beta are the
    two roots of x^2 - x + 1/2 = 0.
    """
    disc = cmath.sqrt(1 - 4 * 0.5)  # = i
    alpha = (1 + disc) / 2
    beta = (1 - disc) / 2
    if alpha.imag < 0:
        alpha, beta = beta, alpha
    return alpha, beta


ALPHA, BETA = solve_srn_coefficients()


# alpha*I + beta*N has the core alpha*I2 + beta*J over the frame
A_CORE = _readonly(np.array([[ALPHA, BETA], [BETA, ALPHA]]))
B_CORE = _readonly(np.array([[BETA, ALPHA], [ALPHA, BETA]]))


@dataclass(frozen=True)
class SrnPair:
    A: np.ndarray | Gate
    B: np.ndarray | Gate


def sqrt_not(basis: TruthBasis) -> SrnPair:
    """The two roots as dense, read-only Q x Q matrices."""
    return SrnPair(A=_readonly(lift(basis, A_CORE)), B=_readonly(lift(basis, B_CORE)))


def factored_roots(basis: TruthBasis) -> SrnPair:
    """The two roots as monadic Gates of the cores A_CORE and B_CORE: no
    Q x Q matrix. A basis stack gives each member's roots, sharing the cores."""
    return SrnPair(A=Gate(basis, A_CORE), B=Gate(basis, B_CORE))


_IDENTITIES = ("A2_minus_N", "B2_minus_N", "AB_minus_I", "BA_minus_I", "A_minus_conj_B", "B_minus_NA", "A_minus_NB")


def identity_report(pair: SrnPair, basis: TruthBasis) -> dict[str, float] | list[dict[str, float]]:
    """Named residuals of the defining SRN identities for this basis, or for
    each member of a basis stack and its roots.

    The roots may be dense or factored, but each must be S core Y^T with
    S = [s n] and Y^T S = I2, as from `sqrt_not`, `factored_roots` or a lift
    of a core: then both sides of a product identity agree exactly when they
    agree on S (the argument of `verify.tautology_residuals`). A is applied
    to S and then once to the block [A S, B S] side by side, B likewise, and
    the NOT gate once to [S, A S, B S]; I S = S. A - conj(B) is compared on
    the Q x 2 outputs, as A S - conj(B S): Y^T has full row rank, so that is
    zero exactly when the Q x Q difference is. One max-norm of the stacked
    Q x 2 differences reads all seven; factored roots make every product O(Q).
    """
    frame = basis.frame
    roots_s = np.concatenate((_apply(pair.A, frame), _apply(pair.B, frame)), axis=-1)
    a_s, b_s = roots_s[..., :2], roots_s[..., 2:]
    a_roots, b_roots = _apply(pair.A, roots_s), _apply(pair.B, roots_s)  # [A A S, A B S], [B A S, B B S]
    negated = _apply(gate_operator(basis, NOT), np.concatenate((frame, roots_s), axis=-1))
    n_s, n_a_s, n_b_s = negated[..., :2], negated[..., 2:4], negated[..., 4:]
    differences = np.array((
        a_roots[..., :2] - n_s, b_roots[..., 2:] - n_s, a_roots[..., 2:] - frame, b_roots[..., :2] - frame,
        a_s - np.conj(b_s), b_s - n_a_s, a_s - n_b_s,
    ))
    # (7, ..., Q, 2) -> (..., 7)
    return _named(_IDENTITIES, np.abs(differences).max(axis=(-2, -1)).T)
