"""The two generalized square roots of the negation operator.

With alpha = (1+i)/2 and beta = (1-i)/2, the roots of the logical negation
N over any truth basis (orthonormal or not) are

    A = alpha*I + beta*N,    B = beta*I + alpha*N,

where I and N are the gates ID and NOT of the basis. A and B are entrywise
conjugates, A^2 = B^2 = N and A B = B A = I. A is the matrix counterpart of
the imaginary unit i; B of -i.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .basis import TruthBasis
from .operators import gate_operator, lift, max_norm
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


@dataclass(frozen=True)
class SrnPair:
    A: np.ndarray
    B: np.ndarray


def sqrt_not(basis: TruthBasis) -> SrnPair:
    # alpha*I + beta*N has the core alpha*I2 + beta*J over the frame
    a = lift(basis, np.array([[ALPHA, BETA], [BETA, ALPHA]]))
    b = lift(basis, np.array([[BETA, ALPHA], [ALPHA, BETA]]))
    a.setflags(write=False)
    b.setflags(write=False)
    return SrnPair(A=a, B=b)


def identity_report(pair: SrnPair, basis: TruthBasis) -> dict[str, float]:
    """Named residuals of the defining SRN identities for this basis.

    The roots must come from `sqrt_not` or a context: then A, B, I and N
    are each S core Y^T with S = [s n] and Y^T S = I2, so both sides of a
    product identity agree exactly when they agree on S (the argument of
    `verify.tautology_residuals`). Both are applied to S, with I S = S and
    N the NOT gate, applied once to [S, A S, B S] side by side, in O(Q^2);
    A - conj(B) is compared entrywise."""
    frame = basis.frame
    a_s, b_s = pair.A @ frame, pair.B @ frame
    negated = gate_operator(basis, NOT) @ np.hstack((frame, a_s, b_s))
    n_s, n_a_s, n_b_s = negated[:, :2], negated[:, 2:4], negated[:, 4:]
    return {
        "A2_minus_N": max_norm(pair.A @ a_s - n_s),
        "B2_minus_N": max_norm(pair.B @ b_s - n_s),
        "AB_minus_I": max_norm(pair.A @ b_s - frame),
        "BA_minus_I": max_norm(pair.B @ a_s - frame),
        "A_minus_conj_B": max_norm(pair.A - np.conj(pair.B)),
        "B_minus_NA": max_norm(b_s - n_a_s),
        "A_minus_NB": max_norm(a_s - n_b_s),
    }
