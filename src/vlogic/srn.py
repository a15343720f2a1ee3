"""The two generalized square roots of the negation operator.

With alpha = (1+i)/2 and beta = (1-i)/2, the roots of the logical negation
N over any truth basis (orthonormal or not) are

    A = alpha*I + beta*N,    B = beta*I + alpha*N,

where I and N are the generalized logical identity and negation of the
basis. A and B are entrywise conjugates, A^2 = B^2 = N and A B = B A = I.
A is the matrix counterpart of the imaginary unit i; B of -i.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .basis import TruthBasis
from .errors import NoConvergence, NonSquare
from .operators import identity_operator, lift, max_norm, negation_operator


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
    """Named residuals of the defining SRN identities for this basis."""
    ident = identity_operator(basis)
    neg = negation_operator(basis)
    return {
        "A2_minus_N": max_norm(pair.A @ pair.A - neg),
        "B2_minus_N": max_norm(pair.B @ pair.B - neg),
        "AB_minus_I": max_norm(pair.A @ pair.B - ident),
        "BA_minus_I": max_norm(pair.B @ pair.A - ident),
        "A_minus_conj_B": max_norm(pair.A - np.conj(pair.B)),
        "B_minus_NA": max_norm(pair.B - neg @ pair.A),
        "A_minus_NB": max_norm(pair.A - neg @ pair.B),
    }


def eigenvalues(m: np.ndarray) -> list[complex]:
    """Eigenvalues with multiplicity, sorted by (|lambda| desc, arg asc)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {m.shape}")
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    # round inside the key so ties are not broken by last-bit noise
    return sorted(
        (complex(v) for v in vals),
        key=lambda v: (-round(abs(v), 12), round(cmath.phase(v), 12)),
    )
