"""Fully matrix Euler machinery: logical exponential, C(X), S(X), and Pi.

The logical exponential is the power series e^G = I + G + G^2/2! + ...
whose zeroth term is the LOGICAL identity I (rank 2 for Q > 2), not the
full matrix identity. This differs from the standard matrix exponential
and is what makes the calculus close: e^O = I and e^{A Pi} + I = O (the
matrix Great Euler Equation, at scalar parameter v = 1).

C and S replace the -1 in the cosine/sine series by the negation matrix:

    C(X) = I + N X^2/2! + X^4/4! + N X^6/6! + ...
    S(X) = X + N X^3/3! + X^5/5! + N X^7/7! + ...

(N^m collapses to I or N since N^2 = I), giving e^{AX} = C(X) + A S(X)
whenever the argument lies in span{I, N}. With Pi = B*i*pi one gets
C(Pi v) = cos(pi v) I and S(Pi v) = i sin(pi v) B.

span{I, N} = {S (a I2 + b J) Y^T} with S = [s n], Y = [y z] and J the 2x2
swap. Every core a I2 + b J is diagonal in the 2x2 Hadamard basis, with
eigenvalues a + b (J = +1) and a - b (J = -1), so each series is summed term
by term on those two scalars (N^m becomes 1 and (-1)^m) and lifted back to
Q x Q once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, pi

import numpy as np

from .basis import TruthBasis
from .errors import NonCommuting, SeriesNotConverged
from .operators import lift, max_norm
from .srn import sqrt_not

COMMUTATOR_TOL = 1e-10


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation control: stop when the added 2x2 core term's max-norm < term_tol."""

    term_tol: float = 1e-16
    max_terms: int = 64

    def __post_init__(self):
        if self.term_tol <= 0:
            raise ValueError("term_tol must be positive")
        if self.max_terms < 8:
            raise ValueError("max_terms must be >= 8")


DEFAULT_POLICY = SeriesPolicy()


@dataclass(frozen=True)
class LogicAlgebraContext:
    """A basis together with its logical I, N, the two SRNs, and Pi."""

    basis: TruthBasis
    I: np.ndarray
    N: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Pi: np.ndarray


def make_context(basis: TruthBasis) -> LogicAlgebraContext:
    """Build the context in complex128; the series never multiply these matrices."""
    pair = sqrt_not(basis)
    ident = lift(basis, np.eye(2, dtype=complex))
    neg = lift(basis, np.array([[0, 1], [1, 0]], dtype=complex))
    return LogicAlgebraContext(basis=basis, I=ident, N=neg, A=pair.A, B=pair.B, Pi=1j * pi * pair.B)


def pi_matrix(ctx: LogicAlgebraContext) -> np.ndarray:
    """Pi = B * i * pi, the matrix stand-in for pi."""
    return ctx.Pi


# Series are accumulated in extended precision: partial sums can exceed the
# final value by many orders of magnitude (e.g. C(Pi v) at large v), and
# double-precision terms would cap the achievable residual near 1e-7.
_ACC_DTYPE = np.clongdouble


def _eigenvalues(ctx: LogicAlgebraContext, x):
    """The eigenvalues a + b and a - b of the core a*I2 + b*J of X in span{I, N}.

    The core comes from Y^T X S symmetrized: the rounding of Y^T X S does not
    commute with J, and the series would amplify it by its largest term
    (~1e9 at X = 7.5 Pi). The 2x2 Hadamard matrix diagonalizes every such
    core, with J = +1 on the first eigenvector and -1 on the second.
    """
    x = np.asarray(x, dtype=complex)
    c = ctx.basis.duals @ x @ ctx.basis.frame
    core = (c + c[::-1, ::-1]) / 2  # (c + J c J) / 2 = a I2 + b J
    resid = max_norm(x - lift(ctx.basis, core))
    if not resid <= COMMUTATOR_TOL:
        raise NonCommuting(f"argument is not in span{{I, N}} (distance max-norm {resid:.3e})")
    a, b = _ACC_DTYPE(core[0, 0]), _ACC_DTYPE(core[0, 1])
    return a + b, a - b


def _lift_eigen(ctx: LogicAlgebraContext, plus, minus) -> np.ndarray:
    """S (a I2 + b J) Y^T = a I + b N, the Q x Q matrix whose core has
    eigenvalues plus = a + b (J = +1) and minus = a - b (J = -1)."""
    a, b = (plus + minus) / 2, (plus - minus) / 2
    return lift(ctx.basis, np.array([[a, b], [b, a]], dtype=complex))


def _core_term_norm(plus, minus) -> float:
    """Max-norm of the 2x2 core term whose eigenvalues are plus and minus."""
    return max(abs(plus + minus), abs(plus - minus)) / 2


def logical_exp(
    ctx: LogicAlgebraContext, g: np.ndarray, policy: SeriesPolicy = DEFAULT_POLICY
) -> np.ndarray:
    """e^G with the logical identity as zeroth term, truncated per policy."""
    lam_p, lam_m = _eigenvalues(ctx, g)
    acc_p = acc_m = _ACC_DTYPE(1.0)
    term_p, term_m = lam_p, lam_m
    for k in range(1, policy.max_terms + 1):
        acc_p += term_p
        acc_m += term_m
        if _core_term_norm(term_p, term_m) < policy.term_tol:
            return _lift_eigen(ctx, acc_p, acc_m)
        term_p = term_p * lam_p / (k + 1)
        term_m = term_m * lam_m / (k + 1)
    raise SeriesNotConverged(f"series still above tol after {policy.max_terms} terms")


def _even_odd_series(ctx, x, policy, odd: bool) -> np.ndarray:
    """Sum_{m>=0} N^m X^{2m+r} / (2m+r)! with r = 1 for odd, else 0.

    N^m is 1 on the J = +1 eigenvalue and (-1)^m on the J = -1 one, so the
    second eigenvalue's powers step by -lambda^2; the m = 0 even term is the
    logical identity itself.
    """
    lam_p, lam_m = _eigenvalues(ctx, x)
    step_p, step_m = lam_p * lam_p, -(lam_m * lam_m)
    # X^{2m+r} N^m on each eigenvalue, built incrementally
    power_p, power_m = (lam_p, lam_m) if odd else (_ACC_DTYPE(1.0), _ACC_DTYPE(1.0))
    acc_p, acc_m = power_p, power_m
    coef = _ACC_DTYPE(1.0)
    exponent = 1 if odd else 0
    for _ in range(policy.max_terms):
        power_p = power_p * step_p
        power_m = power_m * step_m
        coef /= (exponent + 1) * (exponent + 2)
        exponent += 2
        term_p, term_m = coef * power_p, coef * power_m
        acc_p += term_p
        acc_m += term_m
        if _core_term_norm(term_p, term_m) < policy.term_tol:
            return _lift_eigen(ctx, acc_p, acc_m)
    raise SeriesNotConverged(f"series still above tol after {policy.max_terms} terms")


def C_of(ctx: LogicAlgebraContext, x, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    return _even_odd_series(ctx, x, policy, odd=False)


def S_of(ctx: LogicAlgebraContext, x, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    return _even_odd_series(ctx, x, policy, odd=True)


def scalar_exp_series(x: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> complex:
    """The plain scalar exponential series under the same truncation policy."""
    acc = _ACC_DTYPE(1.0)
    term = _ACC_DTYPE(x)
    for k in range(1, policy.max_terms + 1):
        acc += term
        if abs(term) < policy.term_tol:
            return complex(acc)
        term = term * x / (k + 1)
    raise SeriesNotConverged(f"series still above tol after {policy.max_terms} terms")


@dataclass(frozen=True)
class IdentityReport:
    """Named max-norm residuals from a verification run."""

    residuals: dict[str, float]
    tolerance: float
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r < self.tolerance for r in self.residuals.values())

    def entries(self) -> list[dict]:
        return [
            {"identity": name, "residual": r, "pass": bool(r < self.tolerance)}
            for name, r in self.residuals.items()
        ]


def verify_euler_suite(
    ctx: LogicAlgebraContext,
    v_samples,
    ks=(2, 3, 5),
    policy: SeriesPolicy = DEFAULT_POLICY,
    tol: float = 1e-8,
) -> IdentityReport:
    """Max-norm residuals of the full identity list over the given samples.

    (a) e^{AX} = C(X) + A S(X) at X = Pi v
    (b) C(Pi v)^2 - N S(Pi v)^2 = I
    (c) C(Pi v) = (e^{A Pi v} + e^{-A Pi v}) / 2
    (d) S(Pi v) = B (e^{A Pi v} - e^{-A Pi v}) / 2
    (e) C(Pi a + Pi b) = C(Pi a) C(Pi b) + N S(Pi a) S(Pi b)
    (f) S(Pi a + Pi b) = S(Pi a) C(Pi b) + S(Pi b) C(Pi a)
    (g) e^{A Pi} + I = O (Great Euler Equation, v = 1)
    (h) (C(Pi v) + A S(Pi v))^k = C(Pi k v) + A S(Pi k v), integer k >= 0;
        the zeroth power is the logical identity I, as in e^G

    Raises ValueError for a k that is not a non-negative integer, and for a
    v whose series argument Pi v, Pi k v or Pi (va + vb) is not finite.
    """
    v_samples = [float(v) for v in v_samples]
    for k in ks:
        if not (k >= 0 and float(k).is_integer()):
            raise ValueError(f"k must be a non-negative integer, got {k!r}")
    ks = [int(k) for k in ks]
    # Python floats overflow to inf without a warning, unlike numpy arrays
    pi_norm = max_norm(ctx.Pi)
    arguments = [("v", v) for v in v_samples]
    arguments += [("k*v", k * v) for k in ks for v in v_samples]
    arguments += [("va+vb", va + vb) for va in v_samples for vb in v_samples]
    for label, w in arguments:
        if not isfinite(w * pi_norm):
            raise ValueError(f"series argument Pi*{label} is not finite at {label} = {w!r}")
    res = {name: 0.0 for name in "abcdefh"}

    cache = {}

    def csx(v):
        if v not in cache:
            x = ctx.Pi * v
            cache[v] = (C_of(ctx, x, policy), S_of(ctx, x, policy))
        return cache[v]

    for v in v_samples:
        x = ctx.Pi * v
        c, s = csx(v)
        e_pos = logical_exp(ctx, ctx.A @ x, policy)
        e_neg = logical_exp(ctx, -(ctx.A @ x), policy)
        res["a"] = max(res["a"], max_norm(e_pos - (c + ctx.A @ s)))
        res["b"] = max(res["b"], max_norm(c @ c - ctx.N @ s @ s - ctx.I))
        res["c"] = max(res["c"], max_norm(c - 0.5 * (e_pos + e_neg)))
        res["d"] = max(res["d"], max_norm(s - 0.5 * ctx.B @ (e_pos - e_neg)))
        for k in ks:
            ck, sk = csx(k * v)
            power = ctx.I if k == 0 else np.linalg.matrix_power(c + ctx.A @ s, k)
            res["h"] = max(res["h"], max_norm(power - (ck + ctx.A @ sk)))

    for va in v_samples:
        for vb in v_samples:
            ca, sa = csx(va)
            cb, sb = csx(vb)
            csum, ssum = csx(va + vb)
            res["e"] = max(res["e"], max_norm(csum - (ca @ cb + ctx.N @ sa @ sb)))
            res["f"] = max(res["f"], max_norm(ssum - (sa @ cb + sb @ ca)))

    res["g"] = max_norm(logical_exp(ctx, ctx.A @ ctx.Pi, policy) + ctx.I)

    named = {
        "a_exp_equals_C_plus_AS": res["a"],
        "b_C2_minus_NS2_is_I": res["b"],
        "c_C_from_exponentials": res["c"],
        "d_S_from_exponentials": res["d"],
        "e_cosine_addition": res["e"],
        "f_sine_addition": res["f"],
        "g_great_euler": res["g"],
        "h_de_moivre": res["h"],
    }
    return IdentityReport(
        residuals=named,
        tolerance=tol,
        metadata={"v_samples": v_samples, "ks": ks, "dim": ctx.basis.dim},
    )
