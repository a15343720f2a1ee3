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
eigenvalues lambda+ = a + b (J = +1, N^m = 1) and lambda- = a - b
(J = -1, N^m = (-1)^m), and each function is evaluated on those two
scalars and lifted back to Q x Q once:

- closed forms, complex128: `logical_exp` is (exp lambda+, exp lambda-),
  `C_of` is (cosh lambda+, cos lambda-), `S_of` is (sinh lambda+,
  sin lambda-);
- the paper's truncated series, the platform-independent oracle:
  `logical_exp_series`, `C_series`, `S_series` and `scalar_exp_series` sum
  term by term in 40-digit `decimal` arithmetic and stop as `SeriesPolicy`
  says (`SeriesNotConverged` if they do not).

Every function takes one Q x Q argument or a stack (..., Q, Q) and
returns the same shape; every slice must lie in span{I, N}.
"""

from __future__ import annotations

import cmath
import decimal
from dataclasses import dataclass, field
from decimal import Decimal
from math import isfinite, pi

import numpy as np

from .basis import TruthBasis
from .errors import NonCommuting, SeriesNotConverged
from .operators import lift, max_norm
from .srn import sqrt_not

COMMUTATOR_TOL = 1e-10


@dataclass(frozen=True)
class SeriesPolicy:
    """Truncation of the series oracles: stop when the added 2x2 core term's
    max-norm < term_tol. The closed forms do not truncate."""

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
    Pi: np.ndarray  # B * i * pi, the matrix stand-in for pi


def make_context(basis: TruthBasis) -> LogicAlgebraContext:
    """Build the context in complex128."""
    pair = sqrt_not(basis)
    ident = lift(basis, np.eye(2, dtype=complex))
    neg = lift(basis, np.array([[0, 1], [1, 0]], dtype=complex))
    return LogicAlgebraContext(basis=basis, I=ident, N=neg, A=pair.A, B=pair.B, Pi=1j * pi * pair.B)


def _core(ctx: LogicAlgebraContext, x):
    """The entries a, b of the core a*I2 + b*J of each Q x Q slice of X.

    The core is Y^T X S symmetrized, (c + J c J)/2, the part of c that
    commutes with J. Only then does the span check see a part of X that
    does not commute with N: the raw projection c reproduces every X inside
    span{s, n}, so X = s y^T (core [[1, 0], [0, 0]]) would pass the check
    and give wrong numbers. Raises NonCommuting if any slice is further
    than COMMUTATOR_TOL * max(1, max-norm of the slice) from span{I, N}:
    the rounding error of the projection grows with |X|.
    """
    x = np.asarray(x, dtype=complex)
    c = ctx.basis.duals @ x @ ctx.basis.frame
    core = (c + c[..., ::-1, ::-1]) / 2
    resid = np.abs(x - lift(ctx.basis, core)).max(axis=(-2, -1))
    if not np.all(resid <= COMMUTATOR_TOL * np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))):
        raise NonCommuting(f"argument is not in span{{I, N}} (distance max-norm {resid.max():.3e})")
    return core[..., 0, 0], core[..., 0, 1]


def _lift_eigen(ctx: LogicAlgebraContext, plus, minus) -> np.ndarray:
    """S (a I2 + b J) Y^T = a I + b N for each slice, the matrix whose core has
    eigenvalues plus = a + b (J = +1) and minus = a - b (J = -1)."""
    core = np.empty(np.shape(plus) + (2, 2), dtype=complex)
    core[..., 0, 0] = core[..., 1, 1] = (plus + minus) / 2
    core[..., 0, 1] = core[..., 1, 0] = (plus - minus) / 2
    return lift(ctx.basis, core)


def logical_exp(ctx: LogicAlgebraContext, g) -> np.ndarray:
    """e^G with the logical identity as zeroth term: exp on each core eigenvalue."""
    a, b = _core(ctx, g)
    return _lift_eigen(ctx, np.exp(a + b), np.exp(a - b))


def C_of(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """C(X) = sum_m N^m X^2m / (2m)!: cosh on lambda+ and cos on lambda-."""
    a, b = _core(ctx, x)
    return _lift_eigen(ctx, np.cosh(a + b), np.cos(a - b))


def S_of(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """S(X) = sum_m N^m X^(2m+1) / (2m+1)!: sinh on lambda+ and sin on lambda-."""
    a, b = _core(ctx, x)
    return _lift_eigen(ctx, np.sinh(a + b), np.sin(a - b))


# The series oracles sum in decimal: partial sums can exceed the result by
# ~9 orders of magnitude at the suite's largest arguments, which 40 digits
# absorb on every platform. The exponent range is the widest decimal has,
# so no term of a finite argument overflows.
_DIGITS = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_ONE = (Decimal(1), Decimal(0))


def _dec(z) -> tuple[Decimal, Decimal]:
    """A finite complex number as an exact (re, im) pair of Decimals."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"series argument is not finite: {z!r}")
    return Decimal(z.real), Decimal(z.imag)


def _mul(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _eigen_series(lam_p, lam_m, kind: str, policy: SeriesPolicy) -> tuple[complex, complex]:
    """The series of kind "exp", "C" or "S" summed on the two core eigenvalues
    (Decimal (re, im) pairs, under the caller's 40-digit context).

    Term j is term j-1 times the step over (e+1)...(e+stride), e being the
    exponent of term j-1. C and S step by lambda^2 on lambda+ and by
    -lambda^2 on lambda- (N^m is 1 and (-1)^m there). The stop rule
    measures the 2x2 core term max(|t+ + t-|, |t+ - t-|) / 2 of each added
    term after the zeroth.
    """
    if kind == "exp":
        (pr, pi_), (mr, mi), exponent, stride = _ONE, _ONE, 0, 1
        (spr, spi), (smr, smi) = lam_p, lam_m
    else:
        (pr, pi_), (mr, mi), exponent = (lam_p, lam_m, 1) if kind == "S" else (_ONE, _ONE, 0)
        (spr, spi), (smr, smi), stride = _mul(lam_p, lam_p), _mul(lam_m, lam_m), 2
        smr, smi = -smr, -smi
    apr, api, amr, ami = pr, pi_, mr, mi
    bound = (2 * Decimal(policy.term_tol)) ** 2
    for _ in range(policy.max_terms):
        d = exponent + 1 if stride == 1 else (exponent + 1) * (exponent + 2)
        exponent += stride
        pr, pi_ = (pr * spr - pi_ * spi) / d, (pr * spi + pi_ * spr) / d
        mr, mi = (mr * smr - mi * smi) / d, (mr * smi + mi * smr) / d
        apr, api, amr, ami = apr + pr, api + pi_, amr + mr, ami + mi
        sr, si, dr, di = pr + mr, pi_ + mi, pr - mr, pi_ - mi
        if sr * sr + si * si < bound and dr * dr + di * di < bound:
            return complex(float(apr), float(api)), complex(float(amr), float(ami))
    raise SeriesNotConverged(f"series still above tol after {policy.max_terms} terms")


def _series(ctx: LogicAlgebraContext, x, kind: str, policy: SeriesPolicy) -> np.ndarray:
    a, b = _core(ctx, x)
    plus, minus = np.empty(a.shape, complex), np.empty(a.shape, complex)
    with decimal.localcontext(_DIGITS):
        for i in np.ndindex(a.shape):
            ad, bd = _dec(a[i]), _dec(b[i])
            lam_p, lam_m = (ad[0] + bd[0], ad[1] + bd[1]), (ad[0] - bd[0], ad[1] - bd[1])
            plus[i], minus[i] = _eigen_series(lam_p, lam_m, kind, policy)
    return _lift_eigen(ctx, plus, minus)


def logical_exp_series(
    ctx: LogicAlgebraContext, g, policy: SeriesPolicy = DEFAULT_POLICY
) -> np.ndarray:
    """e^G as the paper's truncated series, the oracle for `logical_exp`."""
    return _series(ctx, g, "exp", policy)


def C_series(ctx: LogicAlgebraContext, x, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    """C(X) as the paper's truncated series, the oracle for `C_of`."""
    return _series(ctx, x, "C", policy)


def S_series(ctx: LogicAlgebraContext, x, policy: SeriesPolicy = DEFAULT_POLICY) -> np.ndarray:
    """S(X) as the paper's truncated series, the oracle for `S_of`."""
    return _series(ctx, x, "S", policy)


def scalar_exp_series(x: complex, policy: SeriesPolicy = DEFAULT_POLICY) -> complex:
    """The plain scalar exponential series under the same truncation policy:
    the exp series on the core x*I2, whose two eigenvalues are both x, so its
    core term norm is |t|."""
    with decimal.localcontext(_DIGITS):
        lam = _dec(x)
        return _eigen_series(lam, lam, "exp", policy)[0]


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

    The closed forms run on the stack of all samples at once, and each
    identity is one stacked product ((e) and (f): one per sample a; (h): one
    per k).

    Raises ValueError for a k that is not a non-negative integer, and for a
    v whose argument w = Pi v, Pi k v or Pi (va + vb) is not finite
    or so large that its rounding error |w| 2^-52 is not below tol.
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
            raise ValueError(f"argument Pi*{label} is not finite at {label} = {w!r}")
    for label, w in arguments:
        if not abs(w) * pi_norm * 2.0**-52 < tol:
            raise ValueError(
                f"argument Pi*{label} at {label} = {w!r} is too large: "
                f"its rounding error |Pi*{label}| * 2^-52 is not below tol = {tol!r}"
            )

    v = np.array(v_samples)
    x = ctx.Pi * v[:, None, None]
    c, s = C_of(ctx, x), S_of(ctx, x)
    ax = ctx.A @ x
    e_pos, e_neg = logical_exp(ctx, ax), logical_exp(ctx, -ax)
    c_plus_as = c + ctx.A @ s
    res = {
        "a": max_norm(e_pos - c_plus_as),
        "b": max_norm(c @ c - ctx.N @ s @ s - ctx.I),
        "c": max_norm(c - 0.5 * (e_pos + e_neg)),
        "d": max_norm(s - 0.5 * ctx.B @ (e_pos - e_neg)),
        "e": 0.0,
        "f": 0.0,
        "h": 0.0,
    }
    for k in ks:
        xk = ctx.Pi * (k * v)[:, None, None]
        power = ctx.I if k == 0 else np.linalg.matrix_power(c_plus_as, k)
        res["h"] = max(res["h"], max_norm(power - (C_of(ctx, xk) + ctx.A @ S_of(ctx, xk))))
    # one sample a at a time, so memory stays O(len(v) Q^2)
    for i, va in enumerate(v):
        xs = ctx.Pi * (va + v)[:, None, None]
        res["e"] = max(res["e"], max_norm(C_of(ctx, xs) - (c[i] @ c + ctx.N @ s[i] @ s)))
        res["f"] = max(res["f"], max_norm(S_of(ctx, xs) - (s[i] @ c + s @ c[i])))
    res["g"] = max_norm(logical_exp(ctx, ctx.A @ ctx.Pi) + ctx.I)

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
