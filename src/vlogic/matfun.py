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

A product in span{I, N} is the elementwise product of eigenvalue pairs, so
`verify_euler_suite` and `scalar_exp_residual` check their identities on
(..., 2) pair arrays with the pair functions the closed forms use
(`_exp_pair`, `_C_pair`, `_S_pair`). They read I, N, A, B and Pi from the
context through the cores Y^T M S of its dense fields and build no Q x Q
matrix; dense stacks come only from the public functions. For a residual
core a I2 + b J they report K max(|a|, |b|), with
K = max_i (|s_i| + |n_i|) max_j (|y_j| + |z_j|): never below the max-norm of
the lifted residual a I + b N, though no bound on the residual of dense
Q x Q products, which round on their own.
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


def _symmetric_core(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """The symmetrized core (c + J c J)/2, c = Y^T X S, of each Q x Q slice
    of X (see `_core`), in O(Q^2) per slice with no Q x Q temporary."""
    c = ctx.basis.duals @ x @ ctx.basis.frame
    return (c + c[..., ::-1, ::-1]) / 2


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
    core = _symmetric_core(ctx, x)
    resid = np.abs(x - lift(ctx.basis, core)).max(axis=(-2, -1))
    if not np.all(resid <= COMMUTATOR_TOL * np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))):
        raise NonCommuting(f"argument is not in span{{I, N}} (distance max-norm {resid.max():.3e})")
    return core[..., 0, 0], core[..., 0, 1]


def _pairs(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """The eigenvalue pairs (a + b, a - b) of the cores of X, shape (..., 2)."""
    a, b = _core(ctx, x)
    return np.stack([a + b, a - b], axis=-1)


def _context_pairs(ctx: LogicAlgebraContext) -> np.ndarray:
    """The eigenvalue pairs of the context's I, N, A, B and Pi, shape (5, 2),
    read from their dense fields through the symmetrized core, so a wrong
    context shows in every residual computed from them. No span check: it
    would need the Q x Q lift; the dense public functions make it."""
    core = np.stack([_symmetric_core(ctx, m) for m in (ctx.I, ctx.N, ctx.A, ctx.B, ctx.Pi)])
    a, b = core[:, 0, 0], core[:, 0, 1]
    return np.stack([a + b, a - b], axis=-1)


def _lift_eigen(ctx: LogicAlgebraContext, lam) -> np.ndarray:
    """S (a I2 + b J) Y^T = a I + b N for each pair lam = (a + b, a - b)
    (..., 2), the matrix whose core has eigenvalues lambda+ (J = +1) and
    lambda- (J = -1)."""
    core = np.empty(lam.shape[:-1] + (2, 2), dtype=complex)
    core[..., 0, 0] = core[..., 1, 1] = (lam[..., 0] + lam[..., 1]) / 2
    core[..., 0, 1] = core[..., 1, 0] = (lam[..., 0] - lam[..., 1]) / 2
    return lift(ctx.basis, core)


def _exp_pair(lam: np.ndarray) -> np.ndarray:
    return np.exp(lam)


def _C_pair(lam: np.ndarray) -> np.ndarray:
    return np.stack([np.cosh(lam[..., 0]), np.cos(lam[..., 1])], axis=-1)


def _S_pair(lam: np.ndarray) -> np.ndarray:
    return np.stack([np.sinh(lam[..., 0]), np.sin(lam[..., 1])], axis=-1)


def logical_exp(ctx: LogicAlgebraContext, g) -> np.ndarray:
    """e^G with the logical identity as zeroth term: exp on each core eigenvalue."""
    return _lift_eigen(ctx, _exp_pair(_pairs(ctx, g)))


def C_of(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """C(X) = sum_m N^m X^2m / (2m)!: cosh on lambda+ and cos on lambda-."""
    return _lift_eigen(ctx, _C_pair(_pairs(ctx, x)))


def S_of(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """S(X) = sum_m N^m X^(2m+1) / (2m+1)!: sinh on lambda+ and sin on lambda-."""
    return _lift_eigen(ctx, _S_pair(_pairs(ctx, x)))


def _lift_bound(basis: TruthBasis) -> float:
    """K = max_i (|s_i| + |n_i|) max_j (|y_j| + |z_j|), so that the max-norm
    of S (a I2 + b J) Y^T is at most K max(|a|, |b|): entry (i, j) is
    s_i (a y_j + b z_j) + n_i (b y_j + a z_j)."""
    return float(np.abs(basis.frame).sum(axis=1).max() * np.abs(basis.duals).sum(axis=0).max())


def _pair_residual(bound: float, d: np.ndarray) -> np.ndarray:
    """bound * max(|a|, |b|) for each pair d = (a + b, a - b) (..., 2): with
    bound = _lift_bound(basis), never below the max-norm of the lifted d."""
    return bound * np.maximum(np.abs(d[..., 0] + d[..., 1]), np.abs(d[..., 0] - d[..., 1])) / 2


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
    lam = np.empty(a.shape + (2,), complex)
    with decimal.localcontext(_DIGITS):
        for i in np.ndindex(a.shape):
            ad, bd = _dec(a[i]), _dec(b[i])
            lam_p, lam_m = (ad[0] + bd[0], ad[1] + bd[1]), (ad[0] - bd[0], ad[1] - bd[1])
            lam[i] = _eigen_series(lam_p, lam_m, kind, policy)
    return _lift_eigen(ctx, lam)


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

    Every value lies in span{I, N}, so the suite runs on eigenvalue pairs
    (lambda+, lambda-), where products are elementwise: I, N, A, B and Pi
    are the pairs of the cores of the context's dense fields, the pair
    functions of `logical_exp`, `C_of` and `S_of` evaluate all samples at
    once, and no Q x Q matrix is built. Each residual is the bound K max(|a|, |b|)
    on the max-norm of the lifted residual a I + b N (K from the basis, see
    `_lift_bound`). The bound is never below the exact max-norm of the
    lifted residual, so no check is looser; it is no bound on the residual
    of dense Q x Q products, which carry rounding of their own.
    metadata["worst_argument"] names the argument of each identity's worst
    residual: {"v": v}, {"k": k, "v": v} or {"va": va, "vb": vb}.

    Raises ValueError for a tol that is not finite and positive, for a k
    that is not a non-negative integer, and for a v whose argument
    w = Pi v, Pi k v or Pi (va + vb) is not finite or so large that its
    rounding error |w| 2^-52 is not below tol.
    """
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
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

    bound = _lift_bound(ctx.basis)
    I, N, A, B, Pi = _context_pairs(ctx)
    v = np.array(v_samples)
    x = Pi * v[:, None]
    c, s = _C_pair(x), _S_pair(x)
    e_pos, e_neg = _exp_pair(A * x), _exp_pair(-A * x)
    c_plus_as = c + A * s
    # k along axis 0, v along axis 1, and I X^k is I at k = 0;
    # (e), (f): va along axis 0, vb along axis 1
    k = np.array(ks)[:, None, None]
    xk = Pi * (k * v[:, None])
    xs = Pi * (v[:, None] + v[None, :])[..., None]
    ca, cb, sa, sb = c[:, None], c[None, :], s[:, None], s[None, :]
    by_v = {"v": v_samples}
    by_kv = {"k": ks, "v": v_samples}
    by_ab = {"va": v_samples, "vb": v_samples}
    residuals = {
        "a_exp_equals_C_plus_AS": (e_pos - c_plus_as, by_v),
        "b_C2_minus_NS2_is_I": (c * c - N * s * s - I, by_v),
        "c_C_from_exponentials": (c - 0.5 * (e_pos + e_neg), by_v),
        "d_S_from_exponentials": (s - 0.5 * B * (e_pos - e_neg), by_v),
        "e_cosine_addition": (_C_pair(xs) - (ca * cb + N * sa * sb), by_ab),
        "f_sine_addition": (_S_pair(xs) - (sa * cb + sb * ca), by_ab),
        "g_great_euler": (_exp_pair(A * Pi)[None] + I, {"v": [1.0]}),
        "h_de_moivre": (c_plus_as**k * I - (_C_pair(xk) + A * _S_pair(xk)), by_kv),
    }
    named, worst = {}, {}
    for name, (d, axes) in residuals.items():
        r = _pair_residual(bound, d)
        named[name], worst[name] = 0.0, None
        if r.size:
            i = np.unravel_index(np.argmax(r), r.shape)
            named[name] = float(r[i])
            worst[name] = {label: values[j] for (label, values), j in zip(axes.items(), i)}
    return IdentityReport(
        residuals=named,
        tolerance=tol,
        metadata={"v_samples": v_samples, "ks": ks, "dim": ctx.basis.dim, "worst_argument": worst},
    )


def scalar_exp_residual(ctx: LogicAlgebraContext, v_samples, scalars) -> float:
    """The largest residual of logical_exp(A Pi v) = scalar I over the pairs
    (v, scalar) of v_samples and scalars, with the suite's bound and on its
    eigenvalue pairs of the context's I, A and Pi: no Q x Q matrix."""
    I, _, A, _, Pi = _context_pairs(ctx)
    v = np.array(v_samples, dtype=float)
    d = _exp_pair(A * Pi * v[:, None]) - np.array(scalars, dtype=complex)[:, None] * I
    return float(_pair_residual(_lift_bound(ctx.basis), d).max())
