"""Fully matrix Euler machinery: logical exponential, C(X), S(X), and Pi.

The logical exponential is the power series e^G = I + G + G^2/2! + ...
whose zeroth term is the LOGICAL identity I (rank 2 for Q > 2), not the
full matrix identity. This is what makes the calculus close: e^O = I and
e^{A Pi} + I = O (the matrix Great Euler Equation, at scalar parameter
v = 1).

C and S replace the -1 in the cosine/sine series by the negation matrix:

    C(X) = I + N X^2/2! + X^4/4! + N X^6/6! + ...
    S(X) = X + N X^3/3! + X^5/5! + N X^7/7! + ...

(N^m collapses to I or N since N^2 = I), giving e^{AX} = C(X) + A S(X)
whenever the argument lies in span{I, N}. With Pi = B*i*pi one gets
C(Pi v) = cos(pi v) I and S(Pi v) = i sin(pi v) B.

span{I, N} = {S (a I2 + b J) Y^T} with S = [s n], Y = [y z] and J the 2x2
swap. Each function is evaluated on the core's eigenvalues
lambda+ = a + b and lambda- = a - b and lifted back to Q x Q once, as
lambda+ P+ + lambda- P- with P+- = (I2 +- J)/2 the spectral projectors of J.
`logical_exp`, `C_of` and `S_of` are complex128 closed forms;
`logical_exp_series`, `C_series`, `S_series` and `scalar_exp_series` are
the paper's truncated series summed in 40-digit `decimal` on the same
float eigenvalues, the platform-independent oracle, and refuse
|lambda| > 50 (`SeriesNotConverged`). Each takes one Q x Q argument or a
stack (..., Q, Q), finite and with finite eigenvalues (else ValueError),
every slice in span{I, N} (else `NonCommuting`). The closed forms also
raise ValueError where the result overflows, as e^1000 does.

A context holds its basis and one read-only array of the eigenvalue pairs
of I, N, A, B and Pi, computed at import, and lifts a dense Q x Q field
only when it is read. `verify_euler_suite` and `scalar_exp_residual` check
on the pairs and build no Q x Q matrix. For a residual core a I2 + b J
they report K max(|a|, |b|), K = max_i (|s_i| + |n_i|) max_j (|y_j| + |z_j|),
never below the max-norm of the lifted residual a I + b N.
"""

from __future__ import annotations

import cmath
import decimal
from dataclasses import dataclass, field
from decimal import Decimal
from functools import cached_property, lru_cache
from itertools import repeat
from math import isfinite, pi
from numbers import Real
from operator import lt

import numpy as np

from .basis import TruthBasis, _readonly
from .errors import DimensionMismatch, NonCommuting, SeriesNotConverged
from .operators import lift
from .srn import A_CORE, B_CORE

COMMUTATOR_TOL = 1e-10

# The Euler suite's samples of the scalar parameter v, its integer powers k
# for (h), and its pass threshold.
EULER_V_SAMPLES = (0.0, 0.25, 0.5, 1.0, 1.5, -0.75)
EULER_KS = (2, 3, 5)
IDENTITY_TOL = 1e-8


def _eigenpairs(core: np.ndarray) -> np.ndarray:
    """(a + b, a - b) for each 2 x 2 core c, shape (..., 2): the eigenvalues
    of a I2 + b J = (c + J c J) / 2, the part of c that commutes with J."""
    c = (core + core[..., ::-1, ::-1]) / 2
    a, b = c[..., 0, 0], c[..., 0, 1]
    return np.stack([a + b, a - b], axis=-1)


# The eigenvalue pairs of I, N, A, B and Pi over every basis, from their
# cores: I2 and the swap J (the gates ID and NOT), A_CORE, B_CORE and
# B_CORE * i * pi, the core of the matrix stand-in for pi.
_PAIRS = _readonly(_eigenpairs(np.stack((np.eye(2), np.eye(2)[::-1], A_CORE, B_CORE, 1j * pi * B_CORE))))


def _lifted(row: int) -> cached_property:
    """The dense, read-only Q x Q lift of the context's pair `row`, built on first read and kept."""
    return cached_property(lambda ctx: _readonly(_lift_eigen(ctx, ctx.pairs[row])))


@dataclass(frozen=True)
class LogicAlgebraContext:
    """A basis with the eigenvalue pairs, shape (5, 2), of the logical I, N,
    the two SRNs A and B, and Pi: each matrix is [s n] (a I2 + b J) [y z]^T
    for its pair (a + b, a - b).

    .I, .N, .A, .B and .Pi are the dense, read-only Q x Q lifts, built on
    first read and kept; the Euler suite and the scalar oracle read only the
    pairs and the bound K, computed once. A context with a wrong pair is
    wrong in all of them.
    """

    basis: TruthBasis
    pairs: np.ndarray

    I = _lifted(0)
    N = _lifted(1)
    A = _lifted(2)
    B = _lifted(3)
    Pi = _lifted(4)
    _bound = cached_property(lambda ctx: _lift_bound(ctx.basis))


def make_context(basis: TruthBasis) -> LogicAlgebraContext:
    """The context of one basis: its pairs, read-only, are the same for
    every basis. A basis stack raises DimensionMismatch."""
    if basis.frame.ndim != 2:
        raise DimensionMismatch(f"make_context takes one basis, not a stack of frames {basis.frame.shape}")
    return LogicAlgebraContext(basis, _PAIRS)


def _pairs(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """The eigenvalue pairs of the cores Y^T X S of X, shape (..., 2).

    X is checked against the lift of its pairs, not of its raw core, which
    reproduces every X inside span{s, n}, s y^T too. Raises
    DimensionMismatch unless X is Q x Q or (..., Q, Q), ValueError if an
    entry or an eigenvalue is not finite, and NonCommuting if any slice is
    further than COMMUTATOR_TOL * max(1, max-norm of the slice) from
    span{I, N}: the rounding error of the projection grows with |X|.
    """
    x = np.asarray(x, dtype=complex)
    q = ctx.basis.dim
    if x.ndim < 2 or x.shape[-2:] != (q, q):
        raise DimensionMismatch(f"argument must be {q}x{q} or a stack (..., {q}, {q}), got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("argument has an entry that is not finite")
    # O(Q^2) per slice with no Q x Q temporary; near the float limit the
    # projection of a finite X can overflow, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        lam = _eigenpairs(ctx.basis.duals @ x @ ctx.basis.frame)
    if not np.isfinite(lam).all():
        raise ValueError("argument has an eigenvalue that is not finite: its core Y^T X S overflows")
    resid = np.abs(x - _lift_eigen(ctx, lam)).max(axis=(-2, -1))
    if not np.all(resid <= COMMUTATOR_TOL * np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))):
        raise NonCommuting(f"argument is not in span{{I, N}} (distance max-norm {resid.max():.3e})")
    return lam


# J's spectral projectors P+ = (I2 + J)/2 and P- = (I2 - J)/2
_PROJECTORS = _readonly(np.array([[[1.0, 1.0], [1.0, 1.0]], [[1.0, -1.0], [-1.0, 1.0]]]) / 2)


def _lift_eigen(ctx: LogicAlgebraContext, lam) -> np.ndarray:
    """The lift of lambda+ P+ + lambda- P- = a I2 + b J for each pair
    lam = (a + b, a - b) (..., 2)."""
    return lift(ctx.basis, (lam[..., None, None] * _PROJECTORS).sum(axis=-3))


def _C_pair(lam: np.ndarray) -> np.ndarray:
    return np.stack([np.cosh(lam[..., 0]), np.cos(lam[..., 1])], axis=-1)


def _S_pair(lam: np.ndarray) -> np.ndarray:
    return np.stack([np.sinh(lam[..., 0]), np.sin(lam[..., 1])], axis=-1)


def _closed_form(ctx: LogicAlgebraContext, f, x) -> np.ndarray:
    """The lift of f on the eigenvalue pairs of X. Raises ValueError where
    the result is not finite, as where e^lambda or cosh overflows or the
    lift of a finite value does, instead of returning inf and NaN entries."""
    lam = _pairs(ctx, x)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _lift_eigen(ctx, f(lam))
    if not np.isfinite(out).all():
        raise ValueError("the result is not finite: a function value of an eigenvalue, or its lift, overflows")
    return out


def logical_exp(ctx: LogicAlgebraContext, g) -> np.ndarray:
    """e^G with the logical identity as zeroth term: exp on each core eigenvalue."""
    return _closed_form(ctx, np.exp, g)


def C_of(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """C(X) = sum_m N^m X^2m / (2m)!: cosh on lambda+ and cos on lambda-."""
    return _closed_form(ctx, _C_pair, x)


def S_of(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """S(X) = sum_m N^m X^(2m+1) / (2m+1)!: sinh on lambda+ and sin on lambda-."""
    return _closed_form(ctx, _S_pair, x)


def _lift_bound(basis: TruthBasis) -> float:
    """K = max_i (|s_i| + |n_i|) max_j (|y_j| + |z_j|), so that the max-norm
    of S (a I2 + b J) Y^T is at most K max(|a|, |b|): entry (i, j) is
    s_i (a y_j + b z_j) + n_i (b y_j + a z_j)."""
    return float(np.abs(basis.frame).sum(axis=1).max() * np.abs(basis.duals).sum(axis=0).max())


def _pair_residual(bound: float, d: np.ndarray) -> np.ndarray:
    """bound * max(|a|, |b|) for each pair d = (a + b, a - b) (..., 2): with
    bound = _lift_bound(basis), never below the max-norm of the lifted d."""
    return bound * np.maximum(np.abs(d[..., 0] + d[..., 1]), np.abs(d[..., 0] - d[..., 1])) / 2


# The series oracles sum in decimal: the partial sums of a truncated Taylor
# series reach e^|lambda|, ~1e10 at the suite's largest argument (7.5 pi).
# 40 digits keep ~18 digits after the point up to e^50 ~ 5e21 on every
# platform, hence the bound. The exponent range is the widest decimal has,
# so no term underflows before the stop rule.
_DIGITS = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_TERM_TOL = 1e-16  # stop once the added 2x2 core term's max-norm is below
_MAX_EIGENVALUE = 50
_ONE = (Decimal(1), Decimal(0))


def _dec(z) -> tuple[Decimal, Decimal]:
    """A finite complex number as an exact (re, im) pair of Decimals."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"series argument is not finite: {z!r}")
    return Decimal(z.real), Decimal(z.imag)


def _mul(z, w):
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def _check_modulus(lam) -> None:
    """Raise SeriesNotConverged if an eigenvalue among the complex floats lam has |lambda| > _MAX_EIGENVALUE."""
    modulus = float(np.abs(lam).max(initial=0.0))
    if modulus > _MAX_EIGENVALUE:
        raise SeriesNotConverged(f"|lambda| = {modulus:.6g} > {_MAX_EIGENVALUE}: too large for 40 digits")


def _eigen_series(lam_p, lam_m, kind: str) -> tuple[complex, complex]:
    """The series of kind "exp", "C" or "S" summed on the two core eigenvalues
    (Decimal (re, im) pairs, under the caller's 40-digit context).

    Term j is term j-1 times the step over (e+1)...(e+stride), e being the
    exponent of term j-1. C and S step by lambda^2 on lambda+ and by
    -lambda^2 on lambda- (N^m is 1 and (-1)^m there). The stop rule
    measures the 2x2 core term max(|t+ + t-|, |t+ - t-|) / 2 of each added
    term after the zeroth. The caller has checked |lambda| <= _MAX_EIGENVALUE.
    """
    if kind == "exp":
        (pr, pi_), (mr, mi), exponent, stride = _ONE, _ONE, 0, 1
        (spr, spi), (smr, smi) = lam_p, lam_m
    else:
        (pr, pi_), (mr, mi), exponent = (lam_p, lam_m, 1) if kind == "S" else (_ONE, _ONE, 0)
        (spr, spi), (smr, smi), stride = _mul(lam_p, lam_p), _mul(lam_m, lam_m), 2
        smr, smi = -smr, -smi
    apr, api, amr, ami = pr, pi_, mr, mi
    bound = (2 * Decimal(_TERM_TOL)) ** 2
    while True:
        d = exponent + 1 if stride == 1 else (exponent + 1) * (exponent + 2)
        exponent += stride
        pr, pi_ = (pr * spr - pi_ * spi) / d, (pr * spi + pi_ * spr) / d
        mr, mi = (mr * smr - mi * smi) / d, (mr * smi + mi * smr) / d
        apr, api, amr, ami = apr + pr, api + pi_, amr + mr, ami + mi
        sr, si, dr, di = pr + mr, pi_ + mi, pr - mr, pi_ - mi
        if sr * sr + si * si < bound and dr * dr + di * di < bound:
            return complex(float(apr), float(api)), complex(float(amr), float(ami))


def _series(ctx: LogicAlgebraContext, x, kind: str) -> np.ndarray:
    lam = _pairs(ctx, x)  # each pair is replaced by its series values
    _check_modulus(lam)
    with decimal.localcontext(_DIGITS):
        for i in np.ndindex(lam.shape[:-1]):
            lam[i] = _eigen_series(*map(_dec, lam[i]), kind)
    return _lift_eigen(ctx, lam)


def logical_exp_series(ctx: LogicAlgebraContext, g) -> np.ndarray:
    """e^G as the paper's truncated series, the oracle for `logical_exp`."""
    return _series(ctx, g, "exp")


def C_series(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """C(X) as the paper's truncated series, the oracle for `C_of`."""
    return _series(ctx, x, "C")


def S_series(ctx: LogicAlgebraContext, x) -> np.ndarray:
    """S(X) as the paper's truncated series, the oracle for `S_of`."""
    return _series(ctx, x, "S")


def scalar_exp_series(x: complex) -> complex:
    """The plain scalar exponential series with the same stop rule and bound:
    the exp series on the core x*I2, whose two eigenvalues are both x."""
    with decimal.localcontext(_DIGITS):
        lam = _dec(x)
        _check_modulus(x)
        return _eigen_series(lam, lam, "exp")[0]


def _passes(residuals: dict, tol) -> bool:
    """The pass rule of every residual section: each residual r < tol, so NaN fails."""
    return all(map(lt, residuals.values(), repeat(tol)))  # not tol.__gt__: int.__gt__(float) is NotImplemented


@dataclass(frozen=True)
class IdentityReport:
    """Named max-norm residuals; the report and each entry pass when r < tolerance (NaN fails)."""

    residuals: dict[str, float]
    tolerance: float
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return _passes(self.residuals, self.tolerance)

    def entries(self) -> list[dict]:
        return [{"identity": n, "residual": r, "pass": bool(r < self.tolerance)} for n, r in self.residuals.items()]


def verify_euler_suite(
    ctx: LogicAlgebraContext, v_samples, ks=EULER_KS, tol: float = IDENTITY_TOL
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

    All samples are evaluated at once on eigenvalue pairs, and each residual
    is the bound K max(|a|, |b|) on the lifted residual (see the module
    docstring and `_lift_bound`); no Q x Q matrix is built.
    metadata["worst_argument"] names the argument of each identity's worst
    residual: {"v": v}, {"k": k, "v": v} or {"va": va, "vb": vb}.

    Raises ValueError for a tol that is not finite and positive, a k that is
    not a non-negative integer, a v that is not a real number (a string is
    not), and a v whose argument w = Pi v, Pi k v or Pi (va + vb) is not
    finite or so large that its rounding error |w| 2^-52 is not below tol.
    The largest |w| is exactly max|v| max(2, k): |fl(k v)| = fl(k |v|) grows
    with |v|, and |va + vb| <= 2 max|v|, with equality at va = vb.
    """
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    for k in ks:
        if not ((isinstance(k, int) or isinstance(k, Real) and float(k).is_integer()) and k >= 0):
            raise ValueError(f"k must be a non-negative integer, got {k!r}")
    v_samples = list(v_samples)
    for v in v_samples:
        if not isinstance(v, (float, Real)):  # a float skips the ABC's check
            raise ValueError(f"v must be a real number, got {v!r}")
    try:  # float() refuses an int beyond the float range
        v_samples = [float(v) for v in v_samples]
        k_max = float(max((2, *ks)))
    except OverflowError:
        raise ValueError("argument Pi*v or Pi*k*v is not finite: a v or k is beyond the float range") from None
    ks = [int(k) for k in ks]
    bound, pairs, v = ctx._bound, ctx.pairs, np.array(v_samples)
    # K max(|a|, |b|) of Pi's core is never below the max-norm of Pi; the
    # largest |w| passes both checks exactly when every argument does, so
    # the arguments are walked only to name the first that fails
    pi_norm = float(_pair_residual(bound, pairs[4]))
    largest = float(np.maximum.reduce(np.abs(v), initial=0.0)) * k_max
    if not (isfinite(largest * pi_norm) and largest * pi_norm * 2.0**-52 < tol):
        arguments = _arguments(v_samples, ks)
        for label, w in arguments:
            if not isfinite(w * pi_norm):
                raise ValueError(f"argument Pi*{label} is not finite at {label} = {w!r}")
        for label, w in arguments:
            if not abs(w) * pi_norm * 2.0**-52 < tol:
                raise ValueError(
                    f"argument Pi*{label} at {label} = {w!r} is too large: "
                    f"its rounding error |Pi*{label}| * 2^-52 is not below tol = {tol!r}"
                )

    named, worst = {}, {}
    for name, r, argument in _euler_pair_residuals(pairs.tobytes(), v.tobytes(), tuple(ks)):
        named[name] = bound * r
        worst[name] = None if argument is None else dict(argument)
    return IdentityReport(
        residuals=named,
        tolerance=tol,
        metadata={"v_samples": v_samples, "ks": ks, "dim": ctx.basis.dim, "worst_argument": worst},
    )


def _arguments(v_samples, ks) -> list[tuple[str, float]]:
    """(label, w) of each argument of the suite, w being Pi's multiple: v,
    k v and va + vb. Python floats overflow to inf without a warning."""
    arguments = [("v", v) for v in v_samples]
    arguments += [("k*v", k * v) for k in ks for v in v_samples]
    arguments += [("va+vb", va + vb) for va in v_samples for vb in v_samples]
    return arguments


@lru_cache(maxsize=32)
def _euler_pair_residuals(pairs: bytes, v_bytes: bytes, ks: tuple) -> tuple:
    """(name, max(|a|, |b|), worst argument) of each identity of the suite on
    the context pairs (the bytes of the (5, 2) array) and the v samples (the
    bytes of a float array, which tell -0.0 from 0.0): no basis enters, so
    each distinct key is computed once and the caller scales by K. K max is
    the max of K times each, rounding being monotone, and the division by 2
    in `_pair_residual` is exact. The worst argument is a tuple of
    (label, value) items, or None for an identity with no sample."""
    I, N, A, B, Pi = np.frombuffer(pairs, dtype=complex).reshape(5, 2)
    v = np.frombuffer(v_bytes)
    v_samples = v.tolist()
    x = Pi * v[:, None]
    c, s = _C_pair(x), _S_pair(x)
    e_pos, e_neg = np.exp(A * x), np.exp(-A * x)
    c_plus_as = c + A * s
    # k along axis 0, v along axis 1, and I X^k is I at k = 0;
    # (e), (f): va along axis 0, vb along axis 1
    k = np.array(ks, dtype=float)[:, None, None]
    xk = Pi * (k * v[:, None])
    xs = Pi * (v[:, None] + v[None, :])[..., None]
    ca, cb, sa, sb = c[:, None], c[None, :], s[:, None], s[None, :]
    by_v = (("v", v_samples),)
    by_kv = (("k", ks), ("v", v_samples))
    by_ab = (("va", v_samples), ("vb", v_samples))
    residuals = {
        "a_exp_equals_C_plus_AS": (e_pos - c_plus_as, by_v),
        "b_C2_minus_NS2_is_I": (c * c - N * s * s - I, by_v),
        "c_C_from_exponentials": (c - 0.5 * (e_pos + e_neg), by_v),
        "d_S_from_exponentials": (s - 0.5 * B * (e_pos - e_neg), by_v),
        "e_cosine_addition": (_C_pair(xs) - (ca * cb + N * sa * sb), by_ab),
        "f_sine_addition": (_S_pair(xs) - (sa * cb + sb * ca), by_ab),
        "g_great_euler": (np.exp(A * Pi)[None] + I, (("v", (1.0,)),)),
        "h_de_moivre": (c_plus_as**k * I - (_C_pair(xk) + A * _S_pair(xk)), by_kv),
    }
    out = []
    for name, (d, axes) in residuals.items():
        r = _pair_residual(1.0, d)
        if r.size:
            i = np.unravel_index(np.argmax(r), r.shape)
            out.append((name, float(r[i]), tuple((label, values[j]) for (label, values), j in zip(axes, i))))
        else:
            out.append((name, 0.0, None))
    return tuple(out)


def scalar_exp_residual(ctx: LogicAlgebraContext) -> float:
    """The largest residual of logical_exp(A Pi v) = e^{i pi v} I over
    EULER_V_SAMPLES, e^{i pi v} by the scalar series (`scalar_exp_series`),
    with the suite's bound and on the eigenvalue pairs of the context's I, A
    and Pi: no Q x Q matrix."""
    return ctx._bound * _scalar_exp_pair_residual(ctx.pairs.tobytes())


@lru_cache(maxsize=32)
def _scalar_exp_pair_residual(pairs: bytes) -> float:
    """max(|a|, |b|) of `scalar_exp_residual` on the context pairs (the bytes
    of the (5, 2) array): no basis enters, so, as for `_euler_pair_residuals`,
    each distinct key, the six series sums too, is computed once and the
    caller scales by K."""
    I, _, A, _, Pi = np.frombuffer(pairs, dtype=complex).reshape(5, 2)
    sums = np.array([scalar_exp_series(1j * pi * v) for v in EULER_V_SAMPLES])
    d = np.exp(A * Pi * np.array(EULER_V_SAMPLES)[:, None]) - sums[:, None] * I
    return float(_pair_residual(1.0, d).max())
