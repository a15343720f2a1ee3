"""Logical exponential, matrix circular functions, and the Euler identity suite."""

import math
import re
import sys

import numpy as np
import pytest

from vlogic import (
    C_of,
    S_of,
    SeriesPolicy,
    canonical_basis,
    logical_exp,
    make_context,
    max_norm,
    pi_matrix,
    random_basis,
    verify_euler_suite,
)
from vlogic.errors import NonCommuting, SeriesNotConverged
from vlogic.matfun import scalar_exp_series
from vlogic.verify import EULER_KS, EULER_V_SAMPLES

SUITE_TOL = 1e-8


@pytest.fixture
def ctx():
    return make_context(canonical_basis("DIM4"))


@pytest.fixture
def ctx2():
    return make_context(canonical_basis("SET1"))


def test_policy_validation():
    with pytest.raises(ValueError):
        SeriesPolicy(term_tol=0.0)
    with pytest.raises(ValueError):
        SeriesPolicy(max_terms=4)


def test_exp_of_zero_is_logical_identity(ctx):
    # the zeroth term is the logical identity, rank 2, not eye(4)
    out = logical_exp(ctx, np.zeros((4, 4)))
    np.testing.assert_allclose(out, ctx.I, atol=1e-15)
    assert np.linalg.matrix_rank(np.asarray(ctx.I, dtype=complex)) == 2


def test_exp_of_a_pi_is_minus_identity(ctx2):
    # A Pi = i pi I, so the series sums to e^{i pi} I = -I
    out = logical_exp(ctx2, ctx2.A @ ctx2.Pi)
    np.testing.assert_allclose(out, -np.eye(2), atol=1e-12)


def test_exp_of_half_a_pi_is_i_identity(ctx2):
    out = logical_exp(ctx2, ctx2.A @ ctx2.Pi * 0.5)
    np.testing.assert_allclose(out, 1j * np.eye(2), atol=1e-12)


def test_exp_closed_form_general_v(ctx):
    for v in (0.3, -1.2, 2.0):
        out = logical_exp(ctx, ctx.A @ ctx.Pi * v)
        expected = (math.cos(math.pi * v) + 1j * math.sin(math.pi * v)) * ctx.I
        assert max_norm(out - expected) < 1e-12


def test_exp_rejects_noncommuting_argument(ctx):
    g = np.zeros((4, 4))
    g[0, 1] = 1.0  # does not commute with N
    with pytest.raises(NonCommuting):
        logical_exp(ctx, g)
    with pytest.raises(NonCommuting):
        C_of(ctx, g)


def test_rejects_argument_outside_logic_span(ctx):
    # commutes with N, but acts on the complement of span{s, n}
    g = 0.7 * (np.eye(4) - ctx.I)
    assert max_norm(g @ ctx.N - ctx.N @ g) < 1e-15
    for series in (logical_exp, C_of, S_of):
        with pytest.raises(NonCommuting):
            series(ctx, g)


def test_series_cap(ctx):
    with pytest.raises(SeriesNotConverged):
        logical_exp(ctx, ctx.A @ ctx.Pi * 3, SeriesPolicy(term_tol=1e-16, max_terms=8))


def test_series_converges_within_cap(ctx):
    # max-norm of X up to 8 always converges under the default policy
    x = ctx.Pi * (8.0 / max_norm(ctx.Pi))
    assert max_norm(x) <= 8.0 + 1e-12
    C_of(ctx, x)
    S_of(ctx, x)
    # exponential arguments across the suite's range converge too
    for v in (0.25, 1.5, 3.0, -3.0):
        logical_exp(ctx, ctx.A @ ctx.Pi * v)


def test_c_s_at_zero(ctx):
    zero = np.zeros((4, 4))
    np.testing.assert_allclose(C_of(ctx, zero), ctx.I, atol=1e-15)
    np.testing.assert_allclose(S_of(ctx, zero), zero, atol=1e-15)


@pytest.mark.parametrize("v", [0.25, 0.5, 1.0, -0.75, 1.9])
def test_c_s_closed_forms(ctx, v):
    x = ctx.Pi * v
    assert max_norm(C_of(ctx, x) - math.cos(math.pi * v) * ctx.I) < SUITE_TOL
    assert max_norm(S_of(ctx, x) - 1j * math.sin(math.pi * v) * ctx.B) < SUITE_TOL


def test_closed_forms_on_random_bases():
    rng = np.random.default_rng(0)
    for dim in (2, 4, 8, 16):
        c = make_context(random_basis(dim, 0.0, seed=dim))
        for v in rng.uniform(-2, 2, size=12):
            x = c.Pi * v
            assert max_norm(C_of(c, x) - math.cos(math.pi * v) * c.I) < SUITE_TOL
            assert max_norm(S_of(c, x) - 1j * math.sin(math.pi * v) * c.B) < SUITE_TOL


def test_pi_matrix(ctx2):
    p = pi_matrix(ctx2)
    expected_b = 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]])
    np.testing.assert_allclose(p, 1j * math.pi * expected_b, atol=1e-12)
    # Pi A = i pi I and Pi^2 = -pi^2 N
    assert max_norm(p @ ctx2.A - 1j * math.pi * ctx2.I) < 1e-12
    assert max_norm(p @ p + math.pi**2 * ctx2.N) < 1e-10


def test_scalar_series_oracle(ctx):
    # entrywise agreement between the matrix and scalar series
    for v in (0.0, 0.25, 0.5, 1.0, 1.5, -0.75):
        mat = logical_exp(ctx, ctx.A @ ctx.Pi * v)
        scalar = scalar_exp_series(1j * math.pi * v)
        assert max_norm(mat - scalar * ctx.I) < 1e-10


def test_subalgebra_closure(ctx):
    # products/sums of {I, N, A, B, Pi} stay in span{I, N}
    mats = [ctx.I, ctx.N, ctx.A, ctx.B, ctx.Pi]
    basis_flat = np.column_stack(
        [np.asarray(ctx.I, dtype=complex).ravel(), np.asarray(ctx.N, dtype=complex).ravel()]
    )
    for m1 in mats:
        for m2 in mats:
            prod = np.asarray(m1 @ m2, dtype=complex).ravel()
            coef, *_ = np.linalg.lstsq(basis_flat, prod, rcond=None)
            assert max_norm(prod - basis_flat @ coef) < 1e-10


def test_euler_suite_canonical_bases():
    for name in ("SET1", "SET2", "DIM4"):
        c = make_context(canonical_basis(name))
        report = verify_euler_suite(c, [0.0, 0.25, 0.5, 1.0, 1.5, -0.75])
        assert report.passed, (name, report.residuals)


def test_euler_suite_v_zero_degenerate(ctx):
    report = verify_euler_suite(ctx, [0.0])
    assert all(r < 1e-12 for k, r in report.residuals.items() if k != "g_great_euler")


def test_great_euler_equation(ctx):
    report = verify_euler_suite(ctx, [1.0])
    assert report.residuals["g_great_euler"] < SUITE_TOL


def test_de_moivre_against_scalar_closed_form(ctx):
    for v in (0.25, 0.5, 1.5):
        c = C_of(ctx, ctx.Pi * v)
        s = S_of(ctx, ctx.Pi * v)
        m = c + ctx.A @ s
        cube = m @ m @ m
        expected = math.cos(3 * math.pi * v) * ctx.I + ctx.A @ (
            1j * math.sin(3 * math.pi * v) * ctx.B
        )
        assert max_norm(cube - expected) < SUITE_TOL


def test_identity_report_entries(ctx):
    report = verify_euler_suite(ctx, [0.5])
    entries = report.entries()
    assert {e["identity"] for e in entries} == set(report.residuals)
    assert all(e["pass"] for e in entries)


def dense_series(ctx, x, kind, terms=40):
    """Reference: the series summed literally on Q x Q complex128 matrices.

    kind "exp" sums X^k / k!, "C" sums N^m X^2m / (2m)!, "S" sums
    N^m X^(2m+1) / (2m+1)!, with X^0 the logical identity.
    """
    x = np.asarray(x, dtype=complex)
    neg = np.asarray(ctx.N, dtype=complex)
    power = np.asarray(ctx.I, dtype=complex)
    total = np.zeros_like(power)
    for k in range(terms):
        if kind == "exp":
            total += power / math.factorial(k)
        elif k % 2 == (kind == "S"):
            total += np.linalg.matrix_power(neg, k // 2) @ power / math.factorial(k)
        power = power @ x
    return total


@pytest.mark.parametrize(
    "basis", [canonical_basis("DIM4"), random_basis(8, 0.35, 3)], ids=["DIM4", "Q8-oblique"]
)
def test_series_match_dense_reference(basis):
    c = make_context(basis)
    for v in (-0.5, -0.2, 0.1, 0.35, 0.5):
        x = c.Pi * v
        assert max_norm(logical_exp(c, c.A @ x) - dense_series(c, c.A @ x, "exp")) < 1e-12
        assert max_norm(C_of(c, x) - dense_series(c, x, "C")) < 1e-12
        assert max_norm(S_of(c, x) - dense_series(c, x, "S")) < 1e-12
    # a core that is no multiple of Pi: X = 0.3 I - 0.2i N
    x = 0.3 * c.I - 0.2j * c.N
    for series, kind in ((logical_exp, "exp"), (C_of, "C"), (S_of, "S")):
        assert max_norm(series(c, x) - dense_series(c, x, kind)) < 1e-12


@pytest.mark.parametrize("dim", [4, 16])
def test_euler_suite_oblique_bases(dim):
    report = verify_euler_suite(make_context(random_basis(dim, 0.35, 1)), EULER_V_SAMPLES, ks=EULER_KS)
    assert report.passed, report.residuals


_I2 = np.eye(2, dtype=np.clongdouble)
_J = np.array([[0, 1], [1, 0]], dtype=np.clongdouble)


def core_loop_series(ctx, x, kind, policy=SeriesPolicy()):
    """Reference: the series summed with 2x2 long-double products on the core
    a I2 + b J (I and N become I2 and J), stopped when the core term's
    max-norm drops below policy.term_tol. kind is "exp", "C" or "S".
    """
    b = ctx.basis
    frame, dual = np.column_stack([b.s, b.n]), np.column_stack([b.y, b.z])
    c = dual.T @ np.asarray(x, dtype=complex) @ frame
    a, bj = (c[0, 0] + c[1, 1]) / 2, (c[0, 1] + c[1, 0]) / 2
    g = np.array([[a, bj], [bj, a]]).astype(np.clongdouble)
    if kind == "exp":
        acc, term = _I2.copy(), g.copy()
        for k in range(1, policy.max_terms + 1):
            acc += term
            if max_norm(term) < policy.term_tol:
                return frame @ acc.astype(complex) @ dual.T
            term = term @ g / (k + 1)
        raise SeriesNotConverged("reference")
    odd = kind == "S"
    gsq = g @ g
    acc = g.copy() if odd else _I2.copy()
    power = g.copy() if odd else _I2.copy()
    coef = np.clongdouble(1.0)
    exponent = 1 if odd else 0
    for m in range(1, policy.max_terms + 1):
        power = power @ gsq
        coef /= (exponent + 1) * (exponent + 2)
        exponent += 2
        term = coef * ((_J if m % 2 == 1 else _I2) @ power)
        acc += term
        if max_norm(term) < policy.term_tol:
            return frame @ acc.astype(complex) @ dual.T
    raise SeriesNotConverged("reference")


SERIES_KINDS = ((logical_exp, "exp"), (C_of, "C"), (S_of, "S"))


def series_arguments(c, v):
    """(series, kind, argument) triples at parameter v: C and S at Pi v, e^G at
    A Pi v, and all three at the core (0.3 I - 0.2i N) v, no multiple of Pi."""
    yield logical_exp, "exp", c.A @ c.Pi * v
    yield C_of, "C", c.Pi * v
    yield S_of, "S", c.Pi * v
    for series, kind in SERIES_KINDS:
        yield series, kind, (0.3 * c.I - 0.2j * c.N) * v


@pytest.mark.parametrize("dim", [4, 16])
@pytest.mark.parametrize("eps", [0.0, 0.35])
def test_eigenvalue_series_match_core_loop(dim, eps):
    c = make_context(random_basis(dim, eps, 2))
    for v in np.linspace(-3.0, 3.0, 25):
        for series, kind, x in series_arguments(c, v):
            ref = core_loop_series(c, x, kind)
            assert max_norm(series(c, x) - ref) <= 1e-13 * max(1.0, max_norm(ref)), (kind, v)


@pytest.mark.parametrize("dim", [4, 16])
@pytest.mark.parametrize("eps", [0.0, 0.35])
def test_eigenvalue_series_stop_like_core_loop(dim, eps):
    c = make_context(random_basis(dim, eps, 2))
    raised = 0
    for max_terms in (8, 12, 20, 30, 64):
        policy = SeriesPolicy(max_terms=max_terms)
        for v in np.linspace(-7.5, 7.5, 61):
            for series, kind, x in series_arguments(c, v):
                try:
                    core_loop_series(c, x, kind, policy)
                    expect_raise = False
                except SeriesNotConverged:
                    expect_raise = True
                if expect_raise:
                    raised += 1
                    with pytest.raises(SeriesNotConverged):
                        series(c, x, policy)
                else:
                    series(c, x, policy)
    assert raised > 0


def test_de_moivre_zeroth_power_is_logical_identity(ctx):
    # X^0 is the logical identity I (rank 2 at Q = 4), not eye(4)
    report = verify_euler_suite(ctx, EULER_V_SAMPLES, ks=(0, 1, 2))
    assert report.residuals["h_de_moivre"] < SUITE_TOL, report.residuals


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan, 1e308])
def test_euler_suite_rejects_non_finite_v(ctx, v):
    with pytest.raises(ValueError, match="finite"):
        verify_euler_suite(ctx, [0.5, v])


@pytest.mark.parametrize("ks,label", [((2,), "k*v"), ((1,), "va+vb")])
def test_euler_suite_rejects_overflowing_argument(ctx, ks, label):
    # Pi v is finite, but Pi (2 v) is not: reached through k v or va + vb
    v = 0.6 * sys.float_info.max / max_norm(ctx.Pi)
    with pytest.raises(ValueError, match=re.escape(f"Pi*{label} is not finite")):
        verify_euler_suite(ctx, [v], ks=ks)


def test_euler_suite_rejects_negative_k(ctx):
    with pytest.raises(ValueError, match="non-negative"):
        verify_euler_suite(ctx, [0.5], ks=(2, -1))


@pytest.mark.parametrize("k", [2.5, math.inf, math.nan])
def test_euler_suite_rejects_non_integer_k(ctx, k):
    # int(k) would truncate the power while C(Pi k v) used the full k
    with pytest.raises(ValueError, match="non-negative integer"):
        verify_euler_suite(ctx, [0.5], ks=(2, k))
