"""Logical exponential, matrix circular functions, and the Euler identity suite."""

import decimal
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import vlogic
import vlogic.operators
import vlogic.srn
from vlogic import matfun
from vlogic import (
    AND,
    C_of,
    C_series,
    S_of,
    S_series,
    canonical_basis,
    classify,
    gate_operator,
    logical_exp,
    logical_exp_series,
    make_context,
    max_norm,
    probe,
    random_basis,
    verify_euler_suite,
)
from vlogic.errors import DimensionMismatch, NonCommuting, SeriesNotConverged
from vlogic.scalar_logic import ID, NOT
from vlogic.matfun import COMMUTATOR_TOL, IdentityReport, scalar_exp_series
from vlogic.operators import lift
from vlogic.srn import A_CORE, B_CORE
from vlogic.verify import EULER_KS, EULER_V_SAMPLES, RESIDUAL_TOL, run_full_verification, scalar_oracle_residual

SUITE_TOL = 1e-8

CLOSED_FORMS = {"exp": logical_exp, "C": C_of, "S": S_of}
SERIES = {"exp": logical_exp_series, "C": C_series, "S": S_series}
FIELDS = ("I", "N", "A", "B", "Pi")  # the rows of a context's pairs


def with_pairs(ctx, **wrong):
    """ctx with the named rows of its pairs replaced: the context of a wrong
    core, stated exactly, as every core lies in span{I2, J}."""
    pairs = ctx.pairs.copy()
    for name, pair in wrong.items():
        pairs[FIELDS.index(name)] = pair
    return replace(ctx, pairs=pairs)


@pytest.fixture
def ctx():
    return make_context(canonical_basis("DIM4"))


@pytest.fixture
def ctx2():
    return make_context(canonical_basis("SET1"))


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
    for series in (logical_exp, C_of, S_of, logical_exp_series, C_series, S_series):
        with pytest.raises(NonCommuting):
            series(ctx, g)


def test_series_cap(ctx):
    # an eigenvalue with |lambda| > 50 is refused before summing: A Pi 16
    # and Pi 16 have |lambda| = 16 pi, the scalar 60 i pi has 60 pi
    pi16 = ctx.Pi * 16
    for series, x in ((logical_exp_series, ctx.A @ pi16), (C_series, pi16), (S_series, pi16)):
        with pytest.raises(SeriesNotConverged, match=r"\|lambda\| = 50\.265\d* > 50"):
            series(ctx, x)
    with pytest.raises(SeriesNotConverged, match=r"\|lambda\| = 188\.496\d* > 50"):
        scalar_exp_series(60j * math.pi)
    # one slice beyond the bound refuses the whole stack
    with pytest.raises(SeriesNotConverged):
        C_series(ctx, np.stack([ctx.Pi * 0.5, ctx.Pi * 16]))


def test_series_bound_is_checked_before_any_slice_is_summed(ctx, monkeypatch):
    calls = []
    summed = matfun._eigen_series
    monkeypatch.setattr(matfun, "_eigen_series", lambda *args: calls.append(args) or summed(*args))
    S_series(ctx, np.stack([ctx.Pi * 0.5, ctx.Pi * 0.25]))
    assert len(calls) == 2
    calls.clear()
    # the last slice has |lambda| = 16 pi
    with pytest.raises(SeriesNotConverged):
        S_series(ctx, np.stack([ctx.Pi * 0.5, ctx.Pi * 0.25, ctx.Pi * 16]))
    assert calls == []


def test_series_converges_within_cap(ctx):
    # C and S sum at max-norm of X up to 8, and all three kinds at every
    # argument Pi w the Euler suite reaches, w = v, k v or va + vb, up to
    # |w| = 7.5 (k = 5, v = 1.5)
    x = ctx.Pi * (8.0 / max_norm(ctx.Pi))
    assert max_norm(x) <= 8.0 + 1e-12
    C_series(ctx, x)
    S_series(ctx, x)
    reach = {k * v for k in (1, *EULER_KS) for v in EULER_V_SAMPLES}
    reach |= {va + vb for va in EULER_V_SAMPLES for vb in EULER_V_SAMPLES}
    assert max(map(abs, reach)) == 7.5
    for w in sorted(reach):
        for kind, x in (("exp", ctx.A @ ctx.Pi * w), ("C", ctx.Pi * w), ("S", ctx.Pi * w)):
            ref = CLOSED_FORMS[kind](ctx, x)
            assert max_norm(SERIES[kind](ctx, x) - ref) <= 1e-13 * max(1.0, max_norm(ref)), (kind, w)


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


@pytest.mark.parametrize(
    "basis",
    [canonical_basis("DIM4"), canonical_basis("SET2"), random_basis(6, 0.0, 1), random_basis(7, 0.45, 9)],
    ids=["DIM4", "SET2", "Q6_orthonormal", "Q7_eps0.45"],
)
def test_context_identity_and_negation_are_the_paper_formulas(basis):
    # I = s y^T + n z^T and N = n y^T + s z^T, orthonormal or oblique
    ctx = make_context(basis)
    s, n, y, z = basis.s, basis.n, basis.y, basis.z
    assert ctx.I.dtype == ctx.N.dtype == complex
    np.testing.assert_allclose(ctx.I, np.outer(s, y) + np.outer(n, z), rtol=0, atol=1e-15)
    np.testing.assert_allclose(ctx.N, np.outer(n, y) + np.outer(s, z), rtol=0, atol=1e-15)


def test_pi_matrix(ctx2):
    p = ctx2.Pi
    expected_b = 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]])
    np.testing.assert_allclose(p, 1j * math.pi * expected_b, atol=1e-12)
    # Pi A = i pi I and Pi^2 = -pi^2 N
    assert max_norm(p @ ctx2.A - 1j * math.pi * ctx2.I) < 1e-12
    assert max_norm(p @ p + math.pi**2 * ctx2.N) < 1e-10


@pytest.mark.parametrize("x", [complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_scalar_series_rejects_non_finite_argument(x):
    with pytest.raises(ValueError, match="finite"):
        scalar_exp_series(x)


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


@pytest.mark.parametrize(
    "r,passed",
    [(math.nan, False), (math.inf, False), (SUITE_TOL, False), (math.nextafter(SUITE_TOL, 0), True), (0.0, True)],
    ids=["nan", "inf", "at-tol", "below-tol", "zero"],
)
def test_identity_report_passes_only_below_the_tolerance(r, passed):
    # one rule: strictly below, so a NaN or a residual equal to tol fails;
    # each entry's flag and the report's pass agree
    report = IdentityReport({"exact": 0.0, "checked": r}, SUITE_TOL)
    assert report.passed is passed
    assert [e["pass"] for e in report.entries()] == [True, passed]


def test_empty_identity_report_passes():
    report = IdentityReport({}, SUITE_TOL)
    assert report.passed is True
    assert report.entries() == []


@pytest.mark.parametrize("r", [5.0, np.float64(5.0), np.float32(5.0), 1.0])
def test_identity_report_compares_across_numeric_types(r):
    # int.__gt__(float) and float.__gt__(np.float32) are NotImplemented,
    # which is truthy: the rule must be r < tol, whatever the types
    for tol in (1, 1.0):
        assert IdentityReport({"a": r}, tol).passed is False, (r, tol)
        assert IdentityReport({"a": r}, tol).entries()[0]["pass"] is False, (r, tol)
    assert IdentityReport({"a": r}, 6).passed is True


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
    for family in (SERIES, CLOSED_FORMS):
        for v in (-0.5, -0.2, 0.1, 0.35, 0.5):
            x = c.Pi * v
            assert max_norm(family["exp"](c, c.A @ x) - dense_series(c, c.A @ x, "exp")) < 1e-12
            assert max_norm(family["C"](c, x) - dense_series(c, x, "C")) < 1e-12
            assert max_norm(family["S"](c, x) - dense_series(c, x, "S")) < 1e-12
        # a core that is no multiple of Pi: X = 0.3 I - 0.2i N
        x = 0.3 * c.I - 0.2j * c.N
        for kind, series in family.items():
            assert max_norm(series(c, x) - dense_series(c, x, kind)) < 1e-12


@pytest.mark.parametrize("dim", [4, 16])
def test_euler_suite_oblique_bases(dim):
    report = verify_euler_suite(make_context(random_basis(dim, 0.35, 1)), EULER_V_SAMPLES, ks=EULER_KS)
    assert report.passed, report.residuals


def _real_form(m):
    """The complex 2x2 matrix M as the real 4x4 [[Re M, -Im M], [Im M, Re M]]
    of exact Decimals: the real form of a product is the product of the
    real forms, and M is the top-left block plus i times the bottom-left."""
    m = np.asarray(m, dtype=complex)
    return np.vectorize(Decimal, otypes=[object])(np.block([[m.real, -m.imag], [m.imag, m.real]]))


_I2, _J = _real_form(np.eye(2)), _real_form([[0, 1], [1, 0]])
_REFERENCE_DIGITS = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def core_loop_series(ctx, x, kind, term_tols=(1e-16,)):
    """Reference: the series summed with 2x2 products on the core a I2 + b J
    (I and N become I2 and J) in 40-digit decimal, the same on every
    platform. kind is "exp", "C" or "S". Returns, for each of term_tols in
    decreasing order, the sum stopped at the first added term after the
    zeroth whose core max-norm is below it.
    """
    b = ctx.basis
    c = b.duals @ np.asarray(x, dtype=complex) @ b.frame
    a, bj = (c[0, 0] + c[1, 1]) / 2, (c[0, 1] + c[1, 0]) / 2
    sums = []
    with decimal.localcontext(_REFERENCE_DIGITS):
        bounds = [Decimal(tol) ** 2 for tol in term_tols]
        g = _real_form([[a, bj], [bj, a]])
        stride, step = (1, g) if kind == "exp" else (2, g @ g)
        exponent = 1 if kind == "S" else 0
        acc = power = g if kind == "S" else _I2
        coef = Decimal(1)
        for m in range(1, 400):
            power = power @ step
            coef /= exponent + 1 if stride == 1 else (exponent + 1) * (exponent + 2)
            exponent += stride
            term = coef * (_J @ power if stride == 2 and m % 2 else power)
            acc = acc + term
            norm2 = (term[:2, :2] ** 2 + term[2:, :2] ** 2).max()
            while len(sums) < len(bounds) and norm2 < bounds[len(sums)]:
                sums.append(acc)
            if len(sums) == len(bounds):
                break
        else:
            raise AssertionError("the reference did not stop within 400 terms")
    return [b.frame @ (s[:2, :2].astype(float) + 1j * s[2:, :2].astype(float)) @ b.duals for s in sums]


def series_arguments(c, v):
    """(kind, argument) pairs at parameter v: C and S at Pi v, e^G at A Pi v,
    and all three at the core (0.3 I - 0.2i N) v, no multiple of Pi."""
    yield "exp", c.A @ c.Pi * v
    yield "C", c.Pi * v
    yield "S", c.Pi * v
    for kind in ("exp", "C", "S"):
        yield kind, (0.3 * c.I - 0.2j * c.N) * v


@pytest.mark.parametrize("dim", [4, 16])
@pytest.mark.parametrize("eps", [0.0, 0.35])
def test_eigenvalue_series_match_core_loop(dim, eps):
    c = make_context(random_basis(dim, eps, 2))
    for v in np.linspace(-3.0, 3.0, 25):
        for kind, x in series_arguments(c, v):
            (ref,) = core_loop_series(c, x, kind)
            for family in (SERIES, CLOSED_FORMS):
                assert max_norm(family[kind](c, x) - ref) <= 1e-13 * max(1.0, max_norm(ref)), (kind, v)


@pytest.mark.parametrize("dim", [4, 16])
@pytest.mark.parametrize("eps", [0.0, 0.35])
def test_eigenvalue_series_stop_like_core_loop(dim, eps, monkeypatch):
    # the series stop at the reference's term: at the coarse stop tolerances
    # the sums differ from the full ones by far more than the 1e-13 bound, so
    # a term more or less would show
    c = make_context(random_basis(dim, eps, 2))
    tols = (1e-3, 1e-8, 1e-16)
    truncated = 0
    for v in np.linspace(-7.5, 7.5, 31):
        for kind, x in series_arguments(c, v):
            refs = core_loop_series(c, x, kind, tols)
            for tol, ref in zip(tols, refs):
                monkeypatch.setattr(matfun, "_TERM_TOL", tol)
                assert max_norm(SERIES[kind](c, x) - ref) <= 1e-13 * max(1.0, max_norm(ref)), (kind, v, tol)
            truncated += max_norm(refs[1] - refs[2]) > 1e-12
    assert truncated > 150, truncated


def test_de_moivre_zeroth_power_is_logical_identity(ctx):
    # X^0 is the logical identity I (rank 2 at Q = 4), not eye(4)
    report = verify_euler_suite(ctx, EULER_V_SAMPLES, ks=(0, 1, 2))
    assert report.residuals["h_de_moivre"] < SUITE_TOL, report.residuals


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan, 1e308])
def test_euler_suite_rejects_non_finite_v(ctx, v):
    with pytest.raises(ValueError, match="finite"):
        verify_euler_suite(ctx, [0.5, v])


@pytest.mark.parametrize(
    "ks,label,v",
    [
        pytest.param((2,), "k*v", None, id="ks0-k*v"),
        pytest.param((1,), "va+vb", None, id="ks1-va+vb"),
        pytest.param((), "va+vb", None, id="no_k-va+vb"),
        pytest.param((0,), "va+vb", None, id="k0-va+vb"),
        pytest.param((0,), "v", math.nan, id="nan-v"),
        pytest.param((), "v", math.inf, id="inf-v"),
        pytest.param((2,), "v", -math.inf, id="-inf-v"),
        pytest.param((), "v", 1e308, id="1e308-v"),
        pytest.param((10**400,), None, 0.5, id="int-k-beyond-floats"),
        pytest.param((10**400,), None, 0.0, id="int-k-beyond-floats-v0"),
        pytest.param((2,), None, 10**400, id="int-v-beyond-floats"),
        pytest.param((), None, -(10**400), id="-int-v-beyond-floats"),
    ],
)
def test_euler_suite_rejects_overflowing_argument(ctx, ks, label, v):
    # Pi v is finite, but Pi (2 v) is not: reached through k v or va + vb,
    # also with no k or k = 0, as the largest |w| is max|v| max(2, k); a v
    # that is not finite, or 1e308, where Pi v overflows, is named itself;
    # an int k or v that float() refuses is a ValueError, not OverflowError
    if v is None:
        v = 0.6 * sys.float_info.max / max_norm(ctx.Pi)
    w = v if label == "v" else 2 * v  # finite, but Pi w is not
    message = f"argument Pi*{label} is not finite at {label} = {w!r}"
    if label is None:
        message = "argument Pi*v or Pi*k*v is not finite: a v or k is beyond the float range"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_euler_suite(ctx, [v], ks=ks)
    if label is None:  # with no v, too: the k has no float
        with pytest.raises(ValueError, match=re.escape(message)):
            verify_euler_suite(ctx, [], ks=(*ks, 10**400))


def test_euler_suite_rejects_negative_k(ctx):
    with pytest.raises(ValueError, match="non-negative"):
        verify_euler_suite(ctx, [0.5], ks=(2, -1))


@pytest.mark.parametrize("k", [2.5, math.inf, math.nan, "a", "2", None, 2j])
def test_euler_suite_rejects_non_integer_k(ctx, k):
    # int(k) would truncate the power while C(Pi k v) used the full k; a k
    # that is not a real number gets the same message, not a raw TypeError
    with pytest.raises(ValueError, match=re.escape(f"k must be a non-negative integer, got {k!r}")):
        verify_euler_suite(ctx, [0.5], ks=(2, k))
    with pytest.raises(ValueError, match=re.escape(f"k must be a non-negative integer, got {k!r}")):
        verify_euler_suite(ctx, [], ks=(k,))


@pytest.mark.parametrize("v", [None, "1.5", b"1.5", 0.5j, [0.5]], ids=["None", "str", "bytes", "complex", "list"])
def test_euler_suite_rejects_a_v_that_is_not_a_real_number(ctx, v):
    # float("1.5") is 1.5, and float(None) a raw TypeError
    with pytest.raises(ValueError, match=re.escape(f"v must be a real number, got {v!r}")):
        verify_euler_suite(ctx, [0.5, v])


@pytest.mark.parametrize("k", [2**64, 2**1000], ids=["2**64", "2**1000"])
def test_euler_suite_passes_a_huge_integer_k_at_v_zero(ctx, k):
    # (C(0) + A S(0))^k = I for every k: the powers are floats, not an object array
    report = verify_euler_suite(ctx, [0.0], ks=(k,))
    assert report.passed, report.residuals
    assert report.metadata["ks"] == [k]
    assert report.metadata["worst_argument"]["h_de_moivre"] == {"k": k, "v": 0.0}


def test_euler_suite_reads_a_v_generator_once(ctx):
    # the v check and the conversion see the same samples
    report = verify_euler_suite(ctx, (v for v in (0.25, 1)), ks=(2,))
    assert report.metadata["v_samples"] == [0.25, 1.0]
    assert report.residuals == verify_euler_suite(ctx, [0.25, 1.0], ks=(2,)).residuals


@pytest.mark.parametrize(
    "basis", [canonical_basis("DIM4"), random_basis(8, 0.35, 3)], ids=["DIM4", "Q8-oblique"]
)
def test_rejects_argument_in_frame_that_does_not_commute_with_n(basis):
    # s y^T lies inside span{s, n}, but its core [[1, 0], [0, 0]] does not
    # commute with J: only the symmetrized core lets the span check see it
    c = make_context(basis)
    x = lift(basis, np.array([[1.0, 0.0], [0.0, 0.0]]))
    for family in (CLOSED_FORMS, SERIES):
        for function in family.values():
            with pytest.raises(NonCommuting):
                function(c, x)


@pytest.mark.parametrize("function", [*CLOSED_FORMS.values(), *SERIES.values()])
def test_rejects_arguments_of_the_wrong_shape_or_not_finite(ctx, function):
    for bad in (np.zeros((3, 3)), np.zeros(4), np.zeros((4, 3)), np.zeros((2, 3, 4))):
        with pytest.raises(DimensionMismatch):
            function(ctx, bad)
    # set by item, since inf * ctx.I itself warns (inf * 0)
    for value in (math.inf, -math.inf, math.nan, complex(0, math.inf)):
        for x in (np.array(ctx.I), np.stack([ctx.I, ctx.N])):
            x[(0,) * x.ndim] = value
            with pytest.raises(ValueError, match="not finite"):
                function(ctx, x)


@pytest.mark.parametrize("function", [*CLOSED_FORMS.values(), *SERIES.values()])
def test_rejects_a_finite_argument_whose_eigenvalues_overflow(ctx, function):
    # every entry of the core Y^T X S is 1.7e308, so a + b overflows
    x = lift(ctx.basis, np.full((2, 2), 1.7e308))
    assert np.isfinite(x).all()
    for arg in (x, np.stack([ctx.I, x])):
        with pytest.raises(ValueError, match="eigenvalue that is not finite"):
            function(ctx, arg)


def test_span_check_scales_with_the_argument():
    # the projection's rounding error grows with |X|: the arguments Pi v,
    # Pi 2v, Pi 3v, Pi 5v the Euler suite reaches at v = 1e5 lie up to ~2e-10
    # from span{I, N}, above the absolute COMMUTATOR_TOL, and still pass
    c = make_context(random_basis(16, 0.35, 1))
    distances = []
    for w in (0.5, 1e5, 2e5, 3e5, 5e5):
        x = c.Pi * w
        for y in (x, c.A @ x):
            core = c.basis.duals @ y @ c.basis.frame
            distances.append(max_norm(y - lift(c.basis, (core + core[::-1, ::-1]) / 2)))
        assert max_norm(C_of(c, x) - math.cos(math.pi * w) * c.I) < SUITE_TOL, w
        assert max_norm(S_of(c, x) - 1j * math.sin(math.pi * w) * c.B) < SUITE_TOL, w
        assert max_norm(logical_exp(c, c.A @ x) - np.exp(1j * math.pi * w) * c.I) < SUITE_TOL, w
    assert max(distances) > COMMUTATOR_TOL, distances


def test_span_check_is_absolute_below_unit_norm(ctx):
    # |X| < 1, so the bound is COMMUTATOR_TOL itself; on DIM4 the part of
    # s y^T outside span{I, N} has max-norm 1/4
    x = 0.01 * ctx.Pi
    s_yt = lift(ctx.basis, np.array([[1.0, 0.0], [0.0, 0.0]]))
    logical_exp(ctx, x + 2 * COMMUTATOR_TOL * s_yt)
    with pytest.raises(NonCommuting):
        logical_exp(ctx, x + 8 * COMMUTATOR_TOL * s_yt)


@pytest.mark.parametrize("outside", ["s_yT", "complement"])
def test_large_argument_outside_logic_span_still_rejected(outside):
    c = make_context(random_basis(16, 0.35, 1))
    if outside == "s_yT":
        x = 1e5 * lift(c.basis, np.array([[1.0, 0.0], [0.0, 0.0]]))
    else:
        x = 1e5 * (np.eye(16) - c.I)
    for family in (CLOSED_FORMS, SERIES):
        for function in family.values():
            with pytest.raises(NonCommuting):
                function(c, x)


@pytest.mark.parametrize("dim", [4, 16])
@pytest.mark.parametrize("eps", [0.0, 0.35, 0.9])
def test_closed_forms_match_decimal_series(dim, eps):
    # v up to 15.9, where the eigenvalues of A Pi v and Pi v reach |lambda| =
    # 15.9 pi = 49.95, just inside the series' bound of 50
    c = make_context(random_basis(dim, eps, 2))
    for v in np.linspace(-15.9, 15.9, 61):
        for kind, x in series_arguments(c, v):
            ref = SERIES[kind](c, x)
            assert max_norm(CLOSED_FORMS[kind](c, x) - ref) <= 1e-13 * max(1.0, max_norm(ref)), (kind, v)


def test_stacked_argument_matches_per_argument_calls():
    # each slice of a stacked call is the call on that slice, bit for bit
    b = random_basis(8, 0.35, 4)
    c = make_context(b)
    args = [x for v in np.linspace(-2.0, 2.0, 4) for _, x in series_arguments(c, v)]
    stack = np.array(args).reshape(4, 6, 8, 8)
    for family in (CLOSED_FORMS, SERIES):
        for function in family.values():
            out = function(c, stack)
            assert out.shape == stack.shape
            for i, j in np.ndindex(4, 6):
                assert out[i, j].tobytes() == function(c, stack[i, j]).tobytes()
            # one slice outside span{I, N} fails the whole stack
            bad = stack.copy()
            bad[3, 5] += lift(b, np.array([[1.0, 0.0], [0.0, 0.0]]))
            with pytest.raises(NonCommuting):
                function(c, bad)


def test_src_has_no_extended_precision():
    # results, and the tests' references, must not depend on the platform's
    # extended precision (the pattern is spelled so that it misses itself)
    root = Path(__file__).resolve().parents[1]
    pattern = re.compile(r"long ?double|float(96|128)|complex(192|256)")
    hits = [
        f"{path.name}:{number}"
        for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")])
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, hits


@pytest.mark.parametrize("v", [1e100, 1e300])
def test_euler_suite_rejects_argument_too_large_for_tol(ctx, v):
    # finite, but the rounding error |Pi v| 2^-52 of the argument is not below tol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("Pi*v at v = ") + ".*too large"):
            verify_euler_suite(ctx, [0.5, v])


def test_euler_suite_argument_bound_follows_tol(ctx):
    # the largest argument is Pi 2v, with rounding error |Pi 2v| 2^-52 = 1e-9,
    # |Pi| being bounded by K max(|a|, |b|) of Pi's core a I2 + b J = i pi B_CORE
    a, b = (1j * math.pi * B_CORE)[0]
    v = 1e-9 * 2.0**52 / (2 * matfun._lift_bound(ctx.basis) * max(abs(a), abs(b)))
    verify_euler_suite(ctx, [v], ks=(2,), tol=1.1e-9)
    with pytest.raises(ValueError, match=re.escape("Pi*k*v at k*v = ")):
        verify_euler_suite(ctx, [v], ks=(2,), tol=0.9e-9)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
def test_euler_suite_rejects_a_tolerance_that_is_not_finite_and_positive(ctx, tol):
    with pytest.raises(ValueError, match=re.escape("tol must be a finite positive number")):
        verify_euler_suite(ctx, EULER_V_SAMPLES, tol=tol)


@pytest.mark.parametrize("v", [1e100, 1e300])
def test_series_at_huge_argument_do_not_converge(ctx, v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, x in (("exp", ctx.A @ ctx.Pi * v), ("C", ctx.Pi * v), ("S", ctx.Pi * v)):
            with pytest.raises(SeriesNotConverged):
                SERIES[kind](ctx, x)


def test_pair_checks_read_the_context():
    # the pair suite and the scalar oracle take I, N, A, B and Pi from the
    # context's pairs, so a context with a wrong core fails them
    c = make_context(random_basis(8, 0.35, 2))
    I, _, A, B, Pi = c.pairs
    assert verify_euler_suite(c, EULER_V_SAMPLES, ks=(0, *EULER_KS)).passed
    assert scalar_oracle_residual(c) < RESIDUAL_TOL
    for wrong, failing in (
        (with_pairs(c, Pi=2 * Pi), "g_great_euler"),
        (with_pairs(c, A=A.conj()), "d_S_from_exponentials"),
        (with_pairs(c, N=I), "b_C2_minus_NS2_is_I"),
        (with_pairs(c, I=1.001 * I), "h_de_moivre"),
        (with_pairs(c, B=-B), "d_S_from_exponentials"),
    ):
        assert verify_euler_suite(wrong, EULER_V_SAMPLES, ks=(0, *EULER_KS)).residuals[failing] > 1e-4
    # the identities cannot tell i from -i; the scalar oracle can
    swapped = with_pairs(c, A=B, B=A)
    assert verify_euler_suite(swapped, EULER_V_SAMPLES, ks=(0, *EULER_KS)).passed
    for wrong in (swapped, with_pairs(c, Pi=2 * Pi), with_pairs(c, I=1.001 * I)):
        assert scalar_oracle_residual(wrong) > 1e-4


def test_scalar_oracle_sums_once_and_still_reads_the_context(monkeypatch):
    # once warm, no call with the module pairs sums a series; a wrong context
    # sums the six series once for its own pairs, and still fails
    matfun._scalar_exp_pair_residual.cache_clear()
    scalar_oracle_residual(make_context(random_basis(4, 0.0, 1)))
    summed = []
    series = matfun.scalar_exp_series
    monkeypatch.setattr(matfun, "scalar_exp_series", lambda x: summed.append(x) or series(x))
    c = make_context(random_basis(8, 0.35, 2))
    I, _, A, B, Pi = c.pairs
    assert scalar_oracle_residual(c) < RESIDUAL_TOL
    assert summed == []
    for wrong in (with_pairs(c, A=B, B=A), with_pairs(c, Pi=2 * Pi), with_pairs(c, I=1.001 * I)):
        summed.clear()
        for _ in range(2):
            assert scalar_oracle_residual(wrong) > 1e-4
        assert summed == [1j * math.pi * v for v in EULER_V_SAMPLES]


@pytest.mark.parametrize("dim", [2, 4, 16, 64])
@pytest.mark.parametrize("eps", [-0.5, 0.0, 0.35, 0.9])
def test_pair_residual_bounds_lifted_max_norm(dim, eps):
    b = random_basis(dim, eps, 3)
    bound = matfun._lift_bound(b)
    rng = np.random.default_rng(dim)
    for a, c in rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2)):
        exact = max_norm(lift(b, np.array([[a, c], [c, a]])))
        assert matfun._pair_residual(bound, np.array([a + c, a - c])) >= exact, (a, c)


def dense_euler_residuals(c, v_samples, ks):
    """The eight identities on dense Q x Q matrices, from the public closed
    forms and the context's I, N, A, B, Pi: the suite's independent oracle."""
    res = dict.fromkeys("abcdefgh", 0.0)
    for v in v_samples:
        x = c.Pi * v
        cv, sv = C_of(c, x), S_of(c, x)
        e_pos, e_neg = logical_exp(c, c.A @ x), logical_exp(c, -c.A @ x)
        cas = cv + c.A @ sv
        res["a"] = max(res["a"], max_norm(e_pos - cas))
        res["b"] = max(res["b"], max_norm(cv @ cv - c.N @ sv @ sv - c.I))
        res["c"] = max(res["c"], max_norm(cv - 0.5 * (e_pos + e_neg)))
        res["d"] = max(res["d"], max_norm(sv - 0.5 * c.B @ (e_pos - e_neg)))
        for k in ks:
            power = c.I if k == 0 else np.linalg.matrix_power(cas, k)
            xk = c.Pi * (k * v)
            res["h"] = max(res["h"], max_norm(power - (C_of(c, xk) + c.A @ S_of(c, xk))))
        for w in v_samples:
            y, cw, sw = c.Pi * w, C_of(c, c.Pi * w), S_of(c, c.Pi * w)
            res["e"] = max(res["e"], max_norm(C_of(c, x + y) - (cv @ cw + c.N @ sv @ sw)))
            res["f"] = max(res["f"], max_norm(S_of(c, x + y) - (sv @ cw + sw @ cv)))
    res["g"] = max_norm(logical_exp(c, c.A @ c.Pi) + c.I)
    return res


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("eps", [0.0, 0.35])
def test_euler_identities_hold_on_dense_matrices(dim, eps):
    c = make_context(random_basis(dim, eps, 5))
    dense = dense_euler_residuals(c, EULER_V_SAMPLES, (0, *EULER_KS))
    assert all(r < SUITE_TOL for r in dense.values()), dense
    report = verify_euler_suite(c, EULER_V_SAMPLES, ks=(0, *EULER_KS))
    assert [name[0] for name in report.residuals] == sorted(dense)
    assert report.passed, report.residuals


def test_euler_suite_builds_no_matrix(monkeypatch):
    c = make_context(random_basis(8, 0.35, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("the suite built a Q x Q matrix")

    monkeypatch.setattr(vlogic.operators, "lift", refuse)
    monkeypatch.setattr(matfun, "lift", refuse)
    monkeypatch.setattr(matfun, "_lift_eigen", refuse)
    assert verify_euler_suite(c, EULER_V_SAMPLES, ks=(0, *EULER_KS)).passed
    assert scalar_oracle_residual(c) < RESIDUAL_TOL
    with pytest.raises(AssertionError, match="built a Q x Q matrix"):
        logical_exp(c, c.Pi)


def test_euler_suite_memory_at_dim1024():
    c = make_context(random_basis(1024, 0.35, 1))
    tracemalloc.start()
    try:
        report = verify_euler_suite(c, EULER_V_SAMPLES, ks=EULER_KS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 16  # one Q x Q complex128 array
    assert report.passed, report.residuals


def test_worst_argument_reproduces_the_worst_residual():
    c = make_context(random_basis(8, 0.35, 4))
    report = verify_euler_suite(c, EULER_V_SAMPLES, ks=(0, *EULER_KS))
    worst = report.metadata["worst_argument"]
    assert worst.keys() == report.residuals.keys()
    assert worst["g_great_euler"] == {"v": 1.0}
    for name, arg in worst.items():
        if set(arg) == {"va", "vb"}:
            again = verify_euler_suite(c, [arg["va"], arg["vb"]], ks=())
        elif set(arg) == {"k", "v"}:
            again = verify_euler_suite(c, [arg["v"]], ks=(arg["k"],))
        else:
            assert set(arg) == {"v"}, arg
            again = verify_euler_suite(c, [arg["v"]], ks=())
        assert again.residuals[name] == report.residuals[name], (name, arg)
    assert {tuple(arg) for arg in worst.values()} == {("v",), ("k", "v"), ("va", "vb")}


def test_library_suite_accepts_empty_samples():
    # only the CLI rejects an empty --v or --k; the library reports no worst
    # argument for an identity with no sample. The largest |w| of these is
    # max|v| max(2, k) = 0, with no k, k = 0 and v = -0.0 too
    c = make_context(random_basis(4, 0.0, 1))
    for v_samples, ks in (([], ()), ([], (0,)), ([], EULER_KS), ([-0.0], ()), ([-0.0], (0,)), ([-0.0, 0.0], EULER_KS)):
        report = verify_euler_suite(c, v_samples, ks=ks)
        assert report.passed
        worst = report.metadata["worst_argument"]
        assert worst["g_great_euler"] == {"v": 1.0}
        no_sample = set(worst) - {"g_great_euler"} if not v_samples else {"h_de_moivre"} if not ks else set()
        assert {name for name, arg in worst.items() if arg is None} == no_sample, (v_samples, ks)


def test_context_computes_its_pairs_and_bound_once(monkeypatch):
    # the pairs were computed at import; the Euler suite and the scalar
    # oracle of one context share them and its bound, computed once
    calls = []
    lift_bound = matfun._lift_bound
    monkeypatch.setattr(matfun, "_lift_bound", lambda b: calls.append(b) or lift_bound(b))

    def refuse(*args):
        raise AssertionError("pairs computed again")

    monkeypatch.setattr(matfun, "_eigenpairs", refuse)
    c = make_context(random_basis(8, 0.35, 2))
    for _ in range(2):
        assert verify_euler_suite(c, EULER_V_SAMPLES, ks=EULER_KS).passed
        assert scalar_oracle_residual(c) < RESIDUAL_TOL
    assert calls == [c.basis]
    assert not c.pairs.flags.writeable
    # another context of the same basis computes its own bound
    assert scalar_oracle_residual(with_pairs(c, I=1.001 * c.pairs[0])) > 1e-4
    assert calls == [c.basis, c.basis]


def test_scalar_series_sums_one_scalar_bit_identical_to_the_pair():
    # the pair (x, x) on the core x*I2 adds the same terms as the one scalar x
    vs = [*EULER_V_SAMPLES, *np.linspace(-15.9, 15.9, 61)]
    single = np.array([scalar_exp_series(1j * math.pi * v) for v in vs])
    with decimal.localcontext(matfun._DIGITS):
        lams = [matfun._dec(1j * math.pi * v) for v in vs]
        pair = np.array([matfun._eigen_series(lam, lam, "exp")[0] for lam in lams])
    assert single.tobytes() == pair.tobytes()


def test_context_lifts_its_cores_lazily_and_bit_for_bit():
    b = random_basis(16, 0.35, 3)
    c = make_context(b)
    assert not {"I", "N", "A", "B", "Pi"} & set(vars(c))
    roots = vlogic.srn.sqrt_not(b)
    dense_i, dense_n = vlogic.operators.gate_operator(b, (ID, NOT)) @ np.eye(16, dtype=complex)
    dense_pi = lift(b, 1j * math.pi * B_CORE)
    for m, expected in ((c.I, dense_i), (c.N, dense_n), (c.A, roots.A), (c.B, roots.B), (c.Pi, dense_pi)):
        assert m.dtype == complex and m.tobytes() == expected.tobytes()
        assert not m.flags.writeable
    assert max_norm(c.Pi - 1j * math.pi * roots.B) <= 1e-14 * max_norm(c.Pi)
    assert c.Pi is c.Pi  # kept after the first read
    # a wrong pair is wrong in its dense field and in no other
    for row, name in enumerate(FIELDS):
        wrong = with_pairs(c, **{name: 2 * c.pairs[row]})
        assert max_norm(getattr(wrong, name) - 2 * getattr(c, name)) < 1e-15
        for other in set(FIELDS) - {name}:
            assert getattr(wrong, other).tobytes() == getattr(c, other).tobytes()


def test_make_context_builds_nothing_of_size_q():
    b = random_basis(1024, 0.35, 1)
    tracemalloc.start()
    try:
        c = make_context(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 16  # one complex128 vector of length Q
    assert c.basis is b


def test_euler_pair_arithmetic_is_done_once_per_process(monkeypatch):
    # the basis enters only through K: a warm suite on another basis reads
    # the kept residuals times its K, and a wrong core computes afresh
    matfun._euler_pair_residuals.cache_clear()
    c4 = make_context(random_basis(4, 0.0, 1))
    verify_euler_suite(c4, EULER_V_SAMPLES, ks=EULER_KS)

    def refuse(*args, **kwargs):
        raise AssertionError("pair arithmetic done again")

    # -0.0 and 0.0 are distinct samples: each worst argument keeps its sign
    for v in (0.0, -0.0):
        worst = verify_euler_suite(c4, [v], ks=()).metadata["worst_argument"]["a_exp_equals_C_plus_AS"]
        assert math.copysign(1.0, worst["v"]) == math.copysign(1.0, v)

    for name in ("_C_pair", "_S_pair"):
        monkeypatch.setattr(matfun, name, refuse)
    c = make_context(random_basis(32, 0.35, 5))
    I, _, A, B, _ = c.pairs
    k = matfun._lift_bound(c.basis)
    report = verify_euler_suite(c, EULER_V_SAMPLES, ks=EULER_KS)
    kept = matfun._euler_pair_residuals(c.pairs.tobytes(), np.array(EULER_V_SAMPLES).tobytes(), EULER_KS)
    assert report.residuals == {name: k * r for name, r, _ in kept}
    assert report.passed
    for wrong in (with_pairs(c, I=1.001 * I), with_pairs(c, A=B, B=A)):
        with pytest.raises(AssertionError, match="done again"):
            verify_euler_suite(wrong, EULER_V_SAMPLES, ks=EULER_KS)


@pytest.mark.parametrize("k", [0.5, 1.0, 1.7, 3.25, 97.0])
def test_scaling_the_kept_residual_by_k_equals_scaling_inline(k):
    # K max(r) = max(K r) as rounding is monotone, and halving is exact
    rng = np.random.default_rng(int(k * 4))
    d = (rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2))) * 10.0 ** rng.integers(-17, 2, size=(500, 1))
    assert k * float(matfun._pair_residual(1.0, d).max()) == float(matfun._pair_residual(k, d).max())


def test_closed_forms_raise_where_the_result_overflows():
    # e^1000 overflows, and cosh(1e307) and sinh(1e307): each was an all-NaN
    # matrix after RuntimeWarnings (inf - inf in the lift), which pytest here
    # turns into errors; on a near-dependent basis the lift of the finite
    # e^709 overflows too
    ctx = make_context(canonical_basis("DIM4"))
    oblique = make_context(random_basis(4, 0.9, 1))
    huge = lift(oblique.basis, 1e307 * np.eye(2))
    near = make_context(random_basis(4, 0.9999, 1))
    for function, c, x in (
        (logical_exp, ctx, 1000 * ctx.I),
        (C_of, oblique, huge),
        (S_of, oblique, huge),
        (logical_exp, near, 709 * near.I),
    ):
        for arg in (x, np.stack([c.I, x])):
            with pytest.raises(ValueError, match="result is not finite"):
                function(c, arg)
    # just inside the range of float64 nothing changes
    assert np.isfinite(logical_exp(ctx, 709 * ctx.I)).all()


def test_context_pairs_of_the_module_cores_are_computed_once():
    # every make_context shares one read-only array, computed at import: the
    # pairs of the cores of I, N, A, B and Pi, bit for bit
    a, b = make_context(random_basis(4, 0.0, 1)), make_context(random_basis(16, 0.35, 2))
    assert a.pairs is b.pairs
    assert not a.pairs.flags.writeable
    cores = np.stack([np.eye(2), [[0, 1], [1, 0]], A_CORE, B_CORE, 1j * math.pi * B_CORE]).astype(complex)
    assert a.pairs.tobytes() == matfun._eigenpairs(cores).tobytes()
    assert a.pairs.tolist() == [[1, 1], [1, -1], [1, 1j], [1, -1j], [1j * math.pi, math.pi]]
    # a context with a wrong core holds its own pairs
    wrong = with_pairs(a, I=1.001 * a.pairs[0])
    assert wrong.pairs[0].tolist() == [1.001 + 0j, 1.001 + 0j]
    assert wrong.pairs[1:].tobytes() == a.pairs[1:].tobytes()


def test_scalar_oracle_pair_arithmetic_is_done_once_per_process(monkeypatch):
    # as for the Euler suite: a warm oracle on another basis reads the kept
    # residual times its K, bit for bit the unfolded K max(...)
    scalar_oracle_residual(make_context(random_basis(4, 0.0, 1)))

    def refuse(*args, **kwargs):
        raise AssertionError("pair arithmetic done again")

    sums = np.array([scalar_exp_series(1j * math.pi * v) for v in EULER_V_SAMPLES])
    for q, eps in ((2, 0.0), (32, 0.35), (64, -0.9)):
        c = make_context(random_basis(q, eps, 5))
        I, _, A, _, Pi = c.pairs
        d = np.exp(A * Pi * np.array(EULER_V_SAMPLES)[:, None]) - sums[:, None] * I
        unfolded = float(matfun._pair_residual(c._bound, d).max())
        with monkeypatch.context() as m:
            m.setattr(matfun, "scalar_exp_series", refuse)
            assert matfun.scalar_exp_residual(c) == unfolded


def test_euler_suite_walks_its_arguments_only_to_name_a_failure(monkeypatch):
    calls = []
    arguments = matfun._arguments
    monkeypatch.setattr(matfun, "_arguments", lambda *a: calls.append(a) or arguments(*a))
    c = make_context(random_basis(8, 0.35, 1))
    for _ in range(3):
        assert verify_euler_suite(c, EULER_V_SAMPLES, ks=EULER_KS).passed
    assert calls == []  # the largest |w| is max|v| max(2, k), with no walk
    calls.clear()
    with pytest.raises(ValueError, match=re.escape("Pi*v at v = 1e+100 is too large")):
        verify_euler_suite(c, [0.5, 1e100])
    assert [list(v) for v, _ in calls][-1] == [0.5, 1e100]


def test_per_process_constants_are_not_computed_at_import():
    # the caches fill on first use, so importing the CLI costs no more
    code = (
        "import vlogic.cli, vlogic.matfun as m; "
        "print([f.cache_info().currsize for f in (m._scalar_exp_pair_residual, m._euler_pair_residuals)])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(Path(matfun.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0]"


def test_every_per_process_cache_is_hit_by_the_traffic():
    # a census of the functools caches defined in vlogic: each one earns its
    # place only if a warm verify run and a Gate diagnosis hit it again
    caches = {}
    for module_info in pkgutil.iter_modules(vlogic.__path__):
        module = importlib.import_module(f"vlogic.{module_info.name}")
        for name, f in vars(module).items():
            if hasattr(f, "cache_info") and f.__module__ == module.__name__:
                caches[f"{module.__name__}.{name}"] = f
    assert sorted(caches) == [
        "vlogic.matfun._euler_pair_residuals",
        "vlogic.matfun._scalar_exp_pair_residual",
        "vlogic.operators._one_hot_cores",
    ]

    def traffic():
        run_full_verification(4)
        b = random_basis(8, 0.0, 1)
        classify(probe(gate_operator(b, AND), b, 2), 2)

    traffic()
    hits = {name: f.cache_info().hits for name, f in caches.items()}
    traffic()
    assert all(f.cache_info().hits > hits[name] for name, f in caches.items()), hits
