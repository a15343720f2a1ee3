"""Aggregated verification: every invariant suite in one run.

Backs the `vlogic verify` subcommand. Each section reports named max-norm
residuals (or booleans for structural checks) and the run passes only if
every section does. A run builds no dense Q x Q matrix and no Q^k vector:
the gates of each arity are one stacked `Gate` applied to factored
product inputs (`Gate.on_product`), the roots of NOT are factored `Gate`s
and the Euler checks read the context's 2 x 2 cores, so its memory grows
as O(Q).
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import pi

import numpy as np

from . import diagnosis, matfun, scalar_logic, srn
from .basis import TruthBasis, random_basis
from .matfun import EULER_KS, EULER_V_SAMPLES, IDENTITY_TOL
from .operators import gate_operator
from .scalar_logic import ALL_DYADIC_TABLES, FALSE, MONADIC_GATES, NAMED_DYADIC_GATES, TRUE, evaluate

RESIDUAL_TOL = 1e-10


def basis_residuals(b: TruthBasis) -> dict[str, float]:
    """The entries of Y^T S - I2, read with one product."""
    (ys, yn), (zs, zn) = (b.duals @ b.frame).tolist()
    return {"ys_minus_1": abs(ys - 1.0), "zn_minus_1": abs(zn - 1.0), "yn": abs(yn), "zs": abs(zs)}


# The gates of each arity that truth_table_residuals checks, by the prefix
# of their residual names.
_TABLES = {"monadic": tuple(MONADIC_GATES.values()), "dyadic": ALL_DYADIC_TABLES}
_RESIDUAL_NAMES = {prefix: [f"{prefix}_{t.name}" for t in tables] for prefix, tables in _TABLES.items()}


@cache
def _expected_columns() -> dict[str, np.ndarray]:
    """Frame column (0 for s, 1 for n) of each table's output, by the +/-1
    oracle, on each input combination in the column order of [s n]^{(x)k},
    for each entry of _TABLES: a constant of the tables, never of a basis,
    so it is derived once."""
    out = {}
    for prefix, tables in _TABLES.items():
        inputs = list(product((TRUE, FALSE), repeat=tables[0].arity))
        out[prefix] = np.array([[0 if evaluate(t, *ws) == TRUE else 1 for ws in inputs] for t in tables])
    return out


def truth_table_residuals(b: TruthBasis) -> dict[str, float]:
    """Matrix gates vs the scalar +/-1 oracle on every {s,n} input combination.

    The gates of each arity k form one stack, applied once to all their
    inputs side by side: the Q^k x 2^k matrix [s n]^{(x)k} whose column j is
    the product of frame columns picked by input combination j (for k = 2:
    s(x)s, s(x)n, n(x)s, n(x)n), given to `Gate.on_product` as its k factors
    [s n]. The max-norm of each gate's Q x 2^k residual is its worst input's.
    """
    out: dict[str, float] = {}
    for prefix, tables in _TABLES.items():
        # (Q, G, 2^k) -> (G, Q, 2^k), the shape of the stack's output
        expected = b.frame[:, _expected_columns()[prefix]].swapaxes(0, 1)
        residual = gate_operator(b, tables).on_product(*[b.frame] * tables[0].arity) - expected
        out.update(zip(_RESIDUAL_NAMES[prefix], np.abs(residual).max(axis=(1, 2)).tolist()))
    return out


def tautology_residuals(b: TruthBasis) -> dict[str, float]:
    """L = D (N(x)I) and D = N C (N(x)N). Each side is Q x 4 output columns
    times ([y z]^T)^{(x)2} (mixed-product rule, Van Loan 2000), so the two
    agree exactly when they agree on [s n]^{(x)2} = s(x)s, s(x)n, n(x)s,
    n(x)n. L, D and C are one stack, applied once to [S NS] (x) [S NS]
    (`Gate.on_product`), in O(Q) memory; each side is a 2 x 2 block of its
    4 x 4 factor columns. NOT is built once."""
    neg = gate_operator(b, scalar_logic.NOT)
    ldc = gate_operator(b, (scalar_logic.IMPL, scalar_logic.OR, scalar_logic.AND))
    factor = np.concatenate((b.frame, neg @ b.frame), axis=1)  # s, n, N s, N n
    # (3, Q, 16) -> gate, row, left factor column, right factor column
    l, d, c = ldc.on_product(factor, factor).reshape(3, b.dim, 4, 4)
    negated_c = (neg @ c[:, 2:, 2:].reshape(b.dim, 4)).reshape(b.dim, 2, 2)
    sides = np.array((l[:, :2, :2] - d[:, 2:, :2], d[:, :2, :2] - negated_c))
    return dict(zip(("L_minus_D_NxI", "D_minus_NC_NxN"), np.abs(sides).max(axis=(1, 2, 3)).tolist()))


# The row of each named dyadic gate among ALL_DYADIC_TABLES
_NAMED_DYADIC_ROWS = np.array([[t.name for t in ALL_DYADIC_TABLES].index(name) for name in NAMED_DYADIC_GATES])


def diagnosis_roundtrip_failures(monadic: np.ndarray, dyadic: np.ndarray) -> list[str]:
    """Monadic and named dyadic gates whose probe signature, a row of the
    coefficients of MONADIC_GATES or ALL_DYADIC_TABLES in order, misidentifies
    or lies farther than RESIDUAL_TOL from its reference, by `classify`'s rule
    at its default tol, one distance matrix per arity."""
    failures = []
    for arity, tables, coefficients in (
        (1, MONADIC_GATES.values(), monadic),
        (2, NAMED_DYADIC_GATES.values(), dyadic[_NAMED_DYADIC_ROWS]),
    ):
        nearest = diagnosis._nearest(coefficients, arity, diagnosis.DEFAULT_CLASSIFY_TOL)
        for table, (verdict, distance, _, _) in zip(tables, nearest):
            if verdict != table.name or distance > RESIDUAL_TOL:
                failures.append(table.name)
    return failures


def diagnosis_section(b: TruthBasis) -> dict:
    """One stacked probe of the monadic gates and one of the dyadic gates,
    each on the factors of its probe input, read as arrays of signature
    coefficients (`diagnosis._enumerate`). Passes when the monadic and named
    dyadic gates round-trip through `classify`, no two named dyadic gates
    share a signature, and some dyadic gates do (the one-probe ambiguities)."""
    monadic, _, _ = diagnosis._enumerate(b, _TABLES["monadic"])
    dyadic, _, classes = diagnosis._enumerate(b, ALL_DYADIC_TABLES)
    failures = diagnosis_roundtrip_failures(monadic, dyadic)
    named = set(NAMED_DYADIC_GATES)
    named_distinct = all(len([g for g in cls if g in named]) <= 1 for cls in classes)
    collisions = [cls for cls in classes if len(cls) >= 2]
    return {
        "roundtrip_failures": failures,
        "named_gates_distinct": named_distinct,
        "collision_classes": collisions,
        "pass": not failures and named_distinct and bool(collisions),
    }


@cache
def _scalar_exp_sums() -> tuple[complex, ...]:
    # a constant of EULER_V_SAMPLES, never of a basis or context, so it is summed once
    return tuple(matfun.scalar_exp_series(1j * pi * v) for v in EULER_V_SAMPLES)


def scalar_oracle_residual(ctx: matfun.LogicAlgebraContext) -> float:
    """The closed-form logical_exp(A Pi v) against e^{i pi v} I from the
    scalar series over EULER_V_SAMPLES, on eigenvalue pairs with the Euler
    suite's bound (`matfun.scalar_exp_residual`). The scalar sums are
    summed once; the context is read on every call."""
    return matfun.scalar_exp_residual(ctx, EULER_V_SAMPLES, _scalar_exp_sums())


def run_full_verification(dim: int = 4, seed: int = 1, tol: float = IDENTITY_TOL) -> dict:
    """Run every suite on one orthonormal basis of the given dim plus a
    non-orthogonal companion; returns a JSON-ready report."""
    b0 = random_basis(dim, 0.0, seed)
    b_eps = random_basis(dim, 0.35, seed + 1)
    ctx = matfun.make_context(b0)

    sections = {
        "basis_orthonormal": basis_residuals(b0),
        "basis_nonorthogonal": basis_residuals(b_eps),
        "truth_tables": truth_table_residuals(b0),
        "truth_tables_nonorthogonal": truth_table_residuals(b_eps),
        "tautologies": tautology_residuals(b0),
        "tautologies_nonorthogonal": tautology_residuals(b_eps),
        "srn": srn.identity_report(srn.factored_roots(b0), b0),
        "srn_nonorthogonal": srn.identity_report(srn.factored_roots(b_eps), b_eps),
        "scalar_oracle": {"exp_vs_scalar_series": scalar_oracle_residual(ctx)},
        "euler": matfun.verify_euler_suite(ctx, EULER_V_SAMPLES, ks=EULER_KS, tol=tol).residuals,
    }

    report: dict = {"dim": dim, "seed": seed, "sections": {}, "pass": True}
    for name, residuals in sections.items():
        section_tol = tol if name == "euler" else RESIDUAL_TOL
        ok = matfun.IdentityReport(residuals, section_tol).passed
        report["sections"][name] = {
            "residuals": {k: float(v) for k, v in residuals.items()},
            "tolerance": section_tol,
            "pass": ok,
        }
        report["pass"] = report["pass"] and ok

    diag = diagnosis_section(b0)
    report["sections"]["diagnosis"] = diag
    report["pass"] = report["pass"] and diag["pass"]
    return report
