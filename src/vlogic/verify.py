"""Aggregated verification: every invariant suite in one run.

Backs the `vlogic verify` subcommand. Each section reports named max-norm
residuals (or booleans for structural checks) and the run passes only if
every section does.
"""

from __future__ import annotations

from math import pi

import numpy as np

from . import diagnosis, matfun, scalar_logic, srn
from .basis import TruthBasis, random_basis
from .operators import (
    _dyadic_times_kron,
    dyadic_operator,
    identity_operator,
    max_norm,
    monadic_operator,
    negation_operator,
)
from .scalar_logic import ALL_DYADIC_TABLES, FALSE, MONADIC_GATES, TRUE, dyad_eval, mon_eval

IDENTITY_TOL = 1e-8
RESIDUAL_TOL = 1e-10

EULER_V_SAMPLES = (0.0, 0.25, 0.5, 1.0, 1.5, -0.75)
EULER_KS = (2, 3, 5)


def basis_residuals(b: TruthBasis) -> dict[str, float]:
    return {
        "ys_minus_1": abs(b.y @ b.s - 1.0),
        "zn_minus_1": abs(b.z @ b.n - 1.0),
        "yn": abs(float(b.y @ b.n)),
        "zs": abs(float(b.z @ b.s)),
    }


def truth_table_residuals(b: TruthBasis) -> dict[str, float]:
    """Matrix gates vs the scalar +/-1 oracle on every {s,n} input combination.

    Each gate is applied once to all its inputs side by side: [s n] for a
    monadic gate, K = [s(x)s, s(x)n, n(x)s, n(x)n] for a dyadic one, so the
    max-norm of the Q x 2 or Q x 4 residual is the worst input's residual.
    """
    col = {TRUE: 0, FALSE: 1}  # frame column of each truth value
    mon_inputs = (TRUE, FALSE)
    dyad_inputs = [(u, v) for u in (TRUE, FALSE) for v in (TRUE, FALSE)]
    dyad_k = np.column_stack([np.kron(b.frame[:, col[u]], b.frame[:, col[v]]) for u, v in dyad_inputs])
    out: dict[str, float] = {}
    for name, table in MONADIC_GATES.items():
        expected = b.frame[:, [col[mon_eval(table, w)] for w in mon_inputs]]
        out[f"monadic_{name}"] = max_norm(monadic_operator(b, table) @ b.frame - expected)
    for table in ALL_DYADIC_TABLES:
        expected = b.frame[:, [col[dyad_eval(table, u, v)] for u, v in dyad_inputs]]
        out[f"dyadic_{table.name}"] = max_norm(dyadic_operator(b, table) @ dyad_k - expected)
    return out


def tautology_residuals(b: TruthBasis) -> dict[str, float]:
    ident = identity_operator(b)
    neg = negation_operator(b)
    l = dyadic_operator(b, scalar_logic.IMPL)
    d = dyadic_operator(b, scalar_logic.OR)
    c = dyadic_operator(b, scalar_logic.AND)
    return {
        "L_minus_D_NxI": max_norm(l - _dyadic_times_kron(d, neg, ident)),
        "D_minus_NC_NxN": max_norm(d - neg @ _dyadic_times_kron(c, neg, neg)),
    }


def diagnosis_roundtrip_failures(b: TruthBasis, tol: float = 1e-10) -> list[str]:
    """Gates whose single-probe round trip misidentifies or exceeds tol."""
    failures = []
    for name, table in MONADIC_GATES.items():
        res = diagnosis.classify_monadic(diagnosis.probe_monadic(monadic_operator(b, table), b))
        if res.verdict != name or res.distance > tol:
            failures.append(name)
    for name, table in scalar_logic.NAMED_DYADIC_GATES.items():
        res = diagnosis.classify_dyadic(diagnosis.probe_dyadic(dyadic_operator(b, table), b))
        if res.verdict != name or res.distance > tol:
            failures.append(name)
    return failures


def scalar_oracle_residual(ctx: matfun.LogicAlgebraContext, v_samples=EULER_V_SAMPLES) -> float:
    """logical_exp(A Pi v) vs e^{i pi v} I from the scalar series, entrywise."""
    worst = 0.0
    for v in v_samples:
        mat = matfun.logical_exp(ctx, ctx.A @ (ctx.Pi * v))
        scalar = matfun.scalar_exp_series(1j * pi * v)
        worst = max(worst, max_norm(mat - scalar * ctx.I))
    return worst


def run_full_verification(dim: int = 4, seed: int = 1, tol: float = IDENTITY_TOL) -> dict:
    """Run every suite on one orthonormal basis of the given dim plus a
    non-orthogonal companion; returns a JSON-ready report."""
    b0 = random_basis(dim, 0.0, seed)
    b_eps = random_basis(dim, 0.35, seed + 1)
    pair0 = srn.sqrt_not(b0)
    pair_eps = srn.sqrt_not(b_eps)
    ctx = matfun.make_context(b0)

    sections = {
        "basis_orthonormal": basis_residuals(b0),
        "basis_nonorthogonal": basis_residuals(b_eps),
        "truth_tables": truth_table_residuals(b0),
        "truth_tables_nonorthogonal": truth_table_residuals(b_eps),
        "tautologies": tautology_residuals(b0),
        "tautologies_nonorthogonal": tautology_residuals(b_eps),
        "srn": srn.identity_report(pair0, b0),
        "srn_nonorthogonal": srn.identity_report(pair_eps, b_eps),
        "scalar_oracle": {"exp_vs_scalar_series": scalar_oracle_residual(ctx)},
    }

    euler = matfun.verify_euler_suite(ctx, EULER_V_SAMPLES, ks=EULER_KS, tol=tol)
    sections["euler"] = euler.residuals

    report: dict = {"dim": dim, "seed": seed, "sections": {}, "pass": True}
    for name, residuals in sections.items():
        section_tol = tol if name == "euler" else RESIDUAL_TOL
        ok = all(r < section_tol for r in residuals.values())
        report["sections"][name] = {
            "residuals": {k: float(v) for k, v in residuals.items()},
            "tolerance": section_tol,
            "pass": ok,
        }
        report["pass"] = report["pass"] and ok

    failures = diagnosis_roundtrip_failures(b0)
    _, classes = diagnosis.enumerate_dyadic_signatures(b0)
    named = set(scalar_logic.NAMED_DYADIC_GATES)
    named_distinct = all(len([g for g in cls if g in named]) <= 1 for cls in classes)
    has_collision = any(len(cls) >= 2 for cls in classes)
    diag_ok = not failures and named_distinct and has_collision
    report["sections"]["diagnosis"] = {
        "roundtrip_failures": failures,
        "named_gates_distinct": named_distinct,
        "collision_classes": [cls for cls in classes if len(cls) >= 2],
        "pass": diag_ok,
    }
    report["pass"] = report["pass"] and diag_ok
    return report
