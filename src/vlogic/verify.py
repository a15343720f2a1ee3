"""Aggregated verification: every invariant suite in one run.

Backs the `vlogic verify` subcommand. Each section reports named max-norm
residuals (or booleans for structural checks) and the run passes only if
every section does.
"""

from __future__ import annotations

from itertools import product
from math import pi

import numpy as np

from . import diagnosis, matfun, scalar_logic, srn
from .basis import TruthBasis, random_basis
from .operators import I2, J, _kron_power, _times_kron_cores, gate_operator, max_norm, negation_operator
from .scalar_logic import ALL_DYADIC_TABLES, FALSE, MONADIC_GATES, NAMED_DYADIC_GATES, TRUE, evaluate

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

    A k-ary gate is applied once to all its inputs side by side, the
    Q^k x 2^k matrix [s n]^{(x)k} whose column j is the product of frame
    columns picked by input combination j (for k = 2: s(x)s, s(x)n, n(x)s,
    n(x)n), so the max-norm of the Q x 2^k residual is the worst input's.
    """
    col = {TRUE: 0, FALSE: 1}  # frame column of each truth value
    out: dict[str, float] = {}
    for prefix, arity, tables in (("monadic", 1, MONADIC_GATES.values()), ("dyadic", 2, ALL_DYADIC_TABLES)):
        inputs = list(product((TRUE, FALSE), repeat=arity))  # in the column order of [s n]^{(x)k}
        frames = _kron_power(b.frame, arity)
        for table in tables:
            expected = b.frame[:, [col[evaluate(table, *ws)] for ws in inputs]]
            out[f"{prefix}_{table.name}"] = max_norm(gate_operator(b, table) @ frames - expected)
    return out


def tautology_residuals(b: TruthBasis) -> dict[str, float]:
    """L = D (N(x)I) and D = N C (N(x)N), the right-hand sides taken on the
    cores of I and N, with N applied to C's Q x 4 output columns before the
    expansion; the dense L and D are compared entry by entry."""
    neg = negation_operator(b)
    l = gate_operator(b, scalar_logic.IMPL)
    d = gate_operator(b, scalar_logic.OR)
    c = gate_operator(b, scalar_logic.AND)
    return {
        "L_minus_D_NxI": max_norm(np.asarray(l) - _times_kron_cores(b, d, J, I2)),
        "D_minus_NC_NxN": max_norm(np.asarray(d) - _times_kron_cores(b, neg @ c, J, J)),
    }


def diagnosis_roundtrip_failures(b: TruthBasis) -> list[str]:
    """Gates whose single-probe round trip misidentifies or exceeds RESIDUAL_TOL."""
    failures = []
    for table in (*MONADIC_GATES.values(), *NAMED_DYADIC_GATES.values()):
        sig = diagnosis.probe(gate_operator(b, table), b, table.arity)
        res = diagnosis.classify(sig, table.arity)
        if res.verdict != table.name or res.distance > RESIDUAL_TOL:
            failures.append(table.name)
    return failures


def scalar_oracle_residual(ctx: matfun.LogicAlgebraContext, v_samples=EULER_V_SAMPLES) -> float:
    """logical_exp(A Pi v) vs e^{i pi v} I from the scalar series, entrywise."""
    v = np.array(v_samples, dtype=float)
    mats = matfun.logical_exp(ctx, ctx.A @ (ctx.Pi * v[:, None, None]))
    scalars = np.array([matfun.scalar_exp_series(1j * pi * w) for w in v], dtype=complex)
    return max_norm(mats - scalars[:, None, None] * ctx.I)


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
    named = set(NAMED_DYADIC_GATES)
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
