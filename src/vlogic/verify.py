"""Aggregated verification: every invariant suite in one run.

Backs the `vlogic verify` subcommand. Each section reports named max-norm
residuals (or booleans for structural checks) and the run passes only if
every section does. A run repeats no work: the gates of each arity are
checked as one stacked `Gate`, each gate is probed once for the diagnosis
section, and the scalar oracle's series, which depend on no basis, are
kept across calls.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import pi

import numpy as np

from . import diagnosis, matfun, scalar_logic, srn
from .basis import TruthBasis, random_basis
from .operators import _kron, _kron_power, gate_operator, max_norm, negation_operator
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

    The gates of each arity k form one stack, applied once to all their
    inputs side by side: the Q^k x 2^k matrix [s n]^{(x)k} whose column j is
    the product of frame columns picked by input combination j (for k = 2:
    s(x)s, s(x)n, n(x)s, n(x)n). The max-norm of each gate's Q x 2^k
    residual is its worst input's.
    """
    col = {TRUE: 0, FALSE: 1}  # frame column of each truth value
    out: dict[str, float] = {}
    for prefix, arity, tables in (("monadic", 1, MONADIC_GATES.values()), ("dyadic", 2, ALL_DYADIC_TABLES)):
        inputs = list(product((TRUE, FALSE), repeat=arity))  # in the column order of [s n]^{(x)k}
        # (Q, G, 2^k) -> (G, Q, 2^k), the shape of the stack's output
        expected = b.frame[:, [[col[evaluate(t, *ws)] for ws in inputs] for t in tables]].swapaxes(0, 1)
        residual = gate_operator(b, tables) @ _kron_power(b.frame, arity) - expected
        for table, r in zip(tables, np.abs(residual).max(axis=(1, 2)).tolist()):
            out[f"{prefix}_{table.name}"] = r
    return out


def tautology_residuals(b: TruthBasis) -> dict[str, float]:
    """L = D (N(x)I) and D = N C (N(x)N). Each side is Q x 4 output columns
    times ([y z]^T)^{(x)2} (mixed-product rule, Van Loan 2000), so the two
    agree exactly when they agree on [s n]^{(x)2} = s(x)s, s(x)n, n(x)s,
    n(x)n; both sides are applied there through `@`, in O(Q^2) memory."""
    neg = negation_operator(b)
    l = gate_operator(b, scalar_logic.IMPL)
    d = gate_operator(b, scalar_logic.OR)
    c = gate_operator(b, scalar_logic.AND)
    frames = _kron_power(b.frame, 2)
    negated = neg @ b.frame  # N s, N n
    return {
        "L_minus_D_NxI": max_norm(l @ frames - d @ _kron(negated, b.frame)),
        "D_minus_NC_NxN": max_norm(d @ frames - neg @ (c @ _kron(negated, negated))),
    }


def diagnosis_roundtrip_failures(signatures: dict[str, diagnosis.GateSignature]) -> list[str]:
    """Monadic and named dyadic gates whose probe signature, given by gate
    name, misidentifies or lies farther than RESIDUAL_TOL from its reference."""
    failures = []
    for table in (*MONADIC_GATES.values(), *NAMED_DYADIC_GATES.values()):
        res = diagnosis.classify(signatures[table.name], table.arity)
        if res.verdict != table.name or res.distance > RESIDUAL_TOL:
            failures.append(table.name)
    return failures


def diagnosis_section(b: TruthBasis) -> dict:
    """One probe of each monadic and dyadic gate (`diagnosis.enumerate_signatures`).
    Passes when the monadic and named dyadic gates round-trip
    through `classify`, no two named dyadic gates share a signature, and some
    dyadic gates do (the one-probe ambiguities)."""
    monadic, _ = diagnosis.enumerate_signatures(b, MONADIC_GATES.values())
    dyadic, classes = diagnosis.enumerate_dyadic_signatures(b)
    failures = diagnosis_roundtrip_failures({**monadic, **dyadic})  # gate names are unique
    named = set(NAMED_DYADIC_GATES)
    named_distinct = all(len([g for g in cls if g in named]) <= 1 for cls in classes)
    collisions = [cls for cls in classes if len(cls) >= 2]
    return {
        "roundtrip_failures": failures,
        "named_gates_distinct": named_distinct,
        "collision_classes": collisions,
        "pass": not failures and named_distinct and bool(collisions),
    }


@lru_cache(maxsize=4)
def _scalar_exp_sums(v_samples: tuple[float, ...]) -> tuple[complex, ...]:
    # depends on v alone, never on a basis or context, so it is kept across calls
    return tuple(matfun.scalar_exp_series(1j * pi * v) for v in v_samples)


def scalar_oracle_residual(ctx: matfun.LogicAlgebraContext, v_samples=EULER_V_SAMPLES) -> float:
    """The closed-form logical_exp(A Pi v) against e^{i pi v} I from the
    scalar series, on eigenvalue pairs with the Euler suite's bound
    (`matfun.scalar_exp_residual`). The scalar sums of the last few distinct
    v_samples are kept; the context is read on every call."""
    v_samples = tuple(float(v) for v in v_samples)
    return matfun.scalar_exp_residual(ctx, v_samples, _scalar_exp_sums(v_samples))


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

    diag = diagnosis_section(b0)
    report["sections"]["diagnosis"] = diag
    report["pass"] = report["pass"] and diag["pass"]
    return report
