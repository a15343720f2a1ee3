"""Aggregated verification: every invariant suite in one run.

Backs the `vlogic verify` subcommand. Each section reports named max-norm
residuals (or booleans for structural checks) and the run passes only if
every section does. A run builds no dense Q x Q matrix and no Q^k vector:
the gates of each arity are one stacked `Gate` applied to factored
product inputs (`Gate.on_product`), the roots of NOT are factored `Gate`s
and the Euler checks read the context's 2 x 2 cores, so its memory grows
as O(Q).

The basis, truth-table, tautology and SRN sections take one basis or a
stack of bases (`basis.make_basis`) and return one dict of residuals per
member. A run stacks its orthonormal and its oblique basis and runs each of
these sections once for both.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from . import diagnosis, matfun, scalar_logic, srn
from .basis import TruthBasis, _named, _random_vectors, make_basis
from .matfun import EULER_KS, EULER_V_SAMPLES, IDENTITY_TOL
from .operators import _apply, gate_operator
from .scalar_logic import ALL_DYADIC_TABLES, FALSE, MONADIC_GATES, NAMED_DYADIC_GATES, TRUE, evaluate

RESIDUAL_TOL = 1e-10


# The entries ys, yn, zs, zn of Y^T S in the order of basis_residuals' names
_BASIS_ENTRIES = np.array([0, 3, 1, 2])
_I2 = np.eye(2)


def basis_residuals(b: TruthBasis) -> dict[str, float] | list[dict[str, float]]:
    """The entries of Y^T S - I2, read from the basis's Gram matrix."""
    residuals = np.abs(b.gram - _I2).reshape(*b.frame.shape[:-2], 4)
    return _named(("ys_minus_1", "zn_minus_1", "yn", "zs"), residuals[..., _BASIS_ENTRIES])


# The gates of each arity that truth_table_residuals checks, by the prefix
# of their residual names.
_TABLES = {"monadic": tuple(MONADIC_GATES.values()), "dyadic": ALL_DYADIC_TABLES}
_RESIDUAL_NAMES = [f"{prefix}_{t.name}" for prefix, tables in _TABLES.items() for t in tables]
# The frame column (0 for s, 1 for n) of each table's output by the +/-1
# oracle, on each input combination in the column order of [s n]^{(x)k}
_EXPECTED_COLUMNS = {
    prefix: np.array([[int(evaluate(t, *ws) != TRUE) for ws in product((TRUE, FALSE), repeat=t.arity)] for t in tables])
    for prefix, tables in _TABLES.items()
}


def truth_table_residuals(b: TruthBasis) -> dict[str, float] | list[dict[str, float]]:
    """Matrix gates vs the scalar +/-1 oracle on every {s,n} input combination.

    The gates of each arity k form one stack, applied once to all their
    inputs side by side: the Q^k x 2^k matrix [s n]^{(x)k} whose column j is
    the product of frame columns picked by input combination j (for k = 2:
    s(x)s, s(x)n, n(x)s, n(x)n), given to `Gate.on_product` as its k factors
    [s n]. The max-norm of each gate's Q x 2^k residual is its worst input's.
    The residual is formed in the stack's output, which is all the memory
    the check needs beyond the gates and their expected columns.
    """
    out = []
    for prefix, tables in _TABLES.items():
        residual = gate_operator(b, tables).on_product(*[b.frame] * tables[0].arity)
        # (..., Q, G, 2^k) -> (..., G, Q, 2^k), the shape of the stack's output
        residual -= b.frame[..., _EXPECTED_COLUMNS[prefix]].swapaxes(-3, -2)
        out.append(np.abs(residual, out=residual).max(axis=(-2, -1)))
    return _named(_RESIDUAL_NAMES, np.concatenate(out, axis=-1))


def tautology_residuals(b: TruthBasis) -> dict[str, float] | list[dict[str, float]]:
    """L = D (N(x)I) and D = N C (N(x)N). Each side is Q x 4 output columns
    times ([y z]^T)^{(x)2} (mixed-product rule, Van Loan 2000), so the two
    agree exactly when they agree on [s n]^{(x)2} = s(x)s, s(x)n, n(x)s,
    n(x)n. L, D and C are one stack, applied once to [S NS] (x) [S NS]
    (`Gate.on_product`), in O(Q) memory; each side is a 2 x 2 block of its
    4 x 4 factor columns. NOT is built once."""
    neg = gate_operator(b, scalar_logic.NOT)
    ldc = gate_operator(b, (scalar_logic.IMPL, scalar_logic.OR, scalar_logic.AND))
    factor = np.concatenate((b.frame, _apply(neg, b.frame)), axis=-1)  # s, n, N s, N n
    bases, q = b.frame.shape[:-2], b.dim
    # (..., 3, Q, 16) -> gate, ..., row, left factor column, right factor column
    l, d, c = ldc.on_product(factor, factor).reshape(*bases, 3, q, 4, 4).swapaxes(0, -4)
    negated_c = _apply(neg, c[..., 2:, 2:].reshape(*bases, q, 4)).reshape(*bases, q, 2, 2)
    sides = np.array((l[..., :2, :2] - d[..., 2:, :2], d[..., :2, :2] - negated_c))
    # (2, ..., Q, 2, 2) -> (..., 2)
    return _named(("L_minus_D_NxI", "D_minus_NC_NxN"), np.abs(sides, out=sides).max(axis=(-3, -2, -1)).T)


# The row of each named dyadic gate among ALL_DYADIC_TABLES
_NAMED_DYADIC_ROWS = np.array([[t.name for t in ALL_DYADIC_TABLES].index(name) for name in NAMED_DYADIC_GATES])


def diagnosis_roundtrip_failures(monadic: np.ndarray, dyadic: np.ndarray) -> list[str]:
    """Monadic and named dyadic gates whose probe signature, a row of the
    coefficients of MONADIC_GATES or ALL_DYADIC_TABLES in order, is not within
    RESIDUAL_TOL of its own reference in max-norm (NaN is not). As the
    references of each arity are 0.5 apart and RESIDUAL_TOL is below
    `classify`'s default tol, these are exactly the gates that it
    misidentifies or names farther than RESIDUAL_TOL away."""
    failures = []
    for arity, coefficients in ((1, monadic), (2, dyadic[_NAMED_DYADIC_ROWS])):
        names, refs = diagnosis._REFERENCES[arity]  # in the order of MONADIC_GATES and NAMED_DYADIC_GATES
        distances = np.maximum.reduce(np.abs(coefficients - refs), axis=1)
        failures += [name for name, distance in zip(names, distances.tolist()) if not distance <= RESIDUAL_TOL]
    return failures


def diagnosis_section(b: TruthBasis) -> dict:
    """One stacked probe of the monadic gates and one of the dyadic gates,
    each on the factors of its probe input, read as arrays of signature
    coefficients (`diagnosis._signature_coefficients`). Passes when the
    monadic and named dyadic gates round-trip (each within RESIDUAL_TOL of
    its own reference, `diagnosis_roundtrip_failures`), the named dyadic
    gates lie in as many collision classes as there are of them (no two
    share a signature), and some dyadic gates do (the one-probe ambiguities)."""
    monadic, _ = diagnosis._signature_coefficients(b, _TABLES["monadic"])
    dyadic, _ = diagnosis._signature_coefficients(b, ALL_DYADIC_TABLES)
    classes = diagnosis._collision_classes(ALL_DYADIC_TABLES, dyadic)
    failures = diagnosis_roundtrip_failures(monadic, dyadic)
    named = set(NAMED_DYADIC_GATES)
    named_distinct = len({i for i, cls in enumerate(classes) for g in cls if g in named}) == len(named)
    collisions = [cls for cls in classes if len(cls) >= 2]
    return {
        "roundtrip_failures": failures,
        "named_gates_distinct": named_distinct,
        "collision_classes": collisions,
        "pass": not failures and named_distinct and bool(collisions),
    }


def scalar_oracle_residual(ctx: matfun.LogicAlgebraContext) -> float:
    """The closed-form logical_exp(A Pi v) against e^{i pi v} I from the
    scalar series over EULER_V_SAMPLES (`matfun.scalar_exp_residual`)."""
    return matfun.scalar_exp_residual(ctx)


def run_full_verification(dim: int = 4, seed: int = 1, tol: float = IDENTITY_TOL) -> dict:
    """Run every suite on one orthonormal basis of the given dim plus a
    non-orthogonal companion; returns a JSON-ready report. A residual
    section passes by `IdentityReport`'s rule, each residual below its
    tolerance (NaN fails): tol for the Euler suite, RESIDUAL_TOL elsewhere.
    dim and seed are checked as `basis.random_basis` checks them."""
    # random_basis(dim, 0.0, seed) and random_basis(dim, 0.35, seed + 1) as one stack
    both = make_basis(*zip(_random_vectors(dim, 0.0, seed), _random_vectors(dim, 0.35, seed + 1)))
    b0 = TruthBasis(both.frame[0], both.duals[0], both.epsilon[0], both.gram[0])  # the orthonormal member
    ctx = matfun.make_context(b0)

    sections = {}
    for names, per_basis in (
        (("basis_orthonormal", "basis_nonorthogonal"), basis_residuals(both)),
        (("truth_tables", "truth_tables_nonorthogonal"), truth_table_residuals(both)),
        (("tautologies", "tautologies_nonorthogonal"), tautology_residuals(both)),
        (("srn", "srn_nonorthogonal"), srn.identity_report(srn.factored_roots(both), both)),
        (("scalar_oracle",), ({"exp_vs_scalar_series": scalar_oracle_residual(ctx)},)),
    ):
        for name, r in zip(names, per_basis):  # Python floats, each section's own dict
            sections[name] = {"residuals": r, "tolerance": RESIDUAL_TOL, "pass": matfun._passes(r, RESIDUAL_TOL)}
    euler = matfun.verify_euler_suite(ctx, EULER_V_SAMPLES, ks=EULER_KS, tol=tol)
    sections["euler"] = {"residuals": euler.residuals, "tolerance": euler.tolerance, "pass": euler.passed}
    sections["diagnosis"] = diagnosis_section(b0)
    return {"dim": dim, "seed": seed, "sections": sections, "pass": all(s["pass"] for s in sections.values())}
