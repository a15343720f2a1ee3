"""Aggregated verification sections."""

import itertools
import tracemalloc

import numpy as np
import pytest

import vlogic.verify
from vlogic import (
    Gate,
    TruthTable,
    canonical_basis,
    gate_operator,
    identity_operator,
    max_norm,
    negation_operator,
    random_basis,
)
from vlogic import scalar_logic as sl
from vlogic.verify import RESIDUAL_TOL, run_full_verification, tautology_residuals, truth_table_residuals

EULER_IDENTITIES = (
    "a_exp_equals_C_plus_AS", "b_C2_minus_NS2_is_I", "c_C_from_exponentials", "d_S_from_exponentials",
    "e_cosine_addition", "f_sine_addition", "g_great_euler", "h_de_moivre",
)

TAUTOLOGY_BASES = {
    "DIM4": canonical_basis("DIM4"),
    "Q5_eps-0.6": random_basis(5, -0.6, 3),
    "Q8_eps0.9": random_basis(8, 0.9, 3),
}


def swapped_impl(basis, table):
    """IMPL built with its (t,f) and (f,t) outputs swapped; every other gate intact."""
    if table.name == "IMPL":
        tt, tf, ft, ff = table.outputs
        table = TruthTable("IMPL", (tt, ft, tf, ff))
    return gate_operator(basis, table)


def test_wrong_gate_fails_truth_table(monkeypatch):
    # only IMPL may fail, so the order of the applied inputs matches the
    # order of the expected outputs
    monkeypatch.setattr(vlogic.verify, "gate_operator", swapped_impl)
    residuals = truth_table_residuals(canonical_basis("DIM4"))
    assert len(residuals) == 4 + 16
    assert residuals["dyadic_IMPL"] >= 0.5
    assert all(r < RESIDUAL_TOL for name, r in residuals.items() if name != "dyadic_IMPL"), residuals


def test_wrong_gate_fails_tautology(monkeypatch):
    # each of the 16 tables in the slot of L, D or C: the check through `@`
    # fails exactly when the dense oracle does, and by a clear margin
    for (basis_name, basis), slot, table in itertools.product(
        TAUTOLOGY_BASES.items(), ("IMPL", "OR", "AND"), sl.ALL_DYADIC_TABLES
    ):

        def substituted(b, t):
            return gate_operator(b, TruthTable(slot, table.outputs) if t.name == slot else t)

        monkeypatch.setattr(vlogic.verify, "gate_operator", substituted)
        residuals = tautology_residuals(basis)
        n, i = negation_operator(basis), identity_operator(basis)
        l, d, c = (np.asarray(substituted(basis, t)) for t in (sl.IMPL, sl.OR, sl.AND))
        dense = {
            "L_minus_D_NxI": max_norm(l - d @ np.kron(n, i)),
            "D_minus_NC_NxN": max_norm(d - n @ c @ np.kron(n, n)),
        }
        case = (basis_name, slot, table.pattern, residuals, dense)
        assert residuals.keys() == dense.keys(), case
        for name, r in residuals.items():
            assert (r < RESIDUAL_TOL) == (dense[name] < RESIDUAL_TOL), case
            assert r < RESIDUAL_TOL or r >= 0.3, case
        # each check sees only its own gates: L in the first, C in the second
        if slot == "IMPL":
            assert residuals["D_minus_NC_NxN"] < RESIDUAL_TOL, case
        if slot == "AND":
            assert residuals["L_minus_D_NxI"] < RESIDUAL_TOL, case

    # the swapped IMPL of the truth-table test fails only the first check
    monkeypatch.setattr(vlogic.verify, "gate_operator", swapped_impl)
    residuals = tautology_residuals(canonical_basis("DIM4"))
    assert residuals["L_minus_D_NxI"] >= 0.5
    assert residuals["D_minus_NC_NxN"] < RESIDUAL_TOL


def test_tautology_residuals_memory_at_dim256():
    # the dense L alone would take 128 MiB
    b = random_basis(256, 0.35, seed=1)
    tracemalloc.start()
    try:
        residuals = tautology_residuals(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert all(r < RESIDUAL_TOL for r in residuals.values()), residuals


@pytest.mark.parametrize("dim", [2, 8])
def test_verification_never_densifies_a_gate(monkeypatch, dim):
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("verify built a dense gate")

    monkeypatch.setattr(Gate, "__array__", refuse)
    assert run_full_verification(dim=dim)["pass"]


SECTIONS = [
    "basis_orthonormal", "basis_nonorthogonal", "truth_tables", "truth_tables_nonorthogonal",
    "tautologies", "tautologies_nonorthogonal", "srn", "srn_nonorthogonal", "scalar_oracle",
    "euler", "diagnosis",
]


@pytest.mark.parametrize("dim", [2, 4, 16, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_verification_sections_pass(dim, seed):
    report = run_full_verification(dim=dim, seed=seed)
    assert list(report["sections"]) == SECTIONS
    assert list(report["sections"]["euler"]["residuals"]) == list(EULER_IDENTITIES)
    assert list(report["sections"]["scalar_oracle"]["residuals"]) == ["exp_vs_scalar_series"]
    for name, section in report["sections"].items():
        assert section["pass"], name
        for key, r in section.get("residuals", {}).items():
            assert r < section["tolerance"], (name, key, r)
    assert report["pass"]
