"""Aggregated verification sections."""

import vlogic.verify
from vlogic import TruthTable, canonical_basis, gate_operator
from vlogic.verify import RESIDUAL_TOL, tautology_residuals, truth_table_residuals


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
    # the core contraction must see the swapped IMPL, and only it: D and C intact
    monkeypatch.setattr(vlogic.verify, "gate_operator", swapped_impl)
    residuals = tautology_residuals(canonical_basis("DIM4"))
    assert residuals["L_minus_D_NxI"] >= 0.5
    assert residuals["D_minus_NC_NxN"] < RESIDUAL_TOL
