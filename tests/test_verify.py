"""Aggregated verification sections."""

import vlogic.verify
from vlogic import TruthTable, canonical_basis, gate_operator
from vlogic.verify import RESIDUAL_TOL, truth_table_residuals


def test_wrong_gate_fails_truth_table(monkeypatch):
    # IMPL built with its (t,f) and (f,t) outputs swapped: only IMPL may fail,
    # so the order of the applied inputs matches the order of the expected outputs
    def swapped_impl(basis, table):
        if table.name == "IMPL":
            tt, tf, ft, ff = table.outputs
            table = TruthTable("IMPL", (tt, ft, tf, ff))
        return gate_operator(basis, table)

    monkeypatch.setattr(vlogic.verify, "gate_operator", swapped_impl)
    residuals = truth_table_residuals(canonical_basis("DIM4"))
    assert len(residuals) == 4 + 16
    assert residuals["dyadic_IMPL"] >= 0.5
    assert all(r < RESIDUAL_TOL for name, r in residuals.items() if name != "dyadic_IMPL"), residuals
