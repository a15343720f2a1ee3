"""Aggregated verification sections."""

import itertools
import tracemalloc

import numpy as np
import pytest

import vlogic.diagnosis
import vlogic.verify
from vlogic import (
    Gate,
    TruthTable,
    canonical_basis,
    classify,
    gate_operator,
    identity_operator,
    max_norm,
    negation_operator,
    probe,
    random_basis,
)
from vlogic import scalar_logic as sl
from vlogic.verify import (
    RESIDUAL_TOL,
    diagnosis_section,
    run_full_verification,
    tautology_residuals,
    truth_table_residuals,
)

EULER_IDENTITIES = (
    "a_exp_equals_C_plus_AS", "b_C2_minus_NS2_is_I", "c_C_from_exponentials", "d_S_from_exponentials",
    "e_cosine_addition", "f_sine_addition", "g_great_euler", "h_de_moivre",
)

TAUTOLOGY_BASES = {
    "DIM4": canonical_basis("DIM4"),
    "Q5_eps-0.6": random_basis(5, -0.6, 3),
    "Q8_eps0.9": random_basis(8, 0.9, 3),
}


def substituting(name, outputs):
    """A gate_operator that builds gate `name` from the given outputs and
    every other gate intact. Takes one table or a sequence of them, as
    gate_operator does."""

    def substitute(table):
        return TruthTable(name, outputs) if table.name == name else table

    def build(basis, tables):
        if isinstance(tables, TruthTable):
            return gate_operator(basis, substitute(tables))
        return gate_operator(basis, [substitute(t) for t in tables])

    return build


# IMPL built with its (t,f) and (f,t) outputs swapped
_tt, _tf, _ft, _ff = sl.IMPL.outputs
swapped_impl = substituting("IMPL", (_tt, _ft, _tf, _ff))


def test_wrong_gate_fails_truth_table(monkeypatch):
    # only IMPL may fail, so the order of the applied inputs matches the
    # order of the expected outputs
    monkeypatch.setattr(vlogic.verify, "gate_operator", swapped_impl)
    residuals = truth_table_residuals(canonical_basis("DIM4"))
    assert len(residuals) == 4 + 16
    assert residuals["dyadic_IMPL"] >= 0.5
    assert all(r < RESIDUAL_TOL for name, r in residuals.items() if name != "dyadic_IMPL"), residuals


def test_truth_tables_apply_one_stack_per_arity(monkeypatch):
    calls = []

    def counted(basis, tables):
        calls.append(tables)
        return gate_operator(basis, tables)

    monkeypatch.setattr(vlogic.verify, "gate_operator", counted)
    residuals = truth_table_residuals(random_basis(8, 0.35, 1))
    assert [len(list(tables)) for tables in calls] == [4, 16]
    assert all(r < RESIDUAL_TOL for r in residuals.values()), residuals


@pytest.mark.parametrize("basis", [canonical_basis("DIM4"), random_basis(8, 0.35, 2)], ids=["DIM4", "Q8_eps0.35"])
@pytest.mark.parametrize(
    "build, failing",
    [
        (gate_operator, []),
        # the probe weighs the inputs (t,f) and (f,t) alike, so it cannot see the swap
        (swapped_impl, []),
        (substituting("IMPL", sl.OR.outputs), ["IMPL"]),
    ],
    ids=["intact", "swapped_impl", "impl_as_or"],
)
def test_diagnosis_section_matches_probe_and_classify(monkeypatch, basis, build, failing):
    # the section probes each gate once, and agrees with a direct probe +
    # classify of each gate; the substitute goes into both modules that
    # build gates, so the section's probes see it
    probes = []

    def counted(oracle, b, arity):
        probes.append(arity)
        return probe(oracle, b, arity)

    monkeypatch.setattr(vlogic.verify, "gate_operator", build)
    monkeypatch.setattr(vlogic.diagnosis, "gate_operator", build)
    monkeypatch.setattr(vlogic.diagnosis, "probe", counted)
    section = diagnosis_section(basis)
    assert sorted(probes) == [1] * 4 + [2] * 16

    sigs = {t.name: probe(build(basis, t), basis, t.arity) for t in (*sl.MONADIC_GATES.values(), *sl.ALL_DYADIC_TABLES)}
    failures = []
    for table in (*sl.MONADIC_GATES.values(), *sl.NAMED_DYADIC_GATES.values()):
        res = classify(sigs[table.name], table.arity)
        if res.verdict != table.name or res.distance > RESIDUAL_TOL:
            failures.append(table.name)
    groups = {}
    for table in sl.ALL_DYADIC_TABLES:
        groups.setdefault(tuple(round(c, 9) for c in sigs[table.name].coefficients), []).append(table.name)
    classes = [sorted(names) for names in groups.values()]
    named_distinct = all(len(set(names) & set(sl.NAMED_DYADIC_GATES)) <= 1 for names in classes)

    assert section["roundtrip_failures"] == failures == failing
    assert section["named_gates_distinct"] == named_distinct
    assert sorted(map(sorted, section["collision_classes"])) == sorted(c for c in classes if len(c) >= 2)
    assert section["pass"] == (not failures and named_distinct)


def test_wrong_gate_fails_tautology(monkeypatch):
    # each of the 16 tables in the slot of L, D or C: the check through `@`
    # fails exactly when the dense oracle does, and by a clear margin
    for (basis_name, basis), slot, table in itertools.product(
        TAUTOLOGY_BASES.items(), ("IMPL", "OR", "AND"), sl.ALL_DYADIC_TABLES
    ):

        substituted = substituting(slot, table.outputs)
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
