"""Aggregated verification sections."""

import itertools
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vlogic.diagnosis
import vlogic.matfun
import vlogic.srn
import vlogic.verify
from vlogic import (
    Gate,
    TruthTable,
    canonical_basis,
    classify,
    gate_operator,
    max_norm,
    probe,
    random_basis,
)
from vlogic import scalar_logic as sl
from vlogic.basis import DEPENDENCE_THRESHOLD
from vlogic.errors import BadArgument
from vlogic.verify import (
    RESIDUAL_TOL,
    basis_residuals,
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


def test_tautologies_apply_one_stack(monkeypatch):
    # L, D and C are one stack applied once, and NOT is built once
    built, applied = [], []
    on_product = Gate.on_product

    def counted(basis, tables):
        built.append((tables.name,) if isinstance(tables, TruthTable) else tuple(t.name for t in tables))
        return gate_operator(basis, tables)

    def counted_product(gate, *factors):
        applied.append(gate.shape)
        return on_product(gate, *factors)

    monkeypatch.setattr(vlogic.verify, "gate_operator", counted)
    monkeypatch.setattr(Gate, "on_product", counted_product)
    residuals = tautology_residuals(random_basis(8, 0.35, 1))
    assert sorted(built) == [("IMPL", "OR", "AND"), ("NOT",)]
    assert applied == [(3, 8, 64)]
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
    # the section reads one stacked probe per arity in core space (the probe
    # kernel), and applies no @ at all, so no Q^k probe vector; it agrees with
    # a direct probe + classify of each gate; the substitute goes into both
    # modules that build gates, so the section's probes see it
    applied, matmul_inputs = [], []
    core_read, matmul = vlogic.diagnosis._core_read, Gate.__matmul__

    def counted_probe(gate, basis):
        applied.append(gate.shape)
        return core_read(gate, basis)

    def counted_matmul(gate, v):
        matmul_inputs.append(np.shape(v))
        return matmul(gate, v)

    monkeypatch.setattr(vlogic.verify, "gate_operator", build)
    monkeypatch.setattr(vlogic.diagnosis, "gate_operator", build)
    monkeypatch.setattr(vlogic.diagnosis, "_core_read", counted_probe)
    monkeypatch.setattr(Gate, "__matmul__", counted_matmul)
    section = diagnosis_section(basis)
    q = basis.dim
    assert sorted(applied) == [(4, q, q), (16, q, q**2)]
    assert matmul_inputs == []

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
        n, i = np.asarray(gate_operator(basis, sl.NOT)), np.asarray(gate_operator(basis, sl.ID))
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


def test_gate_checks_memory_at_dim2048():
    # on factored product inputs: the Q^2 x 4 inputs alone would take 128 MiB
    b = random_basis(2048, 0.35, seed=1)
    tracemalloc.start()
    try:
        residuals = {**truth_table_residuals(b), **tautology_residuals(b)}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(residuals) == 4 + 16 + 2
    assert all(r < RESIDUAL_TOL for r in residuals.values()), residuals


@pytest.mark.parametrize("dim", [2, 8])
def test_verification_never_densifies_a_gate(monkeypatch, dim):
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("verify built a dense gate")

    monkeypatch.setattr(Gate, "__array__", refuse)
    assert run_full_verification(dim=dim)["pass"]


def test_verification_builds_no_dense_root_or_context_field(monkeypatch):
    # the srn sections apply factored roots and the pair checks read the
    # context's cores: no Q x Q root, context field or gate is built
    def refuse(*args, **kwargs):
        raise AssertionError("verify built a dense Q x Q matrix")

    for name in ("I", "N", "A", "B", "Pi"):
        monkeypatch.setattr(vlogic.matfun.LogicAlgebraContext, name, property(refuse))
    for module in (vlogic.srn, vlogic.matfun):
        monkeypatch.setattr(module, "lift", refuse)
    monkeypatch.setattr(vlogic.srn, "sqrt_not", refuse)
    monkeypatch.setattr(Gate, "__array__", refuse)
    with pytest.raises(AssertionError, match="dense"):
        vlogic.matfun.make_context(random_basis(8, 0.0, 1)).Pi
    assert run_full_verification(dim=8)["pass"]


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


@pytest.mark.parametrize(
    "args,named", [((2.0,), "dim"), (("4",), "dim"), ((4, -1), "seed"), ((4, 1.0), "seed")],
    ids=["float_dim", "str_dim", "negative_seed", "float_seed"],
)
def test_full_verification_names_a_bad_dim_or_seed(args, named):
    # numpy raised its own TypeError or "expected non-negative integer"
    with pytest.raises(BadArgument, match=named):
        run_full_verification(*args)


def test_euler_tolerance_applies_to_the_euler_section_only():
    # the README's promise: --tol sets the Euler suite's tolerance, and every
    # other residual section keeps RESIDUAL_TOL
    report = run_full_verification(4, 1, tol=1e-6)
    for name, section in report["sections"].items():
        if name != "diagnosis":
            assert section["tolerance"] == (1e-6 if name == "euler" else RESIDUAL_TOL), name
    assert report["pass"]


def _with_nan(member):
    """A wrapper of a per-basis section's residual dicts that replaces the
    first residual of the given member (0 orthonormal, 1 oblique) by NaN."""
    def wrap(per_basis):
        per_basis = list(per_basis)
        per_basis[member] = {**per_basis[member], next(iter(per_basis[member])): float("nan")}
        return per_basis
    return wrap


@pytest.mark.parametrize(
    "attribute,wrap,failing",
    [
        ("basis_residuals", _with_nan(0), "basis_orthonormal"),
        ("truth_table_residuals", _with_nan(1), "truth_tables_nonorthogonal"),
        ("tautology_residuals", _with_nan(0), "tautologies"),
        ("scalar_oracle_residual", lambda r: float("nan"), "scalar_oracle"),
    ],
)
def test_a_nan_residual_fails_its_section_and_the_run(monkeypatch, attribute, wrap, failing):
    # NaN < tol is False: a section with a NaN residual fails, by the one rule
    real = getattr(vlogic.verify, attribute)
    monkeypatch.setattr(vlogic.verify, attribute, lambda *args: wrap(real(*args)))
    report = run_full_verification(4, 1)
    assert [name for name, section in report["sections"].items() if not section["pass"]] == [failing]
    assert report["pass"] is False


def test_the_euler_section_is_the_suites_report(monkeypatch):
    # the section carries the residuals, tolerance and pass of the report
    # that verify_euler_suite returns, a NaN residual failing it
    def nan_suite(ctx, v_samples, ks, tol):
        report = real(ctx, v_samples, ks=ks, tol=tol)
        return vlogic.matfun.IdentityReport({**report.residuals, "g_great_euler": float("nan")}, 0.5 * tol)

    real = vlogic.matfun.verify_euler_suite
    monkeypatch.setattr(vlogic.matfun, "verify_euler_suite", nan_suite)
    report = run_full_verification(4, 1, tol=1e-6)
    section = report["sections"]["euler"]
    assert section["tolerance"] == 0.5e-6
    assert np.isnan(section["residuals"]["g_great_euler"])
    assert section["pass"] is False
    assert [name for name, s in report["sections"].items() if not s["pass"]] == ["euler"]
    assert report["pass"] is False


@pytest.mark.parametrize("gap", [1.05e-4, 1.5e-4, 1e-3])
@pytest.mark.parametrize("sign", [1, -1])
def test_bases_near_the_dependence_threshold_pass_every_check(gap, sign):
    # every basis make_basis accepts passes the fixed tolerances, up to the
    # threshold; the points stay strictly inside it, as s @ n rounds
    for dim, seed in itertools.product((4, 16, 64), (1, 2, 3, 4)):
        b = random_basis(dim, sign * (1 - gap), seed)
        assert abs(b.epsilon) < DEPENDENCE_THRESHOLD
        residuals = {
            **basis_residuals(b), **truth_table_residuals(b), **tautology_residuals(b),
            **vlogic.srn.identity_report(vlogic.srn.factored_roots(b), b),
        }
        assert max(residuals.values()) < RESIDUAL_TOL, (dim, seed, residuals)
        assert diagnosis_section(b)["roundtrip_failures"] == [], (dim, seed)


def test_run_verification_script(monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_verification.py"
    main = runpy.run_path(str(script))["main"]
    monkeypatch.setattr(sys, "argv", [str(script), "--dims", "2,4", "--seeds", "1"])
    assert main() == 0
    lines = capsys.readouterr().out.splitlines()
    runs = [line.split(" worst residual")[0] for line in lines]
    assert runs == ["[PASS] dim=2 seed=0", "[PASS] dim=4 seed=0"]
    # an empty sweep would print nothing and pass; a bad --dims was a traceback
    for argv, message in (
        (["--seeds", "0"], "argument --seeds: needs at least one seed"),
        (["--seeds", "-2"], "argument --seeds: needs at least one seed"),
        (["--dims", "4,,8"], "argument --dims: needs comma-separated whole numbers"),
        (["--dims", ""], "argument --dims: needs comma-separated whole numbers"),
        (["--dims", "4,1"], "argument --dims: every dimension must be at least 2"),
    ):
        monkeypatch.setattr(sys, "argv", [str(script), *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        captured = capsys.readouterr()
        assert exc.value.code == 1, argv
        assert captured.out == ""
        assert message in captured.err, (argv, captured.err)


def _verification_peak(dim):
    tracemalloc.start()
    try:
        report = run_full_verification(dim=dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["pass"]
    return peak


def test_full_verification_memory_at_dim2048():
    # no dense context field or root and no Q^k probe vector: every section
    # works on Q x m factors, so the peak grows as O(Q)
    assert _verification_peak(2048) < 8 * 2**20


def test_full_verification_memory_at_dim4096():
    assert _verification_peak(4096) < 16 * 2**20


def test_diagnosis_section_memory_at_dim4096():
    # the stacked gates hold their (G, 2, 2^k) cores, not (G, Q, 2^k) outputs
    b = random_basis(4096, 0.0, seed=1)
    tracemalloc.start()
    try:
        section = diagnosis_section(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert section["pass"]


def test_diagnosis_section_at_dim65536_holds_no_q_length_array():
    # the stacked probes are read in core space through the basis's Gram
    # matrix: no (G, Q) output, which would take 16 MiB for the dyadic gates
    b = random_basis(65536, 0.35, seed=2)
    tracemalloc.start()
    try:
        section = diagnosis_section(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert section["pass"]


def test_report_schema_is_pinned():
    # every section and residual key of a report; a check dropped in a
    # refactor shows here
    report = run_full_verification(dim=4)
    basis_keys = ["ys_minus_1", "zn_minus_1", "yn", "zs"]
    tables = [f"monadic_{name}" for name in ("ID", "NOT", "CID", "CNOT")] + [
        f"dyadic_{name}"
        for name in (
            "TTTT", "OR", "TTFT", "TTFF", "IMPL", "TFTF", "EQUI", "AND",
            "NAND", "XOR", "FTFT", "FTFF", "FFTT", "FFTF", "NOR", "FFFF",
        )
    ]
    tautologies = ["L_minus_D_NxI", "D_minus_NC_NxN"]
    srn_keys = ["A2_minus_N", "B2_minus_N", "AB_minus_I", "BA_minus_I", "A_minus_conj_B", "B_minus_NA", "A_minus_NB"]
    expected = {
        "basis_orthonormal": basis_keys,
        "basis_nonorthogonal": basis_keys,
        "truth_tables": tables,
        "truth_tables_nonorthogonal": tables,
        "tautologies": tautologies,
        "tautologies_nonorthogonal": tautologies,
        "srn": srn_keys,
        "srn_nonorthogonal": srn_keys,
        "scalar_oracle": ["exp_vs_scalar_series"],
        "euler": list(EULER_IDENTITIES),
    }
    assert list(report) == ["dim", "seed", "sections", "pass"]
    assert list(report["sections"]) == [*expected, "diagnosis"]
    for name, keys in expected.items():
        assert list(report["sections"][name]) == ["residuals", "tolerance", "pass"], name
        assert list(report["sections"][name]["residuals"]) == keys, name
    assert list(report["sections"]["diagnosis"]) == [
        "roundtrip_failures", "named_gates_distinct", "collision_classes", "pass",
    ]


def test_diagnosis_section_computes_only_what_it_reads(monkeypatch):
    # no residuals outside span{s, n} (computed only by probe and
    # enumerate_signatures) and no monadic collision classes; the
    # coefficients are the ones enumerate_signatures reports, bit for bit
    grouped = []
    classes = vlogic.diagnosis._collision_classes

    def refuse(*args):
        raise AssertionError("computed residuals the section does not read")

    monkeypatch.setattr(vlogic.diagnosis, "enumerate_signatures", refuse)
    monkeypatch.setattr(vlogic.diagnosis, "probe", refuse)
    monkeypatch.setattr(vlogic.diagnosis, "_collision_classes", lambda t, c: grouped.append(t) or classes(t, c))
    b = random_basis(8, 0.35, 2)
    assert diagnosis_section(b)["pass"]
    assert grouped == [sl.ALL_DYADIC_TABLES]
    monkeypatch.undo()
    sigs, _ = vlogic.diagnosis.enumerate_signatures(b, sl.ALL_DYADIC_TABLES)
    coefficients, _ = vlogic.diagnosis._signature_coefficients(b, sl.ALL_DYADIC_TABLES)
    assert coefficients.tolist() == [list(sigs[t.name].coefficients) for t in sl.ALL_DYADIC_TABLES]
