"""One-probe gate identification: signatures, classification, collisions."""

import itertools
import math
import re
import runpy
import sys
import tracemalloc
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import vlogic.diagnosis
from vlogic import scalar_logic as sl
from vlogic import Gate, classify, enumerate_signatures, gate_operator, probe, random_basis, sqrt_not
from vlogic.diagnosis import (
    AMBIGUOUS,
    DEFAULT_CLASSIFY_TOL,
    DYADIC_REFERENCE_SIGNATURES,
    GateSignature,
    MONADIC_REFERENCE_SIGNATURES,
    UNKNOWN,
    classify_dyadic,
    classify_monadic,
    probe_dyadic,
    probe_monadic,
    symbolic_dyadic_signature,
    symbolic_signature,
)
from vlogic.operators import dyadic_operator, monadic_operator
from vlogic.errors import DimensionMismatch, UnsupportedArity, VectorLogicError
from vlogic.verify import RESIDUAL_TOL, diagnosis_roundtrip_failures

TOL = 1e-10

# (re_s, re_n, im_s, im_n) of the probe output for each gate, expanded by hand
# from oracle(A s) = oracle(alpha*s + beta*n), alpha = (1+i)/2, beta = (1-i)/2
MONADIC_LITERALS = {
    "CID": (1.0, 0.0, 0.0, 0.0),
    "CNOT": (0.0, 1.0, 0.0, 0.0),
    "ID": (0.5, 0.5, 0.5, -0.5),
    "NOT": (0.5, 0.5, -0.5, 0.5),
}

DYADIC_LITERALS = {
    "AND": (0.0, 1.0, 0.5, -0.5),
    "OR": (1.0, 0.0, 0.5, -0.5),
    "IMPL": (0.5, 0.5, 0.0, 0.0),
    "EQUI": (0.0, 1.0, 0.0, 0.0),
    "XOR": (1.0, 0.0, 0.0, 0.0),
    "NAND": (1.0, 0.0, -0.5, 0.5),
    "NOR": (0.0, 1.0, -0.5, 0.5),
}


@pytest.mark.parametrize(
    "gate,expected",
    [
        (sl.CID, (1, 0, 0, 0)),
        (sl.CNOT, (0, 1, 0, 0)),
        (sl.ID, (0.5, 0.5, 0.5, -0.5)),
        (sl.NOT, (0.5, 0.5, -0.5, 0.5)),
    ],
)
def test_monadic_probe_signatures(set1, gate, expected):
    sig = probe(gate_operator(set1, gate), set1, 1)
    assert sig.coefficients == pytest.approx(expected, abs=TOL)
    assert sig.residual < TOL


@pytest.mark.parametrize("name,expected", sorted(DYADIC_LITERALS.items()))
def test_dyadic_probe_signatures(dim4, name, expected):
    oracle = gate_operator(dim4, sl.NAMED_DYADIC_GATES[name])
    sig = probe(oracle, dim4, 2)
    assert sig.coefficients == pytest.approx(expected, abs=TOL)
    assert sig.residual < TOL


def test_reference_tables_derived_from_truth_tables():
    assert MONADIC_REFERENCE_SIGNATURES == MONADIC_LITERALS
    assert DYADIC_REFERENCE_SIGNATURES == DYADIC_LITERALS


def test_classify_monadic_references():
    for name, ref in MONADIC_LITERALS.items():
        res = classify(GateSignature(*ref, residual=0.0), 1)
        assert res.verdict == name
        assert res.distance < 1e-15


def test_classify_unknown_signature():
    res = classify(GateSignature(0.9, 0.1, 0.0, 0.0, residual=0.0), 1, tol=0.05)
    assert res.verdict == UNKNOWN
    assert res.distance >= 0.05


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, 0.0, "1", None, 1j, [1e-6], np.ones(2)])
def test_classify_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # at a NaN, zero or negative tol every signature would read UNKNOWN, at
    # an infinite one AMBIGUOUS; a tol that does not compare with 0 is the
    # same ValueError, not the TypeError of the comparison
    sig = GateSignature(*MONADIC_LITERALS["CID"], residual=0.0)
    for arity in (1, 2):
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            classify(sig, arity, tol=tol)


@pytest.mark.parametrize(
    "coefficients",
    [(np.nan,) * 4, (0.0, 1.0, 0.5, np.nan), (np.nan, 0.0, 0.0, 0.0), (np.inf, 0.0, 0.0, 0.0)],
)
def test_classify_non_finite_signature_is_unknown(coefficients):
    # a NaN coefficient must not match a reference through NaN comparisons
    sig = GateSignature(*coefficients, residual=np.nan)
    assert classify(sig, 1).verdict == UNKNOWN
    assert classify(sig, 2).verdict == UNKNOWN


def test_classify_dyadic_references():
    for name, ref in DYADIC_LITERALS.items():
        res = classify(GateSignature(*ref, residual=0.0), 2)
        assert res.verdict == name


def test_references_pairwise_separated_by_half():
    for table in (MONADIC_REFERENCE_SIGNATURES, DYADIC_REFERENCE_SIGNATURES):
        refs = list(table.values())
        for i, a in enumerate(refs):
            for b in refs[i + 1 :]:
                assert max(abs(x - y) for x, y in zip(a, b)) >= 0.5
    # the premises of verify's round trip by the distance to the own
    # reference: within RESIDUAL_TOL of it, classify names that gate and
    # no other reference comes within its default tol
    assert RESIDUAL_TOL < DEFAULT_CLASSIFY_TOL
    assert RESIDUAL_TOL + DEFAULT_CLASSIFY_TOL < 0.5


@hypothesis.given(
    st.sampled_from(
        [(1, item) for item in MONADIC_REFERENCE_SIGNATURES.items()]
        + [(2, item) for item in DYADIC_REFERENCE_SIGNATURES.items()]
    ),
    st.tuples(*[st.floats(-0.25, 0.25, exclude_min=True, exclude_max=True)] * 4),
)
def test_perturbed_reference_classifies_below_half_separation(case, delta):
    arity, (name, ref) = case
    coefficients = np.add(ref, delta)
    # the perturbation as stored: ref + delta may round up to exactly 0.25
    hypothesis.assume(np.abs(coefficients - ref).max() < 0.25)
    res = classify(GateSignature(*coefficients, residual=0.0), arity, tol=0.25)
    assert res.verdict == name


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
def test_roundtrip_identification(dim):
    for eps, seed in itertools.product((0.0, -0.5, 0.35, 0.9), range(3)):
        b = random_basis(dim, eps, seed)
        for name, table in sl.MONADIC_GATES.items():
            res = classify(probe(gate_operator(b, table), b, 1), 1)
            assert res.verdict == name and res.distance < TOL
            assert res.runner_up != name and res.runner_up_distance >= 0.5 - TOL
        for name, table in sl.NAMED_DYADIC_GATES.items():
            res = classify(probe(gate_operator(b, table), b, 2), 2)
            assert res.verdict == name and res.distance < TOL
            assert res.runner_up != name and res.runner_up_distance >= 0.5 - TOL


def test_probe_rejects_wrong_shape(set1):
    with pytest.raises(DimensionMismatch):
        probe_monadic(np.eye(3), set1)
    with pytest.raises(DimensionMismatch):
        probe_dyadic(np.eye(2), set1)
    with pytest.raises(DimensionMismatch):
        probe(gate_operator(set1, sl.AND), set1, 1)
    with pytest.raises(DimensionMismatch):
        probe(np.ones((2, 8)), set1, 2)


def test_probe_rejects_arity_below_one(dim4):
    # before any shape check or product: arity 0 would otherwise reach @ on
    # a Q-vector, and -1 a Q^-1 oracle shape; by value True is arity 1 and
    # 2.0 arity 2, so no arity that is no int passes for one
    gate = gate_operator(dim4, sl.AND)
    cases = [(np.zeros((4, 1)), 0), (np.zeros((4, 4)), 0), (np.zeros((4, 1)), -1)]
    cases += [(oracle, arity) for oracle in (gate, np.asarray(gate)) for arity in (2.0, True, "2", None)]
    for oracle, arity in cases:
        with pytest.raises(UnsupportedArity, match="at least 1"):
            probe(oracle, dim4, arity)


def test_fixed_arity_names_match_generic(dim4):
    operator = {1: monadic_operator, 2: dyadic_operator}
    probe_k = {1: probe_monadic, 2: probe_dyadic}
    classify_k = {1: classify_monadic, 2: classify_dyadic}
    for table in (*sl.MONADIC_GATES.values(), *sl.ALL_DYADIC_TABLES):
        k = table.arity
        oracle = gate_operator(dim4, table)
        assert np.array_equal(operator[k](dim4, table), oracle)
        sig = probe_k[k](oracle, dim4)
        assert sig == probe(oracle, dim4, k)
        assert classify_k[k](sig) == classify(sig, k)
        assert classify_k[k](sig, tol=0.3) == classify(sig, k, tol=0.3)
    for table in sl.ALL_DYADIC_TABLES:
        assert symbolic_dyadic_signature(table) == symbolic_signature(table)


def test_classify_without_references_raises_typed_error():
    # True would classify a dyadic signature against the monadic references
    sig = GateSignature(1.0, 0.0, 0.0, 0.0, residual=0.0)
    for arity in (0, 3, 2.0, True, "2"):
        message = f"no reference signatures for arity {arity!r}; known: [1, 2]"
        with pytest.raises(UnsupportedArity, match=re.escape(message)) as exc:
            classify(sig, arity)
        assert isinstance(exc.value, VectorLogicError)
        assert not isinstance(exc.value, KeyError)


def test_signature_classes_by_arity(ternary_tables):
    # one probe cannot tell apart gates with equal alpha^#T beta^#F sums:
    # 4 classes at k = 1, 9 at k = 2, 25 at k = 3, exactly 4 of them singletons
    def classes(tables):
        groups = {}
        for table in tables:
            groups.setdefault(symbolic_signature(table), []).append(table.name)
        return sorted(len(names) for names in groups.values())

    assert classes(sl.MONADIC_GATES.values()) == [1, 1, 1, 1]
    dyadic = classes(sl.ALL_DYADIC_TABLES)
    assert len(dyadic) == 9 and max(dyadic) == 4
    ternary = classes(ternary_tables)
    assert len(ternary) == 25 and ternary.count(1) == 4 and max(ternary) == 36


def test_ternary_probe_matches_symbolic_signature(ternary_tables):
    b = random_basis(3, 0.35, seed=3)
    for table in ternary_tables:
        sig = probe(gate_operator(b, table), b, 3)
        assert sig.coefficients == pytest.approx(symbolic_signature(table), abs=TOL)
        assert sig.residual < TOL


def test_conjugate_probe_negates_imaginary_parts(dim4):
    # probing with B instead of A conjugates the signature
    pair = sqrt_not(dim4)
    for table in sl.ALL_DYADIC_TABLES:
        oracle = gate_operator(dim4, table)
        out_a = oracle @ (np.kron(pair.A, pair.A) @ np.kron(dim4.s, dim4.s))
        out_b = oracle @ (np.kron(pair.B, pair.B) @ np.kron(dim4.s, dim4.s))
        np.testing.assert_allclose(out_b, np.conj(out_a), atol=1e-14)


def test_enumeration_matches_symbolic_oracle(dim4):
    for b in (dim4, random_basis(8, 0.6, 1)):
        signatures, _ = enumerate_signatures(b, sl.ALL_DYADIC_TABLES)
        for table in sl.ALL_DYADIC_TABLES:
            expected = symbolic_signature(table)
            assert signatures[table.name].coefficients == pytest.approx(expected, abs=TOL)
            assert signatures[table.name].residual < TOL


def test_enumeration_collision_structure(dim4):
    signatures, classes = enumerate_signatures(dim4, sl.ALL_DYADIC_TABLES)
    assert len(signatures) == 16
    named = set(sl.NAMED_DYADIC_GATES)
    # the seven named gates land in pairwise distinct classes
    for cls in classes:
        assert len([g for g in cls if g in named]) <= 1
    # at least one collision among the rest; constant-true collides with XOR
    assert any(len(cls) >= 2 for cls in classes)
    tttt_class = next(cls for cls in classes if "TTTT" in cls)
    assert "XOR" in tttt_class


def test_constant_true_signature(dim4):
    # constant-true maps every input to s, so the probe output is exactly s
    table = next(t for t in sl.ALL_DYADIC_TABLES if t.pattern == "TTTT")
    sig = probe(gate_operator(dim4, table), dim4, 2)
    assert sig.coefficients == pytest.approx((1, 0, 0, 0), abs=TOL)


def test_ambiguous_never_arises_for_named_gates(set1):
    for table in list(sl.MONADIC_GATES.values()):
        res = classify(probe(gate_operator(set1, table), set1, 1), 1)
        assert res.verdict != AMBIGUOUS


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_probe_dyadic_matches_dense_kron_probe(dim):
    # reference: the literal Q^2 x Q^2 prefilter (A(x)A) applied to s(x)s
    b = random_basis(dim, 0.0, seed=dim)
    a = sqrt_not(b).A
    probe_input = np.kron(a, a) @ np.kron(b.s, b.s)
    for table in sl.ALL_DYADIC_TABLES:
        real = np.asarray(gate_operator(b, table))
        for oracle in (real, (0.6 - 0.8j) * real):
            out = oracle @ probe_input
            expected = (b.y @ out.real, b.z @ out.real, b.y @ out.imag, b.z @ out.imag)
            sig = probe(oracle, b, 2)
            assert max(abs(c - e) for c, e in zip(sig.coefficients, expected)) < 1e-13


def test_probe_and_classify_at_dim128():
    b = random_basis(128, 0.0, seed=7)
    for name, table in sl.MONADIC_GATES.items():
        assert classify(probe(gate_operator(b, table), b, 1), 1).verdict == name
    for name, table in sl.NAMED_DYADIC_GATES.items():
        oracle = np.asarray(gate_operator(b, table))  # dense, 16 MiB, built before tracing
        tracemalloc.start()
        try:
            sig = probe(oracle, b, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert classify(sig, 2).verdict == name


@pytest.mark.parametrize("dim,eps", [(2, 0.0), (4, 0.35), (8, 0.0), (8, 0.35), (4, 0.9), (8, 0.9)])
def test_probe_gate_matches_probe_of_dense_matrix(dim, eps, ternary_tables):
    # the Gate through the factors of the probe input, the dense matrix
    # through the Q^k probe vector
    b = random_basis(dim, eps, seed=dim)
    for table in (*sl.MONADIC_GATES.values(), *sl.ALL_DYADIC_TABLES, *ternary_tables):
        gate = gate_operator(b, table)
        sig, dense_sig = probe(gate, b, table.arity), probe(np.asarray(gate), b, table.arity)
        assert max(abs(c - e) for c, e in zip(sig.coefficients, dense_sig.coefficients)) < 1e-13
        assert abs(sig.residual - dense_sig.residual) < 1e-13
        if table.arity == 1 or table.name in sl.NAMED_DYADIC_GATES:
            assert classify(sig, table.arity).verdict == classify(dense_sig, table.arity).verdict == table.name


def test_probe_accepts_nested_lists(set1):
    sig = probe(np.asarray(gate_operator(set1, sl.OR)).tolist(), set1, 2)
    assert classify(sig, 2).verdict == "OR"


def test_probe_of_structured_gate_at_dim512_stays_small():
    # the dense Q x Q^2 gate would take 1 GiB, the Q^2 probe vector 4 MiB
    b = random_basis(512, 0.0, seed=5)
    gate = gate_operator(b, sl.IMPL)
    tracemalloc.start()
    try:
        sig = probe(gate, b, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert classify(sig, 2).verdict == "IMPL"


def test_probe_applies_a_gate_to_the_factors_of_its_input(monkeypatch, ternary_tables):
    # a Gate oracle never meets the Q^k probe vector: with its @ refused,
    # every gate still gets its symbolic signature and its verdict
    def refuse(gate, v):
        raise AssertionError(f"a {gate.shape} gate was applied to a vector of shape {np.shape(v)}")

    b = random_basis(5, 0.35, seed=4)
    monkeypatch.setattr(Gate, "__matmul__", refuse)
    for table in (*sl.MONADIC_GATES.values(), *sl.ALL_DYADIC_TABLES, ternary_tables[150]):
        sig = probe(gate_operator(b, table), b, table.arity)
        expected = symbolic_signature(table)
        assert sig.coefficients == pytest.approx(expected, abs=TOL) and sig.residual < TOL
        if table.arity < 3:
            # a named gate by its name, an unnamed one as its signature classifies
            verdict = classify(sig, table.arity).verdict
            assert verdict == classify(GateSignature(*expected, residual=0.0), table.arity).verdict
            if table.name in sl.MONADIC_GATES or table.name in sl.NAMED_DYADIC_GATES:
                assert verdict == table.name


@pytest.mark.parametrize("dim,arity", [(1024, 2), (64, 3)])
def test_probe_of_a_gate_never_builds_the_probe_vector(dim, arity, ternary_tables):
    # the Q^k probe vector would take 16 MiB at Q = 1024, k = 2 and 4 MiB
    # at Q = 64, k = 3; a Gate's probe holds O(Q 2^k)
    b = random_basis(dim, 0.0, seed=dim)
    table = sl.AND if arity == 2 else ternary_tables[150]
    gate = gate_operator(b, table)
    tracemalloc.start()
    try:
        sig = probe(gate, b, arity)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sig.coefficients == pytest.approx(symbolic_signature(table), abs=TOL)


def test_named_dyadic_gates_classify_at_dim1024():
    b = random_basis(1024, 0.0, seed=11)
    for name, table in sl.NAMED_DYADIC_GATES.items():
        res = classify(probe(gate_operator(b, table), b, 2), 2)
        assert res.verdict == name and res.distance < TOL


@pytest.mark.parametrize("arity,gates,classes,largest", [(1, 4, 4, 1), (2, 16, 9, 4), (3, 256, 25, 36)])
def test_enumerate_signatures_script(arity, gates, classes, largest, monkeypatch, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "enumerate_signatures.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--arity", str(arity), "--dim", "5", "--seed", "2"])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert f"{gates} gates, {classes} signature classes, largest {largest}," in lines[0]
    assert len(lines) == 2 + classes  # header, column names, one line per class
    # bad input is a usage error (exit 1), not a traceback
    for argv, message in (
        (["--canonical", "foo"], "argument --canonical: unknown canonical basis 'foo'"),
        (["--dim", "1"], "argument --dim: truth vectors need dimension >= 2"),
    ):
        monkeypatch.setattr(sys, "argv", [str(script), "--arity", str(arity), *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(script), run_name="__main__")
        captured = capsys.readouterr()
        assert exc.value.code == 1, argv
        assert captured.out == ""
        assert message in captured.err, (argv, captured.err)


def _classes_of(signatures):
    # the grouping rule of enumerate_signatures, on per-gate probes
    groups = {}
    for name, sig in signatures.items():
        groups.setdefault(tuple(round(c, 9) for c in sig.coefficients), []).append(name)
    return sorted(groups.values(), key=lambda names: (-len(names), names))


@pytest.mark.parametrize("arity,dim", [(1, 5), (2, 5), (3, 3)])
@pytest.mark.parametrize("eps", [0.0, 0.35, 0.9])
def test_stacked_enumeration_matches_per_gate_probe(arity, dim, eps):
    b = random_basis(dim, eps, seed=arity)
    tables = list(sl.all_tables(arity))
    signatures, classes = enumerate_signatures(b, tables)
    single = {t.name: probe(gate_operator(b, t), b, arity) for t in tables}
    assert list(signatures) == list(single)
    for name, sig in signatures.items():
        assert max(abs(c - e) for c, e in zip(sig.coefficients, single[name].coefficients)) < 1e-14
        assert abs(sig.residual - single[name].residual) < 1e-14
    assert classes == _classes_of(single)


def test_enumeration_of_no_gates(dim4):
    assert enumerate_signatures(dim4, []) == ({}, [])
    assert enumerate_signatures(dim4, iter(())) == ({}, [])


def test_mixed_arities_raise(ternary_tables):
    # one enumeration takes the tables of one arity
    b = random_basis(3, 0.35, seed=1)
    for tables in ([sl.NOT, sl.AND], [sl.AND, ternary_tables[5]], [sl.ID, sl.XOR, ternary_tables[5]]):
        with pytest.raises(ValueError, match="one arity"):
            enumerate_signatures(b, tables)


def test_roundtrip_failures_apply_the_classify_rule():
    # verify's round trip reads each gate's distance to its own reference; it
    # names exactly the gates that classify misidentifies or names farther
    # than RESIDUAL_TOL away. Every row is tried in the slot of every gate
    rng = np.random.default_rng(7)
    references = {1: MONADIC_REFERENCE_SIGNATURES, 2: DYADIC_REFERENCE_SIGNATURES}
    candidates = {}
    for arity, refs in references.items():
        rows = np.array(list(refs.values()))
        noisy = np.concatenate([rows + rng.normal(scale=1e-7, size=rows.shape), rng.normal(size=(5, 4))])
        noisy[-1, 2] = math.nan
        midpoints = [(a + b) / 2 for a, b in itertools.combinations(rows, 2)]
        non_finite = np.repeat(rows[:1], 3, axis=0)
        non_finite[[0, 1, 2], [2, 0, 3]] = (math.nan, math.inf, -math.inf)
        shifted = [rows + 1e-11, rows - 1e-11, rows + 2e-10, rows + 1e-7]
        candidates[arity] = np.concatenate([rows, noisy, *shifted, midpoints, non_finite])
    named_rows = [[t.name for t in sl.ALL_DYADIC_TABLES].index(name) for name in DYADIC_REFERENCE_SIGNATURES]
    outcomes = set()
    for shift in range(max(len(rows) for rows in candidates.values())):
        monadic = np.take(candidates[1], shift + np.arange(4), axis=0, mode="wrap")
        dyadic = np.full((len(sl.ALL_DYADIC_TABLES), 4), math.nan)  # the unnamed rows are not read
        dyadic[named_rows] = np.take(candidates[2], shift + np.arange(7), axis=0, mode="wrap")
        expected = []
        for arity, rows in ((1, monadic), (2, dyadic[named_rows])):
            for row, name in zip(rows.tolist(), references[arity]):
                res = classify(GateSignature(*row, residual=0.0), arity)
                fails = res.verdict != name or res.distance > RESIDUAL_TOL
                outcomes.add((res.verdict == name, fails))
                expected += [name] * fails
        assert diagnosis_roundtrip_failures(monadic, dyadic) == expected, shift
    # passes, fails on distance with the right name, and fails on the name
    assert outcomes == {(True, False), (True, True), (False, True)}


def _public_path_signatures(gate: Gate, b) -> np.ndarray:
    """(G, 5) re_s, re_n, im_s, im_n and residual of each gate of a Gate or a
    stack, by the public gate.on_product(As, ..., As), each output read by
    its own products by the duals and by the frame."""
    a_s = (b.frame @ vlogic.diagnosis._ROOT_OF_TRUE)[:, None]
    out = gate.on_product(*[a_s] * gate.arity)[..., 0].reshape(-1, b.dim)
    c = (out[:, None, :] @ b.duals.T)[:, 0]
    residuals = np.abs(out - (c[:, None, :] @ b.frame.T)[:, 0]).max(axis=1)
    return np.column_stack((c.real, c.imag, residuals))


def _core_formula_signatures(gate: Gate, b) -> np.ndarray:
    """(G, 5) re_s, re_n, im_s, im_n and residual of each gate of a Gate or a
    stack built on b, by the core formula: G = Y^T S, w = (G (alpha, beta)^T)^{(x)k},
    m = M w and c = G m, with the real and imaginary parts of w side by side,
    and the residual the largest modulus of S (m - c)."""
    d = b.gram @ vlogic.diagnosis._ROOT_OF_TRUE[:, None]
    w = d
    for _ in range(1, gate.arity):
        w = np.kron(w, d)
    m = gate.core @ w.view(np.float64)  # (..., 2, 2): rows s and n, columns real and imaginary
    c = b.gram @ m
    outside = b.frame @ (m - c)
    residuals = np.hypot(outside[..., 0], outside[..., 1]).max(axis=-1)
    return np.column_stack((c.mT.reshape(-1, 4), residuals.reshape(-1)))


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("dim", [8, 32, 64])
@pytest.mark.parametrize("eps", [0.0, 0.35], ids=["orthonormal", "oblique"])
def test_probe_kernel_matches_on_product_bit_for_bit(dim, eps, ternary_tables):
    # probe, enumerate_signatures and the verify section share one kernel that
    # reads a gate built on the basis in core space, never forming S M w; its
    # signatures and residuals are the core formula's to the last bit, and the
    # public gate.on_product path's within 1e-13 (not bit for bit: that path
    # forms S M w and reads it by the duals, rounding otherwise)
    b = random_basis(dim, eps, seed=dim)
    tables = ternary_tables[::5]
    for table in (*sl.MONADIC_GATES.values(), *sl.ALL_DYADIC_TABLES, tables[7]):
        gate = gate_operator(b, table)
        sig = probe(gate, b, table.arity)
        (expected,) = _core_formula_signatures(gate, b)
        assert _bits((*sig.coefficients, sig.residual)) == _bits(expected), table.name
        (public,) = _public_path_signatures(gate, b)
        assert np.abs(public - expected).max() < 1e-13, table.name
    signatures, _ = enumerate_signatures(b, tables)
    expected = _core_formula_signatures(gate_operator(b, tables), b)
    assert _bits([(*signatures[t.name].coefficients, signatures[t.name].residual) for t in tables]) == _bits(expected)
    coefficients, _ = vlogic.diagnosis._signature_coefficients(b, tables)
    assert _bits(coefficients) == _bits(expected[:, :4])
    assert np.abs(_public_path_signatures(gate_operator(b, tables), b) - expected).max() < 1e-13


@pytest.mark.parametrize("dim", [8, 32])
@pytest.mark.parametrize("eps", [0.0, 0.35], ids=["orthonormal", "oblique"])
def test_a_gate_of_another_basis_is_read_through_both_bases(dim, eps, ternary_tables):
    # a Gate built on another basis of the same Q is an opaque oracle like
    # any other: its signature and residual are those of its dense matrix,
    # which a read through the probe's own Gram matrix alone would miss
    b, other = random_basis(dim, eps, seed=dim), random_basis(dim, 0.6, seed=dim + 1)
    differ = []
    for table in (*sl.MONADIC_GATES.values(), *sl.ALL_DYADIC_TABLES, ternary_tables[150]):
        gate = gate_operator(other, table)
        sig, dense_sig = probe(gate, b, table.arity), probe(np.asarray(gate), b, table.arity)
        distance = np.abs(np.subtract((*sig.coefficients, sig.residual), (*dense_sig.coefficients, dense_sig.residual)))
        if not distance.max() < 1e-13:
            differ.append((table.name, distance.max()))
    assert not differ, differ


def test_a_gate_gets_the_same_signature_bits_alone_and_in_a_stack(ternary_tables):
    # probe of one Gate, enumerate_signatures of a stack and the stacked read
    # of verify's diagnosis section give every gate the same bytes, in every
    # basis, whatever the size of the stack it is read in
    groups = (list(sl.MONADIC_GATES.values()), list(sl.ALL_DYADIC_TABLES), ternary_tables)
    differ = []
    for dim, eps in itertools.product([2, 4, 8, 32, 64, 256], [0.0, 0.35, 0.9, -0.6]):
        b = random_basis(dim, eps, seed=dim)
        for tables in groups:
            signatures, _ = enumerate_signatures(b, tables)
            stacked, _ = vlogic.diagnosis._signature_coefficients(b, tables)
            for table, row in zip(tables, stacked):
                sig, listed = probe(gate_operator(b, table), b, table.arity), signatures[table.name]
                alone = (*sig.coefficients, sig.residual)
                if _bits(alone) != _bits((*listed.coefficients, listed.residual)) or _bits(alone[:4]) != _bits(row):
                    differ.append((dim, eps, table.name))
    assert not differ, f"{len(differ)} gates differ, first {differ[:3]}"


@pytest.mark.parametrize("dim", [8, 32, 64])
def test_runner_up_survives_a_one_ulp_change_of_any_coefficient(dim):
    # every diagnosis has references tied at 0.5 for the runner-up; which
    # of them is named must not hang on the last bit of a coefficient
    for seed, eps in ((1, 0.0), (2, 0.35)):
        b = random_basis(dim, eps, seed=seed)
        for table in (*sl.MONADIC_GATES.values(), *sl.NAMED_DYADIC_GATES.values()):
            sig = probe(gate_operator(b, table), b, table.arity)
            runner_up = classify(sig, table.arity).runner_up
            for i, c in enumerate(sig.coefficients):
                for step in (-math.inf, math.inf):
                    moved = list(sig.coefficients)
                    moved[i] = float(np.nextafter(c, step))
                    res = classify(GateSignature(*moved, residual=sig.residual), table.arity)
                    assert (res.verdict, res.runner_up) == (table.name, runner_up)


def test_runner_up_tie_goes_to_the_first_name(monkeypatch):
    # distances within 1e-12 of the runner-up distance tie; the raw
    # distances are reported as they are. References D, B, C, A lie at
    # these max-norm distances from the zero signature
    zero = GateSignature(0.0, 0.0, 0.0, 0.0, residual=0.0)

    def classify_at(distances):
        refs = np.zeros((4, 4))
        refs[:, 1] = distances
        monkeypatch.setitem(vlogic.diagnosis._REFERENCES, 1, (["D", "B", "C", "A"], refs))
        return classify(zero, 1)

    res = classify_at([0.0, 0.5 + 4e-13, 0.5, 0.7])
    assert (res.verdict, res.distance, res.runner_up, res.runner_up_distance) == ("D", 0.0, "B", 0.5)
    assert classify_at([0.0, 0.5 + 2e-12, 0.5, 0.7]).runner_up == "C"
