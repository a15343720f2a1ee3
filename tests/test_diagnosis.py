"""One-probe gate identification: signatures, classification, collisions."""

import itertools
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from vlogic import scalar_logic as sl
from vlogic import classify, enumerate_dyadic_signatures, gate_operator, probe, random_basis, sqrt_not
from vlogic.diagnosis import (
    AMBIGUOUS,
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
    sig = GateSignature(1.0, 0.0, 0.0, 0.0, residual=0.0)
    for arity in (0, 3):
        with pytest.raises(UnsupportedArity) as exc:
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
        signatures, _ = enumerate_dyadic_signatures(b)
        for table in sl.ALL_DYADIC_TABLES:
            expected = symbolic_signature(table)
            assert signatures[table.name].coefficients == pytest.approx(expected, abs=TOL)
            assert signatures[table.name].residual < TOL


def test_enumeration_collision_structure(dim4):
    signatures, classes = enumerate_dyadic_signatures(dim4)
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
        real = gate_operator(b, table)
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
        oracle = gate_operator(b, table)  # 16 MiB, built before tracing
        tracemalloc.start()
        try:
            sig = probe(oracle, b, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert classify(sig, 2).verdict == name
