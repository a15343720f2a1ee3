"""One-probe gate identification: signatures, classification, collisions."""

import tracemalloc

import numpy as np
import pytest

from vlogic import scalar_logic as sl
from vlogic import (
    classify_dyadic,
    classify_monadic,
    dyadic_operator,
    enumerate_dyadic_signatures,
    monadic_operator,
    probe_dyadic,
    probe_monadic,
    random_basis,
    sqrt_not,
)
from vlogic.diagnosis import (
    AMBIGUOUS,
    DYADIC_REFERENCE_SIGNATURES,
    GateSignature,
    MONADIC_REFERENCE_SIGNATURES,
    UNKNOWN,
    symbolic_dyadic_signature,
)
from vlogic.errors import DimensionMismatch, NonOrthogonalBasis

TOL = 1e-10


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
    sig = probe_monadic(monadic_operator(set1, gate), set1)
    assert sig.coefficients == pytest.approx(expected, abs=TOL)
    assert sig.residual < TOL


@pytest.mark.parametrize("name,expected", sorted(DYADIC_REFERENCE_SIGNATURES.items()))
def test_dyadic_probe_signatures(dim4, name, expected):
    oracle = dyadic_operator(dim4, sl.NAMED_DYADIC_GATES[name])
    sig = probe_dyadic(oracle, dim4)
    assert sig.coefficients == pytest.approx(expected, abs=TOL)
    assert sig.residual < TOL


def test_classify_monadic_references():
    for name, ref in MONADIC_REFERENCE_SIGNATURES.items():
        res = classify_monadic(GateSignature(*ref, residual=0.0))
        assert res.verdict == name
        assert res.distance < 1e-15


def test_classify_unknown_signature():
    res = classify_monadic(GateSignature(0.9, 0.1, 0.0, 0.0, residual=0.0), tol=0.05)
    assert res.verdict == UNKNOWN
    assert res.distance >= 0.05


@pytest.mark.parametrize(
    "coefficients",
    [(np.nan,) * 4, (0.0, 1.0, 0.5, np.nan), (np.nan, 0.0, 0.0, 0.0), (np.inf, 0.0, 0.0, 0.0)],
)
def test_classify_non_finite_signature_is_unknown(coefficients):
    # a NaN coefficient must not match a reference through NaN comparisons
    sig = GateSignature(*coefficients, residual=np.nan)
    assert classify_monadic(sig).verdict == UNKNOWN
    assert classify_dyadic(sig).verdict == UNKNOWN


def test_classify_dyadic_references():
    for name, ref in DYADIC_REFERENCE_SIGNATURES.items():
        res = classify_dyadic(GateSignature(*ref, residual=0.0))
        assert res.verdict == name


def test_references_pairwise_separated_by_half():
    refs = list(DYADIC_REFERENCE_SIGNATURES.values())
    for i, a in enumerate(refs):
        for b in refs[i + 1 :]:
            assert max(abs(x - y) for x, y in zip(a, b)) >= 0.5


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32])
def test_roundtrip_identification(dim):
    for seed in range(3):
        b = random_basis(dim, 0.0, seed)
        for name, table in sl.MONADIC_GATES.items():
            res = classify_monadic(probe_monadic(monadic_operator(b, table), b))
            assert res.verdict == name and res.distance < TOL
            assert res.runner_up != name and res.runner_up_distance >= 0.5 - TOL
        for name, table in sl.NAMED_DYADIC_GATES.items():
            res = classify_dyadic(probe_dyadic(dyadic_operator(b, table), b))
            assert res.verdict == name and res.distance < TOL
            assert res.runner_up != name and res.runner_up_distance >= 0.5 - TOL


def test_probe_rejects_nonorthogonal_basis():
    b = random_basis(4, 0.3, seed=1)
    with pytest.raises(NonOrthogonalBasis):
        probe_monadic(np.eye(4), b)
    with pytest.raises(NonOrthogonalBasis):
        probe_dyadic(np.ones((4, 16)), b)


def test_probe_rejects_wrong_shape(set1):
    with pytest.raises(DimensionMismatch):
        probe_monadic(np.eye(3), set1)
    with pytest.raises(DimensionMismatch):
        probe_dyadic(np.eye(2), set1)


def test_conjugate_probe_negates_imaginary_parts(dim4):
    # probing with B instead of A conjugates the signature
    pair = sqrt_not(dim4)
    for table in sl.ALL_DYADIC_TABLES:
        oracle = dyadic_operator(dim4, table)
        out_a = oracle @ (np.kron(pair.A, pair.A) @ np.kron(dim4.s, dim4.s))
        out_b = oracle @ (np.kron(pair.B, pair.B) @ np.kron(dim4.s, dim4.s))
        np.testing.assert_allclose(out_b, np.conj(out_a), atol=1e-14)


def test_enumeration_matches_symbolic_oracle(dim4):
    signatures, _ = enumerate_dyadic_signatures(dim4)
    for table in sl.ALL_DYADIC_TABLES:
        expected = symbolic_dyadic_signature(table)
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
    sig = probe_dyadic(dyadic_operator(dim4, table), dim4)
    assert sig.coefficients == pytest.approx((1, 0, 0, 0), abs=TOL)


def test_ambiguous_never_arises_for_named_gates(set1):
    for table in list(sl.MONADIC_GATES.values()):
        res = classify_monadic(probe_monadic(monadic_operator(set1, table), set1))
        assert res.verdict != AMBIGUOUS


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_probe_dyadic_matches_dense_kron_probe(dim):
    # reference: the literal Q^2 x Q^2 prefilter (A(x)A) applied to s(x)s
    b = random_basis(dim, 0.0, seed=dim)
    a = sqrt_not(b).A
    probe = np.kron(a, a) @ np.kron(b.s, b.s)
    for table in sl.ALL_DYADIC_TABLES:
        real = dyadic_operator(b, table)
        for oracle in (real, (0.6 - 0.8j) * real):
            out = oracle @ probe
            expected = (b.y @ out.real, b.z @ out.real, b.y @ out.imag, b.z @ out.imag)
            sig = probe_dyadic(oracle, b)
            assert max(abs(c - e) for c, e in zip(sig.coefficients, expected)) < 1e-13


def test_probe_and_classify_at_dim128():
    b = random_basis(128, 0.0, seed=7)
    for name, table in sl.MONADIC_GATES.items():
        assert classify_monadic(probe_monadic(monadic_operator(b, table), b)).verdict == name
    for name, table in sl.NAMED_DYADIC_GATES.items():
        oracle = dyadic_operator(b, table)  # 16 MiB, built before tracing
        tracemalloc.start()
        try:
            sig = probe_dyadic(oracle, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert classify_dyadic(sig).verdict == name
