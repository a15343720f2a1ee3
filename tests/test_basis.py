"""Truth-basis construction, duals, canonical sets, random generation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlogic import TruthBasis, canonical_basis, make_basis, operators, random_basis, srn
from vlogic import scalar_logic as sl
from vlogic.errors import (
    BadArgument,
    BadEpsilon,
    DimensionMismatch,
    NearlyDependent,
    NotUnitNorm,
    QTooSmall,
    UnknownName,
)
from vlogic.serialize import basis_from_dict, basis_to_dict

TOL = 1e-10


def test_orthonormal_duals_equal_vectors():
    b = make_basis([1.0, 0.0], [0.0, 1.0])
    assert b.epsilon == 0.0
    np.testing.assert_array_equal(b.y, b.s)
    np.testing.assert_array_equal(b.z, b.n)


def test_dim4_is_orthonormal():
    b = make_basis([0.5] * 4, [0.5, -0.5, -0.5, 0.5])
    assert abs(b.epsilon) < TOL
    np.testing.assert_allclose(b.y, b.s, atol=TOL)


def test_oblique_duals_against_linear_solve():
    # independent oracle: solve the two dual conditions as a 2x2 system
    s = np.array([1.0, 0.0])
    n = np.array([0.5, np.sqrt(3) / 2])
    b = make_basis(s, n)
    assert b.epsilon == pytest.approx(0.5)
    m = np.column_stack([s, n])
    y_oracle = np.linalg.solve(m.T, [1.0, 0.0])
    z_oracle = np.linalg.solve(m.T, [0.0, 1.0])
    np.testing.assert_allclose(b.y, y_oracle, atol=1e-14)
    np.testing.assert_allclose(b.z, z_oracle, atol=1e-14)
    # frozen values from the oracle
    np.testing.assert_allclose(b.y, [1.0, -1 / np.sqrt(3)], atol=1e-14)
    np.testing.assert_allclose(b.z, [0.0, 2 / np.sqrt(3)], atol=1e-14)


def test_pseudoinverse_consistency():
    b = random_basis(6, 0.4, seed=11)
    m = np.column_stack([b.s, b.n])
    pinv = np.vstack([b.y, b.z])
    np.testing.assert_allclose(pinv @ m, np.eye(2), atol=TOL)
    # agrees with the normal-equations pseudoinverse
    np.testing.assert_allclose(pinv, np.linalg.solve(m.T @ m, m.T), atol=TOL)
    # the basis carries the same frame [s n] and duals [y z]^T, read-only
    np.testing.assert_array_equal(b.frame, m)
    np.testing.assert_array_equal(b.duals, pinv)
    assert not (b.frame.flags.writeable or b.duals.flags.writeable)


@pytest.mark.parametrize("name,dim", [("SET1", 2), ("SET2", 2), ("DIM4", 4)])
def test_canonical_bases(name, dim):
    b = canonical_basis(name)
    assert b.dim == dim
    assert abs(b.epsilon) < TOL


def test_canonical_unknown_name():
    with pytest.raises(UnknownName):
        canonical_basis("SET9")


def test_make_basis_errors():
    with pytest.raises(DimensionMismatch):
        make_basis([1.0, 0.0], [0.0, 1.0, 0.0])
    with pytest.raises(NotUnitNorm):
        make_basis([2.0, 0.0], [0.0, 1.0])
    with pytest.raises(QTooSmall):
        make_basis([1.0], [1.0])
    v = np.array([1.0, 0.0])
    with pytest.raises(NearlyDependent):
        make_basis(v, v)
    # a complex entry is refused, never dropped: |1 + 0.5j| = 1.118 is no unit norm
    for s in (np.array([1 + 0.5j, 0, 0, 0]), [1 + 0.5j, 0, 0, 0]):
        with pytest.raises(DimensionMismatch, match="must be real"):
            make_basis(s, [0, 1, 0, 0])


@pytest.mark.parametrize("s,n", [([np.nan, 0.0], [0.0, 1.0]), ([1.0, 0.0], [0.0, np.nan])])
def test_make_basis_rejects_nan(s, n):
    with pytest.raises(NotUnitNorm):
        make_basis(s, n)


@pytest.mark.parametrize("gap", [5e-5, 1e-6])
@pytest.mark.parametrize("sign", [1, -1])
def test_nearly_dependent_overlaps_are_rejected(gap, sign):
    # past |eps| = 1 - 1e-4 the checks' rounding would exceed their fixed tolerance
    with pytest.raises(NearlyDependent):
        random_basis(8, sign * (1 - gap), seed=1)


def test_random_basis_errors():
    with pytest.raises(QTooSmall):
        random_basis(1, 0.0, 0)
    with pytest.raises(BadEpsilon):
        random_basis(4, 1.0, 0)
    with pytest.raises(BadEpsilon):
        random_basis(4, -1.2, 0)


@pytest.mark.parametrize(
    "args,named",
    [
        ((4, 0.0, 1.5), "seed"),
        ((4, 0.0, -3), "seed"),
        ((4, 0.0, True), "seed"),
        ((4, 0.0, "1"), "seed"),
        ((2.5,), "dim"),
        (("4",), "dim"),
        ((True,), "dim"),
        ((10**30,), "dim"),
    ],
    ids=["float_seed", "negative_seed", "bool_seed", "str_seed", "float_dim", "str_dim", "bool_dim", "huge_dim"],
)
def test_random_basis_names_a_bad_dim_or_seed(args, named):
    # numpy raised its own TypeError or ValueError, naming no argument
    with pytest.raises(BadArgument, match=named):
        random_basis(*args)


def test_random_basis_takes_numpy_integers():
    expected = random_basis(6, 0.3, 2)
    got = random_basis(np.int64(6), 0.3, np.uint8(2))
    np.testing.assert_array_equal(got.frame, expected.frame)


def test_random_basis_deterministic():
    a = random_basis(16, 0.3, seed=1)
    b = random_basis(16, 0.3, seed=1)
    np.testing.assert_array_equal(a.s, b.s)
    np.testing.assert_array_equal(a.n, b.n)
    c = random_basis(16, 0.3, seed=2)
    assert not np.array_equal(a.s, c.s)


def test_random_basis_hits_requested_epsilon():
    assert abs(random_basis(2, 0.0, 7).epsilon) < 1e-12
    assert random_basis(16, 0.3, 1).epsilon == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 64])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, -0.4])
def test_dual_biorthogonality_sweep(dim, eps):
    b = random_basis(dim, eps, seed=dim * 100 + int(eps * 10))
    worst = max(
        abs(b.y @ b.s - 1), abs(b.z @ b.n - 1), abs(b.y @ b.n), abs(b.z @ b.s)
    )
    assert worst < TOL


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 64),
    eps=st.floats(-0.9, 0.9),
    seed=st.integers(0, 2**31),
)
def test_dual_biorthogonality_property(dim, eps, seed):
    b = random_basis(dim, eps, seed)
    assert abs(np.linalg.norm(b.s) - 1) < TOL
    assert abs(np.linalg.norm(b.n) - 1) < TOL
    assert abs(b.epsilon - eps) < 1e-9
    assert abs(b.y @ b.s - 1) < TOL and abs(b.z @ b.s) < TOL


def test_json_round_trip():
    b = random_basis(8, 0.25, seed=3)
    d = basis_to_dict(b)
    assert list(d) == ["dim", "s", "n", "epsilon", "y", "z"]
    b2 = basis_from_dict(dict(d, y=[0.0] * 8, z=[0.0] * 8, epsilon=0.9))
    np.testing.assert_allclose(b2.s, b.s, atol=1e-15)
    np.testing.assert_allclose(b2.y, b.y, atol=1e-12)  # duals recomputed, not stored


def test_vectors_are_immutable():
    b = canonical_basis("SET1")
    with pytest.raises(ValueError):
        b.s[0] = 2.0


def test_vectors_are_read_only_views():
    s, n = np.array([0.6, 0.8, 0.0]), np.array([0.0, 0.6, 0.8])
    b = make_basis(s, n)
    # a basis stores its frame, duals, overlap and their Gram matrix; the rest is derived
    assert [f.name for f in dataclasses.fields(TruthBasis)] == ["frame", "duals", "epsilon", "gram"]
    assert b.dim == b.frame.shape[0] == 3
    assert np.shares_memory(b.s, b.frame) and np.shares_memory(b.n, b.frame)
    assert np.shares_memory(b.y, b.duals) and np.shares_memory(b.z, b.duals)
    fields = (b.s, b.n, b.y, b.z, b.frame, b.duals, b.gram)
    # every other array the library keeps or hands out is read-only too
    roots = srn.sqrt_not(b)
    kept_elsewhere = (
        srn.A_CORE, srn.B_CORE, roots.A, roots.B,
        operators._one_hot_cores((sl.NOT.outputs,)), operators._one_hot_cores((sl.AND.outputs, sl.OR.outputs)),
    )
    for v in (*fields, *kept_elsewhere):
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0] = 2.0
    # the basis holds copies of the caller's vectors
    kept = [v.copy() for v in fields]
    s[:] = n[:] = 0.5
    for v, was in zip(fields, kept):
        np.testing.assert_array_equal(v, was)


@pytest.mark.parametrize("dim", [2, 16, 1024])
@pytest.mark.parametrize("eps", [0.0, 0.35, -0.6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_basis_is_gram_schmidt_bit_for_bit(dim, eps, seed):
    # the same construction with np.linalg.norm; none of these seeds redraws
    rng = np.random.default_rng(seed)
    v1, v2 = rng.standard_normal(dim), rng.standard_normal(dim)
    s = v1 / np.linalg.norm(v1)
    perp = v2 - (v2 @ s) * s
    perp /= np.linalg.norm(perp)
    n = eps * s + np.sqrt(1.0 - eps * eps) * perp
    e = float(s @ n)
    y, z = (s - e * n) / (1.0 - e * e), (n - e * s) / (1.0 - e * e)
    b = random_basis(dim, eps, seed)
    assert b.epsilon == e
    expected = (s, n, y, z, np.column_stack((s, n)), np.vstack((y, z)))
    for got, want in zip((b.s, b.n, b.y, b.z, b.frame, b.duals), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
