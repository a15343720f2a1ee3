"""Truth-basis construction, duals, canonical sets, random generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlogic import canonical_basis, make_basis, random_basis
from vlogic.errors import (
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


@pytest.mark.parametrize("s,n", [([np.nan, 0.0], [0.0, 1.0]), ([1.0, 0.0], [0.0, np.nan])])
def test_make_basis_rejects_nan(s, n):
    with pytest.raises(NotUnitNorm):
        make_basis(s, n)


def test_random_basis_errors():
    with pytest.raises(QTooSmall):
        random_basis(1, 0.0, 0)
    with pytest.raises(BadEpsilon):
        random_basis(4, 1.0, 0)
    with pytest.raises(BadEpsilon):
        random_basis(4, -1.2, 0)


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
    assert set(d) == {"dim", "s", "n"}
    b2 = basis_from_dict(d)
    np.testing.assert_allclose(b2.s, b.s, atol=1e-15)
    np.testing.assert_allclose(b2.y, b.y, atol=1e-12)  # duals recomputed, not stored


def test_vectors_are_immutable():
    b = canonical_basis("SET1")
    with pytest.raises(ValueError):
        b.s[0] = 2.0
