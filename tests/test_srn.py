"""Square roots of NOT: coefficients, worked matrices, algebra, eigenvalues."""

import numpy as np
import pytest

from vlogic import scalar_logic as sl
from vlogic import canonical_basis, gate_operator, max_norm, random_basis, sqrt_not
from vlogic.operators import lift
from vlogic.srn import ALPHA, BETA, SrnPair, identity_report, solve_srn_coefficients

from conftest import eigenvalues

TOL = 1e-10

# the 2 x 2 cores of A and B over the frame [s n]
A_CORE = np.array([[ALPHA, BETA], [BETA, ALPHA]])
B_CORE = np.array([[BETA, ALPHA], [ALPHA, BETA]])


def dense_srn_residuals(pair, basis):
    """The identities of `identity_report` as dense Q x Q products, the oracle
    of its check on the frame."""
    i_op, n_op = np.asarray(gate_operator(basis, sl.ID)), np.asarray(gate_operator(basis, sl.NOT))
    a, b = pair.A, pair.B
    return {
        "A2_minus_N": max_norm(a @ a - n_op),
        "B2_minus_N": max_norm(b @ b - n_op),
        "AB_minus_I": max_norm(a @ b - i_op),
        "BA_minus_I": max_norm(b @ a - i_op),
        "A_minus_conj_B": max_norm(a - np.conj(b)),
        "B_minus_NA": max_norm(b - n_op @ a),
        "A_minus_NB": max_norm(a - n_op @ b),
    }


def test_coefficients():
    alpha, beta = solve_srn_coefficients()
    assert alpha == pytest.approx(0.5 + 0.5j)
    assert beta == pytest.approx(0.5 - 0.5j)


def test_coefficient_relations():
    alpha, beta = solve_srn_coefficients()
    assert alpha**2 + beta**2 == pytest.approx(0)
    assert 2 * alpha * beta == pytest.approx(1)
    assert alpha + beta == pytest.approx(1)


def test_scalar_shadow():
    # under the +/-1 arithmetic the two roots of Not = -1 are +/-i
    r1, r2 = 1j, -1j
    assert r1**2 == r2**2 == -1
    assert r1 * r2 == 1


def test_dim4_root_matrices(dim4):
    pair = sqrt_not(dim4)
    expected_a = 0.5 * np.array(
        [[1, 0, 0, 1], [0, 1j, 1j, 0], [0, 1j, 1j, 0], [1, 0, 0, 1]]
    )
    np.testing.assert_allclose(pair.A, expected_a, atol=1e-15)
    np.testing.assert_allclose(pair.B, np.conj(expected_a), atol=1e-15)


def test_set1_root_matrix(set1):
    # substitute the Set 1 I and N into A = alpha*I + beta*N
    pair = sqrt_not(set1)
    expected = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    np.testing.assert_allclose(pair.A, expected, atol=1e-15)


def test_roots_are_conjugates():
    b = random_basis(10, 0.2, seed=4)
    pair = sqrt_not(b)
    assert max_norm(pair.A - np.conj(pair.B)) < 1e-15


@pytest.mark.parametrize(
    "dim,eps,seed",
    [(2, 0.0, 0), (3, 0.5, 1), (8, -0.5, 2), (16, 0.9, 3), (64, 0.3, 4)],
)
def test_root_algebra(dim, eps, seed):
    b = random_basis(dim, eps, seed)
    pair = sqrt_not(b)
    report = identity_report(pair, b)
    dense = dense_srn_residuals(pair, b)
    assert report.keys() == dense.keys()
    assert all(r < TOL for r in report.values()), report
    assert all(r < TOL for r in dense.values()), dense


WRONG_ROOTS = {
    "intact": (A_CORE, B_CORE),
    "A_in_B_slot": (A_CORE, A_CORE),
    "scaled_root": (2 * A_CORE, B_CORE),
    "identity_core": (np.eye(2), B_CORE),
    "swapped_roots": (B_CORE, A_CORE),
    "off_span_core": (np.array([[ALPHA, BETA], [0, ALPHA]]), B_CORE),
}


def test_wrong_root_fails_identity_report():
    # roots built from wrong cores: the check on the frame fails exactly when
    # the dense oracle does, and by a clear margin
    for basis_name, basis in {
        "DIM4": canonical_basis("DIM4"),
        "Q5_eps-0.6": random_basis(5, -0.6, 3),
        "Q8_eps0.9": random_basis(8, 0.9, 3),
    }.items():
        for root_name, (a_core, b_core) in WRONG_ROOTS.items():
            pair = SrnPair(A=lift(basis, a_core), B=lift(basis, b_core))
            report, dense = identity_report(pair, basis), dense_srn_residuals(pair, basis)
            case = (basis_name, root_name, report, dense)
            assert report.keys() == dense.keys(), case
            for name, r in report.items():
                assert (r < TOL) == (dense[name] < TOL), case
                assert r < TOL or (r >= 0.1 and dense[name] >= 0.1), case
            # the swapped roots are the same pair of roots of NOT
            assert all(r < TOL for r in report.values()) == (root_name in ("intact", "swapped_roots")), case


def test_b_equals_na_and_a_equals_nb(dim4):
    pair = sqrt_not(dim4)
    neg = np.asarray(gate_operator(dim4, sl.NOT))
    assert max_norm(pair.B - neg @ pair.A) < 1e-14
    assert max_norm(pair.A - neg @ pair.B) < 1e-14


def test_product_is_logical_identity():
    b = random_basis(5, 0.0, seed=8)
    pair = sqrt_not(b)
    ident = np.asarray(gate_operator(b, sl.ID))
    assert max_norm(pair.A @ pair.B - ident) < TOL
    assert max_norm(pair.B @ pair.A - ident) < TOL


def test_dim4_eigenvalues(dim4):
    pair = sqrt_not(dim4)
    vals_a = eigenvalues(pair.A)
    np.testing.assert_allclose(vals_a, [1, 1j, 0, 0], atol=TOL)
    vals_b = eigenvalues(pair.B)
    # multiset {1, -i, 0, 0}; -i sorts first under (|.| desc, arg asc)
    np.testing.assert_allclose(vals_b, [-1j, 1, 0, 0], atol=TOL)


def test_set1_negation_eigenvalues(set1):
    np.testing.assert_allclose(
        eigenvalues(np.asarray(gate_operator(set1, sl.NOT))), [1, -1], atol=TOL
    )


def test_eigenvalues_requires_square():
    with pytest.raises(ValueError, match="square"):
        eigenvalues(np.ones((2, 3)))


def test_eigenvalue_ordering_deterministic():
    m = np.diag([1j, -1j, 1.0, -1.0])
    # |lambda| all 1: sorted by argument ascending
    np.testing.assert_allclose(eigenvalues(m), [-1j, 1.0, 1j, -1.0], atol=1e-15)
