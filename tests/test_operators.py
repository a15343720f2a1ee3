"""Operator matrices: worked 2D/4D cases, Kronecker laws, table fidelity."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import vlogic
from vlogic import scalar_logic as sl
from vlogic import srn
from vlogic import Gate, gate_operator, make_basis, max_norm, probe, random_basis
from vlogic.errors import DimensionMismatch, VectorLogicError
from vlogic.serialize import matrix_to_dict

TOL = 1e-10

finite = st.floats(-10, 10, allow_nan=False)


def small_matrix(rows, cols):
    return arrays(float, (rows, cols), elements=finite)


def test_kron_worked_example():
    u = np.array([[1, 0], [2, -1]], dtype=float)
    v = np.array([[1, -1, 4], [3, 1, 0]], dtype=float)
    expected = np.array(
        [
            [1, -1, 4, 0, 0, 0],
            [3, 1, 0, 0, 0, 0],
            [2, -2, 8, -1, 1, -4],
            [6, 2, 0, -3, -1, 0],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(np.kron(u, v), expected)


def test_kron_scalar_unit():
    v = np.array([[1.5, -2.0], [0.0, 3.0]])
    np.testing.assert_array_equal(np.kron(np.array([[1.0]]), v), v)


def test_kron_inner_product_factorization():
    rng = np.random.default_rng(5)
    a, b, c, d = (rng.standard_normal(3) for _ in range(4))
    lhs = np.kron(a, b) @ np.kron(c, d)
    assert lhs == pytest.approx((a @ c) * (b @ d))


@settings(max_examples=25, deadline=None)
@given(u=small_matrix(2, 3), v=small_matrix(3, 2), up=small_matrix(3, 2), vp=small_matrix(2, 3))
def test_kron_mixed_product_law(u, v, up, vp):
    lhs = np.kron(u, v) @ np.kron(up, vp)
    rhs = np.kron(u @ up, v @ vp)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(u=small_matrix(2, 3), v=small_matrix(4, 2))
def test_kron_transpose_law(u, v):
    np.testing.assert_array_equal(np.kron(u, v).T, np.kron(u.T, v.T))


def test_set1_identity_and_negation(set1):
    np.testing.assert_allclose(gate_operator(set1, sl.ID), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(
        gate_operator(set1, sl.NOT), [[0, 1], [1, 0]], atol=1e-15
    )


def test_set2_negation(set2):
    np.testing.assert_allclose(
        gate_operator(set2, sl.NOT), [[1, 0], [0, -1]], atol=1e-15
    )


def test_dim4_negation(dim4):
    expected = 0.5 * np.array(
        [[1, 0, 0, 1], [0, -1, -1, 0], [0, -1, -1, 0], [1, 0, 0, 1]]
    )
    np.testing.assert_allclose(gate_operator(dim4, sl.NOT), expected, atol=1e-15)


def test_orthonormal_closed_forms(dim4):
    s, n = dim4.s, dim4.n
    np.testing.assert_allclose(
        np.asarray(gate_operator(dim4, sl.ID)), np.outer(s, s) + np.outer(n, n), atol=1e-15
    )
    np.testing.assert_allclose(
        gate_operator(dim4, sl.CID), np.outer(s, s) + np.outer(s, n), atol=1e-15
    )
    np.testing.assert_allclose(
        gate_operator(dim4, sl.CNOT), np.outer(n, s) + np.outer(n, n), atol=1e-15
    )


def test_set1_impl(set1):
    np.testing.assert_allclose(
        gate_operator(set1, sl.IMPL), [[1, 0, 1, 1], [0, 1, 0, 0]], atol=1e-15
    )


def test_set1_or(set1):
    np.testing.assert_allclose(
        gate_operator(set1, sl.OR), [[1, 1, 1, 0], [0, 0, 0, 1]], atol=1e-15
    )


def test_set2_impl_and_or(set2):
    r = 1 / np.sqrt(2)
    np.testing.assert_allclose(
        gate_operator(set2, sl.IMPL), r * np.array([[2, 0, 0, 0], [1, 1, -1, 1]]), atol=1e-14
    )
    np.testing.assert_allclose(
        gate_operator(set2, sl.OR), r * np.array([[2, 0, 0, 0], [1, 1, 1, -1]]), atol=1e-14
    )


def test_impl_on_false_false_gives_true(set1):
    l = gate_operator(set1, sl.IMPL)
    np.testing.assert_allclose(l @ np.kron(set1.n, set1.n), set1.s, atol=1e-14)


def test_equi_on_false_false_gives_true(dim4):
    e = gate_operator(dim4, sl.EQUI)
    np.testing.assert_allclose(e @ np.kron(dim4.n, dim4.n), dim4.s, atol=1e-14)


def test_negation_is_linear(dim4):
    n_op = np.asarray(gate_operator(dim4, sl.NOT))
    mix = 0.3 * dim4.s + 0.7 * dim4.n
    np.testing.assert_allclose(n_op @ mix, 0.3 * dim4.n + 0.7 * dim4.s, atol=1e-14)


@pytest.mark.parametrize("dim,eps,seed", [(2, 0.0, 0), (5, 0.0, 1), (8, 0.3, 2), (16, -0.4, 3)])
def test_truth_table_fidelity(dim, eps, seed):
    # every gate, every {s,n} input: matrix output equals the scalar oracle
    b = random_basis(dim, eps, seed)
    vec = {1: b.s, -1: b.n}
    for table in sl.MONADIC_GATES.values():
        u = gate_operator(b, table)
        for w in (1, -1):
            assert max_norm(u @ vec[w] - vec[sl.evaluate(table, w)]) < TOL
    for table in sl.ALL_DYADIC_TABLES:
        t = gate_operator(b, table)
        assert t.shape == (dim, dim * dim)
        for u_ in (1, -1):
            for v_ in (1, -1):
                out = t @ np.kron(vec[u_], vec[v_])
                assert max_norm(out - vec[sl.evaluate(table, u_, v_)]) < TOL


def test_ternary_truth_table_fidelity(ternary_tables):
    # the arity-generic gate at k = 3: every table, every product of three
    # frame columns, against the scalar oracle
    b = random_basis(3, 0.35, seed=3)
    for table in ternary_tables:
        t = gate_operator(b, table)
        assert t.shape == (3, 27)
        for ws in itertools.product((sl.TRUE, sl.FALSE), repeat=3):
            cols = [b.frame[:, 0 if w == sl.TRUE else 1] for w in ws]
            out = t @ np.kron(np.kron(cols[0], cols[1]), cols[2])
            expected = b.frame[:, 0 if sl.evaluate(table, *ws) == sl.TRUE else 1]
            assert max_norm(out - expected) < TOL


@pytest.mark.parametrize("dim,eps,seed", [(2, 0.0, 4), (6, 0.5, 5), (16, 0.0, 6)])
def test_tautologies(dim, eps, seed):
    b = random_basis(dim, eps, seed)
    i_op = np.asarray(gate_operator(b, sl.ID))
    n_op = np.asarray(gate_operator(b, sl.NOT))
    l = np.asarray(gate_operator(b, sl.IMPL))
    d = np.asarray(gate_operator(b, sl.OR))
    c = np.asarray(gate_operator(b, sl.AND))
    assert max_norm(l - d @ np.kron(n_op, i_op)) < TOL
    assert max_norm(d - n_op @ c @ np.kron(n_op, n_op)) < TOL


def test_generalized_identity_negation_nonorthogonal():
    b = random_basis(7, 0.45, seed=9)
    i_bar = np.asarray(gate_operator(b, sl.ID))
    n_bar = np.asarray(gate_operator(b, sl.NOT))
    assert max_norm(i_bar @ b.s - b.s) < TOL
    assert max_norm(i_bar @ b.n - b.n) < TOL
    assert max_norm(n_bar @ b.s - b.n) < TOL
    assert max_norm(n_bar @ b.n - b.s) < TOL


@pytest.mark.parametrize("dim,eps,seed", [(2, 0.35, 1), (5, -0.4, 2), (8, 0.35, 3)])
def test_dyadic_operator_matches_outer_product_sum(dim, eps, seed):
    b = random_basis(dim, eps, seed)
    duals = ((b.y, b.y), (b.y, b.z), (b.z, b.y), (b.z, b.z))
    for table in sl.ALL_DYADIC_TABLES:
        expected = sum(
            np.outer(b.s if out == sl.TRUE else b.n, np.kron(d1, d2))
            for out, (d1, d2) in zip(table.outputs, duals)
        )
        assert max_norm(np.asarray(gate_operator(b, table)) - expected) < 1e-13


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("eps", [0.0, 0.35])
def test_gate_apply_matches_dense(dim, eps, ternary_tables):
    # every table of arity 1, 2 and 3: the structured gate @ v against its
    # dense matrix, for vector, matrix and complex right operands
    b = random_basis(dim, eps, seed=dim)
    rng = np.random.default_rng(dim)
    for tables in (sl.MONADIC_GATES.values(), sl.ALL_DYADIC_TABLES, ternary_tables):
        for table in tables:
            gate = gate_operator(b, table)
            dense = np.asarray(gate)
            cols = dim**table.arity
            assert isinstance(gate, Gate) and gate.shape == dense.shape == (dim, cols)
            for v in (
                rng.standard_normal(cols),
                rng.standard_normal((cols, 3)),
                rng.standard_normal(cols) + 1j * rng.standard_normal(cols),
                rng.standard_normal((cols, 2)) + 1j * rng.standard_normal((cols, 2)),
            ):
                out = gate @ v
                assert out.shape == (dense @ v).shape
                assert max_norm(out - dense @ v) < 1e-13


def test_gate_dense_matrix_is_outputs_times_kron_power(dim4):
    # np.asarray(gate) is the matrix the library has always serialized
    for table in (*sl.MONADIC_GATES.values(), *sl.ALL_DYADIC_TABLES):
        gate = gate_operator(dim4, table)
        expected = gate.outputs @ functools.reduce(np.kron, [dim4.duals] * table.arity)
        np.testing.assert_array_equal(np.asarray(gate), expected)
        assert np.asarray(gate, dtype=complex).dtype == complex


def test_gate_never_densifies_silently(dim4):
    gate = gate_operator(dim4, sl.AND)
    dense = np.asarray(gate)
    for combine in (
        lambda: dense - gate,
        lambda: gate - dense,
        lambda: dense + gate,
        lambda: np.abs(gate),
        lambda: gate @ gate,
        lambda: np.ones((4, 3)) @ gate,
        lambda: np.eye(4) @ gate,
    ):
        with pytest.raises(TypeError):
            combine()
    with pytest.raises(ValueError):
        np.asarray(gate, copy=False)


def test_gate_apply_to_zero_columns(dim4):
    for table in (sl.NOT, sl.AND):
        gate = gate_operator(dim4, table)
        assert (gate @ np.ones((gate.shape[1], 0))).shape == (4, 0)


def test_gate_apply_rejects_wrong_shapes(dim4):
    gate = gate_operator(dim4, sl.AND)
    for bad in (np.ones(4), np.ones((16, 2, 2)), np.ones((4, 16))):
        with pytest.raises(DimensionMismatch):
            gate @ bad


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("arity", [1, 2])
def test_stacked_gate_matches_its_gates(dim, arity):
    # a stack of G tables is its G gates along axis 0, bit for bit, under @,
    # on_product and np.asarray
    b = random_basis(dim, 0.35, seed=dim)
    rng = np.random.default_rng(dim)
    tables = list(sl.MONADIC_GATES.values()) if arity == 1 else list(sl.ALL_DYADIC_TABLES)
    cols = dim**arity
    for stacked in (tables, tables[::-1], tables[:1]):
        stack = gate_operator(b, stacked)
        gates = [gate_operator(b, t) for t in stacked]
        assert isinstance(stack, Gate) and stack.shape == (len(stacked), dim, cols)
        np.testing.assert_array_equal(np.asarray(stack), np.stack([np.asarray(g) for g in gates]))
        for v in (
            rng.standard_normal(cols),
            rng.standard_normal((cols, 3)),
            rng.standard_normal(cols) + 1j * rng.standard_normal(cols),
            rng.standard_normal((cols, 2)) + 1j * rng.standard_normal((cols, 2)),
        ):
            out = stack @ v
            assert out.shape == (len(stacked), dim, *v.shape[1:])
            assert out.tobytes() == np.stack([g @ v for g in gates]).tobytes()
        for factors in (
            [rng.standard_normal((dim, 3)) for _ in range(arity)],
            [rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)) for _ in range(arity)],
        ):
            out = stack.on_product(*factors)
            assert out.tobytes() == np.stack([g.on_product(*factors) for g in gates]).tobytes()


def test_stacked_gate_needs_tables_of_one_arity(dim4):
    for tables in ([sl.NOT, sl.AND], [], iter(())):
        with pytest.raises(ValueError):
            gate_operator(dim4, tables)
    # any iterable of tables will do
    assert gate_operator(dim4, (t for t in (sl.AND, sl.OR))).shape == (2, 4, 16)


def test_gate_operator_refuses_anything_but_tables_with_a_value_error(dim4):
    # a str iterates into characters and a number does not iterate: neither is a table
    for tables in ("AND", 5, [sl.AND, "OR"], None):
        with pytest.raises(ValueError, match="tables must be a TruthTable or a sequence of them"):
            gate_operator(dim4, tables)


def test_gate_refuses_a_core_that_is_no_array_or_a_basis_that_is_no_truth_basis(dim4):
    eye = np.eye(2)
    for core in (eye.tolist(), 2.0, np.float64(2.0), np.array(1.0), "core", None):
        with pytest.raises(DimensionMismatch, match=r"\(\.\.\., 2, 2\^k\)"):
            Gate(dim4, core)
    for basis in (dim4.frame, (dim4.frame, dim4.duals), "DIM4", None):
        with pytest.raises(TypeError, match="TruthBasis"):
            Gate(basis, eye)
    with pytest.raises(TypeError):  # a core and a basis in the wrong order
        Gate(eye, dim4)


@pytest.mark.parametrize("dim", [4, 4096])
def test_gates_share_one_cached_read_only_core(dim):
    b = random_basis(dim, 0.0, seed=1)
    core = gate_operator(b, sl.ALL_DYADIC_TABLES).core
    assert core.shape == (16, 2, 4) and not core.flags.writeable
    assert gate_operator(b, list(sl.ALL_DYADIC_TABLES)).core is core  # the cache's own array, no copy
    assert gate_operator(random_basis(dim, 0.35, seed=2), sl.ALL_DYADIC_TABLES).core is core
    # one-hot columns: I2[:, 0] for a TRUE output, I2[:, 1] for FALSE
    for table, c in zip(sl.ALL_DYADIC_TABLES, core):
        np.testing.assert_array_equal(c, np.eye(2)[:, [0 if out == sl.TRUE else 1 for out in table.outputs]])
    # the members of a basis stack share it, and so do the roots of NOT
    other = random_basis(dim, -0.6, seed=3)
    stack = make_basis([b.s, other.s], [b.n, other.n])
    assert gate_operator(stack, sl.ALL_DYADIC_TABLES).core is core
    for basis in (b, stack):
        roots = srn.factored_roots(basis)
        assert roots.A.core is srn.A_CORE and roots.B.core is srn.B_CORE


def test_stacked_gate_is_no_single_gate(dim4):
    # probe takes one oracle, serialization one matrix, @ one shape of v
    stack = gate_operator(dim4, [sl.AND, sl.OR])
    with pytest.raises(DimensionMismatch):
        probe(stack, dim4, 2)
    with pytest.raises(VectorLogicError, match="ndim 3"):
        matrix_to_dict(stack)
    for bad in (np.ones(4), np.ones((16, 2, 2))):
        with pytest.raises(DimensionMismatch):
            stack @ bad


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("arity", [1, 2])
def test_gate_on_product_matches_dense(dim, arity):
    # gate.on_product(f_1, ..., f_k) against the dense gate @ np.kron(f_1, ..., f_k),
    # for a single gate and a stack, with real and complex factors of
    # different widths
    b = random_basis(dim, 0.35, seed=dim)
    rng = np.random.default_rng(dim + arity)
    tables = list(sl.MONADIC_GATES.values()) if arity == 1 else list(sl.ALL_DYADIC_TABLES)
    widths = (3,) if arity == 1 else (2, 3)
    for gate in (gate_operator(b, tables[-1]), gate_operator(b, tables)):
        dense = np.asarray(gate)
        for complex_factors in (False, True):
            factors = [rng.standard_normal((dim, m)) for m in widths]
            if complex_factors:
                factors = [f + 1j * rng.standard_normal(f.shape) for f in factors]
            out = gate.on_product(*factors)
            expected = dense @ functools.reduce(np.kron, factors)
            assert out.shape == expected.shape == (*gate.shape[:-1], int(np.prod(widths)))
            assert max_norm(out - expected) < 1e-13


def test_gate_on_product_rejects_wrong_factors(dim4):
    frame = dim4.frame
    for gate in (gate_operator(dim4, sl.AND), gate_operator(dim4, [sl.AND, sl.OR])):
        for factors in ((frame,), (frame, frame, frame), (frame, np.ones((5, 2))), (frame, np.ones(4))):
            with pytest.raises(DimensionMismatch):
                gate.on_product(*factors)


def test_gate_rejects_shapes_it_cannot_apply(dim4):
    # three core columns are no 2^k, one column is arity 0, and a core has 2 rows
    eye = np.eye(2)
    for core in (eye[:, [0, 1, 0]], eye[:, [0]], np.eye(3, 2), eye[0]):
        with pytest.raises(DimensionMismatch, match=r"\(\.\.\., 2, 2\^k\)"):
            Gate(dim4, core)


def test_gate_derives_its_arity_from_its_core(ternary_tables):
    # Gate(basis, core) rebuilds every gate and stack of arity 1-3 bit for bit,
    # over one basis and over a stack
    b, other = random_basis(3, 0.35, seed=7), random_basis(3, -0.6, seed=8)
    stack = make_basis([b.s, other.s], [b.n, other.n])
    rng = np.random.default_rng(7)
    for tables in (list(sl.MONADIC_GATES.values()), list(sl.ALL_DYADIC_TABLES), ternary_tables):
        for basis in (b, stack):
            for g in (*(gate_operator(basis, t) for t in tables), gate_operator(basis, tables)):
                rebuilt = Gate(basis, g.core)
                assert (rebuilt.arity, rebuilt.shape) == (g.arity, g.shape)
                factors = [rng.standard_normal((3, 2)) for _ in range(g.arity)]
                pairs = [(rebuilt.on_product(*factors), g.on_product(*factors)), (np.asarray(rebuilt), np.asarray(g))]
                if basis is b:  # @ takes the gates of one basis
                    v = rng.standard_normal((g.shape[-1], 2)) + 1j * rng.standard_normal((g.shape[-1], 2))
                    pairs.append((rebuilt @ v, g @ v))
                for got, want in pairs:
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_public_names_are_pinned():
    assert vlogic.__all__ == [
        "TruthBasis", "canonical_basis", "make_basis", "random_basis",
        "DiagnosisResult", "GateSignature", "classify", "enumerate_signatures", "probe",
        "C_of", "C_series", "IdentityReport", "LogicAlgebraContext", "S_of", "S_series",
        "logical_exp", "logical_exp_series", "make_context", "verify_euler_suite",
        "Gate", "gate_operator", "max_norm",
        "AND", "CID", "CNOT", "EQUI", "FALSE", "ID", "IMPL", "NAND", "NOR",
        "NOT", "OR", "TRUE", "XOR", "TruthTable", "evaluate",
        "SrnPair", "solve_srn_coefficients", "sqrt_not",
    ]
    assert all(hasattr(vlogic, name) for name in vlogic.__all__)
