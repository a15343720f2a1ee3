"""Stacks of bases: a leading basis axis through the frame layer and the per-basis checks."""

import itertools

import numpy as np
import pytest

import vlogic.srn
import vlogic.verify
from vlogic import Gate, TruthBasis, enumerate_signatures, gate_operator, make_basis, make_context, probe, random_basis
from vlogic import scalar_logic as sl
from vlogic.errors import DimensionMismatch, NearlyDependent, NotUnitNorm, VectorLogicError
from vlogic.serialize import basis_from_dict, basis_to_dict
from vlogic.verify import (
    basis_residuals,
    run_full_verification,
    tautology_residuals,
    truth_table_residuals,
)

from test_verify import substituting

EPSILONS = (0.0, 0.35, -0.9)


def stack_of(bases):
    return make_basis(np.array([b.s for b in bases]), np.array([b.n for b in bases]))


def members(q):
    return [random_basis(q, eps, seed) for seed, eps in enumerate(EPSILONS, start=q)]


def srn_report(b):
    return vlogic.srn.identity_report(vlogic.srn.factored_roots(b), b)


SECTIONS = (basis_residuals, truth_table_residuals, tautology_residuals, srn_report)


@pytest.mark.parametrize("q", [2, 5, 64])
def test_stack_holds_its_members_bit_for_bit(q):
    bases = members(q)
    stack = stack_of(bases)
    assert isinstance(stack, TruthBasis)
    assert stack.frame.shape == (3, q, 2) and stack.duals.shape == (3, 2, q) and stack.dim == q
    assert stack.gram.shape == (3, 2, 2)
    assert not (stack.frame.flags.writeable or stack.duals.flags.writeable or stack.gram.flags.writeable)
    assert stack.epsilon == [b.epsilon for b in bases]
    for i, b in enumerate(bases):
        assert stack.frame[i].tobytes() == b.frame.tobytes()
        assert stack.duals[i].tobytes() == b.duals.tobytes()
        assert stack.gram[i].tobytes() == b.gram.tobytes()
        for name in ("s", "n", "y", "z"):
            assert getattr(stack, name)[i].tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("section", SECTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("q", [2, 5, 64])
def test_each_section_on_a_stack_is_the_list_of_its_members(q, section):
    # one dict per member, equal to the member's own, and a stack of one is a list of one
    bases = members(q)
    singles = [section(b) for b in bases]
    assert all(isinstance(r, dict) for r in singles)
    assert section(stack_of(bases)) == singles
    assert section(stack_of(bases[1:])) == singles[1:]
    assert section(stack_of(bases[:1])) == singles[:1]
    assert all(r < vlogic.verify.RESIDUAL_TOL for r in itertools.chain(*(s.values() for s in singles)))


@pytest.mark.parametrize("q", [2, 5])
def test_stacked_gate_operator_is_its_members_gates(q, ternary_tables):
    bases = members(q)
    stack = stack_of(bases)
    rng = np.random.default_rng(q)
    for tables in (sl.NOT, sl.AND, list(sl.MONADIC_GATES.values()), list(sl.ALL_DYADIC_TABLES), ternary_tables[:5]):
        stacked = gate_operator(stack, tables)
        gates = [gate_operator(b, tables) for b in bases]
        k = gates[0].arity
        assert isinstance(stacked, Gate) and stacked.arity == k
        assert stacked.shape == (3, *gates[0].shape)
        assert stacked.outputs.tobytes() == np.stack([g.outputs for g in gates]).tobytes()
        np.testing.assert_array_equal(np.asarray(stacked), np.stack([np.asarray(g) for g in gates]))
        # per-member factors (B, Q, m) and shared ones (Q, m), real and complex
        own = [rng.standard_normal((3, q, 2)) + 1j * rng.standard_normal((3, q, 2)) for _ in range(k)]
        shared = [rng.standard_normal((q, 3)) for _ in range(k)]
        out = stacked.on_product(*own)
        for i, g in enumerate(gates):
            assert out[i].tobytes() == g.on_product(*[f[i] for f in own]).tobytes()
        out = stacked.on_product(*shared)
        for i, g in enumerate(gates):
            assert out[i].tobytes() == g.on_product(*shared).tobytes()


def test_stacks_of_mixed_dims_or_no_member_are_refused():
    b4, b5 = random_basis(4, 0.0, 1), random_basis(5, 0.0, 1)
    for s, n in (
        ([b4.s, b5.s], [b4.n, b5.n]),  # ragged
        (np.empty((0, 4)), np.empty((0, 4))),  # empty
        ([b4.s, b4.s], [b4.n]),  # one n short
        (np.ones((2, 2, 4)), np.ones((2, 2, 4))),  # no stack of stacks
    ):
        with pytest.raises(DimensionMismatch):
            make_basis(s, n)
    # each member is checked as a single basis is
    with pytest.raises(NotUnitNorm, match=r"\|n\| = 2\.0"):
        make_basis([[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 2.0]])
    with pytest.raises(NearlyDependent):
        make_basis([b4.s, b4.s], [b4.n, b4.s])
    # a core is (..., 2, 2^k) over a stack too, and factors carry its members
    stack = make_basis([b4.s, b4.s], [b4.n, b4.n])
    frame, eye = stack.frame, np.eye(2)
    for core in (eye[:, [0, 1, 0]], eye[:, [0]], np.eye(3, 2), eye[0]):
        with pytest.raises(DimensionMismatch, match=r"\(\.\.\., 2, 2\^k\)"):
            Gate(stack, core)
    gate = gate_operator(stack, sl.AND)
    for factors in ((frame[:1], frame), (np.ones((3, 4, 2)), frame), (np.ones((2, 5, 2)), frame)):
        with pytest.raises(DimensionMismatch):
            gate.on_product(*factors)


def test_the_one_basis_paths_refuse_a_stack_with_a_typed_error():
    # `@`, `probe` and `make_context` take one basis; over a stack each
    # raises a typed error (a context's bound K over a stack means nothing)
    b4 = random_basis(4, 0.0, 1)
    stack = stack_of([b4, random_basis(4, 0.35, 2)])
    for table, width in ((sl.NOT, 4), (sl.AND, 16)):
        with pytest.raises(DimensionMismatch, match="on_product"):
            gate_operator(stack, table) @ np.ones(width)
    for oracle in (gate_operator(b4, sl.AND), np.asarray(gate_operator(b4, sl.AND))):
        with pytest.raises(DimensionMismatch, match="one basis"):
            probe(oracle, stack, 2)
    with pytest.raises(DimensionMismatch, match=r"make_context takes one basis, not a stack of frames \(2, 4, 2\)"):
        make_context(stack)


def test_enumerate_signatures_refuses_a_stack_with_a_typed_error():
    # the rule names itself, not the factor shapes of the gate it builds
    stack = stack_of([random_basis(4, 0.0, 1), random_basis(4, 0.35, 2)])
    message = r"enumerate_signatures takes one basis, not a stack of frames \(2, 4, 2\)"
    for tables in ([sl.AND, sl.OR], [sl.NOT], []):
        with pytest.raises(DimensionMismatch, match=message):
            enumerate_signatures(stack, tables)


def test_a_basis_file_holds_one_basis():
    b = random_basis(4, 0.0, 1)
    d = basis_to_dict(b)
    with pytest.raises(VectorLogicError, match="must be vectors"):
        basis_from_dict(dict(d, s=[d["s"]] * 2, n=[d["n"]] * 2))
    assert basis_from_dict(d).frame.tobytes() == b.frame.tobytes()


def test_an_injected_gate_fails_in_every_member(monkeypatch):
    stack = stack_of(members(5))
    monkeypatch.setattr(vlogic.verify, "gate_operator", substituting("IMPL", sl.OR.outputs))
    for report in truth_table_residuals(stack):
        assert report["dyadic_IMPL"] >= 0.5
        assert all(r < vlogic.verify.RESIDUAL_TOL for name, r in report.items() if name != "dyadic_IMPL")
    for report in tautology_residuals(stack):
        assert report["L_minus_D_NxI"] >= 0.3


def test_full_verification_runs_each_per_basis_section_once(monkeypatch):
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            basis = args[-1]
            calls.append((name, basis.frame.shape))
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("basis_residuals", "truth_table_residuals", "tautology_residuals"):
        counted(vlogic.verify, name)
    for name in ("factored_roots", "identity_report"):
        counted(vlogic.srn, name)
    report = run_full_verification(dim=8, seed=3)
    assert report["pass"]
    per_basis = ("basis_residuals", "truth_table_residuals", "tautology_residuals", "factored_roots", "identity_report")
    assert sorted(calls) == sorted((name, (2, 8, 2)) for name in per_basis)
    # and the stack's members are the run's two random bases
    b0, b_eps = random_basis(8, 0.0, 3), random_basis(8, 0.35, 4)
    sections = report["sections"]
    assert sections["basis_orthonormal"]["residuals"] == basis_residuals(b0)
    assert sections["truth_tables_nonorthogonal"]["residuals"] == truth_table_residuals(b_eps)
    assert sections["tautologies"]["residuals"] == tautology_residuals(b0)
    assert sections["srn_nonorthogonal"]["residuals"] == srn_report(b_eps)
