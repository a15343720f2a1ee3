"""The +/-1 arithmetic of the gates: tables vs closed forms vs identities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vlogic import scalar_logic as sl

truth = st.sampled_from([sl.TRUE, sl.FALSE])


@pytest.mark.parametrize(
    "table,w,expected",
    [
        (sl.NOT, 1, -1),
        (sl.ID, -1, -1),
        (sl.CNOT, -1, -1),
        (sl.CID, -1, 1),
        (sl.CID, 1, 1),
    ],
)
def test_mon_eval(table, w, expected):
    assert sl.evaluate(table, w) == expected


@pytest.mark.parametrize(
    "table,u,v,expected",
    [
        (sl.AND, 1, -1, -1),
        (sl.XOR, 1, 1, -1),
        (sl.EQUI, -1, -1, 1),
        (sl.NAND, 1, 1, -1),
        (sl.NOR, -1, -1, 1),
        (sl.IMPL, 1, -1, -1),
    ],
)
def test_dyad_eval(table, u, v, expected):
    assert sl.evaluate(table, u, v) == expected


def test_truth_value_validation():
    with pytest.raises(ValueError):
        sl.evaluate(sl.ID, 0)
    with pytest.raises(ValueError):
        sl.evaluate(sl.AND, 1, 2)
    # one truth value per input
    with pytest.raises(ValueError):
        sl.evaluate(sl.AND, 1)
    with pytest.raises(ValueError):
        sl.evaluate(sl.ID, 1, 1)
    # a table needs 2^k outputs, each +1 or -1
    with pytest.raises(ValueError):
        sl.TruthTable("BAD", (1, -1, 1))
    with pytest.raises(ValueError):
        sl.TruthTable("BAD", (1, 0))


@pytest.mark.parametrize("bad", [True, False, 1.0, -1.0, np.True_, np.float64(-1.0)], ids=repr)
def test_truth_values_are_the_integers_plus_and_minus_one(bad):
    with pytest.raises(ValueError, match="integer"):
        sl.TruthTable("x", (bad, sl.FALSE))
    with pytest.raises(ValueError, match="integer"):
        sl.evaluate(sl.AND, bad, sl.TRUE)


def test_numpy_integers_are_truth_values():
    t = sl.TruthTable("x", (np.int64(1), np.int8(-1)))
    assert t.pattern == "TF" and sl.evaluate(sl.AND, np.int64(1), np.int32(-1)) == sl.FALSE


@pytest.mark.parametrize("name", [name for name in sl.CLOSED_FORMS if name in sl.MONADIC_GATES])
@pytest.mark.parametrize("w", [1, -1])
def test_monadic_closed_forms_match_tables(name, w):
    assert sl.CLOSED_FORMS[name](w) == sl.evaluate(sl.MONADIC_GATES[name], w)


@pytest.mark.parametrize("name", [name for name in sl.CLOSED_FORMS if name in sl.NAMED_DYADIC_GATES])
@pytest.mark.parametrize("u", [1, -1])
@pytest.mark.parametrize("v", [1, -1])
def test_dyadic_closed_forms_match_tables(name, u, v):
    assert sl.CLOSED_FORMS[name](u, v) == sl.evaluate(sl.NAMED_DYADIC_GATES[name], u, v)


@given(u=truth, v=truth)
def test_impl_is_or_of_negated_antecedent(u, v):
    assert sl.evaluate(sl.IMPL, u, v) == sl.evaluate(sl.OR, sl.evaluate(sl.NOT, u), v)


@given(u=truth, v=truth)
def test_de_morgan(u, v):
    lhs = sl.evaluate(sl.OR, u, v)
    rhs = sl.evaluate(
        sl.NOT, sl.evaluate(sl.AND, sl.evaluate(sl.NOT, u), sl.evaluate(sl.NOT, v))
    )
    assert lhs == rhs


@given(w=truth)
def test_constants_are_constant(w):
    assert sl.evaluate(sl.CID, w) == 1
    assert sl.evaluate(sl.CNOT, w) == -1


def test_nand_nor_are_negated_and_or():
    for u in (1, -1):
        for v in (1, -1):
            assert sl.evaluate(sl.NAND, u, v) == -sl.evaluate(sl.AND, u, v)
            assert sl.evaluate(sl.NOR, u, v) == -sl.evaluate(sl.OR, u, v)


def test_sixteen_distinct_tables():
    assert len(sl.ALL_DYADIC_TABLES) == 16
    assert {t.arity for t in sl.ALL_DYADIC_TABLES} == {2}
    assert {t.arity for t in sl.MONADIC_GATES.values()} == {1}
    assert len({t.pattern for t in sl.ALL_DYADIC_TABLES}) == 16
    # the named gates appear under their names
    names = {t.name for t in sl.ALL_DYADIC_TABLES}
    assert set(sl.NAMED_DYADIC_GATES) <= names


def test_gate_lookup_case_insensitive():
    assert sl.gate("nand") is sl.NAND
    assert sl.gate("Id") is sl.ID
    with pytest.raises(sl.UnknownGate):
        sl.gate("XNOR3")


def test_arity_is_kept_and_leaves_equality_and_hashing_alone():
    t = sl.TruthTable("X", (sl.TRUE, sl.FALSE, sl.FALSE, sl.TRUE))
    assert "arity" not in vars(t)
    assert t.arity == 2 and vars(t)["arity"] == 2
    fresh = sl.TruthTable("X", t.outputs)  # no arity read yet
    assert t == fresh and hash(t) == hash(fresh)
    assert {fresh: "found"}[t] == "found"
    assert t != sl.TruthTable("Y", t.outputs) and t != sl.TruthTable("X", (sl.TRUE, sl.FALSE))
