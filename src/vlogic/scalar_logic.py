"""Logic gates as +1/-1 arithmetic: the scalar ground truth for the matrix operators.

Truth values are integers: true -> +1, false -> -1. Truth tables are the
canonical gate representation, of any arity (they cover all 16 dyadic
gates); the closed-form polynomials exist only for the named gates and are
kept as a redundant cross-check.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from numbers import Integral

from .errors import UnknownGate

TRUE = 1
FALSE = -1

_SYM = {TRUE: "T", FALSE: "F"}


def _check_truth(w: int) -> int:
    if isinstance(w, bool) or not isinstance(w, Integral) or w not in (TRUE, FALSE):
        raise ValueError(f"truth value must be the integer +1 or -1, got {w!r}")
    return w


@dataclass(frozen=True)
class TruthTable:
    """A k-ary gate as its 2^k outputs, one per input combination, in the
    order of itertools.product((TRUE, FALSE), repeat=k): (t, f) for k = 1,
    (t,t), (t,f), (f,t), (f,f) for k = 2."""

    name: str
    outputs: tuple[int, ...]

    def __post_init__(self):
        size = len(self.outputs)
        if size < 2 or size & (size - 1):
            raise ValueError(f"a truth table needs 2^k outputs with k >= 1, got {size}")
        for w in self.outputs:
            _check_truth(w)

    @cached_property
    def arity(self) -> int:
        # computed on first read and kept: not a field, so equality and hashing ignore it
        return len(self.outputs).bit_length() - 1

    @property
    def pattern(self) -> str:
        return "".join(_SYM[w] for w in self.outputs)


ID = TruthTable("ID", (TRUE, FALSE))
NOT = TruthTable("NOT", (FALSE, TRUE))
CID = TruthTable("CID", (TRUE, TRUE))
CNOT = TruthTable("CNOT", (FALSE, FALSE))

MONADIC_GATES = {t.name: t for t in (ID, NOT, CID, CNOT)}

IMPL = TruthTable("IMPL", (TRUE, FALSE, TRUE, TRUE))
OR = TruthTable("OR", (TRUE, TRUE, TRUE, FALSE))
AND = TruthTable("AND", (TRUE, FALSE, FALSE, FALSE))
EQUI = TruthTable("EQUI", (TRUE, FALSE, FALSE, TRUE))
XOR = TruthTable("XOR", (FALSE, TRUE, TRUE, FALSE))
# NAND and NOR are the entrywise negations of AND and OR.
NAND = TruthTable("NAND", tuple(-w for w in AND.outputs))
NOR = TruthTable("NOR", tuple(-w for w in OR.outputs))

NAMED_DYADIC_GATES = {t.name: t for t in (IMPL, OR, AND, EQUI, XOR, NAND, NOR)}

NAMED_GATES = {**MONADIC_GATES, **NAMED_DYADIC_GATES}

_NAMED_BY_PATTERN = {t.pattern: t for t in NAMED_GATES.values()}


def all_tables(arity: int) -> Iterator[TruthTable]:
    """All 2^(2^k) tables of arity k in order: named gates by name, the others by pattern."""
    for outs in product((TRUE, FALSE), repeat=2**arity):
        pattern = "".join(_SYM[w] for w in outs)
        yield _NAMED_BY_PATTERN.get(pattern) or TruthTable(pattern, outs)


ALL_DYADIC_TABLES: tuple[TruthTable, ...] = tuple(all_tables(2))


def evaluate(table: TruthTable, *inputs: int) -> int:
    """The table's output on one truth value per input."""
    if len(inputs) != table.arity:
        raise ValueError(f"{table.name} takes {table.arity} inputs, got {len(inputs)}")
    index = 0
    for w in inputs:
        index = 2 * index + (_check_truth(w) == FALSE)
    return table.outputs[index]


def gate(name: str) -> TruthTable:
    """Look up any named gate, case-insensitive."""
    try:
        return NAMED_GATES[name.upper()]
    except KeyError:
        raise UnknownGate(f"unknown gate {name!r}") from None


# Closed-form polynomials over {+1,-1}; redundant checks against the tables.

CLOSED_FORMS = {
    "ID": lambda w: w,
    "NOT": lambda w: -w,
    "CID": lambda w: w * w,
    "CNOT": lambda w: -(w * w),
    "IMPL": lambda u, v: (-u + v) // 2 + (1 - ((-u + v) // 2) ** 2) * u * v,
    "OR": lambda u, v: (u + v) // 2 - (1 - ((u + v) // 2) ** 2) * u * v,
    "AND": lambda u, v: (u + v) // 2 + (1 - ((u + v) // 2) ** 2) * u * v,
    "EQUI": lambda u, v: u * v,
    "XOR": lambda u, v: -u * v,
}
