"""Logic gates as +1/-1 arithmetic: the scalar ground truth for the matrix operators.

Truth values are integers: true -> +1, false -> -1. Truth tables are the
canonical gate representation, of any arity (they cover all 16 dyadic
gates); the closed-form polynomials exist only for the named gates and are
kept as a redundant cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import UnknownGate

TRUE = 1
FALSE = -1

_SYM = {TRUE: "T", FALSE: "F"}


def _check_truth(w: int) -> int:
    if w not in (TRUE, FALSE):
        raise ValueError(f"truth value must be +1 or -1, got {w!r}")
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

    @property
    def arity(self) -> int:
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

_NAMED_BY_PATTERN = {t.pattern: t for t in NAMED_DYADIC_GATES.values()}

ALL_DYADIC_TABLES: tuple[TruthTable, ...] = tuple(
    _NAMED_BY_PATTERN.get(
        "".join(_SYM[w] for w in outs),
        TruthTable("".join(_SYM[w] for w in outs), outs),
    )
    for outs in product((TRUE, FALSE), repeat=4)
)


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
    key = name.upper()
    if key in MONADIC_GATES:
        return MONADIC_GATES[key]
    if key in NAMED_DYADIC_GATES:
        return NAMED_DYADIC_GATES[key]
    raise UnknownGate(f"unknown gate {name!r}")


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
