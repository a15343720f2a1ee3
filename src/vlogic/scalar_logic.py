"""Logic gates as +1/-1 arithmetic: the scalar ground truth for the matrix operators.

Truth values are integers: true -> +1, false -> -1. Truth tables are the
canonical gate representation (they cover all 16 dyadic gates); the
closed-form polynomials exist only for the named gates and are kept as a
redundant cross-check.
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
class MonadicTable:
    """One of the four monadic gates, as outputs on inputs t and f."""

    name: str
    out_t: int
    out_f: int

    def __post_init__(self):
        _check_truth(self.out_t)
        _check_truth(self.out_f)

    @property
    def pattern(self) -> str:
        return _SYM[self.out_t] + _SYM[self.out_f]


@dataclass(frozen=True)
class DyadicTable:
    """A dyadic gate as outputs on inputs (t,t), (t,f), (f,t), (f,f)."""

    name: str
    out_tt: int
    out_tf: int
    out_ft: int
    out_ff: int

    def __post_init__(self):
        for w in self.outputs:
            _check_truth(w)

    @property
    def outputs(self) -> tuple[int, int, int, int]:
        return (self.out_tt, self.out_tf, self.out_ft, self.out_ff)

    @property
    def pattern(self) -> str:
        return "".join(_SYM[w] for w in self.outputs)


ID = MonadicTable("ID", TRUE, FALSE)
NOT = MonadicTable("NOT", FALSE, TRUE)
CID = MonadicTable("CID", TRUE, TRUE)
CNOT = MonadicTable("CNOT", FALSE, FALSE)

MONADIC_GATES = {t.name: t for t in (ID, NOT, CID, CNOT)}

IMPL = DyadicTable("IMPL", TRUE, FALSE, TRUE, TRUE)
OR = DyadicTable("OR", TRUE, TRUE, TRUE, FALSE)
AND = DyadicTable("AND", TRUE, FALSE, FALSE, FALSE)
EQUI = DyadicTable("EQUI", TRUE, FALSE, FALSE, TRUE)
XOR = DyadicTable("XOR", FALSE, TRUE, TRUE, FALSE)
# NAND and NOR are the entrywise negations of AND and OR.
NAND = DyadicTable("NAND", *(-w for w in AND.outputs))
NOR = DyadicTable("NOR", *(-w for w in OR.outputs))

NAMED_DYADIC_GATES = {t.name: t for t in (IMPL, OR, AND, EQUI, XOR, NAND, NOR)}

_NAMED_BY_PATTERN = {t.pattern: t for t in NAMED_DYADIC_GATES.values()}

ALL_DYADIC_TABLES: tuple[DyadicTable, ...] = tuple(
    _NAMED_BY_PATTERN.get(
        "".join(_SYM[w] for w in outs),
        DyadicTable("".join(_SYM[w] for w in outs), *outs),
    )
    for outs in product((TRUE, FALSE), repeat=4)
)


def mon_eval(table: MonadicTable, w: int) -> int:
    _check_truth(w)
    return table.out_t if w == TRUE else table.out_f


def dyad_eval(table: DyadicTable, u: int, v: int) -> int:
    _check_truth(u)
    _check_truth(v)
    idx = (0 if u == TRUE else 2) + (0 if v == TRUE else 1)
    return table.outputs[idx]


def gate(name: str) -> MonadicTable | DyadicTable:
    """Look up any named gate, case-insensitive."""
    key = name.upper()
    if key in MONADIC_GATES:
        return MONADIC_GATES[key]
    if key in NAMED_DYADIC_GATES:
        return NAMED_DYADIC_GATES[key]
    raise UnknownGate(f"unknown gate {name!r}")


# Closed-form polynomials over {+1,-1}; redundant checks against the tables.

MONADIC_CLOSED_FORMS = {
    "ID": lambda w: w,
    "NOT": lambda w: -w,
    "CID": lambda w: w * w,
    "CNOT": lambda w: -(w * w),
}

DYADIC_CLOSED_FORMS = {
    "IMPL": lambda u, v: (-u + v) // 2 + (1 - ((-u + v) // 2) ** 2) * u * v,
    "OR": lambda u, v: (u + v) // 2 - (1 - ((u + v) // 2) ** 2) * u * v,
    "AND": lambda u, v: (u + v) // 2 + (1 - ((u + v) // 2) ** 2) * u * v,
    "EQUI": lambda u, v: u * v,
    "XOR": lambda u, v: -u * v,
}
