from itertools import product

import pytest

from vlogic import FALSE, TRUE, TruthTable, canonical_basis


@pytest.fixture
def set1():
    return canonical_basis("SET1")


@pytest.fixture
def set2():
    return canonical_basis("SET2")


@pytest.fixture
def dim4():
    return canonical_basis("DIM4")


@pytest.fixture(scope="session")
def ternary_tables():
    """All 256 ternary truth tables, each named by its pattern."""
    return [
        TruthTable("".join("T" if w == TRUE else "F" for w in outs), outs)
        for outs in product((TRUE, FALSE), repeat=8)
    ]
