import pytest

from vlogic import canonical_basis
from vlogic.scalar_logic import all_tables


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
    return list(all_tables(3))
