import cmath

import numpy as np
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


def eigenvalues(m) -> list[complex]:
    """Eigenvalues with multiplicity, sorted by (|lambda| desc, arg asc): a
    deterministic order for comparing spectra (`from conftest import
    eigenvalues`)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    vals = np.linalg.eigvals(m)
    # round inside the key so ties are not broken by last-bit noise
    return sorted(
        (complex(v) for v in vals),
        key=lambda v: (-round(abs(v), 12), round(cmath.phase(v), 12)),
    )
