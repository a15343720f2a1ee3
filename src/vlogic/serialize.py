"""JSON formats for matrices and bases.

Matrix: {"rows": r, "cols": c, "re": [[..]], "im": [[..]]} row-major;
"im" is omitted when identically zero. Complex numbers are never strings.

Basis: {"dim": Q, "s": [..], "n": [..], "epsilon": eps, "y": [..], "z": [..]};
only s and n are read on load, the rest is recomputed, never trusted from
the file. A loaded number must be a finite float64: no NaN, Infinity or 1e999.
Every matrix and basis entry must be a number: no null, true or "1.5".
Files are written as compact JSON and read by json's C code: no per-number
Python hook; the readers check each array once.
"""

from __future__ import annotations

import json
from math import isfinite
from numbers import Integral, Real

import numpy as np

from .basis import TruthBasis, make_basis
from .errors import VectorLogicError


def matrix_to_dict(m) -> dict:
    m = np.asarray(m)
    if m.ndim != 2:
        raise VectorLogicError(f"expected a 2-D matrix, got ndim {m.ndim}")
    out = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": np.real(m).tolist(),
    }
    im = np.imag(m)
    if np.any(im != 0):
        out["im"] = im.tolist()
    return out


def _size(value) -> int:
    # json reads 4 as an int and 4.0 as a float: both are a size; 2.7 and true are not
    if isinstance(value, bool) or not isinstance(value, Real) or not (
        isinstance(value, Integral) or float(value).is_integer()
    ):
        raise ValueError(f"a matrix size must be a whole number, got {value!r}")
    return int(value)


class _NotFinite(ValueError):
    """An entry beyond float64, which json reads as inf (1e999)."""


def _numbers(value) -> np.ndarray:
    # np.array(dtype=float) alone reads null as NaN, true as 1.0 and "1.5" as 1.5
    entries = np.array(value, dtype=object).ravel()
    for kind in set(map(type, entries)):
        if kind is bool or not issubclass(kind, Real):
            entry = next(x for x in entries if type(x) is kind)
            raise ValueError(f"entries must be numbers, got {json.dumps(entry, default=repr)}")
    try:
        out = np.array(value, dtype=float)
    except OverflowError:  # an int beyond float64: the entry of largest size
        raise ValueError(f"number {max(entries, key=abs)} is not a finite float64") from None
    if not np.isfinite(out).all():
        raise _NotFinite("entries must be finite float64 numbers")
    return out


def matrix_from_dict(d: dict) -> np.ndarray:
    try:
        rows, cols = _size(d["rows"]), _size(d["cols"])
        parts = {key: _numbers(d[key]) for key in ("re", "im") if key in d}
        re = parts["re"]
    except (KeyError, TypeError, ValueError) as exc:
        raise VectorLogicError(f"bad matrix JSON: {exc}") from exc
    for key, part in parts.items():
        if part.shape != (rows, cols):
            raise VectorLogicError(f"matrix JSON says {rows}x{cols} but {key} has shape {part.shape}")
    return re + 1j * parts["im"] if "im" in parts else re


def basis_to_dict(b: TruthBasis) -> dict:
    return {
        "dim": b.dim, "s": b.s.tolist(), "n": b.n.tolist(),
        "epsilon": b.epsilon, "y": b.y.tolist(), "z": b.z.tolist(),
    }


def basis_from_dict(d: dict) -> TruthBasis:
    try:
        s, n = _numbers(d["s"]), _numbers(d["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise VectorLogicError(f"bad basis JSON: {exc}") from exc
    if s.ndim != 1 or n.ndim != 1:  # a file holds one basis, never a stack
        raise VectorLogicError(f"bad basis JSON: s and n must be vectors, got shapes {s.shape} and {n.shape}")
    return make_basis(s, n)


def _finite(token: str) -> float:
    value = float(token)  # NaN and Infinity arrive as constants, 1e999 as inf
    if not isfinite(value):
        raise VectorLogicError(f"number {token} in JSON is not a finite float64")
    return value


def load_json(path: str):
    """The file's JSON as json's C decoder reads it: 4 is an int, 4.0 a
    float. NaN and Infinity are refused here; a number beyond float64 is
    refused by `matrix_from_dict` and `basis_from_dict`."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_finite)


def _load(path: str, from_dict):
    """from_dict(load_json(path)), naming a number beyond float64 as the file spells it."""
    try:
        return from_dict(load_json(path))
    except VectorLogicError as exc:
        if isinstance(exc.__cause__, _NotFinite):  # rare: read again, number by number, to name it
            with open(path) as fh:
                json.load(fh, parse_float=_finite)
        raise


def dump_json(obj, path: str | None = None):
    text = json.dumps(obj, allow_nan=False, separators=(",", ":"))
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
