"""JSON formats for matrices and bases.

Matrix: {"rows": r, "cols": c, "re": [[..]], "im": [[..]]} row-major;
"im" is omitted when identically zero. Complex numbers are never strings.

Basis: {"dim": Q, "s": [..], "n": [..], "epsilon": eps, "y": [..], "z": [..]};
only s and n are read on load, the rest is recomputed, never trusted from
the file. A loaded number must be a finite float64: no NaN, Infinity or 1e999.
"""

from __future__ import annotations

import json
from math import isfinite

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


def matrix_from_dict(d: dict) -> np.ndarray:
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        re = np.array(d["re"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise VectorLogicError(f"bad matrix JSON: {exc}") from exc
    if re.shape != (rows, cols):
        raise VectorLogicError(f"matrix JSON says {rows}x{cols} but re has shape {re.shape}")
    if "im" in d:
        im = np.array(d["im"], dtype=float)
        if im.shape != (rows, cols):
            raise VectorLogicError(f"matrix JSON says {rows}x{cols} but im has shape {im.shape}")
        return re + 1j * im
    return re


def basis_to_dict(b: TruthBasis) -> dict:
    return {
        "dim": b.dim, "s": b.s.tolist(), "n": b.n.tolist(),
        "epsilon": b.epsilon, "y": b.y.tolist(), "z": b.z.tolist(),
    }


def basis_from_dict(d: dict) -> TruthBasis:
    try:
        s, n = d["s"], d["n"]
    except (KeyError, TypeError) as exc:
        raise VectorLogicError(f"bad basis JSON: {exc}") from exc
    return make_basis(s, n)


def _finite(token: str) -> float:
    value = float(token)  # NaN and Infinity arrive as constants, 1e999 as inf
    if not isfinite(value):
        raise VectorLogicError(f"number {token} in JSON is not a finite float64")
    return value


def load_json(path: str) -> dict:
    """The file's JSON with every number, integers included, as a finite float."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_finite, parse_float=_finite, parse_int=_finite)


def dump_json(obj, path: str | None = None):
    text = json.dumps(obj, indent=2, allow_nan=False)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
