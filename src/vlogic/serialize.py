"""JSON formats for matrices and bases.

Matrix: {"rows": r, "cols": c, "re": [[..]], "im": [[..]]} row-major;
"im" is omitted when identically zero. Complex numbers are never strings.

Basis: {"dim": Q, "s": [..], "n": [..]}; the duals are recomputed on load
and never trusted from the file.
"""

from __future__ import annotations

import json

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


def basis_to_dict(b: TruthBasis, include_duals: bool = False) -> dict:
    out = {"dim": b.dim, "s": b.s.tolist(), "n": b.n.tolist()}
    if include_duals:
        out.update({"epsilon": b.epsilon, "y": b.y.tolist(), "z": b.z.tolist()})
    return out


def basis_from_dict(d: dict) -> TruthBasis:
    try:
        s, n = d["s"], d["n"]
    except (KeyError, TypeError) as exc:
        raise VectorLogicError(f"bad basis JSON: {exc}") from exc
    return make_basis(s, n)


def _reject_constant(token: str):
    raise VectorLogicError(f"non-finite number {token} in JSON")


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def dump_json(obj, path: str | None = None):
    text = json.dumps(obj, indent=2, allow_nan=False)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
