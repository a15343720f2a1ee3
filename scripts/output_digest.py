#!/usr/bin/env python3
"""Digest the library's outputs, one sha256 per output family.

Usage: PYTHONPATH=src python scripts/output_digest.py

Prints one JSON object on one line, {family: sha256 hex digest}. Every
family is computed on fixed inputs, so two checkouts that print the same
digest for a family give bit-identical outputs there; comparing the line
of two commits shows which families a change moves. The families:

- verify: the `run_full_verification` report for Q in {2, 4, 16, 32, 64,
  1024} and seeds 1-3, as JSON;
- gates: the dense matrix (`np.asarray`) of every monadic and dyadic gate
  and of 20 ternary gates;
- signatures_dense: `probe` of the dense matrix of each of those gates;
- signatures_gate: `probe` of each of those gates as a matrix-free `Gate`,
  and the signatures and classes of `enumerate_signatures`, which read the
  gates in core space rather than through the Q^k probe vector that a dense
  oracle meets, so their last bits may differ;
- bases: the frames and duals of canonical and random bases;
- context: the dense I, N, A and B of contexts;
- closed_forms and series: `logical_exp`, `C_of`, `S_of` and their
  `*_series` oracles on lifts (`operators.lift`) of fixed cores;
- euler: the residuals and metadata of `verify_euler_suite` at the default
  samples and at v = (0.1, 2.5) with k = (0, 4), and `scalar_exp_residual`,
  on contexts;
- cli: the exit code and stdout of `vlogic.cli.main`, run in this process
  on each of those bases written to a temporary directory, for `sqrt-not`,
  `euler` with its defaults and with `--v 0.1,2.5 --k 0,4`, and `diagnose`
  of the NOT and AND oracles written by `op`: the payload bytes and pass
  flags a user sees.

Uses only the standard library and numpy.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from vlogic import canonical_basis, cli, diagnosis, matfun, operators, random_basis, scalar_logic, verify
from vlogic.serialize import basis_to_dict, dump_json

_BASES = [canonical_basis("DIM4"), *(random_basis(q, eps, seed) for q, eps, seed in ((8, 0.35, 3), (16, -0.9, 1)))]
# cores a I2 + b J whose eigenvalues a + b and a - b stay within the series' bound
_CORES = [np.array([[a, b], [b, a]]) for a, b in ((0.5, 0.25), (1j, -2.0), (3.1 + 0.2j, 1j * np.pi), (-7.5, 7.25j))]


class _Digest:
    def __init__(self):
        self.hash = hashlib.sha256()

    def add(self, value) -> None:
        if isinstance(value, np.ndarray):
            self.hash.update(f"{value.dtype.str}{value.shape}".encode())
            self.hash.update(np.ascontiguousarray(value).tobytes())
        else:
            self.hash.update(json.dumps(value, sort_keys=True).encode())


def _verify(d: _Digest) -> None:
    for q in (2, 4, 16, 32, 64, 1024):
        for seed in (1, 2, 3):
            d.add(verify.run_full_verification(q, seed))


def _gates():
    tables = [*scalar_logic.MONADIC_GATES.values(), *scalar_logic.ALL_DYADIC_TABLES]
    tables += list(scalar_logic.all_tables(3))[::13][:20]
    for b in _BASES[:2]:
        for t in tables:
            yield b, t, operators.gate_operator(b, t)


def _dense_gates(d: _Digest) -> None:
    for _, _, gate in _gates():
        d.add(np.asarray(gate))


def _gate_signatures(d: _Digest) -> None:
    for b, t, gate in _gates():
        d.add(dataclasses.astuple(diagnosis.probe(gate, b, t.arity)))
    for b in _BASES:
        for arity in (1, 2):
            signatures, classes = diagnosis.enumerate_signatures(b, scalar_logic.all_tables(arity))
            d.add([[name, *dataclasses.astuple(sig)] for name, sig in signatures.items()])
            d.add(classes)


def _dense_signatures(d: _Digest) -> None:
    for b, t, gate in _gates():
        d.add(dataclasses.astuple(diagnosis.probe(np.asarray(gate), b, t.arity)))


def _bases(d: _Digest) -> None:
    for b in (*_BASES, canonical_basis("SET1"), canonical_basis("SET2"), random_basis(1024, 0.5, 7)):
        d.add(b.frame)
        d.add(b.duals)


def _context(d: _Digest) -> None:
    for b in _BASES:
        ctx = matfun.make_context(b)
        for m in (ctx.I, ctx.N, ctx.A, ctx.B):
            d.add(m)


def _arguments():
    for b in _BASES:
        ctx = matfun.make_context(b)
        args = [operators.lift(b, core) for core in _CORES]
        yield ctx, [*args, np.stack(args)]


def _functions(d: _Digest, functions) -> None:
    for ctx, args in _arguments():
        for f in functions:
            for x in args:
                d.add(f(ctx, x))


def _euler(d: _Digest) -> None:
    for b in _BASES:
        ctx = matfun.make_context(b)
        for v, ks in ((matfun.EULER_V_SAMPLES, matfun.EULER_KS), ((0.1, 2.5), (0, 4))):
            report = matfun.verify_euler_suite(ctx, v, ks)
            d.add([report.residuals, report.metadata])
        d.add(matfun.scalar_exp_residual(ctx))


def _cli(d: _Digest) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        oracle = str(Path(tmp, "oracle.json"))
        for i, b in enumerate(_BASES):
            basis = str(Path(tmp, f"basis{i}.json"))
            dump_json(basis_to_dict(b), basis)
            runs = [["sqrt-not"], ["euler"], ["euler", "--v", "0.1,2.5", "--k", "0,4"]]
            for gate in ("NOT", "AND"):  # op prints nothing: it writes the oracle that diagnose reads
                runs += [["op", "--gate", gate, "--out", oracle], ["diagnose", "--oracle", oracle]]
            for argv in runs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main([*argv, "--basis", basis])
                d.add([code, out.getvalue()])


def main() -> int:
    families = {
        "verify": _verify,
        "gates": _dense_gates,
        "signatures_dense": _dense_signatures,
        "signatures_gate": _gate_signatures,
        "bases": _bases,
        "context": _context,
        "closed_forms": lambda d: _functions(d, (matfun.logical_exp, matfun.C_of, matfun.S_of)),
        "series": lambda d: _functions(d, (matfun.logical_exp_series, matfun.C_series, matfun.S_series)),
        "euler": _euler,
        "cli": _cli,
    }
    out = {}
    for name, compute in families.items():
        d = _Digest()
        compute(d)
        out[name] = d.hash.hexdigest()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
