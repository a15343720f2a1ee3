"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated.
"""

import json
import math
import time

import numpy as np
import pytest

from vlogic import scalar_logic as sl
from vlogic import (
    C_of,
    S_of,
    canonical_basis,
    classify,
    enumerate_signatures,
    gate_operator,
    logical_exp,
    make_context,
    max_norm,
    probe,
    random_basis,
    sqrt_not,
    verify_euler_suite,
)
from vlogic.cli import main
from vlogic.diagnosis import symbolic_signature
from vlogic.matfun import scalar_exp_series
from vlogic.srn import identity_report
from vlogic.serialize import dump_json, load_json

from conftest import eigenvalues


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _basis_sweep(count=200):
    rng = np.random.default_rng(2024)
    out = []
    for i in range(count):
        dim = int(rng.integers(2, 65))
        eps = float(rng.uniform(-0.5, 0.9))
        out.append(random_basis(dim, eps, seed=i))
    return out


def test_criterion_1_worked_example_fidelity():
    t0 = time.time()
    tol = 1e-12
    set1, set2, dim4 = canonical_basis("SET1"), canonical_basis("SET2"), canonical_basis("DIM4")
    r = 1 / np.sqrt(2)
    checks = [
        max_norm(np.asarray(gate_operator(set1, sl.ID)) - np.eye(2)),
        max_norm(np.asarray(gate_operator(set1, sl.NOT)) - np.array([[0, 1], [1, 0]])),
        max_norm(np.asarray(gate_operator(set2, sl.ID)) - np.eye(2)),
        max_norm(np.asarray(gate_operator(set2, sl.NOT)) - np.array([[1, 0], [0, -1]])),
        max_norm(np.asarray(gate_operator(set1, sl.IMPL)) - np.array([[1, 0, 1, 1], [0, 1, 0, 0]])),
        max_norm(np.asarray(gate_operator(set1, sl.OR)) - np.array([[1, 1, 1, 0], [0, 0, 0, 1]])),
        max_norm(np.asarray(gate_operator(set2, sl.IMPL)) - r * np.array([[2, 0, 0, 0], [1, 1, -1, 1]])),
        max_norm(np.asarray(gate_operator(set2, sl.OR)) - r * np.array([[2, 0, 0, 0], [1, 1, 1, -1]])),
        max_norm(
            np.kron(np.array([[1, 0], [2, -1]]), np.array([[1, -1, 4], [3, 1, 0]]))
            - np.array(
                [
                    [1, -1, 4, 0, 0, 0],
                    [3, 1, 0, 0, 0, 0],
                    [2, -2, 8, -1, 1, -4],
                    [6, 2, 0, -3, -1, 0],
                ]
            )
        ),
        max_norm(
            np.asarray(gate_operator(dim4, sl.ID))
            - 0.5 * np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]])
        ),
        max_norm(
            np.asarray(gate_operator(dim4, sl.NOT))
            - 0.5 * np.array([[1, 0, 0, 1], [0, -1, -1, 0], [0, -1, -1, 0], [1, 0, 0, 1]])
        ),
        max_norm(
            sqrt_not(dim4).A
            - 0.5 * np.array([[1, 0, 0, 1], [0, 1j, 1j, 0], [0, 1j, 1j, 0], [1, 0, 0, 1]])
        ),
        max_norm(
            sqrt_not(dim4).B
            - 0.5 * np.array([[1, 0, 0, 1], [0, -1j, -1j, 0], [0, -1j, -1j, 0], [1, 0, 0, 1]])
        ),
    ]
    elapsed = time.time() - t0
    worst = max(checks)
    report(1, worst < tol and elapsed < 1.0, f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_srn_algebra():
    t0 = time.time()
    tol = 1e-10
    worst = worst_dense = 0.0
    for basis in _basis_sweep(200):
        pair = sqrt_not(basis)
        worst = max(worst, *identity_report(pair, basis).values())
        # the dense oracle of the report's check on the frame
        a, b = pair.A, pair.B
        i_op, n_op = np.asarray(gate_operator(basis, sl.ID)), np.asarray(gate_operator(basis, sl.NOT))
        dense = (a @ a - n_op, b @ b - n_op, a @ b - i_op, b @ a - i_op, b - n_op @ a, a - n_op @ b)
        worst_dense = max(worst_dense, *map(max_norm, dense))
    pair = sqrt_not(canonical_basis("DIM4"))
    eig_err = max(
        max_norm(np.array(eigenvalues(pair.A)) - np.array([1, 1j, 0, 0])),
        max_norm(np.array(eigenvalues(pair.B)) - np.array([-1j, 1, 0, 0])),
    )
    elapsed = time.time() - t0
    ok = worst < tol and worst_dense < tol and eig_err < tol and elapsed < 30
    report(2, ok, f"worst residual {worst:.2e} (dense {worst_dense:.2e}), eig err {eig_err:.2e}, {elapsed:.1f}s")


def _times_kron(m, left, right):
    """m (left (x) right) for a dense Q x Q^2 matrix m, without the Q^2 x Q^2
    Kronecker matrix: column a*Q + b of m is entry [:, a, b] of m reshaped
    to Q x Q x Q, and each factor contracts one of the last two axes."""
    q = left.shape[0]
    t = np.swapaxes(np.swapaxes(m.reshape(-1, q, q), 1, 2) @ left, 1, 2)
    return (t @ right).reshape(m.shape[0], q * q)


def test_criterion_3_tautologies():
    tol = 1e-10
    worst = 0.0
    for b in _basis_sweep(200):
        i_op, n_op = np.asarray(gate_operator(b, sl.ID)), np.asarray(gate_operator(b, sl.NOT))
        l = np.asarray(gate_operator(b, sl.IMPL))
        d = np.asarray(gate_operator(b, sl.OR))
        c = np.asarray(gate_operator(b, sl.AND))
        worst = max(
            worst,
            max_norm(l - _times_kron(d, n_op, i_op)),
            max_norm(d - n_op @ _times_kron(c, n_op, n_op)),
        )
    report(3, worst < tol, f"worst residual {worst:.2e}")


def test_times_kron_matches_np_kron():
    rng = np.random.default_rng(3)
    m, left, right = rng.normal(size=(5, 25)), rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
    assert max_norm(_times_kron(m, left, right) - m @ np.kron(left, right)) < 1e-12


def test_criterion_4_truth_table_cross_validation():
    tol = 1e-10
    worst = 0.0
    for b in [canonical_basis(n) for n in ("SET1", "SET2", "DIM4")] + [
        random_basis(8, 0.0, 1),
        random_basis(8, 0.4, 2),
        random_basis(16, -0.3, 3),
    ]:
        vec = {1: b.s, -1: b.n}
        for table in sl.MONADIC_GATES.values():
            u = gate_operator(b, table)
            for w in (1, -1):
                worst = max(worst, max_norm(u @ vec[w] - vec[sl.evaluate(table, w)]))
        for table in sl.ALL_DYADIC_TABLES:
            t = gate_operator(b, table)
            for u_ in (1, -1):
                for v_ in (1, -1):
                    out = t @ np.kron(vec[u_], vec[v_])
                    worst = max(worst, max_norm(out - vec[sl.evaluate(table, u_, v_)]))
    report(4, worst < tol, f"worst residual {worst:.2e}")


def test_criterion_5_diagnosis():
    tol = 1e-10
    worst = 0.0
    ok = True
    for dim in (2, 4, 8, 16, 32):
        for seed in range(20):
            b = random_basis(dim, 0.0, seed)
            for name, table in sl.MONADIC_GATES.items():
                res = classify(probe(gate_operator(b, table), b, 1), 1)
                ok = ok and res.verdict == name
                worst = max(worst, res.distance)
            for name, table in sl.NAMED_DYADIC_GATES.items():
                res = classify(probe(gate_operator(b, table), b, 2), 2)
                ok = ok and res.verdict == name
                worst = max(worst, res.distance)
    signatures, classes = enumerate_signatures(canonical_basis("DIM4"), sl.ALL_DYADIC_TABLES)
    named = set(sl.NAMED_DYADIC_GATES)
    named_distinct = all(len([g for g in cls if g in named]) <= 1 for cls in classes)
    collision = any(len(cls) >= 2 for cls in classes)
    tttt_xor = any("TTTT" in cls and "XOR" in cls for cls in classes)
    oracle_ok = all(
        max(
            abs(c - e)
            for c, e in zip(signatures[t.name].coefficients, symbolic_signature(t))
        )
        < tol
        for t in sl.ALL_DYADIC_TABLES
    )
    ok = ok and worst < tol and named_distinct and collision and tttt_xor and oracle_ok
    report(
        5,
        ok,
        f"worst distance {worst:.2e}, named distinct {named_distinct}, "
        f"constant-true/XOR collision {tttt_xor}",
    )


def test_criterion_6_euler_suite():
    t0 = time.time()
    tol = 1e-8
    v_samples = [0.0, 0.25, 0.5, 1.0, 1.5, -0.75]
    worst = 0.0
    bases = [canonical_basis(n) for n in ("SET1", "SET2", "DIM4")] + [
        random_basis([2, 4, 8, 16][i % 4], 0.0, seed=40 + i) for i in range(10)
    ]
    for b in bases:
        rep = verify_euler_suite(make_context(b), v_samples, ks=(2, 3, 5), tol=tol)
        worst = max(worst, max(rep.residuals.values()))
    elapsed = time.time() - t0
    report(6, worst < tol and elapsed < 10, f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_7_scalar_oracle_equivalence():
    tol = 1e-10
    ctx = make_context(canonical_basis("DIM4"))
    worst = 0.0
    for v in (0.0, 0.25, 0.5, 1.0, 1.5, -0.75):
        mat = logical_exp(ctx, ctx.A @ ctx.Pi * v)
        worst = max(worst, max_norm(mat - scalar_exp_series(1j * math.pi * v) * ctx.I))
    report(7, worst < tol, f"worst residual {worst:.2e}")


def test_criterion_8_cli_contract(tmp_path, capsys):
    code = main(["verify", "--dim", "4", "--seed", "1"])
    capsys.readouterr()
    verify_ok = code == 0

    basis_file = tmp_path / "set1.json"
    oracle_file = tmp_path / "oracle.json"
    main(["basis", "--canonical", "SET1", "--out", str(basis_file)])
    main(["op", "--basis", str(basis_file), "--gate", "AND", "--out", str(oracle_file)])
    doc = load_json(str(oracle_file))
    doc["re"][0][0] += 0.2  # corrupt one entry
    dump_json(doc, str(oracle_file))
    code = main(["diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file)])
    out = capsys.readouterr().out
    verdict = json.loads(out)["verdict"]
    corrupt_ok = code == 2 and verdict == "UNKNOWN"
    report(8, verify_ok and corrupt_ok, f"verify exit 0: {verify_ok}, corrupted -> UNKNOWN/2: {corrupt_ok}")
