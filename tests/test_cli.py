"""CLI contract: JSON payloads, exit codes, round trips."""

import json
import warnings

import numpy as np
import pytest

from vlogic import AND, TruthTable, canonical_basis, gate_operator
from vlogic.cli import main
from vlogic.serialize import basis_to_dict, dump_json, load_json, matrix_from_dict, matrix_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_basis_canonical_dim4(capsys):
    code, payload = run_json(capsys, "basis", "--canonical", "DIM4")
    assert code == 0
    assert payload["s"] == [0.5, 0.5, 0.5, 0.5]
    assert payload["epsilon"] == pytest.approx(0.0, abs=1e-15)


def test_basis_deterministic(capsys):
    _, out1, _ = run(capsys, "basis", "--dim", "8", "--epsilon", "0", "--seed", "3")
    _, out2, _ = run(capsys, "basis", "--dim", "8", "--epsilon", "0", "--seed", "3")
    assert out1 == out2


def test_basis_bad_epsilon_exits_1(capsys):
    code, out, err = run(capsys, "basis", "--dim", "8", "--epsilon", "1.5")
    assert code == 1
    assert out == ""
    assert "epsilon" in err


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["op", "--gate", "IMPL"])  # missing --basis
    assert exc.value.code == 1


def test_op_round_trip(capsys, tmp_path):
    basis_file = tmp_path / "set1.json"
    code, out, _ = run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    assert code == 0
    code, payload = run_json(capsys, "op", "--basis", str(basis_file), "--gate", "IMPL")
    assert code == 0
    assert payload["re"] == [[1.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0]]
    assert "im" not in payload


def test_op_unknown_gate(capsys, tmp_path):
    basis_file = tmp_path / "b.json"
    run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    code, _, err = run(capsys, "op", "--basis", str(basis_file), "--gate", "FROB")
    assert code == 1
    assert "FROB" in err


def test_sqrt_not_payload(capsys, tmp_path):
    basis_file = tmp_path / "dim4.json"
    run(capsys, "basis", "--canonical", "DIM4", "--out", str(basis_file))
    code, payload = run_json(capsys, "sqrt-not", "--basis", str(basis_file))
    assert code == 0
    assert payload["pass"] is True
    a = matrix_from_dict(payload["A"])
    b = matrix_from_dict(payload["B"])
    np.testing.assert_allclose(a, np.conj(b), atol=1e-15)
    assert all(r < 1e-10 for r in payload["report"].values())


def test_sqrt_not_tol_is_only_the_pass_threshold(capsys, tmp_path):
    # every command loads its basis at basis.DEFAULT_TOL, whatever --tol says
    basis_file = tmp_path / "long_s.json"
    dump_json({"dim": 2, "s": [1.0 + 1e-6, 0.0], "n": [0.0, 1.0]}, str(basis_file))
    code, out, err = run(capsys, "sqrt-not", "--basis", str(basis_file), "--tol", "1e-3")
    assert code == 1
    assert out == ""
    assert "|s|" in err


@pytest.mark.parametrize(
    "command", [["basis", "--canonical", "SET1"], ["op", "--basis", "b.json", "--gate", "OR"]]
)
def test_basis_and_op_take_no_tol(command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--tol", "1e-3"])
    assert exc.value.code == 1


def test_diagnose_hidden_xor(capsys, tmp_path):
    basis_file = tmp_path / "set1.json"
    oracle_file = tmp_path / "hidden.json"
    run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    run(capsys, "op", "--basis", str(basis_file), "--gate", "XOR", "--out", str(oracle_file))
    code, payload = run_json(
        capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file), "--arity", "2"
    )
    assert code == 0
    assert payload["verdict"] == "XOR"


def test_diagnose_reports_runner_up(capsys, tmp_path):
    basis_file = tmp_path / "dim4.json"
    oracle_file = tmp_path / "hidden.json"
    run(capsys, "basis", "--canonical", "DIM4", "--out", str(basis_file))
    run(capsys, "op", "--basis", str(basis_file), "--gate", "AND", "--out", str(oracle_file))
    code, payload = run_json(
        capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file)
    )
    assert code == 0
    assert payload["verdict"] == "AND"
    assert payload["runner_up"] != "AND"
    assert payload["runner_up_distance"] >= 0.5


def test_diagnose_oblique_basis(capsys, tmp_path):
    basis_file = tmp_path / "oblique.json"
    oracle_file = tmp_path / "hidden.json"
    run(capsys, "basis", "--dim", "4", "--epsilon", "0.35", "--out", str(basis_file))
    run(capsys, "op", "--basis", str(basis_file), "--gate", "IMPL", "--out", str(oracle_file))
    code, payload = run_json(
        capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file)
    )
    assert code == 0
    assert payload["verdict"] == "IMPL"


def test_diagnose_arity_inferred(capsys, tmp_path):
    basis_file = tmp_path / "set1.json"
    oracle_file = tmp_path / "hidden.json"
    run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    run(capsys, "op", "--basis", str(basis_file), "--gate", "NOT", "--out", str(oracle_file))
    code, payload = run_json(
        capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file)
    )
    assert code == 0
    assert payload["verdict"] == "NOT"
    assert payload["arity"] == 1


def test_diagnose_wrong_arity_exits_1(capsys, tmp_path):
    basis_file = tmp_path / "set1.json"
    oracle_file = tmp_path / "hidden.json"
    run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    run(capsys, "op", "--basis", str(basis_file), "--gate", "NOT", "--out", str(oracle_file))
    code, out, err = run(
        capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file), "--arity", "2"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("vlogic: error")


def test_diagnose_ternary_oracle_exits_1(capsys, tmp_path):
    # a Q x Q^3 oracle has arity 3, which has no reference signatures
    basis_file = tmp_path / "set1.json"
    oracle_file = tmp_path / "hidden.json"
    run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    table = TruthTable("TTTTTTTF", (1, 1, 1, 1, 1, 1, 1, -1))
    dump_json(matrix_to_dict(gate_operator(canonical_basis("SET1"), table)), str(oracle_file))
    code, out, err = run(capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file))
    assert code == 1
    assert out == ""
    assert err.startswith("vlogic: error")
    assert "arity 3" in err


def test_diagnose_corrupted_oracle_unknown(capsys, tmp_path):
    basis_file = tmp_path / "set1.json"
    oracle_file = tmp_path / "hidden.json"
    run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    run(capsys, "op", "--basis", str(basis_file), "--gate", "AND", "--out", str(oracle_file))
    doc = load_json(str(oracle_file))
    doc["re"][0][0] += 0.25
    dump_json(doc, str(oracle_file))
    code, payload = run_json(
        capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file), "--arity", "2"
    )
    assert code == 2
    assert payload["verdict"] == "UNKNOWN"


def test_euler_suite_passes(capsys, tmp_path):
    basis_file = tmp_path / "set2.json"
    run(capsys, "basis", "--canonical", "SET2", "--out", str(basis_file))
    code, payload = run_json(
        capsys, "euler", "--basis", str(basis_file), "--v", "0.25,0.5,1", "--k", "3"
    )
    assert code == 0
    assert payload["pass"] is True
    names = {e["identity"] for e in payload["identities"]}
    assert "g_great_euler" in names
    assert all(e["pass"] for e in payload["identities"])


def test_euler_names_the_worst_argument(capsys, tmp_path):
    basis_file = tmp_path / "dim4.json"
    run(capsys, "basis", "--canonical", "DIM4", "--out", str(basis_file))
    code, payload = run_json(capsys, "euler", "--basis", str(basis_file), "--v", "0.25,1.5", "--k", "2,3")
    assert code == 0
    worst = payload["worst_argument"]
    assert worst.keys() == {e["identity"] for e in payload["identities"]}
    assert worst["a_exp_equals_C_plus_AS"]["v"] in (0.25, 1.5)
    assert worst["e_cosine_addition"].keys() == {"va", "vb"}
    assert worst["h_de_moivre"]["k"] in (2, 3)
    assert worst["g_great_euler"] == {"v": 1.0}


def test_verify_exits_0(capsys):
    code, payload = run_json(capsys, "verify", "--dim", "4", "--seed", "1")
    assert code == 0
    assert payload["pass"] is True


def test_basis_output_feeds_every_command(capsys, tmp_path):
    # round trip: basis output accepted unmodified everywhere
    basis_file = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "basis", "--dim", "4", "--epsilon", "0", "--seed", "5", "--out", str(basis_file)
    )
    assert code == 0
    assert run(capsys, "op", "--basis", str(basis_file), "--gate", "OR")[0] == 0
    assert run(capsys, "sqrt-not", "--basis", str(basis_file))[0] == 0
    assert run(capsys, "euler", "--basis", str(basis_file), "--v", "0.5")[0] == 0


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "op", "--basis", "/nonexistent.json", "--gate", "OR")
    assert code == 1
    assert err


def test_non_finite_oracle_exits_1(capsys, tmp_path):
    basis_file = tmp_path / "set1.json"
    oracle_file = tmp_path / "nan.json"
    run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    oracle_file.write_text(json.dumps({"rows": 2, "cols": 2, "re": [[float("nan"), 0.0], [0.0, 1.0]]}))
    code, out, err = run(
        capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file), "--arity", "1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("vlogic: error")


@pytest.mark.parametrize("v", ["inf", "nan", "0.5,-inf", "1e308"])
def test_euler_non_finite_v_exits_1(capsys, tmp_path, v):
    basis_file = tmp_path / "dim4.json"
    run(capsys, "basis", "--canonical", "DIM4", "--out", str(basis_file))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "euler", "--basis", str(basis_file), "--v", v)
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_euler_negative_k_exits_1(capsys, tmp_path):
    basis_file = tmp_path / "dim4.json"
    run(capsys, "basis", "--canonical", "DIM4", "--out", str(basis_file))
    code, out, err = run(capsys, "euler", "--basis", str(basis_file), "--k", "-1")
    assert code == 1
    assert out == ""
    assert "non-negative" in err


@pytest.mark.parametrize("v", ["1e100", "0.5,1e300"])
def test_euler_too_large_v_exits_1(capsys, tmp_path, v):
    # finite, but |Pi v| 2^-52 is not below the suite tolerance
    basis_file = tmp_path / "dim4.json"
    run(capsys, "basis", "--canonical", "DIM4", "--out", str(basis_file))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "euler", "--basis", str(basis_file), "--v", v)
    assert code == 1
    assert out == ""
    assert "too large" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "-inf"])
@pytest.mark.parametrize("command", ["verify", "euler", "sqrt-not", "diagnose"])
def test_tol_must_be_finite_and_positive(capsys, tmp_path, command, tol):
    # a usage error, not a vacuous pass, a verified failure or a blamed argument
    basis_file = tmp_path / "dim4.json"
    oracle_file = tmp_path / "and.json"
    dump_json(basis_to_dict(canonical_basis("DIM4")), str(basis_file))
    dump_json(matrix_to_dict(gate_operator(canonical_basis("DIM4"), AND)), str(oracle_file))
    inputs = {
        "verify": [],
        "euler": ["--basis", str(basis_file)],
        "sqrt-not": ["--basis", str(basis_file)],
        "diagnose": ["--basis", str(basis_file), "--oracle", str(oracle_file)],
    }[command]
    assert run(capsys, command, *inputs)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert "argument --tol" in captured.err and "finite positive" in captured.err
