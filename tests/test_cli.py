"""CLI contract: JSON payloads, exit codes, round trips."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vlogic
from vlogic import AND, NOT, TruthTable, canonical_basis, gate_operator, random_basis
from vlogic.errors import VectorLogicError
from vlogic.cli import main
from vlogic.serialize import basis_from_dict, basis_to_dict, dump_json, load_json, matrix_from_dict, matrix_to_dict


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


def test_basis_nearly_dependent_epsilon_exits_1(capsys):
    code, out, err = run(capsys, "basis", "--dim", "8", "--epsilon", "0.99999")
    assert code == 1
    assert out == ""
    assert "too close to 1" in err


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
    code, payload = run_json(capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file))
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
    # a width that is no power of Q gives no arity: Q x 3 at Q = 2
    basis_file = tmp_path / "set1.json"
    oracle_file = tmp_path / "hidden.json"
    run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    oracle = matrix_to_dict(gate_operator(canonical_basis("SET1"), NOT))
    oracle_file.write_text(json.dumps({**oracle, "cols": 3, "re": [row + [0.0] for row in oracle["re"]]}))
    code, out, err = run(capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file))
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
    code, payload = run_json(capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file))
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


# Runs `python -m vlogic.cli` in this process and prints the process's own
# peak RSS (KiB on Linux) to stderr as the last line, after the command's
# exit code is known.
_RSS_WRAPPER = """
import resource, runpy, sys
sys.argv = ["vlogic", *sys.argv[1:]]
try:
    runpy.run_module("vlogic.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def test_verify_process_memory_at_dim4096():
    # the whole command in its own process: the peak RSS is that child's,
    # not the cumulative RUSAGE_CHILDREN of the test run
    src = str(Path(vlogic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", _RSS_WRAPPER, "verify", "--dim", "4096"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["pass"] is True
    peak_kib = int(done.stderr.strip().splitlines()[-1])
    assert peak_kib < 128 * 1024, peak_kib


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
    code, out, err = run(capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file))
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


@pytest.mark.parametrize("flag", ["--k", "--v"])
def test_euler_int_beyond_the_float_range_exits_1_without_a_traceback(tmp_path, flag):
    # --k 1 and 400 zeros is an int that float() refuses; the process reports
    # the suite's ValueError (--v parses it as inf, which is not finite)
    basis_file = tmp_path / "dim4.json"
    basis_file.write_text(json.dumps(basis_to_dict(canonical_basis("DIM4"))))
    src = str(Path(vlogic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "vlogic.cli", "euler", "--basis", str(basis_file), flag, "1" + "0" * 400],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("vlogic: error:") and "not finite" in done.stderr
    assert "Traceback" not in done.stderr


def test_euler_huge_k_at_v_zero_exits_0_with_strict_json(capsys, tmp_path):
    # 2**64 is past int64: the suite's powers are floats, and (C(0) + A S(0))^k = I
    basis_file = tmp_path / "dim4.json"
    run(capsys, "basis", "--canonical", "DIM4", "--out", str(basis_file))
    code, out, _ = run(capsys, "euler", "--basis", str(basis_file), "--v", "0", "--k", "18446744073709551616")
    assert code == 0
    payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict JSON constant {name}"))
    assert payload["pass"] is True
    assert payload["ks"] == [2**64]
    assert payload["worst_argument"]["h_de_moivre"] == {"k": 2**64, "v": 0.0}


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


def run_quietly(capsys, *argv):
    # any warning fails the run, and a usage error's SystemExit is its exit code
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("token", ["1e999", "-1e999", pytest.param("1" * 400, id="400-digit-int")])
@pytest.mark.parametrize("target,command", [("oracle", "diagnose"), ("basis", "diagnose"), ("basis", "op")])
def test_json_number_beyond_float64_exits_1(capsys, tmp_path, target, command, token):
    files = {"basis": tmp_path / "set1.json", "oracle": tmp_path / "not.json"}
    run(capsys, "basis", "--canonical", "SET1", "--out", str(files["basis"]))
    run(capsys, "op", "--basis", str(files["basis"]), "--gate", "NOT", "--out", str(files["oracle"]))
    text = files[target].read_text()
    files[target].write_text(text.replace("1.0", token, 1))
    argv = {
        "diagnose": ["diagnose", "--oracle", str(files["oracle"]), "--basis", str(files["basis"])],
        "op": ["op", "--basis", str(files["basis"]), "--gate", "AND"],
    }[command]
    code, out, err = run_quietly(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("vlogic: error:") and len(err.splitlines()) == 1
    assert token in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--dim", "8", "--epsilon", "0.3", "--seed", "5"],
        ["--dim", "8"],
        ["--epsilon", "0.3"],
        ["--seed", "5"],
        ["--epsilon", "0", "--seed", "0"],  # explicit defaults are still ignored flags
    ],
)
def test_basis_canonical_rejects_random_flags(capsys, extra):
    code, out, err = run_quietly(capsys, "basis", "--canonical", "DIM4", *extra)
    assert code == 1
    assert out == ""
    assert "error" in err


def test_basis_needs_canonical_or_dim(capsys):
    code, out, err = run_quietly(capsys, "basis", "--seed", "5")
    assert code == 1
    assert out == ""
    assert "--canonical" in err and "--dim" in err


def test_basis_random_defaults(capsys):
    # --epsilon and --seed default to 0 for a random basis
    _, out_default, _ = run(capsys, "basis", "--dim", "6")
    _, out_explicit, _ = run(capsys, "basis", "--dim", "6", "--epsilon", "0", "--seed", "0")
    assert out_default == out_explicit


@pytest.mark.parametrize("flag", ["--v", "--k"])
@pytest.mark.parametrize("value", ["", " , "])
def test_euler_empty_samples_are_a_usage_error(capsys, tmp_path, flag, value):
    # an empty list would leave identities without a sample: a vacuous pass
    basis_file = tmp_path / "dim4.json"
    run(capsys, "basis", "--canonical", "DIM4", "--out", str(basis_file))
    code, out, err = run_quietly(capsys, "euler", "--basis", str(basis_file), f"{flag}={value}")
    assert code == 1
    assert out == ""
    assert f"argument {flag}" in err and "at least one value" in err


@pytest.mark.parametrize(
    "rows,cols",
    [(2.7, 1), (2, True), (True, 1), ("2", 1), (2, float("inf")), (None, 1)],
    ids=["fraction", "bool_cols", "bool_rows", "string", "inf", "null"],
)
def test_matrix_sizes_must_be_whole_numbers(rows, cols):
    with pytest.raises(VectorLogicError, match="bad matrix JSON"):
        matrix_from_dict({"rows": rows, "cols": cols, "re": [[1.0], [2.0]]})


@pytest.mark.parametrize(
    "im", ["x", [[1.0], [2.0, 3.0]], [["x"], [0.0]], {"a": 1.0}], ids=["string", "ragged", "string_entry", "object"]
)
def test_malformed_im_is_a_vector_logic_error(im):
    with pytest.raises(VectorLogicError, match="bad matrix JSON"):
        matrix_from_dict({"rows": 2, "cols": 1, "re": [[1.0], [2.0]], "im": im})


@pytest.mark.parametrize("rows,code", [(4.0, 0), (4.5, 1)])
def test_diagnose_oracle_size_must_be_whole(capsys, tmp_path, rows, code):
    # every loaded number is a float, so 4.0 is a size
    basis_file = tmp_path / "dim4.json"
    oracle_file = tmp_path / "not.json"
    run(capsys, "basis", "--canonical", "DIM4", "--out", str(basis_file))
    oracle = matrix_to_dict(gate_operator(canonical_basis("DIM4"), NOT))
    oracle_file.write_text(json.dumps({**oracle, "rows": rows}))
    result, out, err = run(capsys, "diagnose", "--oracle", str(oracle_file), "--basis", str(basis_file))
    assert result == code, err
    if code:
        assert out == ""
        assert err.startswith("vlogic: error: bad matrix JSON")
    else:
        assert json.loads(out)["verdict"] == "NOT"


@pytest.mark.parametrize(
    "entry", [None, True, False, "1.5", "nan", "inf", [1.0]], ids=["null", "true", "false", "string", "nan", "inf", "list"]
)
@pytest.mark.parametrize("key", ["re", "im"])
def test_matrix_entries_must_be_numbers(key, entry):
    # np.array(dtype=float) would read null as NaN, true as 1.0 and "1.5" as 1.5
    d = {"rows": 2, "cols": 1, "re": [[1.0], [2.0]], "im": [[0.5], [0.0]]}
    d[key] = [[1.0], [entry]]
    with pytest.raises(VectorLogicError, match="bad matrix JSON"):
        matrix_from_dict(d)


def test_whole_matrix_entries_still_load():
    m = matrix_from_dict({"rows": 2, "cols": 2, "re": [[1, 1.0], [4.0, -2]], "im": [[0, 0.5], [0.0, 3]]})
    np.testing.assert_array_equal(m, [[1, 1 + 0.5j], [4, -2 + 3j]])


@pytest.mark.parametrize("entry", [None, True, "0.5", "nan"], ids=["null", "true", "string", "nan"])
@pytest.mark.parametrize("key", ["s", "n"])
def test_basis_entries_must_be_numbers(key, entry):
    d = basis_to_dict(canonical_basis("DIM4"))
    d[key] = d[key][:3] + [entry]
    with pytest.raises(VectorLogicError, match="bad basis JSON: entries must be numbers"):
        basis_from_dict(d)


@pytest.mark.parametrize("entry", [None, True, "0.5"], ids=["null", "true", "string"])
@pytest.mark.parametrize("target", ["oracle", "basis"])
def test_diagnose_rejects_an_entry_that_is_no_number(capsys, tmp_path, target, entry):
    # read as floats, null in the oracle became NaN and failed the output
    # (NaN is not JSON) and true became 1.0, an UNKNOWN verdict (exit 2)
    basis = canonical_basis("DIM4")
    files = {"basis": tmp_path / "dim4.json", "oracle": tmp_path / "and.json"}
    payloads = {"basis": basis_to_dict(basis), "oracle": matrix_to_dict(gate_operator(basis, AND))}
    if target == "oracle":
        payloads["oracle"]["re"][0][0] = entry
    else:
        payloads["basis"]["s"][0] = entry
    for name, path in files.items():
        path.write_text(json.dumps(payloads[name]))
    code, out, err = run_quietly(
        capsys, "diagnose", "--oracle", str(files["oracle"]), "--basis", str(files["basis"])
    )
    assert code == 1, err
    assert out == ""
    assert err.startswith(f"vlogic: error: bad {'matrix' if target == 'oracle' else 'basis'} JSON: entries must be numbers")


def test_output_is_one_line_of_compact_json(capsys, tmp_path):
    code, out, _ = run(capsys, "basis", "--canonical", "SET1")
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1 and " " not in out
    basis_file = tmp_path / "set1.json"
    run(capsys, "basis", "--canonical", "SET1", "--out", str(basis_file))
    assert basis_file.read_text() == out


@pytest.mark.parametrize(
    "argv", [["verify", "--seed", "-1"], ["basis", "--dim", "4", "--seed", "-3"]], ids=["verify", "basis"]
)
def test_a_negative_seed_is_an_input_error_that_names_the_seed(capsys, argv):
    # numpy's "expected non-negative integer" named no argument
    code, out, err = run_quietly(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "vlogic: error: seed must be a non-negative int, got " + argv[-1] + "\n"


@pytest.mark.parametrize("key", ["re", "im"])
def test_an_int_beyond_float64_in_a_matrix_entry_is_a_vector_logic_error(key):
    # json reads it as an int, and np.array(dtype=float) raises OverflowError
    d = {"rows": 1, "cols": 2, "re": [[1, 2.0]], "im": [[0, 0.5]]}
    d[key][0][1] = -(10**400)
    with pytest.raises(VectorLogicError, match=f"bad matrix JSON: number -{10**400} is not a finite float64"):
        matrix_from_dict(d)


def test_an_int_beyond_float64_as_a_matrix_size_is_a_vector_logic_error():
    with pytest.raises(VectorLogicError, match="matrix JSON says"):
        matrix_from_dict({"rows": 10**400, "cols": 1, "re": [[1.0]]})


@pytest.mark.parametrize("entry", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_a_matrix_entry_that_is_not_finite_is_a_vector_logic_error(entry):
    with pytest.raises(VectorLogicError, match="bad matrix JSON: entries must be finite"):
        matrix_from_dict({"rows": 1, "cols": 2, "re": [[1.0, entry]]})


def _child_env():
    src = str(Path(vlogic.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# Runs `python -m vlogic.cli` in this process and prints the vlogic modules
# it loaded to stderr as the last line.
_MODULES_WRAPPER = """
import runpy, sys
sys.argv = ["vlogic", *sys.argv[1:]]
try:
    runpy.run_module("vlogic.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(" ".join(sorted(m for m in sys.modules if m.startswith("vlogic."))), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "command,unused",
    [
        ("basis", {"operators", "diagnosis", "matfun", "srn", "verify"}),
        ("op", {"diagnosis", "matfun", "verify"}),
        ("diagnose", {"matfun", "verify"}),
    ],
)
def test_a_command_imports_only_the_modules_it_runs(tmp_path, command, unused):
    basis = canonical_basis("DIM4")
    dump_json(basis_to_dict(basis), str(tmp_path / "b.json"))
    dump_json(matrix_to_dict(gate_operator(basis, AND)), str(tmp_path / "o.json"))
    argv = {
        "basis": ["basis", "--dim", "8", "--seed", "2"],
        "op": ["op", "--basis", "b.json", "--gate", "AND"],
        "diagnose": ["diagnose", "--basis", "b.json", "--oracle", "o.json"],
    }[command]
    done = subprocess.run(
        [sys.executable, "-c", _MODULES_WRAPPER, *argv],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    json.loads(done.stdout)
    loaded = set(done.stderr.strip().splitlines()[-1].split())
    assert "vlogic.serialize" in loaded
    assert not loaded & {f"vlogic.{name}" for name in unused}, sorted(loaded)


def test_command_defaults_follow_the_library(monkeypatch, capsys, tmp_path):
    # each default is read from the library when the command runs, so a
    # literal copied into the CLI would show here
    from vlogic import diagnosis, matfun, verify

    basis = random_basis(8, 0.3, 5)
    basis_file, oracle_file = tmp_path / "b.json", tmp_path / "o.json"
    dump_json(basis_to_dict(basis), str(basis_file))
    dump_json(matrix_to_dict(gate_operator(basis, AND)), str(oracle_file))
    diagnose = ["diagnose", "--basis", str(basis_file), "--oracle", str(oracle_file)]
    sqrt_not = ["sqrt-not", "--basis", str(basis_file)]
    code, payload = run_json(capsys, *diagnose)
    assert code == 0 and payload["verdict"] == "AND" and payload["distance"] > 1e-300
    code, payload = run_json(capsys, *sqrt_not)
    assert code == 0 and max(payload["report"].values()) > 1e-300

    monkeypatch.setattr(matfun, "EULER_V_SAMPLES", (0.5,))
    monkeypatch.setattr(matfun, "EULER_KS", (4,))
    monkeypatch.setattr(matfun, "IDENTITY_TOL", 2e-9)
    tols = []
    suite = matfun.verify_euler_suite
    monkeypatch.setattr(matfun, "verify_euler_suite", lambda *a, **kw: tols.append(kw["tol"]) or suite(*a, **kw))

    code, payload = run_json(capsys, "euler", "--basis", str(basis_file))
    assert code == 0
    assert (payload["v_samples"], payload["ks"], tols) == ([0.5], [4], [2e-9])
    code, payload = run_json(capsys, "verify")
    assert code == 0
    assert payload["sections"]["euler"]["tolerance"] == 2e-9

    monkeypatch.setattr(verify, "RESIDUAL_TOL", 1e-300)
    monkeypatch.setattr(diagnosis, "DEFAULT_CLASSIFY_TOL", 1e-300)
    code, payload = run_json(capsys, *sqrt_not)
    assert code == 2 and payload["pass"] is False
    code, payload = run_json(capsys, *diagnose)
    assert code == 2 and payload["verdict"] == "UNKNOWN"
