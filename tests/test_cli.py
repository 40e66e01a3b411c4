import hashlib
import json
import subprocess
import sys

import pytest

from kohler_sqs import cli


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# exit code and stdout sha256 of the 0.1.0 pipeline; any drift in the chosen
# 1-factor, the block order or the JSON layout changes them
PINNED_STDOUT = {
    "construct --group 2,2,5": (0, "50dbe914441b38a22a72bf2e348f1667f379127b21f5fd225ebe5d55baa0b9ce"),
    "construct --group 4,4": (0, "9748cee404e879e19921db766eade65159b0f8f199e7fbbe56f37b8a5901d5cb"),
    "construct --group 50": (0, "782c0cdc25f723be89966c71cca2775205258fea6ffdbd177154c67f56d08763"),
    "exists --group 14": (2, "377c0f165c7f635918929646c32ff80d15debff83e9b78b49fa40102766baf9d"),
    "exists --group 2,2,7": (4, "7ee88a1e10a17de53bc0d145907bc658771b1ae3c6bb2cf193a054cb2bfccca9"),
    "graph --export --group 2,2,5": (0, "edd9ccf36498649e728ecca9de9aef8ae7c6983960a242607664ff90498820e9"),
    "graph --stats --group 28": (0, "767d84d9ce194a1115c73a286d28f1da2b60e769e7ae76f0845879569a070cfd"),
    "count --group 2,2,2,2": (0, "c140ff58fea10e8b2b20edae0d03ffaab11467029333ba53647df207f8958295"),
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(capsys, argv):
    code, digest = PINNED_STDOUT[argv]
    got_code, out, _ = run_cli(capsys, *argv.split())
    assert got_code == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_construct_success(capsys):
    code, out, _ = run_cli(capsys, "construct", "--group", "2,2,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"] == [2, 2, 5]
    assert len(payload["blocks"]) == 285
    assert len(payload["provenance"]) == 285


def test_construct_failure_exit_2(capsys):
    code, out, err = run_cli(capsys, "construct", "--group", "8")
    assert code == 2
    assert out == ""
    assert "1-factor" in err


def test_construct_invalid_order_exit_1(capsys):
    code, _, err = run_cli(capsys, "construct", "--group", "7")
    assert code == 1
    assert "2 or 4 mod 6" in err


def test_construct_bad_spec_exit_1(capsys):
    code, _, _ = run_cli(capsys, "construct", "--group", "banana")
    assert code == 1
    code, _, _ = run_cli(capsys, "construct")
    assert code == 1


@pytest.mark.parametrize("spec", ["10", "4,4", "2,2,5", "20"])
def test_construct_verify_round_trip(tmp_path, capsys, spec):
    design_path = tmp_path / "design.json"
    code, out, err = run_cli(capsys, "construct", "--group", spec, "--out", str(design_path))
    assert code == 0
    assert out == ""
    assert "blocks" in err
    code, out, _ = run_cli(capsys, "verify", str(design_path))
    assert code == 0
    report = json.loads(out)
    assert report["is_sqs"] is True
    assert report["is_reversible"] is True


def test_verify_truncated_design_exit_3(tmp_path, capsys):
    design_path = tmp_path / "design.json"
    run_cli(capsys, "construct", "--group", "10", "--out", str(design_path))
    payload = json.loads(design_path.read_text())
    payload["blocks"] = payload["blocks"][1:]
    payload["provenance"] = payload["provenance"][1:]
    design_path.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "verify", str(design_path))
    assert code == 3
    report = json.loads(out)
    assert report["is_sqs"] is False
    assert len(report["triple_coverage_violations"]) == 4


def test_verify_non_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 1
    assert "error" in err


def test_verify_missing_file_exit_1(capsys):
    code, _, _ = run_cli(capsys, "verify", "/nonexistent/design.json")
    assert code == 1


def test_graph_stats(capsys):
    code, out, _ = run_cli(capsys, "graph", "--group", "4,4", "--stats")
    assert code == 0
    stats = json.loads(out)
    assert stats["vertices"] == 8
    assert stats["edges"] == 12
    assert stats["degrees"] == {"3": 8}

    code, out, _ = run_cli(capsys, "graph", "--group", "10")
    stats = json.loads(out)
    assert (stats["vertices"], stats["edges"]) == (2, 1)

    code, out, _ = run_cli(capsys, "graph", "--group", "16", "--stats")
    stats = json.loads(out)
    assert stats["isolated"] == 1


def test_graph_export(capsys):
    code, out, _ = run_cli(capsys, "graph", "--group", "10", "--export")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == [{"base": [[0], [1], [3]]}, {"base": [[0], [1], [4]]}]
    assert payload["edges"] == [{"base": [[0], [1], [3], [4]], "endpoints": [0, 1]}]


def test_exists_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "exists", "--group", "8")
    assert code == 2
    assert json.loads(out)["verdict"] == "no"

    code, out, _ = run_cli(capsys, "exists", "--group", "2,4")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"

    code, out, _ = run_cli(capsys, "exists", "--group", "2,2,5")
    assert code == 0
    assert json.loads(out)["verdict"] == "yes"


def test_count_output(capsys):
    code, out, _ = run_cli(capsys, "count", "--group", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["b0_size"] == 20
    assert payload["special_triples"] == 80
    assert payload["agree"] is True

    code, out, _ = run_cli(capsys, "count", "--group", "4,4")
    payload = json.loads(out)
    assert (payload["b0_size"], payload["special_triples"]) == (76, 304)
    assert payload["formula_values"] == payload["enumeration_values"]

    code, _, _ = run_cli(capsys, "count", "--group", "12")
    assert code == 1


def test_h0_override_on_construct(capsys):
    code, out, _ = run_cli(capsys, "construct", "--group", "2,2,5", "--h0", "1,0,0")
    assert code == 0
    assert json.loads(out)["h0"] == [1, 0, 0]
    code, _, _ = run_cli(capsys, "construct", "--group", "10", "--h0", "3")
    assert code == 1


def test_output_is_byte_identical_across_processes():
    cmd = [sys.executable, "-m", "kohler_sqs", "construct", "--group", "2,2,5"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout

    cmd = [sys.executable, "-m", "kohler_sqs", "exists", "--group", "20"]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]


def test_capacity_env_var(capsys, monkeypatch):
    monkeypatch.setenv("KOHLER_SQS_MAX_V", "10")
    code, _, err = run_cli(capsys, "graph", "--group", "16")
    assert code == 1
    assert "exceeds" in err
    monkeypatch.setenv("KOHLER_SQS_MAX_V", "100")
    code, _, _ = run_cli(capsys, "graph", "--group", "16")
    assert code == 0


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
