import gc
import hashlib
import io
import json
import subprocess
import sys
from itertools import product

import pytest

from kohler_sqs import cli, engine, make_group

from util import constructed_designs, design_json_dict


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
    # B0 only (empty Koehler graph), a mixed 2-power radix, and Z_2p, whose
    # own graph also answers the per-prime check
    "construct --group 2,2,2,2": (0, "cde55b74347ec1118c97e58a10a2562f75efebb7ef19b6351c91790f50ed950f"),
    "construct --group 2,4": (0, "26f733fb7cdfe24294eb0e33b2882dd103ad078d3e4aa2749abd6aef3a8b0030"),
    "exists --group 10": (0, "2ad5d1a37efcd5625a6b00fbf4db33064f45c19b4f73fa41f9c2980aebade09c"),
    "exists --group 22": (2, "cdb1acf67e99f4b75055dd705d1f755df0326c536504e4a4633b4bf4a38bab2c"),
    "exists --group 2,5,5": (0, "1501a836fc68d40af286fa061d260e932b986ef8416ee96de5fe184c92a680d8"),
    # an h0 override on construct, and count, which reads the tuple B0
    "construct --group 4,4 --h0 2,0": (0, "48a0d237eea6ffaf53dafb2d1148824d49b5986b77ee4fbb57d1c5620d46781c"),
    "construct --group 2,2,5 --h0 1,1,0": (0, "5e558f40d38a0d406d005b0704eeab4e9c99863f35095970fe94f56bf86b0b2f"),
    "count --group 2,2,2,2,2,2": (0, "6ad56b8aefc6bb0dd6dfcf6e24074f3885c5aa11b27a8c62937693c06a09fbff"),
    # 40,425 blocks each, written in several chunks; the benchmark pins the
    # same bytes as its verify inputs
    "construct --group 4,25": (0, "add4c005d9d53e7bbe7bee705ade87b5c7a93b36dd2d9576b354a67d71d3a596"),
    "construct --group 2,2,25": (0, "01eb9e38c132e2a19cf373e2186b60491b79db4f325c2011f506c9fba7034002"),
    # v >= 200: 643,250 blocks, 24 MB in 158 chunks
    "construct --group 250": (0, "5f59e0f0180260ae1e880571f7f385e0a4db2563dabe0c47512250973dc06a81"),
    # the benchmark's decide ops: two "no" verdicts and an "unknown", each
    # with its witness component, and two whole graphs
    "exists --group 196": (2, "487dec0c71f0e67ebede15b15e6294c89524e0bacb1e40452bc029deb5b88dd2"),
    "exists --group 158": (2, "5f375f26275d54e1e7b1e65c75b83eca933ad21e221efb3d715e477443381111"),
    "exists --group 2,2,49": (4, "ee3e44e334acd37c9a12ebe7cc4d2805237547d09421aabf1499f596f110a617"),
    "graph --stats --group 250": (0, "84fc8470976d7205ff9e762f1b3b7c6b0c98394dfe48c57c4182ca16076450b3"),
    "graph --export --group 2,2,49": (0, "a157bd92154028fcb363adbb65b877e91312bb24f6a404222652fe5556bd0bae"),
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(capsys, argv):
    code, digest = PINNED_STDOUT[argv]
    got_code, out, _ = run_cli(capsys, *argv.split())
    assert got_code == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# exit code and stdout sha256 of ``verify`` on a construction, unmodified or
# mutated; the values are those of the tuple-based 0.1.0 verifier
VERIFY_OK = (0, "0e27aea6b7608af51b4967c7b31207daf07490299b5ac9b49826ee5ebe0b49a6")
PINNED_VERIFY = {
    ("2,2,5", "none"): VERIFY_OK,
    ("2,2,5", "drop"): (3, "97fef9d3a76348823da4f700caf2b842ec49aba7e669a6ca6c783280cec5eb43"),
    ("2,2,5", "dup"): (3, "8fd4e4a0de6b14baf12f1c86670682423929c84dbbfd8e889aaa15038e46955a"),
    ("2,2,5", "move"): (3, "ee6f928879e3aadaabf9a6204cde19b7abb6e21d639810de50d5942b6aebf233"),
    ("4,4", "none"): VERIFY_OK,
    ("4,4", "drop"): (3, "bcc54ae56e18561992b6725fcec81bb5df4a99283ce6c082231db4d0b44bc697"),
    ("4,4", "dup"): (3, "3821e2a644d823c255de56fd5deed3c4a14a096a68cca0c6e03c98f5058d8e61"),
    ("4,4", "move"): (3, "938f9a81f89239e39229ed22f51db24cb9b83d73af2e3f41c2713840985dfa82"),
    ("50", "none"): VERIFY_OK,
    ("50", "drop"): (3, "69f8fc534099ff7b6dc37f6748580f8419935ec1a36e46dfaf071e8a6ee741e7"),
    ("50", "dup"): (3, "670f428399a6dccfb56d4425d3cfe16754a7bc01dd54f5af12f366404027b4d7"),
    ("50", "move"): (3, "ebfcdc6be853df9054baea75f2260cabc5db2c5561ea0c6ccebec112e9e590ab"),
    # v = 100: missing and over-covered triples among C(100, 3) = 161,700
    ("4,25", "move"): (3, "7f2e91300c286c680b510475bc2e907f42b8e7b7ff0a19580ec6951ce179e2cd"),
}


def _mutated(payload: dict, mutation: str) -> dict:
    blocks, provenance = payload["blocks"], payload["provenance"]
    if mutation == "drop":
        del blocks[0], provenance[0]
    elif mutation == "dup":
        blocks.append(blocks[0])
        provenance.append(provenance[0])
    elif mutation == "move":
        block = blocks[5]
        block[3] = next(list(x) for x in product(*(range(d) for d in payload["group"])) if list(x) not in block)
        block.sort()
    return payload


@pytest.mark.parametrize("spec,mutation", list(PINNED_VERIFY))
def test_verify_reports_are_pinned(tmp_path, capsys, spec, mutation):
    code, out, _ = run_cli(capsys, "construct", "--group", spec)
    assert code == 0
    design_path = tmp_path / "design.json"
    if mutation == "none":
        design_path.write_text(out)
    else:
        design_path.write_text(json.dumps(_mutated(json.loads(out), mutation)))
    expected_code, digest = PINNED_VERIFY[(spec, mutation)]
    code, out, _ = run_cli(capsys, "verify", str(design_path))
    assert code == expected_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_validates_each_block_once(tmp_path, capsys, monkeypatch):
    design_path = tmp_path / "design.json"
    run_cli(capsys, "construct", "--group", "10", "--out", str(design_path))
    validated = []
    original = engine._encode_blocks

    def counted(g, blocks):
        codes = original(g, blocks)
        validated.extend(codes)
        return codes

    monkeypatch.setattr(engine, "_encode_blocks", counted)
    code, _, _ = run_cli(capsys, "verify", str(design_path))
    assert code == 0
    assert len(validated) == 30


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


@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"group": [10]}', b"[" * 100_000 + b"]" * 100_000, b'{"group": [' + b"9" * 5000 + b"]}"],
    ids=["not-utf8", "deep-nesting", "long-integer"],
)
def test_verify_unreadable_json_exit_1(tmp_path, content):
    path = tmp_path / "design.json"
    path.write_bytes(content)
    proc = subprocess.run([sys.executable, "-m", "kohler_sqs", "verify", str(path)], capture_output=True)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:")
    assert b"Traceback" not in proc.stderr


def test_verify_missing_file_exit_1(capsys):
    code, _, _ = run_cli(capsys, "verify", "/nonexistent/design.json")
    assert code == 1


@pytest.mark.parametrize("fault", ["bad-h0", "no-provenance"])
def test_verify_payload_with_two_faults_exit_1(tmp_path, capsys, fault):
    # a block holds a non-element, and h0 is a non-element or provenance is
    # missing; either fault may be named first
    payload = {
        "group": [2, 2, 5],
        "h0": [1, 0, 0],
        "blocks": [[[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 7]]],
        "provenance": ["B0"],
    }
    if fault == "bad-h0":
        payload["h0"] = [0, 0, 9]
    else:
        del payload["provenance"]
    path = tmp_path / "design.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize(
    "edit",
    [
        {"group": [10.9]},
        {"group": [10.0]},
        {"h0": ["5"]},
        {"h0": [5.0]},
        {"point": [1.5]},
        {"point": [1.0]},
        {"point": [True]},
    ],
    ids=repr,
)
def test_verify_non_integer_values_exit_1(tmp_path, capsys, edit):
    # no factor or coordinate is coerced to an integer: each edit reads as
    # the value it replaces once coerced
    code, out, _ = run_cli(capsys, "construct", "--group", "10")
    assert code == 0
    payload = json.loads(out)
    if "point" in edit:
        block = payload["blocks"][0]
        block[block.index([1])] = edit.pop("point")
    payload.update(edit)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_construct_out_writes_the_stdout_bytes(tmp_path, capsys):
    path = tmp_path / "design.json"
    for spec, blocks in (("2,2,5", 285), ("4,25", 40425)):
        code, printed, _ = run_cli(capsys, "construct", "--group", spec)
        assert code == 0
        code, out, err = run_cli(capsys, "construct", "--group", spec, "--out", str(path))
        assert code == 0
        assert out == ""
        assert f"wrote {blocks} blocks" in err
        assert path.read_bytes() == printed.encode("utf-8")


def _reference_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _written(payload) -> str:
    buf = io.StringIO()
    cli._emit(payload, buf)
    return buf.getvalue()


def test_design_writer_matches_the_reference_dump():
    designs = list(constructed_designs(64))
    designs.append(engine.construct_design(make_group([2, 2, 5]), h0=(1, 1, 0)))
    # over JSON_CHUNK blocks, with tags that need escaping
    z2_6 = next(d for d in designs if d.group.factors == (2,) * 6)
    assert len(z2_6.codes) > engine.JSON_CHUNK
    tags = ('a "quoted" \\ tag', "caf\u00e9 \u2603")
    designs.append(
        engine.Design(
            group=z2_6.group, h0=z2_6.h0, codes=z2_6.codes, provenance=tuple(tags[i % 2] for i in range(len(z2_6.codes)))
        )
    )
    for design in designs:
        assert _written(design) == _reference_line(design_json_dict(design)), str(design.group)
    verdict = engine.existence_check(make_group([2, 2, 5])).to_json_dict()
    assert _written(verdict) == _reference_line(dict(verdict, witness=design_json_dict(verdict["witness"])))


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


def test_capacity_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KOHLER_SQS_MAX_V", "10")
    code, _, err = run_cli(capsys, "graph", "--group", "16")
    assert code == 1
    assert "exceeds" in err
    monkeypatch.setenv("KOHLER_SQS_MAX_V", "100")
    code, _, _ = run_cli(capsys, "graph", "--group", "16")
    assert code == 0
    # a design with no blocks is refused before any triple is listed
    monkeypatch.setenv("KOHLER_SQS_MAX_V", "20")
    coverage_calls = []
    monkeypatch.setattr(engine, "_coverage_violations", lambda *args: coverage_calls.append(args))
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"group": [22], "h0": [11], "blocks": [], "provenance": []}))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (1, "")
    assert "exceeds" in err
    assert coverage_calls == []


def test_verify_restores_the_collector(tmp_path, capsys):
    good, bad, invalid = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "invalid.json"
    good.write_text(json.dumps({"group": [4], "h0": [2], "blocks": [[[0], [1], [2], [3]]], "provenance": ["B0"]}))
    bad.write_text("not json")
    invalid.write_text(json.dumps({"group": [4], "h0": [1], "blocks": [], "provenance": []}))
    assert gc.isenabled()
    for path, expected in ((good, 0), (bad, 1), (invalid, 1)):
        assert run_cli(capsys, "verify", str(path))[0] == expected
        assert gc.isenabled(), path.name
    # a collector that was off stays off
    gc.disable()
    try:
        assert run_cli(capsys, "verify", str(good))[0] == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
