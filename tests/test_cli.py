import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path
from unittest import mock

import pytest

from kohler_sqs import cli, engine, make_group

from sqs20 import SQS20_H0, sqs20_blocks, sqs20_group
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
    # the same design as a "yes" verdict's witness
    "exists --group 2,2,25": (0, "f0a1003eb630be5076ecf466dd1ddd2e03e6969b88cea21bd2198e28e641e318"),
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
    # the last block listed twice; these digests were taken from the
    # verifier that counted every triple of every design
    ("2,2,5", "dup-last"): (3, "8355aff7798858c6e3590ddec55a4b13d3675e1e48d603cefc890ba70f739e19"),
    ("4,4", "none"): VERIFY_OK,
    ("4,4", "drop"): (3, "bcc54ae56e18561992b6725fcec81bb5df4a99283ce6c082231db4d0b44bc697"),
    ("4,4", "dup"): (3, "3821e2a644d823c255de56fd5deed3c4a14a096a68cca0c6e03c98f5058d8e61"),
    ("4,4", "move"): (3, "938f9a81f89239e39229ed22f51db24cb9b83d73af2e3f41c2713840985dfa82"),
    ("4,4", "dup-last"): (3, "bde8e883f711ee8733fc7a9fb71ba8aed46a450ccc65b3d3fbf6f1406b073fd5"),
    ("50", "none"): VERIFY_OK,
    ("50", "drop"): (3, "69f8fc534099ff7b6dc37f6748580f8419935ec1a36e46dfaf071e8a6ee741e7"),
    ("50", "dup"): (3, "670f428399a6dccfb56d4425d3cfe16754a7bc01dd54f5af12f366404027b4d7"),
    ("50", "move"): (3, "ebfcdc6be853df9054baea75f2260cabc5db2c5561ea0c6ccebec112e9e590ab"),
    ("50", "dup-last"): (3, "3e5292d56dd0dd9b65e2b449e1c4e76d38c45fb7b8c5c28f836ec23ae3a98c21"),
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
    elif mutation == "dup-last":
        # the last block misses 0: listed twice, it leaves the set invariant
        # and the blocks through 0 as they were
        blocks.append(blocks[-1])
        provenance.append(provenance[-1])
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
    # a block is encoded by the reader of the writer's layout or by the JSON path
    validated, read = [], []
    original_encode, original_read = engine._encode_blocks, engine._design_from_bytes

    def counted(g, blocks):
        codes = original_encode(g, blocks)
        validated.extend(codes)
        return codes

    def counted_read(data):
        design = original_read(data)
        read.append(design)
        if design is not None:
            validated.extend(design.codes)
        return design

    monkeypatch.setattr(engine, "_encode_blocks", counted)
    monkeypatch.setattr(engine, "_design_from_bytes", counted_read)
    code, _, _ = run_cli(capsys, "verify", str(design_path))
    assert code == 0
    assert len(validated) == 30
    # the construct --out file is read straight to codes
    assert len(read) == 1 and read[0] is not None


def test_verify_of_a_listing_file_stays_in_bounded_memory(tmp_path, capsys):
    # the 40,425 Z4xZ25 blocks less one, in the writer's layout: read
    # straight to codes, then every triple is counted to list the missing
    # ones; Python's own allocations are traced, which the host does not move
    g = make_group([4, 25])
    design = engine.construct_design(g)
    path = tmp_path / "drop.json"
    dropped = engine.Design(group=g, h0=design.h0, codes=design.codes[1:], provenance=design.provenance[1:])
    path.write_text(_written(dropped))
    del design, dropped
    tracemalloc.start()
    try:
        code = cli.main(["verify", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and len(json.loads(capsys.readouterr().out)["triple_coverage_violations"]) == 4
    # the blocks as codes take about 5.6 MB; a reader that held every
    # point's text at once, or a listing of every packed triple, each
    # peaked past 16 MB
    assert peak < 12_000_000, peak


def test_verify_of_a_valid_file_stays_in_bounded_memory(tmp_path, capsys):
    # the 40,425 Z4xZ25 blocks in the writer's layout, read to one packed
    # array of codes, with the tags read in pieces, and checked by packed
    # image keys: about 4.5 MB at the peak.  A 4-tuple per block, the tags
    # parsed as one list and a set of 100-bit masks peaked near 7.1 MB
    path = tmp_path / "design.json"
    path.write_text(_written(engine.construct_design(make_group([4, 25]))))
    tracemalloc.start()
    try:
        code = cli.main(["verify", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()) == VERIFY_OK
    assert peak < 5_500_000, peak


def test_verify_of_an_indented_file_stays_in_bounded_memory(tmp_path, capsys):
    # the Z4xZ25 design dumped with indent=1 is read by the JSON path: the
    # file's bytes are dropped before the parse, and the blocks are packed
    # as they are encoded, about 26 MB at the peak.  Holding the bytes
    # through the parse and a 4-tuple per encoded block peaked near 31.6 MB
    path = tmp_path / "design.json"
    path.write_text(json.dumps(json.loads(_written(engine.construct_design(make_group([4, 25])))), indent=1))
    tracemalloc.start()
    try:
        code = cli.main(["verify", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()) == VERIFY_OK
    assert peak < 28_000_000, peak


class _NullSink:
    """A text sink that keeps nothing it is given."""

    def write(self, text: str) -> None:
        pass


def test_construct_and_write_stay_in_bounded_memory():
    # the Z2xZ2xZ25 design holds its 1,617 blocks through 0 and streams its
    # 40,425 blocks from them, about 1.0 MB at the peak; a design that
    # expanded and argsorted every orbit, and held the blocks and tags,
    # peaked near 6 MB, and chunks of 4,096 rendered blocks near 1.9 MB.
    # The group's tables are built by a first construction
    g = make_group([2, 2, 25])
    engine.construct_design(g)
    tracemalloc.start()
    try:
        engine.construct_design(g).write_json(_NullSink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000, peak


def test_the_reader_of_the_writers_layout_stays_in_bounded_memory():
    # the parsed list of 40,425 tags is freed before the blocks are decoded;
    # held through the decode it added about 2.6 MB to a peak near 6.7 MB
    data = _written(engine.construct_design(make_group([2, 2, 25]))).encode("utf-8")
    tracemalloc.start()
    try:
        design = engine._design_from_bytes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert design is not None and design.block_count == 40425
    assert peak < 5_000_000, peak


def _verify_both_ways(path: Path) -> list[tuple[int, str, str]]:
    """Exit code, stdout and stderr of ``verify path``, first as the CLI runs
    it, then with the reader of the writer's layout refusing every input, so
    the JSON path reads the file.  No fixture is used, so hypothesis can call
    it."""
    outcomes = []
    for reader in (engine._design_from_bytes, lambda data: None):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(engine, "_design_from_bytes", reader), redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["verify", str(path)])
        outcomes.append((code, out.getvalue(), err.getvalue()))
    return outcomes


# tags in the writer's layout that are no strings, which the reader shares
# as it shares equal tags and leaves to Design to refuse
NON_STRING_TAGS = {
    "int-tag": (b'"B0"', b"1"),
    "int-and-bool-tags": (b'"B0","B0"', b"1,true"),
    "nan-tag": (b'"B0"', b"NaN"),
    "null-tag": (b'"B0"', b"null"),
    "list-tag": (b'"B0"', b'["B0"]'),
    "object-tag": (b'"B0"', b'{"B0":0}'),
    # a "," inside the object, where the tags may be cut into pieces
    "object-tag-with-a-cut": (b'"B0"', b'{"a":"b","c":1}'),
}

# tags in the writer's layout that hold a valid design, and that a cut at
# a "," or a backslash could misread; the reader reads none with a backslash
VALID_TAG_EDITS = {
    "comma-tag": (b'"B0"', b'","'),
    "quote-tag": (b'"B0"', b'"B\\"0"'),
    "backslash-tag": (b'"B0"', b'"B\\\\0"'),
}


def _deviations(data: bytes) -> dict[str, bytes]:
    """Edits of ``data``, the ``construct --group 2,2,5`` stdout, each a
    departure from the writer's layout or, in that layout, a value that only
    :class:`~kohler_sqs.engine.Design` refuses; some still hold a valid
    design."""
    body, tail = data.split(b'],"group":')
    provenance = tail.index(b',"provenance":')
    reordered = json.loads(data)
    return {
        "space-after-key": data.replace(b'"blocks":', b'"blocks": ', 1),
        "space-in-point": data.replace(b"[0,0,1]", b"[0, 0,1]", 1),
        "space-in-tail": data.replace(b'"h0":', b'"h0": ', 1),
        "crlf": data[:-1] + b"\r\n",
        "crlf-between-blocks": data.replace(b"]],[[", b"]],\r\n[[", 1),
        "bom": b"\xef\xbb\xbf" + data,
        "leading-zero": data.replace(b"[0,0,1]", b"[0,0,01]", 1),
        "minus-zero": data.replace(b"[0,0,0]", b"[-0,0,0]", 1),
        "float": data.replace(b"[0,0,1]", b"[0,0,1.0]", 1),
        "exponent": data.replace(b"[0,0,1]", b"[0,0,1e0]", 1),
        "true": data.replace(b"[0,0,1]", b"[0,0,true]", 1),
        "duplicate-key": data.replace(b'"h0":', b'"h0":[0,0,0],"h0":', 1),
        "duplicate-blocks": data[:-2] + b',"blocks":[]}\n',
        "extra-key": data[:-2] + b',"x":1}\n',
        "reordered-keys": (json.dumps(dict(reversed(reordered.items())), separators=(",", ":")) + "\n").encode(),
        "no-provenance": body + b'],"group":' + tail[:provenance] + b"}\n",
        "trailing-garbage": data + b"x",
        "no-trailing-newline": data[:-1],
        "two-trailing-newlines": data + b"\n",
        "no-blocks": b'{"blocks":[],"group":[2,2,5],"h0":[1,0,0],"provenance":[]}\n',
        "escaped-tag": data.replace(b'"B0"', b'"\\u0042\\u0030"', 1),
        "short-point": data.replace(b"[0,0,1]", b"[0,1]", 1),
        "long-point": data.replace(b"[0,0,1]", b"[0,0,0,1]", 1),
        "unsorted-block": data.replace(b"[[0,0,0],[0,0,1]", b"[[0,0,1],[0,0,0]", 1),
        "blocks-of-3-and-5": data.replace(b"],[0,1,1]],[[", b"]],[[0,1,1],[", 1),
        "point-in-a-list": data.replace(b"[0,0,1]", b"[[0,0,1]]", 1),
        "unsorted-group": data.replace(b'"group":[2,2,5]', b'"group":[2,5,2]', 1),
        "bad-h0": data.replace(b'"h0":[0,1,0]', b'"h0":[0,0,0]', 1),
        "renamed-key": data.replace(b'"h0":', b'"hx":', 1),
        "provenance-string": body + b'],"group":' + tail[:provenance] + b',"provenance":"' + b"B" * 285 + b'"}\n',
        "not-utf8-tag": data.replace(b'"B0"', b'"B\xff"', 1),
        "surrogate-tag": data.replace(b'"B0"', b'"B\xed\xa0\x80"', 1),
        **{name: data.replace(old, new, 1) for name, (old, new) in NON_STRING_TAGS.items()},
        **{name: data.replace(old, new, 1) for name, (old, new) in VALID_TAG_EDITS.items()},
        "spaces-in-provenance": body
        + b'],"group":'
        + tail[:provenance]
        + tail[provenance:].replace(b'","', b'" , "').replace(b'["', b'[ "', 1).replace(b'"]', b'"\t]', 1),
        # the last tag is read in the last piece when the tags are cut
        "non-string-last-tag": data[: data.rindex(b',"')] + b",7]}\n",
        # the block's ]],[[ is where a small chunk is cut
        "nested-points": data.replace(
            b"[[0,0,0],[0,0,1],[0,0,2],[0,1,1]]", b"[[0,0,0],[[0,0,1]],[[0,0,2]],[0,1,1]]", 1
        ),
    }


# a digit outside every point, which joined to the point next to it would
# spell an element that keeps the block's codes increasing: (11, 12, 14, 25),
# (0, 1, 3, 45) and ((0,0), (0,1), (0,2), (2,10))
STRAY_DIGITS = {
    "50": [(b"[[1],[12],[14],[25]]", b"[1[1],[12],[14],[25]]"), (b"[[0],[1],[3],[4]]", b"[[0],[1],[3],[4]5]")],
    "4,25": [(b"[[0,0],[0,1],[0,2],[2,1]]", b"[[0,0],[0,1],[0,2],[2,1]0]")],
}


def test_reading_the_writers_layout_changes_no_outcome(tmp_path, capsys, monkeypatch):
    path = tmp_path / "design.json"

    def check(data: bytes, read_straight: bool | None = None) -> tuple[int, str, str]:
        path.write_bytes(data)
        direct, fallback = _verify_both_ways(path)
        assert direct == fallback
        if read_straight is not None:
            assert (engine._design_from_bytes(data) is not None) is read_straight
        return direct

    # valid designs, and the pinned mutations, written as the writer writes
    g20 = sqs20_group()
    sqs20 = engine.Design(
        group=g20, h0=SQS20_H0, codes=engine._encode_blocks(g20, sorted(sqs20_blocks())), provenance=("sqs20",) * 285
    )
    for design in (*constructed_designs(64), sqs20):
        code, out, err = check(_written(design).encode("utf-8"), read_straight=True)
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (*VERIFY_OK, ""), str(design.group)
    constructed = {}
    for spec, mutation in PINNED_VERIFY:
        if spec not in constructed:
            constructed[spec] = run_cli(capsys, "construct", "--group", spec)[1]
        data = _reference_line(_mutated(json.loads(constructed[spec]), mutation)).encode("utf-8")
        code, out, _ = check(data, read_straight=True)
        assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == PINNED_VERIFY[(spec, mutation)]
    # a departure from the layout in the blocks or the keys goes to the JSON
    # path, which names any fault; the values after the blocks are JSON either way
    data = constructed["2,2,5"].encode("utf-8")
    for name, edited in _deviations(data).items():
        assert edited != data, name
        outcome = check(edited)
        if name == "nested-points":
            assert outcome[:2] == (1, "") and outcome[2].startswith("error: "), outcome
        if name in NON_STRING_TAGS or name == "non-string-last-tag":
            assert outcome == (1, "", "error: design provenance must be a list of strings\n"), (name, outcome)
        if name in VALID_TAG_EDITS or name == "spaces-in-provenance":
            code, out, err = outcome
            assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (*VERIFY_OK, ""), name
        if b"\\" in edited:
            assert engine._design_from_bytes(edited) is None, name
    for spec, edits in STRAY_DIGITS.items():
        data = constructed[spec].encode("utf-8")
        for block, edited_block in edits:
            assert data.count(block) == 1, block
            code, out, err = check(data.replace(block, edited_block), read_straight=False)
            assert (code, out) == (1, "") and err.startswith(f"error: cannot read {path} as JSON"), err
    monkeypatch.setenv("KOHLER_SQS_MAX_V", "19")
    code, out, err = check(data, read_straight=False)
    assert (code, out) == (1, "") and "exceeds" in err


def test_single_byte_edits_change_no_outcome(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    data = run_cli(capsys, "construct", "--group", "2,2,5")[1].encode("utf-8")
    path = tmp_path / "design.json"

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(
        edit=st.sampled_from(["replace", "insert", "delete"]),
        index=st.integers(min_value=0, max_value=len(data) - 1),
        byte=st.integers(min_value=0, max_value=255),
    )
    def check(edit, index, byte):
        new = b"" if edit == "delete" else bytes([byte])
        path.write_bytes(data[:index] + new + data[index + (edit != "insert") :])
        direct, fallback = _verify_both_ways(path)
        assert direct == fallback

    check()


# one block per chunk, and a size that ends a chunk inside a block of
# Z2xZ2xZ5 or Z4xZ25, two blocks per chunk
@pytest.mark.parametrize("read_chunk", [1, 50])
def test_chunk_boundaries_change_no_outcome(tmp_path, capsys, monkeypatch, read_chunk):
    monkeypatch.setattr(engine, "READ_CHUNK", read_chunk)
    test_single_byte_edits_change_no_outcome(tmp_path, capsys)
    # last: it lowers the capacity limit
    test_reading_the_writers_layout_changes_no_outcome(tmp_path, capsys, monkeypatch)


def test_tags_cut_anywhere_read_as_json_reads_them(monkeypatch):
    # tags holding "," and spaces, read in pieces of every size up to the
    # whole array: a cut after a quote that opens a tag leaves that tag
    # unterminated, so the reader refuses the bytes and never misreads them
    g = make_group([10])
    design = engine.construct_design(g)
    tags = [",", "B0", ", ,", ",,", "x"]
    provenance = tuple(tags[i % len(tags)] for i in range(design.block_count))
    data = _written(engine.Design(g, design.h0, design.codes, provenance)).encode("utf-8")
    expected = engine.design_from_json_dict(json.loads(data))
    outcomes = set()
    for read_chunk in range(1, len(data) - data.index(b'"provenance"')):
        monkeypatch.setattr(engine, "READ_CHUNK", read_chunk)
        read = engine._design_from_bytes(data)
        assert read is None or read == expected, read_chunk
        outcomes.add(read is None)
    assert outcomes == {True, False}


def test_verify_reads_a_fifo_once(tmp_path):
    # an indented design is not the writer's layout, so the JSON path parses
    # the bytes already read: the FIFO cannot be read a second time
    text = json.dumps(design_json_dict(engine.construct_design(make_group([10]))), indent=2)
    assert engine._design_from_bytes(text.encode("utf-8")) is None
    fifo = tmp_path / "design.fifo"
    os.mkfifo(fifo)
    proc = subprocess.Popen(
        [sys.executable, "-m", "kohler_sqs", "verify", str(fifo)], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    threading.Thread(target=fifo.write_text, args=(text,), daemon=True).start()
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, hashlib.sha256(out).hexdigest(), err) == (*VERIFY_OK, b"")


@pytest.mark.parametrize(
    "content",
    [
        b'\xef\xbb\xbf{"group": [10]}',
        b'{"group":\r\n [2,\r\n,]}',
        b'{"group":\r [2,\r\r ]}',
        b'{"group": [2],\r\n "h0": "\xe9"}',
    ],
    ids=["bom", "crlf", "cr", "not-utf8"],
)
def test_verify_decodes_as_a_text_mode_read(tmp_path, capsys, content):
    # the JSON path decodes the bytes it was handed as reading the file in
    # text mode does: UTF-8, universal newlines, the same error offsets
    path = tmp_path / "design.json"
    path.write_bytes(content)
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as exc:
        json.load(fh)
    assert run_cli(capsys, "verify", str(path)) == (1, "", f"error: cannot read {path} as JSON: {exc.value}\n")


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


def test_a_space_inside_a_factor_exit_1(capsys):
    # "1 0 0" is no spec for Z100: spaces may stand around a factor only
    code, out, err = run_cli(capsys, "exists", "--group", "1 0 0")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["construct", "exists", "graph", "count"])
def test_group_spec_past_the_digit_limit_exit_1(capsys, command):
    # a factor longer than int() converts is a usage error, not a traceback
    code, out, err = run_cli(capsys, command, "--group", "2" + "0" * 5000)
    assert (code, out) == (1, "")
    assert err == "error: a cyclic factor in the group spec has 5001 digits, too many to read\n"


# orders past the 4300 digits str() writes by default: 2^15000, of 4516
# digits, is admissible but over the capacity limit, and 3^10000 is odd
HUGE_ORDER_ERRORS = {
    **{
        (command, "2"): "error: group order <15001-bit number> exceeds the enumeration limit 10000"
        for command in ("construct", "exists", "count", "graph")
    },
    ("construct", "3"): "error: no SQS(<15850-bit number>) exists: order must be 2 or 4 mod 6, got 3\n",
}


@pytest.mark.parametrize("command, factor", [*HUGE_ORDER_ERRORS, ("exists", "3")])
def test_a_huge_order_is_named_by_its_bit_length(command, factor):
    spec = ",".join([factor] * (15000 if factor == "2" else 10000))
    env = {k: v for k, v in os.environ.items() if k != "KOHLER_SQS_MAX_V"}
    proc = subprocess.run([sys.executable, "-m", "kohler_sqs", command, "--group", spec], capture_output=True, env=env)
    err = proc.stderr.decode()
    assert "Traceback" not in err
    if (command, factor) in HUGE_ORDER_ERRORS:
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert err.startswith(HUGE_ORDER_ERRORS[command, factor]) and err.count("\n") == 1, err
    else:
        assert (proc.returncode, err) == (2, "")
        assert json.loads(proc.stdout) == {
            "diagnostics": {},
            "reason": {
                "detail": "no SQS(<15850-bit number>) exists for any block set: v mod 6 = 3,"
                " but 2 or 4 is required (v is odd)",
                "rule": "order-residue",
            },
            "verdict": "no",
            "witness": None,
        }


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


def test_a_read_design_keeps_one_object_per_tag(tmp_path, capsys):
    # the tags repeat over each orbit; reading them shares the equal ones
    path = tmp_path / "design.json"
    assert run_cli(capsys, "construct", "--group", "4,25", "--out", str(path))[0] == 0
    provenance = cli._read_design(str(path)).provenance
    assert len(provenance) == 40425
    assert len(set(map(id, provenance))) == len(set(provenance))


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


@pytest.mark.parametrize("provenance", ["B", [1], [None], {"x": 1}], ids=repr)
def test_verify_provenance_must_be_a_list_of_strings_exit_1(tmp_path, capsys, provenance):
    # nothing is coerced to a provenance tag; a bad block is named first
    path = tmp_path / "design.json"
    payload = {"group": [4], "h0": [2], "blocks": [[[0], [1], [2], [3]]], "provenance": provenance}
    for blocks, message in (
        (payload["blocks"], "error: design provenance must be a list of strings\n"),
        ([[[0], [1], [2], [9]]], "error: (9,) is not an element of Z4\n"),
    ):
        path.write_text(json.dumps(dict(payload, blocks=blocks)))
        assert run_cli(capsys, "verify", str(path)) == (1, "", message)


@pytest.mark.parametrize("blocks", ["{}", '""'])
def test_verify_blocks_must_be_a_list_exit_1(tmp_path, capsys, blocks):
    # read as no blocks, these listed every triple of Z10 as missing
    path = tmp_path / "design.json"
    path.write_text('{"blocks":' + blocks + ',"group":[10],"h0":[5],"provenance":[]}')
    assert run_cli(capsys, "verify", str(path)) == (1, "", "error: design blocks must be a list of blocks\n")


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


@pytest.mark.parametrize("h0", ["0_5", "\u0665", "+5", "5\n"])
def test_h0_reads_ascii_digits_only(capsys, h0):
    # int() would read each of these as 5, the involution of Z10
    for command in ("construct", "count"):
        code, out, err = run_cli(capsys, command, "--group", "10", "--h0", h0)
        assert (code, out) == (1, "") and err == f"error: cannot parse h0 {h0!r}: expected comma-separated residues\n"
    assert run_cli(capsys, "count", "--group", "10", "--h0", " 5")[0] == 0


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


def _readme_cli_commands() -> list[list[str]]:
    """The argv of each command in the README's CLI code block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert all(argv[0] == "kohler-sqs" for argv in commands)
    return [argv[1:] for argv in commands]


def test_readme_cli_commands_run(tmp_path, capsys, monkeypatch):
    # in the order documented, so the file a construct --out writes is the
    # one a later verify reads
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert ["verify", "d.json"] in commands
    assert commands.index(["verify", "d.json"]) > commands.index(["construct", "--group", "10", "--out", "d.json"])
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        if "--out" in argv:
            # the document goes to the file instead of stdout
            assert out == ""
            out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        assert out.endswith("\n") and out.count("\n") == 1, argv
        assert isinstance(json.loads(out), dict), argv
