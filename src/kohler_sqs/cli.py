"""Command-line front end: construct, verify, graph, exists, count.

All stdout is a single JSON document; human-readable notes go to stderr.
Exit codes are stable so scripts can branch on them:

* 0 - success (and for ``exists``: verdict yes)
* 1 - usage error, unparseable input, or invalid group order
* 2 - construction failure / verdict no
* 3 - verification failed
* 4 - verdict unknown

The KOHLER_SQS_MAX_V environment variable raises the group-order capacity
limit (default 10000).
"""

from __future__ import annotations

import argparse
import sys

from . import engine, kohler
from .engine import ConstructionFailure
from .errors import InvalidInputError, KohlerSqsError
from .groups import Element, Group, _ascii_int, parse_group_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO = 2
EXIT_VERIFY_FAILED = 3
EXIT_UNKNOWN = 4


def _emit(payload: dict | engine.Design, fh=None) -> None:
    """One line of compact, key-sorted JSON to ``fh``, stdout by default.

    A :class:`~kohler_sqs.engine.Design`, whole or as a value of ``payload``,
    is streamed by :meth:`~kohler_sqs.engine.Design.write_json`."""
    fh = sys.stdout if fh is None else fh
    if isinstance(payload, engine.Design):
        payload.write_json(fh)
    else:
        fh.write("{")
        for i, key in enumerate(sorted(payload)):
            fh.write(("," if i else "") + engine._dumps(key) + ":")
            value = payload[key]
            if isinstance(value, engine.Design):
                value.write_json(fh)
            else:
                fh.write(engine._dumps(value))
        fh.write("}")
    fh.write("\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_h0(g: Group, raw: str | None) -> Element | None:
    if raw is None:
        return None
    try:
        coords = tuple(map(_ascii_int, raw.split(",")))
        if None in coords:
            raise ValueError(raw)
    except ValueError as exc:  # also a coordinate past int()'s limit on digits
        raise InvalidInputError(
            f"cannot parse h0 {raw!r}: expected comma-separated residues"
        ) from exc
    g.validate_element(coords)
    return coords


def _cmd_construct(args: argparse.Namespace) -> int:
    g = parse_group_spec(args.group)
    h0 = _parse_h0(g, args.h0)
    try:
        design = engine.construct_design(g, h0=h0)
    except ConstructionFailure as exc:
        _note(str(exc))
        _note("a 1-factor of the Koehler graph is required; none exists for this group")
        return EXIT_NO
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _emit(design, fh)
        _note(f"wrote {design.block_count} blocks to {args.out}")
    else:
        _emit(design)
    return EXIT_OK


def _read_design(path: str) -> engine.Design:
    """The design in the file at ``path``; see :func:`engine._design_from_file`."""
    with open(path, "rb", buffering=0) as fh:  # read whole: a buffer would be held to no use
        return engine._design_from_file(fh)


def _cmd_verify(args: argparse.Namespace) -> int:
    design = _read_design(args.design)
    report = design.verify()
    _emit(report.to_json_dict())
    return EXIT_OK if report.is_sqs and report.is_reversible else EXIT_VERIFY_FAILED


def _cmd_graph(args: argparse.Namespace) -> int:
    g = parse_group_spec(args.group)
    graph = kohler.build_graph(g)
    if args.export:
        _emit(kohler.export_graph(graph))
    else:
        _emit(kohler.graph_stats(graph))
    return EXIT_OK


def _cmd_exists(args: argparse.Namespace) -> int:
    g = parse_group_spec(args.group)
    verdict = engine.existence_check(g)
    _emit(verdict.to_json_dict())
    if verdict.verdict == "yes":
        return EXIT_OK
    if verdict.verdict == "no":
        return EXIT_NO
    return EXIT_UNKNOWN


def _cmd_count(args: argparse.Namespace) -> int:
    g = parse_group_spec(args.group)
    h0 = _parse_h0(g, args.h0)
    engine.require_sqs_order(g)
    if h0 is None:
        h0 = engine.choose_h0(g)
    formula_b0 = engine.count_B0_formula(g)
    formula_special = engine.count_special_triples_formula(g)
    enum_b0 = engine.count_B0(g, h0)
    enum_special = engine.count_special_triples(g)
    agree = formula_b0 == enum_b0 and formula_special == enum_special
    _emit(
        {
            "group": list(g.factors),
            "h0": list(h0),
            "b0_size": formula_b0,
            "special_triples": formula_special,
            "formula_values": {"b0_size": formula_b0, "special_triples": formula_special},
            "enumeration_values": {"b0_size": enum_b0, "special_triples": enum_special},
            "agree": agree,
        }
    )
    return EXIT_OK if agree else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kohler-sqs",
        description="Construct and verify reversible Steiner quadruple systems "
        "over finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a design for a group")
    p_construct.add_argument("--group", required=True, help="factor list, e.g. 2,2,5 or Z4xZ4")
    p_construct.add_argument("--out", help="write the design JSON to this path")
    p_construct.add_argument("--h0", help="override the involution, e.g. 1,0,0")
    p_construct.set_defaults(func=_cmd_construct)

    p_verify = sub.add_parser("verify", help="verify a design JSON file")
    p_verify.add_argument("design", help="path to a design JSON file")
    p_verify.set_defaults(func=_cmd_verify)

    p_graph = sub.add_parser("graph", help="analyze the Koehler graph of a group")
    p_graph.add_argument("--group", required=True)
    mode = p_graph.add_mutually_exclusive_group()
    mode.add_argument("--stats", action="store_true", help="summary statistics (default)")
    mode.add_argument("--export", action="store_true", help="full adjacency JSON")
    p_graph.set_defaults(func=_cmd_graph)

    p_exists = sub.add_parser("exists", help="decide existence of a reversible SQS")
    p_exists.add_argument("--group", required=True)
    p_exists.set_defaults(func=_cmd_exists)

    p_count = sub.add_parser("count", help="forced-block and special-triple counts")
    p_count.add_argument("--group", required=True)
    p_count.add_argument("--h0", help="override the involution")
    p_count.set_defaults(func=_cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (KohlerSqsError, OSError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
