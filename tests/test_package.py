import ast
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import kohler_sqs

# the package's public names; a change to this list is an API change
PUBLIC_NAMES = [
    "CapacityError",
    "ConstructionFailure",
    "Design",
    "Element",
    "ExistenceVerdict",
    "Group",
    "InternalInconsistencyError",
    "InvalidInputError",
    "InvalidOrderError",
    "InvalidSpecError",
    "KohlerGraph",
    "KohlerSqsError",
    "Matching",
    "NoInvolutionError",
    "NoPerfectMatching",
    "OrbitRep",
    "VerificationReport",
    "build_B0",
    "build_graph",
    "canonicalize",
    "choose_h0",
    "construct_design",
    "count_B0_formula",
    "count_special_triples_formula",
    "design_from_json_dict",
    "existence_check",
    "expand_orbit",
    "graph_stats",
    "is_symmetric_block",
    "make_group",
    "maximum_matching",
    "one_factor",
    "parse_group_spec",
    "verify_design",
]


def test_public_names_are_pinned():
    assert kohler_sqs.__all__ == PUBLIC_NAMES
    assert all(hasattr(kohler_sqs, name) for name in PUBLIC_NAMES)


def test_runtime_modules_are_pinned():
    # test-only oracles and fixtures live under tests/, not in the package
    modules = sorted(info.name for info in pkgutil.iter_modules(kohler_sqs.__path__))
    assert modules == ["__main__", "cli", "engine", "errors", "groups", "kohler", "matching", "orbits"]


def test_runtime_modules_import_nothing_unused():
    # no linter is a dependency: every name a runtime module imports must be read
    for path in sorted(Path(kohler_sqs.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, f"{path.name} imports {sorted(imported - read)} unused"


def _calls(node: ast.AST, scope: str = ""):
    """(qualified name of the enclosing function or class, call) for each
    call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield scope, child
        inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield from _calls(child, inner)


def test_the_one_constructor_without_the_block_check_checks_orbits_first():
    # a record made without its __init__ skips the block check: only
    # Design._from_orbits may, and only once its orbits have passed
    # _orbits_form_sqs, in a statement before the record is made that raises
    # when they fail
    calls = [
        (path.name, scope, call)
        for path in sorted(Path(kohler_sqs.__file__).parent.glob("*.py"))
        for scope, call in _calls(ast.parse(path.read_text(), str(path)))
    ]
    makers = {(name, scope) for name, scope, call in calls if getattr(call.func, "attr", None) == "__new__"}
    assert makers == {("engine.py", "Design._from_orbits")}
    engine_tree = ast.parse((Path(kohler_sqs.__file__).parent / "engine.py").read_text())
    (from_orbits,) = [
        node for node in ast.walk(engine_tree) if isinstance(node, ast.FunctionDef) and node.name == "_from_orbits"
    ]
    made = [
        i
        for i, statement in enumerate(from_orbits.body)
        if any(getattr(call.func, "attr", None) == "__new__" for _, call in _calls(ast.Module([statement], [])))
    ]
    assert len(made) == 1
    guards = [
        statement
        for statement in from_orbits.body[: made[0]]
        if isinstance(statement, ast.If)
        and not statement.orelse
        and [type(s) for s in statement.body] == [ast.Raise]
        and isinstance(statement.test, ast.UnaryOp)
        and isinstance(statement.test.op, ast.Not)
        and isinstance(statement.test.operand, ast.Call)
        and ast.unparse(statement.test.operand.func) == "_orbits_form_sqs"
    ]
    assert len(guards) == 1


def test_every_private_runtime_definition_is_used():
    # a private function, method, class or module constant that no runtime
    # code reads is dead code, or a test-only oracle that belongs under tests/
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(Path(kohler_sqs.__file__).parent.glob("*.py"))]
    names = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    names |= {
        target.id
        for tree in trees
        for statement in tree.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for target in (statement.targets if isinstance(statement, ast.Assign) else [statement.target])
        if isinstance(target, ast.Name)
    }
    defined = {name for name in names if name.startswith("_") and not name.startswith("__")}
    # a name is read where it is loaded, not where it is assigned
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    assert defined <= read, f"private definitions the package never reads: {sorted(defined - read)}"


def test_every_runtime_parameter_is_read():
    # a parameter its function, nested function or lambda never reads is an
    # argument left behind; a dunder method takes what its protocol passes
    unread = []
    for path in sorted(Path(kohler_sqs.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            args = node.args
            params = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if arg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                child.id
                for statement in body
                for child in ast.walk(statement)
                if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
            }
            unread += [f"{path.name}:{node.lineno} {name}({param})" for param in params if param not in read]
    assert not unread, f"parameters never read: {unread}"


SRC = Path(kohler_sqs.__file__).resolve().parent.parent

# modules no command needs at start-up, each paid for by every command that
# loads them: what the dataclasses module brings in, and array, which only
# verify imports
UNNEEDED_AT_START_MODULES = ["dataclasses", "inspect", "ast", "dis", "tokenize", "array"]


def _bare_python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """``python -S`` (no site-packages) with only ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-S", *args], env=env, cwd=cwd, capture_output=True, timeout=120)


def test_the_command_line_imports_no_module_it_does_not_need_at_start():
    script = "import sys, kohler_sqs.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    proc = _bare_python("-c", script, *UNNEEDED_AT_START_MODULES)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[]\n", b"")


def test_only_verify_loads_array():
    # array holds the codes of a design read from a file; a command that
    # reads none never loads it, so its peak memory does not pay for it
    script = (
        "import contextlib, io, sys\n"
        "from kohler_sqs import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, 'array' in sys.modules)\n"
    )
    for argv, code in (
        ("construct --group 4,25", 0),
        ("exists --group 2,2,25", 0),
        ("exists --group 196", 2),
        ("graph --stats --group 250", 0),
        ("count --group 2,2,2,2,2,2", 0),
    ):
        proc = _bare_python("-c", script, *argv.split())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{code} False\n".encode(), b""), argv
    sqs20 = SRC.parent / "bench" / "data" / "sqs20.json"
    proc = _bare_python("-c", script, "verify", str(sqs20))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"0 True\n", b"")


def test_construct_and_verify_run_without_site_packages(tmp_path):
    construct = _bare_python("-m", "kohler_sqs", "construct", "--group", "2,2,5", "--out", "f", cwd=tmp_path)
    assert (construct.returncode, construct.stdout) == (0, b""), construct.stderr
    verify = _bare_python("-m", "kohler_sqs", "verify", "f", cwd=tmp_path)
    assert (verify.returncode, verify.stderr) == (0, b""), verify.stderr


def test_the_readme_claims_table_names_existing_tests():
    # each claim cites the test that checks it; a renamed test must not leave it pointing nowhere
    root = SRC.parent
    cited = [
        cite
        for line in (root / "README.md").read_text().splitlines()
        if line.startswith("|")
        for cite in re.findall(r"`(tests/\w+\.py)::(\w+)`", line)
    ]
    assert cited, "the claims table cites no test"
    for path, name in cited:
        tree = ast.parse((root / path).read_text(), path)
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name.startswith("test_") and name in defined, f"{path}::{name}"


def test_every_module_parses_as_the_oldest_supported_python():
    # pyproject.toml declares requires-python >= 3.10; no module may use
    # syntax that 3.10 does not parse
    project = (SRC.parent / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in project
    paths = sorted(Path(kohler_sqs.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))
