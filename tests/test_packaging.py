"""Guards over the package source: the runtime-dependency promise (the package
imports only the standard library), no unused import, no recursion, no network
or XML stack loaded by the CLI, and no module loaded that a verb does not run."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lehmerpark"


def _parsed():
    """(path, syntax tree) of every module under src/lehmerpark."""
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in modules]


def test_every_import_is_package_relative_or_stdlib():
    outside = []
    for path, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one
            outside += [
                f"{path.name}: {name}" for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_every_imported_name_is_used_or_exported():
    # __init__.py imports only to re-export, so it is exempt
    unused = []
    for path, tree in _parsed():
        if path.name == "__init__.py":
            continue
        imported = []
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
        unused += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unused == []


def _callee(func: ast.expr) -> str | None:
    # the name a call reaches by: f(...), self.f(...) or cls.f(...)
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.attr if func.value.id in ("self", "cls") else None
    return None


def test_no_function_calls_itself():
    # a recursive function fails past the recursion limit, whatever n the caller picks
    recursive = []
    for path, tree in _parsed():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call) and _callee(node.func) == fn.name
                for node in ast.walk(fn)
            ):
                recursive.append(f"{path.name}: {fn.name}")
    assert recursive == []


def _probe(code: str, *argv: str) -> str:
    """stdout of `code` run in a fresh interpreter, which must exit 0 and print nothing to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


def test_cli_import_loads_no_network_or_xml_module():
    # the bare interpreter already loads urllib.parse through site, so urllib is left out
    probe = (
        "import sys, lehmerpark.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in {'http', 'email', 'ssl', 'socket', 'xml'}))"
    )
    assert _probe(probe) == "[]\n"


# the names the package exported by eager imports, by the module it imported each from
EXPORTED = {
    "armleg": "GridPoint PartialArmLegDiagram arms_legs depth_at is_intersecting peaks peaks_from_pairs",
    "bijection": "OutcomePermutation fiber fiber_size outcome_to_partition partition_to_outcome "
                 "phi phi_prime phi_prime_inv",
    "enumeration": "VerificationReport all_lehmer bell catalan iter_outcome_words "
                   "outcome_peak_counts outcome_set outcome_words theorem_ids verify",
    "errors": "GbspError LehmerError ParseError",
    "paren": "GBsp MatchedPairs SpacedParen depth depths enumerate_bsps enumerate_gbsps "
             "is_balanced matching_pairs parse render",
    "parking": "ParkOutcome PrefTuple canonical_lehmer_preimage is_lehmer is_parking_function "
               "is_weakly_decreasing lehmer_from_inversion_table park",
    "permutation": "InversionTable Permutation contains_armleg_pattern contains_pattern_132 "
                   "from_inversion_table identity inverse inversion_table",
    "setpartition": "SetPartition enumerate_partitions from_gbsp min_max to_gbsp",
}

_LOADED = (
    "import sys; from lehmerpark.cli import main; code = main(sys.argv[1:]); "
    "print(code, sorted(m for m in sys.modules if m == 'dataclasses' or m.startswith('lehmerpark')))"
)


@pytest.mark.parametrize("argv", [
    ("count", "bell", "--n", "1"),
    ("count", "outcomes", "--n", "5"),
    ("enumerate", "outcomes", "--n", "3"),
])
def test_counting_verbs_load_only_cli_errors_and_counting(argv):
    last = _probe(_LOADED, *argv).splitlines()[-1]
    assert last == "0 ['lehmerpark', 'lehmerpark.cli', 'lehmerpark.counting', 'lehmerpark.errors']"


def test_package_import_loads_no_submodule():
    loaded = _probe("import sys, lehmerpark; print(sorted(m for m in sys.modules if 'lehmerpark' in m))")
    assert loaded == "['lehmerpark']\n"


def test_every_exported_name_is_the_object_of_its_module():
    # in a fresh interpreter: once imported, the render module shadows the name `render`
    code = (
        "import importlib, json, sys, lehmerpark; table = json.loads(sys.argv[1]); "
        "print(sorted(f'{m}.{name}' for m, names in table.items() for name in names.split() "
        "if getattr(lehmerpark, name) is not getattr(importlib.import_module(f'lehmerpark.{m}'), name)))"
    )
    assert _probe(code, json.dumps(EXPORTED)) == "[]\n"


def test_star_import_binds_the_exported_names_and_the_modules():
    code = "ns = {}; exec('from lehmerpark import *', ns); print(' '.join(sorted(ns.keys() - {'__builtins__'})))"
    names = {name for names in EXPORTED.values() for name in names.split()}
    assert _probe(code).split() == sorted(names | EXPORTED.keys() | {"counting"})
