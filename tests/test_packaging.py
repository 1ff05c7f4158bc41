"""Guards over the package source: the runtime-dependency promise (the package
imports only the standard library), no unused import, no import cycle, no
recursion, no network or XML stack loaded by the CLI, and no module loaded that
a verb does not run."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import lehmerpark

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


def _exports(trees) -> dict[str, tuple[str, ...]]:
    """The package's table `_EXPORTS`, read from the syntax tree of __init__.py."""
    return next(
        ast.literal_eval(node.value) for path, tree in trees if path.name == "__init__.py"
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS"
    )


def test_every_imported_name_is_used_or_exported():
    # __init__.py imports only to re-export, so it is exempt
    unused = []
    trees = _parsed()
    exports = _exports(trees)
    for path, tree in trees:
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
                # a literal list, or `_EXPORTS["m"]`: the package's names of module m
                value = node.value
                is_row = isinstance(value, ast.Subscript)
                read.update(exports[value.slice.value] if is_row else ast.literal_eval(value))
        unused += [f"{path.name}: {name}" for name in imported if name not in read]
    assert unused == []


def test_verify_alone_stamps_n_on_a_discrepancy():
    # a check yields its lines without their n, and the per-n loop of `verify` adds it
    source = (SOURCE / "enumeration.py").read_text()
    verify = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name == "verify"
    )
    assert source.count("n={n}: ") == ast.get_source_segment(source, verify).count("n={n}: ") == 1


def test_no_top_level_function_or_class_is_defined_in_two_modules():
    # a plain sweep and the object wrapper of the same name hide which one a module
    # calls; the module hooks of PEP 562 (__getattr__, __dir__) are exempt
    where: dict[str, list[str]] = {}
    for path, tree in _parsed():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                where.setdefault(node.name, []).append(path.name)
    assert {name: files for name, files in where.items() if len(files) > 1} == {}


def _imports(module: str) -> tuple[set[str], set[str]]:
    """The package modules and the top-level outside modules that `module` imports."""
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    relative = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    absolute = {
        alias.name.partition(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.partition(".")[0] for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and not node.level and node.module != "__future__"
    }
    return relative, absolute


def test_the_plain_core_imports_only_errors_and_the_standard_library():
    relative, absolute = _imports("_plain")
    assert relative == {"errors"}
    assert absolute <= sys.stdlib_module_names and "dataclasses" not in absolute


def test_counting_imports_only_errors_and_the_size_refusals_are_worded_there():
    # the count verbs load `counting` with `cli` and `errors` alone, and a size refusal is
    # worded once, in `errors._size`, not copied beside each guard
    relative, absolute = _imports("counting")
    assert relative == {"errors"}
    assert absolute <= sys.stdlib_module_names
    worded_in = {
        path.name for path, _ in _parsed()
        for phrase in ("must be nonnegative", "past the ceiling")
        if phrase in path.read_text()
    }
    assert worded_in == {"errors.py"}


def test_the_cli_reads_its_input_lines_in_one_function():
    # the verbs that take values share one read-write loop, so each read's replies are
    # written and flushed together by every one of them
    tree = ast.parse((SOURCE / "cli.py").read_text())
    callers = {
        func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_reads"
    }
    assert callers == {"_each_value"}


def test_the_package_imports_form_no_cycle():
    # every relative import counts, those inside functions too: a cycle ties two
    # modules' load order to whichever a caller happens to import first
    trees = _parsed()
    modules = {path.stem for path, _ in trees}
    imports = {}
    for path, tree in trees:
        targets = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [alias.name for alias in node.names]
                targets.update(name for name in names if name in modules)
        imports[path.stem] = targets - {path.stem}
    # peel off the modules that import nothing left; a cycle is what cannot be peeled
    while leaves := [m for m, targets in imports.items() if not targets & imports.keys()]:
        for m in leaves:
            del imports[m]
    assert imports == {}


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

# the modules that define the dataclasses
OBJECT_MODULES = {"armleg", "bijection", "paren", "parking", "permutation", "setpartition"}


@pytest.mark.parametrize("module", sorted(OBJECT_MODULES))
def test_an_object_module_exports_the_row_of_the_package_table(module):
    # `_EXPORTS` is the one list of a module's public names; its `__all__` reads it
    names = importlib.import_module(f"lehmerpark.{module}").__all__
    assert names is lehmerpark._EXPORTS[module]
    assert set(names) == set(EXPORTED[module].split())


_LOADED = (
    "import sys; from lehmerpark.cli import main; code = main(sys.argv[1:]); "
    "print(code, sorted(m for m in sys.modules if m == 'dataclasses' or m.startswith('lehmerpark')))"
)


@pytest.mark.parametrize("argv", [
    ("count", "bell", "--n", "1"),
    ("count", "outcomes", "--n", "5"),
    ("enumerate", "outcomes", "--n", "3"),
    ("enumerate", "lehmer", "--n", "3"),
])
def test_counting_verbs_load_only_cli_errors_and_counting(argv):
    last = _probe(_LOADED, *argv).splitlines()[-1]
    assert last == "0 ['lehmerpark', 'lehmerpark.cli', 'lehmerpark.counting', 'lehmerpark.errors']"


# `_LOADED` with stderr dropped, where verify writes its summary
_LOADED_QUIETLY = (
    "import contextlib, io, sys; from lehmerpark.cli import main\n"
    "with contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = main(sys.argv[1:])\n"
    "print(code, sorted(m for m in sys.modules if m == 'dataclasses' or m.startswith('lehmerpark')))"
)


def _loaded(*argv: str, patch: str = "") -> tuple[int, set[str]]:
    """The exit code of one CLI run in a fresh interpreter, after the statements
    `patch`, and the package modules (by their short names) and `dataclasses` it loaded."""
    code, names = _probe(f"{patch}\n{_LOADED_QUIETLY}", *argv).splitlines()[-1].split(" ", 1)
    return int(code), {name.rpartition(".")[2] for name in ast.literal_eval(names)}


@pytest.mark.parametrize("argv", [
    ("park", "2,2,1"),
    ("invtable", "to-table", "5,2,4,6,1,3"),
    ("invtable", "from-table", "4,1,3,1,0,0"),
    ("phi", "3,4,1,5,2,6"),
    ("to-gbsp", "3,4,1,5,2,6"),
    ("from-gbsp", "(_ (_ 2 1) (_) 1)"),
    ("to-partition", "3,4,1,5,2,6"),
    ("from-partition", "{1,4}|{2,3,6}|{5}"),
    ("check", "parking-function", "3,1,1"),
    ("check", "lehmer", "3,1,1"),
    ("check", "weakly-decreasing", "3,1,1"),
    ("check", "outcome-membership", "3,4,1,6,2,5"),
    ("fiber", "(_ (_ _ _) (_) _)"),
    ("fiber", "--count", "(_ (_ _ _) (_) _)"),
    ("enumerate", "partitions", "--n", "3"),
    ("enumerate", "bsp", "--n", "3"),
    ("enumerate", "gbsp", "--n", "3"),
    ("render", "armleg", "3,4,1,5,2,6"),
    ("render", "armleg", "--format", "svg", "--extend", '{"n":3,"points":[[1,3],[3,2]]}'),
    ("render", "paren", "(_ (_ 2 1) (_) 1)"),
    ("render", "paren", "--format", "svg", "(_ (_ _ _) (_) _)"),
    ("render", "paren", '{"n":3,"F":[1],"L":[3],"g":{"2":1,"3":1}}'),
    ("render", "paren", "--format", "svg", '{"n":6,"F":[1,2,5],"L":[4,5,6]}'),
])
def test_plain_verbs_load_no_object_module_and_no_dataclasses(argv):
    code, loaded = _loaded(*argv)
    assert code == 0 and loaded & (OBJECT_MODULES | {"dataclasses"}) == set()


@pytest.mark.parametrize("theorem", [
    "lemma1.2", "thm2.4", "lemma3.4", "lemma3.5", "lemma3.7", "lemma3.9", "cor3.10", "lemma3.12",
    "lemma3.13", "lemma3.14", "cor3.15", "lemma3.16", "thm3.1", "prop4.1", "lemma4.2", "thm4.3",
    "stirling", "peaks",
])
def test_only_the_diagram_checks_load_object_modules(theorem):
    # no check loads an object module or dataclasses, the diagram checks included, and each passes
    code, loaded = _loaded("verify", theorem, "--n-max", "4")
    assert code == 0 and loaded & (OBJECT_MODULES | {"dataclasses"}) == set()


# for each check, statements that swap a plain leg for a wrong one, so that it finds discrepancies
_PLAIN = "import lehmerpark._plain as p\n"
_DROP_A_BLOCK = _PLAIN + "leg = p._from_gbsp; p._from_gbsp = lambda *a: leg(*a)[1:]"
_WRONG_LEG = {
    "lemma3.7": _PLAIN + "p._matching_pairs = lambda n, F, L: ()",
    "lemma3.9": _PLAIN + "p._phi_prime_inv = lambda n, F, L, g: (3, 4, 1, 6, 2, 5)",
    "lemma3.14": _DROP_A_BLOCK,
    "lemma3.16": _DROP_A_BLOCK,
}


@pytest.mark.parametrize("theorem", _WRONG_LEG)
def test_a_failing_check_loads_no_object_module_or_dataclasses(theorem):
    # a discrepancy names a parenthesization in the string grammar, with no object
    code, loaded = _loaded("verify", theorem, "--n-max", "4", patch=_WRONG_LEG[theorem])
    assert code == 2 and loaded & (OBJECT_MODULES | {"dataclasses"}) == set()


def test_the_benchmark_tracer_imports_against_the_source():
    # perfbench/tracing.py imports public names and `cli._dump` from src/; renaming
    # one fails here, not at the next traced benchmark run
    perfbench = SOURCE.parents[1] / "perfbench"
    code = "import sys; sys.dont_write_bytecode = True; sys.path.insert(0, sys.argv[1])\n"
    assert _probe(code + "import tracing", str(perfbench)) == ""


def test_the_name_render_is_the_function_until_the_render_module_is_imported():
    # the package exports paren.render as `render`, and importing the `render`
    # submodule rebinds the package attribute to the module, in either order
    code = (
        "import lehmerpark, lehmerpark.paren; before = lehmerpark.render; "
        "import lehmerpark.render; "
        "print(before is lehmerpark.paren.render, lehmerpark.render is before, "
        "type(lehmerpark.render).__name__)"
    )
    assert _probe(code) == "True False module\n"
    code = "import lehmerpark.render; from lehmerpark import render; print(type(render).__name__)"
    assert _probe(code) == "module\n"


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
