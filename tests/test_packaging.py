"""Guards over the package source: the runtime-dependency promise (the package
imports only the standard library), no unused import, no recursion, and no
network or XML stack loaded by the CLI."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_cli_import_loads_no_network_or_xml_module():
    # the bare interpreter already loads urllib.parse through site, so urllib is left out
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")]))
    probe = (
        "import sys, lehmerpark.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.partition('.')[0] in {'http', 'email', 'ssl', 'socket', 'xml'}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
