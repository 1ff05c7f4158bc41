"""The runtime-dependency promise: the package imports only the standard library."""

import ast
import pathlib
import sys

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lehmerpark"


def test_every_import_is_package_relative_or_stdlib():
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
