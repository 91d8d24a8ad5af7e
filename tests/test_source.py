import ast
from pathlib import Path

import qetsim


def test_no_imports_inside_functions():
    # a function-local import hides a module's dependencies from its header
    offenders = set()
    for path in Path(qetsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders.update(
                    f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom)))
    assert sorted(offenders) == []
