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


def test_no_per_element_vectorize():
    # np.vectorize runs a Python function once per element; batches take
    # the same array code path as scalars instead
    offenders = []
    for path in Path(qetsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name == "vectorize":
                offenders.append(f"{path.name}:{node.lineno}")
    assert sorted(offenders) == []
