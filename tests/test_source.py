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


def test_no_private_names_of_other_modules():
    # a module reads only the public names of its siblings, so a private
    # name can change without a search of the whole package
    offenders = []
    for path in Path(qetsim.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("qetsim")):
                if node.module in (None, "qetsim"):
                    siblings.update(alias.asname or alias.name
                                    for alias in node.names)
                offenders += [f"{path.name}:{node.lineno}"
                              for alias in node.names
                              if alias.name.startswith("_")]
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in siblings
                      and node.attr.startswith("_")]
    assert sorted(offenders) == []


def test_checks_fold_through_one_rule():
    # builtin max drops a NaN that is not its first argument, so checks.py
    # folds with np.max, and only checks._result builds a CheckResult
    tree = ast.parse((Path(qetsim.__file__).parent / "checks.py").read_text(
        encoding="utf-8"))
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_result"
              for node in ast.walk(fn)}
    offenders = [f"checks.py:{node.lineno} {node.func.id}"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and (node.func.id == "max" or node.func.id == "CheckResult"
                      and id(node) not in inside)]
    assert offenders == []
