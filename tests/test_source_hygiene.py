"""Static checks on the package source: code that only tests call is deleted."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cuspcount"


def _private_definitions(tree):
    """(name, node) for each module-level function, class or constant whose
    name starts with exactly one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_helper_is_used_by_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert "standard_basis.py" in trees
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(
                isinstance(node, ast.Name) and node.id == name and id(node) not in inside
                for other in trees.values() for node in ast.walk(other)
            ):
                unused.append(f"{module}: {name}")
    assert not unused, f"private names no code in the package uses: {unused}"


def _slot_names(tree):
    """(class name, slot) for each string in a class's __slots__."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
            ):
                value = stmt.value
                items = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
                for item in items:
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        yield node.name, item.value


def test_every_slot_is_read_by_the_package():
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    read = {
        node.attr for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    slots = [(cls, name) for tree in trees for cls, name in _slot_names(tree)]
    assert ("_Elem", "lm") in slots
    unread = [f"{cls}.{name}" for cls, name in slots if name not in read]
    assert not unread, f"slots no code in the package reads: {unread}"
