"""Static checks on the package source: code that only tests call is deleted,
and each error class is raised where its meaning says."""

import ast
from pathlib import Path

from cuspcount import errors

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



def _raises():
    """(qualified name of the enclosing def, raised name) for each
    `raise Name` or `raise Name(...)` in the package, a raised attribute
    counting by its last name."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = getattr(child.exc, "func", child.exc)
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name:
                    yield scope, name
            yield from visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(ast.parse(path.read_text(), str(path)), path.stem)


ERROR_CLASSES = {name: c for name, c in vars(errors).items()
                 if isinstance(c, type) and c.__module__ == errors.__name__}


def test_hypothesis_errors_are_raised_only_where_hypotheses_are_decided():
    # exit 2 means the family failed a hypothesis: derive and
    # verify_hypotheses decide them, and compute_xi's cap bounds xi
    hypothesis = {name for name, c in ERROR_CLASSES.items()
                  if issubclass(c, errors.HypothesisError)}
    assert {scope for scope, name in _raises() if name in hypothesis} == {
        "cusp_pipeline.derive", "cusp_pipeline.verify_hypotheses",
        "branch_counter.compute_xi",
    }


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    live = {base for _, name in _raises() if name in ERROR_CLASSES
            for base in ERROR_CLASSES[name].__mro__}
    dead = sorted(name for name, c in ERROR_CLASSES.items() if c not in live)
    assert not dead, f"error classes the package never raises: {dead}"
