"""Every public name of the package has a caller outside the tests.

A public top-level function or class of `src/ergoplan/*.py`, and every
public method, must be named somewhere other than its own definition: in
the package, the demos or the benchmark harness. A name counts where code
refers to it, as a name, an attribute or an import; comments, strings and
documentation do not count. Tests are not callers: a name that only tests
reach is surface to delete, and its tests move onto the function the
pipeline runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ergoplan"
CALLER_FILES = sorted(
    [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
)


def _references(tree):
    """(name, line) of every name the code refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno


def _public_definitions():
    """(path, displayed name, bare name, def node) of every public
    top-level function or class and every public method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield path, f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, f"{path.stem}.{node.name}.{item.name}", item.name, item


def test_every_public_name_has_a_caller_outside_the_tests():
    references = {path: list(_references(ast.parse(path.read_text()))) for path in CALLER_FILES}
    def named_elsewhere(path, name, node):
        return any(
            ref == name and not (caller == path and node.lineno <= line <= node.end_lineno)
            for caller, refs in references.items()
            for ref, line in refs
        )

    uncalled = [
        shown
        for path, shown, name, node in _public_definitions()
        if not named_elsewhere(path, name, node)
    ]
    assert uncalled == []


def test_the_guard_sees_definitions_and_callers():
    shown = {name for _, name, _, _ in _public_definitions()}
    assert {"ergocost.ergonomic_cost", "model.Model.generate_batch"} <= shown
    refs = {name for name, _ in _references(ast.parse('"""hidden"""\nimport a.b\nx.seen("hidden")\n'))}
    assert refs == {"a", "b", "x", "seen"}
