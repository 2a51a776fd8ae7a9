"""Every public module-level name of the package has a caller in the package or the benchmark.

Test-only code in the library is code the commands never run: a public
function, class or constant must be named in ``src/`` or ``perfbench/``
somewhere outside its own definition.  Names count as identifiers, as
attributes and as whole string constants (``perfbench/spans.py`` names its
hooks by string); imports alone do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "optbasis"
CALLER_FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def public_definitions(tree):
    """(name, statement) for each public module-level def, class and assignment."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            names = []
        for name in names:
            if not name.startswith("_"):
                yield name, stmt


def mentions(node):
    """Identifiers a syntax tree names, outside import statements."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def uncalled_names():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLER_FILES}
    # per top-level statement, so a definition's own body can be left out
    statements = [(path, stmt, mentions(stmt)) for path, tree in trees.items()
                  for stmt in tree.body]
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, own in public_definitions(trees[path]):
            if not any(name in named for _, stmt, named in statements if stmt is not own):
                uncalled.append(f"{path.stem}.{name}")
    return uncalled


def test_every_public_name_has_a_caller_outside_the_tests():
    assert uncalled_names() == []


def test_the_scan_sees_module_level_definitions():
    names = {name for name, _ in public_definitions(ast.parse(
        "def f(): pass\nclass C: pass\nX = 1\nY: int = 2\n_hidden = 3\n"))}
    assert names == {"f", "C", "X", "Y"}
