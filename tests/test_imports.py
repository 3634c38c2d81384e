"""No module imports a name it never uses.

An AST scan of the package (its `__init__` re-exports on purpose), the tests
and the scripts: an imported name must appear as a name somewhere in the
same file, and be read there, not only assigned to.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    package = ROOT / "src" / "lassosat"
    yield from (p for p in sorted(package.glob("*.py")) if p.name != "__init__.py")
    yield from sorted((ROOT / "tests").glob("*.py"))
    yield from sorted((ROOT / "scripts").glob("*.py"))


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # a name only assigned to (or deleted) is not a use of the import
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in used]


def test_every_imported_name_is_used():
    unused = [entry for path in _sources() for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)
