"""Every module of the library and of the test suite reads what it imports.

``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for p in (ROOT / "src" / "gibbslab").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def _unread_imports(path):
    """'file:line name' for each name an import binds that no expression reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for line, name in sorted(bound) if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 20
    unread = [entry for path in MODULES for entry in _unread_imports(path)]
    assert unread == []
