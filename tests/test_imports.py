"""Every module of the library and of the test suite reads what it imports,
and every private module-level name of the library is read in the library.

``__init__.py`` is left out of the import check: its imports are the
package's re-exports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "gibbslab").glob("*.py"))
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


def _private_definitions(path):
    """(line, name) of each private name a module binds at its top level."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def test_every_private_library_name_is_read_in_the_library():
    read = set()
    for path in LIBRARY:
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    defined = [(p, line, name) for p in LIBRARY for line, name in _private_definitions(p)]
    assert len(defined) > 20
    unread = [
        f"{p.relative_to(ROOT)}:{line} {name}" for p, line, name in defined if name not in read
    ]
    assert unread == []
