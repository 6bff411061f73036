"""Every module of the library and of the test suite reads what it imports,
every private module-level name of the library is read in the library, and
so is every public top-level function and class, and every public method of
a library class, but a listed few.

``__init__.py`` is left out of the import check: its imports are the
package's re-exports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "gibbslab").glob("*.py"))
SOURCES = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in LIBRARY}
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


def _reads(sources):
    """Every name that the sources load and every attribute they name."""
    read = set()
    for text in sources.values():
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return read


def test_every_private_library_name_is_read_in_the_library():
    read = _reads(SOURCES)
    defined = [(p, line, name) for p in LIBRARY for line, name in _private_definitions(p)]
    assert len(defined) > 20
    unread = [
        f"{p.relative_to(ROOT)}:{line} {name}" for p, line, name in defined if name not in read
    ]
    assert unread == []


# public names that only the tests read, one reason each; a method is
# listed as Class.method
UNREAD_PUBLIC = {
    "Estimate.agrees_with": "the tests' n-sigma comparison of two estimates",
    "Interaction.spot_check_norms": "the tests' probe of declared sup-norms",
    "drift_values": "oracle of the acceptance battery: b along a stored path",
    "kernel_sup_distance": "oracle of the acceptance battery: sup |p_T - 1|",
    "sample_gibbs": "oracle of the acceptance battery: one Gibbs draw",
    "single_site_conditional_quadrature": "oracle of the acceptance battery: one-site law",
    "memory_integral_drift": "ROADMAP item 8 decides whether to configure or delete it",
    "space_time_integral_drift": "ROADMAP item 8 decides whether to configure or delete it",
    "ultracontractivity_report": "ROADMAP item 8 decides whether to configure or delete it",
}


def _public_definitions(text):
    """(line, name) of each public top-level function and class, and of
    each public method of a top-level class, named Class.method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (m.lineno, f"{node.name}.{m.name}")
                for m in node.body
                if isinstance(m, defs[:2]) and not m.name.startswith("_")
            ]
    return out


def _unread(fn, read):
    """True iff no source reads fn, a method by its own name."""
    return fn.rpartition(".")[2] not in read


def _unread_public(sources):
    """'file:line name' for each public top-level function or class, or
    public method, that no source reads and UNREAD_PUBLIC does not list."""
    read = _reads(sources)
    return [
        f"{name}:{line} {fn}"
        for name, text in sources.items()
        for line, fn in _public_definitions(text)
        if _unread(fn, read) and fn not in UNREAD_PUBLIC
    ]


def test_every_public_library_function_and_class_is_read_in_the_library():
    assert _unread_public(SOURCES) == []
    # every listed name is still defined and still unread, so an entry goes
    # once its name is deleted or read
    read = _reads(SOURCES)
    defined = {fn for text in SOURCES.values() for _, fn in _public_definitions(text)}
    assert {fn for fn in UNREAD_PUBLIC if fn in defined and _unread(fn, read)} == set(UNREAD_PUBLIC)


def test_the_public_name_guard_fails_on_an_unread_function():
    sources = dict(SOURCES)
    key = "src/gibbslab/lattice.py"
    sources[key] += "\n\ndef unread_probe():\n    return 0\n"
    line = sources[key].count("\n") - 1
    assert _unread_public(sources) == [f"{key}:{line} unread_probe"]


def test_the_public_name_guard_fails_on_an_unread_method():
    sources = dict(SOURCES)
    key = "src/gibbslab/lattice.py"
    sources[key] += "\n\nclass Probe:\n    def unread_method(self):\n        return 0\n"
    line = sources[key].count("\n") - 1
    assert _unread_public(sources) == [
        f"{key}:{line - 1} Probe", f"{key}:{line} Probe.unread_method"
    ]
