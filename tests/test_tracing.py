"""The benchmark's traced run fails when a function it marks heavy for a
workload (``HEAVY`` in ``perfbench/tracing.py``) records no calls.  Each of
those names must stay a public gibbslab callable, so that a rename fails
here as well as in a traced benchmark run.

``perfbench/tracing.py`` is read and executed from its source, so no
bytecode is written next to it.
"""

import importlib
import pathlib
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _heavy() -> dict:
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module.HEAVY


def _resolves(name: str) -> bool:
    """Whether 'layer.attr[.attr]' names a public callable of gibbslab.layer;
    a dunder method such as __init__ counts as public."""
    layer, *attrs = name.split(".")
    obj = importlib.import_module(f"gibbslab.{layer}")
    for attr in attrs:
        if attr.startswith("_") and not attr.startswith("__"):
            return False
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_every_heavy_name_is_a_public_gibbslab_callable():
    names = sorted({name for names in _heavy().values() for name in names})
    assert {"expansion.cluster_weight", "gibbs.ExpansionDynamicInteraction.value"} <= set(names)
    assert [name for name in names if not _resolves(name)] == []
