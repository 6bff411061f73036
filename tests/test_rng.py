"""Named substreams: the label count in their entropy, and ``rng.substream``
as the one place that builds generators."""

import ast
import pathlib

import numpy as np
import pytest

from gibbslab.rng import substream
from generator_states import same_state

ROOT = pathlib.Path(__file__).resolve().parents[1]
LIBRARY = {
    str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
    for p in sorted((ROOT / "src" / "gibbslab").glob("*.py"))
}
# calls that build a generator or a bit generator, by the name called
BUILDERS = {
    "default_rng", "Generator", "RandomState",
    "SFC64", "PCG64", "PCG64DXSM", "Philox", "MT19937",
}


@pytest.mark.parametrize(
    "labels, shorter",
    [((3, "a", 0), (3, "a")), ((3, 0), (3,)), ((2**32 + 5,), (5, 1))],
    ids=["trailing-zero-label", "zero-label", "two-word-seed"],
)
def test_names_that_pad_to_the_same_entropy_draw_different_streams(labels, shorter):
    # SeedSequence pads its entropy with zeros, and a seed above 2^32 takes
    # two words; the label count at the end keeps these names apart
    assert not np.array_equal(substream(*labels).standard_normal(8), substream(*shorter).standard_normal(8))


def test_substream_returns_an_sfc64_generator():
    rng = substream(1, "simulate")
    assert isinstance(rng, np.random.Generator)
    assert isinstance(rng.bit_generator, np.random.SFC64)


def test_same_state_compares_sfc64_states_field_by_field():
    a, b = substream(2, "s"), substream(2, "s")
    assert same_state(a.bit_generator.state, b.bit_generator.state)
    a.standard_normal()
    assert not same_state(a.bit_generator.state, b.bit_generator.state)
    b.standard_normal()
    assert same_state(a.bit_generator.state, b.bit_generator.state)


def _generator_builds(sources):
    """'file:line name' for each call outside rng.py that builds a
    generator or a bit generator."""
    out = []
    for name, text in sources.items():
        if name.endswith("/rng.py"):
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in BUILDERS:
                    out.append(f"{name}:{node.lineno} {called}")
    return out


def test_substream_is_the_one_place_that_builds_generators():
    assert "src/gibbslab/rng.py" in LIBRARY and len(LIBRARY) > 10
    assert _generator_builds(LIBRARY) == []


def test_the_generator_guard_fails_on_a_default_rng_call():
    sources = dict(LIBRARY)
    key = "src/gibbslab/lattice.py"
    sources[key] += "\n\ndef probe():\n    return np.random.default_rng(0)\n"
    line = sources[key].count("\n")
    assert _generator_builds(sources) == [f"{key}:{line} default_rng"]
