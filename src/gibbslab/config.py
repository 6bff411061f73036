"""Experiment configuration: one JSON file resolves into domain objects.

SCHEMA below is the whole schema: every key path the config accepts, with
its kind and its default.  ``check(cfg)`` checks a whole config against it;
``value(cfg, path)`` reads one key through it.  Keys are camelCase, and
every key that is not in the table is rejected.  Numeric bounds are checked
once, by the domain objects the values build.  ``Resolved(cfg)`` builds
those objects, each once, on first read.

Only the keys a subcommand reads are required; everything resolved is
echoed back into the run directory for replay.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .clusters import ClusterSet, TimeGrid
from .dynamics import (
    DriftSpec,
    PotentialSpec,
    circle_free_potential,
    constant_drift,
    custom_potential,
    delayed_feedback_drift,
    markov_local_drift,
    quadratic_potential,
    resonance_drift,
)
from .errors import ValidationError
from .estimates import MCParams
from .gibbs import (
    BiSpaceInteraction,
    ExpansionDynamicInteraction,
    Interaction,
    ZeroDynamicInteraction,
    nearest_neighbor_terms,
    site_field_terms,
)
from .lattice import Configuration, Neighborhood, Volume

POTENTIALS = {
    "quadratic": quadratic_potential,
    "circle_free": circle_free_potential,
    "quartic": lambda: custom_potential(
        lambda x: np.asarray(x) ** 4, lambda x: 4.0 * np.asarray(x) ** 3
    ),
}

TEMPLATES = {"nearest_neighbor": nearest_neighbor_terms, "site_field": site_field_terms}

# family -> (builder from param(name) and the memory, default memory)
DRIFTS = {
    "constant": (lambda param, memory: constant_drift(param("c"), memory), 0.1),
    "markov_local": (
        lambda param, memory: markov_local_drift(
            param("scale"), Neighborhood.range1d(param("radius")), memory
        ),
        0.1,
    ),
    "resonance": (lambda param, memory: resonance_drift(param("amplitude"), memory), 0.1),
    "delayed_feedback": (lambda param, memory: delayed_feedback_drift(param("alpha"), memory), 0.5),
}

# kinds: the leaves, and the containers whose entries are rows of their own
NUMBER, INTEGER, ENUM, TEXT = "number", "integer", "enum", "text"
BOX = "corner pair"  # [[lo], [hi]], integers, lo <= hi
SECTION, LIST = "section", "list"  # keys are rows; entries are the row path.*
CONFIGURATION = "configuration"  # a section of one key: {"constant": v} or {"values": {...}}

REQUIRED = object()  # the default of a key that has none


@dataclasses.dataclass(frozen=True)
class Key:
    """One row of the schema.

    A row with ``when = (path, v)`` exists only while the key at ``path``
    reads v; a ``*`` in that path stands for the list entry that holds the
    row.  A key without a default is required where it is read, and a list
    without one must not be empty.  Numeric bounds are left to the domain
    objects built from the values (MCParams, DriftSpec, TimeGrid, ...).
    """

    path: str
    kind: str
    default: object = REQUIRED
    choices: tuple = ()
    when: Optional[tuple] = None


SCHEMA = (
    Key("seed", INTEGER, 0),
    Key("lattice", SECTION, {}),
    Key("lattice.box", BOX),
    # kp's range when there is no drift; with one it must be the drift's
    Key("lattice.neighborhoodRadius", INTEGER, 1),
    Key("potential", SECTION, {}),
    Key("potential.family", ENUM, "quadratic", choices=tuple(POTENTIALS)),
    Key("drift", SECTION),
    Key("drift.family", ENUM, "constant", choices=tuple(DRIFTS)),
    Key("drift.beta", NUMBER, 1.0),
    *(Key("drift.memory", NUMBER, memory, when=("drift.family", fam))
      for fam, (_, memory) in DRIFTS.items()),
    Key("drift.params", SECTION, {}),
    Key("drift.params.c", NUMBER, 1.0, when=("drift.family", "constant")),
    Key("drift.params.scale", NUMBER, 1.0, when=("drift.family", "markov_local")),
    Key("drift.params.radius", INTEGER, 1, when=("drift.family", "markov_local")),
    Key("drift.params.amplitude", NUMBER, 1.0, when=("drift.family", "resonance")),
    Key("drift.params.alpha", NUMBER, 1.0, when=("drift.family", "delayed_feedback")),
    # exactly one form: {"t": t}, or {"T": T, "M": M} with t = T M
    Key("time", SECTION),
    Key("time.t", NUMBER),
    Key("time.T", NUMBER),
    Key("time.M", INTEGER),
    Key("mc", SECTION, {}),
    Key("mc.nSamples", INTEGER, 10_000),
    Key("mc.dt", NUMBER, 0.01),
    Key("mc.burnIn", INTEGER, 100),
    Key("mc.thin", INTEGER, 2),
    Key("truncation", SECTION),
    Key("truncation.kMax", INTEGER),
    Key("truncation.nMax", INTEGER, 2),
    Key("interaction", SECTION, {}),
    Key("interaction.beta0", NUMBER, 0.0),
    Key("interaction.terms", LIST, []),
    Key("interaction.terms.*", SECTION),
    Key("interaction.terms.*.template", ENUM, choices=tuple(TEMPLATES)),
    Key("interaction.terms.*.coupling", NUMBER, 1.0),
    Key("interaction.terms.*.kind", ENUM, "tanh", choices=("tanh", "cos_diff"),
        when=("interaction.terms.*.template", "nearest_neighbor")),
    Key("interaction.terms.*.kind", ENUM, "bounded", choices=("bounded", "cos"),
        when=("interaction.terms.*.template", "site_field")),
    Key("betaGrid", LIST, []),
    Key("betaGrid.*", NUMBER),
    *(
        Key(prefix + key, kind)
        for prefix in ("x", "y", "probes.pairs.*.x", "probes.pairs.*.y")
        for key, kind in (
            ("", CONFIGURATION), (".constant", NUMBER), (".values", SECTION), (".values.*", NUMBER)
        )
    ),
    # probe lists, each read by the subcommands named
    Key("probes", SECTION, {}),
    Key("probes.pairs", LIST),  # density, quasilocality
    Key("probes.pairs.*", SECTION),
    Key("probes.lambdas", LIST, [0.0, 1.0]),  # kp
    Key("probes.lambdas.*", NUMBER),
    Key("probes.subBox", BOX),  # dlr
    Key("probes.nOuter", INTEGER, 200),  # dlr
    Key("probes.nInner", INTEGER, 4),  # dlr
    Key("probes.dynamic", ENUM, "zero", choices=("zero", "expansion")),  # bispace, quasilocality
    Key("probes.window", BOX),  # quasilocality
    Key("probes.deltas", LIST),  # quasilocality
    Key("probes.deltas.*", BOX),
    Key("out", TEXT, None),  # the default output directory
)

_ROWS: dict = {}  # path -> its rows (several when they hold under different `when`s)
for _key in SCHEMA:
    _ROWS.setdefault(_key.path, []).append(_key)
_ROOT = Key("", SECTION)


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    check(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def check(cfg: dict) -> None:
    """A ValidationError naming the path of the first unknown or bad key."""
    _checked(cfg, cfg, (), _ROOT)


def value(cfg: dict, path: str):
    """The checked value at ``path`` (e.g. "probes.pairs.0.x"), with its
    numbers as float or int, else the table's default; a ValidationError
    when it is bad, or missing and required."""
    node, key, parts, found = cfg, _ROOT, (), True
    for part in path.split("."):
        parent = key
        _container(node, parts, parent)
        parts += (int(part) if parent.kind == LIST else part,)
        key = _row(cfg, parts, parent)
        if key is None:
            raise ValidationError(f"unknown config key '{_dotted(parts)}'")
        if parts[-1] in (range(len(node)) if parent.kind == LIST else node):
            node, found = node[parts[-1]], True
        elif key.default is not REQUIRED:
            node, found = key.default, False
        elif parent.path.endswith("*"):
            raise ValidationError(f"a '{_dotted(parts[:-2])}' entry is missing key '{part}'")
        else:
            raise ValidationError(f"config is missing required key '{_dotted(parts)}'")
    return _checked(cfg, node, parts, key) if found else node


def _row(cfg: dict, parts: tuple, parent: Key) -> Optional[Key]:
    """The row of the concrete path ``parts``, whose parent's row is
    ``parent``; None if the last key is unknown there."""
    name = parts[-1]
    if parent.kind == LIST or (isinstance(name, str) and name.isdigit()):
        name = "*"  # a list entry, or a site of a per-site map
    elif not isinstance(name, str) or "." in name or "*" in name:
        return None
    for key in _ROWS.get(f"{parent.path}.{name}" if parent.path else name, ()):
        if key.when is None:
            return key
        sel = (parts[i] if p == "*" else p for i, p in enumerate(key.when[0].split(".")))
        if value(cfg, _dotted(sel)) == key.when[1]:
            return key
    return None


def _dotted(parts) -> str:
    return ".".join(map(str, parts))


def _name(parts: tuple) -> str:
    return f"config '{_dotted(parts)}'" if parts else "config root"


def _container(node, parts: tuple, key: Key) -> None:
    if not isinstance(node, list if key.kind == LIST else dict):
        what = "a list" if key.kind == LIST else "a JSON object"
        raise ValidationError(f"{_name(parts)} must be {what}, not {node!r}")


def _checked(cfg: dict, node, parts: tuple, key: Key):
    """node, checked against its row, with its numbers converted."""
    if key.kind in (NUMBER, INTEGER):
        return _number(node, parts, key.kind == INTEGER)
    if key.kind in (ENUM, TEXT):
        if not isinstance(node, str) or (key.kind == ENUM and node not in key.choices):
            what = f"one of {list(key.choices)}" if key.kind == ENUM else "a string"
            raise ValidationError(f"{_name(parts)} must be {what}, not {node!r}")
        return node
    if key.kind == BOX:
        return _box(node, parts)
    _container(node, parts, key)
    if key.kind == CONFIGURATION and len(node) != 1:
        raise ValidationError(
            f"{_name(parts)} must hold either 'constant' or 'values', not {node!r}"
        )
    if key.kind == LIST and not node and key.default is REQUIRED:
        raise ValidationError(f"{_name(parts)} must not be empty")
    items = list(enumerate(node) if key.kind == LIST else node.items())
    rows = [_row(cfg, parts + (k,), key) for k, _ in items]
    unknown = sorted(str(k) for (k, _), row in zip(items, rows) if row is None)
    if unknown:
        where = f"keys under '{_dotted(parts)}'" if parts else "config keys"
        if parts == ("drift", "params"):
            where = f"params of drift family '{value(cfg, 'drift.family')}'"
        raise ValidationError(f"unknown {where}: {unknown}")
    checked = [_checked(cfg, v, parts + (k,), row) for (k, v), row in zip(items, rows)]
    return checked if key.kind == LIST else dict(zip(node, checked))


def _number(node, parts: tuple, integer: bool):
    """A number, or a string that parses as one: finite, and whole for an
    integer."""
    if isinstance(node, bool) or not isinstance(node, (int, float, str)):
        raise ValidationError(f"{_name(parts)} must be a number, not {node!r}")
    try:
        x = int(node) if integer and not isinstance(node, float) else float(node)
    except ValueError:
        raise ValidationError(f"{_name(parts)} must be a number, not {node!r}") from None
    except OverflowError:
        x = math.inf
    if isinstance(x, float) and not math.isfinite(x):
        raise ValidationError(f"{_name(parts)} must be a finite number, not {node!r}")
    if integer and isinstance(x, float):
        if not x.is_integer():
            raise ValidationError(f"{_name(parts)} must be a whole number, not {node!r}")
        x = int(x)
    return x


def _box(node, parts: tuple) -> list:
    """[[lo], [hi]]: two integer corners of one coordinate, lo <= hi."""
    if (
        not isinstance(node, list) or len(node) != 2
        or not all(isinstance(c, list) and c for c in node) or len(node[0]) != len(node[1])
    ):
        raise ValidationError(
            f"{_name(parts)} must be two corners [[lo, ...], [hi, ...]] of one "
            f"dimension, not {node!r}"
        )
    if len(node[0]) > 1:
        # a config names no neighbourhood but range1d's, which is 1-D
        raise ValidationError(
            f"{_name(parts)} has corners of {len(node[0])} coordinates, but boxes are "
            f"one-dimensional: d-dimensional neighbourhoods are not configurable yet"
        )
    lo, hi = ([_number(c, parts, True) for c in corner] for corner in node)
    if any(a > b for a, b in zip(lo, hi)):
        raise ValidationError(f"{_name(parts)} is empty: its corner {lo} exceeds {hi}")
    return [lo, hi]


# ---------------------------------------------------------------------------
# the resolved config: domain objects from checked values
# ---------------------------------------------------------------------------

class Resolved:
    """A config's domain objects, each resolved from its keys on first read
    and kept, so a run reads each section once and only the sections it
    uses.  ``cfg`` is the config as given; it is checked key by key as the
    objects read it."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.seed = value(cfg, "seed")

    @cached_property
    def vol(self) -> Volume:
        return Volume.box(*value(self.cfg, "lattice.box"))

    @cached_property
    def pot(self) -> PotentialSpec:
        return POTENTIALS[value(self.cfg, "potential.family")]()

    @cached_property
    def drift(self) -> DriftSpec:
        """The drift of the 'drift' section; a lattice.neighborhoodRadius
        other than the drift's range is rejected, never mixed with it."""
        fam = value(self.cfg, "drift.family")
        build, _ = DRIFTS[fam]
        drift = build(
            lambda name: value(self.cfg, f"drift.params.{name}"), value(self.cfg, "drift.memory")
        )
        drift_range = max(abs(c) for offset in drift.nbhd.offsets for c in offset)
        if "neighborhoodRadius" in value(self.cfg, "lattice"):
            radius = value(self.cfg, "lattice.neighborhoodRadius")
            if radius != drift_range:
                raise ValidationError(
                    f"lattice.neighborhoodRadius {radius} differs from the range "
                    f"{drift_range} of the '{fam}' drift"
                )
        return dataclasses.replace(drift, beta=value(self.cfg, "drift.beta"))

    @cached_property
    def mc(self) -> MCParams:
        return MCParams(
            n_samples=value(self.cfg, "mc.nSamples"),
            dt=value(self.cfg, "mc.dt"),
            burn_in=value(self.cfg, "mc.burnIn"),
            thin=value(self.cfg, "mc.thin"),
        )

    @cached_property
    def time(self) -> Tuple[float, TimeGrid]:
        """(t, grid) of the 'time' section: {"t": t} is one slice of length
        t, {"T": T, "M": M} is M slices of length T and t = T * M."""
        tm = value(self.cfg, "time")
        if set(tm) == {"t"}:
            return tm["t"], TimeGrid(tm["t"], 1)
        if set(tm) == {"T", "M"}:
            grid = TimeGrid(tm["T"], tm["M"])
            return grid.horizon, grid
        raise ValidationError(
            f"config 'time' takes either 't' or both 'T' and 'M', not {sorted(tm)}"
        )

    @cached_property
    def truncation(self) -> Tuple[int, int]:
        """(kMax, nMax) of the 'truncation' section."""
        return value(self.cfg, "truncation.kMax"), value(self.cfg, "truncation.nMax")

    @cached_property
    def clusters(self) -> ClusterSet:
        """The one set that expand, kp and the expansion dynamics read: the
        clusters up to kMax on the volume and the time grid, on the drift's
        neighbourhood, else (kp) on range lattice.neighborhoodRadius."""
        _, grid = self.time
        k_max, _ = self.truncation
        if "drift" in self.cfg:
            nbhd = self.drift.nbhd
        else:
            nbhd = Neighborhood.range1d(value(self.cfg, "lattice.neighborhoodRadius"))
        return ClusterSet.enumerate(self.vol, nbhd, grid, k_max)

    @cached_property
    def x(self) -> Configuration:
        return self._configuration("x")

    @cached_property
    def y(self) -> Configuration:
        return self._configuration("y")

    @cached_property
    def pairs(self) -> list:
        """The (x, y) configurations of 'probes.pairs'."""
        return [
            (self._configuration(f"probes.pairs.{i}.x"), self._configuration(f"probes.pairs.{i}.y"))
            for i in range(len(value(self.cfg, "probes.pairs")))
        ]

    @cached_property
    def interaction(self) -> Interaction:
        vol, terms = self.vol, []
        for i in range(len(value(self.cfg, "interaction.terms"))):
            entry = f"interaction.terms.{i}"
            make = TEMPLATES[value(self.cfg, f"{entry}.template")]
            terms.extend(
                make(vol, value(self.cfg, f"{entry}.coupling"), value(self.cfg, f"{entry}.kind"))
            )
        return Interaction(tuple(terms), beta0=value(self.cfg, "interaction.beta0"))

    @cached_property
    def bispace(self) -> BiSpaceInteraction:
        """The two-layer interaction of the initial interaction and the
        'probes.dynamic' dynamics on the volume."""
        pot, phi = self.pot, self.interaction
        t, _ = self.time
        if value(self.cfg, "probes.dynamic") == "zero":
            dyn = ZeroDynamicInteraction()
        else:
            _, n_max = self.truncation
            dyn = ExpansionDynamicInteraction(
                self.drift, pot, self.clusters, n_max,
                self.mc.with_samples(min(self.mc.n_samples, 1000)),  # a cap the README states
                self.seed,
            )
        return BiSpaceInteraction(phi, dyn, pot, t)

    def _configuration(self, key: str) -> Configuration:
        spec = value(self.cfg, key)
        if "constant" in spec:
            return Configuration.constant(self.vol, spec["constant"], self.pot.state_space)
        values = spec["values"]
        sites = self.vol.sorted_sites()
        if len(values) != len(sites):
            raise ValidationError(f"'{key}.values' must list one value per site")
        for i in range(len(sites)):
            if str(i) not in values:
                raise ValidationError(f"'{key}.values' is missing key '{i}'")
        return Configuration({s: values[str(i)] for i, s in enumerate(sites)}, self.pot.state_space)
