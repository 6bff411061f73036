"""Finite volumes of Z^d, neighborhoods and (partial) configurations.

Sites are integer tuples.  Volumes are arbitrary finite site sets; boxes
are just a convenience constructor.  State values live on the real line
or on the circle [0, 2*pi) (canonical representative, arithmetic mod 2*pi).
All objects are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Tuple

import numpy as np

from .errors import DomainConflictError, ValidationError

Site = Tuple[int, ...]

LINE = "line"
CIRCLE = "circle"
TWO_PI = 2.0 * np.pi


def as_site(coords) -> Site:
    site = tuple(int(c) for c in coords)
    if len(site) < 1:
        raise ValidationError("a site needs at least one coordinate")
    return site


def site_add(a: Site, b: Site) -> Site:
    if len(a) != len(b):
        raise ValidationError(f"cannot add the {len(b)}-d offset {b} to the {len(a)}-d site {a}")
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class Volume:
    """A finite set of sites, all of the same dimension."""

    sites: frozenset

    def __post_init__(self):
        object.__setattr__(self, "sites", frozenset(as_site(s) for s in self.sites))
        dims = {len(s) for s in self.sites}
        if len(dims) > 1:
            raise ValidationError(f"mixed site dimensions in volume: {sorted(dims)}")

    @classmethod
    def box(cls, lo, hi) -> "Volume":
        """All sites with lo[k] <= coord[k] <= hi[k]."""
        lo, hi = as_site(lo), as_site(hi)
        if len(lo) != len(hi):
            raise ValidationError("box corners must have equal dimension")
        axes = [range(a, b + 1) for a, b in zip(lo, hi)]
        sites = [()]
        for ax in axes:
            sites = [s + (v,) for s in sites for v in ax]
        return cls(frozenset(sites))

    def __contains__(self, site) -> bool:
        return as_site(site) in self.sites

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sorted_sites())

    def sorted_sites(self) -> list:
        return sorted(self.sites)

    def union(self, other: "Volume") -> "Volume":
        return Volume(self.sites | other.sites)

    def issubset(self, other: "Volume") -> bool:
        return self.sites <= other.sites


@dataclass(frozen=True)
class Neighborhood:
    """Finite set of relative offsets; must contain the zero offset."""

    offsets: frozenset

    def __post_init__(self):
        object.__setattr__(self, "offsets", frozenset(as_site(s) for s in self.offsets))
        if not self.offsets:
            raise ValidationError("neighborhood must be nonempty")
        dim = len(next(iter(self.offsets)))
        if (0,) * dim not in self.offsets:
            raise ValidationError("neighborhood must contain the zero offset")

    @classmethod
    def range1d(cls, radius: int) -> "Neighborhood":
        return cls(frozenset((k,) for k in range(-radius, radius + 1)))

    def around(self, site: Site) -> frozenset:
        """The translate site + N."""
        return frozenset(site_add(site, o) for o in self.offsets)

    @cached_property
    def _differences(self) -> frozenset:
        """The difference set N - N."""
        return frozenset(
            tuple(p - q for p, q in zip(o1, o2)) for o1 in self.offsets for o2 in self.offsets
        )

    def overlaps(self, a: Site, b: Site) -> bool:
        """True iff (a + N) and (b + N) intersect, that is a - b lies in N - N."""
        return tuple(x - y for x, y in zip(a, b)) in self._differences


def wrap_angle(x, out=None):
    """Canonical circle representative in [0, 2*pi), written into ``out``
    when given (``out`` may be ``x`` itself)."""
    if out is None:
        out = np.empty(np.shape(x))
    np.mod(x, TWO_PI, out=out)
    # np.mod may round to the modulus itself for tiny negative inputs
    out[out >= TWO_PI] = 0.0
    return out[()]


@dataclass(frozen=True)
class Configuration:
    """A partial configuration: values over a declared finite domain."""

    values: Mapping
    state_space: str = LINE

    def __post_init__(self):
        if self.state_space not in (LINE, CIRCLE):
            raise ValidationError(f"unknown state space {self.state_space!r}")
        vals = {as_site(k): float(v) for k, v in self.values.items()}
        if self.state_space == CIRCLE:
            vals = {k: float(wrap_angle(v)) for k, v in vals.items()}
        object.__setattr__(self, "values", vals)

    @property
    def domain(self) -> Volume:
        return Volume(frozenset(self.values.keys()))

    def __getitem__(self, site) -> float:
        return self.values[as_site(site)]

    def __contains__(self, site) -> bool:
        return as_site(site) in self.values

    def array_for(self, sites: Iterable) -> np.ndarray:
        return np.array([self.values[as_site(s)] for s in sites], dtype=float)

    @classmethod
    def constant(cls, vol: Volume, value: float, state_space: str = LINE) -> "Configuration":
        return cls({s: value for s in vol.sites}, state_space)


def interior(vol: Volume, nbhd: Neighborhood) -> Volume:
    """Sites i of vol with i + N fully inside vol.  May be empty."""
    return Volume(frozenset(i for i in vol.sites if nbhd.around(i) <= vol.sites))


def concat(x: Configuration, z: Configuration) -> Configuration:
    """Merge two partial configurations with disjoint domains."""
    if x.state_space != z.state_space:
        raise DomainConflictError("cannot concatenate across state spaces")
    overlap = x.domain.sites & z.domain.sites
    if overlap:
        raise DomainConflictError(f"overlapping domains at {sorted(overlap)[:4]}")
    merged = dict(x.values)
    merged.update(z.values)
    return Configuration(merged, x.state_space)
