"""Space-time cluster combinatorics.

A temporal edge (site, slice) joins the vertices (site, slice) and
(site, slice + 1) of a uniform grid of M intervals of length T.
A space cluster is a chain-connected set of same-slice edges; a time
cluster is a run of consecutive slices at one site.  A space-time cluster
bundles space and time clusters whose supports form a connected whole.

Conventions baked into the enumeration:
  * space-cluster sites are restricted to the neighborhood-interior of the
    volume (only those sites carry an interacting drift);
  * time clusters occupy slices 0..M-2 only (one transition-kernel factor
    per intermediate layer);
  * within one cluster, same-slice space clusters are pairwise compatible
    and same-site time clusters are separated by at least one slice
    (they are maximal runs of the expansion).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .errors import BudgetError, ValidationError
from .lattice import Neighborhood, Site, Volume, as_site, interior


@dataclass(frozen=True)
class TimeGrid:
    """M intervals of length T covering [0, M*T]."""

    T: float
    M: int

    def __post_init__(self):
        if self.T <= 0 or self.M < 1:
            raise ValidationError("time grid needs T > 0 and M >= 1")

    @property
    def horizon(self) -> float:
        return self.T * self.M

    def to_record(self) -> dict:
        return {"T": self.T, "M": self.M}


def _connected(neighbours) -> bool:
    """True iff a graph search from vertex 0 reaches every vertex.

    ``neighbours[i]`` lists the vertices adjacent to vertex i.
    """
    reached = {0}
    frontier = [0]
    while frontier:
        for nxt in neighbours[frontier.pop()]:
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return len(reached) == len(neighbours)


def is_chain_connected(sites: Iterable[Site], nbhd: Neighborhood) -> bool:
    """True iff the sites form one component of the (i+N) overlap graph."""
    sites = [as_site(s) for s in sites]
    if not sites:
        return False
    return _connected(
        [[j for j, b in enumerate(sites) if nbhd.overlaps(a, b)] for a in sites]
    )


@dataclass(frozen=True)
class SpaceCluster:
    """Same-slice temporal edges at pairwise chain-connected sites."""

    slice: int
    sites: frozenset

    def __post_init__(self):
        object.__setattr__(self, "sites", frozenset(as_site(s) for s in self.sites))
        if not self.sites:
            raise ValidationError("space cluster must be nonempty")
        if self.slice < 0:
            raise ValidationError("negative slice index")

    @property
    def size(self) -> int:
        return len(self.sites)

    @property
    def vertices(self) -> frozenset:
        return frozenset(
            (s, j) for s in self.sites for j in (self.slice, self.slice + 1)
        )

    def key(self):
        return (self.slice, tuple(sorted(self.sites)))


@dataclass(frozen=True)
class TimeCluster:
    """A run of consecutive slices start..stop (inclusive) at one site."""

    site: Site
    start: int
    stop: int

    def __post_init__(self):
        object.__setattr__(self, "site", as_site(self.site))
        if self.start < 0 or self.stop < self.start:
            raise ValidationError("time cluster needs 0 <= start <= stop")

    @property
    def slices(self) -> range:
        return range(self.start, self.stop + 1)

    @property
    def size(self) -> int:
        return self.stop - self.start + 1

    @property
    def vertices(self) -> frozenset:
        return frozenset((self.site, j) for j in range(self.start, self.stop + 2))

    def key(self):
        return (self.site, self.start, self.stop)


@dataclass(frozen=True)
class SpaceTimeCluster:
    """A nonempty collection of space and time clusters.

    ``support``, ``sites`` and ``key()`` are computed once per instance; the
    instance is frozen, so they are functions of its value and never enter
    ``==``, ``hash`` or ``to_record``.
    """

    space_clusters: tuple
    time_clusters: tuple
    grid: TimeGrid

    def __post_init__(self):
        sc = tuple(sorted(self.space_clusters, key=lambda g: g.key()))
        tc = tuple(sorted(self.time_clusters, key=lambda g: g.key()))
        object.__setattr__(self, "space_clusters", sc)
        object.__setattr__(self, "time_clusters", tc)
        if not sc and not tc:
            raise ValidationError("space-time cluster must be nonempty")
        for g in sc:
            if g.slice >= self.grid.M:
                raise ValidationError("space cluster slice outside grid")
        for g in tc:
            if g.stop >= self.grid.M - 1:
                raise ValidationError("time cluster slice outside kernel range")

    @cached_property
    def support(self) -> frozenset:
        """All vertices (site, layer) of the constituent edges."""
        return frozenset().union(
            *(g.vertices for g in self.space_clusters + self.time_clusters)
        )

    @cached_property
    def sites(self) -> frozenset:
        """The sites of the support, its spatial trace."""
        return frozenset(site for site, _ in self.support)

    @property
    def size(self) -> int:
        """Total number of temporal edges, duplicates counted per constituent."""
        return sum(g.size for g in self.space_clusters) + sum(
            g.size for g in self.time_clusters
        )

    @cached_property
    def _key(self):
        return (
            tuple(g.key() for g in self.space_clusters),
            tuple(g.key() for g in self.time_clusters),
        )

    def key(self):
        return self._key

    def to_record(self) -> dict:
        return {
            "spaceClusters": [
                {"slice": g.slice, "sites": [list(s) for s in sorted(g.sites)]}
                for g in self.space_clusters
            ],
            "timeClusters": [
                {"site": list(g.site), "start": g.start, "stop": g.stop}
                for g in self.time_clusters
            ],
            "grid": self.grid.to_record(),
        }


def space_compatible(g1: SpaceCluster, g2: SpaceCluster, nbhd: Neighborhood) -> bool:
    """No edge of g1 is space-connected with an edge of g2."""
    return not any(nbhd.overlaps(a, b) for a in g1.sites for b in g2.sites)


def conflicts(G1: SpaceTimeCluster, G2: SpaceTimeCluster, nbhd: Neighborhood) -> bool:
    """Polymer incompatibility: the supports meet, or two space clusters on
    one slice are not compatible.  Two clusters that do not conflict are
    non-intersecting.

    A shared time edge (s, j) needs no test of its own: it puts the vertex
    (s, j) in both supports.
    """
    if G1.grid is not G2.grid and G1.grid != G2.grid:
        raise ValidationError("clusters live on different grids")
    if not G1.support.isdisjoint(G2.support):
        return True
    return any(
        a.slice == b.slice and not space_compatible(a, b, nbhd)
        for a in G1.space_clusters
        for b in G2.space_clusters
    )


def _connected_site_subsets(sites: Sequence[Site], nbhd: Neighborhood, k_max: int):
    """All chain-connected subsets of the given sites with size <= k_max."""
    sites = sorted(sites)
    out = []
    for size in range(1, min(k_max, len(sites)) + 1):
        for sub in combinations(sites, size):
            if is_chain_connected(sub, nbhd):
                out.append(frozenset(sub))
    return out


# Most intermediate collections, families or multisets that one enumeration
# visits before it raises BudgetError; read at call time.
ENUMERATION_CAP = 200_000


def _capped_families(sizes: list, exclusion: list, limit: int, message: str):
    """Every family of indices with pairwise unexcluded members and total
    size <= limit, as ascending tuples in depth-first visiting order.

    Bit j of ``exclusion[i]`` is set when i and j may not share a family.
    Raises BudgetError(message) when more than ENUMERATION_CAP families are
    visited.
    """
    cap = ENUMERATION_CAP
    visited = 0

    def search(start: int, family: tuple, banned: int, total: int):
        nonlocal visited
        for idx in range(start, len(sizes)):
            size = total + sizes[idx]
            if size > limit or banned >> idx & 1:
                continue
            visited += 1
            if visited > cap:
                raise BudgetError(message)
            grown = family + (idx,)
            yield grown
            yield from search(idx + 1, grown, banned | exclusion[idx], size)

    return search(0, (), 0, 0)


def enumerate_clusters(
    vol: Volume,
    nbhd: Neighborhood,
    grid: TimeGrid,
    k_max: int,
) -> List[SpaceTimeCluster]:
    """All distinct space-time clusters with size <= k_max, in canonical order.

    Space clusters are rooted at interior(vol) sites on slices 0..M-1; time
    clusters at sites of vol on slices 0..M-2.  Raises BudgetError when the
    search exceeds ENUMERATION_CAP intermediate collections.
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    if not vol.sites:
        return []

    inner = interior(vol, nbhd)
    space_pool = [
        SpaceCluster(j, sub)
        for j in range(grid.M)
        for sub in _connected_site_subsets(inner.sorted_sites(), nbhd, k_max)
    ]
    time_pool = [
        TimeCluster(i, j, j + r)
        for i in vol.sorted_sites()
        for j in range(max(grid.M - 1, 0))
        for r in range(min(k_max, grid.M - 1 - j))
    ]
    pool: list = space_pool + time_pool

    def excluded(a, b) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, SpaceCluster):
            return a.slice == b.slice and not space_compatible(a, b, nbhd)
        # same-site time runs that overlap or are adjacent
        return a.site == b.site and a.start <= b.stop + 1 and b.start <= a.stop + 1

    exclusion = [sum(1 << j for j, b in enumerate(pool) if excluded(a, b)) for a in pool]
    clusters = []
    for idxs in _capped_families(
        [c.size for c in pool], exclusion, k_max,
        f"cluster enumeration exceeded cap of {ENUMERATION_CAP} collections",
    ):
        parts = [pool[i] for i in idxs]
        if len(parts) == 1 or _connected(
            [[j for j, b in enumerate(parts) if a.vertices & b.vertices] for a in parts]
        ):
            clusters.append(SpaceTimeCluster(
                tuple(c for c in parts if isinstance(c, SpaceCluster)),
                tuple(c for c in parts if isinstance(c, TimeCluster)),
                grid,
            ))
    clusters.sort(key=lambda g: (g.size, g.key()))
    return clusters


def conflict_graph(
    clusters: Sequence[SpaceTimeCluster], nbhd: Neighborhood
) -> List[int]:
    """The conflict graph as one bitset per cluster: bit j of entry i is set
    when clusters i and j conflict.

    ``conflicts`` is called once per unordered pair, a cluster with itself
    included, so every cluster conflicts with itself.
    """
    bits = [0] * len(clusters)
    for i, G in enumerate(clusters):
        for j in range(i, len(clusters)):
            if conflicts(G, clusters[j], nbhd):
                bits[i] |= 1 << j
                bits[j] |= 1 << i
    return bits


@dataclass(frozen=True)
class ClusterSet:
    """Clusters in canonical order, the neighbourhood that decides their
    conflicts and k_max, the size bound of their families.  Every reader
    of the set reads one conflict graph, built on first read."""

    clusters: tuple
    nbhd: Neighborhood
    k_max: int

    @classmethod
    def enumerate(cls, vol: Volume, nbhd: Neighborhood, grid: TimeGrid, k_max: int) -> "ClusterSet":
        return cls(tuple(enumerate_clusters(vol, nbhd, grid, k_max)), nbhd, k_max)

    @cached_property
    def sizes(self) -> List[int]:
        return [G.size for G in self.clusters]

    @cached_property
    def conflict_bits(self) -> List[int]:
        return conflict_graph(self.clusters, self.nbhd)

    @cached_property
    def conflict_matrix(self) -> np.ndarray:
        """Entry (i, j) is bit j of ``conflict_bits[i]``; (N, N) also for N = 0."""
        N = len(self.clusters)
        bits = self.conflict_bits
        return np.array([[b >> j & 1 for j in range(N)] for b in bits], dtype=bool).reshape(N, N)


@lru_cache(maxsize=4096)
def _connected_spanning_sign_sum(n: int, edges: Tuple[Tuple[int, int], ...]) -> int:
    """Sum of (-1)^{|H|} over connected spanning edge subsets H.

    Over vertex subsets S, as bit masks: A(S) = 1 when S spans no edge and
    0 otherwise is the sum over all spanning subsets of S, and the
    connected sum C(S) = A(S) - sum of C(T) A(S minus T) over the T that
    hold S's lowest vertex, T != S.  Only the S holding vertex 0 are
    needed, so the work is 3^(n-1) integer steps.  Memoized on (n, edges):
    a collection's value depends only on the shape of its conflict graph,
    and few shapes occur.
    """
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    free = [1] * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        free[S] = 0 if adj[low.bit_length() - 1] & S else free[S ^ low]
    C = [0] * (1 << n)
    for S in range(1, 1 << n, 2):
        c = free[S]
        # R = S minus T runs over the nonempty subsets of S minus vertex 0
        R = rest = S ^ 1
        while R:
            if free[R]:
                c -= C[S ^ R]
            R = (R - 1) & rest
        C[S] = c
    return C[-1]


def ursell_coefficient(combo: Sequence[int], edges: Tuple[Tuple[int, int], ...]) -> float:
    """Ursell coefficient of a multiset of clusters on its conflict graph.

    ``combo`` is the multiset as a sorted tuple of cluster indices, so equal
    clusters sit next to each other; ``edges`` is its induced conflict graph,
    the pairs (a, b), a < b, of positions in combo whose clusters conflict.
    C = (1 / prod of multiplicity factorials) * sum over connected spanning
    subgraphs of (-1)^{#edges}; zero when the conflict graph is disconnected.
    The float is the correctly rounded value of that rational.
    """
    if not combo:
        raise ValidationError("ursell_coefficient needs at least one cluster")
    sign_sum = _connected_spanning_sign_sum(len(combo), edges)
    # a run of m equal indices multiplies in 1, 2, ..., m, that is m!
    denom = run = 1
    for prev, cur in zip(combo, combo[1:]):
        run = run + 1 if cur == prev else 1
        denom *= run
    return sign_sum / denom


def is_connected(combo: Sequence[int], edges: Tuple[Tuple[int, int], ...]) -> bool:
    """True iff the induced conflict graph of the multiset combo is connected.

    ``combo`` and ``edges`` are as ``ursell_coefficient`` takes them.  Read
    off the sign sum: it is 0 on a disconnected graph, and on a connected
    one it is (-1)^(n-1) T_G(1, 0), where the Tutte value is positive.
    """
    if not combo:
        raise ValidationError("is_connected needs a nonempty collection")
    return _connected_spanning_sign_sum(len(combo), edges) != 0
