"""Cluster weights, the truncated interaction and convergence checkers.

The endpoint density of the interacting dynamics relative to the free one
expands as 1 + sum over families of pairwise non-intersecting space-time
clusters of products of weights K_Gamma(x, y).  Each weight factorizes over
the cluster's constituents: a space cluster on slice j contributes the
bridge expectation of prod_k (e^{-Psi_{k,j}} - 1), a time cluster the
product of (p_T - 1) kernel factors across its layers.  Intermediate layer
values are integrated against the stationary measure m; layers 0 and M are
pinned to x and y.  Sites that a bridge needs outside the cluster's spatial
trace run stationary free paths, which keeps every weight measurable with
respect to the trace alone.

Each cluster draws its weight's randomness from its own stream, keyed by
its value.  A weight table draws and moves every cluster's bridges in one
buffer that it allocates once and every cluster reuses in turn.

The logarithm of the density is resummed into an interaction indexed by
spatial volumes: log f = -sum_Delta Phi_Delta, each Phi_Delta collecting
Ursell-weighted products over connected collections with that trace.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import clusters as _clusters
from .clusters import (
    ClusterSet,
    SpaceCluster,
    SpaceTimeCluster,
    TimeGrid,
    _capped_families,
    is_connected,
    ursell_coefficient,
)
from .dynamics import (
    DriftSpec,
    PotentialSpec,
    _sample_reference_rng,
    _window_length,
    free_kernel,
    reference_quadrature,
    step_count,
)
from .errors import BudgetError, CoverageError, ValidationError
from .estimates import Estimate, MCParams, mean_estimate
from . import girsanov
from .girsanov import pinned_bridges, psi
from .lattice import Configuration, Volume
from .rng import substream


def volume_key(vol: Volume) -> tuple:
    return tuple(vol.sorted_sites())


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def pinned_sites(G: SpaceTimeCluster) -> Tuple[tuple, tuple]:
    """Sites of G pinned to x (layer 0) and to y (layer M), each sorted.

    The weight K_G(x, y) reads x and y at these sites only.
    """
    M = G.grid.M
    return (
        tuple(sorted(s for s, layer in G.support if layer == 0)),
        tuple(sorted(s for s, layer in G.support if layer == M)),
    )


def _bridge_span(sc: SpaceCluster, T: float) -> Tuple[tuple, Tuple[float, float]]:
    """The layers a space cluster's bridges run through, and the window its
    Psi is scored on: slice j's two layers, and from j = 1 on the layer
    before, whose slice holds the drift's memory at the window's start.
    Psi reads that slice only in its last t0, so ``cluster_sampler`` starts
    the bridge there, one exact jump from the layer before."""
    j = sc.slice
    return (0, 1) if j == 0 else (j - 1, j, j + 1), (j * T, (j + 1) * T)


@dataclass(frozen=True)
class _Bridge:
    """The bridges of one space cluster: the sites they hold (the drift's
    neighbourhood of the cluster's sites, sorted), the layers they run
    through (``_bridge_span``), the leading steps their first segment
    leaves out, and their number of path rows."""

    sites: tuple
    layers: tuple
    skip: int
    rows: int


def _bridges(G: SpaceTimeCluster, drift: DriftSpec, dt: float) -> Tuple[_Bridge, ...]:
    """One ``_Bridge`` per space cluster of G, in ``G.space_clusters`` order.

    A bridge on slice j >= 1 leaves out the first T / dt - W steps of slice
    j - 1, W = t0 / dt, which Psi does not read (none when W >= T / dt).
    """
    T = G.grid.T
    out = []
    for sc in G.space_clusters:
        sites = tuple(sorted({s for k in sc.sites for s in drift.nbhd.around(k)}))
        layers, _ = _bridge_span(sc, T)
        K = step_count(T, dt)
        skip = max(K - _window_length(drift, dt), 0) if sc.slice else 0
        out.append(_Bridge(sites, layers, skip, (len(layers) - 1) * K + 1 - skip))
    return tuple(out)


# Words of a stream label: ``rng.substream`` keeps 32 bits of an integer
# label, which are injective on the signed 32-bit range.
_WORD_RANGE = range(-(2**31), 2**31)


def _cluster_words(G: SpaceTimeCluster) -> tuple:
    """``G.key()`` flattened into integers, each list and site preceded by
    its length, so that distinct keys give distinct words and no encoding
    is the start of another; a ValidationError when a word falls outside
    the signed 32-bit range."""
    space, time = G.key()
    words = [len(space)]
    for j, sites in space:
        words += [j, len(sites)]
        for site in sites:
            words += [len(site), *site]
    words.append(len(time))
    for site, start, stop in time:
        words += [len(site), *site, start, stop]
    for w in words:
        if w not in _WORD_RANGE:
            raise ValidationError(f"cluster key word {w} does not fit in 32 bits")
    return tuple(words)


def weight_stream(seed: int, G: SpaceTimeCluster) -> np.random.Generator:
    """The generator of G's weight randomness: the (seed, "weight")
    substream named by ``_cluster_words(G)``.  It is keyed by the cluster's
    value, so a cluster draws the same randomness in every set that holds
    it, whatever its position there."""
    return substream(seed, "weight", *_cluster_words(G))


def _require_bridges(clusters: Sequence[SpaceTimeCluster], pot: PotentialSpec) -> None:
    """Refuses a potential without exact bridges when a cluster has a space
    cluster, whose weight needs them: one check before any weight."""
    if any(G.space_clusters for G in clusters):
        girsanov.require_exact_bridges(pot)


def _path_elements(G: SpaceTimeCluster, drift: DriftSpec, dt: float) -> Tuple[int, int]:
    """Elements per replica of G's drawn bridges, all of them and the
    largest bridge's."""
    sizes = [b.rows * len(b.sites) for b in _bridges(G, drift, dt)]
    return sum(sizes), max(sizes, default=0)


@dataclass(frozen=True, eq=False)
class ClusterSampler:
    """The randomness of one cluster weight K_G(x, y) that x and y leave alone.

    Built by ``cluster_sampler``; ``cluster_weight`` evaluates it at any
    (x, y).  ``shared`` maps each intermediate (site, layer) vertex of the
    cluster to its drawn values; ``bridges`` holds one
    ``girsanov.PinnedBridges`` per space cluster, in ``G.space_clusters``
    order, with arrays of their own (a weight table's samplers view its
    buffer instead, and live only while their cluster is scored).
    """

    cluster: SpaceTimeCluster
    drift: DriftSpec
    pot: PotentialSpec
    n_samples: int
    pins: Tuple[tuple, tuple]
    shared: Dict[tuple, np.ndarray]
    bridges: tuple

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the sampler holds."""
        held = sum(v.nbytes for v in self.shared.values())
        return held + sum(b.nbytes for b in self.bridges)


def cluster_sampler(
    G: SpaceTimeCluster,
    drift: DriftSpec,
    pot: PotentialSpec,
    mc: MCParams,
    rng: np.random.Generator,
) -> ClusterSampler:
    """Draw everything the weight K_G(x, y) needs except x and y.

    Layer values at the cluster's vertices are shared between all factors:
    pinned to x at layer 0 and to y at the final layer, drawn from m at the
    intermediate layers (in sorted-support order).  Then, per space cluster,
    bridge sites outside those vertices get fresh stationary draws (layer
    by layer), followed by the bridge noise, drawn once with the pinned
    values at 0 (``girsanov.pinned_bridges``), so that ``cluster_weight``
    moves the bridges to any (x, y).  A bridge on slice j >= 1 starts at
    jT - W dt with one exact bridge jump from the layer j - 1 values
    (``_bridges``).  The bridges get arrays of their own.
    """
    return _draw(G, drift, pot, mc, rng)


def _draw(
    G: SpaceTimeCluster,
    drift: DriftSpec,
    pot: PotentialSpec,
    mc: MCParams,
    rng: np.random.Generator,
    out: np.ndarray = None,
) -> ClusterSampler:
    """``cluster_sampler``, whose bridges are drawn, one after the other,
    into the front of the flat array ``out`` when it is given: the table's
    buffer, which holds ``_path_elements`` R elements and more, and which
    the next cluster's draws overwrite."""
    grid = G.grid
    T, M = grid.T, grid.M
    if drift.beta > 0 and T < drift.memory - 1e-12:
        raise ValidationError("slice length T must be at least the drift memory t0")
    R = mc.n_samples
    shared: Dict[tuple, np.ndarray] = {}
    for site, layer in sorted(G.support):
        if 0 < layer < M:
            shared[(site, layer)] = _sample_reference_rng(pot, R, rng)

    bridges, lo = [], 0
    for b in _bridges(G, drift, mc.dt):
        # nodes[n][i]: the value of site i at layer n, None where pinned
        nodes = [
            [
                None if (s, l) in G.support and l in (0, M)
                else shared[(s, l)] if (s, l) in shared
                else _sample_reference_rng(pot, R, rng)
                for s in b.sites
            ]
            for l in b.layers
        ]
        rows = None
        if out is not None:
            n = b.rows * len(b.sites) * R
            rows = out[lo : lo + n].reshape(b.rows, len(b.sites), 1, R)
            lo += n
        bridges.append(pinned_bridges(pot, b.sites, nodes, b.layers[0] * T, T, mc.dt, rng, R, b.skip, rows))
    return ClusterSampler(G, drift, pot, R, pinned_sites(G), shared, tuple(bridges))


def cluster_weight(sampler: ClusterSampler, x, y, scratch: np.ndarray = None) -> Estimate:
    """Monte Carlo estimate of the weight K_G(x, y) from the cluster's sampler.

    x and y map sites to values (a Configuration or a dict keyed by site
    tuples) and must cover the sites ``pinned_sites`` names.  The pinned
    values are scalars or arrays of one broadcast shape, and the estimate
    holds one weight per point of it, a float for scalars.  Each space
    cluster's bridges are moved to the pinned values
    (``PinnedBridges.moved``).  The factors are exp(-Psi) - 1 over each
    space cluster and p_T - 1 over each time-cluster slice, averaged over
    the replicas.
    Evaluating one sampler at several (x, y) uses common random numbers; a
    point's weight does not depend on the other points, which are scored in
    blocks of about ``girsanov.BLOCK_ELEMENTS`` path elements.

    ``scratch``, a flat float array that the caller reuses, receives the
    moved bridges in place of new arrays; it must hold one point's moved
    bridge, apart from the sampler's bridges, and fewer points fit a block
    when it is smaller.  No view of it outlives the call.
    """
    R, (xs, ys) = sampler.n_samples, sampler.pins
    try:
        pins = {(s, 0): x[s] for s in xs} | {(s, sampler.cluster.grid.M): y[s] for s in ys}
    except KeyError as exc:
        raise CoverageError(f"x or y does not cover pinned site {exc.args[0]}") from None
    shape = np.broadcast(*pins.values()).shape
    # row j holds the values of the j-th pin at every point
    points = np.empty((len(pins),) + shape)
    for j, v in enumerate(pins.values()):
        points[j] = v
    points = points.reshape(len(pins), math.prod(shape))
    rows = max((b.values.shape[0] * b.values.shape[1] for b in sampler.bridges), default=1)
    block = max(1, girsanov.BLOCK_ELEMENTS // R // rows)
    if scratch is not None and sampler.bridges:
        block = min(block, scratch.size // (R * rows))
        if not block or any(np.may_share_memory(scratch, b.values) for b in sampler.bridges):
            raise ValidationError("scratch must hold one point's moved bridge apart from the sampler's bridges")
    value, stderr = np.empty(points.shape[1]), np.empty(points.shape[1])
    for lo in range(0, value.size, block):
        hi = min(lo + block, value.size)
        pins_at = dict(zip(pins, points[:, lo:hi, None]))
        est = mean_estimate(_weight_samples(sampler, pins_at, hi - lo, scratch))
        value[lo:hi], stderr[lo:hi] = est.value, est.stderr
    if not shape:
        return Estimate(float(value[0]), float(stderr[0]), R, method="cluster-weight")
    return Estimate(value.reshape(shape), stderr.reshape(shape), R, method="cluster-weight")


def _weight_samples(sampler: ClusterSampler, pins: Dict[tuple, np.ndarray], P: int,
                    scratch: np.ndarray = None) -> np.ndarray:
    """(P, R) samples of K_G, ``pins`` mapping each pinned (site, layer) to
    its values at P points, shape (P, 1); each bridge is moved into the
    front of ``scratch`` when it is given."""
    G, pot, R = sampler.cluster, sampler.pot, sampler.n_samples
    T = G.grid.T

    def layer_value(site, layer) -> np.ndarray:
        pinned = pins.get((site, layer))
        return sampler.shared[(site, layer)] if pinned is None else pinned

    samples = np.ones((P, R))
    for tc in G.time_clusters:
        for j in tc.slices:
            v0 = layer_value(tc.site, j)
            v1 = layer_value(tc.site, j + 1)
            samples = samples * (free_kernel(pot, T, v0, v1) - 1.0)
    for sc, bridge in zip(G.space_clusters, sampler.bridges):
        layer_ids, window = _bridge_span(sc, T)
        moved = None
        if scratch is not None:
            shape = bridge.values.shape[:2] + (P, R)
            moved = scratch[: math.prod(shape)].reshape(shape)
        bundle = bridge.moved([[pins.get((s, l)) for s in bridge.sites] for l in layer_ids], P, moved)
        psi_sum = np.zeros(P * R)
        for k in sorted(sc.sites):
            psi_sum += psi(sampler.drift, k, window, bundle)
        samples = samples * np.expm1(-psi_sum).reshape(P, R)
    return samples


@dataclass(frozen=True)
class WeightTable:
    """The weights of a cluster set, one per cluster in its order."""

    clusters: ClusterSet
    estimates: tuple

    def __len__(self) -> int:
        return len(self.estimates)

    def items(self):
        return zip(self.clusters.clusters, self.estimates)


def _same_range(clusters: ClusterSet, drift: DriftSpec) -> None:
    """Refuses a set built on another range than the drift's neighbourhood."""
    if clusters.nbhd != drift.nbhd:
        raise ValidationError("the cluster set's neighbourhood differs from the drift's")


def weight_table(
    clusters: ClusterSet,
    x: Configuration,
    y: Configuration,
    drift: DriftSpec,
    pot: PotentialSpec,
    mc: MCParams,
    seed: int,
) -> WeightTable:
    """Estimate the weight of every cluster of the set, which must be built
    on the drift's neighbourhood.

    Each cluster draws from its own stream, keyed by its value
    (``weight_stream``), so re-running with a different beta, or on a set
    that holds the cluster at another position, reuses the same randomness
    per cluster (common random numbers).  One buffer is allocated per
    table, sized for the largest cluster: each cluster in turn draws its
    bridges into its front and moves them, one bridge at a time, into the
    rest, so no cluster allocates bridge paths of its own.
    """
    _same_range(clusters, drift)
    _require_bridges(clusters.clusters, pot)
    R = mc.n_samples
    sizes = [_path_elements(G, drift, mc.dt) for G in clusters.clusters]
    buffer = np.empty(R * max((drawn + widest for drawn, widest in sizes), default=0))
    estimates = []
    for G, (drawn, _) in zip(clusters.clusters, sizes):
        sampler = _draw(G, drift, pot, mc, weight_stream(seed, G), buffer)
        estimates.append(cluster_weight(sampler, x, y, buffer[R * drawn :]))
    return WeightTable(clusters, tuple(estimates))


# ---------------------------------------------------------------------------
# reconstruction and the volume-indexed interaction
# ---------------------------------------------------------------------------

def _padded(rows: Sequence[tuple], width: int) -> np.ndarray:
    """The rows as an index matrix of the given width, padded with -1."""
    return np.array(
        [row + (-1,) * (width - len(row)) for row in rows], dtype=np.intp
    ).reshape(len(rows), width)


def _weight_polynomials(
    estimates: Sequence[Estimate], index: np.ndarray, coef: np.ndarray,
    group: np.ndarray, n_groups: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sums per group of coef times the product of the weights each row
    names, and the error terms of those sums.

    Row r multiplies the weights at index[r] (-1 pads) left to right, and
    group[r] names its sum.  The error terms, shape (n_groups,
    len(estimates)), are d(sum)/dK_G * se_G.  The weights are independent
    but the sums share them, so a sum's stderr is the norm of its row of
    terms (the joint delta method), and a sum of sums adds the rows first.
    Each position of a row adds the product of the row's other factors to
    the gradient, so a zero weight needs no division.
    """
    n = len(estimates)
    factors = np.append([e.value for e in estimates], 1.0)[index]  # a pad reads 1.0
    ones = np.ones((len(index), 1))
    # prefix[:, p] multiplies the factors before position p, suffix[:, p]
    # those from position p on
    prefix = np.cumprod(np.hstack([ones, factors]), axis=1)
    suffix = np.cumprod(np.hstack([factors, ones])[:, ::-1], axis=1)[:, ::-1]
    sums = np.bincount(group, weights=coef * prefix[:, -1], minlength=n_groups)
    grad = np.bincount(
        (group[:, None] * (n + 1) + index % (n + 1)).ravel(),
        weights=(coef[:, None] * prefix[:, :-1] * suffix[:, 1:]).ravel(),
        minlength=n_groups * (n + 1),
    )
    se = np.array([e.stderr for e in estimates])
    return sums, grad.reshape(n_groups, n + 1)[:, :n] * se


def reconstruct_density(table: WeightTable) -> Estimate:
    """1 + sum over families of pairwise non-intersecting clusters.

    Families are restricted to total size <= k_max, matching the set's
    truncation; the stderr is the joint delta method over the weights.
    Raises BudgetError when the search visits more than
    ``clusters.ENUMERATION_CAP`` families.
    """
    cset = table.clusters
    families = list(_capped_families(
        cset.sizes, cset.conflict_bits, cset.k_max,
        f"family enumeration exceeded cap of {_clusters.ENUMERATION_CAP}",
    ))
    sums, errors = _weight_polynomials(
        table.estimates, _padded(families, cset.k_max), np.ones(len(families)),
        np.zeros(len(families), dtype=np.intp), 1,
    )
    n = min((e.n for e in table.estimates), default=0)
    return Estimate(
        1.0 + float(sums[0]), float(np.linalg.norm(errors[0])), n, method="expansion"
    )


@dataclass(frozen=True)
class InteractionTable:
    """Volume-indexed truncated interaction: log f = -sum_Delta Phi_Delta.

    ``total`` is sum_Delta Phi_Delta, its stderr taken jointly over the
    weights that the entries share.
    """

    entries: tuple  # ((site-tuple key, Estimate), ...) sorted by key
    total: Estimate

    def get(self, vol: Volume) -> Estimate:
        empty = Estimate(0.0, 0.0, 0, method="interaction-empty")
        return dict(self.entries).get(volume_key(vol), empty)


@dataclass(frozen=True, eq=False)
class CollectionTable:
    """Connected collections as arrays, grouped by trace.

    ``keys`` are the sorted trace keys.  Row r of ``index`` is one multiset
    of cluster indices, ascending and padded with -1 to width n_max;
    ``coef[r]`` is its Ursell coefficient and ``trace[r]`` the position of
    its trace key in ``keys``.  The rows come grouped by trace, each group
    in visiting order.
    """

    keys: tuple
    index: np.ndarray
    coef: np.ndarray
    trace: np.ndarray


def _multisets(N: int, n_max: int):
    """The multisets of 1 .. n_max of range(N), one (m, n) array per size n:
    ascending rows in combinations_with_replacement order.

    Each size extends every row of the size before by each index from its
    last one on, in order.
    """
    rows = np.arange(N, dtype=np.intp)[:, None]
    for n in range(1, n_max + 1):
        if n > 1:
            last = rows[:, -1]
            counts = N - last
            starts = np.cumsum(counts) - counts
            new = np.arange(counts.sum(), dtype=np.intp) - np.repeat(starts - last, counts)
            rows = np.hstack([np.repeat(rows, counts, axis=0), new[:, None]])
        yield n, rows


# bits of a row's code per int64 word: those below the sign bit
_CODE_BITS = 63


def _row_groups(columns: list, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Groups m rows by their bits, column c of ``columns`` holding bit c of
    every row.  Returns (first, group): the first row of each group, and
    the group of each row.

    The bits are packed into int64 words of _CODE_BITS bits, which are
    sorted stably, so any number of bits fits and the first row of a group
    leads it in the sorted order.
    """
    words = np.zeros((len(columns) // _CODE_BITS + 1, m), dtype=np.int64)
    for c, column in enumerate(columns):
        words[c // _CODE_BITS] |= column.astype(np.int64) << (c % _CODE_BITS)
    order = np.lexsort(words)
    ordered = words[:, order]
    starts = np.ones(m, dtype=bool)
    starts[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    group = np.empty(m, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return order[starts], group


def connected_collections(clusters: ClusterSet, n_max: int) -> CollectionTable:
    """Connected collections of up to n_max clusters, grouped by trace.

    Multisets of cluster indices are visited in combinations_with_replacement
    order; those whose conflict graph is disconnected are dropped.  The rest
    keep their Ursell coefficient C as ``ursell_coefficient`` returns it, the
    correctly rounded float of a rational that is zero exactly when the
    conflict graph is disconnected.  Raises BudgetError, before any
    multiset is built, when there are more than ``clusters.ENUMERATION_CAP``
    of them or when 3^n_max, the cost of one coefficient on n_max clusters,
    exceeds it.

    The set's conflict matrix is built once, so ``conflicts`` runs once per
    unordered pair of clusters whatever n_max is.  The multisets of each
    size are one index array.  Connectivity and C depend only on a
    multiset's shape, its induced conflict graph and its runs of equal
    indices, so ``is_connected`` runs once per shape of two or more
    clusters and ``ursell_coefficient`` once per connected shape, each on
    the first multiset of that shape.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    N = len(clusters.clusters)
    cap = _clusters.ENUMERATION_CAP
    if 3**n_max > cap or sum(math.comb(N + n - 1, n) for n in range(1, n_max + 1)) > cap:
        raise BudgetError(f"collection enumeration exceeded cap of {cap}")
    conflict = clusters.conflict_matrix
    index, coef = [], []
    for n, rows in _multisets(N, n_max):
        # a multiset's shape: its induced conflict graph, then which
        # neighbouring positions hold one index
        pairs = tuple(combinations(range(n), 2))
        first, shape_of = _row_groups(
            [conflict[rows[:, a], rows[:, b]] for a, b in pairs]
            + [rows[:, k] == rows[:, k + 1] for k in range(n - 1)],
            len(rows),
        )
        shape_coef = np.zeros(len(first))
        for k, r in enumerate(first.tolist()):
            combo = tuple(rows[r].tolist())
            edges = tuple((a, b) for a, b in pairs if conflict[combo[a], combo[b]])
            if n == 1 or is_connected(combo, edges):
                shape_coef[k] = ursell_coefficient(combo, edges)
        keep = shape_coef[shape_of] != 0.0
        padded = np.full((np.count_nonzero(keep), n_max), -1, dtype=np.intp)
        padded[:, :n] = rows[keep]
        index.append(padded)
        coef.append(shape_coef[shape_of[keep]])
    index, coef = np.concatenate(index), np.concatenate(coef)
    # the trace of a row is the union of its clusters' sites, as one row of
    # a site-membership table; the pad index -1 reads an empty row
    sites = sorted(frozenset().union(*(G.sites for G in clusters.clusters)))
    member = np.zeros((N + 1, len(sites)), dtype=bool)
    for i, G in enumerate(clusters.clusters):
        member[i, [sites.index(s) for s in G.sites]] = True
    covered = member[index].any(axis=1)
    first, trace_of = _row_groups(list(covered.T), len(index))
    keys = [tuple(sites[j] for j in np.flatnonzero(covered[r])) for r in first]
    by_key = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[by_key] = np.arange(len(keys))
    trace = rank[trace_of]
    order = np.argsort(trace, kind="stable")
    return CollectionTable(
        tuple(keys[k] for k in by_key), index[order], coef[order], trace[order]
    )


def interaction_terms(table: WeightTable, coll: CollectionTable) -> InteractionTable:
    """Resummation of the log series into volume-local terms.

    Phi_Delta(x, y) = -sum over connected collections (the rows of ``coll``,
    ``connected_collections`` of the table's cluster set, with trace Delta) of
    the Ursell coefficient times the product of the collection's weights.
    Every stderr, the total's too, is the joint delta method over the
    weights.
    """
    phi, errors = _weight_polynomials(
        table.estimates, coll.index, -coll.coef, coll.trace, len(coll.keys)
    )
    n = min((e.n for e in table.estimates), default=0)
    entries = tuple(
        (key, Estimate(value, stderr, n, method="interaction"))
        for key, value, stderr in zip(
            coll.keys, phi.tolist(), np.linalg.norm(errors, axis=1).tolist()
        )
    )
    total = Estimate(
        sum(phi.tolist(), 0.0), float(np.linalg.norm(errors.sum(axis=0))), n,
        method="interaction-sum",
    )
    return InteractionTable(entries, total)


# ---------------------------------------------------------------------------
# convergence checkers
# ---------------------------------------------------------------------------

_KP_SLACK = 1e-12

# Width of the bracket at which the bisection of kp_lambda_star stops; read
# at call time.
KP_TOL = 1e-4


def _kp_worst_ratio(lam: float, sizes: Sequence[int], conflict: np.ndarray) -> float:
    """max over G of sum_{H conflicting with G} |H| (lam e)^{|H|} / |G|,
    each sum in index order over G's row of the conflict matrix."""
    if not sizes:
        return 0.0
    w = [s * (lam * math.e) ** s for s in sizes]
    # cumsum adds left to right, and a non-conflicting H adds 0.0 exactly
    totals = np.cumsum(np.where(conflict, w, 0.0), axis=1)[:, -1]
    return max(0.0, float((totals / sizes).max()))


def kp_check(lam: float, clusters: ClusterSet) -> dict:
    """Convergence criterion with weights majorized by lam^{|Gamma|}.

    Checks sum over Gamma' incompatible with Gamma of
    |Gamma'| (lam e)^{|Gamma'|} <= |Gamma| for every cluster Gamma of the
    set.  Deterministic; returns the worst ratio over the set.
    """
    if lam < 0:
        raise ValidationError("lambda must be nonnegative")
    worst = _kp_worst_ratio(lam, clusters.sizes, clusters.conflict_matrix)
    return {
        "satisfied": bool(worst <= 1.0 + _KP_SLACK),
        "worstRatio": worst,
        "nClusters": len(clusters.clusters),
        "lambda": lam,
    }


def kp_lambda_star(clusters: ClusterSet) -> float:
    """Largest lambda passing kp_check on the set, located by bisection on
    [0, 1] to within KP_TOL."""
    sizes, conflict = clusters.sizes, clusters.conflict_matrix

    def satisfied(lam: float) -> bool:
        return _kp_worst_ratio(lam, sizes, conflict) <= 1.0 + _KP_SLACK

    if not satisfied(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    if satisfied(hi):
        return hi
    while hi - lo > KP_TOL:
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            lo = mid
        else:
            hi = mid
    return lo


def grid_for_beta(t: float, t0: float, beta: float) -> TimeGrid:
    """Slice [0, t] so the slice length tracks 1/beta but stays >= t0."""
    if t <= 0 or t0 <= 0:
        raise ValidationError("t and t0 must be positive")
    target = 1.0 / beta if beta > 0 else t
    M = max(1, int(round(t / target)))
    while M > 1 and t / M < t0 - 1e-12:
        M -= 1
    T = t / M
    if T < t0 - 1e-12:
        raise ValidationError("cannot satisfy T >= t0 on this horizon")
    return TimeGrid(T, M)


def c2_hat(pot: PotentialSpec, T: float) -> float:
    """Quadrature L^4(m x m) norm of p_T - 1, the time-factor bound."""
    xs, w = reference_quadrature(pot, 201)
    vals = free_kernel(pot, T, xs[:, None], xs[None, :])
    fourth = np.einsum("i,j,ij->", w, w, np.abs(vals - 1.0) ** 4)
    return float(fourth**0.25)


def weight_bound_fit(
    beta_grid: Sequence[float],
    vol: Volume,
    drift: DriftSpec,
    pot: PotentialSpec,
    x: Configuration,
    y: Configuration,
    t: float,
    k_max: int,
    mc: MCParams,
    seed: int,
) -> List[dict]:
    """Empirical weight-decay bound lambda(beta) on a beta grid.

    For each beta the horizon [0, t] is re-sliced with T ~ max(t0, 1/beta)
    and every cluster weight is estimated with common random numbers
    (``weight_stream``, keyed by the cluster's value), so the fitted
    lambda values are comparable across the grid.
    """
    rows = []
    for beta in beta_grid:
        grid = grid_for_beta(t, drift.memory, beta)
        d = dataclasses.replace(drift, beta=float(beta))
        table = weight_table(ClusterSet.enumerate(vol, d.nbhd, grid, k_max), x, y, d, pot, mc, seed)
        lam_hat = 0.0
        c1 = 0.0
        max_z = 0.0
        for G, est in table.items():
            bound = (abs(est.value) + 2.0 * est.stderr) ** (1.0 / G.size)
            lam_hat = max(lam_hat, bound)
            if not G.time_clusters:
                c1 = max(c1, bound)
            if est.stderr > 0:
                max_z = max(max_z, abs(est.value) / est.stderr)
        rows.append(
            {
                "beta": float(beta),
                "T": grid.T,
                "M": grid.M,
                "lambdaHat": lam_hat,
                "c1Hat": c1,
                "c2Hat": c2_hat(pot, grid.T),
                "maxAbsZ": max_z,
                "nClusters": len(table),
            }
        )
    return rows


def summability_report(itab: InteractionTable) -> dict:
    """Per-site interaction sums with the Dobrushin-style (|Delta|-1) weight.

    The norm of each term is |Phi_Delta| at the table's one (x, y) pair, a
    lower bound on its sup over configurations.
    """
    norms = {key: abs(est.value) for key, est in itab.entries}
    sites = sorted({s for key in norms for s in key})
    per_site = {}
    for i in sites:
        per_site[i] = sum(
            (len(key) - 1) * v for key, v in norms.items() if i in key
        )
    return {
        "perSite": per_site,
        "sup": max(per_site.values(), default=0.0),
        "nTerms": len(norms),
    }
