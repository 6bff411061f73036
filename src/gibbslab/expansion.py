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

The logarithm of the density is resummed into an interaction indexed by
spatial volumes: log f = -sum_Delta Phi_Delta, each Phi_Delta collecting
Ursell-weighted products over connected collections with that trace.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .clusters import (
    SpaceTimeCluster,
    TimeGrid,
    _capped_families,
    conflict_graph,
    enumerate_clusters,
    is_connected,
    ursell_coefficient,
)
from .dynamics import (
    DriftSpec,
    PathBundle,
    PotentialSpec,
    _sample_reference_rng,
    free_kernel,
    reference_quadrature,
)
from .errors import BudgetError, CoverageError, ValidationError
from .estimates import Estimate, MCParams, mean_estimate
from .girsanov import (
    BLOCK_ELEMENTS,
    _bridge_coefficients,
    _bridge_lifts,
    _KeptUniforms,
    multi_bridge_bundle,
    psi,
)
from .lattice import Configuration, Neighborhood, Volume
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


@dataclass(frozen=True, eq=False)
class _SpaceBridge:
    """The bridge paths of one space cluster, with its pinned values at 0.

    ``values`` is the bundle's site-major buffer, shape (sites, K+1, R).
    ``scored`` lists (site, row) of the sites whose Psi enters the weight.
    Each entry of ``pinned`` is (row of the site, its layer values with
    None where the layer is pinned, the site's winding uniforms per
    segment).  ``coef`` holds the weights of a segment's start and end in
    its rows (``_bridge_coefficients``).
    """

    sites: tuple
    scored: tuple
    layers: tuple
    window: Tuple[float, float]
    times: np.ndarray
    values: np.ndarray
    pinned: tuple
    coef: np.ndarray

    @property
    def nbytes(self) -> int:
        held = [u for _, nodes, us in self.pinned for u in (*nodes, *us) if u is not None]
        return sum(np.asarray(u).nbytes for u in held + [self.times, self.values])


@dataclass(frozen=True, eq=False)
class ClusterSampler:
    """The randomness of one cluster weight K_G(x, y) that x and y leave alone.

    Built by ``cluster_sampler``; ``cluster_weight`` evaluates it at any
    (x, y).
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
    by layer), followed by the bridge noise.  Each bridge bundle is drawn
    once with its pinned values set to 0; since a bridge is affine in its
    (lifted) layer values, ``cluster_weight`` moves it to any (x, y).
    """
    grid = G.grid
    T, M = grid.T, grid.M
    if drift.beta > 0 and T < drift.memory - 1e-12:
        raise ValidationError("slice length T must be at least the drift memory t0")
    R = mc.n_samples
    shared: Dict[tuple, np.ndarray] = {}
    for site, layer in sorted(G.support):
        if 0 < layer < M:
            shared[(site, layer)] = _sample_reference_rng(pot, R, rng)

    bridges = []
    for sc in G.space_clusters:
        j = sc.slice
        sites = tuple(sorted({s for k in sc.sites for s in drift.nbhd.around(k)}))
        layer_ids = (0, 1) if j == 0 else (j - 1, j, j + 1)
        nodes = {s: [] for s in sites}
        for l in layer_ids:
            for s in sites:
                if (s, l) in G.support and l in (0, M):
                    nodes[s].append(None)
                elif (s, l) in shared:
                    nodes[s].append(shared[(s, l)])
                else:
                    nodes[s].append(_sample_reference_rng(pot, R, rng))
        layers = [
            {s: 0.0 if nodes[s][n] is None else nodes[s][n] for s in sites}
            for n in range(len(layer_ids))
        ]
        kept = _KeptUniforms(rng)
        base = multi_bridge_bundle(pot, sites, layers, layer_ids[0] * T, T, mc.dt, kept, R)
        n_seg = len(layer_ids) - 1
        uniforms = kept.uniforms or [None] * (len(sites) * n_seg)
        pinned = tuple(
            (i, tuple(nodes[s]), tuple(uniforms[i * n_seg:(i + 1) * n_seg]))
            for i, s in enumerate(sites)
            if any(v is None for v in nodes[s])
        )
        bridges.append(
            _SpaceBridge(
                sites, tuple((k, sites.index(k)) for k in sorted(sc.sites)),
                layer_ids, (j * T, (j + 1) * T),
                base.times, base.values.transpose(1, 2, 0), pinned,
                _bridge_coefficients(pot.family, T, mc.dt),
            )
        )
    return ClusterSampler(G, drift, pot, R, pinned_sites(G), shared, tuple(bridges))


def cluster_weight(sampler: ClusterSampler, x, y) -> Estimate:
    """Monte Carlo estimate of the weight K_G(x, y) from the cluster's sampler.

    x and y map sites to values (a Configuration or a dict keyed by site
    tuples) and must cover the sites ``pinned_sites`` names.  The pinned
    values are scalars or arrays of one broadcast shape, and the estimate
    holds one weight per point of it, a float for scalars.  Each bridge path
    is the sampler's base path plus the coefficient paths times the pinned
    values; on the circle the windings are picked again from the kept
    uniforms.  The factors are exp(-Psi) - 1 over each space cluster and
    p_T - 1 over each time-cluster slice, averaged over the replicas.
    Evaluating one sampler at several (x, y) uses common random numbers; a
    point's weight does not depend on the other points, which are scored in
    blocks of about BLOCK_ELEMENTS path elements.
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
    block = max(1, BLOCK_ELEMENTS // R // rows)
    value, stderr = np.empty(points.shape[1]), np.empty(points.shape[1])
    for lo in range(0, value.size, block):
        hi = min(lo + block, value.size)
        est = mean_estimate(_weight_samples(sampler, dict(zip(pins, points[:, lo:hi, None])), hi - lo))
        value[lo:hi], stderr[lo:hi] = est.value, est.stderr
    if not shape:
        return Estimate(float(value[0]), float(stderr[0]), R, method="cluster-weight")
    return Estimate(value.reshape(shape), stderr.reshape(shape), R, method="cluster-weight")


def _weight_samples(sampler: ClusterSampler, pins: Dict[tuple, np.ndarray], P: int) -> np.ndarray:
    """(P, R) samples of K_G, ``pins`` mapping each pinned (site, layer) to
    its values at P points, shape (P, 1)."""
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
    for bridge in sampler.bridges:
        coef = bridge.coef[:, :, None, None]
        K = coef.shape[0] - 1
        # the base paths, (sites, K+1, P, R)
        values = np.empty(bridge.values.shape[:2] + (P, R))
        values[...] = bridge.values[:, :, None, :]
        for i, nodes, uniforms in bridge.pinned:
            filled = [
                layer_value(bridge.sites[i], l) if v is None else v
                for l, v in zip(bridge.layers, nodes)
            ]
            lifts = _bridge_lifts(pot, filled, T, uniforms)
            # base already passes through a stored layer value
            for n, (lift, v) in enumerate(zip(lifts, nodes)):
                if lift is v:
                    continue
                shift = lift - bridge.values[i, n * K]
                if n == 0:
                    values[i, 0] += shift
                else:
                    values[i, (n - 1) * K + 1:n * K + 1] += coef[1:, 1] * shift
                if n < len(lifts) - 1:
                    values[i, n * K + 1:(n + 1) * K + 1] += coef[1:, 0] * shift
        replicas = values.reshape(values.shape[:2] + (P * R,)).transpose(2, 0, 1)
        bundle = PathBundle(bridge.sites, bridge.times, replicas, pot)
        psi_sum = np.zeros(P * R)
        for k, _ in bridge.scored:
            psi_sum += psi(sampler.drift, k, bridge.window, bundle)
        samples = samples * np.expm1(-psi_sum).reshape(P, R)
    return samples


@dataclass(frozen=True)
class WeightTable:
    """Weights of all enumerated clusters up to k_max, in canonical order;
    ``nbhd`` is the drift's neighbourhood, which decides their conflicts."""

    clusters: tuple
    estimates: tuple
    nbhd: Neighborhood
    k_max: int

    def __len__(self) -> int:
        return len(self.clusters)

    def items(self):
        return zip(self.clusters, self.estimates)


def weight_table(
    vol: Volume,
    grid: TimeGrid,
    k_max: int,
    x: Configuration,
    y: Configuration,
    drift: DriftSpec,
    pot: PotentialSpec,
    mc: MCParams,
    seed: int,
) -> WeightTable:
    """Estimate every cluster weight up to k_max, the clusters enumerated
    with the drift's neighbourhood.

    The random stream of cluster index i is derived from (seed, "weight", i)
    only, so re-running with a different beta reuses the same randomness
    per cluster (common random numbers).
    """
    clusters = enumerate_clusters(vol, drift.nbhd, grid, k_max)
    estimates = tuple(
        cluster_weight(
            cluster_sampler(G, drift, pot, mc, substream(seed, "weight", i)), x, y
        )
        for i, G in enumerate(clusters)
    )
    return WeightTable(tuple(clusters), estimates, drift.nbhd, k_max)


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


def reconstruct_density(table: WeightTable, cap: int = 200_000) -> Estimate:
    """1 + sum over families of pairwise non-intersecting clusters.

    Families are restricted to total size <= k_max, matching the table's
    truncation; the stderr is the joint delta method over the weights.
    """
    families = list(_capped_families(
        [G.size for G in table.clusters], conflict_graph(table.clusters, table.nbhd),
        table.k_max, cap, f"family enumeration exceeded cap of {cap}",
    ))
    sums, errors = _weight_polynomials(
        table.estimates, _padded(families, table.k_max), np.ones(len(families)),
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


def connected_collections(
    clusters: Sequence[SpaceTimeCluster],
    nbhd: Neighborhood,
    n_max: int,
    cap: int = 200_000,
) -> CollectionTable:
    """Connected collections of up to n_max clusters, grouped by trace.

    Multisets of cluster indices are visited in combinations_with_replacement
    order; those whose conflict graph is disconnected or whose Ursell
    coefficient C is zero are dropped.  Raises BudgetError when more than
    ``cap`` multisets are visited.

    ``conflict_graph`` is built once, as one bitset of conflicting indices
    per cluster; each multiset's induced edges are read from those bitsets,
    so ``conflicts`` runs once per unordered pair of clusters whatever n_max
    is.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    bits = conflict_graph(clusters, nbhd)
    sites = [G.sites for G in clusters]
    groups: Dict[tuple, List[Tuple[tuple, float]]] = {}
    counter = 0
    for n in range(1, n_max + 1):
        pairs = tuple(combinations(range(n), 2))
        for combo in combinations_with_replacement(range(len(clusters)), n):
            counter += 1
            if counter > cap:
                raise BudgetError(f"collection enumeration exceeded cap of {cap}")
            edges = tuple((a, b) for a, b in pairs if bits[combo[a]] >> combo[b] & 1)
            if n > 1 and not is_connected(combo, edges):
                continue
            C = ursell_coefficient(combo, edges)
            if C == 0:
                continue
            key = tuple(sorted(frozenset().union(*(sites[i] for i in combo))))
            groups.setdefault(key, []).append((combo, float(C)))
    keys = tuple(sorted(groups))
    rows = [row for key in keys for row in groups[key]]
    return CollectionTable(
        keys,
        _padded([combo for combo, _ in rows], n_max),
        np.array([C for _, C in rows], dtype=float),
        np.repeat(np.arange(len(keys)), [len(groups[key]) for key in keys]),
    )


def interaction_terms(
    table: WeightTable, n_max: int, cap: int = 200_000
) -> InteractionTable:
    """Resummation of the log series into volume-local terms.

    Phi_Delta(x, y) = -sum over connected collections (multisets of up to
    n_max clusters, trace Delta) of the Ursell coefficient times the product
    of the collection's weights.  Every stderr, the total's too, is the
    joint delta method over the weights.
    """
    coll = connected_collections(table.clusters, table.nbhd, n_max, cap)
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
        sum(phi.tolist()), float(np.linalg.norm(errors.sum(axis=0))), n,
        method="interaction-sum",
    )
    return InteractionTable(entries, total)


# ---------------------------------------------------------------------------
# convergence checkers
# ---------------------------------------------------------------------------

_KP_SLACK = 1e-12


def _kp_worst_ratio(lam: float, sizes: Sequence[int], graph: Sequence[int]) -> float:
    """max over G of sum_{H conflicting with G} |H| (lam e)^{|H|} / |G|,
    each sum in index order over the set bits of G's conflict bitset."""
    worst = 0.0
    for size, bits in zip(sizes, graph):
        total = 0.0
        for h in range(len(sizes)):
            if bits >> h & 1:
                total += sizes[h] * (lam * math.e) ** sizes[h]
        worst = max(worst, total / size)
    return worst


def kp_check(
    lam: float, vol: Volume, nbhd: Neighborhood, grid: TimeGrid, k_max: int
) -> dict:
    """Convergence criterion with weights majorized by lam^{|Gamma|}.

    Checks sum over Gamma' incompatible with Gamma of
    |Gamma'| (lam e)^{|Gamma'|} <= |Gamma| for every enumerated Gamma.
    Deterministic; returns the worst ratio over the enumeration.
    """
    if lam < 0:
        raise ValidationError("lambda must be nonnegative")
    clusters = enumerate_clusters(vol, nbhd, grid, k_max)
    sizes = [G.size for G in clusters]
    worst = _kp_worst_ratio(lam, sizes, conflict_graph(clusters, nbhd))
    return {
        "satisfied": bool(worst <= 1.0 + _KP_SLACK),
        "worstRatio": worst,
        "nClusters": len(clusters),
        "lambda": lam,
    }


def kp_lambda_star(
    vol: Volume,
    nbhd: Neighborhood,
    grid: TimeGrid,
    k_max: int,
    tol: float = 1e-4,
) -> float:
    """Largest lambda passing kp_check, located by bisection on [0, 1]."""
    clusters = enumerate_clusters(vol, nbhd, grid, k_max)
    sizes = [G.size for G in clusters]
    graph = conflict_graph(clusters, nbhd)

    def satisfied(lam: float) -> bool:
        return _kp_worst_ratio(lam, sizes, graph) <= 1.0 + _KP_SLACK

    if not satisfied(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    if satisfied(hi):
        return hi
    while hi - lo > tol:
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
    (stream keyed by the cluster's enumeration index only), so the fitted
    lambda values are comparable across the grid.
    """
    rows = []
    for beta in beta_grid:
        grid = grid_for_beta(t, drift.memory, beta)
        d = dataclasses.replace(drift, beta=float(beta))
        table = weight_table(vol, grid, k_max, x, y, d, pot, mc, seed)
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
    per_site_plain = {}
    for i in sites:
        per_site[i] = sum(
            (len(key) - 1) * v for key, v in norms.items() if i in key
        )
        per_site_plain[i] = sum(v for key, v in norms.items() if i in key)
    return {
        "perSite": per_site,
        "sup": max(per_site.values(), default=0.0),
        "supPlain": max(per_site_plain.values(), default=0.0),
        "nTerms": len(norms),
    }
