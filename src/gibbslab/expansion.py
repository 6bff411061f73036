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
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clusters import (
    SpaceTimeCluster,
    TimeGrid,
    conflict_graph,
    enumerate_clusters,
    is_connected,
    trace,
    ursell_coefficient,
)
from .dynamics import (
    DriftSpec,
    PotentialSpec,
    _sample_reference_rng,
    free_kernel,
    reference_quadrature,
)
from .errors import BudgetError, CoverageError, ValidationError
from .estimates import (
    Estimate,
    MCParams,
    mean_estimate,
    power_product_estimate,
    product_estimate,
    sum_estimates,
)
from .girsanov import multi_bridge_bundle, psi
from .lattice import Configuration, Neighborhood, Volume
from .rng import substream


def volume_key(vol: Volume) -> tuple:
    return tuple(vol.sorted_sites())


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def cluster_weight(
    G: SpaceTimeCluster,
    x: Configuration,
    y: Configuration,
    drift: DriftSpec,
    pot: PotentialSpec,
    mc: MCParams,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Estimate:
    """Monte Carlo estimate of the weight K_G(x, y).

    Layer values at the cluster's vertices are shared between all factors:
    pinned to x at layer 0 and to y at the final layer, drawn from m at the
    intermediate layers.  Bridge sites outside those vertices get fresh
    stationary draws per factor.
    """
    grid = G.grid
    T, M = grid.T, grid.M
    if drift.beta > 0 and T < drift.memory - 1e-12:
        raise ValidationError("slice length T must be at least the drift memory t0")
    if rng is None:
        rng = substream(seed, "cluster-weight")
    R = mc.n_samples
    tr = trace(G)
    for s in tr.sorted_sites():
        if (s, 0) in G.support and s not in x:
            raise CoverageError(f"x does not cover trace site {s}")
        if (s, M) in G.support and s not in y:
            raise CoverageError(f"y does not cover trace site {s}")

    shared: Dict[tuple, np.ndarray] = {}
    for site, layer in sorted(G.support):
        if layer == 0:
            shared[(site, layer)] = np.full(R, x[site])
        elif layer == M:
            shared[(site, layer)] = np.full(R, y[site])
        else:
            shared[(site, layer)] = _sample_reference_rng(pot, R, rng)

    samples = np.ones(R)
    for tc in G.time_clusters:
        for j in tc.slices:
            v0 = shared[(tc.site, j)]
            v1 = shared[(tc.site, j + 1)]
            samples = samples * (free_kernel(pot, T, v0, v1) - 1.0)
    for sc in G.space_clusters:
        j = sc.slice
        sites_needed = sorted(
            {s for k in sc.sites for s in drift.nbhd.around(k)}
        )
        layer_ids = [0, 1] if j == 0 else [j - 1, j, j + 1]
        layers = []
        for l in layer_ids:
            row = {}
            for s in sites_needed:
                if (s, l) in shared:
                    row[s] = shared[(s, l)]
                else:
                    row[s] = _sample_reference_rng(pot, R, rng)
            layers.append(row)
        bundle = multi_bridge_bundle(
            pot, sites_needed, layers, layer_ids[0] * T, T, mc.dt, rng, R
        )
        psi_sum = np.zeros(R)
        for k in sorted(sc.sites):
            psi_sum += psi(drift, k, (j * T, (j + 1) * T), bundle)
        samples = samples * np.expm1(-psi_sum)
    return mean_estimate(samples, method="cluster-weight")


@dataclass(frozen=True)
class WeightTable:
    """Weights of all enumerated clusters up to k_max, in canonical order."""

    clusters: tuple
    estimates: tuple
    grid: TimeGrid
    nbhd: Neighborhood
    k_max: int

    def __len__(self) -> int:
        return len(self.clusters)

    def items(self):
        return zip(self.clusters, self.estimates)


def weight_table(
    vol: Volume,
    nbhd: Neighborhood,
    grid: TimeGrid,
    k_max: int,
    x: Configuration,
    y: Configuration,
    drift: DriftSpec,
    pot: PotentialSpec,
    mc: MCParams,
    seed: int,
) -> WeightTable:
    """Estimate every cluster weight up to k_max.

    The random stream of cluster index i is derived from (seed, "weight", i)
    only, so re-running with a different beta reuses the same randomness
    per cluster (common random numbers).
    """
    clusters = enumerate_clusters(vol, nbhd, grid, k_max)
    estimates = tuple(
        cluster_weight(G, x, y, drift, pot, mc, rng=substream(seed, "weight", i))
        for i, G in enumerate(clusters)
    )
    return WeightTable(tuple(clusters), estimates, grid, nbhd, k_max)


# ---------------------------------------------------------------------------
# reconstruction and the volume-indexed interaction
# ---------------------------------------------------------------------------

def reconstruct_density(table: WeightTable, cap: int = 200_000) -> Estimate:
    """1 + sum over families of pairwise non-intersecting clusters.

    Families are restricted to total size <= k_max, matching the table's
    truncation; errors are propagated as if weights were independent.
    """
    clusters = table.clusters
    n = len(clusters)
    graph = [set(nbrs) for nbrs in conflict_graph(clusters, table.nbhd)]
    terms: List[Estimate] = []
    counter = [0]

    def search(start: int, idxs: tuple, total: int):
        for idx in range(start, n):
            G = clusters[idx]
            w = total + G.size
            if w > table.k_max:
                continue
            if any(i in graph[idx] for i in idxs):
                continue
            counter[0] += 1
            if counter[0] > cap:
                raise BudgetError(f"family enumeration exceeded cap of {cap}")
            terms.append(
                product_estimate(
                    [table.estimates[i] for i in idxs + (idx,)], method="family"
                )
            )
            search(idx + 1, idxs + (idx,), w)

    search(0, (), 0)
    return sum_estimates(terms, offset=1.0, method="expansion")


@dataclass(frozen=True)
class InteractionTable:
    """Volume-indexed truncated interaction: log f = -sum_Delta Phi_Delta."""

    entries: tuple  # ((site-tuple key, Estimate), ...) sorted by key
    n_max: int
    grid: TimeGrid
    nbhd: Neighborhood

    def traces(self) -> List[Volume]:
        return [Volume(frozenset(key)) for key, _ in self.entries]

    def get(self, vol: Volume) -> Estimate:
        key = volume_key(vol)
        for k, est in self.entries:
            if k == key:
                return est
        return Estimate(0.0, 0.0, 0, method="interaction-empty")

    def total(self) -> Estimate:
        return sum_estimates([e for _, e in self.entries], method="interaction-sum")


def connected_collections(
    clusters: Sequence[SpaceTimeCluster],
    nbhd: Neighborhood,
    n_max: int,
    cap: int = 200_000,
) -> Dict[tuple, List[Tuple[tuple, float]]]:
    """Connected collections of up to n_max clusters, grouped by trace.

    Multisets of cluster indices are visited in combinations_with_replacement
    order; those whose conflict graph is disconnected or whose Ursell
    coefficient C is zero are dropped.  Returns {trace key: [(combo, C), ...]}
    with each list in visiting order.  Raises BudgetError when more than
    ``cap`` multisets are visited.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    groups: Dict[tuple, List[Tuple[tuple, float]]] = {}
    counter = 0
    for n in range(1, n_max + 1):
        for combo in combinations_with_replacement(range(len(clusters)), n):
            counter += 1
            if counter > cap:
                raise BudgetError(f"collection enumeration exceeded cap of {cap}")
            Gs = [clusters[i] for i in combo]
            if n > 1 and not is_connected(Gs, nbhd):
                continue
            C = ursell_coefficient(Gs, nbhd)
            if C == 0:
                continue
            key = tuple(sorted(frozenset().union(*(G.sites for G in Gs))))
            groups.setdefault(key, []).append((combo, float(C)))
    return groups


def interaction_terms(
    table: WeightTable, n_max: int, cap: int = 200_000
) -> InteractionTable:
    """Resummation of the log series into volume-local terms.

    Phi_Delta(x, y) = -sum over connected collections (multisets of up to
    n_max clusters, trace Delta) of the Ursell coefficient times the product
    of the collection's weights.
    """
    est = table.estimates
    entries = []
    groups = connected_collections(table.clusters, table.nbhd, n_max, cap)
    for key, group in sorted(groups.items()):
        value, var, n = 0.0, 0.0, 10**9
        for combo, c in group:
            distinct = Counter(combo)
            pe = power_product_estimate(
                [est[i] for i in distinct], list(distinct.values())
            )
            value += -c * pe.value
            var += (c * pe.stderr) ** 2
            n = min(n, pe.n)
        entries.append((key, Estimate(value, math.sqrt(var), n, method="interaction")))
    return InteractionTable(tuple(entries), n_max, table.grid, table.nbhd)


# ---------------------------------------------------------------------------
# convergence checkers
# ---------------------------------------------------------------------------

_KP_SLACK = 1e-12


def _kp_worst_ratio(lam: float, sizes: Sequence[int], graph) -> float:
    """max over G of sum_{H conflicting with G} |H| (lam e)^{|H|} / |G|."""
    worst = 0.0
    for size, nbrs in zip(sizes, graph):
        total = 0.0
        for h in nbrs:
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
    hi: float = 1.0,
) -> float:
    """Largest lambda passing kp_check, located by bisection on [0, hi]."""
    clusters = enumerate_clusters(vol, nbhd, grid, k_max)
    sizes = [G.size for G in clusters]
    graph = conflict_graph(clusters, nbhd)

    def satisfied(lam: float) -> bool:
        return _kp_worst_ratio(lam, sizes, graph) <= 1.0 + _KP_SLACK

    if not satisfied(0.0):
        return 0.0
    lo = 0.0
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


def c2_hat(pot: PotentialSpec, T: float, n_grid: int = 201) -> float:
    """Quadrature L^4(m x m) norm of p_T - 1, the time-factor bound."""
    xs, w = reference_quadrature(pot, n_grid)
    vals = free_kernel(pot, T, xs[:, None], xs[None, :])
    fourth = np.einsum("i,j,ij->", w, w, np.abs(vals - 1.0) ** 4)
    return float(fourth**0.25)


def weight_bound_fit(
    beta_grid: Sequence[float],
    vol: Volume,
    nbhd: Neighborhood,
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
        clusters = enumerate_clusters(vol, nbhd, grid, k_max)
        lam_hat = 0.0
        c1 = 0.0
        max_z = 0.0
        for i, G in enumerate(clusters):
            est = cluster_weight(
                G, x, y, d, pot, mc, rng=substream(seed, "weight", i)
            )
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
                "nClusters": len(clusters),
            }
        )
    return rows


def summability_report(itab, extra_tables: Sequence = ()) -> dict:
    """Per-site interaction sums with the Dobrushin-style (|Delta|-1) weight.

    Norms are taken as a maximum over the given tables, which typically
    come from a probe set of (x, y) pairs (a lower bound on the true sup).
    """
    tables = [itab, *extra_tables]
    norms: Dict[tuple, float] = {}
    for tab in tables:
        for key, est in tab.entries:
            norms[key] = max(norms.get(key, 0.0), abs(est.value))
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
