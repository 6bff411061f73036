import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gibbslab.clusters import (
    ClusterSet,
    SpaceCluster,
    SpaceTimeCluster,
    TimeCluster,
    TimeGrid,
    conflict_graph,
    conflicts,
    enumerate_clusters,
)
from gibbslab.dynamics import (
    _sample_reference_rng,
    circle_free_potential,
    constant_drift,
    free_kernel,
    markov_local_drift,
    quadratic_potential,
)
from gibbslab import clusters as clusters_module
from gibbslab import girsanov
from gibbslab.errors import BudgetError, CoverageError, ValidationError
from gibbslab.estimates import Estimate, MCParams, mean_estimate
from gibbslab.expansion import (
    InteractionTable,
    c2_hat,
    cluster_sampler,
    cluster_weight,
    connected_collections,
    grid_for_beta,
    interaction_terms,
    kp_check,
    kp_lambda_star,
    reconstruct_density,
    summability_report,
    volume_key,
    weight_table,
)
from gibbslab.gibbs import ExpansionDynamicInteraction
from gibbslab.girsanov import multi_bridge_bundle, psi
from gibbslab.lattice import CIRCLE, LINE, Configuration, Neighborhood, Volume
from gibbslab.rng import substream
from generator_states import same_state

QUAD = quadratic_potential()
NB1 = Neighborhood.range1d(1)


def _exact_density_const_drift(c, beta, x, y, t):
    rho = math.exp(-t)
    v = (1.0 - rho * rho) / 2.0
    return math.exp(
        -((y - x * rho - beta * c * (1.0 - rho)) ** 2) / (2 * v)
        + ((y - x * rho) ** 2) / (2 * v)
    )


def _drift(c, beta):
    return dataclasses.replace(constant_drift(c), beta=beta)


def _reference_weight(G, x, y, drift, pot, mc, rng):
    """The per-configuration weight: every draw and the bridge loop are
    redone for each (x, y).  From slice 1 on, a bridge starts W = t0 / dt
    steps before its slice, leaving out the first T / dt - W steps of the
    slice before (none when W >= T / dt)."""
    grid = G.grid
    T, M = grid.T, grid.M
    R = mc.n_samples
    skip = max(round(T / mc.dt) - round(drift.memory / mc.dt), 0)
    shared = {}
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
        sites_needed = sorted({s for k in sc.sites for s in drift.nbhd.around(k)})
        layer_ids = [0, 1] if j == 0 else [j - 1, j, j + 1]
        layers = np.array([
            [
                shared[(s, l)] if (s, l) in shared else _sample_reference_rng(pot, R, rng)
                for s in sites_needed
            ]
            for l in layer_ids
        ])
        bundle = multi_bridge_bundle(
            pot, sites_needed, layers, layer_ids[0] * T, T, mc.dt, rng, R, skip if j else 0
        )
        psi_sum = np.zeros(R)
        for k in sorted(sc.sites):
            psi_sum += psi(drift, k, (j * T, (j + 1) * T), bundle)
        samples = samples * np.expm1(-psi_sum)
    return mean_estimate(samples, method="cluster-weight")


def test_volume_key_is_sorted():
    assert volume_key(Volume(frozenset({(2,), (0,)}))) == ((0,), (2,))


def test_cluster_weight_validates_slice_length():
    grid = TimeGrid(0.05, 1)  # shorter than the drift memory
    G = SpaceTimeCluster((SpaceCluster(0, frozenset({(0,)})),), (), grid)
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, 0.0)
    with pytest.raises(ValidationError):
        cluster_sampler(
            G, _drift(0.5, 1.0), QUAD, MCParams(n_samples=8, dt=0.05),
            substream(0, "cluster-weight"),
        )


def test_cluster_weight_requires_endpoint_coverage():
    grid = TimeGrid(1.0, 1)
    G = SpaceTimeCluster((SpaceCluster(0, frozenset({(0,)})),), (), grid)
    empty = Configuration({(5,): 0.0})
    sampler = cluster_sampler(
        G, _drift(0.5, 1.0), QUAD, MCParams(n_samples=8, dt=0.05),
        substream(0, "cluster-weight"),
    )
    with pytest.raises(CoverageError):
        cluster_weight(sampler, empty, empty)
    # a batch as well: every pinned site needs its values
    batch = {(0,): np.linspace(-1.0, 1.0, 5)}
    assert cluster_weight(sampler, batch, batch).value.shape == (5,)
    with pytest.raises(CoverageError):
        cluster_weight(sampler, batch, {(5,): np.zeros(5)})


def test_single_space_cluster_weight_is_density_minus_one():
    # one site, one slice: K(x, y) = f_T(x, y) - 1 with the exact
    # shifted-mean oracle for a constant drift
    c, beta, x0, y0, T = 0.7, 0.4, 0.2, -0.3, 1.0
    grid = TimeGrid(T, 1)
    G = SpaceTimeCluster((SpaceCluster(0, frozenset({(0,)})),), (), grid)
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, x0)
    y = Configuration.constant(vol, y0)
    sampler = cluster_sampler(
        G, _drift(c, beta), QUAD, MCParams(n_samples=20_000, dt=0.01),
        substream(3, "cluster-weight"),
    )
    est = cluster_weight(sampler, x, y)
    exact = _exact_density_const_drift(c, beta, x0, y0, T) - 1.0
    assert abs(est.value - exact) < 4 * est.stderr + 0.005


def test_time_cluster_weight_has_zero_mean():
    # the top layer of a time cluster is always a fresh stationary draw, so
    # E_m[p_T(., Z) - 1] = 0 makes the weight exactly centered
    grid = TimeGrid(1.0, 2)
    G = SpaceTimeCluster((), (TimeCluster((0,), 0, 0),), grid)
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, 0.4)
    y = Configuration.constant(vol, -0.1)
    sampler = cluster_sampler(
        G, _drift(0.5, 0.2), QUAD, MCParams(n_samples=20_000, dt=0.05),
        substream(5, "cluster-weight"),
    )
    est = cluster_weight(sampler, x, y)
    assert abs(est.value) < 4 * est.stderr


def test_weight_trace_measurability():
    # values of x and y away from the cluster's trace must not matter, bitwise
    grid = TimeGrid(1.0, 1)
    G = SpaceTimeCluster((SpaceCluster(0, frozenset({(0,)})),), (), grid)
    a = Configuration({(0,): 0.2, (1,): 9.0})
    b = Configuration({(0,): 0.2, (1,): -9.0})
    mc = MCParams(n_samples=256, dt=0.05)
    d = _drift(0.7, 0.3)
    e1 = cluster_weight(cluster_sampler(G, d, QUAD, mc, substream(7, "cluster-weight")), a, a)
    e2 = cluster_weight(cluster_sampler(G, d, QUAD, mc, substream(7, "cluster-weight")), b, b)
    assert e1.value == e2.value and e1.stderr == e2.stderr


def test_weight_vanishes_at_beta_zero():
    grid = TimeGrid(1.0, 1)
    G = SpaceTimeCluster((SpaceCluster(0, frozenset({(0,)})),), (), grid)
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, 0.3)
    sampler = cluster_sampler(
        G, _drift(0.7, 0.0), QUAD, MCParams(n_samples=64, dt=0.05),
        substream(1, "cluster-weight"),
    )
    est = cluster_weight(sampler, x, x)
    assert est.value == 0.0 and est.stderr == 0.0


def _matched_kinds(clusters, x, y, drift, pot, mc) -> set:
    """Checks every cluster's sampler against ``_reference_weight`` and
    returns the kinds of clusters and bridges met."""
    kinds = set()
    for i, G in enumerate(clusters):
        ref_rng = substream(2, "weight", i)
        ref = _reference_weight(G, x, y, drift, pot, mc, ref_rng)
        rng = substream(2, "weight", i)
        sampler = cluster_sampler(G, drift, pot, mc, rng)
        assert same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
        est = cluster_weight(sampler, x, y)
        assert abs(est.value - ref.value) <= 1e-12 * abs(ref.value)
        assert est.stderr == pytest.approx(ref.stderr, rel=1e-12)
        kinds.update({"time"} if G.time_clusters else set())
        for bridge in sampler.bridges:
            cut = len(bridge.coef) - len(bridge.head)
            kinds.add(f"tail of {len(bridge.times) - 1} steps" if cut else
                      f"{(len(bridge.times) - 1) // (len(bridge.coef) - 1)} segments")
            if cut and any(column[0] is None for _, column, _ in bridge.pinned):
                kinds.add("pinned jump")
            if len(bridge.pinned) < len(bridge.sites):
                kinds.add("unpinned site")
            if bridge.pinned:
                kinds.add("pinned site")
    return kinds


def _endpoints(space, seed):
    draw = np.random.default_rng(seed)
    hi = 1.5 if space == LINE else 2 * math.pi
    lo = -hi if space == LINE else 0.0
    x = Configuration({(i,): draw.uniform(lo, hi) for i in range(4)}, space)
    y = Configuration({(i,): draw.uniform(lo, hi) for i in range(4)}, space)
    return x, y


@pytest.mark.parametrize(
    "family, M, radius",
    list(itertools.product(("quadratic", "circle_free"), (1, 2, 3), (0, 1))),
)
def test_sampler_weight_matches_the_per_configuration_reference(family, M, radius):
    # the sampler draws what the reference draws, in the same order, and
    # moves each bridge to (x, y) by the affine map: same weights up to
    # rounding, and the generator is left where the reference leaves it.
    # From slice 1 on a bridge keeps the last W = 1 step of the slice
    # before, reached by one jump of 4 steps (x enters only through it
    # where layer 0 is pinned)
    pot = QUAD if family == "quadratic" else circle_free_potential()
    space = LINE if family == "quadratic" else CIRCLE
    nb = Neighborhood.range1d(radius)
    drift = dataclasses.replace(markov_local_drift(1.0, nb, memory=0.1), beta=0.4)
    mc = MCParams(n_samples=8, dt=0.1)
    clusters = enumerate_clusters(Volume.box((0,), (3,)), nb, TimeGrid(0.5, M), 3)
    x, y = _endpoints(space, M + 10 * radius)
    kinds = _matched_kinds(clusters, x, y, drift, pot, mc)
    expected = {"1 segments", "pinned site"}
    if M > 1:
        expected |= {"time", "tail of 6 steps", "pinned jump"}
    if radius > 0:
        expected.add("unpinned site")
    assert expected <= kinds


@pytest.mark.parametrize("family", ["quadratic", "circle_free"])
def test_a_slice_as_long_as_the_memory_keeps_its_whole_first_segment(family):
    # T = t0: Psi reads all of slice j - 1, so a slice-1 bridge leaves out
    # no step and draws what a bridge through layers 0, 1 and 2 drew
    # before bridges were cut
    pot = QUAD if family == "quadratic" else circle_free_potential()
    drift = dataclasses.replace(markov_local_drift(1.0, NB1, memory=0.5), beta=0.4)
    mc = MCParams(n_samples=8, dt=0.1)
    clusters = enumerate_clusters(Volume.box((0,), (3,)), NB1, TimeGrid(0.5, 2), 2)
    x, y = _endpoints(LINE if family == "quadratic" else CIRCLE, 5)
    kinds = _matched_kinds(clusters, x, y, drift, pot, mc)
    assert {"1 segments", "2 segments"} <= kinds
    assert not any(k.startswith("tail") for k in kinds)


def test_a_memory_longer_than_the_slice_at_beta_zero_cuts_nothing():
    # the check T >= t0 binds only when the drift acts: at beta 0 with
    # t0 = 0.5 > T = 0.2, T / dt - W = 4 - 10 clamps at 0, nothing raises,
    # and every weight with a space cluster is exactly 0
    drift = dataclasses.replace(markov_local_drift(1.0, NB1, memory=0.5), beta=0.0)
    mc = MCParams(n_samples=16, dt=0.05)
    clusters = enumerate_clusters(Volume.box((0,), (2,)), NB1, TimeGrid(0.2, 2), 2)
    x, y = _endpoints(LINE, 1)
    seen = set()
    for i, G in enumerate(clusters):
        sampler = cluster_sampler(G, drift, QUAD, mc, substream(3, "weight", i))
        for sc, bridge in zip(G.space_clusters, sampler.bridges):
            assert len(bridge.head) == len(bridge.coef)
            assert len(bridge.times) == 4 * (sc.slice + 1) + 1
            seen.add(sc.slice)
        if G.space_clusters:
            est = cluster_weight(sampler, x, y)
            assert est.value == 0.0 and est.stderr == 0.0
    assert seen == {0, 1}


def test_sampler_revisits_give_the_same_float():
    # a weight is a fixed function of (x, y): evaluating other endpoints in
    # between leaves it bit for bit unchanged
    vol = Volume.box((0,), (2,))
    grid = TimeGrid(0.5, 2)
    drift = dataclasses.replace(markov_local_drift(1.0, NB1, memory=0.1), beta=0.4)
    mc = MCParams(n_samples=16, dt=0.1)
    x = Configuration({(0,): 0.3, (1,): -0.4, (2,): 0.9})
    y = Configuration({(0,): -0.2, (1,): 0.5, (2,): 0.1})
    x2 = Configuration({(0,): 1.1, (1,): 0.0, (2,): -0.7})
    for i, G in enumerate(enumerate_clusters(vol, NB1, grid, 2)):
        sampler = cluster_sampler(G, drift, QUAD, mc, substream(1, "weight", i))
        first = cluster_weight(sampler, x, y)
        cluster_weight(sampler, x2, x)
        assert cluster_weight(sampler, x, y) == first


def _pinned_batch(space, shape, rng):
    """x and y on sites 0..3 with a batch of the given shape at sites 0 and
    1 of x and site 2 of y, and scalars elsewhere."""
    hi = 1.5 if space == LINE else 2 * math.pi
    lo = -hi if space == LINE else 0.0
    x = {(i,): rng.uniform(lo, hi) for i in range(4)}
    y = {(i,): rng.uniform(lo, hi) for i in range(4)}
    x[(0,)] = rng.uniform(lo, hi, shape)
    x[(1,)] = rng.uniform(lo, hi, shape[-1:])
    y[(2,)] = rng.uniform(lo, hi, shape)
    return x, y


def _point(values, idx, shape):
    return {s: float(np.broadcast_to(v, shape)[idx]) for s, v in values.items()}


@pytest.mark.parametrize("block_elements", [None, 1])
@pytest.mark.parametrize("family, M", list(itertools.product(("quadratic", "circle_free"), (1, 2, 3))))
def test_batched_weights_equal_per_point_calls(family, M, block_elements, monkeypatch):
    # a point's weight does not depend on the batch or on the block it is
    # scored in: bit for bit the weight of a scalar call at that point; on
    # the circle the windings are picked on (points, R) arrays
    if block_elements is not None:
        monkeypatch.setattr(girsanov, "BLOCK_ELEMENTS", block_elements)
    pot = QUAD if family == "quadratic" else circle_free_potential()
    space = LINE if family == "quadratic" else CIRCLE
    drift = dataclasses.replace(markov_local_drift(1.0, NB1, memory=0.1), beta=0.4)
    mc = MCParams(n_samples=8, dt=0.1)
    clusters = enumerate_clusters(Volume.box((0,), (3,)), NB1, TimeGrid(0.5, M), 2)
    x, y = _pinned_batch(space, (2, 3), np.random.default_rng(M))
    for i, G in enumerate(clusters):
        sampler = cluster_sampler(G, drift, pot, mc, substream(6, "weight", i))
        batch = cluster_weight(sampler, x, y)
        shape = np.broadcast_shapes(*(
            np.shape(v[s]) for v, sites in zip((x, y), sampler.pins) for s in sites
        ))
        assert np.shape(batch.value) == np.shape(batch.stderr) == shape
        for idx in np.ndindex(shape):
            full = (0,) * (2 - len(idx)) + idx
            one = cluster_weight(sampler, _point(x, full, (2, 3)), _point(y, full, (2, 3)))
            assert isinstance(one.value, float)
            assert (np.asarray(batch.value)[idx], np.asarray(batch.stderr)[idx]) == (one.value, one.stderr)
            assert batch.n == one.n == mc.n_samples


def test_batched_weight_memory_stays_within_blocks():
    # 10 000 points at R = 800 would need a 320 MB (sites, K+1, points, R)
    # path array at once; in blocks of points the peak is a few blocks
    R = 800
    drift = _drift(0.7, 0.3)
    mc = MCParams(n_samples=R, dt=0.05)
    clusters = enumerate_clusters(Volume.box((0,), (1,)), drift.nbhd, TimeGrid(0.2, 1), 1)
    G = next(G for G in clusters if G.space_clusters)
    sampler = cluster_sampler(G, drift, QUAD, mc, substream(5, "weight", 0))
    [bridge] = sampler.bridges
    rows = bridge.values.shape[0] * bridge.values.shape[1]
    block_bytes = max(1, girsanov.BLOCK_ELEMENTS // R // rows) * R * rows * 8
    pts = np.random.default_rng(0).normal(size=(100, 100))
    x = {s: pts for s in sampler.pins[0]}
    y = {s: pts.T for s in sampler.pins[1]}
    tracemalloc.start()
    try:
        est = cluster_weight(sampler, x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.value.shape == (100, 100)
    assert peak <= 8 * block_bytes


def test_reconstruction_matches_direct_density_one_slice():
    # M = 1, one site: the expansion is exactly 1 + K = f_T(x, y)
    c, beta, x0, y0, T = 0.7, 0.3, 0.2, 0.5, 1.0
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, x0)
    y = Configuration.constant(vol, y0)
    drift = _drift(c, beta)
    tab = weight_table(
        ClusterSet.enumerate(vol, drift.nbhd, TimeGrid(T, 1), 2), x, y, drift, QUAD,
        MCParams(n_samples=20_000, dt=0.01), seed=11,
    )
    assert len(tab) == 1
    rec = reconstruct_density(tab)
    exact = _exact_density_const_drift(c, beta, x0, y0, T)
    assert abs(rec.value - exact) < 4 * rec.stderr + 0.005


def test_interaction_log_identity_one_slice():
    # with a single cluster the resummed interaction is the truncated log:
    # Phi = -(K - K^2/2 + K^3/3 - ...) up to n_max
    c, beta, x0, y0, T = 0.7, 0.3, 0.2, 0.5, 1.0
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, x0)
    y = Configuration.constant(vol, y0)
    drift = _drift(c, beta)
    tab = weight_table(
        ClusterSet.enumerate(vol, drift.nbhd, TimeGrid(T, 1), 1), x, y, drift, QUAD,
        MCParams(n_samples=20_000, dt=0.01), seed=11,
    )
    K = tab.estimates[0].value
    itab = interaction_terms(tab, connected_collections(tab.clusters, 4))
    phi = itab.get(Volume.box((0,), (0,))).value
    series = -(K - K**2 / 2 + K**3 / 3 - K**4 / 4)
    assert phi == pytest.approx(series, rel=1e-12)
    # and exp(-Phi) reproduces the reconstructed density up to truncation
    assert math.exp(-itab.total.value) == pytest.approx(1.0 + K, abs=5e-4)


def test_interaction_get_missing_volume_is_zero():
    itab = InteractionTable(
        entries=(( ((0,),), Estimate(0.2, 0.01, 10)),),
        total=Estimate(0.2, 0.01, 10),
    )
    z = itab.get(Volume.box((3,), (4,)))
    assert z.value == 0.0 and z.stderr == 0.0


def test_kp_check_monotone_and_lambda_star():
    vol = Volume.box((0,), (3,))
    grid = TimeGrid(1.0, 3)
    clusters = ClusterSet.enumerate(vol, NB1, grid, 3)
    assert kp_check(0.0, clusters)["satisfied"]
    assert not kp_check(1.0, clusters)["satisfied"]
    r_small = kp_check(0.01, clusters)["worstRatio"]
    r_big = kp_check(0.05, clusters)["worstRatio"]
    assert r_small < r_big
    lam = kp_lambda_star(clusters)
    assert lam > 0.0
    assert kp_check(lam, clusters)["satisfied"]
    assert not kp_check(lam + 5e-4, clusters)["satisfied"]


def _loop_worst_ratio(lam, sizes, graph):
    """The pure-Python double loop that _kp_worst_ratio replaced: each sum in
    index order over the set bits of a cluster's conflict bitset."""
    worst = 0.0
    for size, bits in zip(sizes, graph):
        total = 0.0
        for h in range(len(sizes)):
            if bits >> h & 1:
                total += sizes[h] * (lam * math.e) ** sizes[h]
        worst = max(worst, total / size)
    return worst


@pytest.mark.parametrize("M, n_clusters", [(2, 26), (3, 71)])
def test_kp_worst_ratio_is_bit_equal_to_the_loop(M, n_clusters):
    vol, grid = Volume.box((0,), (3,)), TimeGrid(1.0, M)
    clusters = enumerate_clusters(vol, NB1, grid, 3)
    assert len(clusters) == n_clusters
    graph = conflict_graph(clusters, NB1)
    cset = ClusterSet.enumerate(vol, NB1, grid, 3)
    assert cset.sizes == [G.size for G in clusters]
    for lam in [0.0, 1e-3, 0.01, 0.02, 0.03, 0.05, 0.0368, 0.1, 0.25, 0.5, 1.0, 3.0]:
        got = kp_check(lam, cset)["worstRatio"]
        assert type(got) is float
        assert got == _loop_worst_ratio(lam, cset.sizes, graph)


def test_dynamic_interaction_matches_interaction_terms():
    # ExpansionDynamicInteraction and interaction_terms read one cluster set
    # and one collection table, use the same per-cluster random streams and
    # multiply each collection left to right, so for every trace the
    # on-demand value equals the resummed table entry bit for bit
    vol = Volume.box((0,), (3,))
    grid = TimeGrid(1.0, 2)
    drift = dataclasses.replace(markov_local_drift(1.0, NB1, memory=0.1), beta=0.3)
    mc = MCParams(n_samples=64, dt=0.05)
    x = Configuration({(0,): 0.3, (1,): -0.2, (2,): 0.6, (3,): 0.0})
    y = Configuration({(0,): -0.5, (1,): 0.4, (2,): 0.1, (3,): -0.3})
    clusters = ClusterSet.enumerate(vol, drift.nbhd, grid, 2)
    dyn = ExpansionDynamicInteraction(drift, QUAD, clusters, 3, mc, seed=4)
    tab = weight_table(clusters, x, y, drift, QUAD, mc, seed=4)
    itab = interaction_terms(tab, connected_collections(tab.clusters, 3))
    assert [volume_key(d) for d in dyn.traces()] == [key for key, _ in itab.entries]
    assert any(len(key) > 1 for key, _ in itab.entries)
    for delta in dyn.traces():
        assert dyn.value(delta, x, y) == itab.get(delta).value


def test_a_cluster_set_on_another_neighbourhood_is_refused():
    # the drift's neighbourhood is the one source of range: a set built on
    # radius 0 under a range-1 drift would mix two ranges
    vol, grid = Volume.box((0,), (3,)), TimeGrid(1.0, 1)
    drift = dataclasses.replace(markov_local_drift(1.0, NB1, memory=0.1), beta=0.3)
    other = ClusterSet.enumerate(vol, Neighborhood.range1d(0), grid, 1)
    mc = MCParams(n_samples=16, dt=0.05)
    x = Configuration.constant(vol, 0.2)
    with pytest.raises(ValidationError, match="neighbourhood differs from the drift's"):
        weight_table(other, x, x, drift, QUAD, mc, seed=1)
    with pytest.raises(ValidationError, match="neighbourhood differs from the drift's"):
        ExpansionDynamicInteraction(drift, QUAD, other, 1, mc, seed=1)


def test_connected_collections_cap_and_order(monkeypatch):
    vol = Volume.box((0,), (2,))
    clusters = ClusterSet.enumerate(vol, NB1, TimeGrid(1.0, 2), 2)
    table = connected_collections(clusters, n_max=2)
    for t in range(len(table.keys)):
        rows = table.index[table.trace == t].tolist()
        combos = [tuple(i for i in row if i >= 0) for row in rows]
        assert combos == sorted(combos, key=lambda c: (len(c), c))
    assert np.all(table.coef != 0.0)
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", 100)
    with pytest.raises(BudgetError):
        connected_collections(clusters, n_max=3)
    with pytest.raises(ValidationError):
        connected_collections(clusters, n_max=0)


# box 0..3, r = 1, M = 2, kMax = nMax = 3: the expansion workload geometry
JOINT_VOL = Volume.box((0,), (3,))
JOINT_X = Configuration({(0,): 0.3, (1,): -0.2, (2,): 0.6, (3,): 0.0})
JOINT_Y = Configuration({(0,): -0.5, (1,): 0.4, (2,): 0.1, (3,): -0.3})


def _joint_table(beta, n_samples):
    drift = dataclasses.replace(markov_local_drift(1.0, NB1, memory=0.1), beta=beta)
    return weight_table(
        ClusterSet.enumerate(JOINT_VOL, drift.nbhd, TimeGrid(1.0, 2), 3), JOINT_X, JOINT_Y,
        drift, QUAD, MCParams(n_samples=n_samples, dt=0.05), seed=7,
    )


def _with_weight(tab, G, value):
    estimates = list(tab.estimates)
    estimates[G] = dataclasses.replace(estimates[G], value=value)
    return dataclasses.replace(tab, estimates=tuple(estimates))


def _expansion_outputs(tab, n_max):
    """Every interaction entry, the interaction total and the reconstructed
    density, as (values, stderrs)."""
    itab = interaction_terms(tab, connected_collections(tab.clusters, n_max))
    ests = [e for _, e in itab.entries] + [itab.total, reconstruct_density(tab)]
    return np.array([e.value for e in ests]), np.array([e.stderr for e in ests])


def _central_difference_stderrs(tab, n_max, h=1e-5):
    """sqrt(sum_G (dF/dK_G)^2 se_G^2) for every output F of
    _expansion_outputs, each derivative a central difference in K_G."""
    var = 0.0
    for G, est in enumerate(tab.estimates):
        up = _expansion_outputs(_with_weight(tab, G, est.value + h), n_max)[0]
        down = _expansion_outputs(_with_weight(tab, G, est.value - h), n_max)[0]
        var = var + ((up - down) / (2 * h) * est.stderr) ** 2
    return np.sqrt(var)


def _families(tab):
    """Families of pairwise non-conflicting clusters with total size <= k_max,
    as ascending index tuples in lexicographic (depth-first) order."""
    clusters, k_max, nbhd = tab.clusters.clusters, tab.clusters.k_max, tab.clusters.nbhd
    return sorted(
        fam
        for r in range(1, k_max + 1)
        for fam in itertools.combinations(range(len(clusters)), r)
        if sum(clusters[i].size for i in fam) <= k_max
        and not any(conflicts(clusters[a], clusters[b], nbhd)
                    for a, b in itertools.combinations(fam, 2))
    )


def _loop_references(tab, n_max):
    """Phi per trace, their sum and the reconstructed density, each from a
    pure-Python loop in the library's summation order."""
    coll = connected_collections(tab.clusters, n_max)
    phi = [0.0] * len(coll.keys)
    for row, C, t in zip(coll.index.tolist(), coll.coef.tolist(), coll.trace.tolist()):
        phi[t] += -C * math.prod(tab.estimates[i].value for i in row if i >= 0)
    density = 1.0 + sum(
        math.prod(tab.estimates[i].value for i in fam) for fam in _families(tab)
    )
    return phi + [sum(phi), density]


@pytest.mark.parametrize("beta", [0.2, 1.0])
def test_expansion_stderrs_are_the_joint_delta_method(beta):
    # collections and families share cluster weights ({G} and {G, G} both
    # read K_G), so each error is the delta method over all weights at once
    tab = _joint_table(beta, 300)
    _, stderrs = _expansion_outputs(tab, 3)
    assert stderrs == pytest.approx(_central_difference_stderrs(tab, 3), rel=1e-6)


@pytest.mark.parametrize("n_max", [1, 3])
def test_a_zero_weight_keeps_values_and_stderrs_exact(n_max):
    tab = _with_weight(_joint_table(0.2, 64), 0, 0.0)
    coll = connected_collections(tab.clusters, n_max)
    multiplicity = (coll.index == 0).sum(axis=1)
    assert 1 in multiplicity
    assert multiplicity.max() == n_max  # {G, G, G} at n_max = 3
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        values, stderrs = _expansion_outputs(tab, n_max)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(stderrs))
    assert values.tolist() == _loop_references(tab, n_max)
    assert stderrs == pytest.approx(_central_difference_stderrs(tab, n_max), rel=1e-6)


def test_reconstruct_density_cap_counts_the_families(monkeypatch):
    tab = _joint_table(0.2, 64)
    n = len(_families(tab))
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", n)
    reconstruct_density(tab)
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", n - 1)
    with pytest.raises(BudgetError, match=f"family enumeration exceeded cap of {n - 1}$"):
        reconstruct_density(tab)


def test_grid_for_beta_scaling():
    assert grid_for_beta(5.0, 0.1, 0.0) == TimeGrid(5.0, 1)
    assert grid_for_beta(5.0, 0.1, 1.0) == TimeGrid(1.0, 5)
    g = grid_for_beta(5.0, 0.1, 100.0)  # memory floor binds
    assert g.M == 50 and g.T == pytest.approx(0.1)
    with pytest.raises(ValidationError):
        grid_for_beta(0.05, 0.1, 1.0)


def test_c2_hat_frozen_values_and_decay():
    # [DERIVED] quadrature values of the L^4(m x m) norm of p_T - 1
    assert c2_hat(QUAD, 1.0) == pytest.approx(3.331897, rel=1e-4)
    assert c2_hat(QUAD, 2.0) == pytest.approx(0.256557, rel=1e-4)
    assert c2_hat(QUAD, 3.0) == pytest.approx(0.087275, rel=1e-4)


def test_summability_report_hand_example():
    e = lambda v: Estimate(v, 0.0, 1)
    itab = InteractionTable(
        entries=(
            (((0,),), e(0.5)),
            (((0,), (1,)), e(-0.2)),
            (((1,), (2,)), e(0.1)),
        ),
        total=e(0.4),
    )
    rep = summability_report(itab)
    # site 0: 0*0.5 + 1*0.2 = 0.2; site 1: 0.2 + 0.1 = 0.3; site 2: 0.1
    assert rep["perSite"][((0,))] == pytest.approx(0.2)
    assert rep["sup"] == pytest.approx(0.3)
    assert rep["nTerms"] == 3


def test_weight_table_common_random_numbers():
    # the per-cluster stream depends only on the enumeration index, so two
    # tables at different beta share the same underlying randomness; at the
    # matching beta they coincide bitwise
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, 0.2)
    grid = TimeGrid(1.0, 1)
    mc = MCParams(n_samples=128, dt=0.05)
    drift = _drift(0.7, 0.3)
    clusters = ClusterSet.enumerate(vol, drift.nbhd, grid, 1)
    t1 = weight_table(clusters, x, x, drift, QUAD, mc, seed=9)
    t2 = weight_table(clusters, x, x, drift, QUAD, mc, seed=9)
    assert t1.estimates == t2.estimates
    t3 = weight_table(clusters, x, x, drift, QUAD, mc, seed=10)
    assert t1.estimates != t3.estimates
