"""The weight pass through reused buffers against a per-cluster reference
that allocates its own arrays, and the weight streams keyed by cluster
value.

``_reference_sampler`` and ``_reference_weight`` evaluate one cluster with
new arrays for every bridge: one ``pinned_bridges`` call per space
cluster, one ``PinnedBridges.moved`` per bridge and one ``psi`` call per
scored site.  A weight table, which draws and moves every cluster's
bridges in one buffer, must give the same numbers, bit for bit.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gibbslab import girsanov
from gibbslab.clusters import ClusterSet, TimeGrid
from gibbslab.dynamics import (
    _sample_reference_rng,
    _window_length,
    circle_free_potential,
    free_kernel,
    markov_local_drift,
    quadratic_potential,
    step_count,
)
from gibbslab.errors import ValidationError
from gibbslab.estimates import MCParams, mean_estimate
from gibbslab.expansion import (
    _bridge_span,
    _cluster_words,
    _draw,
    _path_elements,
    cluster_sampler,
    cluster_weight,
    connected_collections,
    interaction_terms,
    pinned_sites,
    weight_stream,
    weight_table,
)
from gibbslab.gibbs import ExpansionDynamicInteraction
from gibbslab.girsanov import pinned_bridges, psi
from gibbslab.lattice import Configuration, Neighborhood, Volume

NB1 = Neighborhood.range1d(1)
DRIFT = dataclasses.replace(markov_local_drift(1.0, NB1, 0.1), beta=0.2)
CASES = [(space, M) for space in ("line", "circle") for M in (1, 2)]
CASE_IDS = [f"{space}-M{M}" for space, M in CASES]


def _potential(space):
    return quadratic_potential() if space == "line" else circle_free_potential()


def _values(space, sites, rng, shape=()):
    """Pinned values for each site: normals on the line, angles on the circle."""
    draw = (lambda: rng.normal(size=shape)) if space == "line" else (
        lambda: rng.uniform(0.0, 2 * math.pi, size=shape))
    return {s: (float(v) if shape == () else v) for s, v in ((s, draw()) for s in sites)}


def _reference_sampler(G, drift, pot, mc, rng):
    """One cluster's draws: the shared layer values, then per space cluster
    its fresh node values and one ``pinned_bridges`` call."""
    T, M = G.grid.T, G.grid.M
    R = mc.n_samples
    shared = {}
    for site, layer in sorted(G.support):
        if 0 < layer < M:
            shared[(site, layer)] = _sample_reference_rng(pot, R, rng)
    bridges = []
    for sc in G.space_clusters:
        sites = tuple(sorted({s for k in sc.sites for s in drift.nbhd.around(k)}))
        layer_ids, _ = _bridge_span(sc, T)
        nodes = [
            [
                None if (s, l) in G.support and l in (0, M)
                else shared[(s, l)] if (s, l) in shared
                else _sample_reference_rng(pot, R, rng)
                for s in sites
            ]
            for l in layer_ids
        ]
        skip = max(step_count(T, mc.dt) - _window_length(drift, mc.dt), 0) if sc.slice else 0
        bridges.append(pinned_bridges(pot, sites, nodes, layer_ids[0] * T, T, mc.dt, rng, R, skip))
    return shared, bridges


def _reference_weight(G, drift, pot, mc, rng, x, y):
    """One cluster's weight at the broadcast points of its pinned values:
    each bridge moved alone, psi per scored site on the moved bundle."""
    shared, bridges = _reference_sampler(G, drift, pot, mc, rng)
    T, M, R = G.grid.T, G.grid.M, mc.n_samples
    xs, ys = pinned_sites(G)
    pins = {(s, 0): x[s] for s in xs} | {(s, M): y[s] for s in ys}
    shape = np.broadcast_shapes(*(np.shape(v) for v in pins.values()))
    P = math.prod(shape)
    pins = {k: np.broadcast_to(v, shape).reshape(P, 1) for k, v in pins.items()}

    def layer_value(site, layer):
        pinned = pins.get((site, layer))
        return shared[(site, layer)] if pinned is None else pinned

    samples = np.ones((P, R))
    for tc in G.time_clusters:
        for j in tc.slices:
            samples = samples * (free_kernel(pot, T, layer_value(tc.site, j), layer_value(tc.site, j + 1)) - 1.0)
    for sc, bridge in zip(G.space_clusters, bridges):
        layer_ids, window = _bridge_span(sc, T)
        bundle = bridge.moved([[pins.get((s, l)) for s in bridge.sites] for l in layer_ids], P)
        psi_sum = np.zeros(P * R)
        for k in sorted(sc.sites):
            psi_sum += psi(drift, k, window, bundle)
        samples = samples * np.expm1(-psi_sum).reshape(P, R)
    est = mean_estimate(samples)
    return est.value.reshape(shape), est.stderr.reshape(shape)


def _case(space, M, R=16, box=3):
    pot = _potential(space)
    mc = MCParams(n_samples=R, dt=0.05)
    clusters = ClusterSet.enumerate(Volume.box((0,), (box,)), NB1, TimeGrid(0.5, M), 3)
    return pot, mc, clusters


@pytest.mark.parametrize("space, M", CASES, ids=CASE_IDS)
def test_a_table_equals_the_per_cluster_reference(space, M):
    pot, mc, clusters = _case(space, M)
    # the set backwards, largest clusters first: a later cluster draws
    # fewer path elements than one before it, so a stale row of the reused
    # buffer would reach its weight
    clusters = ClusterSet(tuple(reversed(clusters.clusters)), clusters.nbhd, clusters.k_max)
    drawn = [_path_elements(G, DRIFT, mc.dt)[0] for G in clusters.clusters]
    assert any(later < max(drawn[:i]) for i, later in enumerate(drawn) if i)
    rng = np.random.default_rng(3)
    sites = Volume.box((0,), (3,)).sorted_sites()
    x = Configuration(_values(space, sites, rng), pot.state_space)
    y = Configuration(_values(space, sites, rng), pot.state_space)
    table = weight_table(clusters, x, y, DRIFT, pot, mc, seed=9)
    for G, est in table.items():
        value, stderr = _reference_weight(G, DRIFT, pot, mc, weight_stream(9, G), x, y)
        assert (est.value, est.stderr) == (float(value), float(stderr))


@pytest.mark.parametrize("space, M", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("points_per_block", [5, 2])
def test_five_points_through_one_buffer_equal_the_per_cluster_reference(space, M, points_per_block):
    # P = 5, each cluster drawn into the front of one buffer and moved into
    # the rest, as the table runs; room for two points scores them in
    # blocks of two and one
    pot, mc, clusters = _case(space, M)
    R = mc.n_samples
    sizes = [_path_elements(G, DRIFT, mc.dt) for G in clusters.clusters]
    buffer = np.empty(R * max(drawn + points_per_block * widest for drawn, widest in sizes))
    rng = np.random.default_rng(4)
    sites = Volume.box((0,), (3,)).sorted_sites()
    x, y = _values(space, sites, rng, (5,)), _values(space, sites, rng, (5,))
    for G, (drawn, widest) in zip(clusters.clusters, sizes):
        sampler = _draw(G, DRIFT, pot, mc, weight_stream(2, G), buffer)
        room = buffer[R * drawn : R * (drawn + points_per_block * widest)]
        est = cluster_weight(sampler, x, y, room)
        value, stderr = _reference_weight(G, DRIFT, pot, mc, weight_stream(2, G), x, y)
        assert est.value.shape == (5,)
        assert np.array_equal(est.value, value) and np.array_equal(est.stderr, stderr)


@pytest.mark.parametrize("space, M", CASES, ids=CASE_IDS)
def test_dynamic_value_is_minus_the_ursell_sum_over_reference_weights(space, M):
    # nMax = 2: a trace group holds several clusters, each evaluated once
    pot, mc, clusters = _case(space, M)
    dyn = ExpansionDynamicInteraction(DRIFT, pot, clusters, 2, mc, seed=6)
    rng = np.random.default_rng(5)
    sites = Volume.box((0,), (3,)).sorted_sites()
    x, y = _values(space, sites, rng, (3,)), _values(space, sites, rng)
    sizes = []
    for delta in dyn.traces():
        group = dyn._groups[tuple(delta.sorted_sites())]
        used = sorted({i for combo, _ in group for i in combo})
        sizes.append(len(used))
        weights = {
            i: _reference_weight(dyn._clusters[i], DRIFT, pot, mc,
                                 weight_stream(6, dyn._clusters[i]), x, y)[0]
            for i in used
        }
        expected = 0.0
        for combo, C in group:
            prod = 1.0
            for i in combo:
                prod = prod * weights[i]
            expected = expected + -C * prod
        assert np.array_equal(dyn.value(delta, x, y), expected)
    assert max(sizes) > 1


def test_each_weight_keeps_the_shape_of_its_own_pins():
    # x at three points, y one scalar: through the dynamic interaction's
    # scratch, a cluster that reads y only is scored at one point and gives
    # a float, and one that reads x gives three weights
    pot, mc, clusters = _case("line", 2)
    dyn = ExpansionDynamicInteraction(DRIFT, pot, clusters, 2, mc, seed=6)
    rng = np.random.default_rng(6)
    sites = Volume.box((0,), (3,)).sorted_sites()
    x, y = _values("line", sites, rng, (3,)), _values("line", sites, rng)
    kinds = set()
    for i, G in enumerate(dyn._clusters):
        xs, _ = pinned_sites(G)
        est = cluster_weight(dyn._sampler(i), x, y, dyn._scratch)
        if xs:
            assert est.value.shape == est.stderr.shape == (3,)
        else:
            assert isinstance(est.value, float) and isinstance(est.stderr, float)
        kinds.add(bool(xs))
    assert kinds == {True, False}


def test_the_weight_table_stays_within_three_blocks():
    # the expansion benchmark's table: box 0..3, radius 1, markov_local
    # beta 0.2, T = 1, M = 2, kMax 3, R = 300, dt = 0.02.  The table's one
    # buffer is sized by its widest cluster's paths (``_path_elements``),
    # not by BLOCK_ELEMENTS; psi's window copy and terms and the noise block
    # add less.  The bound is the 3 MiB that three blocks of 2^17 elements
    # allowed when it was written, kept as bytes so that a smaller block
    # does not tighten it below the buffer (the traced peak is about 2.1 MB)
    pot, mc = quadratic_potential(), MCParams(n_samples=300, dt=0.02)
    clusters = ClusterSet.enumerate(Volume.box((0,), (3,)), NB1, TimeGrid(1.0, 2), 3)
    x = Configuration({s: 0.1 * s[0] for s in Volume.box((0,), (3,)).sorted_sites()})
    y = Configuration({s: -0.2 * s[0] for s in Volume.box((0,), (3,)).sorted_sites()})
    weight_table(clusters, x, y, DRIFT, pot, mc, seed=1)
    tracemalloc.start()
    try:
        weight_table(clusters, x, y, DRIFT, pot, mc, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**17 * 8, peak


# ---------------------------------------------------------------------------
# weight streams keyed by the cluster's value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("space, M", CASES, ids=CASE_IDS)
def test_interaction_terms_inside_nested_boxes_agree(space, M):
    # Phi_Delta for Delta inside the interior {1, 2} of box 0..3 reads the
    # same clusters on box 0..5, whose streams do not depend on the box
    pot = _potential(space)
    mc = MCParams(n_samples=16, dt=0.05)
    rng = np.random.default_rng(7)
    big = Volume.box((0,), (5,)).sorted_sites()
    xv, yv = _values(space, big, rng), _values(space, big, rng)
    terms = []
    for box in (3, 5):
        sites = Volume.box((0,), (box,)).sorted_sites()
        x = Configuration({s: xv[s] for s in sites}, pot.state_space)
        y = Configuration({s: yv[s] for s in sites}, pot.state_space)
        clusters = ClusterSet.enumerate(Volume.box((0,), (box,)), NB1, TimeGrid(1.0, M), 3)
        table = weight_table(clusters, x, y, DRIFT, pot, mc, seed=5)
        terms.append(dict(interaction_terms(table, connected_collections(clusters, 2)).entries))
    small, large = terms
    inside = [((1,),), ((2,),), ((1,), (2,))]
    assert set(inside) <= set(small)
    for key in inside:
        assert small[key].value == large[key].value
        assert small[key].stderr == pytest.approx(large[key].stderr, rel=1e-15, abs=1e-300)


def test_dropping_a_cluster_leaves_every_other_weight():
    pot, mc, clusters = _case("line", 2)
    rng = np.random.default_rng(8)
    sites = Volume.box((0,), (3,)).sorted_sites()
    x, y = Configuration(_values("line", sites, rng)), Configuration(_values("line", sites, rng))
    full = weight_table(clusters, x, y, DRIFT, pot, mc, seed=3)
    for drop in (0, len(clusters.clusters) // 2, len(clusters.clusters) - 1):
        kept = ClusterSet(
            tuple(G for i, G in enumerate(clusters.clusters) if i != drop), clusters.nbhd, clusters.k_max
        )
        part = weight_table(kept, x, y, DRIFT, pot, mc, seed=3)
        expected = [e for i, e in enumerate(full.estimates) if i != drop]
        assert [(e.value, e.stderr) for e in part.estimates] == [(e.value, e.stderr) for e in expected]


def test_cluster_words_are_injective_and_fit_32_bits():
    clusters = ClusterSet.enumerate(Volume.box((-2,), (3,)), NB1, TimeGrid(1.0, 3), 3).clusters
    words = [_cluster_words(G) for G in clusters]
    assert len(set(words)) == len(clusters)
    # no encoding is the start of another, so zero words that a seed
    # sequence pads with cannot make two keys meet
    for a in words:
        for b in words:
            assert a == b or a != b[: len(a)]
    far = ClusterSet.enumerate(Volume.box((2**31 - 1,), (2**31 + 1,)), NB1, TimeGrid(1.0, 1), 1)
    with pytest.raises(ValidationError, match="does not fit in 32 bits"):
        for G in far.clusters:
            _cluster_words(G)


def test_scratch_must_hold_a_point_apart_from_the_bridges():
    pot, mc, clusters = _case("line", 1)
    G = next(G for G in clusters.clusters if G.space_clusters)
    R = mc.n_samples
    drawn, widest = _path_elements(G, DRIFT, mc.dt)
    buffer = np.empty(R * (drawn + widest))
    sampler = _draw(G, DRIFT, pot, mc, weight_stream(1, G), buffer)
    x = {s: 0.1 for s in Volume.box((0,), (3,)).sorted_sites()}
    with pytest.raises(ValidationError, match="apart from the sampler's bridges"):
        cluster_weight(sampler, x, x, buffer)
    with pytest.raises(ValidationError, match="apart from the sampler's bridges"):
        cluster_weight(sampler, x, x, buffer[R * drawn + 1 :])
    expected = cluster_weight(cluster_sampler(G, DRIFT, pot, mc, weight_stream(1, G)), x, x)
    assert cluster_weight(sampler, x, x, buffer[R * drawn :]) == expected


def test_a_drawn_bundle_goes_into_a_contiguous_out_of_its_shape():
    pot = quadratic_potential()
    layers = np.zeros((2, 2, 1, 4))
    rng = np.random.default_rng(1)
    good = np.empty((11, 2, 1, 4))
    bundle = girsanov.multi_bridge_bundle(pot, [(0,), (1,)], layers, 0.0, 0.5, 0.05, rng, 4, out=good)
    assert np.shares_memory(bundle.values, good)
    for out in (np.empty((10, 2, 1, 4)), np.empty((11, 2, 1, 8))[..., ::2]):
        with pytest.raises(ValidationError, match="C-contiguous array of shape"):
            girsanov.multi_bridge_bundle(pot, [(0,), (1,)], layers, 0.0, 0.5, 0.05, rng, 4, out=out)
