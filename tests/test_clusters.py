import json
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibbslab import clusters as clusters_module
from gibbslab import expansion as expansion_module
from gibbslab.clusters import (
    ClusterSet,
    SpaceCluster,
    SpaceTimeCluster,
    TimeCluster,
    TimeGrid,
    _connected_spanning_sign_sum,
    conflict_graph,
    conflicts,
    enumerate_clusters,
    is_chain_connected,
    is_connected,
    space_compatible,
    ursell_coefficient,
)
from gibbslab.errors import BudgetError, ValidationError
from gibbslab.expansion import connected_collections
from gibbslab.lattice import Neighborhood, Volume


NB1 = Neighborhood.range1d(1)
GRID3 = TimeGrid(0.5, 3)


def _space(slice_, *sites):
    return SpaceTimeCluster((SpaceCluster(slice_, frozenset((s,) for s in sites)),), (), GRID3)


def _time(site, start, stop):
    return SpaceTimeCluster((), (TimeCluster((site,), start, stop),), GRID3)


def test_chain_connectivity():
    assert is_chain_connected([(0,), (2,)], NB1)  # translates overlap at site 1
    assert not is_chain_connected([(0,), (3,)], NB1)
    assert is_chain_connected([(0,), (3,), (2,)], NB1)


def test_time_cluster_outside_kernel_range_rejected():
    # slices carry kernel factors only up to M-2
    with pytest.raises(ValidationError):
        _time(0, 0, 2)
    _time(0, 0, 1)  # fine on a 3-interval grid


def test_space_compatibility_is_overlap_of_translates():
    g1 = SpaceCluster(0, frozenset({(0,)}))
    g2 = SpaceCluster(0, frozenset({(2,)}))
    g3 = SpaceCluster(0, frozenset({(3,)}))
    assert not space_compatible(g1, g2, NB1)
    assert space_compatible(g1, g3, NB1)


def test_non_intersecting_cases():
    # non-intersecting is the negation of conflicts
    assert conflicts(_space(0, 0), _space(0, 2), NB1)
    assert not conflicts(_space(0, 0), _space(0, 3), NB1)
    # different slices never space-conflict, but supports may share vertices
    assert not conflicts(_space(0, 0), _space(2, 0), NB1)
    assert conflicts(_space(0, 0), _space(1, 0), NB1)  # share (0, 1)
    assert conflicts(_time(0, 0, 0), _space(0, 0), NB1)
    assert not conflicts(_time(0, 0, 0), _space(0, 3), NB1)


def test_trace_projects_to_sites():
    G = SpaceTimeCluster(
        (SpaceCluster(1, frozenset({(0,), (1,)})),),
        (TimeCluster((4,), 0, 0),),
        GRID3,
    )
    assert G.sites == {(0,), (1,), (4,)}


def test_record_roundtrip():
    G = SpaceTimeCluster(
        (SpaceCluster(0, frozenset({(0,)})),),
        (TimeCluster((1,), 0, 1),),
        GRID3,
    )
    record = G.to_record()
    assert record == {
        "spaceClusters": [{"slice": 0, "sites": [[0]]}],
        "timeClusters": [{"site": [1], "start": 0, "stop": 1}],
        "grid": {"T": 0.5, "M": 3},
    }
    assert json.loads(json.dumps(record)) == record


# [DERIVED] hand count for one site {0}, neighborhood radius 1 on vol {-1,0,1},
# M = 2, k_max = 4: the interior is the single site 0; space clusters {0}x{0,1}
# (2 singletons), time clusters only slice 0 at each of the 3 sites; connected
# collections: 2 space singletons, 3 time singletons, the two pairs
# {space slice 0, time (0,)} sharing a vertex ... enumerated independently below.
def test_enumeration_exhaustive_small():
    vol = Volume.box((-1,), (1,))
    grid = TimeGrid(5.0, 2)
    got = enumerate_clusters(vol, NB1, grid, k_max=4)
    # brute-force oracle: singleton constituents
    space_singles = 2  # site 0 on slices 0 and 1
    time_singles = 3  # sites -1, 0, 1, slice 0 only
    # multi-constituent collections must be vertex-connected; a space cluster at
    # (0, slice j) has vertices {(0,j),(0,j+1)}, a time cluster at site i slice 0
    # has vertices {(i,0),(i,1)}.  Only site-0 pairs touch:
    pairs = 3  # space slice 0 + time 0, space slice 1 + time 0, space 0 + space 1
    triples = 1  # both space slices + time cluster at 0
    assert len(got) == space_singles + time_singles + pairs + triples == 9
    assert len({g.key() for g in got}) == len(got)


def test_enumeration_k_max_filters_size():
    vol = Volume.box((-1,), (1,))
    grid = TimeGrid(5.0, 2)
    small = enumerate_clusters(vol, NB1, grid, k_max=1)
    assert len(small) == 5  # singletons only
    assert all(g.size == 1 for g in small)


def test_enumeration_budget_cap(monkeypatch):
    vol = Volume.box((0,), (9,))
    grid = TimeGrid(1.0, 4)
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", 50)
    with pytest.raises(BudgetError, match="cluster enumeration exceeded cap of 50 collections"):
        enumerate_clusters(vol, NB1, grid, k_max=6)


def _brute_force_clusters(vol, nbhd, grid, k_max):
    """Every cluster from all subsets of the constituent pool, and the number
    of subsets with pairwise compatible constituents and total size <= k_max
    (the collections the enumeration visits).  Every constituent has size
    >= 1, so no subset of more than k_max constituents fits."""
    inner = [s for s in vol.sorted_sites() if nbhd.around(s) <= vol.sites]
    pool = [
        SpaceCluster(j, frozenset(sub))
        for j in range(grid.M)
        for r in range(1, k_max + 1)
        for sub in combinations(inner, r)
        if is_chain_connected(sub, nbhd)
    ] + [
        TimeCluster(s, j, stop)
        for s in vol.sorted_sites()
        for j in range(grid.M - 1)
        for stop in range(j, grid.M - 1)
        if stop - j < k_max
    ]

    def compatible(a, b):
        if isinstance(a, SpaceCluster) and isinstance(b, SpaceCluster):
            return a.slice != b.slice or space_compatible(a, b, nbhd)
        if isinstance(a, TimeCluster) and isinstance(b, TimeCluster):
            return a.site != b.site or a.stop + 1 < b.start or b.stop + 1 < a.start
        return True

    clusters, visited = set(), 0
    for r in range(1, k_max + 1):
        for parts in combinations(pool, r):
            if sum(c.size for c in parts) > k_max:
                continue
            if not all(compatible(a, b) for a, b in combinations(parts, 2)):
                continue
            visited += 1
            root = list(range(r))

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for a, b in combinations(range(r), 2):
                if parts[a].vertices & parts[b].vertices:
                    root[find(a)] = find(b)
            if len({find(v) for v in range(r)}) == 1:
                clusters.add(SpaceTimeCluster(
                    tuple(c for c in parts if isinstance(c, SpaceCluster)),
                    tuple(c for c in parts if isinstance(c, TimeCluster)),
                    grid,
                ))
    return sorted(clusters, key=lambda G: (G.size, G.key())), visited


@pytest.mark.parametrize("M, count", [(2, 26), (3, 71)])
def test_enumeration_matches_all_subsets_of_the_pool(M, count, monkeypatch):
    # the expansion workload geometry: box 0..3, r = 1, kMax = 3
    vol, grid = Volume.box((0,), (3,)), TimeGrid(1.0, M)
    ref, visited = _brute_force_clusters(vol, NB1, grid, 3)
    assert len(ref) == count
    assert enumerate_clusters(vol, NB1, grid, 3) == ref
    # the cap counts exactly the compatible collections visited
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", visited)
    assert enumerate_clusters(vol, NB1, grid, 3) == ref
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", visited - 1)
    with pytest.raises(BudgetError, match=f"cap of {visited - 1} collections"):
        enumerate_clusters(vol, NB1, grid, 3)


def _induced(Gs):
    """A multiset of clusters, listed with equal ones adjacent, as the
    (combo, edges) pair that is_connected and ursell_coefficient take."""
    distinct = list(dict.fromkeys(Gs))
    combo = tuple(distinct.index(G) for G in Gs)
    edges = tuple((a, b) for a, b in combinations(range(len(Gs)), 2) if conflicts(Gs[a], Gs[b], NB1))
    return combo, edges


def test_ursell_singleton_and_pair():
    a, b = _space(0, 0), _space(0, 2)
    assert ursell_coefficient(*_induced([a])) == Fraction(1)
    assert ursell_coefficient(*_induced([a, b])) == Fraction(-1)  # one conflicting pair
    # non-conflicting pair has disconnected graph: coefficient 0
    assert ursell_coefficient(*_induced([_space(0, 0), _space(0, 3)])) == 0
    with pytest.raises(ValidationError):
        ursell_coefficient((), ())


@given(st.integers(1, 5))
@example(6)
@example(7)
@example(8)
@example(9)
@example(10)
@example(11)
@settings(max_examples=10, deadline=None)
def test_ursell_clique_invariant(n):
    # n copies of one polymer form a clique: C = (-1)^(n+1) / n, as the
    # correctly rounded float of that rational; n = 11 is the largest
    # collection the default cap admits
    copies = [_space(0, 0)] * n
    assert ursell_coefficient(*_induced(copies)) == float(Fraction((-1) ** (n + 1), n))


def test_is_connected_matches_conflict_graph():
    assert is_connected(*_induced([_space(0, 0), _space(0, 2)]))
    assert not is_connected(*_induced([_space(0, 0), _space(0, 3)]))
    # connected through a third cluster that conflicts with both
    assert is_connected(*_induced([_space(0, 0), _space(0, 2), _space(0, 4)]))
    with pytest.raises(ValidationError):
        is_connected((), ())


def test_conflict_graph_lists_every_conflict_in_index_order():
    clusters = enumerate_clusters(Volume.box((0,), (3,)), NB1, TimeGrid(1.0, 3), k_max=2)
    graph = conflict_graph(clusters, NB1)
    assert len(graph) == len(clusters)
    for i, G in enumerate(clusters):
        for j, H in enumerate(clusters):
            assert bool(graph[i] >> j & 1) == conflicts(G, H, NB1)
        assert graph[i] >> i & 1
        assert graph[i] < 1 << len(clusters)


@given(
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(0, 2),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_non_intersecting_symmetric(s1, s2, j1, j2):
    G1, G2 = _space(j1, s1), _space(j2, s2)
    assert conflicts(G1, G2, NB1) == conflicts(G2, G1, NB1)


def _reference_support(G):
    return {v for g in G.space_clusters + G.time_clusters for v in g.vertices}


def _reference_non_intersecting(G1, G2, nbhd):
    """Compatible same-slice space clusters, disjoint time edges and disjoint
    supports, each rebuilt from the constituents on every call."""
    for a in G1.space_clusters:
        for b in G2.space_clusters:
            if a.slice == b.slice and not space_compatible(a, b, nbhd):
                return False

    def time_edges(G):
        return {(g.site, j) for g in G.time_clusters for j in g.slices}

    if time_edges(G1) & time_edges(G2):
        return False
    return not (_reference_support(G1) & _reference_support(G2))


def _brute_sign_sum(n, edges):
    """Sum of (-1)^{|H|} over edge subsets H that connect all n vertices."""
    total = 0
    for k in range(len(edges) + 1):
        for H in combinations(edges, k):
            root = list(range(n))

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for a, b in H:
                root[find(a)] = find(b)
            if len({find(v) for v in range(n)}) == 1:
                total += (-1) ** k
    return total


@pytest.mark.parametrize("hi", [3, 4])
@pytest.mark.parametrize("radius", [0, 1])
@pytest.mark.parametrize("M", [2, 3])
def test_non_intersecting_matches_the_three_condition_reference(hi, radius, M):
    nbhd = Neighborhood.range1d(radius)
    clusters = enumerate_clusters(Volume.box((0,), (hi,)), nbhd, TimeGrid(1.0, M), k_max=3)
    for G1 in clusters:
        for G2 in clusters:
            assert (not conflicts(G1, G2, nbhd)) == _reference_non_intersecting(G1, G2, nbhd)


def _reference_collections(clusters, nbhd, n_max):
    """connected_collections and every nonzero Ursell coefficient, from
    fresh clusters and the three-condition conflict test."""
    ref, coefficients = {}, {}
    for n in range(1, n_max + 1):
        for combo in combinations_with_replacement(range(len(clusters)), n):
            Gs = [replace(clusters[i]) for i in combo]
            edges = [
                (a, b)
                for a, b in combinations(range(n), 2)
                if not _reference_non_intersecting(Gs[a], Gs[b], nbhd)
            ]
            denom = prod(factorial(c) for c in Counter(combo).values())
            C = Fraction(_brute_sign_sum(n, edges), denom)
            if C == 0:
                continue
            key = tuple(sorted({site for G in Gs for site, _ in _reference_support(G)}))
            ref.setdefault(key, []).append((combo, float(C)))
            coefficients[combo] = (C, tuple(edges))
    return ref, coefficients


def _groups(table, n_max):
    """The collection table as {trace key: [(combo, C), ...]}, checking its
    layout: sorted keys, -1 padding to width n_max, rows grouped by trace."""
    assert list(table.keys) == sorted(table.keys)
    assert table.index.shape == (len(table.coef), n_max) == (len(table.trace), n_max)
    assert np.all(np.diff(table.trace) >= 0)
    groups = {}
    for row, C, t in zip(table.index.tolist(), table.coef.tolist(), table.trace.tolist()):
        combo = tuple(i for i in row if i >= 0)
        assert row == [*combo, *[-1] * (n_max - len(combo))]
        groups.setdefault(table.keys[t], []).append((combo, C))
    assert list(groups) == list(table.keys)
    return groups


def test_connected_collections_match_uncached_reference():
    # the expansion workload geometry: box 0..3, r = 1, M = 2, kMax = 3, nMax = 3
    nbhd = Neighborhood.range1d(1)
    clusters = enumerate_clusters(Volume.box((0,), (3,)), nbhd, TimeGrid(1.0, 2), k_max=3)
    ref, coefficients = _reference_collections(clusters, nbhd, 3)
    assert _groups(connected_collections(ClusterSet(tuple(clusters), nbhd, 3), 3), 3) == ref
    for combo, (C, edges) in coefficients.items():
        assert is_connected(combo, edges)
        assert ursell_coefficient(combo, edges) == float(C)


def test_connected_collections_match_the_reference_at_four_clusters():
    nbhd = Neighborhood.range1d(1)
    # box 0..3, r = 1, M = 2, kMax = 2: 16 clusters, 3876 multisets of four
    clusters = enumerate_clusters(Volume.box((0,), (3,)), nbhd, TimeGrid(1.0, 2), k_max=2)
    assert len(clusters) == 16
    ref, _ = _reference_collections(clusters, nbhd, 4)
    assert any(len(combo) == 4 for group in ref.values() for combo, _ in group)
    assert _groups(connected_collections(ClusterSet(tuple(clusters), nbhd, 2), 4), 4) == ref


def test_connected_collections_test_each_pair_of_clusters_once(monkeypatch):
    # every multiset reads its edges from one conflict graph, so conflicts
    # runs once per unordered pair, a cluster with itself included
    nbhd = Neighborhood.range1d(1)
    clusters = enumerate_clusters(Volume.box((0,), (3,)), nbhd, TimeGrid(1.0, 2), k_max=3)
    assert len(clusters) == 26
    calls = Counter()

    def counted(G1, G2, nb):
        calls["conflicts"] += 1
        return conflicts(G1, G2, nb)

    monkeypatch.setattr(clusters_module, "conflicts", counted)
    connected_collections(ClusterSet(tuple(clusters), nbhd, 3), 3)
    assert calls["conflicts"] == 26 * 27 // 2


def _loop_collections(clusters, nbhd, n_max):
    """The pure-Python enumerator that connected_collections replaced: every
    multiset in combinations_with_replacement order, its edges read from
    the conflict graph, is_connected and ursell_coefficient called on each.
    Returns (keys, index, coef, trace) as the CollectionTable holds them."""
    bits = conflict_graph(clusters, nbhd)
    groups = {}
    for n in range(1, n_max + 1):
        pairs = tuple(combinations(range(n), 2))
        for combo in combinations_with_replacement(range(len(clusters)), n):
            edges = tuple((a, b) for a, b in pairs if bits[combo[a]] >> combo[b] & 1)
            if n > 1 and not is_connected(combo, edges):
                continue
            key = tuple(sorted(frozenset().union(*(clusters[i].sites for i in combo))))
            groups.setdefault(key, []).append((combo, ursell_coefficient(combo, edges)))
    keys = tuple(sorted(groups))
    rows = [row for key in keys for row in groups[key]]
    index = np.array(
        [combo + (-1,) * (n_max - len(combo)) for combo, _ in rows], dtype=np.intp
    ).reshape(len(rows), n_max)
    return (
        keys,
        index,
        np.array([C for _, C in rows], dtype=float),
        np.repeat(np.arange(len(keys)), [len(groups[key]) for key in keys]),
    )


@pytest.mark.parametrize("n_max, n_rows", [(3, 2801), (4, 19996), (2, 0)])
def test_connected_collections_are_bit_equal_to_the_loop(n_max, n_rows):
    # the expansion workload geometry, 26 clusters, and no clusters at all
    nbhd = Neighborhood.range1d(1)
    clusters = enumerate_clusters(Volume.box((0,), (3,)), nbhd, TimeGrid(1.0, 2), k_max=3)
    assert len(clusters) == 26
    if not n_rows:
        clusters = []
    table = connected_collections(ClusterSet(tuple(clusters), nbhd, 3), n_max)
    keys, index, coef, trace = _loop_collections(clusters, nbhd, n_max)
    assert table.keys == keys
    assert len(table.coef) == n_rows
    for got, want in ((table.index, index), (table.coef, coef), (table.trace, trace)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_connected_collections_score_each_shape_once(monkeypatch):
    # connectivity and the Ursell coefficient depend only on a multiset's
    # induced conflict graph and its runs of equal indices: is_connected
    # runs once per such shape of two or more clusters, ursell_coefficient
    # once per connected shape
    nbhd = Neighborhood.range1d(1)
    clusters = enumerate_clusters(Volume.box((0,), (3,)), nbhd, TimeGrid(1.0, 2), k_max=3)
    bits = conflict_graph(clusters, nbhd)
    shapes, connected = set(), set()
    for n in range(1, 4):
        pairs = tuple(combinations(range(n), 2))
        for combo in combinations_with_replacement(range(len(clusters)), n):
            edges = tuple((a, b) for a, b in pairs if bits[combo[a]] >> combo[b] & 1)
            runs = tuple(a == b for a, b in zip(combo, combo[1:]))
            shapes.add((n, edges, runs))
            if n == 1 or is_connected(combo, edges):
                connected.add((n, edges, runs))
    calls = Counter()

    def counted(name, fn):
        def wrapper(combo, edges):
            calls[name] += 1
            return fn(combo, edges)
        return wrapper

    monkeypatch.setattr(expansion_module, "is_connected", counted("is_connected", is_connected))
    monkeypatch.setattr(
        expansion_module, "ursell_coefficient", counted("ursell", ursell_coefficient)
    )
    connected_collections(ClusterSet(tuple(clusters), nbhd, 3), 3)
    assert calls["is_connected"] == sum(1 for n, _, _ in shapes if n > 1)
    assert calls["ursell"] == len(connected)
    assert calls["is_connected"] < 20 < 2801


def test_collection_budget_is_checked_before_any_row_is_built(monkeypatch):
    nbhd = Neighborhood.range1d(1)
    clusters = ClusterSet.enumerate(Volume.box((0,), (3,)), nbhd, TimeGrid(1.0, 2), k_max=3)
    total = 26 + 26 * 27 // 2 + 26 * 27 * 28 // 6  # multisets of 1, 2 and 3
    default = clusters_module.ENUMERATION_CAP
    assert default == 200_000
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", total)
    assert len(connected_collections(clusters, 3).keys) > 0

    def refused(*args):
        raise AssertionError("built rows past the cap")

    # a fresh set, whose conflict graph is not built yet
    clusters = ClusterSet(clusters.clusters, nbhd, 3)
    monkeypatch.setattr(expansion_module, "_multisets", refused)
    monkeypatch.setattr(clusters_module, "conflict_graph", refused)
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", total - 1)
    with pytest.raises(BudgetError, match=f"collection enumeration exceeded cap of {total - 1}$"):
        connected_collections(clusters, 3)
    # past 2^64 multisets (n_max 46) the count is still exact: refused at
    # one below it, up front
    big = comb(26 + 46, 46) - 1
    assert big > 2**64
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", big - 1)
    with pytest.raises(BudgetError, match=f"cap of {big - 1}$"):
        connected_collections(clusters, 46)
    # one cluster has 12 multisets up to n_max 12, but one coefficient on
    # 12 clusters costs 3^12 > 200 000 steps: refused up front as well
    monkeypatch.setattr(clusters_module, "ENUMERATION_CAP", default)
    assert 3**11 <= 200_000 < 3**12
    with pytest.raises(BudgetError, match="exceeded cap of 200000$"):
        connected_collections(ClusterSet(clusters.clusters[:1], nbhd, 3), 12)


def test_row_groups_pack_any_number_of_bits():
    # rows with more bits than one int64 word holds group by all of them
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(300, 130)).astype(bool)
    bits[150:] = bits[:150]
    bits[10, 129] = not bits[10, 129]  # rows 10 and 160 differ in the last bit only
    first, group = expansion_module._row_groups(list(bits.T), len(bits))
    rows = [tuple(r) for r in bits.tolist()]
    for r, g in enumerate(group.tolist()):
        assert rows[first[g]] == rows[r]
        assert first[g] <= r
    assert len(first) == len(set(rows))
    assert group[10] != group[160] and group[11] == group[161]


def test_cached_footprints_are_keyed_by_value():
    sc = (SpaceCluster(0, frozenset({(0,), (1,)})), SpaceCluster(1, frozenset({(3,)})))
    tc = (TimeCluster((1,), 0, 1), TimeCluster((4,), 0, 0))
    G = SpaceTimeCluster(sc, tc, GRID3)
    equal = [
        SpaceTimeCluster(sc[::-1], tc[::-1], TimeGrid(0.5, 3)),
        # built afresh from the lists of a record
        SpaceTimeCluster(
            (SpaceCluster(1, [[3]]), SpaceCluster(0, [[1], [0]])),
            (TimeCluster([4], 0, 0), TimeCluster([1], 0, 1)),
            TimeGrid(0.5, 3),
        ),
    ]
    for H in equal:
        assert H == G and hash(H) == hash(G)
        assert H.support == G.support == _reference_support(G)
        assert H.key() == G.key()
        assert H.sites == G.sites == {(0,), (1,), (3,), (4,)}


def test_cached_footprints_stay_out_of_equality_hash_and_record():
    sc = (SpaceCluster(0, frozenset({(0,)})),)
    tc = (TimeCluster((1,), 0, 1),)
    cached, fresh = SpaceTimeCluster(sc, tc, GRID3), SpaceTimeCluster(sc, tc, GRID3)
    record, digest = fresh.to_record(), hash(fresh)
    assert cached.sites  # reads support
    cached.key()
    assert {"support", "sites", "_key"} <= set(vars(cached))
    assert not {"support", "sites", "_key"} & set(vars(fresh))
    assert cached == fresh and hash(cached) == digest
    assert cached.to_record() == record
    assert [f.name for f in fields(cached)] == ["space_clusters", "time_clusters", "grid"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_memoized_sign_sum_matches_brute_force(n):
    complete = list(combinations(range(n), 2))
    for k in range(len(complete) + 1):
        for edges in combinations(complete, k):
            expected = _brute_sign_sum(n, edges)
            assert _connected_spanning_sign_sum(n, edges) == expected
            assert _connected_spanning_sign_sum(n, edges) == expected  # cached
    # the complete graph: (-1)^(n-1) (n-1)!
    assert _connected_spanning_sign_sum(n, tuple(complete)) == (-1) ** (n - 1) * factorial(n - 1)


@pytest.mark.parametrize("n", [5, 6])
def test_sign_sum_matches_brute_force_on_random_graphs(n):
    # each edge of the complete graph kept with a probability drawn per graph
    rng = np.random.default_rng(26 + n)
    complete = list(combinations(range(n), 2))
    sizes = set()
    for _ in range(60):
        keep = rng.random(len(complete)) < rng.random()
        edges = tuple(e for e, k in zip(complete, keep.tolist()) if k)
        sizes.add(len(edges))
        value = _connected_spanning_sign_sum(n, edges)
        assert value == _brute_sign_sum(n, edges)
        reached = {0}
        for _ in range(n):
            reached |= {v for e in edges if reached & set(e) for v in e}
        assert is_connected(tuple(range(n)), edges) == (len(reached) == n)
    assert len(sizes) > 5
