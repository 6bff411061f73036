from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab.clusters import (
    SpaceCluster,
    SpaceTimeCluster,
    TimeCluster,
    TimeGrid,
    conflict_graph,
    conflicts,
    enumerate_clusters,
    is_chain_connected,
    is_connected,
    non_intersecting,
    space_compatible,
    trace,
    ursell_coefficient,
)
from gibbslab.errors import BudgetError, ValidationError
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
    assert not non_intersecting(_space(0, 0), _space(0, 2), NB1)
    assert non_intersecting(_space(0, 0), _space(0, 3), NB1)
    # different slices never space-conflict, but supports may share vertices
    assert non_intersecting(_space(0, 0), _space(2, 0), NB1)
    assert not non_intersecting(_space(0, 0), _space(1, 0), NB1)  # share (0, 1)
    assert not non_intersecting(_time(0, 0, 0), _space(0, 0), NB1)
    assert non_intersecting(_time(0, 0, 0), _space(0, 3), NB1)


def test_trace_projects_to_sites():
    G = SpaceTimeCluster(
        (SpaceCluster(1, frozenset({(0,), (1,)})),),
        (TimeCluster((4,), 0, 0),),
        GRID3,
    )
    assert set(trace(G).sites) == {(0,), (1,), (4,)}


def test_record_roundtrip():
    G = SpaceTimeCluster(
        (SpaceCluster(0, frozenset({(0,)})),),
        (TimeCluster((1,), 0, 1),),
        GRID3,
    )
    assert SpaceTimeCluster.from_record(G.to_record()) == G


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


def test_enumeration_budget_cap():
    vol = Volume.box((0,), (9,))
    grid = TimeGrid(1.0, 4)
    with pytest.raises(BudgetError):
        enumerate_clusters(vol, NB1, grid, k_max=6, cap=50)


def test_ursell_singleton_and_pair():
    a, b = _space(0, 0), _space(0, 2)
    assert ursell_coefficient([a], NB1) == Fraction(1)
    assert ursell_coefficient([a, b], NB1) == Fraction(-1)  # one conflicting pair
    # non-conflicting pair has disconnected graph: coefficient 0
    assert ursell_coefficient([_space(0, 0), _space(0, 3)], NB1) == 0


@given(st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_ursell_clique_invariant(n):
    # n copies of one polymer form a clique: C = (-1)^(n+1) / n
    copies = [_space(0, 0)] * n
    assert ursell_coefficient(copies, NB1) == Fraction((-1) ** (n + 1), n)


def test_is_connected_matches_conflict_graph():
    assert is_connected([_space(0, 0), _space(0, 2)], NB1)
    assert not is_connected([_space(0, 0), _space(0, 3)], NB1)


def test_conflict_graph_lists_every_conflict_in_index_order():
    clusters = enumerate_clusters(Volume.box((0,), (3,)), NB1, TimeGrid(1.0, 3), k_max=2)
    graph = conflict_graph(clusters, NB1)
    for i, G in enumerate(clusters):
        assert graph[i] == [j for j, H in enumerate(clusters) if conflicts(G, H, NB1)]
        assert i in graph[i]


@given(
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(0, 2),
    st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_non_intersecting_symmetric(s1, s2, j1, j2):
    G1, G2 = _space(j1, s1), _space(j2, s2)
    assert non_intersecting(G1, G2, NB1) == non_intersecting(G2, G1, NB1)
