import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab.errors import DomainConflictError, ValidationError
from gibbslab.lattice import (
    CIRCLE,
    TWO_PI,
    Configuration,
    Neighborhood,
    Volume,
    concat,
    interior,
    site_add,
    wrap_angle,
)


def test_box_enumerates_all_sites():
    vol = Volume.box((0, 0), (1, 2))
    assert len(vol) == 6
    assert (1, 2) in vol
    assert (2, 0) not in vol


def test_box_rejects_mixed_dimensions():
    with pytest.raises(ValidationError):
        Volume.box((0,), (1, 1))


def test_volume_rejects_mixed_site_dimensions():
    with pytest.raises(ValidationError):
        Volume(frozenset({(0,), (0, 1)}))


def test_neighborhood_requires_zero_offset():
    with pytest.raises(ValidationError):
        Neighborhood(frozenset({(1,)}))


def test_site_add_rejects_an_offset_of_another_dimension():
    # zip used to cut the 2-d site (0, 5) down to the 1-d site (1,)
    assert site_add((0, 5), (1, -1)) == (1, 4)
    with pytest.raises(ValidationError, match="1-d offset"):
        site_add((0, 5), (1,))
    with pytest.raises(ValidationError):
        Neighborhood.range1d(1).around((0, 0))


def test_neighborhood_overlap():
    nb = Neighborhood.range1d(1)
    assert nb.overlaps((0,), (2,))  # translates share site 1
    assert not nb.overlaps((0,), (3,))


def test_interior_of_box():
    vol = Volume.box((0,), (4,))
    nb = Neighborhood.range1d(1)
    assert set(interior(vol, nb).sites) == {(1,), (2,), (3,)}


def test_interior_can_be_empty():
    assert len(interior(Volume.box((0,), (1,)), Neighborhood.range1d(2))) == 0


def test_configuration_circle_wraps():
    c = Configuration({(0,): TWO_PI + 1.0, (1,): -1.0}, CIRCLE)
    assert math.isclose(c[(0,)], 1.0)
    assert math.isclose(c[(1,)], TWO_PI - 1.0)


def test_concat_disjoint_merges():
    a = Configuration({(0,): 1.0})
    b = Configuration({(1,): 2.0})
    merged = concat(a, b)
    assert merged[(0,)] == 1.0 and merged[(1,)] == 2.0


def test_concat_overlap_raises():
    a = Configuration({(0,): 1.0})
    with pytest.raises(DomainConflictError):
        concat(a, Configuration({(0,): 2.0}))


def test_concat_state_space_mismatch_raises():
    with pytest.raises(DomainConflictError):
        concat(Configuration({(0,): 1.0}), Configuration({(1,): 1.0}, CIRCLE))


def test_array_for():
    c = Configuration({(0,): 1.0, (1,): 2.0, (2,): 3.0})
    assert list(c.array_for([(2,), (0,)])) == [3.0, 1.0]


@given(st.sets(st.integers(-5, 5), min_size=1, max_size=8), st.integers(0, 2))
@settings(max_examples=50, deadline=None)
def test_interior_is_subset_and_monotone(sites, radius):
    vol = Volume(frozenset((s,) for s in sites))
    nb = Neighborhood.range1d(radius)
    inner = interior(vol, nb)
    assert inner.issubset(vol)
    # a larger neighborhood can only shrink the interior
    bigger = interior(vol, Neighborhood.range1d(radius + 1))
    assert bigger.issubset(inner)


@given(st.floats(-100.0, 100.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_wrap_angle_range(x):
    w = float(wrap_angle(x))
    assert 0.0 <= w < TWO_PI
    assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-9)
