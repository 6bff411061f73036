import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gibbslab.dynamics import (
    PathBundle,
    circle_free_potential,
    constant_drift,
    custom_potential,
    delayed_feedback_drift,
    markov_local_drift,
    quadratic_potential,
    resonance_drift,
    simulate,
)
from gibbslab import girsanov
from gibbslab.errors import CoverageError, NumericalError, ValidationError
from gibbslab.estimates import MCParams, mean_estimate
from gibbslab.girsanov import (
    _endpoint_offsets,
    _free_drift,
    _free_endpoints,
    density,
    density_endpoint_ratio,
    free_bridge_paths,
    log_girsanov_weight,
    multi_bridge_bundle,
    pinned_bridges,
    psi,
)
from gibbslab.lattice import TWO_PI, Configuration, Neighborhood, Volume, interior, wrap_angle
from gibbslab.rng import substream

QUAD = quadratic_potential()
CIRC = circle_free_potential()


def _exact_density_const_drift(c, beta, x, y, t):
    # [DERIVED] for b = c the interacting law is an OU process with shifted
    # mean mu_Q = x e^{-t} + beta c (1 - e^{-t}) and the free variance, so
    # f_t(x,y) = exp(-(y-mu_Q)^2/(2v) + (y-mu_P)^2/(2v)), v = (1-e^{-2t})/2
    rho = math.exp(-t)
    v = (1.0 - rho * rho) / 2.0
    mu_q = x * rho + beta * c * (1.0 - rho)
    mu_p = x * rho
    return math.exp(-((y - mu_q) ** 2) / (2 * v) + ((y - mu_p) ** 2) / (2 * v))


def test_psi_zero_outside_reach_and_for_free_drift():
    vol = Volume.box((0,), (2,))
    x0 = Configuration.constant(vol, 0.0)
    d = markov_local_drift(0.5, Neighborhood.range1d(1))
    path = simulate(d, QUAD, vol, x0, t=0.2, dt=0.02, rng=substream(1, "simulate"), n_replicas=3)
    free = constant_drift(0.0)
    import dataclasses

    free = dataclasses.replace(free, beta=0.0)
    assert np.all(psi(free, (1,), (0.0, 0.2), path) == 0.0)


def test_psi_window_validation():
    vol = Volume.box((0,), (0,))
    x0 = Configuration.constant(vol, 0.0)
    d = constant_drift(0.5)
    path = simulate(d, QUAD, vol, x0, t=0.2, dt=0.02, rng=substream(1, "simulate"))
    with pytest.raises(ValidationError):
        psi(d, (0,), (0.2, 0.1), path)
    with pytest.raises(CoverageError):
        psi(d, (0,), (0.0, 0.4), path)


def test_girsanov_identity_exact_on_grid():
    # exp(-sum_i psi_i) equals the Girsanov density to machine precision
    vol = Volume.box((0,), (4,))
    x0 = Configuration.constant(vol, 0.2)
    d = markov_local_drift(0.5, Neighborhood.range1d(1))
    path = simulate(d, QUAD, vol, x0, t=0.5, dt=0.01, rng=substream(3, "simulate"), n_replicas=8)
    total = np.zeros(path.n_replicas)
    for s in interior(vol, d.nbhd).sorted_sites():
        total += psi(d, s, (0.0, 0.5), path)
    assert np.max(np.abs(np.exp(-total) - np.exp(log_girsanov_weight(d, vol, path)))) == 0.0


def test_expected_weight_is_one_under_free_law():
    # E_P[M] = 1 holds exactly in the Euler discretization, up to MC noise
    vol = Volume.box((0,), (0,))
    x0 = Configuration.constant(vol, 0.0)
    d = constant_drift(0.5)
    import dataclasses

    free = dataclasses.replace(d, beta=0.0)
    path = simulate(free, QUAD, vol, x0, t=1.0, dt=0.02, rng=substream(5, "simulate"), n_replicas=20_000)
    est = mean_estimate(np.exp(log_girsanov_weight(d, vol, path)))
    assert abs(est.value - 1.0) < 4 * est.stderr


def test_ou_bridge_moments():
    # bridge of dx = dB - x dt from a to b over [0,1]; midpoint mean and
    # variance from Gaussian conditioning:
    # X_h | X_0=a, X_1=b with h=0.5: standard two-sided OU bridge formulas
    a, b, tau, dt = 0.3, 0.8, 1.0, 0.01
    rng = substream(11, "test-bridge")
    bundle = multi_bridge_bundle(QUAD, [(0,)], [[[a]], [[b]]], 0.0, tau, dt, rng, 40_000)
    mid = bundle.values[:, 0, 50]
    v = lambda s: 0.5 * (1.0 - math.exp(-2.0 * s))
    e1, er = math.exp(-0.5), math.exp(-0.5)
    prec = 1.0 / v(0.5) + er * er / v(0.5)
    mean = (a * e1 / v(0.5) + b * er / v(0.5)) / prec
    assert np.mean(mid) == pytest.approx(mean, abs=4 * math.sqrt(1 / prec / 40_000))
    assert np.var(mid) == pytest.approx(1.0 / prec, rel=0.05)


def test_bridge_endpoints_pinned():
    rng = substream(2, "pin")
    layers = np.array([0.1, -0.4, 0.9])[:, None, None]
    bundle = multi_bridge_bundle(QUAD, [(0,)], layers, 0.0, 0.5, 0.05, rng, 16)
    assert np.all(bundle.values[:, 0, 0] == 0.1)
    assert np.all(bundle.values[:, 0, 10] == -0.4)
    assert np.all(bundle.values[:, 0, 20] == 0.9)


@pytest.mark.parametrize(
    "layers",
    [
        np.zeros((2, 3, 4)),  # three sites, not two
        np.zeros((2, 2, 3)),  # three replicas, not four
        np.zeros((2, 4)),  # two axes
        0.5,
        [[[0.0, 0.1]], [[0.2]]],  # ragged
        [{(0,): 0.1, (1,): 0.2}, {(0,): 0.3, (1,): 0.4}],  # per-site dicts
    ],
    ids=["sites", "replicas", "two-axes", "scalar", "ragged", "dicts"],
)
def test_bridge_layers_that_do_not_broadcast_raise(layers):
    with pytest.raises(ValidationError, match="broadcast"):
        multi_bridge_bundle(QUAD, [(0,), (1,)], layers, 0.0, 0.2, 0.05, substream(1, "b"), 4)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_bridge_points_share_their_draws(pot):
    # point p's slot is the bundle through point p's layer values alone, on
    # the same stream; the circle picks each point's windings from the same
    # uniforms
    layers = np.array([[[0.1, 6.0], [2.0, -0.5]], [[0.4, 0.2], [0.0, 3.0]],
                       [[-0.3, 5.5], [1.0, 0.7]]])[..., None]  # (layers, sites, points, 1)
    R = 6
    both = multi_bridge_bundle(pot, [(0,), (1,)], layers, 0.0, 0.2, 0.05, substream(3, "b"), R)
    assert both.values.shape == (2 * R, 2, 9)
    for p in range(2):
        alone = multi_bridge_bundle(pot, [(0,), (1,)], layers[:, :, p], 0.0, 0.2, 0.05, substream(3, "b"), R)
        assert np.array_equal(both.values[p * R:(p + 1) * R], alone.values)


def test_circle_bridge_hits_endpoint_mod_wrap():
    rng = substream(3, "circ")
    a, b = 0.3, 6.0
    bundle = multi_bridge_bundle(CIRC, [(0,)], [[[a]], [[b]]], 0.0, 1.0, 0.02, rng, 64)
    end = bundle.values[:, 0, -1]
    assert np.allclose(np.mod(end - b, TWO_PI) * (TWO_PI - np.mod(end - b, TWO_PI)), 0.0, atol=1e-9)


def _ref_ou_segment(a, b, tau, dt, rng, mean_first=False):
    # one step at a time, replica-major, drawing the noise step by step.
    # Each step is c xi + a_k prev + b_k b, summed left to right; with
    # mean_first, the conditional mean (prev e1 / v1 + b er / vr) / prec
    # plus xi / sqrt(prec), the form that rounds differently
    K = int(round(tau / dt))
    vals = np.empty((a.shape[0], K + 1))
    vals[:, 0] = a
    v = lambda s: 0.5 * (1.0 - math.exp(-2.0 * s))
    e1, v1 = math.exp(-dt), v(dt)
    for k in range(1, K):
        rem = tau - k * dt
        er, vr = math.exp(-rem), v(rem)
        prec = 1.0 / v1 + er * er / vr
        xi = rng.standard_normal(a.shape[0])
        if mean_first:
            mean = (vals[:, k - 1] * e1 / v1 + b * er / vr) / prec
            vals[:, k] = mean + xi / math.sqrt(prec)
        else:
            vals[:, k] = (
                xi * (1.0 / math.sqrt(prec))
                + vals[:, k - 1] * (e1 / (v1 * prec))
                + b * (er / (vr * prec))
            )
    vals[:, K] = b
    return vals


def _ref_circle_segment(a, b, tau, dt, rng, mean_first=False):
    # the lifted end as the bundle picks it, then the linear bridge steps:
    # c xi + (1 - dt / rem) prev + (dt / rem) target, or with mean_first
    # prev + (target - prev) dt / rem plus the noise
    K, R = int(round(tau / dt)), a.shape[0]
    d = np.mod(b - a + np.pi, TWO_PI) - np.pi
    n_max = max(3, int(math.ceil(4.0 * math.sqrt(tau) / TWO_PI)) + 1)
    disp = d[:, None] + TWO_PI * np.arange(-n_max, n_max + 1)[None, :]
    logw = -(disp**2) / (2.0 * tau)
    cdf = np.cumsum(np.exp(logw - logw.max(axis=1, keepdims=True)), axis=1)
    u = rng.uniform(size=R) * cdf[:, -1]
    target = a + disp[np.arange(R), (u[:, None] > cdf).sum(axis=1)]
    vals = np.empty((R, K + 1))
    vals[:, 0] = a
    for k in range(1, K):
        rem = tau - (k - 1) * dt
        c = math.sqrt(max(dt * (rem - dt) / rem, 0.0))
        xi = rng.standard_normal(R)
        if mean_first:
            mean = vals[:, k - 1] + (target - vals[:, k - 1]) * dt / rem
            vals[:, k] = mean + xi * c
        else:
            vals[:, k] = xi * c + vals[:, k - 1] * (1.0 - dt / rem) + target * (dt / rem)
    vals[:, K] = target
    return vals


def _bridge_case(pot, mean_first, tau=0.3):
    """A three-site, three-segment bundle and the per-step loop's values,
    run one (site, segment) at a time from the same substream; layer values
    that vary over the replicas and ones that do not.  Returns (bundle,
    reference values, the bundle's generator, the reference's generator)."""
    sites, R, dt = [(0,), (1,), (2,)], 5, 0.05
    Kseg = int(round(tau / dt))
    src = np.random.default_rng(8)
    layers = np.empty((4, len(sites), R))
    for n in range(4):
        for i in range(len(sites)):
            layers[n, i] = src.uniform(-1.0, 1.0, R) if (i + n) % 2 else src.uniform(-1.0, 1.0)
    rng = substream(6, "b")
    bundle = multi_bridge_bundle(pot, sites, layers, 0.5, tau, dt, rng, R)
    ref_rng = substream(6, "b")
    segment = _ref_ou_segment if pot is QUAD else _ref_circle_segment
    values = np.empty((R, 3, 3 * Kseg + 1))
    for i in range(len(sites)):
        values[:, i, 0] = layers[0, i]
        for j in range(3):
            values[:, i, Kseg * j : Kseg * (j + 1) + 1] = segment(
                values[:, i, Kseg * j], layers[j + 1, i], tau, dt, ref_rng, mean_first
            )
    return bundle, values, rng, ref_rng


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_bridge_bundle_matches_the_per_step_loop(pot):
    # the bundle draws a segment's noise at once and then steps all sites
    # and segments together; values, increments, the draw order and the
    # generator's final state are those of the replica-major per-step loop
    # run one (site, segment) at a time
    bundle, values, rng, ref_rng = _bridge_case(pot, mean_first=False)
    dt = 0.05
    assert np.array_equal(bundle.values, values)
    # stored time-major, (K+1, sites, R), as simulate stores its paths
    assert bundle.values.transpose(2, 1, 0).flags.c_contiguous
    assert rng.standard_normal() == ref_rng.standard_normal()
    assert np.array_equal(bundle.times, 0.5 + dt * np.arange(19))
    # the increments use the grid's own step, which at t_start = 0.5 differs
    # from dt in the last bits
    state = np.mod(values[:, :, :-1], TWO_PI) if pot is CIRC else values[:, :, :-1]
    du = 0.5 * np.asarray(pot.dU(state), dtype=float)
    for i in range(3):
        incr = bundle.increments(i, 0, 18)
        assert np.array_equal(incr, np.diff(values[:, i], axis=1) + du[:, i] * bundle.dt)
        np.testing.assert_allclose(incr, np.diff(values[:, i], axis=1) + du[:, i] * dt, rtol=0, atol=1e-15)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_bridge_noise_drawn_in_row_blocks_matches_the_per_step_loop(pot, monkeypatch):
    # at BLOCK_ELEMENTS = 10 and R = 5 each segment's five noise rows are
    # drawn 2 + 2 + 1 through the scratch block: the same values and draws
    monkeypatch.setattr(girsanov, "BLOCK_ELEMENTS", 2 * 5)
    bundle, values, rng, ref_rng = _bridge_case(pot, mean_first=False)
    assert np.array_equal(bundle.values, values)
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_bridge_bundle_of_one_step_segments_matches_the_per_step_loop(pot):
    # at tau == dt a segment has no noise rows: its path is its start and
    # its (lifted) end, and only the circle's winding uniforms are drawn
    bundle, values, rng, ref_rng = _bridge_case(pot, mean_first=False, tau=0.05)
    assert bundle.values.shape == (5, 3, 4)
    assert np.array_equal(bundle.values, values)
    assert rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_bridge_steps_agree_with_the_conditional_mean_form(pot):
    # the affine step c xi + a prev + b end is the conditional mean plus the
    # scaled noise, rounded differently: the paths agree to 1e-12 and the
    # draws are the same
    bundle, values, rng, ref_rng = _bridge_case(pot, mean_first=True)
    np.testing.assert_allclose(bundle.values, values, rtol=0, atol=1e-12)
    assert not np.array_equal(bundle.values, values)
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_bundle_holds_only_its_paths():
    assert [f.name for f in dataclasses.fields(PathBundle)] == ["sites", "times", "values", "pot"]
    bundle = multi_bridge_bundle(CIRC, [(0,)], [[[6.0]], [[0.2]]], 0.0, 0.2, 0.05, substream(1, "b"), 3)
    assert bundle.state_space == CIRC.state_space


def _pinned_case(pot, n_seg, pins, P=1):
    """Layer values of three sites over n_seg segments of 6 steps: sites 0
    and 1 pinned at the first layer, the last or both, site 2 never.
    Returns (sites, nodes with None where pinned, the pinned values at P
    points, shape (P, 1), with None elsewhere, R)."""
    sites, R = ((0,), (1,), (2,)), 5
    pinned = {"first": (0,), "last": (n_seg,), "both": (0, n_seg)}[pins]
    hi = 1.5 if pot is QUAD else TWO_PI
    lo = -hi if pot is QUAD else 0.0
    src = np.random.default_rng(n_seg)
    nodes = [
        [None if i < 2 and n in pinned else src.uniform(lo, hi, R) for i in range(3)]
        for n in range(n_seg + 1)
    ]
    values = [[None if v is not None else src.uniform(lo, hi, (P, 1)) for v in row] for row in nodes]
    return sites, nodes, values, R


def _pinned_layers(nodes, fill):
    """The (layers, sites, R) array of the nodes, fill(n, i) where pinned."""
    return np.array([
        [fill(n, i) if v is None else v for i, v in enumerate(row)] for n, row in enumerate(nodes)
    ])


# skip 4 leaves out the first 4 of a first segment's 6 steps: its bundle
# starts with one jump over 4 steps, and a pinned first layer enters only
# through it
PINNED_CASES = [
    (pot, n_seg, pins, skip)
    for skip in (0, 4)
    for pot in (QUAD, CIRC) for n_seg in (1, 2) for pins in ("first", "last", "both")
]
PINNED_IDS = [
    f"{'line' if pot is QUAD else 'circle'}-{n_seg}seg-{pins}" + (f"-skip{skip}" if skip else "")
    for pot, n_seg, pins, skip in PINNED_CASES
]


@pytest.mark.parametrize("pot, n_seg, pins, skip", PINNED_CASES, ids=PINNED_IDS)
def test_pinned_bridges_draw_what_the_bundle_draws_through_zeros(pot, n_seg, pins, skip):
    # one multi_bridge_bundle call with the pinned values at 0: the same
    # paths, and the generator is left where that call leaves it
    sites, nodes, _, R = _pinned_case(pot, n_seg, pins)
    rng = substream(4, "pinned")
    bridges = pinned_bridges(pot, sites, nodes, 0.5, 0.3, 0.05, rng, R, skip)
    ref_rng = substream(4, "pinned")
    layers = _pinned_layers(nodes, lambda n, i: np.zeros(R))
    drawn = multi_bridge_bundle(pot, sites, layers, 0.5, 0.3, 0.05, ref_rng, R, skip)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(bridges.values, drawn.values.transpose(2, 1, 0))
    assert bridges.sites == drawn.sites and np.array_equal(bridges.times, drawn.times)
    assert len(bridges.head) == 7 - skip and len(bridges.coef) == 7


@pytest.mark.parametrize("pot, n_seg, pins, skip", PINNED_CASES, ids=PINNED_IDS)
def test_moved_bridges_equal_bridges_drawn_through_the_pinned_values(pot, n_seg, pins, skip):
    # a bridge is affine in its (lifted) layer values given its noise, and
    # the circle's windings are picked again from the kept uniforms
    sites, nodes, values, R = _pinned_case(pot, n_seg, pins)
    bridges = pinned_bridges(pot, sites, nodes, 0.5, 0.3, 0.05, substream(4, "pinned"), R, skip)
    moved = bridges.moved(values, 1)
    layers = _pinned_layers(nodes, lambda n, i: np.full(R, values[n][i].item()))
    ref = multi_bridge_bundle(pot, sites, layers, 0.5, 0.3, 0.05, substream(4, "pinned"), R, skip)
    assert moved.values.shape == ref.values.shape == (R, 3, 6 * n_seg + 1 - skip)
    np.testing.assert_allclose(moved.values, ref.values, rtol=0, atol=1e-12 * np.abs(ref.values).max())
    assert moved.sites == ref.sites and np.array_equal(moved.times, ref.times)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
@pytest.mark.parametrize("n_seg, skip", [(1, 0), (2, 0), (1, 4), (2, 4)], ids=["1", "2", "1-skip4", "2-skip4"])
def test_a_move_at_P_points_equals_P_one_point_moves(pot, n_seg, skip):
    # replicas p R .. (p+1) R - 1 are point p's, bit for bit
    sites, nodes, values, R = _pinned_case(pot, n_seg, "both", P=4)
    bridges = pinned_bridges(pot, sites, nodes, 0.5, 0.3, 0.05, substream(4, "pinned"), R, skip)
    batch = bridges.moved(values, 4)
    assert batch.values.shape == (4 * R, 3, 6 * n_seg + 1 - skip)
    for p in range(4):
        point = [[None if v is None else v[p:p + 1] for v in row] for row in values]
        assert np.array_equal(batch.values[p * R:(p + 1) * R], bridges.moved(point, 1).values)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_a_bundle_that_leaves_out_one_step_is_the_whole_bundle_without_its_first_row(pot):
    # a jump over one step is the first dt step: same draws, same paths
    layers = np.random.default_rng(1).uniform(0.0, 2.0, (3, 2, 5))
    whole = multi_bridge_bundle(pot, [(0,), (1,)], layers, 0.5, 0.3, 0.05, substream(2, "b"), 5)
    rng = substream(2, "b")
    cut = multi_bridge_bundle(pot, [(0,), (1,)], layers, 0.5, 0.3, 0.05, rng, 5, 1)
    assert np.array_equal(cut.values, whole.values[:, :, 1:])
    assert np.array_equal(cut.times, whole.times[1:])
    ref_rng = substream(2, "b")
    multi_bridge_bundle(pot, [(0,), (1,)], layers, 0.5, 0.3, 0.05, ref_rng, 5)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("skip", [-1, 6, 7])
def test_a_skip_outside_the_first_segment_raises(skip):
    with pytest.raises(ValidationError, match="skip"):
        multi_bridge_bundle(QUAD, [(0,)], np.zeros((3, 1, 1)), 0.0, 0.3, 0.05, substream(1, "b"), 4, skip)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_a_cut_bundle_has_the_law_of_the_whole_bundles_last_rows(pot):
    # through the same stationary layer values, the bundle that leaves out
    # the first 7 of 10 steps and the whole bundle's rows 7 .. 20, drawn on
    # streams of their own: each row's mean and variance, and the jump
    # row's covariance with layer 1, agree within 4 sigma (bound fixed
    # before the first run).  Layer 1 is shared, so its rows agree exactly
    R, skip = 40_000, 7
    draw = np.random.default_rng(9)
    if pot is QUAD:
        layers = draw.normal(0.0, math.sqrt(0.5), (3, 1, R))
    else:
        layers = draw.uniform(0.0, TWO_PI, (3, 1, R))
    cut = multi_bridge_bundle(pot, [(0,)], layers, 0.0, 0.5, 0.05, substream(1, "cut"), R, skip)
    whole = multi_bridge_bundle(pot, [(0,)], layers, 0.0, 0.5, 0.05, substream(1, "whole"), R)
    a, b = cut.values[:, 0], whole.values[:, 0, skip:]
    assert a.shape == b.shape == (R, 14)
    assert np.array_equal(cut.times, whole.times[skip:])

    def mean_se(v):
        return v.mean(axis=0), v.std(axis=0) / math.sqrt(R)

    def var_se(v):
        c = v - v.mean(axis=0)
        return mean_se(c * c)

    def cov_se(u, v):
        return mean_se((u - u.mean()) * (v - v.mean()))

    def agree(stat_a, stat_b):
        (ma, sa), (mb, sb) = stat_a, stat_b
        assert np.all(np.abs(ma - mb) <= 4.0 * np.hypot(sa, sb))

    agree(mean_se(a), mean_se(b))
    agree(var_se(a), var_se(b))
    layer1 = 10 - skip
    agree(cov_se(a[:, 0], a[:, layer1]), cov_se(b[:, 0], b[:, layer1]))
    # the jump row is neither layer: it moves with both
    assert abs(cov_se(a[:, 0], a[:, layer1])[0]) > 10 * cov_se(a[:, 0], a[:, layer1])[1]


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_bridge_bundle_allocates_only_its_values(pot):
    # the bundle's one large buffer is its (K+1, sites, R) paths; forming
    # increments for every site would at least double the traced peak
    sites = [(0,), (1,), (2,), (3,)]
    layers = np.array([0.3, -0.2, 0.5])[:, None, None]
    rng = substream(2, "b")
    tracemalloc.start()
    try:
        bundle = multi_bridge_bundle(pot, sites, layers, 0.0, 0.5, 0.005, rng, 500)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * bundle.values.nbytes


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_psi_allocates_blocks_not_the_path():
    # psi walks its window in blocks of BLOCK_ELEMENTS // R steps, so what it
    # allocates is a few block-sized arrays however long the path; one pass
    # over the whole window held about five (R, K) arrays of one site
    R, rng = 8000, np.random.default_rng(0)
    drift = delayed_feedback_drift(1.0, 0.2)  # W = 20 steps of dt = 0.01

    def bundle(n_sites, K):
        # time-major, as simulate and multi_bridge_bundle store paths
        values = rng.normal(0.0, 1.0, (K + 1, n_sites, R)).transpose(2, 1, 0)
        return PathBundle(tuple((i,) for i in range(n_sites)), 0.01 * np.arange(K + 1), values, QUAD)

    short = bundle(4, 100)
    short_peak = _traced_peak(lambda: psi(drift, (0,), (0.0, 1.0), short))
    assert short_peak < 0.25 * short.values.nbytes
    del short
    long = bundle(1, 400)
    assert _traced_peak(lambda: psi(drift, (0,), (0.0, 4.0), long)) <= 1.1 * short_peak


# three probe pairs on the two sites of the density workload's geometry
THREE_PAIRS = [
    ({(0,): 0.3, (1,): -0.5}, {(0,): 0.1, (1,): -0.2}),
    ({(0,): -0.8, (1,): 0.6}, {(0,): -0.1, (1,): 0.4}),
    ({(0,): 0.9, (1,): 0.2}, {(0,): 0.5, (1,): -0.1}),
]


def _pairs(pot, values=THREE_PAIRS):
    return [(Configuration(x, pot.state_space), Configuration(y, pot.state_space)) for x, y in values]


def test_endpoint_ratio_holds_one_system_at_a_time():
    # the route reads only the path ends, so the interacting bundle is gone
    # before the free one is simulated; three pairs walk blocks of a third
    # of the replicas, so they hold no more than one
    vol = Volume.box((0,), (1,))
    drift = dataclasses.replace(delayed_feedback_drift(1.0, 0.2), beta=0.5)
    mc = MCParams(n_samples=8000, dt=0.01)
    pairs = _pairs(QUAD)
    x = pairs[0][0]
    one = _traced_peak(lambda: simulate(drift, QUAD, vol, x, 1.0, 0.01, substream(0, "simulate"), 8000))
    both = _traced_peak(lambda: density_endpoint_ratio(drift, QUAD, vol, pairs[:1], 1.0, mc, seed=5))
    assert both <= 1.1 * one
    three = _traced_peak(lambda: density_endpoint_ratio(drift, QUAD, vol, pairs, 1.0, mc, seed=5))
    assert three <= 1.1 * both


def test_bridge_route_holds_one_bundle_whatever_the_pairs():
    vol = Volume.box((0,), (1,))
    drift = dataclasses.replace(delayed_feedback_drift(1.0, 0.2), beta=0.5)
    mc = MCParams(n_samples=8000, dt=0.01)
    pairs = _pairs(QUAD)
    one = _traced_peak(lambda: density(drift, QUAD, vol, pairs[:1], 1.0, mc, seed=5))
    three = _traced_peak(lambda: density(drift, QUAD, vol, pairs, 1.0, mc, seed=5))
    assert three <= 1.1 * one


def _moments(a):
    """Mean and variance of a sample, each with its standard error."""
    m, v = float(np.mean(a)), float(np.var(a))
    m4 = float(np.mean((a - m) ** 4))
    return m, math.sqrt(v / a.size), v, math.sqrt((m4 - v * v) / a.size)


@pytest.mark.parametrize(
    "pot,dt", [(QUAD, 0.01), (QUAD, 0.25), (CIRC, 0.01)], ids=["line", "line-coarse", "circle"]
)
def test_free_endpoints_follow_the_euler_ends(pot, dt):
    # the drawn ends and the ends of free Euler runs have one law: means and
    # variances of the offsets from y (wrapped on the circle, from x = 6.2
    # across the seam) agree within 4 sigma.  At dt = 0.25 the Euler law
    # (mean 0.75^4 x, variance 0.514) is far from the OU law (e^{-1} x,
    # 0.432), which these R would tell apart
    R, t = 20_000, 1.0
    vol = Volume.box((0,), (1,))
    x = Configuration({(0,): 6.2 if pot is CIRC else 1.5, (1,): -0.4}, pot.state_space)
    y = Configuration({(0,): 0.1, (1,): 0.2}, pot.state_space)
    (drawn,) = _free_endpoints(pot, vol, [x], t, dt, R, substream(3, "free"))
    ran = simulate(_free_drift(), pot, vol, x, t, dt, substream(4, "simulate"), R).values[:, :, -1].T
    sites = vol.sorted_sites()
    for (a, _), (b, _) in zip(_endpoint_offsets(sites, drawn, pot.state_space, y),
                              _endpoint_offsets(sites, ran, pot.state_space, y)):
        ma, sma, va, sva = _moments(a)
        mb, smb, vb, svb = _moments(b)
        assert abs(ma - mb) < 4.0 * math.hypot(sma, smb)
        assert abs(va - vb) < 4.0 * math.hypot(sva, svb)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_free_endpoints_take_one_draw_per_site_and_replica(pot):
    # site-major: the end of site i, replica r is affine in draw i R + r
    R, t, dt = 5, 0.3, 0.1
    vol = Volume.box((0,), (2,))
    x = Configuration({(0,): 0.5, (1,): 6.0, (2,): -0.2}, pot.state_space)
    (ends,) = _free_endpoints(pot, vol, [x], t, dt, R, substream(8, "free"))
    xi = substream(8, "free").standard_normal((3, R))
    x0 = x.array_for(vol.sorted_sites())[:, None]  # wrapped on the circle
    if pot is QUAD:
        a = 1.0 - dt
        expected = a**3 * x0 + math.sqrt((1.0 - a**6) / (2.0 - dt)) * xi
    else:
        expected = x0 + math.sqrt(t) * xi
    np.testing.assert_allclose(ends, expected, rtol=1e-14, atol=1e-15)


def test_free_endpoints_of_a_general_potential_run_simulate():
    # a potential without an exact endpoint law keeps the forward Euler run
    pot = custom_potential(lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x))
    vol = Volume.box((0,), (1,))
    x = Configuration({(0,): 0.3, (1,): -0.5})
    (ends,) = _free_endpoints(pot, vol, [x], 0.5, 0.01, 50, substream(6, "free"))
    bundle = simulate(_free_drift(), pot, vol, x, 0.5, 0.01, substream(6, "free"), 50)
    assert np.array_equal(ends, bundle.values[:, :, -1].T)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_free_endpoints_keep_the_checks_of_simulate(pot):
    vol = Volume.box((0,), (1,))
    x = Configuration({(0,): 0.3, (1,): -0.5}, pot.state_space)

    def draw(**changed):
        args = dict(pot=pot, vol=vol, starts=[x], t=1.0, dt=0.01, n_replicas=4, rng=substream(1, "free"))
        return _free_endpoints(**{**args, **changed})

    with pytest.raises(ValidationError):
        draw(t=1.005)
    with pytest.raises(ValidationError):
        draw(dt=0.0)
    with pytest.raises(CoverageError):
        draw(vol=Volume.box((0,), (2,)))
    other = CIRC if pot is QUAD else QUAD
    with pytest.raises(ValidationError):
        draw(starts=[Configuration({(0,): 0.3, (1,): -0.5}, other.state_space)])
    if pot is QUAD:
        # a = 1 - dt = -2: a^K overflows, as the Euler run would
        with pytest.raises(NumericalError):
            draw(t=3000.0, dt=3.0)


@pytest.mark.parametrize("pot,bound", [(QUAD, 1.5), (CIRC, 2.5)], ids=["line", "circle"])
def test_simulate_holds_one_path_buffer(pot, bound):
    # the Euler noise is drawn into the rows x_1 .. x_K that the steps
    # overwrite, so the one large array is the (W + K + 1, n, R) history the
    # bundle views; the circle keeps its wrapped state beside it.  A second,
    # time-major copy of the noise read 2.0 and 3.0 times the history
    W, K, n, R = 20, 100, 2, 8000
    vol = Volume.box((0,), (1,))
    x = Configuration({(0,): 0.3, (1,): 6.2}, pot.state_space)
    drift = dataclasses.replace(delayed_feedback_drift(1.0, 0.2), beta=0.5)
    peak = _traced_peak(lambda: simulate(drift, pot, vol, x, 1.0, 0.01, substream(0, "simulate"), R))
    assert peak <= bound * (W + K + 1) * n * R * 8


@pytest.mark.parametrize(
    "drift,b", [(constant_drift(0.7), lambda t: 0.7), (resonance_drift(0.8), lambda t: 0.8 * np.sin(t))],
    ids=["constant", "resonance"],
)
def test_constant_drifts_allocate_nothing(drift, b):
    # a drift that does not read the path returns a scalar or a (steps,)
    # array, and evaluate checks it and broadcasts it without copying
    R, steps, W = 8000, 16, 10
    t = 0.3 + 0.01 * np.arange(steps)
    wt = t[:, None] + 0.01 * np.arange(-W, 1)
    wv = np.zeros((R, steps, 1, W + 1))
    out = []
    assert _traced_peak(lambda: out.append(drift.evaluate((0,), t, wt, wv))) < 64 * 1024
    (val,) = out
    assert val.shape == (R, steps) and not val.flags.writeable
    assert np.array_equal(val, np.full((R, steps), b(t)))


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_endpoint_offsets_read_only_the_path_ends(pot):
    # the ends alone are wrapped; the offsets and bandwidths are those of the
    # ends of the wrapped whole paths
    vol = Volume.box((0,), (1,))
    x = Configuration({(0,): 6.2, (1,): 0.1}, pot.state_space)
    y = Configuration({(0,): 0.05, (1,): 3.0}, pot.state_space)
    mc = MCParams(n_samples=400, dt=0.01)
    free = dataclasses.replace(constant_drift(0.0), beta=0.0)
    bundle = simulate(free, pot, vol, x, 2.0, mc.dt, substream(4, "simulate"), mc.n_samples)
    ends = bundle.values[:, :, -1].T
    for i, (diff, h) in enumerate(_endpoint_offsets(bundle.sites, ends, pot.state_space, y)):
        path = bundle.values[:, i]
        end = wrap_angle(path)[:, -1] if pot is CIRC else path[:, -1]
        ref = end - y[bundle.sites[i]]
        if pot is CIRC:
            ref = np.mod(ref + np.pi, TWO_PI) - np.pi
        assert np.array_equal(diff, ref)
        spread = ref if pot is CIRC else end
        assert h == (float(np.std(spread)) or 1.0) * mc.n_samples ** (-0.2)


def test_circle_bridge_winding_spread():
    # long bridges must use several winding classes
    rng = substream(4, "wind")
    bundle = multi_bridge_bundle(CIRC, [(0,)], np.zeros((2, 1, 1)), 0.0, 9.0, 0.05, rng, 2000)
    lifts = np.round((bundle.values[:, 0, -1]) / TWO_PI).astype(int)
    assert len(set(lifts.tolist())) >= 3


def test_free_bridge_paths_midpoint():
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, 0.3)
    y = Configuration.constant(vol, 0.8)
    mc = MCParams(n_samples=20_000, dt=0.01)
    bundle = free_bridge_paths(QUAD, vol, [(x, y)], 1.0, mc.dt, substream(7, "bridge"), mc.n_samples)
    est = mean_estimate(bundle.values[:, 0, bundle.values.shape[2] // 2])
    v = lambda s: 0.5 * (1.0 - math.exp(-2.0 * s))
    er = math.exp(-0.5)
    prec = 1.0 / v(0.5) + er * er / v(0.5)
    mean = (0.3 * er / v(0.5) + 0.8 * er / v(0.5)) / prec
    assert abs(est.value - mean) < 4 * est.stderr


def test_density_matches_constant_drift_oracle():
    c, beta, x0, y0, t = 0.8, 1.0, 0.2, 0.5, 1.0
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, x0)
    y = Configuration.constant(vol, y0)
    d = constant_drift(c)
    (est,) = density(d, QUAD, vol, [(x, y)], t, MCParams(n_samples=20_000, dt=0.005), seed=13)
    exact = _exact_density_const_drift(c, beta, x0, y0, t)
    # small O(dt) discretization bias on top of the MC error
    assert abs(est.value - exact) < 4 * est.stderr + 0.01
    assert est.method == "bridge"


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_density_over_a_single_step(pot):
    # t == dt: the exact bridge is its two ends, with no noise rows
    vol = Volume.box((0,), (1,))
    x = Configuration.constant(vol, 0.2)
    y = Configuration.constant(vol, 0.5)
    (est,) = density(constant_drift(0.8), pot, vol, [(x, y)], 0.05, MCParams(n_samples=64, dt=0.05), seed=13)
    assert math.isfinite(est.value) and est.value > 0.0


def test_density_routes_agree():
    c, x0, y0, t = 0.8, 0.2, 0.5, 1.0
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, x0)
    y = Configuration.constant(vol, y0)
    d = constant_drift(c)
    mc = MCParams(n_samples=20_000, dt=0.01)
    (a,) = density(d, QUAD, vol, [(x, y)], t, mc, seed=13)
    (b,) = density_endpoint_ratio(d, QUAD, vol, [(x, y)], t, mc, seed=13)
    assert a.agrees_with(b, n_sigma=4.0, atol=0.01)


DENSITY_DRIFT = dataclasses.replace(delayed_feedback_drift(1.0, 0.2), beta=0.5)


@pytest.mark.parametrize("route", [density, density_endpoint_ratio], ids=["bridge", "endpoint-ratio"])
@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_a_pairs_estimate_does_not_depend_on_the_other_pairs_values(pot, route):
    # the pairs share each replica block's draws, so moving pairs 0 and 2
    # leaves pair 1 bit for bit; at R = 1000 the last of the three blocks
    # is one replica short
    vol = Volume.box((0,), (1,))
    mc = MCParams(n_samples=1000, dt=0.01)
    moved = [({(0,): 0.0, (1,): 0.1}, {(0,): 0.2, (1,): 0.0}), THREE_PAIRS[1],
             ({(0,): -0.3, (1,): -0.4}, {(0,): -0.2, (1,): -0.1})]
    a = route(DENSITY_DRIFT, pot, vol, _pairs(pot), 0.5, mc, seed=4)
    b = route(DENSITY_DRIFT, pot, vol, _pairs(pot, moved), 0.5, mc, seed=4)
    assert len(a) == len(b) == 3 and all(e.n == 1000 for e in a + b)
    assert a[1] == b[1]
    assert a[0] != b[0] and a[2] != b[2]


@pytest.mark.parametrize("route", [density, density_endpoint_ratio], ids=["bridge", "endpoint-ratio"])
def test_a_density_without_pairs_raises(route):
    with pytest.raises(ValidationError, match="at least one"):
        route(DENSITY_DRIFT, QUAD, Volume.box((0,), (1,)), [], 0.5, MCParams(n_samples=100), seed=4)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_a_single_pair_draws_one_bridge_bundle(pot):
    # one pair is one block: the bundle of one multi_bridge_bundle call on
    # the (seed, "bridge") substream, weighted and averaged
    vol = Volume.box((0,), (1,))
    mc = MCParams(n_samples=600, dt=0.01)
    x, y = _pairs(pot)[0]
    (est,) = density(DENSITY_DRIFT, pot, vol, [(x, y)], 0.5, mc, seed=4)
    sites = vol.sorted_sites()
    layers = np.stack([x.array_for(sites), y.array_for(sites)])[:, :, None]
    bundle = multi_bridge_bundle(pot, sites, layers, 0.0, 0.5, mc.dt, substream(4, "bridge"), 600)
    assert est == mean_estimate(np.exp(log_girsanov_weight(DENSITY_DRIFT, vol, bundle)), method="bridge")


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_a_single_pair_runs_one_interacting_simulation(pot):
    # the endpoint route's interacting ends are those of one simulate call
    # on its substream, and its free ends those of one draw
    vol = Volume.box((0,), (1,))
    x, _ = _pairs(pot)[0]
    ends = girsanov._forward_ends(DENSITY_DRIFT, pot, vol, [x], 0.5, 0.01, 600, substream(4, "q"))
    ran = simulate(DENSITY_DRIFT, pot, vol, x, 0.5, 0.01, substream(4, "q"), 600)
    assert np.array_equal(ends, ran.values[:, :, -1].T[None])
    (one,) = _free_endpoints(pot, vol, [x], 0.5, 0.01, 600, substream(4, "p"))
    three = _free_endpoints(pot, vol, [p[0] for p in _pairs(pot)], 0.5, 0.01, 600, substream(4, "p"))
    assert np.array_equal(one, three[0])


class _CountingGenerator:
    """Passes a generator's draws through and counts the values drawn."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts

    def _count(self, kind, size, out):
        self._counts[kind] = self._counts.get(kind, 0) + (out.size if out is not None else int(np.prod(size)))

    def standard_normal(self, size=None, out=None):
        self._count("normal", size, out)
        return self._rng.standard_normal(size, out=out)

    def uniform(self, size=None):
        self._count("uniform", size, None)
        return self._rng.uniform(size=size)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_three_pairs_draw_as_much_as_one(pot, monkeypatch):
    vol = Volume.box((0,), (1,))
    mc = MCParams(n_samples=1000, dt=0.01)
    counts = {}
    monkeypatch.setattr(
        girsanov, "substream",
        lambda *labels: _CountingGenerator(substream(*labels), counts.setdefault(labels, {})),
    )
    drawn = []
    for pairs in (_pairs(pot)[:1], _pairs(pot)):
        counts.clear()
        density(DENSITY_DRIFT, pot, vol, pairs, 0.5, mc, seed=4)
        density_endpoint_ratio(DENSITY_DRIFT, pot, vol, pairs, 0.5, mc, seed=4)
        drawn.append(dict(counts))
    one, three = drawn
    assert three == one
    K, n, R = 50, 2, 1000
    assert one[(4, "bridge")] == {"normal": n * (K - 1) * R, **({"uniform": n * R} if pot is CIRC else {})}
    assert one[(4, "endpoint", "interacting")] == {"normal": K * n * R}
    assert one[(4, "endpoint", "free")] == {"normal": n * R}


def test_circle_density_against_winding_sum():
    # [DERIVED] for constant drift c on the circle the interacting endpoint
    # law is a wrapped Gaussian with mean x + beta c t and variance t, so
    # f_t(x,y) is the ratio of winding sums
    c, x0, y0, t = 1.0, 1.0, 1.8, 0.5
    num = sum(
        math.exp(-((y0 - x0 - c * t + TWO_PI * n) ** 2) / (2 * t)) for n in range(-20, 21)
    )
    den = sum(
        math.exp(-((y0 - x0 + TWO_PI * n) ** 2) / (2 * t)) for n in range(-20, 21)
    )
    exact = num / den
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, x0, "circle")
    y = Configuration.constant(vol, y0, "circle")
    d = constant_drift(c)
    (est,) = density(d, CIRC, vol, [(x, y)], t, MCParams(n_samples=20_000, dt=0.005), seed=21)
    assert abs(est.value - exact) < 4 * est.stderr + 0.02


def test_free_bridge_reweighted_fallback():
    # general potential goes through forward paths + terminal reweighting
    from gibbslab.dynamics import custom_potential

    pot = custom_potential(
        lambda x: np.asarray(x) ** 2 + 0.1 * np.asarray(x) ** 4,
        lambda x: 2.0 * np.asarray(x) + 0.4 * np.asarray(x) ** 3,
    )
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, 0.0)
    y = Configuration.constant(vol, 0.3)
    rng = substream(5, "fallback")
    forward = free_bridge_paths(pot, vol, [(x, y)], 0.5, 0.01, rng, 500)
    assert forward.values.shape == (500, 1, 51)
    assert np.all(forward.values[:, 0, 0] == 0.0) and not np.any(forward.values[:, 0, -1] == 0.3)
    exact = free_bridge_paths(QUAD, vol, [(x, y)], 0.5, 0.01, rng, 16)
    assert np.all(exact.values[:, 0, -1] == 0.3)


@pytest.mark.parametrize("x0,y0", [(6.2, 0.05), (0.05, 6.2)])
def test_reweighted_circle_bridges_across_the_seam(x0, y0):
    # U = 0 on the circle through the reweighted forward paths vs the exact
    # circle bridge; ends just across the seam from y used to count as
    # 2 pi away, and the bandwidth came from the spread of the wrapped ends
    # (1.1394 and 0.6645 against 0.9480 and 0.7660)
    from gibbslab.dynamics import custom_potential

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    general = custom_potential(zero, zero, state_space="circle")
    vol = Volume.box((0,), (0,))
    x = Configuration.constant(vol, x0, "circle")
    y = Configuration.constant(vol, y0, "circle")
    d = constant_drift(0.8)
    mc = MCParams(n_samples=20_000, dt=0.01)
    (est,) = density(d, general, vol, [(x, y)], 0.5, mc, seed=3)
    (exact,) = density(d, CIRC, vol, [(x, y)], 0.5, mc, seed=3)
    assert abs(est.value - exact.value) < 4 * math.hypot(est.stderr, exact.stderr) + 0.01


def test_log_weight_additive_over_windows():
    vol = Volume.box((0,), (2,))
    x0 = Configuration.constant(vol, 0.1)
    d = markov_local_drift(0.5, Neighborhood.range1d(1))
    path = simulate(d, QUAD, vol, x0, t=0.4, dt=0.02, rng=substream(9, "simulate"), n_replicas=6)
    whole = log_girsanov_weight(d, vol, path)
    split = np.zeros(path.n_replicas)
    for site in interior(vol, d.nbhd).sorted_sites():
        for window in ((0.0, 0.2), (0.2, 0.4)):
            split -= psi(d, site, window, path)
    assert np.allclose(whole, split, atol=1e-12)
