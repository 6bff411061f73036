"""Batched drift windows against a per-step reference loop.

The reference below reads every memory window by copying it out of the
stored path one grid step at a time, with the index clipped at 0 (the
frozen pre-history), and calls the evaluator once per step, as a one-step
batch.  ``simulate``, ``psi`` and ``drift_values`` read zero-copy windows
and evaluate whole batches of steps; the arithmetic per element is the
same, so the results must agree bit for bit.

The library's windows always have W + 1 points.  The reference can also cut
them at the path start (the truncated window); the "truncated" cases check
that an evaluator which drops the points before the path start itself
reproduces that reference, so no drift is lost to the one window shape.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gibbslab import girsanov
from gibbslab.dynamics import (
    DriftSpec,
    PathBundle,
    _evaluation_windows,
    _neighbour_block,
    _window_length,
    _windows,
    circle_free_potential,
    constant_drift,
    delayed_feedback_drift,
    drift_values,
    markov_local_drift,
    memory_integral_drift,
    quadratic_potential,
    resonance_drift,
    simulate,
    space_time_integral_drift,
)
from gibbslab.girsanov import multi_bridge_bundle, psi
from gibbslab.lattice import CIRCLE, Configuration, Neighborhood, Volume, interior, wrap_angle
from gibbslab.rng import substream

T0 = 0.1
DT = 0.02  # W = 5 grid steps of memory
T = 0.3
R = 6
VOL = Volume.box((0,), (3,))


def _space_time_alpha(lag, values):
    return np.cos(lag) * np.tanh(np.mean(values, axis=-1))


DRIFTS = {
    "constant": lambda: constant_drift(0.7, memory=T0),
    "markov_local": lambda: markov_local_drift(0.6, Neighborhood.range1d(1), memory=T0),
    "resonance": lambda: resonance_drift(0.8, memory=T0),
    "delayed_feedback": lambda: delayed_feedback_drift(1.0, T0),
    "memory_integral": lambda: memory_integral_drift(
        f=np.tanh, f_bound=1.0, eps=lambda s: np.cos(np.asarray(s)), eps_l1=T0, t0=T0
    ),
    "space_time_integral": lambda: space_time_integral_drift(
        alpha=_space_time_alpha, alpha_bound=1.0,
        integrator=lambda s: np.asarray(s, dtype=float), total_variation=T0,
        nbhd=Neighborhood.range1d(1), t0=T0,
    ),
}
POTENTIALS = {"line": quadratic_potential, "circle": circle_free_potential}
X0 = {
    "line": {(0,): 0.9, (1,): -0.4, (2,): 1.3, (3,): -1.1},
    # near 2 pi, so the paths wrap and the windows must see wrapped angles
    "circle": {(0,): 6.2, (1,): 0.05, (2,): 6.25, (3,): 3.0},
}


def _ref_window(drift, path, site, k, cut=False):
    """The window of step k as a one-step batch: times (1, W+1) and values
    (R, 1, |N|, W+1), copied row by row out of the stored path; with ``cut``
    the points before the path start are dropped."""
    dt = path.dt
    W = max(int(round(drift.memory / dt)), 1)
    lo = k - W
    idx = np.clip(np.arange(lo, k + 1), 0, None)
    wt = path.times[0] + np.arange(lo, k + 1) * dt
    rows = [path.sites.index(s) for s in sorted(drift.nbhd.around(site))]
    wv = path.values[:, rows, :][:, :, idx]
    if path.state_space == CIRCLE:
        wv = wrap_angle(wv)
    if cut and lo < 0:
        keep = wt >= path.times[0] - 1e-12
        wt = wt[keep]
        wv = wv[:, :, keep]
    return wt[None], wv[:, None]


class _Growing:
    """The part of a path written so far, read the way a stored one is."""

    def __init__(self, sites, times, values, state_space):
        self.sites, self.times, self.values, self.state_space = sites, times, values, state_space
        self.dt = float(times[1] - times[0])


def _ref_simulate(drift, pot, x0, seed, vol=VOL, cut=False):
    sites = tuple(vol.sorted_sites())
    inner = interior(vol, drift.nbhd)
    K = int(round(T / DT))
    n = len(sites)
    rng = substream(seed, "simulate")
    values = np.empty((R, n, K + 1))
    values[:, :, 0] = x0.array_for(sites)[None, :]
    dbar = np.empty((R, n, K))
    times = DT * np.arange(K + 1)
    # simulate draws time-major: x_{k+1} of site i, replica r takes draw k n R + i R + r
    noise = rng.standard_normal((K, n, R)).transpose(2, 1, 0) * math.sqrt(DT)
    path = _Growing(sites, times, values, pot.state_space)
    for k in range(K):
        xk = values[:, :, k]
        state = wrap_angle(xk) if pot.state_space == CIRCLE else xk
        du = np.asarray(pot.dU(state), dtype=float)
        drift_term = -0.5 * du
        for i, s in enumerate(sites):
            if s in inner:
                wt, wv = _ref_window(drift, path, s, k, cut)
                b = drift.evaluate(s, times[k : k + 1], wt, wv)
                drift_term[:, i] = drift_term[:, i] + drift.beta * b[:, 0]
        step = noise[:, :, k] + drift_term * DT
        values[:, :, k + 1] = xk + step
        dbar[:, :, k] = step + 0.5 * du * DT
    return values, dbar


def _ref_drift(drift, path, site, k_lo, k_hi, cut=False):
    out = np.empty((path.values.shape[0], k_hi - k_lo))
    for k in range(k_lo, k_hi):
        wt, wv = _ref_window(drift, path, site, k, cut)
        out[:, k - k_lo] = drift.evaluate(site, path.times[k : k + 1], wt, wv)[:, 0]
    return out


def _ref_psi(drift, site, k_lo, k_hi, path, cut=False):
    beta, dt = drift.beta, path.dt
    vals = path.values[:, path.sites.index(site), :]
    state = wrap_angle(vals) if path.state_space == CIRCLE else vals
    dbar = np.diff(vals, axis=1) + 0.5 * np.asarray(path.pot.dU(state[:, :-1]), dtype=float) * dt
    out = np.zeros(path.values.shape[0])
    for k in range(k_lo, k_hi):
        wt, wv = _ref_window(drift, path, site, k, cut)
        b = drift.evaluate(site, path.times[k : k + 1], wt, wv)[:, 0]
        out += -beta * b * dbar[:, k] + 0.5 * beta * beta * b * b * dt
    return out


def _cut_at_start(drift, start):
    """``drift`` with its evaluator fed, step by step, only the window points
    at or after ``start``, the start of the path: the truncated window."""

    def ev(site, t, wt, wv):
        b = np.empty(wv.shape[:2])
        for s in range(t.size):
            keep = wt[s] >= start - 1e-12
            step = slice(s, s + 1)
            b[:, step] = drift.evaluator(site, t[step], wt[step, keep], wv[:, step, :, keep])
        return b

    return dataclasses.replace(drift, evaluator=ev)


def _library_drift(ref, window, start=0.0):
    """The drift the library runs where the reference runs ``ref``, and
    whether the reference cuts its windows at the path start."""
    if window == "truncated":
        return _cut_at_start(ref, start), True
    return ref, False


CASES = [
    (family, window, space)
    for family in DRIFTS
    for window in ("frozen", "truncated")
    for space in POTENTIALS
]


@pytest.mark.parametrize("family,window,space", CASES)
def test_batched_windows_match_the_per_step_loop(family, window, space):
    ref = DRIFTS[family]()
    drift, cut = _library_drift(ref, window)
    pot = POTENTIALS[space]()
    x0 = Configuration(X0[space], pot.state_space)
    path = simulate(drift, pot, VOL, x0, T, DT, substream(17, "simulate"), R)
    values, dbar = _ref_simulate(ref, pot, x0, seed=17, cut=cut)
    assert np.array_equal(path.values, values)
    K = path.times.size - 1
    # the increments derived from the values agree with the noise-based
    # ones of the integrator up to the rounding of x_{k+1} - x_k
    for i in range(len(path.sites)):
        np.testing.assert_allclose(path.increments(i, 0, K), dbar[:, i], rtol=0, atol=1e-12)

    for site in sorted(interior(VOL, drift.nbhd).sites):
        _assert_windows_match(drift, path, site, K)
        assert np.array_equal(drift_values(drift, path, site), _ref_drift(ref, path, site, 0, K, cut))
        # a window that starts inside the memory length, and the whole path
        for (a, b), (k_lo, k_hi) in (((0.06, 0.26), (3, 13)), ((0.0, T), (0, K))):
            assert np.array_equal(psi(drift, site, (a, b), path), _ref_psi(ref, site, k_lo, k_hi, path, cut))


@pytest.mark.parametrize("family,window,space", CASES)
def test_psi_on_bridges_matches_the_per_step_loop(family, window, space):
    # bridge bundles start at t_start > 0, as the space clusters' do
    ref = DRIFTS[family]()
    drift, cut = _library_drift(ref, window, start=0.4)
    pot = POTENTIALS[space]()
    sites = VOL.sorted_sites()
    rng = np.random.default_rng(3)
    layers = rng.uniform(-1.0, 1.0, (3, len(sites), R))
    bundle = multi_bridge_bundle(pot, sites, layers, 0.4, 0.2, DT, substream(5, "bridge"), R)
    for site in sorted(interior(VOL, drift.nbhd).sites):
        for (a, b), (k_lo, k_hi) in (((0.4, 0.6), (0, 10)), ((0.6, 0.8), (10, 20))):
            assert np.array_equal(psi(drift, site, (a, b), bundle), _ref_psi(ref, site, k_lo, k_hi, bundle, cut))


@pytest.mark.parametrize("steps", [1, 4], ids=["one-step", "ragged"])
@pytest.mark.parametrize("family,window,space", CASES)
def test_psi_blocks_match_the_per_step_loop(family, window, space, steps, monkeypatch):
    # psi in blocks of one step and of four (K = 15 and the windows of 10
    # steps are no multiple of 4); at R = 6 the default block is the whole
    # window, which the two tests above check
    monkeypatch.setattr(girsanov, "BLOCK_ELEMENTS", steps * R)
    ref = DRIFTS[family]()
    drift, cut = _library_drift(ref, window)
    pot = POTENTIALS[space]()
    x0 = Configuration(X0[space], pot.state_space)
    path = simulate(drift, pot, VOL, x0, T, DT, substream(17, "simulate"), R)
    K = path.times.size - 1
    bridge_drift, bridge_cut = _library_drift(ref, window, start=0.4)
    sites = VOL.sorted_sites()
    rng = np.random.default_rng(3)
    layers = rng.uniform(-1.0, 1.0, (3, len(sites), R))
    bundle = multi_bridge_bundle(pot, sites, layers, 0.4, 0.2, DT, substream(5, "bridge"), R)
    for site in sorted(interior(VOL, drift.nbhd).sites):
        for (a, b), (k_lo, k_hi) in (((0.06, 0.26), (3, 13)), ((0.0, T), (0, K))):
            assert np.array_equal(psi(drift, site, (a, b), path), _ref_psi(ref, site, k_lo, k_hi, path, cut))
        for (a, b), (k_lo, k_hi) in (((0.4, 0.6), (0, 10)), ((0.6, 0.8), (10, 20))):
            assert np.array_equal(
                psi(bridge_drift, site, (a, b), bundle), _ref_psi(ref, site, k_lo, k_hi, bundle, bridge_cut)
            )


@pytest.mark.parametrize("family", ["delayed_feedback", "space_time_integral"])
def test_psi_blocks_at_a_large_replica_count(family):
    # at R = 4000 the default budget gives blocks of 32 steps, so a window of
    # 50 steps is two blocks, the second one ragged
    R_big, K = 4000, 50
    assert girsanov.BLOCK_ELEMENTS // R_big < K
    drift = DRIFTS[family]()
    pot = quadratic_potential()
    path = simulate(drift, pot, VOL, Configuration(X0["line"]), K * DT, DT, substream(19, "simulate"), R_big)
    for site in sorted(interior(VOL, drift.nbhd).sites):
        # from the path start, and a window inside the path
        for (a, b), (k_lo, k_hi) in (((0.0, K * DT), (0, K)), ((0.2, 0.9), (10, 45))):
            assert np.array_equal(psi(drift, site, (a, b), path), _ref_psi(drift, site, k_lo, k_hi, path))


@pytest.mark.parametrize("space", POTENTIALS)
def test_windows_are_read_only(space):
    # an evaluator gets views of the caller's history and must not be able
    # to write into them, nor through them into a path
    seen = []

    def ev(site, t, wt, wv):
        seen.append((wt, wv))
        return np.zeros(wv.shape[:2])

    drift = DriftSpec(1.0, Neighborhood.range1d(1), T0, 1.0, ev)
    pot = POTENTIALS[space]()
    path = simulate(drift, pot, VOL, Configuration(X0[space], pot.state_space), T, DT, substream(17, "simulate"), R)
    K = path.times.size - 1
    seen += [_evaluation_windows(drift, path, (1,), k_lo, K)[1:] for k_lo in (0, 8)]
    for wt, wv in seen:
        assert wt.flags.writeable is False and wv.flags.writeable is False
        with pytest.raises(ValueError):
            wv[0, 0, 0, 0] = 1.0
    assert len(seen) == K * len(interior(VOL, drift.nbhd).sites) + 2


# on a 2-D box the von Neumann neighbours of a site are not consecutive in
# sorted site order, so the windows gather them by an index array
VOL_2D = Volume.box((0, 0), (2, 3))
VON_NEUMANN = Neighborhood(frozenset({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}))


def _ordered_sum(site, t, wt, wv):
    # weights each neighbour by its place on axis 2, so their order matters
    total = 0.0
    for j in range(wv.shape[2]):
        total = total + (j + 1) * wv[:, :, j, -1]
    return 0.1 * np.tanh(total)


def _assert_windows_match(drift, path, site, K):
    t, wt, wv = _evaluation_windows(drift, path, site, 0, K)
    W = wt.shape[1] - 1
    assert wt.shape == (K, W + 1) and wv.shape == (R, K, len(drift.nbhd.around(site)), W + 1)
    for j in range(K):
        ref_wt, ref_wv = _ref_window(drift, path, site, j)
        assert np.array_equal(t[j], path.times[j])
        assert np.array_equal(wt[j], ref_wt[0])
        assert np.array_equal(wv[:, j], ref_wv[:, 0])


@pytest.mark.parametrize("family", ["markov_local", "space_time_integral", "ordered_sum"])
@pytest.mark.parametrize("window", ["frozen", "truncated"])
def test_windows_gather_scattered_neighbours(family, window):
    if family == "ordered_sum":
        ref = DriftSpec(1.0, VON_NEUMANN, T0, 0.1, _ordered_sum)
    else:
        ref = dataclasses.replace(DRIFTS[family](), nbhd=VON_NEUMANN)
    drift, cut = _library_drift(ref, window)
    pot = quadratic_potential()
    x0 = Configuration({s: 0.3 * i - 1.0 for i, s in enumerate(VOL_2D.sorted_sites())})
    path = simulate(drift, pot, VOL_2D, x0, T, DT, substream(17, "simulate"), R)
    values, _ = _ref_simulate(ref, pot, x0, seed=17, vol=VOL_2D, cut=cut)
    assert np.array_equal(path.values, values)
    K = path.times.size - 1
    inner = sorted(interior(VOL_2D, drift.nbhd).sites)
    assert inner == [(1, 1), (1, 2)]
    for site in inner:
        _assert_windows_match(drift, path, site, K)
        assert np.array_equal(drift_values(drift, path, site), _ref_drift(ref, path, site, 0, K, cut))
        # from inside the memory length, and past it, where the line windows
        # read the gathered rows without front padding
        assert np.array_equal(psi(drift, site, (0.06, 0.26), path), _ref_psi(ref, site, 3, 13, path, cut))
        assert np.array_equal(psi(drift, site, (0.12, T), path), _ref_psi(ref, site, 6, K, path, cut))


@pytest.mark.parametrize("space", POTENTIALS)
def test_frozen_windows_give_the_truncated_memory_integral(space):
    # eps * 1{s >= 0} weighs, on the frozen window, exactly the points that
    # the window cut at the path start (time 0) keeps
    eps = lambda s: np.cos(np.asarray(s))
    plain = memory_integral_drift(f=np.tanh, f_bound=1.0, eps=eps, eps_l1=T0, t0=T0)
    gated = memory_integral_drift(
        f=np.tanh, f_bound=1.0, eps=lambda s: eps(s) * (np.asarray(s) >= 0.0), eps_l1=T0, t0=T0
    )
    pot = POTENTIALS[space]()
    x0 = Configuration(X0[space], pot.state_space)
    path = simulate(plain, pot, VOL, x0, T, DT, substream(17, "simulate"), R)
    K = path.times.size - 1
    for site in sorted(interior(VOL, plain.nbhd).sites):
        truncated = _ref_drift(plain, path, site, 0, K, cut=True)
        np.testing.assert_allclose(drift_values(gated, path, site), truncated, rtol=0, atol=1e-12)
        # the frozen pre-history does count without the indicator
        assert not np.allclose(drift_values(plain, path, site), truncated)


def _window_peak(pot, values, drift, K):
    path = PathBundle(((0,),), 0.01 * np.arange(K + 1), values, pot)
    tracemalloc.start()
    try:
        _evaluation_windows(drift, path, (0,), 0, K)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_circle_windows_wrap_in_place():
    # the front-padded history is the one copy the windows need; wrapping it
    # onto the circle must not allocate more arrays of its size
    R_big, K = 8000, 100
    values = np.random.default_rng(0).normal(0.0, 5.0, (R_big, 1, K + 1))
    drift = delayed_feedback_drift(1.0, 0.2)  # W = 20 steps of dt = 0.01
    line = _window_peak(quadratic_potential(), values, drift, K)
    circle = _window_peak(circle_free_potential(), values, drift, K)
    assert line >= (20 + K) * R_big * 8
    assert circle <= 1.25 * line


# The copy-window psi and the out-of-place Euler update that the in-place
# forms replace: every block copied its front-padded (W + steps, |N|, R)
# history and its drift values step-major, and each Euler step formed
# x_k + (noise * sqrt(dt) + drift * dt) in new arrays.  The in-place forms
# round every element the same way, so they must agree bit for bit.

def _copy_windows(drift, path, site, k_lo, k_hi):
    W = _window_length(drift, path.dt)
    lo = k_lo - W
    front = max(-lo, 0)
    block = _neighbour_block(drift, path.sites, site)
    path_rows = path.values.transpose(2, 1, 0)
    first = path_rows[0, block]
    history = np.empty((W + k_hi - k_lo,) + first.shape)
    history[:front] = first
    history[front:] = path_rows[lo + front : k_hi, block]
    if path.state_space == CIRCLE:
        wrap_angle(history, out=history)
    wt, wv = _windows(history, W, path.times[0], path.dt, lo)
    return path.times[k_lo:k_hi], wt, wv


def _copy_window_psi(drift, site, k_lo, k_hi, path):
    beta, dt = drift.beta, path.dt
    idx = path.site_index(site)
    out = np.zeros(path.n_replicas)
    step = max(1, girsanov.BLOCK_ELEMENTS // path.n_replicas)
    for lo in range(k_lo, k_hi, step):
        hi = min(lo + step, k_hi)
        b = np.empty((hi - lo, path.n_replicas)).T
        b[...] = drift.evaluate(site, *_copy_windows(drift, path, site, lo, hi))
        terms = -beta * b * path.increments(idx, lo, hi) + 0.5 * beta * beta * b * b * dt
        for term in terms.T:
            out += term
    return out


def _out_of_place_simulate(drift, pot, vol, x0, t, dt, seed, n_replicas):
    sites = tuple(vol.sorted_sites())
    inner = interior(vol, drift.nbhd)
    K = int(round(t / dt))
    R, n = n_replicas, len(sites)
    W = _window_length(drift, dt)
    times = dt * np.arange(K + 1)
    history = np.empty((W + K + 1, n, R))
    substream(seed, "simulate").standard_normal(out=history[W + 1 :])
    history[: W + 1] = x0.array_for(sites)[:, None]
    circle = pot.state_space == CIRCLE
    state = np.empty_like(history) if circle else history
    if circle:
        wrap_angle(history[: W + 1], out=state[: W + 1])
    wt, wv = _windows(state, W, times[0], dt, -W)
    readers = [(i, s, _neighbour_block(drift, sites, s)) for i, s in enumerate(sites) if s in inner]
    for k in range(K):
        xk = history[W + k]
        drift_term = -0.5 * np.asarray(pot.dU(state[W + k]), dtype=float)
        step = slice(k, k + 1)
        for i, site, block in readers:
            b = drift.evaluate(site, times[step], wt[step], wv[:, step, block])
            drift_term[i, :, None] += drift.beta * b
        history[W + k + 1] = xk + (history[W + k + 1] * math.sqrt(dt) + drift_term * dt)
        if circle:
            wrap_angle(history[W + k + 1], out=state[W + k + 1])
    return history[W:].transpose(2, 1, 0)


IN_PLACE = [
    (family, space)
    for family in ("delayed_feedback", "markov_local", "constant")
    for space in POTENTIALS
]


@pytest.mark.parametrize("steps", [None, 4], ids=["default", "four-step"])
@pytest.mark.parametrize("family,space", IN_PLACE)
def test_in_place_psi_and_simulate_match_the_copying_forms(family, space, steps, monkeypatch):
    # four-step blocks put the blocks from step 8 on past the front padding
    # (W = 5), where the line windows view the path instead of copying it
    if steps is not None:
        monkeypatch.setattr(girsanov, "BLOCK_ELEMENTS", steps * R)
    drift = dataclasses.replace(DRIFTS[family](), beta=0.7)
    pot = POTENTIALS[space]()
    x0 = Configuration(X0[space], pot.state_space)
    path = simulate(drift, pot, VOL, x0, T, DT, substream(23, "simulate"), R)
    assert np.array_equal(path.values, _out_of_place_simulate(drift, pot, VOL, x0, T, DT, 23, R))
    K = path.times.size - 1
    sites = VOL.sorted_sites()
    rng = np.random.default_rng(4)
    layers = rng.uniform(-1.0, 1.0, (3, len(sites), R))
    bundle = multi_bridge_bundle(pot, sites, layers, 0.4, 0.2, DT, substream(6, "bridge"), R)
    for site in sorted(interior(VOL, drift.nbhd).sites):
        for (a, b), (k_lo, k_hi) in (((0.0, T), (0, K)), ((0.12, 0.3), (6, K))):
            assert np.array_equal(psi(drift, site, (a, b), path), _copy_window_psi(drift, site, k_lo, k_hi, path))
        assert np.array_equal(psi(drift, site, (0.4, 0.8), bundle), _copy_window_psi(drift, site, 0, 20, bundle))


@pytest.mark.parametrize("space", POTENTIALS)
def test_line_windows_past_the_front_view_the_path(space):
    # the windows of steps k >= W start inside the stored path: on the line
    # they read it in place, on the circle they wrap a copy of it
    drift = markov_local_drift(0.6, Neighborhood.range1d(1), memory=T0)
    pot = POTENTIALS[space]()
    path = simulate(drift, pot, VOL, Configuration(X0[space], pot.state_space), T, DT, substream(17, "simulate"), R)
    K = path.times.size - 1
    _, _, past = _evaluation_windows(drift, path, (1,), 5, K)
    _, _, padded = _evaluation_windows(drift, path, (1,), 4, K)
    assert np.shares_memory(past, path.values) == (space == "line")
    assert not np.shares_memory(padded, path.values)
