"""Batched drift windows against a per-step reference loop.

The reference below reads every memory window by copying it out of the
stored path one grid step at a time, with the index clipped at 0 (frozen
pre-history) or the points before the path start dropped (truncated), and
calls the evaluator once per step, as a one-step batch.  ``simulate``,
``psi`` and ``drift_values`` read zero-copy windows and evaluate whole
batches of steps; the arithmetic per element is the same, so the results
must agree bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from gibbslab.dynamics import (
    PRE_HISTORY_FROZEN,
    PRE_HISTORY_TRUNCATED,
    DriftSpec,
    _evaluation_batches,
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


def _ref_window(drift, path, site, k):
    """The window of step k as a one-step batch: times (1, W'+1) and values
    (R, 1, |N|, W'+1), copied row by row out of the stored path."""
    dt = path.dt
    W = max(int(round(drift.memory / dt)), 1)
    lo = k - W
    idx = np.clip(np.arange(lo, k + 1), 0, None)
    wt = path.times[0] + np.arange(lo, k + 1) * dt
    rows = [path.sites.index(s) for s in sorted(drift.nbhd.around(site))]
    wv = path.values[:, rows, :][:, :, idx]
    if path.state_space == CIRCLE:
        wv = wrap_angle(wv)
    if drift.pre_history == PRE_HISTORY_TRUNCATED and lo < 0:
        keep = wt >= path.times[0] - 1e-12
        wt = wt[keep]
        wv = wv[:, :, keep]
    return wt[None], wv[:, None]


class _Growing:
    """The part of a path written so far, read the way a stored one is."""

    def __init__(self, sites, times, values, state_space):
        self.sites, self.times, self.values, self.state_space = sites, times, values, state_space
        self.dt = float(times[1] - times[0])


def _ref_simulate(drift, pot, x0, seed, vol=VOL):
    sites = tuple(vol.sorted_sites())
    inner = interior(vol, drift.nbhd)
    K = int(round(T / DT))
    n = len(sites)
    rng = substream(seed, "simulate")
    values = np.empty((R, n, K + 1))
    values[:, :, 0] = x0.array_for(sites)[None, :]
    dbar = np.empty((R, n, K))
    times = DT * np.arange(K + 1)
    noise = rng.standard_normal((R, n, K)) * math.sqrt(DT)
    path = _Growing(sites, times, values, pot.state_space)
    for k in range(K):
        xk = values[:, :, k]
        state = wrap_angle(xk) if pot.state_space == CIRCLE else xk
        du = np.asarray(pot.dU(state), dtype=float)
        drift_term = -0.5 * du
        for i, s in enumerate(sites):
            if s in inner:
                wt, wv = _ref_window(drift, path, s, k)
                b = drift.evaluate(s, times[k : k + 1], wt, wv)
                drift_term[:, i] = drift_term[:, i] + drift.beta * b[:, 0]
        step = noise[:, :, k] + drift_term * DT
        values[:, :, k + 1] = xk + step
        dbar[:, :, k] = step + 0.5 * du * DT
    return values, dbar


def _ref_drift(drift, path, site, k_lo, k_hi):
    out = np.empty((path.values.shape[0], k_hi - k_lo))
    for k in range(k_lo, k_hi):
        wt, wv = _ref_window(drift, path, site, k)
        out[:, k - k_lo] = drift.evaluate(site, path.times[k : k + 1], wt, wv)[:, 0]
    return out


def _ref_psi(drift, site, k_lo, k_hi, path):
    beta, dt = drift.beta, path.dt
    vals = path.values[:, path.sites.index(site), :]
    state = wrap_angle(vals) if path.state_space == CIRCLE else vals
    dbar = np.diff(vals, axis=1) + 0.5 * np.asarray(path.pot.dU(state[:, :-1]), dtype=float) * dt
    out = np.zeros(path.values.shape[0])
    for k in range(k_lo, k_hi):
        wt, wv = _ref_window(drift, path, site, k)
        b = drift.evaluate(site, path.times[k : k + 1], wt, wv)[:, 0]
        out += -beta * b * dbar[:, k] + 0.5 * beta * beta * b * b * dt
    return out


def _drift(family, pre_history):
    return dataclasses.replace(DRIFTS[family](), pre_history=pre_history)


CASES = [
    (family, pre, space)
    for family in DRIFTS
    for pre in (PRE_HISTORY_FROZEN, PRE_HISTORY_TRUNCATED)
    for space in POTENTIALS
]


@pytest.mark.parametrize("family,pre_history,space", CASES)
def test_batched_windows_match_the_per_step_loop(family, pre_history, space):
    drift = _drift(family, pre_history)
    pot = POTENTIALS[space]()
    x0 = Configuration(X0[space], pot.state_space)
    path = simulate(drift, pot, VOL, x0, T, DT, seed=17, n_replicas=R)
    values, dbar = _ref_simulate(drift, pot, x0, seed=17)
    assert np.array_equal(path.values, values)
    K = path.times.size - 1
    # the increments derived from the values agree with the noise-based
    # ones of the integrator up to the rounding of x_{k+1} - x_k
    for i in range(len(path.sites)):
        np.testing.assert_allclose(path.increments(i, 0, K), dbar[:, i], rtol=0, atol=1e-12)

    for site in sorted(interior(VOL, drift.nbhd).sites):
        _assert_windows_match(drift, path, site, K)
        assert np.array_equal(drift_values(drift, path, site), _ref_drift(drift, path, site, 0, K))
        # a window that starts inside the memory length, and the whole path
        for (a, b), (k_lo, k_hi) in (((0.06, 0.26), (3, 13)), ((0.0, T), (0, K))):
            assert np.array_equal(psi(drift, site, (a, b), path), _ref_psi(drift, site, k_lo, k_hi, path))


@pytest.mark.parametrize("family,pre_history,space", CASES)
def test_psi_on_bridges_matches_the_per_step_loop(family, pre_history, space):
    # bridge bundles start at t_start > 0, as the space clusters' do
    drift = _drift(family, pre_history)
    pot = POTENTIALS[space]()
    sites = VOL.sorted_sites()
    rng = np.random.default_rng(3)
    layers = [{s: rng.uniform(-1.0, 1.0, R) for s in sites} for _ in range(3)]
    bundle = multi_bridge_bundle(pot, sites, layers, 0.4, 0.2, DT, substream(5, "bridge"), R)
    for site in sorted(interior(VOL, drift.nbhd).sites):
        for (a, b), (k_lo, k_hi) in (((0.4, 0.6), (0, 10)), ((0.6, 0.8), (10, 20))):
            assert np.array_equal(psi(drift, site, (a, b), bundle), _ref_psi(drift, site, k_lo, k_hi, bundle))


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
    for col, t, wt, wv in _evaluation_batches(drift, path, site, 0, K):
        for j in range(col.start, col.stop or K):
            ref_wt, ref_wv = _ref_window(drift, path, site, j)
            assert np.array_equal(t[j - col.start], path.times[j])
            assert np.array_equal(wt[j - col.start], ref_wt[0])
            assert np.array_equal(wv[:, j - col.start], ref_wv[:, 0])


@pytest.mark.parametrize("family", ["markov_local", "space_time_integral", "ordered_sum"])
@pytest.mark.parametrize("pre_history", [PRE_HISTORY_FROZEN, PRE_HISTORY_TRUNCATED])
def test_windows_gather_scattered_neighbours(family, pre_history):
    if family == "ordered_sum":
        drift = DriftSpec(1.0, VON_NEUMANN, T0, 0.1, _ordered_sum, pre_history=pre_history)
    else:
        drift = dataclasses.replace(DRIFTS[family](), nbhd=VON_NEUMANN, pre_history=pre_history)
    pot = quadratic_potential()
    x0 = Configuration({s: 0.3 * i - 1.0 for i, s in enumerate(VOL_2D.sorted_sites())})
    path = simulate(drift, pot, VOL_2D, x0, T, DT, seed=17, n_replicas=R)
    values, _ = _ref_simulate(drift, pot, x0, seed=17, vol=VOL_2D)
    assert np.array_equal(path.values, values)
    K = path.times.size - 1
    inner = sorted(interior(VOL_2D, drift.nbhd).sites)
    assert inner == [(1, 1), (1, 2)]
    for site in inner:
        _assert_windows_match(drift, path, site, K)
        assert np.array_equal(drift_values(drift, path, site), _ref_drift(drift, path, site, 0, K))
        assert np.array_equal(psi(drift, site, (0.06, 0.26), path), _ref_psi(drift, site, 3, 13, path))
