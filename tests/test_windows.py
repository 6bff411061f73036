"""Batched drift windows against a per-step reference loop.

The reference below reads every memory window by copying it out of the
stored path one grid step at a time, with the index clipped at 0 (frozen
pre-history) or the points before the path start dropped (truncated), and
calls the evaluator once per step.  ``simulate``, ``psi`` and
``drift_values`` read zero-copy windows and evaluate whole batches of steps;
the arithmetic per element is the same, so the results must agree bit for
bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from gibbslab.dynamics import (
    PRE_HISTORY_FROZEN,
    PRE_HISTORY_TRUNCATED,
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


def _space_time_alpha(lag, snap):
    return np.cos(lag) * np.tanh(np.mean(list(snap.values()), axis=0))


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
    dt = path.dt
    W = max(int(round(drift.memory / dt)), 1)
    lo = k - W
    idx = np.clip(np.arange(lo, k + 1), 0, None)
    wt = path.times[0] + np.arange(lo, k + 1) * dt
    wv = {}
    for s in sorted(drift.nbhd.around(site)):
        vals = path.values[:, path.sites.index(s), :][:, idx]
        wv[s] = wrap_angle(vals) if path.state_space == CIRCLE else vals
    if drift.pre_history == PRE_HISTORY_TRUNCATED and lo < 0:
        keep = wt >= path.times[0] - 1e-12
        wt = wt[keep]
        wv = {s: v[:, keep] for s, v in wv.items()}
    return wt, wv


class _Growing:
    """The part of a path written so far, read the way a stored one is."""

    def __init__(self, sites, times, values, state_space):
        self.sites, self.times, self.values, self.state_space = sites, times, values, state_space
        self.dt = float(times[1] - times[0])


def _ref_simulate(drift, pot, x0, seed):
    sites = tuple(VOL.sorted_sites())
    inner = interior(VOL, drift.nbhd)
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
                b = drift.evaluate(s, float(times[k]), wt, wv)
                drift_term[:, i] = drift_term[:, i] + drift.beta * b
        step = noise[:, :, k] + drift_term * DT
        values[:, :, k + 1] = xk + step
        dbar[:, :, k] = step + 0.5 * du * DT
    return values, dbar


def _ref_drift(drift, path, site, k_lo, k_hi):
    out = np.empty((path.values.shape[0], k_hi - k_lo))
    for k in range(k_lo, k_hi):
        wt, wv = _ref_window(drift, path, site, k)
        out[:, k - k_lo] = drift.evaluate(site, float(path.times[k]), wt, wv)
    return out


def _ref_psi(drift, site, k_lo, k_hi, path):
    beta, dt = drift.beta, path.dt
    vals = path.values[:, path.sites.index(site), :]
    state = wrap_angle(vals) if path.state_space == CIRCLE else vals
    dbar = np.diff(vals, axis=1) + 0.5 * np.asarray(path.pot.dU(state[:, :-1]), dtype=float) * dt
    out = np.zeros(path.values.shape[0])
    for k in range(k_lo, k_hi):
        wt, wv = _ref_window(drift, path, site, k)
        b = drift.evaluate(site, float(path.times[k]), wt, wv)
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
