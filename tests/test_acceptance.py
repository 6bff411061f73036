"""End-to-end acceptance battery: ten pass/fail criteria at fixed tolerances.

Each test prints one PASS or FAIL line so the whole battery reads as a
checklist under ``pytest -v -s tests/test_acceptance.py``.
"""

import dataclasses
import math

import numpy as np
from scipy import stats

from gibbslab.clusters import ClusterSet, TimeGrid
from gibbslab.dynamics import (
    circle_free_potential,
    constant_drift,
    drift_values,
    kernel_sup_distance,
    markov_local_drift,
    quadratic_potential,
    simulate,
)
from gibbslab.estimates import MCParams, mean_estimate
from gibbslab.expansion import (
    KP_TOL,
    connected_collections,
    interaction_terms,
    kp_check,
    kp_lambda_star,
    reconstruct_density,
    weight_bound_fit,
    weight_table,
)
from gibbslab.gibbs import (
    BiSpaceInteraction,
    ExpansionDynamicInteraction,
    Interaction,
    dlr_test,
    dobrushin_check,
    nearest_neighbor_terms,
    quasilocality_probe,
    sample_gibbs,
    single_site_conditional_quadrature,
)
from gibbslab.girsanov import density, log_girsanov_weight, psi
from gibbslab.lattice import Configuration, Neighborhood, Volume, interior
from gibbslab.rng import substream

QUAD = quadratic_potential()
CIRC = circle_free_potential()


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _exact_density_const_drift(c, beta, x, y, t):
    rho = math.exp(-t)
    v = (1.0 - rho * rho) / 2.0
    mu_q = x * rho + beta * c * (1.0 - rho)
    return math.exp(-((y - mu_q) ** 2) / (2 * v) + ((y - x * rho) ** 2) / (2 * v))


def test_criterion_1_girsanov_identity():
    # exp(-sum psi) vs an independently assembled log-density exponent,
    # on >= 100 stored paths with a local-mean tanh drift at beta = 0.2
    vol = Volume.box((0,), (2,))
    x0 = Configuration.constant(vol, 0.3)
    drift = dataclasses.replace(
        markov_local_drift(1.0, Neighborhood.range1d(1)), beta=0.2
    )
    path = simulate(drift, QUAD, vol, x0, t=0.5, dt=0.01, rng=substream(101, "simulate"), n_replicas=128)
    lhs = np.zeros(path.n_replicas)
    for s in interior(vol, drift.nbhd).sorted_sites():
        lhs += psi(drift, s, (0.0, 0.5), path)
    # direct assembly from re-evaluated drift values and the compensated
    # increments dX + (1/2) U'(X) dt of the stored values, bypassing psi
    log_m = np.zeros(path.n_replicas)
    beta, dt = drift.beta, path.dt
    for s in interior(vol, drift.nbhd).sorted_sites():
        b = drift_values(drift, path, s)
        xs = path.values[:, path.site_index(s), :]
        dbar = np.diff(xs, axis=1) + 0.5 * QUAD.dU(xs[:, :-1]) * dt
        log_m += beta * np.sum(b * dbar, axis=1) - 0.5 * beta**2 * np.sum(b * b, axis=1) * dt
    rel = float(np.max(np.abs(np.exp(-lhs) - np.exp(log_m)) / np.abs(np.exp(log_m))))
    _verdict(1, "Girsanov identity", rel < 1e-10, f"max rel err {rel:.2e} on 128 paths")


def test_criterion_2_martingale_normalization():
    vol = Volume.box((0,), (0,))
    x0 = Configuration.constant(vol, 0.0)
    drift = dataclasses.replace(constant_drift(0.7), beta=0.3)
    free = dataclasses.replace(drift, beta=0.0)
    path = simulate(free, QUAD, vol, x0, t=1.0, dt=0.02, rng=substream(202, "simulate"), n_replicas=100_000)
    est = mean_estimate(np.exp(log_girsanov_weight(drift, vol, path)))
    z = abs(est.value - 1.0) / est.stderr
    _verdict(
        2, "martingale normalization",
        z < 4.0, f"E[M] = {est.value:.5f} +- {est.stderr:.5f} (z = {z:.2f}, n = 1e5)",
    )


def test_criterion_3_density_oracle():
    c, beta, t = 0.8, 1.0, 1.0
    vol = Volume.box((0,), (0,))
    drift = constant_drift(c)
    mc = MCParams(n_samples=20_000, dt=0.002)
    pairs = [(0.2, 0.5), (-0.5, 0.3), (0.0, 0.0), (1.0, -0.5), (-1.0, 1.0)]
    worst = 0.0
    for i, (x0, y0) in enumerate(pairs):
        x = Configuration.constant(vol, x0)
        y = Configuration.constant(vol, y0)
        (est,) = density(drift, QUAD, vol, [(x, y)], t, mc, seed=300 + i)
        exact = _exact_density_const_drift(c, beta, x0, y0, t)
        worst = max(worst, abs(est.value - exact) / est.stderr)
    _verdict(3, "density vs Gaussian oracle", worst < 4.0, f"worst z = {worst:.2f} over 5 pairs")


def test_criterion_4_expansion_identity():
    # one site, two slices, exhaustive truncation; T = 1/beta keeps the
    # stationary-draw boundary discrepancy ~ e^{-T} far below MC noise
    c = 0.7
    vol = Volume.box((0,), (0,))
    pairs = [(0.2, 0.5), (-0.4, 0.1), (0.8, -0.6)]
    worst_rec, worst_log = 0.0, 0.0
    for beta in (0.05, 0.1):
        T = 1.0 / beta
        grid = TimeGrid(T, 2)
        drift = dataclasses.replace(constant_drift(c), beta=beta)
        for i, (x0, y0) in enumerate(pairs):
            x = Configuration.constant(vol, x0)
            y = Configuration.constant(vol, y0)
            tab = weight_table(
                ClusterSet.enumerate(vol, drift.nbhd, grid, 3), x, y, drift, QUAD,
                MCParams(n_samples=4000, dt=0.05), seed=404,
            )
            rec = reconstruct_density(tab)
            (direct,) = density(
                drift, QUAD, vol, [(x, y)], 2 * T, MCParams(n_samples=20_000, dt=0.05),
                seed=500 + i,
            )
            worst_rec = max(
                worst_rec,
                abs(rec.value - direct.value) / math.hypot(rec.stderr, direct.stderr),
            )
            itab = interaction_terms(tab, connected_collections(tab.clusters, 3))
            tot = itab.total
            log_val = math.exp(-tot.value)
            log_se = log_val * tot.stderr  # delta method for exp(-x)
            worst_log = max(
                worst_log,
                abs(log_val - direct.value) / math.hypot(log_se, direct.stderr),
            )
    ok = worst_rec < 4.0 and worst_log < 4.0
    _verdict(
        4, "expansion and log identity", ok,
        f"worst z: reconstruct {worst_rec:.2f}, exp(-sum Phi) {worst_log:.2f}",
    )


def test_criterion_5_weight_decay():
    vol = Volume.box((0,), (0,))
    drift = constant_drift(0.7)
    x = Configuration.constant(vol, 0.2)
    y = Configuration.constant(vol, 0.5)
    betas = [0.0, 0.05, 0.1, 0.2, 0.4]
    rows = weight_bound_fit(
        betas, vol, drift, QUAD, x, y, t=5.0, k_max=3,
        mc=MCParams(n_samples=3000, dt=0.05), seed=505,
    )
    lams = [r["lambdaHat"] for r in rows]
    monotone = all(lams[i] <= lams[i + 1] + 1e-12 for i in range(len(lams) - 1))
    zero_ok = lams[0] == 0.0
    _verdict(
        5, "weight decay lambda(beta)", monotone and zero_ok,
        "lambdaHat = " + ", ".join(f"{b}:{l:.4f}" for b, l in zip(betas, lams)),
    )


def test_criterion_6_kernel_ergodicity():
    Ts = np.linspace(1.0, 5.0, 9)
    rate_q = -np.polyfit(Ts, [math.log(kernel_sup_distance(QUAD, T)) for T in Ts], 1)[0]
    rate_c = -np.polyfit(Ts, [math.log(kernel_sup_distance(CIRC, T)) for T in Ts], 1)[0]
    ok = abs(rate_q - 1.0) < 0.1 and abs(rate_c - 0.5) < 0.05
    _verdict(
        6, "kernel decay rates", ok,
        f"quadratic {rate_q:.3f} (target 1), circle {rate_c:.3f} (target 1/2)",
    )


def test_criterion_7_dobrushin_exact():
    vol = Volume.box((0,), (4,))
    ok = True
    details = []
    for beta0 in (0.2, 0.49, 0.5, 0.7):
        phi = Interaction(tuple(nearest_neighbor_terms(vol, 1.0)), beta0=beta0)
        rep = dobrushin_check(phi)
        ok = ok and rep["value"] == 2 * beta0 and rep["passes"] == (beta0 < 0.5)
        details.append(f"b0={beta0}: {rep['value']:.2f}/{rep['passes']}")
    _verdict(7, "Dobrushin exact 2*beta0", ok, "; ".join(details))


def test_criterion_8_dlr_consistency():
    big = Volume.box((0,), (3,))
    rep = dlr_test(
        Interaction((), 0.0), QUAD, big, Volume.box((1,), (2,)),
        n_outer=300, n_inner=8, seed=808, mc=MCParams(n_samples=2, burn_in=40, thin=2),
    )
    # one-site conditional vs quadrature, by Kolmogorov-Smirnov
    phi = Interaction(tuple(nearest_neighbor_terms(Volume.box((0,), (1,)), 0.8)), beta0=0.6)
    boundary = Configuration({(1,): 1.0})
    xs, probs = single_site_conditional_quadrature(phi, QUAD, (0,), boundary)
    cdf_grid = np.cumsum(probs)
    draws = np.array(
        [
            sample_gibbs(phi, QUAD, Volume.box((0,), (0,)), boundary, sweeps=60, rng=substream(s, "gibbs"))[(0,)]
            for s in range(400)
        ]
    )
    p = stats.kstest(draws, lambda v: np.interp(v, xs, cdf_grid)).pvalue
    ok = rep["maxAbsZ"] < 4.0 and p > 0.01
    _verdict(
        8, "DLR consistency", ok,
        f"phi=0 max |z| = {rep['maxAbsZ']:.2f}; 1-site KS p = {p:.3f}",
    )


def test_criterion_9_kp_criterion():
    vol = Volume.box((0,), (3,))
    nb = Neighborhood.range1d(1)
    grid = TimeGrid(1.0, 3)
    star_a = kp_lambda_star(ClusterSet.enumerate(vol, nb, grid, 3))
    # deterministic re-run
    star_b = kp_lambda_star(ClusterSet.enumerate(vol, nb, grid, 3))
    clusters = ClusterSet.enumerate(vol, nb, grid, 3)
    pass0 = kp_check(0.0, clusters)["satisfied"]
    fail1 = not kp_check(1.0, clusters)["satisfied"]
    ok = star_a > 0 and abs(star_a - star_b) <= KP_TOL and pass0 and fail1
    _verdict(
        9, "convergence criterion bisection", ok,
        f"lambda* = {star_a:.4f} (stable), kp(0) pass, kp(1) fail",
    )


def test_criterion_10_quasilocality():
    pot = QUAD
    work = Volume.box((0,), (4,))
    window = Volume.box((2,), (2,))
    phi = Interaction(tuple(nearest_neighbor_terms(work, 0.8)), beta0=0.4)
    drift = dataclasses.replace(constant_drift(0.7), beta=0.3)
    dyn = ExpansionDynamicInteraction(
        drift, pot, ClusterSet.enumerate(work, drift.nbhd, TimeGrid(1.0, 1), 1),
        n_max=1, mc=MCParams(n_samples=300, dt=0.05), seed=10,
    )
    bsi = BiSpaceInteraction(phi, dyn, pot, t=1.0)
    z_a = Configuration({(0,): 0.6, (1,): -1.2, (2,): 0.4, (3,): 1.0, (4,): -0.7})
    z_b = Configuration({(0,): -0.9, (1,): 1.4, (2,): 0.4, (3,): -1.1, (4,): 1.1})
    deltas = [window, Volume.box((1,), (3,)), work]
    mc = MCParams(n_samples=400, dt=0.05, burn_in=40, thin=2)
    rows = quasilocality_probe(bsi, window, deltas, [(z_a, z_b)], mc, seed=1010)
    diffs = [r["supDiff"] for r in rows]
    noises = [r["noise"] for r in rows]
    non_increasing = all(
        diffs[i + 1] <= diffs[i] + 4 * math.hypot(noises[i], noises[i + 1])
        for i in range(len(diffs) - 1)
    )
    # the combined interaction reaches one site beyond the window, so the
    # middle delta already sits at the noise floor; the full delta is exact
    floor = diffs[1] <= 4 * noises[1]
    exact_zero = diffs[2] == 0.0
    ok = non_increasing and floor and exact_zero
    _verdict(
        10, "quasilocality variation curve", ok,
        "supDiff = " + ", ".join(f"{d:.4g}" for d in diffs)
        + f"; noise = {max(noises):.4g}",
    )
