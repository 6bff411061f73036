import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from gibbslab.clusters import TimeGrid
from gibbslab.dynamics import (
    constant_drift,
    free_kernel,
    quadratic_potential,
    reference_quadrature,
)
from gibbslab.errors import CoverageError, SetupError, ValidationError
from gibbslab.estimates import MCParams
from gibbslab.gibbs import (
    BiSpaceInteraction,
    ExpansionDynamicInteraction,
    Interaction,
    ZeroDynamicInteraction,
    bispace_hamiltonian,
    conditional_density,
    dlr_test,
    dobrushin_check,
    empty_interaction,
    gibbs_chain,
    hamiltonian,
    nearest_neighbor_terms,
    pair_term,
    quasilocality_probe,
    sample_gibbs,
    single_site_conditional_quadrature,
    site_field_terms,
    site_term,
)
from gibbslab.lattice import Configuration, Neighborhood, Volume
from gibbslab.rng import substream

QUAD = quadratic_potential()


def test_term_validation():
    with pytest.raises(SetupError):
        site_term((0,), math.tanh, -1.0)
    with pytest.raises(SetupError):
        Interaction((), beta0=-0.1)


def test_site_and_pair_term_values():
    t = site_term((0,), math.tanh, 1.0)
    assert t.value({(0,): 0.5}) == pytest.approx(math.tanh(0.5))
    p = pair_term((0,), (1,), lambda a, b: a * b, 10.0)
    assert p.value({(0,): 2.0, (1,): -3.0}) == pytest.approx(-6.0)


def test_nearest_neighbor_terms_enumeration():
    vol = Volume.box((0,), (3,))
    terms = nearest_neighbor_terms(vol, 0.8)
    assert len(terms) == 3
    assert all(t.sup_norm == 0.8 for t in terms)
    val = terms[0].value({(0,): 1.0, (1,): 1.0})
    assert val == pytest.approx(0.8 * math.tanh(1.0) ** 2)
    with pytest.raises(SetupError):
        nearest_neighbor_terms(vol, 0.8, kind="unknown")


def test_site_field_terms_bounded():
    vol = Volume.box((0,), (1,))
    terms = site_field_terms(vol, 0.5)
    assert len(terms) == 2
    assert terms[0].value({terms[0].volume.sorted_sites()[0]: 3.0}) == pytest.approx(
        0.5 * 9.0 / 10.0
    )


def test_hamiltonian_with_boundary():
    vol = Volume.box((0,), (1,))
    phi = Interaction(tuple(nearest_neighbor_terms(Volume.box((0,), (2,)), 1.0)))
    x = Configuration({(0,): 0.5, (1,): -0.5})
    z = Configuration({(2,): 1.0})
    h = hamiltonian(phi, vol, x, z)
    expect = math.tanh(0.5) * math.tanh(-0.5) + math.tanh(-0.5) * math.tanh(1.0)
    assert h == pytest.approx(expect)
    with pytest.raises(CoverageError):
        hamiltonian(phi, vol, x)  # term (1,2) reaches outside x's domain


def test_spot_check_norms_catches_lies():
    lying = site_term((0,), lambda a: 2.0 * math.tanh(a), 1.0)  # true norm 2
    phi = Interaction((lying,))
    with pytest.raises(SetupError):
        phi.spot_check_norms(QUAD, seed=1)
    honest = Interaction((site_term((0,), math.tanh, 1.0),))
    honest.spot_check_norms(QUAD, seed=1)


def test_dobrushin_exact_value():
    # [TRIVIAL] nearest-neighbor pair norms J on a line: an interior site
    # belongs to two pair terms, each contributing (|A|-1) * J = J, so the
    # bound is exactly 2 * beta0 * J
    vol = Volume.box((0,), (4,))
    phi = Interaction(tuple(nearest_neighbor_terms(vol, 0.8)), beta0=0.4)
    rep = dobrushin_check(phi)
    assert rep["value"] == pytest.approx(2 * 0.4 * 0.8)
    assert rep["passes"]
    hot = Interaction(tuple(nearest_neighbor_terms(vol, 0.8)), beta0=0.7)
    assert not dobrushin_check(hot)["passes"]
    assert dobrushin_check(empty_interaction())["value"] == 0.0


def test_sample_gibbs_beta_zero_is_reference():
    vol = Volume.box((0,), (0,))
    draws = np.array(
        [
            sample_gibbs(empty_interaction(), QUAD, vol, None, sweeps=1, seed=s)[(0,)]
            for s in range(800)
        ]
    )
    p = stats.kstest(draws, "norm", args=(0.0, math.sqrt(0.5))).pvalue
    assert p > 0.01


def test_single_site_conditional_matches_chain():
    # conditional at site 0 given the neighbor pinned at 1.0
    phi = Interaction(
        tuple(nearest_neighbor_terms(Volume.box((0,), (1,)), 0.8)), beta0=0.6
    )
    boundary = Configuration({(1,): 1.0})
    xs, probs = single_site_conditional_quadrature(phi, QUAD, (0,), boundary)
    target = float(np.sum(np.tanh(xs) * probs))
    rng = substream(17, "chain")
    chain = gibbs_chain(
        phi, QUAD, Volume.box((0,), (0,)), boundary, 2000,
        MCParams(n_samples=2, burn_in=100, thin=2), rng,
    )
    vals = np.array([math.tanh(c[(0,)]) for c in chain])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    # thinning leaves some autocorrelation; widen the error bar accordingly
    assert abs(vals.mean() - target) < 6 * se


def test_dlr_consistency_cheap():
    vol = Volume.box((0,), (3,))
    phi = Interaction(tuple(nearest_neighbor_terms(vol, 0.5)), beta0=0.4)
    rep = dlr_test(
        phi, QUAD, vol, Volume.box((1,), (2,)), n_outer=150, n_inner=8, seed=3,
        mc=MCParams(n_samples=2, burn_in=40, thin=2),
    )
    assert rep["maxAbsZ"] < 5.0
    assert {r["f"] for r in rep["rows"]} == {
        "tanh_first", "cos_first", "mean_tanh", "pair_tanh",
    }


def test_dlr_requires_margin():
    vol = Volume.box((0,), (3,))
    phi = Interaction(tuple(nearest_neighbor_terms(Volume.box((0,), (4,)), 0.5)), beta0=0.4)
    with pytest.raises(CoverageError):
        dlr_test(phi, QUAD, vol, Volume.box((2,), (3,)), 10, 2, seed=1)


def test_bispace_hamiltonian_zero_dynamic():
    vol = Volume.box((0,), (1,))
    phi = Interaction(tuple(nearest_neighbor_terms(vol, 0.8)), beta0=0.4)
    bsi = BiSpaceInteraction(phi, ZeroDynamicInteraction(), QUAD, t=1.0)
    x = Configuration({(0,): 0.3, (1,): -0.2})
    y = Configuration({(0,): 0.1, (1,): 0.7})
    got = bispace_hamiltonian(bsi, vol, vol, x, y)
    expect = 0.4 * (0.8 * math.tanh(0.3) * math.tanh(-0.2))
    for i, (xi, yi) in enumerate([(0.3, 0.1), (-0.2, 0.7)]):
        expect -= math.log(float(free_kernel(QUAD, 1.0, xi, yi)))
    assert got == pytest.approx(expect, rel=1e-12)


def test_conditional_density_free_case_is_one():
    # no initial interaction, no dynamic interaction: stationarity makes the
    # window density exactly 1
    vol = Volume.box((1,), (1,))
    bsi = BiSpaceInteraction(empty_interaction(), ZeroDynamicInteraction(), QUAD, t=1.0)
    z = Configuration({(0,): -0.4, (1,): 0.6})
    yb = Configuration({(0,): -0.4})
    est = conditional_density(
        bsi, vol, z, yb, MCParams(n_samples=400, dt=0.05, burn_in=40, thin=2),
        seed=19, n_inner=16,
    )
    assert abs(est.value - 1.0) < 4 * est.stderr + 0.01


def test_conditional_density_validation():
    vol = Volume.box((1,), (1,))
    bsi = BiSpaceInteraction(empty_interaction(), ZeroDynamicInteraction(), QUAD, t=1.0)
    z = Configuration({(0,): 0.0, (1,): 0.0})
    with pytest.raises(ValidationError):
        conditional_density(bsi, vol, z, Configuration({(1,): 0.0}),
                            MCParams(n_samples=8), seed=1)
    with pytest.raises(CoverageError):
        conditional_density(bsi, vol, Configuration({(0,): 0.0}),
                            Configuration({(0,): 0.0}), MCParams(n_samples=8), seed=1)


def test_conditional_density_against_quadrature_oracle():
    # [DERIVED] two sites, nearest-neighbor initial interaction, constant
    # drift: the interacting one-site kernel is a shifted OU Gaussian, so the
    # full conditional g(z_1 | y_0) has a quadrature closed form = 1.158912...
    pot = QUAD
    W = Volume.box((0,), (1,))
    lam = Volume.box((1,), (1,))
    nb = Neighborhood.range1d(0)
    beta, c, t, beta0, J = 0.3, 0.7, 1.0, 0.4, 0.8
    drift = dataclasses.replace(constant_drift(c), beta=beta)
    phi = Interaction(tuple(nearest_neighbor_terms(W, J)), beta0=beta0)
    dyn = ExpansionDynamicInteraction(
        drift, pot, W, nb, TimeGrid(t, 1), k_max=2, n_max=3,
        mc=MCParams(n_samples=800, dt=0.05), seed=5,
    )
    bsi = BiSpaceInteraction(phi, dyn, pot, t)
    y0, z1 = -0.4, 0.6
    zc = Configuration({(0,): y0, (1,): z1})
    yb = Configuration({(0,): y0})
    est = conditional_density(
        bsi, lam, zc, yb, MCParams(n_samples=400, dt=0.05, burn_in=50, thin=3),
        seed=31, n_inner=24,
    )

    # independent quadrature oracle with the exact shifted-OU kernel
    v = 0.5 * (1 - math.exp(-2 * t))
    e = math.exp(-t)

    def ptilde(x, y):
        mu = x * e + beta * c * (1 - e)
        return (
            np.exp(-((y - mu) ** 2) / (2 * v)) / np.sqrt(2 * np.pi * v)
        ) / (np.exp(-(y**2)) / np.sqrt(np.pi))

    xs, w = reference_quadrature(pot, 801)
    X0, X1 = np.meshgrid(xs, xs, indexing="ij")
    nu = np.exp(-beta0 * J * np.tanh(X0) * np.tanh(X1)) * w[:, None] * w[None, :]
    nu /= nu.sum()

    def q(zz):
        return float(np.sum(nu * ptilde(X0, y0) * ptilde(X1, zz)))

    oracle = q(z1) / float(np.sum([q(zz) * wz for zz, wz in zip(xs, w)]))
    assert oracle == pytest.approx(1.158912221509535, rel=1e-9)
    # truncation of the expansion adds a small systematic allowance
    assert abs(est.value - oracle) < 4 * est.stderr + 0.01


class _NanDynamic:
    """A dynamic interaction whose one term at site 0 is not finite."""

    def traces(self):
        return [Volume.box((0,), (0,))]

    def value(self, delta, x, y):
        return float("nan")


def test_modified_sampler_rejects_non_finite_energy():
    vol = Volume.box((1,), (1,))
    bsi = BiSpaceInteraction(empty_interaction(), _NanDynamic(), QUAD, t=1.0)
    z = Configuration({(0,): 0.1, (1,): 0.2})
    with pytest.raises(SetupError):
        conditional_density(
            bsi, vol, z, Configuration({(0,): 0.1}),
            MCParams(n_samples=4, dt=0.05, burn_in=2, thin=1), seed=3,
        )


def test_expansion_dynamic_interaction_trace_measurability():
    pot = QUAD
    W = Volume.box((0,), (1,))
    nb = Neighborhood.range1d(0)
    drift = dataclasses.replace(constant_drift(0.7), beta=0.3)
    dyn = ExpansionDynamicInteraction(
        drift, pot, W, nb, TimeGrid(1.0, 1), k_max=1, n_max=1,
        mc=MCParams(n_samples=256, dt=0.05), seed=5,
    )
    delta = Volume.box((0,), (0,))
    x = Configuration({(0,): 0.2, (1,): 5.0})
    x2 = Configuration({(0,): 0.2, (1,): -5.0})
    y = Configuration({(0,): 0.1, (1,): 0.0})
    assert dyn.value(delta, x, y) == dyn.value(delta, x2, y)
    assert dyn.value(Volume.box((7,), (7,)), x, y) == 0.0


def test_quasilocality_zero_dynamic_full_agreement():
    vol = Volume.box((1,), (1,))
    bsi = BiSpaceInteraction(empty_interaction(), ZeroDynamicInteraction(), QUAD, t=1.0)
    big = Volume.box((0,), (2,))
    z_a = Configuration({(0,): 0.5, (1,): 0.2, (2,): -0.3})
    z_b = Configuration({(0,): -0.8, (1,): 0.2, (2,): 0.9})
    mc = MCParams(n_samples=120, dt=0.05, burn_in=20, thin=2)
    rows = quasilocality_probe(bsi, vol, [Volume.box((1,), (1,)), big], [(z_a, z_b)], mc, seed=7)
    # full boundary agreement uses common random numbers: exact zero
    assert rows[-1]["supDiff"] == 0.0
    with pytest.raises(ValidationError):
        quasilocality_probe(bsi, vol, [big, Volume.box((1,), (1,))], [(z_a, z_b)], mc, seed=7)
