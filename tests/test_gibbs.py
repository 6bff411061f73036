import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from gibbslab.clusters import TimeGrid
from gibbslab import gibbs
from gibbslab.dynamics import (
    _sample_reference_rng,
    circle_free_potential,
    constant_drift,
    free_kernel,
    markov_local_drift,
    quadratic_potential,
    reference_quadrature,
)
from gibbslab.errors import CoverageError, SetupError, ValidationError
from gibbslab.estimates import MCParams
from gibbslab.expansion import cluster_sampler, cluster_weight, volume_key
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
from gibbslab.lattice import CIRCLE, TWO_PI, Configuration, Neighborhood, Volume
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


@pytest.mark.parametrize("space", ["line", "circle"])
def test_sample_gibbs_is_one_chain_of_gibbs_chain(space):
    # one sample after `sweeps` sweeps, no burn-in: the same draws, in the
    # same order, as one gibbs_chain call on the same stream
    pot = QUAD if space == "line" else circle_free_potential()
    vol = Volume.box((1,), (3,))
    kind = "tanh" if space == "line" else "cos_diff"
    phi = Interaction(
        tuple(nearest_neighbor_terms(Volume.box((0,), (4,)), 0.8, kind=kind)), beta0=0.6
    )
    boundary = Configuration({(0,): 0.4, (4,): 1.1}, pot.state_space)
    for sweeps in (1, 5, 17):
        got = sample_gibbs(phi, pot, vol, boundary, sweeps=sweeps, seed=3)
        chain = gibbs_chain(
            phi, pot, vol, [boundary], 1, MCParams(burn_in=0, thin=sweeps),
            [substream(3, "gibbs")],
        )
        assert np.array_equal(got.array_for(vol.sorted_sites()), chain[0, 0])


def test_single_site_conditional_matches_chain():
    # conditional at site 0 given the neighbor pinned at 1.0
    phi = Interaction(
        tuple(nearest_neighbor_terms(Volume.box((0,), (1,)), 0.8)), beta0=0.6
    )
    boundary = Configuration({(1,): 1.0})
    xs, probs = single_site_conditional_quadrature(phi, QUAD, (0,), boundary)
    target = float(np.sum(np.tanh(xs) * probs))
    rng = substream(17, "chain")
    (chain,) = gibbs_chain(
        phi, QUAD, Volume.box((0,), (0,)), [boundary], 2000,
        MCParams(n_samples=2, burn_in=100, thin=2), [rng],
    )
    vals = np.tanh(chain[:, 0])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    # thinning leaves some autocorrelation; widen the error bar accordingly
    assert abs(vals.mean() - target) < 6 * se


def _reference_chain(phi, pot, vol, boundary, n_samples, mc, rng):
    """One chain of the per-chain dict kernel that gibbs_chain replaced."""
    sites = vol.sorted_sites()
    values = dict(zip(sites, _sample_reference_rng(pot, len(sites), rng)))
    if boundary is not None:
        values.update({s: v for s, v in boundary.values.items() if s not in vol.sites})
    site_terms = {s: phi.terms_at(s) for s in sites}

    def sweeps(n):
        proposals = _sample_reference_rng(pot, n * len(sites), rng).reshape(n, len(sites))
        logu = np.log(rng.uniform(size=(n, len(sites))))
        for props, us in zip(proposals, logu):
            for s, prop, lu in zip(sites, props, us):
                old = values[s]
                old_e = sum(t.value(values) for t in site_terms[s])
                values[s] = prop
                new_e = sum(t.value(values) for t in site_terms[s])
                if not (math.isfinite(old_e) and math.isfinite(new_e)):
                    raise SetupError("non-finite local energy")
                if lu >= -phi.beta0 * (new_e - old_e):
                    values[s] = old

    sweeps(mc.burn_in)
    out = []
    for _ in range(n_samples):
        sweeps(mc.thin)
        out.append([values[s] for s in sites])
    return np.array(out)


def _line_phi(vol):
    terms = nearest_neighbor_terms(vol, 0.8, "tanh") + site_field_terms(vol, 0.6, "bounded")
    return Interaction(tuple(terms), beta0=0.9)


def _circle_phi(vol):
    terms = nearest_neighbor_terms(vol, 0.8, "cos_diff") + site_field_terms(vol, 0.6, "cos")
    return Interaction(tuple(terms), beta0=0.9)


@pytest.mark.parametrize(
    "pot, make_phi",
    [
        (QUAD, _line_phi),
        (circle_free_potential(), _circle_phi),
        (QUAD, lambda vol: empty_interaction()),
    ],
    ids=["tanh-bounded", "cos_diff-cos", "empty"],
)
@pytest.mark.parametrize("shared", [True, False], ids=["shared-rng", "own-rngs"])
def test_lockstep_chains_match_the_per_chain_reference(pot, make_phi, shared):
    outer = Volume.box((0,), (4,))
    vol = Volume.box((1,), (3,))
    phi = make_phi(outer)
    hi = TWO_PI if pot.state_space == CIRCLE else 1.5
    rng = np.random.default_rng(3)
    boundaries = [
        Configuration(
            {(0,): rng.uniform(-hi, hi), (4,): rng.uniform(-hi, hi)}, pot.state_space
        )
        for _ in range(4)
    ]
    mc = MCParams(n_samples=2, burn_in=7, thin=3)
    if shared:
        ref_rng = substream(23, "shared")
        ref = [_reference_chain(phi, pot, vol, b, 5, mc, ref_rng) for b in boundaries]
        rngs = [substream(23, "shared")] * len(boundaries)
    else:
        ref = [
            _reference_chain(phi, pot, vol, b, 5, mc, substream(23, c))
            for c, b in enumerate(boundaries)
        ]
        rngs = [substream(23, c) for c in range(len(boundaries))]
    got = gibbs_chain(phi, pot, vol, boundaries, 5, mc, rngs)
    assert got.shape == (4, 5, 3)
    assert np.array_equal(got, np.stack(ref))


def test_lockstep_chains_free_boundary_and_shape_checks():
    vol = Volume.box((0,), (2,))
    phi = _line_phi(vol)
    mc = MCParams(n_samples=2, burn_in=4, thin=2)
    got = gibbs_chain(phi, QUAD, vol, [None, None], 3, mc, [substream(5, 0), substream(5, 1)])
    ref = [_reference_chain(phi, QUAD, vol, None, 3, mc, substream(5, c)) for c in (0, 1)]
    assert np.array_equal(got, np.stack(ref))
    with pytest.raises(ValidationError):
        gibbs_chain(phi, QUAD, vol, [None], 3, mc, [substream(5, 0), substream(5, 1)])
    inner = Volume.box((1,), (1,))
    with pytest.raises(CoverageError):
        gibbs_chain(
            phi, QUAD, inner, [Configuration({(0,): 0.1, (2,): 0.2}), None], 3, mc,
            [substream(5, 0), substream(5, 1)],
        )


@pytest.mark.parametrize(
    "boundary", [None, Configuration({(5,): 0.3})], ids=["free", "elsewhere"]
)
def test_gibbs_chain_rejects_a_term_reaching_an_unheld_site(boundary):
    # the pair term (1, 2) reads site 2, which neither the volume nor the
    # boundary holds; this used to end in a raw KeyError
    phi = Interaction(tuple(nearest_neighbor_terms(Volume.box((0,), (2,)), 0.8)), beta0=0.5)
    mc = MCParams(n_samples=2, burn_in=1, thin=1)
    with pytest.raises(CoverageError, match=r"reaches \(2,\)"):
        gibbs_chain(phi, QUAD, Volume.box((0,), (1,)), [boundary], 2, mc, [substream(2, 0)])


def test_lockstep_chains_reject_a_non_finite_energy_in_one_chain():
    vol = Volume.box((1,), (1,))
    # not finite only in the chain whose boundary exceeds 5
    blowup = pair_term((0,), (1,), lambda a, b: np.where(a > 5.0, np.nan, 0.0) + 0.0 * b, 1.0)
    phi = Interaction((blowup,), beta0=0.5)
    mc = MCParams(n_samples=2, burn_in=1, thin=1)
    values = (0.0, 0.3, 9.0, -0.2, 0.7)
    boundaries = [Configuration({(0,): v}) for v in values]
    rngs = [substream(1, c) for c in range(len(values))]
    with pytest.raises(SetupError):
        gibbs_chain(phi, QUAD, vol, boundaries, 2, mc, rngs)
    keep = [c for c, v in enumerate(values) if v < 5.0]
    got = gibbs_chain(
        phi, QUAD, vol, [boundaries[c] for c in keep], 2, mc, [substream(1, c) for c in keep]
    )
    assert np.isfinite(got).all()


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


@pytest.mark.parametrize("n_outer, n_inner", [(1, 4), (0, 4), (4, 0)])
def test_dlr_refuses_too_few_samples(n_outer, n_inner):
    # one outer draw or no inner draw used to return maxAbsZ NaN
    vol = Volume.box((0,), (3,))
    phi = Interaction(tuple(nearest_neighbor_terms(vol, 0.5)), beta0=0.4)
    with pytest.raises(ValidationError, match="n_outer >= 2 and n_inner >= 1"):
        dlr_test(
            phi, QUAD, vol, Volume.box((1,), (2,)), n_outer, n_inner, seed=3,
            mc=MCParams(n_samples=2, burn_in=4, thin=1),
        )


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


def _old_bispace_hamiltonian(bsi, delta, delta_p, x, y):
    """bispace_hamiltonian as it was written before the coupling terms."""
    union = delta.union(delta_p)
    if not union.sites:
        return 0.0
    total = bsi.initial.beta0 * hamiltonian(bsi.initial, delta, x) if delta.sites else 0.0
    for i in union.sorted_sites():
        total -= math.log(float(free_kernel(bsi.pot, bsi.t, x[i], y[i])))
    for dv in bsi.dynamic.traces():
        if dv.sites & union.sites:
            total += bsi.dynamic.value(dv, x, y)
    return total


def _old_point_energy(bsi, lam, y, values, s):
    """The local energy at s of the modified-interaction sampler before it
    became an Interaction sampled by gibbs_chain."""
    phi = bsi.initial
    e = phi.beta0 * sum(t.value(values) for t in phi.terms_at(s))
    if s not in lam.sites:
        e -= math.log(float(free_kernel(bsi.pot, bsi.t, values[s], y[s])))
    for dv in bsi.dynamic.traces():
        if not (dv.sites & lam.sites) and s in dv.sites:
            e += bsi.dynamic.value(dv, values, y)
    return e


def _two_layer(space, dynamic):
    """A bi-space interaction on sites 0..2: line or circle terms, and the
    zero or a small expansion dynamic interaction."""
    pot = QUAD if space == "line" else circle_free_potential()
    work = Volume.box((0,), (2,))
    phi = _line_phi(work) if space == "line" else _circle_phi(work)
    dyn = ZeroDynamicInteraction() if dynamic == "zero" else _small_dynamic(pot)
    return BiSpaceInteraction(phi, dyn, pot, t=0.7)


@pytest.mark.parametrize("dynamic", ["zero", "expansion"])
@pytest.mark.parametrize("space", ["line", "circle"])
def test_bispace_hamiltonian_equals_the_old_formula(space, dynamic):
    bsi = _two_layer(space, dynamic)
    rng = np.random.default_rng(6)
    sites = [(0,), (1,), (2,)]
    one, rest, none = Volume.box((0,), (0,)), Volume.box((1,), (2,)), Volume(frozenset())
    full = Volume.box((0,), (2,))
    for _ in range(3):
        x, y = (
            Configuration(dict(zip(sites, _sample_reference_rng(bsi.pot, 3, rng))),
                          bsi.pot.state_space)
            for _ in range(2)
        )
        for delta, delta_p in [(full, full), (one, rest), (none, rest), (rest, none), (none, none)]:
            got = bispace_hamiltonian(bsi, delta, delta_p, x, y)
            assert got == _old_bispace_hamiltonian(bsi, delta, delta_p, x, y)


@pytest.mark.parametrize("dynamic", ["zero", "expansion"])
@pytest.mark.parametrize("space", ["line", "circle"])
def test_modified_interaction_matches_the_old_local_energy(space, dynamic):
    bsi = _two_layer(space, dynamic)
    lam = Volume.box((1,), (1,))
    rng = np.random.default_rng(9)
    sites = [(0,), (1,), (2,)]
    for _ in range(3):
        y = Configuration(
            dict(zip([(0,), (2,)], _sample_reference_rng(bsi.pot, 2, rng))), bsi.pot.state_space
        )
        modified = gibbs._modified_interaction(bsi, lam, y)
        assert modified.beta0 == 1.0
        energy = gibbs._site_energy(modified, sites)
        point = dict(zip(sites, _sample_reference_rng(bsi.pot, 3, rng)))
        proposals = _sample_reference_rng(bsi.pot, 3, rng)
        for s, prop in zip(sites, proposals):
            old = _old_point_energy(bsi, lam, y.values, point, s)
            assert sum(t.value(point) for t in modified.terms_at(s)) == pytest.approx(
                old, rel=0, abs=1e-12
            )
            # the (2, 1) stack of one chain's Metropolis move at s
            stack = {r: np.array([v]) for r, v in point.items()}
            stack[s] = np.array([[point[s]], [prop]])
            want = [old, _old_point_energy(bsi, lam, y.values, {**point, s: prop}, s)]
            got = energy(stack, s)
            assert np.shape(got) == (2, 1)
            assert np.allclose(np.ravel(got), want, rtol=0, atol=1e-12)


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
    beta, c, t, beta0, J = 0.3, 0.7, 1.0, 0.4, 0.8
    drift = dataclasses.replace(constant_drift(c), beta=beta)
    phi = Interaction(tuple(nearest_neighbor_terms(W, J)), beta0=beta0)
    dyn = ExpansionDynamicInteraction(
        drift, pot, W, TimeGrid(t, 1), k_max=2, n_max=3,
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

    # q(z) = sum_jk nu[j, k] ptilde(x_j, y0) ptilde(x_k, z) = m @ ptilde(xs, z),
    # and the normalizer sum_l w_l q(x_l) = m @ (B @ w), B[k, l] = ptilde(x_k, x_l)
    m = ptilde(xs, y0) @ nu
    B = ptilde(xs[:, None], xs[None, :])
    oracle = float(m @ ptilde(xs, z1) / (m @ (B @ w)))
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
    drift = dataclasses.replace(constant_drift(0.7), beta=0.3)
    dyn = ExpansionDynamicInteraction(
        drift, pot, W, TimeGrid(1.0, 1), k_max=1, n_max=1,
        mc=MCParams(n_samples=256, dt=0.05), seed=5,
    )
    delta = Volume.box((0,), (0,))
    x = Configuration({(0,): 0.2, (1,): 5.0})
    x2 = Configuration({(0,): 0.2, (1,): -5.0})
    y = Configuration({(0,): 0.1, (1,): 0.0})
    assert dyn.value(delta, x, y) == dyn.value(delta, x2, y)
    assert dyn.value(Volume.box((7,), (7,)), x, y) == 0.0


def _small_dynamic(pot, seed=5):
    nb = Neighborhood.range1d(1)
    drift = dataclasses.replace(markov_local_drift(1.0, nb, memory=0.1), beta=0.4)
    return ExpansionDynamicInteraction(
        drift, pot, Volume.box((0,), (2,)), TimeGrid(0.5, 2), k_max=2, n_max=2,
        mc=MCParams(n_samples=16, dt=0.1), seed=seed,
    )


@pytest.mark.parametrize("family", ["quadratic", "circle_free"])
def test_dynamic_value_takes_site_value_dicts(family):
    # the modified-energy sampler and the window factor pass plain dicts; on
    # the circle their values are draws from m, which a Configuration keeps
    pot = QUAD if family == "quadratic" else circle_free_potential()
    rng = np.random.default_rng(4)
    sites = [(0,), (1,), (2,)]
    for _ in range(3):
        xd = dict(zip(sites, _sample_reference_rng(pot, 3, rng)))
        yd = dict(zip(sites, _sample_reference_rng(pot, 3, rng)))
        xc = Configuration(xd, pot.state_space)
        yc = Configuration(yd, pot.state_space)
        assert xc.values == xd and yc.values == yd
        from_dicts, from_configs = _small_dynamic(pot), _small_dynamic(pot)
        for delta in from_dicts.traces():
            assert from_dicts.value(delta, xd, yd) == from_configs.value(delta, xc, yc)


class _RecordingDynamic:
    """A zero dynamic interaction with one trace that records its inputs."""

    def __init__(self):
        self.seen = []

    def traces(self):
        return [Volume.box((0,), (1,))]

    def value(self, delta, x, y):
        self.seen.append((dict(x.values if isinstance(x, Configuration) else x),
                          dict(y.values if isinstance(y, Configuration) else y)))
        return 0.0


def test_conditional_density_passes_wrapped_circle_values():
    pot = circle_free_potential()
    rec = _RecordingDynamic()
    bsi = BiSpaceInteraction(empty_interaction(), rec, pot, t=1.0)
    z = Configuration({(0,): 0.4, (1,): 6.0}, CIRCLE)
    conditional_density(
        bsi, Volume.box((1,), (1,)), z, Configuration({(0,): 0.4}, CIRCLE),
        MCParams(n_samples=4, dt=0.05, burn_in=2, thin=1), seed=3, n_inner=3,
    )
    assert rec.seen
    for x, y in rec.seen:
        for v in (*x.values(), *y.values()):
            assert np.all((0.0 <= v) & (v < TWO_PI))


def test_dynamic_interaction_evictions_keep_every_weight(monkeypatch):
    # dropped samplers are drawn again from the same substream: bit for bit
    # the same values
    rng = np.random.default_rng(8)
    sites = [(0,), (1,), (2,)]
    pairs = [
        (dict(zip(sites, rng.normal(size=3))), dict(zip(sites, rng.normal(size=3))))
        for _ in range(4)
    ]
    plain = _small_dynamic(QUAD)
    expected = [[plain.value(d, x, y) for d in plain.traces()] for x, y in pairs]
    assert plain.evictions == {"samplers": 0}
    monkeypatch.setattr(gibbs, "SAMPLER_BUDGET_BYTES", 1)
    capped = _small_dynamic(QUAD)
    for _ in range(2):
        got = [[capped.value(d, x, y) for d in capped.traces()] for x, y in pairs]
        assert got == expected
    assert capped.evictions["samplers"] > 0
    assert len(capped._samplers) == 1


@pytest.mark.parametrize("family", ["quadratic", "circle_free"])
def test_dynamic_value_at_a_batch_equals_per_point_calls(family):
    # Phi broadcasts over arrays of pinned values; each point is bit for bit
    # the value of a call at that point alone
    pot = QUAD if family == "quadratic" else circle_free_potential()
    rng = np.random.default_rng(12)
    sites = [(0,), (1,), (2,)]
    P = 5
    x = dict(zip(sites, _sample_reference_rng(pot, 3 * P, rng).reshape(3, P)))
    x[(2,)] = float(x[(2,)][0])
    y = dict(zip(sites, _sample_reference_rng(pot, 3, rng)))
    y[(1,)] = _sample_reference_rng(pot, P, rng)
    dyn = _small_dynamic(pot)
    shapes = set()
    for delta in dyn.traces():
        batch = dyn.value(delta, x, y)
        shapes.add(np.shape(batch))
        batch = np.broadcast_to(batch, (P,))
        for p in range(P):
            point = [{s: float(np.broadcast_to(v, (P,))[p]) for s, v in d.items()} for d in (x, y)]
            assert batch[p] == dyn.value(delta, *point)
    assert (P,) in shapes
    with pytest.raises(CoverageError):
        dyn.value(Volume.box((1,), (1,)), {(0,): x[(0,)], (2,): x[(2,)]}, y)


def test_pinned_values_1e_13_apart_get_their_own_weights():
    # no weight is shared through a rounded key: at k_max = n_max = 1 each
    # trace is one cluster, Phi = -K_G, and each of two x values 1e-13
    # apart gets -K_G of a fresh sampler at that exact value
    pot, seed = QUAD, 5
    drift = dataclasses.replace(markov_local_drift(1.0, Neighborhood.range1d(1), 0.1), beta=0.4)
    mc = MCParams(n_samples=64, dt=0.1)
    dyn = ExpansionDynamicInteraction(
        drift, pot, Volume.box((0,), (2,)), TimeGrid(0.5, 1), 1, 1, mc, seed
    )
    y = {(0,): -0.2, (1,): 0.5, (2,): 0.1}
    xa = {(0,): -0.4, (1,): 0.3, (2,): 0.9}
    xb = {**xa, (1,): 0.3 + 1e-13}
    moved = 0
    for delta in dyn.traces():
        [[(i,), C]] = dyn._groups[volume_key(delta)]
        assert C == 1.0
        got = [dyn.value(delta, x, y) for x in (xa, xb)]
        fresh = [
            cluster_weight(
                cluster_sampler(dyn._clusters[i], drift, pot, mc, substream(seed, "weight", i)),
                x, y,
            ).value
            for x in (xa, xb)
        ]
        assert got == [-w for w in fresh]
        moved += got[0] != got[1]
    assert moved > 0


def test_dynamic_interaction_requires_pinned_sites():
    dyn = _small_dynamic(QUAD)
    delta = Volume.box((1,), (1,))
    full = {(0,): 0.1, (1,): 0.2, (2,): 0.3}
    without_1 = {(0,): 0.1, (2,): 0.3}
    with pytest.raises(CoverageError):
        dyn.value(delta, without_1, full)
    with pytest.raises(CoverageError):
        dyn.value(delta, full, Configuration(without_1))


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


def _reference_probe(bsi, vol, deltas, probe_pairs, mc, seed):
    """quasilocality_probe with two conditional densities per (delta, pair)."""
    rows = []
    for delta in deltas:
        sup_diff = 0.0
        noise = 0.0
        for z_a, z_b in probe_pairs:
            boundary_sites = z_a.domain.sites - vol.sites
            y1 = z_a.restrict(Volume(boundary_sites))
            mixed = {s: (z_a[s] if s in delta.sites else z_b[s]) for s in boundary_sites}
            y2 = Configuration(mixed, z_a.state_space)
            g1 = conditional_density(bsi, vol, z_a, y1, mc, seed)
            g2 = conditional_density(bsi, vol, z_a, y2, mc, seed)
            sup_diff = max(sup_diff, abs(g1.value - g2.value))
            noise = max(noise, math.hypot(g1.stderr, g2.stderr))
        rows.append(
            {"delta": [list(s) for s in delta.sorted_sites()], "supDiff": sup_diff, "noise": noise}
        )
    return rows


def test_quasilocality_estimates_each_distinct_boundary_once(monkeypatch):
    big = Volume.box((0,), (4,))
    vol = Volume.box((2,), (2,))
    phi = Interaction(tuple(nearest_neighbor_terms(big, 0.8)), beta0=0.6)
    bsi = BiSpaceInteraction(phi, ZeroDynamicInteraction(), QUAD, t=1.0)
    deltas = [vol, Volume.box((1,), (3,)), big]
    z_a = Configuration({(0,): 0.5, (1,): -0.7, (2,): 0.2, (3,): 1.1, (4,): -0.3})
    z_b = Configuration({(0,): -0.8, (1,): 0.4, (2,): 0.2, (3,): -0.6, (4,): 0.9})
    # agrees with z_a outside 1..3, so its mixed boundary there equals y1
    z_c = Configuration({(0,): 0.5, (1,): 0.9, (2,): 0.2, (3,): -1.2, (4,): -0.3})
    # the boundary of z_a with another window value
    z_d = Configuration({**z_a.values, (2,): -0.5})
    pairs = [(z_a, z_b), (z_a, z_c), (z_d, z_b)]
    mc = MCParams(n_samples=30, dt=0.05, burn_in=10, thin=2)
    ref = _reference_probe(bsi, vol, deltas, pairs, mc, seed=11)

    calls = []
    real = gibbs.conditional_density

    def counting(bsi_, vol_, z_vol, y_boundary, mc_, seed_):
        calls.append((z_vol[(2,)], tuple(sorted(y_boundary.values.items()))))
        return real(bsi_, vol_, z_vol, y_boundary, mc_, seed_)

    monkeypatch.setattr(gibbs, "conditional_density", counting)
    rows = quasilocality_probe(bsi, vol, deltas, pairs, mc, seed=11)
    assert rows == ref
    assert ref[0]["supDiff"] > 0.0 and ref[-1]["supDiff"] == 0.0
    # the first two pairs share z_a, so y1 once; (z_a, z_b) adds the mixed
    # boundaries of the two smaller deltas and (z_a, z_c) that of the
    # smallest; (z_d, z_b) repeats the boundaries of (z_a, z_b) at another
    # window value, so all three are estimated again
    assert len(calls) == 7
    assert len(set(calls)) == 7
