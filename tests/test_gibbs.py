import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gibbslab.clusters import ClusterSet, TimeGrid
from gibbslab import gibbs, girsanov
from gibbslab.dynamics import (
    _sample_reference_rng,
    circle_free_potential,
    constant_drift,
    custom_potential,
    free_kernel,
    markov_local_drift,
    quadratic_potential,
    reference_quadrature,
)
from gibbslab.errors import CoverageError, SetupError, ValidationError
from gibbslab.estimates import MCParams
from gibbslab.expansion import cluster_sampler, cluster_weight, volume_key, weight_stream
from gibbslab.gibbs import (
    BiSpaceInteraction,
    ExpansionDynamicInteraction,
    Interaction,
    InteractionTerm,
    ZeroDynamicInteraction,
    bispace_hamiltonian,
    conditional_density,
    dlr_test,
    dobrushin_check,
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
    assert dobrushin_check(Interaction((), 0.0))["value"] == 0.0


def test_sample_gibbs_beta_zero_is_reference():
    vol = Volume.box((0,), (0,))
    draws = np.array(
        [
            sample_gibbs(Interaction((), 0.0), QUAD, vol, None, sweeps=1, rng=substream(s, "gibbs"))[(0,)]
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
        got = sample_gibbs(phi, pot, vol, boundary, sweeps=sweeps, rng=substream(3, "gibbs"))
        chain = gibbs_chain(
            phi, pot, vol, boundary, 1, MCParams(burn_in=0, thin=sweeps),
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
        phi, QUAD, Volume.box((0,), (0,)), boundary, 2000,
        MCParams(n_samples=2, burn_in=100, thin=2), [rng],
    )
    vals = np.tanh(chain[:, 0])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    # thinning leaves some autocorrelation; widen the error bar accordingly
    assert abs(vals.mean() - target) < 6 * se


def _colour_order(phi, sites):
    """The chain sites class by class: each site, in sorted order, takes the
    least colour of no earlier site that shares a term with it."""
    colour = {}
    for s in sites:
        taken = {colour[r] for t in phi.terms_at(s) for r in t.sites if r in colour}
        colour[s] = min(set(range(len(taken) + 1)) - taken)
    return sorted(sites, key=lambda s: (colour[s], s))


def _reference_chains(phi, pot, vol, boundaries, n_samples, mc, rng):
    """Chains that share the generator rng, one per boundary (None or a
    Configuration), run one by one by a per-chain dict kernel that visits
    the sites class by class.  The group draws chain-major: the initial
    values, then per block the proposals, then the uniforms."""
    sites = vol.sorted_sites()
    n, g = len(sites), len(boundaries)
    order = [sites.index(s) for s in _colour_order(phi, sites)]
    init = _sample_reference_rng(pot, g * n, rng).reshape(g, n)
    blocks = []
    for sweeps in [mc.burn_in] + [mc.thin] * n_samples:
        proposals = _sample_reference_rng(pot, g * sweeps * n, rng).reshape(g, sweeps, n)
        blocks.append((proposals, np.log(rng.uniform(size=(g, sweeps, n)))))
    site_terms = {s: phi.terms_at(s) for s in sites}
    out = []
    for c, boundary in enumerate(boundaries):
        values = dict(zip(sites, init[c]))
        if boundary is not None:
            values.update({s: v for s, v in boundary.values.items() if s not in vol.sites})
        samples = []
        for b, (proposals, logu) in enumerate(blocks):
            for props, us in zip(proposals[c], logu[c]):
                for i in order:
                    s = sites[i]
                    old = values[s]
                    old_e = sum(t.value(values) for t in site_terms[s])
                    values[s] = props[i]
                    new_e = sum(t.value(values) for t in site_terms[s])
                    if not (math.isfinite(old_e) and math.isfinite(new_e)):
                        raise SetupError("non-finite local energy")
                    if us[i] >= -phi.beta0 * (new_e - old_e):
                        values[s] = old
            if b:
                samples.append([values[s] for s in sites])
        out.append(samples)
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
        (QUAD, lambda vol: Interaction((), 0.0)),
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
        ref = _reference_chains(phi, pot, vol, boundaries, 5, mc, substream(23, "shared"))
        rngs = [substream(23, "shared")] * len(boundaries)
    else:
        ref = np.concatenate([
            _reference_chains(phi, pot, vol, [b], 5, mc, substream(23, c))
            for c, b in enumerate(boundaries)
        ])
        rngs = [substream(23, c) for c in range(len(boundaries))]
    # one mapping holds every chain: a (chains,) array per boundary site
    boundary = {s: np.array([b[s] for b in boundaries]) for s in [(0,), (4,)]}
    got = gibbs_chain(phi, pot, vol, boundary, 5, mc, rngs)
    assert got.shape == (4, 5, 3)
    assert np.array_equal(got, ref)


def test_lockstep_chains_free_boundary_and_shape_checks():
    vol = Volume.box((0,), (2,))
    phi = _line_phi(vol)
    mc = MCParams(n_samples=2, burn_in=4, thin=2)
    got = gibbs_chain(phi, QUAD, vol, None, 3, mc, [substream(5, 0), substream(5, 1)])
    ref = [_reference_chains(phi, QUAD, vol, [None], 3, mc, substream(5, c)) for c in (0, 1)]
    assert np.array_equal(got, np.concatenate(ref))
    inner = Volume.box((1,), (1,))
    # one value held for both chains is the same as a (chains,) array of it
    held = Configuration({(0,): 0.1, (2,): 0.2})
    one = gibbs_chain(phi, QUAD, inner, held, 3, mc, [substream(5, 0), substream(5, 1)])
    both = gibbs_chain(
        phi, QUAD, inner, {(0,): np.full(2, 0.1), (2,): np.array([0.2, 0.2])}, 3, mc,
        [substream(5, 0), substream(5, 1)],
    )
    assert np.array_equal(one, both)
    # a boundary array that is not one value per chain exits 2 before any
    # move, never as a numpy broadcast error
    for bad in (np.zeros(3), np.zeros(1), np.zeros((2, 1)), np.zeros(0)):
        with pytest.raises(ValidationError, match=r"boundary value at \(0,\)") as err:
            gibbs_chain(
                phi, QUAD, inner, {(0,): bad, (2,): 0.2}, 3, mc,
                [substream(5, 0), substream(5, 1)],
            )
        assert err.type is ValidationError and err.value.exit_code == 2
    with pytest.raises(CoverageError, match=r"reaches \(2,\)"):
        gibbs_chain(
            phi, QUAD, inner, {(0,): np.array([0.1, 0.3])}, 3, mc,
            [substream(5, 0), substream(5, 1)],
        )


def test_colour_classes_split_the_sites_no_term_reads_twice():
    line = Volume.box((0,), (5,))
    sites = line.sorted_sites()
    pairs = nearest_neighbor_terms(line, 0.8)
    alternate = [[(0,), (2,), (4,)], [(1,), (3,), (5,)]]
    assert gibbs._colour_classes(pairs, sites) == alternate
    # one-site terms add no constraint
    fields = site_field_terms(line, 0.6)
    assert gibbs._colour_classes(pairs + fields, sites) == alternate
    assert gibbs._colour_classes(fields, sites) == [sites]
    # a three-site term puts its three sites in three classes
    triple = _triple_term((0,), (1,), (2,))
    assert gibbs._colour_classes([triple], [(0,), (1,), (2,)]) == [[(0,)], [(1,)], [(2,)]]
    # with site 2 held, the triple term ties 0 and 1 only, and the pair
    # (1, 2) ties nothing
    held_pair = pair_term((1,), (2,), lambda a, b: a * b, 1.0)
    assert gibbs._colour_classes([held_pair], [(0,), (1,)]) == [[(0,), (1,)]]
    assert gibbs._colour_classes([triple, held_pair], [(0,), (1,)]) == [[(0,)], [(1,)]]


@pytest.mark.parametrize("space", ["line", "circle"])
def test_one_group_call_equals_the_per_term_value_calls(space):
    # the kernel scores the terms that share one fn in one call on stacked
    # rows of their site values: bit for bit the per-term values, for the
    # templates and for the beta0-scaled ones of a modified interaction
    pot = QUAD if space == "line" else circle_free_potential()
    vol = Volume.box((0,), (5,))
    phi = _line_phi(vol) if space == "line" else _circle_phi(vol)
    bsi = BiSpaceInteraction(phi, ZeroDynamicInteraction(), pot, t=0.7)
    modified = gibbs._modified_interaction(bsi, Volume.box((2,), (2,)), {})
    rng = np.random.default_rng(5)
    # (chains,) values as at a class move, (sweeps, chains) as in a table
    for shape in [(7,), (4, 7)]:
        values = {
            s: _sample_reference_rng(pot, math.prod(shape), rng).reshape(shape)
            for s in vol.sorted_sites()
        }
        for interaction in (phi, modified):
            groups = {}
            for t in interaction.terms:
                groups.setdefault(t.fn, []).append(t)
            assert [len(g) for g in groups.values()] == [5, 6]  # pairs, then fields
            for fn, terms in groups.items():
                rows = [
                    np.stack([values[t.sites[b]] for t in terms], axis=-2)
                    for b in range(len(terms[0].sites))
                ]
                assert np.array_equal(
                    fn(*rows), np.stack([t.value(values) for t in terms], axis=-2)
                )


def test_a_call_over_two_generator_groups_equals_one_call_per_group():
    # chains that share one generator object draw together, wherever they
    # stand in the list, and exactly as a call over that group alone
    vol = Volume.box((1,), (2,))
    phi = _line_phi(Volume.box((0,), (3,)))
    mc = MCParams(n_samples=2, burn_in=3, thin=2)
    held = np.random.default_rng(2).uniform(-1.5, 1.5, size=(2, 5))
    a, b = substream(9, "a"), substream(9, "b")
    got = gibbs_chain(phi, QUAD, vol, {(0,): held[0], (3,): held[1]}, 3, mc, [a, b, a, a, b])
    for name, cols in (("a", [0, 2, 3]), ("b", [1, 4])):
        alone = gibbs_chain(
            phi, QUAD, vol, {(0,): held[0, cols], (3,): held[1, cols]}, 3, mc,
            [substream(9, name)] * len(cols),
        )
        assert np.array_equal(got[cols], alone)


def test_terms_that_share_a_variadic_fn_are_grouped_by_size():
    # one fn of any number of sites serves a pair, a three-site term and a
    # one-site term; each size is its own group, bit for bit the reference
    def fn(*v):
        return 0.4 * np.tanh(sum(v))

    vol = Volume.box((0,), (3,))
    terms = [
        InteractionTerm(((0,), (1,)), fn, 0.4), InteractionTerm(((1,), (2,), (3,)), fn, 0.4),
        InteractionTerm(((2,),), fn, 0.4), InteractionTerm(((2,), (3,)), fn, 0.4),
    ]
    phi = Interaction(tuple(terms), beta0=0.8)
    mc = MCParams(n_samples=2, burn_in=4, thin=2)
    got = gibbs_chain(phi, QUAD, vol, None, 3, mc, [substream(8, "v")] * 3)
    ref = _reference_chains(phi, QUAD, vol, [None] * 3, 3, mc, substream(8, "v"))
    assert np.array_equal(got, ref)


def test_gibbs_chain_needs_a_chain_and_keeps_an_empty_volume():
    phi = _line_phi(Volume.box((0,), (2,)))
    mc = MCParams(n_samples=2, burn_in=2, thin=1)
    # no generator used to end in a raw ZeroDivisionError
    with pytest.raises(ValidationError, match="one chain per generator") as err:
        gibbs_chain(phi, QUAD, Volume.box((0,), (2,)), None, 3, mc, [])
    assert err.type is ValidationError and err.value.exit_code == 2
    empty = gibbs_chain(phi, QUAD, Volume(frozenset()), None, 3, mc, [substream(1, c) for c in (0, 1)])
    assert empty.shape == (2, 3, 0)


def test_chromatic_chains_sample_the_exact_three_site_law():
    # [DERIVED] box 0..2 with tanh pairs and bounded site fields moves in the
    # classes {0, 2} and {1}; 4000 independent one-sample chains against the
    # three-site Gibbs law, summed by quadrature on the product grid of the
    # reference_quadrature nodes (the end sites summed out through the pair
    # factor matrix A).  The 4 sigma bound was fixed before the first run
    vol = Volume.box((0,), (2,))
    phi = _line_phi(vol)
    assert gibbs._colour_classes(phi.terms, vol.sorted_sites()) == [[(0,), (2,)], [(1,)]]
    n = 4000
    x = gibbs_chain(
        phi, QUAD, vol, None, 1, MCParams(burn_in=30, thin=1), [substream(12, "law")] * n
    )[:, 0]
    xs, w = reference_quadrature(QUAD, 801)
    t = np.tanh(xs)
    v = w * np.exp(-0.9 * 0.6 * xs * xs / (1.0 + xs * xs))
    A = np.exp(-0.9 * 0.8 * np.outer(t, t))
    side = A @ v  # an end site summed out, given the middle one
    z = np.sum(v * side * side)
    end = (v * t) @ A @ (v * side) / z
    exact = {
        "tanh x0": end, "tanh x1": np.sum(v * t * side * side) / z, "tanh x2": end,
        "tanh x0 tanh x1": (v * t) @ A @ (v * t * side) / z,
    }
    samples = {
        "tanh x0": np.tanh(x[:, 0]), "tanh x1": np.tanh(x[:, 1]), "tanh x2": np.tanh(x[:, 2]),
        "tanh x0 tanh x1": np.tanh(x[:, 0]) * np.tanh(x[:, 1]),
    }
    for name, f in samples.items():
        se = f.std(ddof=1) / math.sqrt(n)
        assert abs(f.mean() - exact[name]) < 4 * se, name


@pytest.mark.parametrize(
    "boundary",
    [None, Configuration({(5,): 0.3}), {(5,): np.array([0.3, 0.1])}],
    ids=["free", "elsewhere", "elsewhere-arrays"],
)
def test_gibbs_chain_rejects_a_term_reaching_an_unheld_site(boundary):
    # the pair term (1, 2) reads site 2, which neither the volume nor the
    # boundary holds; this used to end in a raw KeyError
    phi = Interaction(tuple(nearest_neighbor_terms(Volume.box((0,), (2,)), 0.8)), beta0=0.5)
    mc = MCParams(n_samples=2, burn_in=1, thin=1)
    with pytest.raises(CoverageError, match=r"reaches \(2,\)"):
        gibbs_chain(
            phi, QUAD, Volume.box((0,), (1,)), boundary, 2, mc,
            [substream(2, 0), substream(2, 1)],
        )


def test_lockstep_chains_reject_a_non_finite_energy_in_one_chain():
    vol = Volume.box((1,), (1,))
    # not finite only in the chain whose boundary exceeds 5
    blowup = pair_term((0,), (1,), lambda a, b: np.where(a > 5.0, np.nan, 0.0) + 0.0 * b, 1.0)
    phi = Interaction((blowup,), beta0=0.5)
    mc = MCParams(n_samples=2, burn_in=1, thin=1)
    values = np.array((0.0, 0.3, 9.0, -0.2, 0.7))
    rngs = [substream(1, c) for c in range(len(values))]
    with pytest.raises(SetupError):
        gibbs_chain(phi, QUAD, vol, {(0,): values}, 2, mc, rngs)
    keep = [c for c, v in enumerate(values) if v < 5.0]
    got = gibbs_chain(
        phi, QUAD, vol, {(0,): values[keep]}, 2, mc, [substream(1, c) for c in keep]
    )
    assert np.isfinite(got).all()


@pytest.mark.parametrize("where", ["initial", "proposal"])
def test_a_one_site_term_non_finite_at_one_candidate_raises(where, monkeypatch):
    # a term with one chain site is scored at the initial values, then over
    # its pre-drawn proposals a block of sweeps at a time; a non-finite value
    # at one chain's initial value, or at one proposal in a later block,
    # still raises at its move
    vol = Volume.box((0,), (0,))
    mc = MCParams(n_samples=2, burn_in=3, thin=2)

    def rngs():
        return [substream(4, c) for c in range(3)]

    moves, _ = gibbs._draw_chains(QUAD, [0], mc, 2, rngs())
    # row 0 holds the initial values, row 1 + k the proposals of sweep k
    bad = moves[0, 0, 1] if where == "initial" else moves[1 + 5, 0, 1]
    monkeypatch.setattr(girsanov, "BLOCK_ELEMENTS", 3 * 2)  # blocks of 2 sweeps
    fine = Interaction((site_term((0,), lambda a: 0.3 * a, 1.0),), beta0=0.5)
    assert np.isfinite(gibbs_chain(fine, QUAD, vol, None, 2, mc, rngs())).all()
    blowup = site_term((0,), lambda a: np.where(a == bad, np.nan, 0.3 * a), 1.0)
    with pytest.raises(SetupError, match="non-finite local energy"):
        gibbs_chain(Interaction((blowup,), beta0=0.5), QUAD, vol, None, 2, mc, rngs())


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


def _dlr_rows(direct, inner):
    """The dlr_test rows of direct draws (n_outer, |sub|) and inner chains
    (n_outer, n_inner, |sub|), each observable a numpy function of the
    sub-volume values."""
    fs = {
        "tanh_first": lambda c: np.tanh(c[..., 0]),
        "cos_first": lambda c: np.cos(c[..., 0]),
        "mean_tanh": lambda c: np.tanh(c).mean(axis=-1),
        "pair_tanh": lambda c: np.tanh(c[..., 0]) * np.tanh(c[..., 1]),
    }
    rows = []
    for name, f in fs.items():
        d, a = f(direct), f(inner).mean(axis=1)
        m1, s1 = d.mean(), d.std(ddof=1) / math.sqrt(d.size)
        m2, s2 = a.mean(), a.std(ddof=1) / math.sqrt(a.size)
        rows.append({
            "f": name, "direct": m1, "directStderr": s1, "twoStage": m2,
            "twoStageStderr": s2, "z": (m1 - m2) / (math.hypot(s1, s2) or 1.0),
        })
    return rows


@pytest.mark.parametrize("space", ["line", "circle"])
def test_dlr_draws_each_direct_and_outer_sample_from_its_own_chain(space):
    pot = QUAD if space == "line" else circle_free_potential()
    kind = "tanh" if space == "line" else "cos_diff"
    big, sub = Volume.box((0,), (4,)), Volume.box((1,), (2,))
    phi = Interaction(tuple(nearest_neighbor_terms(big, 0.8, kind)), beta0=0.5)
    mc = MCParams(n_samples=2, burn_in=5, thin=3)
    n_outer, n_inner, seed = 6, 3, 11
    rep = dlr_test(phi, pot, big, sub, n_outer, n_inner, seed, mc)

    # one call over 2 n_outer one-sample chains of burn_in + thin sweeps in
    # two generator groups: the direct chains draw together on their stream,
    # the outer chains on theirs, exactly as one call per group would
    draws = gibbs_chain(
        phi, pot, big, None, 1, mc,
        [substream(seed, "dlr", "direct")] * n_outer + [substream(seed, "dlr", "outer")] * n_outer,
    )
    assert draws.shape == (2 * n_outer, 1, len(big))
    for name, rows in (("direct", draws[:n_outer]), ("outer", draws[n_outer:])):
        group = gibbs_chain(phi, pot, big, None, 1, mc, [substream(seed, "dlr", name)] * n_outer)
        assert np.array_equal(rows, group)
        ref = _reference_chains(phi, pot, big, [None] * n_outer, 1, mc, substream(seed, "dlr", name))
        assert np.array_equal(rows, ref)
    direct, outer = draws[:n_outer, 0], draws[n_outer:, 0]
    if space == "circle":
        assert ((draws >= 0.0) & (draws < TWO_PI)).all()

    # inner chain c is held at outer draw c outside sub, and all of them
    # draw together on one inner stream
    inner = _reference_chains(
        phi, pot, sub,
        [Configuration(dict(zip(big.sorted_sites(), row)), pot.state_space) for row in outer],
        n_inner, mc, substream(seed, "dlr", "inner"),
    )
    assert rep["rows"] == _dlr_rows(direct[:, [1, 2]], inner)
    assert rep["maxAbsZ"] == max(abs(r["z"]) for r in rep["rows"])


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
        dlr_test(
            phi, QUAD, vol, Volume.box((2,), (3,)), 10, 2, seed=1,
            mc=MCParams(n_samples=2, burn_in=100, thin=2),
        )


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
    B = 3
    # one boundary per chain, held as (B,) arrays
    ys = [dict(zip([(0,), (2,)], _sample_reference_rng(bsi.pot, 2, rng))) for _ in range(B)]
    modified = gibbs._modified_interaction(
        bsi, lam, {s: np.array([y[s] for y in ys]) for s in [(0,), (2,)]}
    )
    assert modified.beta0 == 1.0
    for _ in range(3):
        point = dict(zip(sites, _sample_reference_rng(bsi.pot, 3, rng)))
        proposals = _sample_reference_rng(bsi.pot, 3, rng)
        for s, prop in zip(sites, proposals):
            old = [_old_point_energy(bsi, lam, y, point, s) for y in ys]
            got = sum(t.value(point) for t in modified.terms_at(s))
            assert np.allclose(got, old, rtol=0, atol=1e-12)
            # the B chains' local energies at s, at the old and at the
            # proposed point of a Metropolis move, each a (B,) array
            for at in (point, {**point, s: prop}):
                want = [_old_point_energy(bsi, lam, y, at, s) for y in ys]
                got = sum(t.value({r: np.full(B, v) for r, v in at.items()})
                          for t in modified.terms_at(s))
                assert np.shape(got) == (B,)
                assert np.allclose(got, want, rtol=0, atol=1e-12)


def _triple_term(a, b, c):
    """A three-site term that reads the values of a, b and c."""
    return InteractionTerm(
        (a, b, c), lambda va, vb, vc: 0.7 * np.tanh(va - vb) * np.cos(vc), 0.7, "triple"
    )


@pytest.mark.parametrize("block_sweeps", [None, 3], ids=["one-block", "3-sweep-blocks"])
@pytest.mark.parametrize("held", [False, True], ids=["free", "site-2-held"])
@pytest.mark.parametrize("space", ["line", "circle"])
def test_gibbs_chain_on_a_modified_interaction_matches_the_reference(
    space, held, block_sweeps, monkeypatch
):
    # the modified interaction of an expansion dynamic interaction: the
    # -log p_t and Phi terms off the window and the site fields have one
    # chain site and are tabulated over the pre-drawn proposals; the pair
    # terms and a three-site term are scored move by move.  With site 2
    # held, the three-site term has two chain sites and one held site, and
    # the pair (1, 2) one chain site
    bsi = _two_layer(space, "expansion")
    lam = Volume.box((1,), (1,))
    rng = np.random.default_rng(14)
    B = 3
    y = {s: _sample_reference_rng(bsi.pot, B, rng) for s in [(0,), (2,)]}
    triple = _triple_term((0,), (1,), (2,))
    vol = Volume.box((0,), (1,)) if held else Volume.box((0,), (2,))
    x2 = _sample_reference_rng(bsi.pot, B, rng)
    mc = MCParams(n_samples=2, burn_in=5, thin=3)
    refs = []
    for c in range(B):
        phi = gibbs._modified_interaction(bsi, lam, {s: float(v[c]) for s, v in y.items()})
        boundary = Configuration({(2,): x2[c]}, bsi.pot.state_space) if held else None
        phi = Interaction(phi.terms + (triple,), phi.beta0)
        refs.append(_reference_chains(phi, bsi.pot, vol, [boundary], 4, mc, substream(6, c)))
    phi = gibbs._modified_interaction(bsi, lam, y)
    phi = Interaction(phi.terms + (triple,), phi.beta0)
    chain_sites = {(0,), (1,)} if held else {(0,), (1,), (2,)}
    one_site = [t for t in phi.terms if len(t.volume.sites & chain_sites) == 1]
    # free: the three site fields, and -log p_t and Phi at 0 and at 2; with
    # site 2 held: the site fields at 0 and 1, -log p_t and Phi at 0, and the
    # pair (1, 2)
    assert len(one_site) == (5 if held else 7)
    if block_sweeps is not None:
        monkeypatch.setattr(girsanov, "BLOCK_ELEMENTS", B * block_sweeps)
    boundary = {(2,): x2} if held else None
    got = gibbs_chain(phi, bsi.pot, vol, boundary, 4, mc, [substream(6, c) for c in range(B)])
    assert np.array_equal(got, np.concatenate(refs))


def test_tabulated_phi_terms_make_one_weight_call_per_block(monkeypatch):
    # the gibbs benchmark geometry: box 0..4, window 2, kMax 1, nMax 1 and
    # R = 6; every Phi term off the window has one chain site, so its
    # weights are scored once per block of sweeps, however long the chain,
    # and the first block's call also scores the initial values
    box, lam = Volume.box((0,), (4,)), Volume.box((2,), (2,))
    drift = dataclasses.replace(constant_drift(0.7), beta=0.3)
    dyn = ExpansionDynamicInteraction(
        drift, QUAD, ClusterSet.enumerate(box, drift.nbhd, TimeGrid(1.0, 1), 1), n_max=1,
        mc=MCParams(n_samples=6, dt=0.05), seed=4,
    )
    phi = Interaction(tuple(nearest_neighbor_terms(box, 0.8)), beta0=0.4)
    bsi = BiSpaceInteraction(phi, dyn, QUAD, t=1.0)
    B = 3
    rng = np.random.default_rng(2)
    y = {s: _sample_reference_rng(QUAD, B, rng) for s in box.sorted_sites() if s != (2,)}
    modified = gibbs._modified_interaction(bsi, lam, y)
    phi_terms = [dv for dv in dyn.traces() if not dv.sites & lam.sites]
    assert len(phi_terms) == 4 and all(len(dv) == 1 for dv in phi_terms)
    calls = []
    real = gibbs.cluster_weight

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gibbs, "cluster_weight", counting)

    def count(burn_in):
        calls.clear()
        mc = MCParams(n_samples=6, dt=0.05, burn_in=burn_in, thin=2)
        gibbs_chain(modified, QUAD, box, None, 6, mc, [substream(3, c) for c in range(B)])
        return len(calls)

    # 18 + 12 and 36 + 12 sweeps in one block
    assert count(18) == count(36) == len(phi_terms)
    # blocks of 10 sweeps: 3 and 5 blocks
    monkeypatch.setattr(girsanov, "BLOCK_ELEMENTS", B * 10)
    assert count(18) == 3 * len(phi_terms)
    assert count(36) == 5 * len(phi_terms)



def test_a_tabulated_kernel_term_on_a_general_potential_stays_small():
    # the -log p_t term of a general potential, scored over one full block
    # of BLOCK_ELEMENTS // chains sweeps: the eigenfunction kernel (46 modes
    # at t = 1) sums its modes one at a time, so the chain holds a few
    # block-sized arrays, not a (points, modes) array per mode
    pot = custom_potential(lambda x: x * x, lambda x: 2.0 * x)
    bsi = BiSpaceInteraction(Interaction((), 0.0), ZeroDynamicInteraction(), pot, t=1.0)
    B = 24
    y = {(0,): _sample_reference_rng(pot, B, np.random.default_rng(1))}
    modified = gibbs._modified_interaction(bsi, Volume.box((1,), (1,)), y)
    assert len(modified.terms) == 1
    free_kernel(pot, 1.0, 0.0, 0.0)  # the cached eigensystem, outside the trace
    block = girsanov.BLOCK_ELEMENTS // B
    mc = MCParams(burn_in=block - 1, thin=1)
    vol = Volume.box((0,), (0,))
    tracemalloc.start()
    try:
        got = gibbs_chain(modified, pot, vol, None, 1, mc, [substream(2, c) for c in range(B)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.shape == (B, 1, 1) and np.isfinite(got).all()
    block_bytes = block * B * 8
    # about 5.2 blocks: the proposals, the log-uniforms, the table and the
    # kernel's temporaries; one (points, modes) array alone would be 46
    assert peak <= 10 * block_bytes, peak

def test_conditional_density_free_case_is_one():
    # no initial interaction, no dynamic interaction: stationarity makes the
    # window density exactly 1
    vol = Volume.box((1,), (1,))
    bsi = BiSpaceInteraction(Interaction((), 0.0), ZeroDynamicInteraction(), QUAD, t=1.0)
    est = conditional_density(
        bsi, vol, [[0.6]], {(0,): [-0.4]}, MCParams(n_samples=400, dt=0.05, burn_in=40, thin=2),
        seed=19,
    )
    [value], [stderr] = est.value, est.stderr
    assert abs(value - 1.0) < 4 * stderr + 0.01


def test_conditional_density_validation():
    vol = Volume.box((1,), (1,))
    bsi = BiSpaceInteraction(Interaction((), 0.0), ZeroDynamicInteraction(), QUAD, t=1.0)
    mc = MCParams(n_samples=8)
    with pytest.raises(ValidationError, match="must not cover the window"):
        conditional_density(bsi, vol, [[0.0]], {(1,): [0.0]}, mc, seed=1)
    # window values that are not (B, |vol|) and boundary values that are not
    # (B,) raise before any numpy broadcast can
    for z_vol, y in [
        ([0.0], {(0,): [0.0]}),
        ([[0.0, 0.1]], {(0,): [0.0]}),
        (np.empty((0, 1)), {(0,): []}),
        ([[0.0], [0.1]], {(0,): [0.0]}),
        ([[0.0], [0.1]], {(0,): 0.0}),
        ([[0.0]], {(0,): [[0.0]]}),
    ]:
        with pytest.raises(ValidationError, match=r"not \(B, 1\) then \(B,\)"):
            conditional_density(bsi, vol, z_vol, y, mc, seed=1)


def test_quasilocality_probe_pairs_share_one_domain():
    vol = Volume.box((1,), (1,))
    bsi = BiSpaceInteraction(Interaction((), 0.0), ZeroDynamicInteraction(), QUAD, t=1.0)
    mc = MCParams(n_samples=8, burn_in=2, thin=1)
    z3 = Configuration({(0,): 0.5, (1,): 0.2, (2,): -0.3})
    z2 = Configuration({(0,): 0.5, (1,): 0.2})
    off = Configuration({(0,): 0.1})  # misses the window
    # within a pair, across pairs, off the window, and no pair at all
    for pairs in [[(z3, z2)], [(z3, z3), (z2, z2)], [(off, off)], []]:
        with pytest.raises(CoverageError, match="each probe pair must cover the window"):
            quasilocality_probe(bsi, vol, [vol], pairs, mc, seed=1)


def test_conditional_density_against_quadrature_oracle(monkeypatch):
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
        drift, pot, ClusterSet.enumerate(W, drift.nbhd, TimeGrid(t, 1), 2), n_max=3,
        mc=MCParams(n_samples=800, dt=0.05), seed=5,
    )
    bsi = BiSpaceInteraction(phi, dyn, pot, t)
    y0, z1 = -0.4, 0.6
    monkeypatch.setattr(gibbs, "N_INNER", 24)
    est = conditional_density(
        bsi, lam, [[z1]], {(0,): [y0]}, MCParams(n_samples=400, dt=0.05, burn_in=50, thin=3),
        seed=31,
    )
    [value], [stderr] = est.value, est.stderr

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
    assert abs(value - oracle) < 4 * stderr + 0.01


class _NanDynamic:
    """A dynamic interaction whose one term at site 0 is not finite."""

    def traces(self):
        return [Volume.box((0,), (0,))]

    def value(self, delta, x, y):
        return float("nan")


def test_modified_sampler_rejects_non_finite_energy():
    vol = Volume.box((1,), (1,))
    bsi = BiSpaceInteraction(Interaction((), 0.0), _NanDynamic(), QUAD, t=1.0)
    with pytest.raises(SetupError):
        conditional_density(
            bsi, vol, [[0.2]], {(0,): [0.1]},
            MCParams(n_samples=4, dt=0.05, burn_in=2, thin=1), seed=3,
        )


def test_expansion_dynamic_interaction_trace_measurability():
    pot = QUAD
    W = Volume.box((0,), (1,))
    drift = dataclasses.replace(constant_drift(0.7), beta=0.3)
    dyn = ExpansionDynamicInteraction(
        drift, pot, ClusterSet.enumerate(W, drift.nbhd, TimeGrid(1.0, 1), 1), n_max=1,
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
    clusters = ClusterSet.enumerate(Volume.box((0,), (2,)), nb, TimeGrid(0.5, 2), 2)
    return ExpansionDynamicInteraction(
        drift, pot, clusters, n_max=2, mc=MCParams(n_samples=16, dt=0.1), seed=seed,
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


def test_conditional_density_passes_wrapped_circle_values(monkeypatch):
    pot = circle_free_potential()
    rec = _RecordingDynamic()
    bsi = BiSpaceInteraction(Interaction((), 0.0), rec, pot, t=1.0)
    # angles off [0, 2 pi) in both the window and the boundary values
    monkeypatch.setattr(gibbs, "N_INNER", 3)
    conditional_density(
        bsi, Volume.box((1,), (1,)), [[6.0 - TWO_PI], [6.0]], {(0,): [0.4 + TWO_PI, 0.4]},
        MCParams(n_samples=4, dt=0.05, burn_in=2, thin=1), seed=3,
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
        drift, pot, ClusterSet.enumerate(Volume.box((0,), (2,)), drift.nbhd, TimeGrid(0.5, 1), 1),
        1, mc, seed,
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
                cluster_sampler(dyn._clusters[i], drift, pot, mc, weight_stream(seed, dyn._clusters[i])),
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
    bsi = BiSpaceInteraction(Interaction((), 0.0), ZeroDynamicInteraction(), QUAD, t=1.0)
    big = Volume.box((0,), (2,))
    z_a = Configuration({(0,): 0.5, (1,): 0.2, (2,): -0.3})
    z_b = Configuration({(0,): -0.8, (1,): 0.2, (2,): 0.9})
    mc = MCParams(n_samples=120, dt=0.05, burn_in=20, thin=2)
    rows = quasilocality_probe(bsi, vol, [Volume.box((1,), (1,)), big], [(z_a, z_b)], mc, seed=7)
    # full boundary agreement uses common random numbers: exact zero
    assert rows[-1]["supDiff"] == 0.0
    with pytest.raises(ValidationError):
        quasilocality_probe(bsi, vol, [big, Volume.box((1,), (1,))], [(z_a, z_b)], mc, seed=7)


def _one_case(bsi, vol, z, y, mc, seed):
    """Value and stderr of a one-case conditional density at z's window
    values given the boundary y, a site -> value mapping."""
    est = conditional_density(
        bsi, vol, [z.array_for(vol.sorted_sites())], {s: [v] for s, v in y.items()}, mc, seed
    )
    return est.value[0], est.stderr[0]


def _reference_probe(bsi, vol, deltas, probe_pairs, mc, seed):
    """quasilocality_probe with two one-case conditional densities per
    (delta, pair)."""
    rows = []
    for delta in deltas:
        sup_diff = 0.0
        noise = 0.0
        for z_a, z_b in probe_pairs:
            boundary_sites = z_a.domain.sites - vol.sites
            y1 = {s: z_a[s] for s in boundary_sites}
            y2 = {s: (z_a[s] if s in delta.sites else z_b[s]) for s in boundary_sites}
            (v1, s1), (v2, s2) = (_one_case(bsi, vol, z_a, y, mc, seed) for y in (y1, y2))
            sup_diff = max(sup_diff, abs(v1 - v2))
            noise = max(noise, math.hypot(s1, s2))
        rows.append(
            {"delta": [list(s) for s in delta.sorted_sites()], "supDiff": sup_diff, "noise": noise}
        )
    return rows


def test_quasilocality_estimates_every_distinct_boundary_in_one_call(monkeypatch):
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

    def recording(bsi_, vol_, z_vol, y_boundary, mc_, seed_):
        sites = sorted(y_boundary)
        calls.append(np.column_stack([z_vol] + [y_boundary[s] for s in sites]))
        return real(bsi_, vol_, z_vol, y_boundary, mc_, seed_)

    monkeypatch.setattr(gibbs, "conditional_density", recording)
    rows = quasilocality_probe(bsi, vol, deltas, pairs, mc, seed=11)
    assert rows == ref
    assert ref[0]["supDiff"] > 0.0 and ref[-1]["supDiff"] == 0.0
    # the first two pairs share z_a, so y1 once; (z_a, z_b) adds the mixed
    # boundaries of the two smaller deltas and (z_a, z_c) that of the
    # smallest; (z_d, z_b) repeats the boundaries of (z_a, z_b) at another
    # window value, so all three are cases again: 7 cases, one call
    [table] = calls
    assert table.shape == (7, 5)
    assert len({tuple(row) for row in table}) == 7


@pytest.mark.parametrize("space", ["line", "circle"])
def test_a_batch_of_cases_equals_one_case_calls(space, monkeypatch):
    # every case runs its own chain on a fresh substream: bit for bit the
    # estimate of a call with that case alone
    bsi = _two_layer(space, "expansion")
    lam = Volume.box((1,), (1,))
    rng = np.random.default_rng(21)
    B = 4
    z_vol = _sample_reference_rng(bsi.pot, B, rng).reshape(B, 1)
    y = {s: _sample_reference_rng(bsi.pot, B, rng) for s in [(0,), (2,)]}
    y[(2,)][1] = y[(2,)][0]  # two cases that differ only in the window value
    mc = MCParams(n_samples=6, dt=0.05, burn_in=4, thin=1)
    monkeypatch.setattr(gibbs, "N_INNER", 3)
    batch = conditional_density(bsi, lam, z_vol, y, mc, seed=8)
    assert np.shape(batch.value) == np.shape(batch.stderr) == (B,)
    ones = [
        conditional_density(bsi, lam, z_vol[k:k + 1], {s: v[k:k + 1] for s, v in y.items()},
                            mc, seed=8)
        for k in range(B)
    ]
    assert np.array_equal(batch.value, np.concatenate([e.value for e in ones]))
    assert np.array_equal(batch.stderr, np.concatenate([e.stderr for e in ones]))


def test_a_batch_of_cases_holds_one_case_window_grid_after_the_chain(monkeypatch):
    # the window factors of each case are built in turn, so after the chain
    # a 16-case call holds a few (n, 1 + N_INNER) grids, not 16 of them
    n, n_inner, B = 2000, 16, 16
    monkeypatch.setattr(gibbs, "N_INNER", n_inner)
    bsi = BiSpaceInteraction(_line_phi(Volume.box((0,), (2,))), ZeroDynamicInteraction(), QUAD, t=0.7)
    rng = np.random.default_rng(3)
    z_vol = _sample_reference_rng(QUAD, B, rng).reshape(B, 1)
    y = {s: _sample_reference_rng(QUAD, B, rng) for s in [(0,), (2,)]}
    mc = MCParams(n_samples=n, dt=0.05, burn_in=2, thin=1)
    held = []
    real = gibbs.gibbs_chain

    def chain(*args):
        out = real(*args)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(gibbs, "gibbs_chain", chain)
    tracemalloc.start()
    try:
        est = conditional_density(bsi, Volume.box((1,), (1,)), z_vol, y, mc, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shape(est.value) == (B,)
    grid_bytes = n * (1 + n_inner) * 8
    # a one-case call peaks at about 5.2 grids past the chain; 16 cases'
    # grids and their kernel temporaries at once would take over 60
    assert peak - held[0] <= 8 * grid_bytes
