import math

import numpy as np
import pytest
from scipy import stats

from gibbslab import dynamics
from gibbslab.dynamics import (
    DriftSpec,
    _evaluation_windows,
    _sample_reference_rng,
    constant_drift,
    custom_potential,
    circle_free_potential,
    delayed_feedback_drift,
    free_kernel,
    kernel_sup_distance,
    markov_local_drift,
    memory_integral_drift,
    quadratic_potential,
    reference_quadrature,
    simulate,
    ultracontractivity_report,
)
from gibbslab.errors import (
    BoundViolationError,
    CoverageError,
    NumericalError,
    SetupError,
    ValidationError,
)
from gibbslab.lattice import TWO_PI, Configuration, Neighborhood, Volume
from gibbslab.rng import substream

QUAD = quadratic_potential()
CIRC = circle_free_potential()


def test_quadratic_kernel_closed_form_point():
    # [DERIVED] independent evaluation of the Gaussian transition density of
    # dx = dB - x dt relative to m = N(0, 1/2):
    # p_t(x,y) = N(y; x e^{-t}, (1-e^{-2t})/2) / N(y; 0, 1/2)
    x, y, t = 0.3, -0.7, 0.8
    rho = math.exp(-t)
    v = (1.0 - rho * rho) / 2.0
    num = math.exp(-((y - rho * x) ** 2) / (2 * v)) / math.sqrt(2 * math.pi * v)
    den = math.exp(-(y**2)) / math.sqrt(math.pi)
    assert free_kernel(QUAD, t, x, y) == pytest.approx(num / den, rel=1e-12)


def test_kernel_normalizes_against_reference():
    xs, w = reference_quadrature(QUAD, 2001)
    for x0 in (-1.0, 0.0, 1.5):
        mass = float(np.sum(free_kernel(QUAD, 0.7, x0, xs) * w))
        assert mass == pytest.approx(1.0, abs=1e-6)
    xs, w = reference_quadrature(CIRC, 1024)
    mass = float(np.sum(free_kernel(CIRC, 0.3, 1.0, xs) * w))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_circle_kernel_regimes_agree():
    # Fourier series (used for t >= 0.5) and wrapped Gaussian must match
    # where both converge well
    d = np.linspace(0.0, TWO_PI, 17)
    a = _circle_both(0.5, d)
    assert np.max(np.abs(a[0] - a[1])) < 1e-10


def _circle_both(t, d):
    from gibbslab.dynamics import _circle_heat_kernel

    fourier = np.ones_like(d)
    for k in range(1, 60):
        fourier = fourier + 2.0 * np.exp(-k * k * t / 2.0) * np.cos(k * d)
    wrapped = np.zeros_like(d)
    for nw in range(-12, 13):
        wrapped += np.exp(-((d + TWO_PI * nw) ** 2) / (2.0 * t))
    wrapped *= math.sqrt(TWO_PI / t)
    got = _circle_heat_kernel(t, d)
    assert np.max(np.abs(got - fourier)) < 1e-9
    return fourier, wrapped


def test_general_potential_kernel_matches_closed_form():
    # eigendecomposition route on U = x^2 vs the closed form
    gen = custom_potential(lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x))
    xs = np.linspace(-1.0, 1.0, 7)
    exact = free_kernel(QUAD, 1.0, xs[:, None], xs[None, :])
    approx = free_kernel(gen, 1.0, xs[:, None], xs[None, :])
    assert np.max(np.abs(approx / exact - 1.0)) < 5e-3


def test_general_circle_kernel_interpolates_across_the_seam():
    # U = 0 on the circle through the eigendecomposition route vs the heat
    # kernel's Fourier series; the 400-point grid ends at 2*pi - h, so the
    # points past it must interpolate towards the value at 0, not hold the
    # last grid value (which gave 3.2087 instead of 3.2396 at 2*pi - 1e-4)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    gen = custom_potential(zero, zero, state_space="circle")
    h = TWO_PI / 400
    xs = np.concatenate([TWO_PI - h * np.array([0.9, 0.5, 1e-3]), [1.0, 3.0]])
    t, y = 0.5, 0.3
    exact = 1.0 + sum(
        2.0 * math.exp(-k * k * t / 2.0) * np.cos(k * (y - xs)) for k in range(1, 60)
    )
    approx = free_kernel(gen, t, xs, y)
    assert np.max(np.abs(approx - exact)) < 1e-3


def test_general_kernel_cache_follows_the_potential():
    # potentials built and dropped in turn may reuse the ids of their
    # callables; each must still get its own eigensystem.  U = a x^2 is an
    # OU process of rate a, whose kernel relative to m is a Mehler kernel.
    # a = 2 only takes part in the build-and-drop sequence: exp(-U)
    # underflows on its grid, so its kernel must raise rather than be read
    # from an earlier potential's eigensystem.
    t, x, y = 0.5, 0.3, 0.3
    got = {}
    for a in (1.0, 0.5, 2.0, 0.3):
        pot = custom_potential(
            lambda z: a * np.asarray(z) ** 2, lambda z: 2.0 * a * np.asarray(z)
        )
        if a == 2.0:
            with pytest.raises(NumericalError):
                free_kernel(pot, t, x, y)
        else:
            got[a] = float(free_kernel(pot, t, x, y))
        del pot
    for a in (1.0, 0.5, 0.3):
        rho = math.exp(-a * t)
        d = 1.0 - rho * rho
        mehler = math.exp(a * (2 * rho * x * y - rho * rho * (x * x + y * y)) / d) / math.sqrt(d)
        assert got[a] == pytest.approx(mehler, rel=1e-2)


def test_general_circle_generator_has_the_exact_cyclic_spectrum():
    # with U = 0 the discretized circle generator is (S + S^T - 2I) / (2h^2),
    # S the cyclic shift, with eigenvalues (cos(2 pi k / n) - 1) / h^2; the
    # wrap-around conductance between the last grid point and 0 is part of it
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    gen = custom_potential(zero, zero, state_space="circle")
    _, _, lam, _ = gen._eigensystem
    n = lam.size
    h = TWO_PI / n
    exact = np.sort((np.cos(TWO_PI * np.arange(n) / n) - 1.0) / h**2)[::-1]
    assert np.max(np.abs(lam - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_general_kernel_rejects_a_decoupled_grid():
    # U = 2 x^2 on [-16, 16]: exp(-U) ~ 1e-223 at the edges, so the edge
    # conductances underflow to 0 and the grid chain falls apart; the kernel
    # used to return 2.186 where the Mehler kernel gives 1.185
    pot = custom_potential(lambda z: 2.0 * np.asarray(z) ** 2, lambda z: 4.0 * np.asarray(z))
    with pytest.raises(NumericalError, match="decouples"):
        free_kernel(pot, 0.5, 0.3, 0.3)


def test_general_kernel_rejects_points_off_its_grid():
    # np.interp would clamp the eigenfunctions to their edge values
    pot = custom_potential(lambda z: np.asarray(z) ** 2, lambda z: 2.0 * np.asarray(z))
    L = pot.halfwidth
    assert np.isfinite(free_kernel(pot, 1.0, np.array([-L, 0.0, L]), 0.0)).all()
    with pytest.raises(CoverageError):
        free_kernel(pot, 1.0, L + 0.5, 0.0)
    with pytest.raises(CoverageError):
        free_kernel(pot, 1.0, 0.0, np.array([0.1, -L - 1.0]))


def test_custom_potential_rejects_growth():
    with pytest.raises(SetupError):
        custom_potential(lambda x: -np.asarray(x), lambda x: -np.ones_like(np.asarray(x)))


def test_kernel_sup_distance_decays():
    d = [kernel_sup_distance(QUAD, T) for T in (1.0, 2.0, 3.0)]
    assert d[0] > d[1] > d[2] > 0


def test_sample_reference_quadratic_distribution():
    draws = _sample_reference_rng(QUAD, 20_000, substream(7, "reference"))
    # m = N(0, 1/2)
    p = stats.kstest(draws, "norm", args=(0.0, math.sqrt(0.5))).pvalue
    assert p > 0.01


def test_sample_reference_circle_uniform():
    draws = _sample_reference_rng(CIRC, 20_000, substream(7, "reference"))
    p = stats.kstest(draws / TWO_PI, "uniform").pvalue
    assert p > 0.01


def test_ultracontractivity_report_quadratic():
    rep = ultracontractivity_report(QUAD)
    assert rep["ultracontractive"] is True
    assert rep["warnings"] == []


def test_drift_bound_enforced():
    bad = DriftSpec(
        beta=1.0,
        nbhd=Neighborhood.range1d(0),
        memory=0.1,
        bound=0.5,
        evaluator=lambda site, t, wt, wv: np.ones(wv.shape[:2]),
        label="too_big",
    )
    vol = Volume.box((0,), (0,))
    x0 = Configuration.constant(vol, 0.0)
    with pytest.raises(BoundViolationError):
        simulate(bad, QUAD, vol, x0, t=0.1, dt=0.05, rng=substream(1, "simulate"))


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_simulate_raises_on_a_nan_drift_mid_path(pot):
    # the bound check skips NaN, and simulate checks only the last path row:
    # a NaN drift at one replica and one step halfway must still reach it
    def ev(site, t, wt, wv):
        b = np.zeros(wv.shape[:2])
        b[2, np.isclose(t, 0.25)] = np.nan
        return b

    nan_once = DriftSpec(
        beta=1.0, nbhd=Neighborhood.range1d(0), memory=0.05, bound=1.0, evaluator=ev, label="nan_once",
    )
    vol = Volume.box((0,), (1,))
    x0 = Configuration.constant(vol, 0.3, pot.state_space)
    with pytest.raises(NumericalError):
        simulate(nan_once, pot, vol, x0, t=0.5, dt=0.05, rng=substream(1, "simulate"), n_replicas=4)


def test_simulate_validates_inputs():
    vol = Volume.box((0,), (2,))
    x0 = Configuration.constant(Volume.box((0,), (1,)), 0.0)
    d = constant_drift(0.5)
    with pytest.raises(CoverageError):
        simulate(d, QUAD, vol, x0, t=0.1, dt=0.05, rng=substream(1, "simulate"))
    x0 = Configuration.constant(vol, 0.0)
    with pytest.raises(ValidationError):
        simulate(d, QUAD, vol, x0, t=0.1, dt=0.2, rng=substream(1, "simulate"))  # dt > memory
    with pytest.raises(ValidationError):
        simulate(d, QUAD, vol, x0, t=0.13, dt=0.05, rng=substream(1, "simulate"))  # t not multiple


def test_simulate_free_ou_moments():
    # beta = 0: every site is an independent OU path from x0 = 1
    vol = Volume.box((0,), (0,))
    x0 = Configuration.constant(vol, 1.0)
    free = DriftSpec(
        beta=0.0,
        nbhd=Neighborhood.range1d(0),
        memory=0.1,
        bound=0.0,
        evaluator=lambda site, t, wt, wv: np.zeros(wv.shape[:2]),
        label="free",
    )
    path = simulate(free, QUAD, vol, x0, t=1.0, dt=0.005, rng=substream(11, "simulate"), n_replicas=4000)
    xt = path.values[:, 0, -1]
    mu, v = math.exp(-1.0), (1.0 - math.exp(-2.0)) / 2.0
    assert np.mean(xt) == pytest.approx(mu, abs=4 * math.sqrt(v / 4000) + 0.01)
    assert np.var(xt) == pytest.approx(v, rel=0.08)


def test_dbar_reconstructs_gaussian_increments():
    # compensated increments are the raw noise plus the interacting drift;
    # with beta = 0 they are exactly N(0, dt) and independent
    vol = Volume.box((0,), (1,))
    x0 = Configuration.constant(vol, 0.0)
    d = constant_drift(0.7)
    zero = DriftSpec(
        beta=0.0, nbhd=d.nbhd, memory=d.memory, bound=0.0,
        evaluator=d.evaluator, label="off",
    )
    path = simulate(zero, QUAD, vol, x0, t=0.5, dt=0.01, rng=substream(3, "simulate"), n_replicas=50)
    incr = np.concatenate([path.increments(i, 0, 50).reshape(-1) for i in range(2)])
    incr /= math.sqrt(0.01)
    assert stats.kstest(incr, "norm").pvalue > 0.01


def test_increments_read_u_prime_at_the_wrapped_state():
    # circle paths are stored as a lift; U' is read at the wrapped angle, so
    # lifts past 2 pi give the same increments as the canonical angles
    pot = custom_potential(np.cos, lambda x: -np.sin(x), state_space="circle")
    vol = Volume.box((0,), (0,))
    x0 = Configuration.constant(vol, 6.2, "circle")
    path = simulate(constant_drift(0.0), pot, vol, x0, t=0.5, dt=0.01, rng=substream(4, "simulate"), n_replicas=40)
    vals = path.values[:, 0, :]
    assert np.any(vals >= TWO_PI)
    ref = np.diff(vals, axis=1) + 0.5 * -np.sin(np.mod(vals[:, :-1], TWO_PI)) * 0.01
    assert np.array_equal(path.increments(0, 0, 50), ref)
    assert np.array_equal(path.increments(0, 10, 30), ref[:, 10:30])


def test_constant_drift_and_girsanov_shift():
    # interacting mean shifts by beta*c*(1 - e^{-t}) relative to the OU mean
    vol = Volume.box((0,), (0,))
    x0 = Configuration.constant(vol, 0.0)
    d = constant_drift(0.8)
    path = simulate(d, QUAD, vol, x0, t=1.0, dt=0.005, rng=substream(5, "simulate"), n_replicas=4000)
    xt = path.values[:, 0, -1]
    target = 0.8 * (1.0 - math.exp(-1.0))
    assert np.mean(xt) == pytest.approx(target, abs=0.03)


def test_delayed_feedback_reads_left_edge():
    t0 = 0.2
    d = delayed_feedback_drift(alpha=1.0, t0=t0)
    vol = Volume.box((0,), (0,))
    x0 = Configuration.constant(vol, 2.0)
    path = simulate(d, QUAD, vol, x0, t=0.1, dt=0.05, rng=substream(2, "simulate"), n_replicas=3)
    t, wt, wv = _evaluation_windows(d, path, (0,), 0, 1)
    # frozen pre-history: the left edge before time 0 is the initial value
    assert np.all(wv[..., 0, 0] == 2.0)
    val = d.evaluate((0,), t, wt, wv)
    assert np.allclose(val, -1.0 * 2.0 / (1.0 + 4.0))


def test_memory_integral_drift_on_frozen_path():
    # constant path x = 1.5, eps = 1 on [0, t0]: integral = f(1.5) * t0
    t0 = 0.2
    d = memory_integral_drift(
        f=lambda x: np.tanh(x), f_bound=1.0,
        eps=lambda s: np.ones_like(np.asarray(s, dtype=float)), eps_l1=t0, t0=t0,
    )
    vol = Volume.box((0,), (0,))
    x0 = Configuration.constant(vol, 1.5)
    path = simulate(d, QUAD, vol, x0, t=0.05, dt=0.05, rng=substream(2, "simulate"))
    t, wt, wv = _evaluation_windows(d, path, (0,), 0, 1)
    val = d.evaluate((0,), t, wt, wv)
    assert np.allclose(val, math.tanh(1.5) * t0)


def test_simulate_deterministic_replay():
    vol = Volume.box((0,), (2,))
    x0 = Configuration.constant(vol, 0.1)
    d = markov_local_drift(0.5, Neighborhood.range1d(1))
    a = simulate(d, QUAD, vol, x0, t=0.2, dt=0.02, rng=substream(9, "simulate"), n_replicas=4)
    b = simulate(d, QUAD, vol, x0, t=0.2, dt=0.02, rng=substream(9, "simulate"), n_replicas=4)
    assert np.array_equal(a.values, b.values)
    c = simulate(d, QUAD, vol, x0, t=0.2, dt=0.02, rng=substream(10, "simulate"), n_replicas=4)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("pot", [QUAD, CIRC], ids=["line", "circle"])
def test_simulate_from_several_starts_shares_the_noise(pot, monkeypatch):
    # start p's slot is the run from that start alone, on the same stream;
    # at BLOCK_ELEMENTS = 2 n R the noise comes in row blocks of two, and
    # the paths are those of one draw
    vol = Volume.box((0,), (2,))
    d = markov_local_drift(0.5, Neighborhood.range1d(1))
    starts = [Configuration({(0,): 0.1, (1,): 6.0, (2,): -0.4}, pot.state_space),
              Configuration({(0,): -1.0, (1,): 0.3, (2,): 2.0}, pot.state_space)]
    R = 4
    whole = simulate(d, pot, vol, starts, t=0.2, dt=0.02, rng=substream(9, "simulate"), n_replicas=R)
    assert whole.values.shape == (2 * R, 3, 11)
    for p, x0 in enumerate(starts):
        alone = simulate(d, pot, vol, x0, t=0.2, dt=0.02, rng=substream(9, "simulate"), n_replicas=R)
        assert np.array_equal(whole.values[p * R:(p + 1) * R], alone.values)
    monkeypatch.setattr(dynamics, "BLOCK_ELEMENTS", 2 * 3 * R)
    blocks = simulate(d, pot, vol, starts, t=0.2, dt=0.02, rng=substream(9, "simulate"), n_replicas=R)
    assert np.array_equal(blocks.values, whole.values)


def test_substream_independence_and_determinism():
    a = substream(42, "x", 0).standard_normal(4)
    b = substream(42, "x", 0).standard_normal(4)
    c = substream(42, "x", 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
