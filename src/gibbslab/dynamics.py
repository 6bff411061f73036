"""Free one-dimensional dynamics, drift functionals and the lattice SDE.

The free dynamics is dx = dB - (1/2) U'(x) dt with stationary measure
m(dx) = e^{-U(x)} dx / Z.  Its transition kernel relative to m, p_t(x, y),
has a closed form for the quadratic potential (Mehler kernel) and for the
drift-free circle (wrapped heat kernel); any other potential is handled by
an eigendecomposition of the discretized generator on a truncated interval.

The interacting system runs an Euler-Maruyama scheme: interior sites of the
volume feel the drift functional, the boundary layer runs free.  Delay
evaluators read windows [t - t0, t] of W + 1 = t0/dt + 1 grid points from a
history buffer, every one of the same shape; before the start of the path
the history is frozen at its first value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    BoundViolationError,
    CoverageError,
    NumericalError,
    SetupError,
    ValidationError,
)
from .lattice import CIRCLE, LINE, TWO_PI, Configuration, Neighborhood, Volume, interior, wrap_angle


# ---------------------------------------------------------------------------
# potentials and the free kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """Self-potential U with derivative, state space and kernel machinery."""

    U: Callable
    dU: Callable
    state_space: str = LINE
    family: str = "general"  # quadratic | circle_free | general
    halfwidth: float = 6.0   # truncation [-L, L] for line quadrature/grids

    @cached_property
    def _eigensystem(self):
        # owned by the spec, so it lives and dies with the callables it reads
        return _fp_eigensystem(self)


def quadratic_potential() -> PotentialSpec:
    """U(x) = x^2: Ornstein-Uhlenbeck free dynamics, spectral gap 1."""
    return PotentialSpec(
        U=lambda x: np.asarray(x) ** 2,
        dU=lambda x: 2.0 * np.asarray(x),
        state_space=LINE,
        family="quadratic",
        halfwidth=6.0,
    )


def circle_free_potential() -> PotentialSpec:
    """U = 0 on the circle: Brownian motion, uniform m, spectral gap 1/2."""
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return PotentialSpec(U=zero, dU=zero, state_space=CIRCLE, family="circle_free")


def custom_potential(U: Callable, dU: Callable, state_space: str = LINE) -> PotentialSpec:
    """General smooth potential; normalizability is checked by quadrature."""
    if state_space == CIRCLE:
        return PotentialSpec(U=U, dU=dU, state_space=CIRCLE)
    L = 8.0
    prev_mass = None
    while L <= 64.0:
        xs = np.linspace(-L, L, 4001)
        dens = np.exp(-np.asarray(U(xs), dtype=float))
        mass = np.trapezoid(dens, xs)
        if not np.isfinite(mass):
            raise SetupError("exp(-U) is not integrable on the check grid")
        edge = max(dens[0], dens[-1]) * 2 * L
        if prev_mass is not None and edge < 1e-12 * mass:
            return PotentialSpec(U=U, dU=dU, state_space=LINE, halfwidth=L)
        prev_mass = mass
        L *= 2.0
    raise SetupError("exp(-U) does not decay on [-64, 64]; potential rejected")


def reference_quadrature(pot: PotentialSpec, n: int = 2001):
    """Grid xs and normalized weights approximating m on the truncation."""
    if pot.state_space == CIRCLE:
        xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
        w = np.exp(-np.asarray(pot.U(xs), dtype=float))
        return xs, w / w.sum()
    xs = np.linspace(-pot.halfwidth, pot.halfwidth, n)
    w = np.exp(-np.asarray(pot.U(xs), dtype=float))
    w[0] *= 0.5
    w[-1] *= 0.5
    return xs, w / w.sum()


def _sample_reference_rng(pot: PotentialSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from m, by closed form or adaptive-grid inverse CDF."""
    if pot.family == "quadratic":
        return rng.normal(0.0, math.sqrt(0.5), size=n)
    if pot.family == "circle_free":
        return rng.uniform(0.0, TWO_PI, size=n)
    xs, w = reference_quadrature(pot, 4001)
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    u = rng.uniform(size=n)
    return np.interp(u, cdf, xs)


def _fp_eigensystem(pot: PotentialSpec):
    """Eigendecomposition of the discrete free generator, weighted by m.

    Read through ``pot._eigensystem``, which computes it once per spec.
    The generator G is a nearest-neighbour chain on a 400-point grid,
    cyclic on the circle.  Its symmetrized form W^{1/2} G W^{-1/2}, W the
    lattice masses of m, is assembled as one dense matrix for either state
    space and diagonalized by ``np.linalg.eigh``.  Raises NumericalError
    when exp(-U) underflows on the grid: the generator is then not finite,
    or the grid chain falls apart into pieces that each carry a zero
    eigenvalue.
    """
    n = 400
    if pot.state_space == CIRCLE:
        xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
        h = TWO_PI / n
        nxt = np.roll(np.arange(n), -1)  # i + 1, wrapping to 0
    else:
        xs = np.linspace(-pot.halfwidth, pot.halfwidth, n)
        h = xs[1] - xs[0]
        nxt = np.arange(1, n)
    lo = np.arange(nxt.size)
    dens = np.exp(-np.asarray(pot.U(xs), dtype=float))
    dens = dens / (dens.sum() * h)
    w = dens * h  # normalized lattice masses of m
    d = np.sqrt(w)
    # conductances C_i between i and i+1 from the Dirichlet form
    # (1/2) int f'^2 dm ~ sum_i C_i (f_{i+1} - f_i)^2, C_i = m_mid / (2h)
    cond = np.sqrt(dens[lo] * dens[nxt]) / (2.0 * h)
    B = np.zeros((n, n))
    with np.errstate(invalid="ignore", divide="ignore"):
        B[lo, lo] -= cond / w[lo]
        B[nxt, nxt] -= cond / w[nxt]
        B[lo, nxt] = B[nxt, lo] = cond / (d[lo] * d[nxt])
    if not np.all(np.isfinite(B)):
        raise NumericalError(
            "the discretized free generator is not finite: exp(-U) underflows on its grid"
        )
    lam, psi = np.linalg.eigh(B)
    if not np.all(np.isfinite(lam)):
        raise NumericalError("the spectrum of the discretized free generator is not finite")
    if np.count_nonzero(np.abs(lam) <= 1e-10 * np.max(np.abs(lam))) > 1:
        raise NumericalError(
            "the discretized free generator decouples (more than one zero "
            "eigenvalue): exp(-U) underflows between grid points"
        )
    phis = psi / np.sqrt(w)[:, None]  # orthonormal in L^2(m_h), phi_0 = const
    # fix sign and the constant mode
    order = np.argsort(-lam)
    lam = lam[order]
    phis = phis[:, order]
    lam[0] = 0.0
    phis[:, 0] = 1.0
    return xs, w, lam, phis


def _circle_heat_kernel(t, d):
    """Wrapped heat kernel relative to the uniform measure."""
    d = np.asarray(d, dtype=float)
    t = float(t)
    if t >= 0.5:
        out = np.ones_like(d)
        k = 1
        while k * k * t / 2.0 < 40.0:
            out = out + 2.0 * np.exp(-k * k * t / 2.0) * np.cos(k * d)
            k += 1
        return out
    out = np.zeros_like(d)
    n_terms = int(np.ceil(8.0 * math.sqrt(t) / TWO_PI)) + 3
    for nw in range(-n_terms, n_terms + 1):
        out = out + np.exp(-((d + TWO_PI * nw) ** 2) / (2.0 * t))
    return out * math.sqrt(TWO_PI / t)


def free_kernel(pot: PotentialSpec, t: float, x, y):
    """Transition density p_t(x, y) of the free dynamics relative to m."""
    if t <= 0:
        raise ValidationError("free_kernel needs t > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if pot.family == "quadratic":
        rho = math.exp(-t)
        denom = 1.0 - rho * rho
        expo = (2.0 * rho * x * y - rho * rho * (x * x + y * y)) / denom
        return np.exp(expo) / math.sqrt(denom)
    if pot.family == "circle_free":
        return _circle_heat_kernel(t, y - x)
    xs, w, lam, phis = pot._eigensystem
    if pot.state_space == LINE and (
        np.any((x < xs[0]) | (x > xs[-1])) or np.any((y < xs[0]) | (y > xs[-1]))
    ):
        raise CoverageError(
            f"free_kernel: points outside the eigenfunction grid [{xs[0]}, {xs[-1]}]"
        )
    keep = lam * t > -45.0
    # on the circle the grid stops at 2*pi - h; interpolate across the seam
    period = TWO_PI if pot.state_space == CIRCLE else None
    # sum_k phi_k(x) phi_k(y) e^{lam_k t}, one mode at a time, so the memory
    # is a few arrays of the broadcast shape whatever the number of modes
    val = np.zeros(np.broadcast(x, y).shape)
    for phi, w in zip(phis[:, keep].T, np.exp(lam[keep] * t)):
        px = np.interp(x, xs, phi, period=period)
        val = val + px * np.interp(y, xs, phi, period=period) * w
    if val.shape == ():
        return float(val)
    return val


def kernel_sup_distance(pot: PotentialSpec, T: float) -> float:
    """max |p_T(x, y) - 1| over a 201-point probe grid (truncated sup norm).

    On the line the probe box is [-1, 1], which keeps the decay in its
    asymptotic single-rate regime for moderate T, as the ergodicity fits need.
    """
    if T <= 0:
        raise ValidationError("kernel_sup_distance needs T > 0")
    if pot.state_space == CIRCLE:
        xs = np.linspace(0.0, TWO_PI, 201, endpoint=False)
    else:
        L = min(pot.halfwidth, 1.0)
        xs = np.linspace(-L, L, 201)
    vals = free_kernel(pot, T, xs[:, None], xs[None, :])
    return float(np.max(np.abs(vals - 1.0)))


def ultracontractivity_report(pot: PotentialSpec) -> dict:
    """Numerical check of the three sufficient ultracontractivity conditions.

    Returns flags and diagnostics; failures are reported as warnings since
    the conditions are sufficient, not necessary.
    """
    if pot.state_space == CIRCLE:
        return {"state_space": CIRCLE, "ultracontractive": True, "warnings": []}
    n_grid = 801  # points of the check grid over the truncation
    L = pot.halfwidth
    xs = np.linspace(-L, L, n_grid)
    h = xs[1] - xs[0]
    du = np.asarray(pot.dU(xs), dtype=float)
    ddu = np.gradient(du, h)
    warnings = []
    edge = int(0.1 * n_grid)
    cond1 = bool(min(ddu[:edge].min(), ddu[-edge:].min()) > 0)
    if not cond1:
        warnings.append("condition (1): U'' not positive near the truncation edges")
    cond2_max = float(np.max(ddu - 0.5 * du * du))
    cond2 = bool(np.isfinite(cond2_max))
    # condition (3): integrability of 1/U' in the tails
    tail = np.abs(xs) > 0.5 * L
    with np.errstate(divide="ignore"):
        inv = np.where(np.abs(du[tail]) > 1e-12, 1.0 / np.abs(du[tail]), np.inf)
    cond3 = bool(np.all(np.isfinite(inv)) and np.sum(inv) * h < 1e3)
    if not cond3:
        warnings.append("condition (3): 1/U' looks non-integrable in the tails")
    return {
        "state_space": LINE,
        "condition_1_convex_tails": cond1,
        "condition_2_bound": cond2_max,
        "condition_2_holds": cond2,
        "condition_3_integrable": cond3,
        "ultracontractive": cond1 and cond2 and cond3,
        "warnings": warnings,
    }


# ---------------------------------------------------------------------------
# drift functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftSpec:
    """Bounded space-time-local drift functional with intensity beta.

    ``evaluator(site, t, window_times, window_values)`` evaluates b_site at
    a batch of steps from the path of the sites ``site + nbhd`` on memory
    windows of W + 1 grid points ending at each step, W = memory / dt:

    - ``t`` has shape (steps,) and ``window_times`` (steps, W+1);
    - ``window_values`` is one array of shape (R, steps, |nbhd|, W+1), its
      axis 2 running over ``sorted(nbhd.around(site))``; it is a read-only
      view of the caller's history.

    Every call has these shapes.  Window points before the start of the
    path repeat its first value at their own (earlier) times, so an
    evaluator that wants the window cut at the path start ignores them.
    The evaluator returns b as anything that broadcasts to (R, steps), a
    scalar or a (steps,) array included, and must treat the steps of a
    batch independently.  |b| may never exceed ``bound`` (checked once per
    call); ``evaluate`` returns b as a read-only (R, steps) view.
    """

    beta: float
    nbhd: Neighborhood
    memory: float
    bound: float
    evaluator: Callable
    label: str = "custom"

    def __post_init__(self):
        if self.beta < 0:
            raise SetupError("beta must be nonnegative")
        if self.memory <= 0:
            raise SetupError("memory time t0 must be positive")
        if self.bound < 0:
            raise SetupError("drift bound must be nonnegative")

    def evaluate(self, site, t, window_times, window_values):
        val = np.asarray(
            self.evaluator(site, t, window_times, window_values), dtype=float
        )
        top = self.bound + 1e-9  # fmax and fmin skip NaN, as |b| > top does
        if val.size and (np.fmax.reduce(val, None) > top or np.fmin.reduce(val, None) < -top):
            raise BoundViolationError(
                f"drift '{self.label}' exceeded its declared bound {self.bound}"
            )
        shape = window_values.shape[:2]
        if val.shape != shape:
            return np.broadcast_to(val, shape)
        # already (R, steps): a read-only view, without broadcast_to's cost
        val = val.view()
        val.flags.writeable = False
        return val


def constant_drift(c: float, memory: float = 0.1) -> DriftSpec:
    """b = c everywhere: the simplest Markovian finite-range drift."""
    return DriftSpec(
        beta=1.0,
        nbhd=Neighborhood.range1d(0),
        memory=memory,
        bound=abs(c),
        evaluator=lambda site, t, wt, wv: float(c),
        label="constant",
    )


def markov_local_drift(scale: float, nbhd: Neighborhood, memory: float = 0.1) -> DriftSpec:
    """b_i = scale * tanh(mean of the current neighborhood values)."""

    def ev(site, t, wt, wv):
        return scale * np.tanh(np.mean(wv[..., -1], axis=-1))

    return DriftSpec(
        beta=1.0, nbhd=nbhd, memory=memory, bound=abs(scale), evaluator=ev,
        label="markov_local",
    )


def resonance_drift(amplitude: float, memory: float = 0.1) -> DriftSpec:
    """External periodic forcing b = A sin(t); declared bound equals A."""

    def ev(site, t, wt, wv):
        return amplitude * np.sin(t)

    return DriftSpec(
        beta=1.0, nbhd=Neighborhood.range1d(0), memory=memory,
        bound=abs(amplitude), evaluator=ev, label="resonance",
    )


def delayed_feedback_drift(alpha: float, t0: float) -> DriftSpec:
    """Saturated delayed feedback b = -alpha z / (1 + z^2), z = x(t - t0)."""

    def ev(site, t, wt, wv):
        z = wv[..., 0, 0]  # left edge of the window is t - t0
        return -alpha * z / (1.0 + z * z)

    return DriftSpec(
        beta=1.0, nbhd=Neighborhood.range1d(0), memory=t0,
        bound=abs(alpha) / 2.0, evaluator=ev, label="delayed_feedback",
    )


def memory_integral_drift(
    f: Callable, f_bound: float, eps: Callable, eps_l1: float, t0: float
) -> DriftSpec:
    """b_i(t) = integral of eps(s) f(x_i(s)) over the memory window."""

    def ev(site, t, wt, wv):
        ds = np.diff(wt, axis=-1)
        integrand = np.asarray(eps(wt[..., :-1]), dtype=float) * np.asarray(
            f(wv[..., 0, :-1]), dtype=float
        )
        return np.sum(integrand * ds, axis=-1)

    return DriftSpec(
        beta=1.0, nbhd=Neighborhood.range1d(0), memory=t0,
        bound=abs(f_bound) * abs(eps_l1), evaluator=ev, label="memory_integral",
    )


def space_time_integral_drift(
    alpha: Callable,
    alpha_bound: float,
    integrator: Callable,
    total_variation: float,
    nbhd: Neighborhood,
    t0: float,
) -> DriftSpec:
    """b_i(t) = integral of alpha(t - s, x_{i+N}(s)) dV_s over the window.

    ``alpha(lag, values)`` gets the lags t - s, shape (steps,), and the
    values at one window point s, shape (R, steps, |N|) with the
    neighbourhood axis last in ``sorted(nbhd.around(site))`` order;
    ``integrator`` is the bounded-variation path V evaluated elementwise at
    times.
    """

    def ev(site, t, wt, wv):
        out = np.zeros(wv.shape[:2])
        dv = np.diff(np.asarray(integrator(wt), dtype=float), axis=-1)
        for l in range(wt.shape[-1] - 1):
            out = out + np.asarray(alpha(t - wt[:, l], wv[..., l]), dtype=float) * dv[:, l]
        return out

    return DriftSpec(
        beta=1.0, nbhd=nbhd, memory=t0,
        bound=abs(alpha_bound) * abs(total_variation),
        evaluator=ev, label="space_time_integral",
    )


# ---------------------------------------------------------------------------
# path bundles and the Euler-Maruyama integrator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathBundle:
    """Discretized trajectories of all sites under the free potential ``pot``.

    ``values`` has shape (replicas, sites, K+1); circle paths are stored as
    a continuous lift, which ``wrap_angle`` maps to states.  A bundle holds
    its paths only: ``increments`` derives the compensated increments that
    the Girsanov exponent reads.
    """

    sites: tuple
    times: np.ndarray
    values: np.ndarray
    pot: PotentialSpec

    @property
    def state_space(self) -> str:
        return self.pot.state_space

    @property
    def n_replicas(self) -> int:
        return self.values.shape[0]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def site_index(self, site) -> int:
        try:
            return self.sites.index(tuple(site))
        except ValueError:
            raise CoverageError(f"site {site} not covered by this path bundle")

    def increments(self, idx: int, k_lo: int, k_hi: int) -> np.ndarray:
        """dX + (1/2) U'(X_k) dt of site row idx at the steps k_lo .. k_hi-1.

        The left-point rule, with U' read at the wrapped state on the
        circle; shape (R, steps).
        """
        vals = self.values[:, idx, k_lo : k_hi + 1]
        state = wrap_angle(vals[:, :-1]) if self.state_space == CIRCLE else vals[:, :-1]
        out = vals[:, 1:] - vals[:, :-1]
        # U' unnamed, so numpy may reuse its temporary for the products
        out += 0.5 * np.asarray(self.pot.dU(state), dtype=float) * self.dt
        return out


# Elements of one block of a replica array that a loop walks at a time
# (noise rows drawn, steps of the Girsanov exponent), so its temporaries
# stay about 0.5 MB whatever the path length.
BLOCK_ELEMENTS = 1 << 16

# More steps than a path array could ever hold; a longer span is refused.
MAX_STEPS = 2**31 - 1


def step_count(span: float, dt: float) -> int:
    """span / dt rounded to whole steps; a ValidationError past MAX_STEPS."""
    steps = span / dt
    if not abs(steps) <= MAX_STEPS:
        raise ValidationError(f"{span} / dt = {steps:.3g} steps, more than {MAX_STEPS}")
    return int(round(steps))


def whole_steps(span: float, dt: float, name: str) -> int:
    """K = span / dt, which must be a whole number K >= 1 within a relative
    1e-9; ``name`` names the span in the ValidationError otherwise."""
    K = step_count(span, dt)
    if K < 1 or abs(K * dt - span) > 1e-9 * max(span, 1.0):
        raise ValidationError(f"{name} = {span} must be a whole number (>= 1) of steps dt = {dt}")
    return K


def _window_length(drift: DriftSpec, dt: float) -> int:
    """W = t0 / dt, the number of grid steps the drift's memory window spans.

    A drift that acts (beta > 0) needs a whole number W >= 1; otherwise its
    windows would not span the declared memory.
    """
    if drift.beta > 0:
        return whole_steps(drift.memory, dt, "the drift memory t0")
    return max(step_count(drift.memory, dt), 1)


def _neighbour_block(drift: DriftSpec, sites: tuple, site):
    """Rows of ``sorted(site + nbhd)`` among ``sites``: a slice when they are
    consecutive (always so in 1-D), otherwise an index array."""
    try:
        rows = [sites.index(s) for s in sorted(drift.nbhd.around(site))]
    except ValueError:
        raise CoverageError(f"the neighbourhood of {site} is not covered by this path bundle")
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return np.array(rows)


def _windows(history: np.ndarray, W: int, t0: float, dt: float, lo: int):
    """Zero-copy memory windows over a history padded in front.

    Row r of ``history``, shape (W + steps, sites, R), holds the path at
    grid index lo + r; rows at negative indices repeat the frozen
    pre-history.  Returns the window times, shape (steps, W+1), and the
    value windows, shape (R, steps, sites, W+1): window s spans indices
    lo + s .. lo + s + W.  Both are read-only strided views, so an evaluator
    cannot write into the path.
    """
    steps = history.shape[0] - W
    times = t0 + np.arange(lo, lo + history.shape[0]) * dt
    wt = as_strided(times, (steps, W + 1), times.strides * 2, writeable=False)
    row, site, replica = history.strides
    wv = as_strided(
        history, (history.shape[2], steps, history.shape[1], W + 1),
        (replica, row, site, row), writeable=False,
    )
    return wt, wv


def _evaluation_windows(drift: DriftSpec, path: PathBundle, site, k_lo: int, k_hi: int):
    """Evaluator arguments (t, window_times, window_values) for the steps
    k_lo .. k_hi-1 of a stored bundle.

    On the line, steps whose windows all start at or after the path start
    read the stored path of ``site + nbhd`` in place.  Otherwise it is
    copied once into a (W + steps, |nbhd|, R) history, front-padded with the
    frozen pre-history and wrapped in place on the circle.  Either is read
    through ``_windows``.
    """
    W = _window_length(drift, path.dt)
    lo = k_lo - W
    front = max(-lo, 0)
    block = _neighbour_block(drift, path.sites, site)
    path_rows = path.values.transpose(2, 1, 0)  # (K+1, sites, R)
    if front == 0 and path.state_space != CIRCLE:
        history = path_rows[lo:k_hi, block]
    else:
        first = path_rows[0, block]
        history = np.empty((W + k_hi - k_lo,) + first.shape)
        history[:front] = first
        history[front:] = path_rows[lo + front : k_hi, block]
        if path.state_space == CIRCLE:
            wrap_angle(history, out=history)
    wt, wv = _windows(history, W, path.times[0], path.dt, lo)
    return path.times[k_lo:k_hi], wt, wv


def drift_values(drift: DriftSpec, path: PathBundle, site) -> np.ndarray:
    """Re-evaluate b_site(t_k, X) along a stored bundle, a new (R, K) array."""
    site = tuple(site)
    windows = _evaluation_windows(drift, path, site, 0, path.times.size - 1)
    return np.array(drift.evaluate(site, *windows))


def _euler_grid(pot: PotentialSpec, vol: Volume, starts, t: float, dt: float):
    """The checks of Euler runs from each Configuration of ``starts`` over
    [0, t]: returns the volume's sites in sorted order and the number of
    steps K = t / dt."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    for x0 in starts:
        if not vol.issubset(x0.domain):
            raise CoverageError("x0 does not cover the volume")
        if x0.state_space != pot.state_space:
            raise ValidationError("x0 state space does not match the potential")
    return tuple(vol.sorted_sites()), whole_steps(t, dt, "t")


def simulate(
    drift: DriftSpec,
    pot: PotentialSpec,
    vol: Volume,
    x0,
    t: float,
    dt: float,
    rng: np.random.Generator,
    n_replicas: int = 1,
) -> PathBundle:
    """Euler-Maruyama trajectories of the finite-volume dynamics.

    Interior sites feel the interacting drift, the boundary layer runs free.
    Deterministic given the state of rng, dt and the inputs; replicas share
    one vectorized noise stream, rng.  ``x0`` is one Configuration, or a
    sequence of P of them, held as a (sites, P) array of starts: the bundle
    then holds P x R replicas, start-major (replica p R + r is path r from
    the p-th start), and every start's R paths read the same Euler noise,
    drawn once for R replicas.
    """
    starts = [x0] if isinstance(x0, Configuration) else list(x0)
    sites, K = _euler_grid(pot, vol, starts, t, dt)
    inner = interior(vol, drift.nbhd)

    R, n, P = n_replicas, len(sites), len(starts)
    W = _window_length(drift, dt)
    times = dt * np.arange(K + 1)
    # path rows (time, site, replica): W rows of frozen pre-history, then
    # x_0 .. x_K; the rows of x_1 .. x_K first hold the noise sqrt(dt) Z
    # that step k overwrites.  ``slots`` views the replica axis as (start,
    # replica)
    history = np.empty((W + K + 1, n, P * R))
    slots = history.reshape(W + K + 1, n, P, R)
    # the normals are drawn time-major in row blocks of at most
    # BLOCK_ELEMENTS values, the same draws as one call, and each block is
    # scaled by sqrt(dt) once and copied into every start's slot
    sqrt_dt = math.sqrt(dt)
    noise = np.empty((max(1, min(K, BLOCK_ELEMENTS // (n * R))), n, R))
    for lo in range(W + 1, W + K + 1, len(noise)):
        rows = noise[: min(len(noise), W + K + 1 - lo)]
        rng.standard_normal(out=rows)
        rows *= sqrt_dt
        slots[lo : lo + len(rows)] = rows[:, :, None]
    del noise
    slots[: W + 1] = np.stack([x.array_for(sites) for x in starts], axis=1)[:, :, None]
    circle = pot.state_space == CIRCLE
    # the drift and U' read wrapped angles on the circle
    state = np.empty_like(history) if circle else history
    if circle:
        wrap_angle(history[: W + 1], out=state[: W + 1])
    wt, wv = _windows(state, W, times[0], dt, -W)
    readers = [(i, s, _neighbour_block(drift, sites, s)) for i, s in enumerate(sites) if s in inner]

    for k in range(K):
        du = np.asarray(pot.dU(state[W + k]), dtype=float)
        drift_term = -0.5 * du
        if drift.beta > 0:
            step = slice(k, k + 1)
            for i, site, block in readers:
                b = drift.evaluate(site, times[step], wt[step], wv[:, step, block])
                drift_term[i, :, None] += drift.beta * b
        # x_{k+1} = x_k + (noise * sqrt(dt) + drift * dt), formed in the noise row
        row = history[W + k + 1]
        drift_term *= dt
        row += drift_term
        row += history[W + k]
        if circle:
            wrap_angle(history[W + k + 1], out=state[W + k + 1])
    # each step adds the row before it, so a NaN or inf in any row stays in
    # its (site, replica) entry of the last one
    if not np.all(np.isfinite(history[-1])):
        raise NumericalError("simulation produced NaN or overflow")
    return PathBundle(sites, times, history[W:].transpose(2, 1, 0), pot)
