"""Girsanov reweighting over diffusion bridges.

The finite-volume interacting law Q is absolutely continuous with respect
to the free product law P, with density M = exp(sum_i [beta int b_i dBbar_i
- (beta^2/2) int b_i^2 ds]) over the interior sites.  The per-site exponent
is exposed as psi (with the opposite sign), so exp(-sum_i psi_i) == M holds
exactly, term by term, on the discrete grid.

Bridges of the free dynamics are sampled exactly for the quadratic
potential (Gaussian conditioning step by step) and for the drift-free
circle (winding number first, then a linear Brownian bridge on the lift);
any other potential falls back to forward paths reweighted by a Gaussian
kernel at the terminal point, which is consistent as the bandwidth shrinks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, Optional, Tuple

import numpy as np

from .dynamics import (
    DriftSpec,
    PathBundle,
    PotentialSpec,
    _drift_along,
    constant_drift,
    simulate,
    step_count,
)
from .errors import CoverageError, PrecisionError, ValidationError
from .estimates import (
    Estimate,
    MCParams,
    mean_estimate,
    ratio_estimate,
    weighted_mean_estimate,
)
from .lattice import CIRCLE, TWO_PI, Configuration, Volume, interior
from .rng import substream


def _free_drift() -> DriftSpec:
    return dataclasses.replace(constant_drift(0.0), beta=0.0, label="free")


def _window_indices(path: PathBundle, window: Tuple[float, float]) -> Tuple[int, int]:
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise ValidationError("window must satisfy a < b")
    t0, t1 = float(path.times[0]), float(path.times[-1])
    tol = 1e-9 * max(1.0, abs(t1))
    if a < t0 - tol or b > t1 + tol:
        raise CoverageError("window not covered by the path bundle")
    # grid points s_l with a <= s_l < b (left-point rule)
    k_lo = int(np.searchsorted(path.times[:-1], a - tol))
    k_hi = int(np.searchsorted(path.times[:-1], b - tol))
    return k_lo, k_hi


# Elements of one (R, steps) block of the Girsanov exponent: psi walks its
# window this many replica-steps at a time, so its temporaries stay about
# 1 MB whatever the path length.
BLOCK_ELEMENTS = 1 << 17


def psi(
    drift: DriftSpec, site, window: Tuple[float, float], path: PathBundle
) -> np.ndarray:
    """Per-site Girsanov exponent on [a, b), one value per replica.

    psi = -beta sum_l b(s_l) dBbar(s_l) + (beta^2/2) sum_l b(s_l)^2 dt,
    so that exp(-sum psi) over interior sites is the Girsanov density.
    Sites outside the drift's interaction reach contribute exactly zero.

    The steps are taken in blocks of max(1, BLOCK_ELEMENTS // R); every
    element goes through the same operations in the same order whatever
    the block size, so the result does not depend on it.
    """
    site = tuple(int(c) for c in site)
    k_lo, k_hi = _window_indices(path, window)
    idx = path.site_index(site)
    out = np.zeros(path.n_replicas)
    if drift.beta == 0.0:
        return out
    block = max(1, BLOCK_ELEMENTS // path.n_replicas)
    for lo in range(k_lo, k_hi, block):
        _add_block(out, drift, path, site, idx, lo, min(lo + block, k_hi))
    return out


def _add_block(out: np.ndarray, drift: DriftSpec, path: PathBundle, site, idx: int,
               lo: int, hi: int) -> None:
    """Adds the terms of psi at the steps lo .. hi-1 to ``out``, in step order.

    Its (R, steps) temporaries are released on return, before the next block.
    """
    beta, dt = drift.beta, path.dt
    b = _drift_along(drift, path, site, lo, hi)
    terms = -beta * b * path.increments(idx, lo, hi) + 0.5 * beta * beta * b * b * dt
    # summed in step order, as a running sum over the steps would; a
    # pairwise np.sum along the step axis would change the low bits
    for term in terms.T:
        out += term


def log_girsanov_weight(
    drift: DriftSpec,
    vol: Volume,
    path: PathBundle,
    window: Optional[Tuple[float, float]] = None,
) -> np.ndarray:
    """log M over the interior of vol, one value per replica."""
    if window is None:
        window = (float(path.times[0]), float(path.times[-1]))
    inner = interior(vol, drift.nbhd)
    total = np.zeros(path.n_replicas)
    for site in inner.sorted_sites():
        total -= psi(drift, site, window, path)
    return total


def girsanov_weight(
    drift: DriftSpec,
    vol: Volume,
    path: PathBundle,
    window: Optional[Tuple[float, float]] = None,
) -> np.ndarray:
    return np.exp(log_girsanov_weight(drift, vol, path, window))


# ---------------------------------------------------------------------------
# bridge sampling
# ---------------------------------------------------------------------------

def _ou_variance(s: float) -> float:
    return 0.5 * (1.0 - math.exp(-2.0 * s))


def _ou_bridge_steps(rows: np.ndarray, ends: np.ndarray, tau: float, dt: float) -> None:
    """Exact OU bridge steps over [0, tau], in place, for any number of segments.

    ``rows`` has the K steps of a segment on its first axis, then any shape:
    row 0 holds the starts and rows 1 .. K-1 the step noise, which step k
    replaces by the path; ``ends`` holds the values at tau.  Every element
    goes through the same scalar operations, so a segment's path does not
    depend on which other segments are stepped with it.
    """
    K = rows.shape[0]
    e1 = math.exp(-dt)
    v1 = _ou_variance(dt)
    for k in range(1, K):
        rem = tau - k * dt
        er = math.exp(-rem)
        vr = _ou_variance(rem)
        prec = 1.0 / v1 + er * er / vr
        mean = (rows[k - 1] * e1 / v1 + ends * er / vr) / prec
        rows[k] = mean + rows[k] / math.sqrt(prec)


def _winding_target(a: np.ndarray, b: np.ndarray, tau: float, u: np.ndarray) -> np.ndarray:
    """Lifted end of a circle bridge from the lift a towards the angle b.

    Takes the shortest angular displacement, then a winding number picked
    by the uniforms u, weighted by the free Gaussian likelihood of each
    lifted endpoint.  a, b and u broadcast to one shape, such as (R,) or
    (points, R); each element is picked alone.
    """
    d = np.mod(b - a + np.pi, TWO_PI) - np.pi
    n_max = max(3, int(math.ceil(4.0 * math.sqrt(tau) / TWO_PI)) + 1)
    windings = np.arange(-n_max, n_max + 1)
    disp = d[..., None] + TWO_PI * windings
    logw = -(disp**2) / (2.0 * tau)
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    cdf = np.cumsum(w, axis=-1)
    pick = ((u * cdf[..., -1])[..., None] > cdf).sum(axis=-1)
    return a + np.take_along_axis(disp, pick[..., None], axis=-1)[..., 0]


def _lifted_bridge_steps(
    rows: np.ndarray, ends: np.ndarray, tau: float, dt: float
) -> None:
    """The linear Brownian bridge steps towards the lifted ends, in place.

    ``rows`` and ``ends`` are laid out as in ``_ou_bridge_steps``.
    """
    K = rows.shape[0]
    for k in range(1, K):
        rem = tau - (k - 1) * dt
        mean = rows[k - 1] + (ends - rows[k - 1]) * dt / rem
        var = dt * (rem - dt) / rem
        rows[k] = mean + rows[k] * math.sqrt(max(var, 0.0))


@functools.lru_cache(maxsize=32)
def _bridge_coefficients(family: str, tau: float, dt: float) -> np.ndarray:
    """Weights of a segment's start and (lifted) end in each of its rows.

    Given its noise, every step of an exact bridge segment is affine in the
    previous row and the end, so a path is base + start * coef[:, 0] +
    end * coef[:, 1], where base is the path from 0 to 0.  The weights are
    the segment's own steps run without noise from the start (1, 0) to the
    end (0, 1); the result is a read-only (K+1, 2) array, computed once per
    potential family, tau and dt.
    """
    K = int(round(tau / dt))
    coef = np.zeros((K + 1, 2))
    coef[0, 0] = coef[K, 1] = 1.0
    steps = _ou_bridge_steps if family == "quadratic" else _lifted_bridge_steps
    steps(coef[:K], coef[K], tau, dt)
    coef.flags.writeable = False
    return coef


class _KeptUniforms:
    """Passes a generator's draws through and keeps its uniform draws.

    The circle bridge picks each segment's winding from one uniform draw;
    keeping them lets ``_bridge_lifts`` pick the windings again for other
    end values.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.uniforms: list = []

    def standard_normal(self, *args, **kwargs):
        return self._rng.standard_normal(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        u = self._rng.uniform(*args, **kwargs)
        self.uniforms.append(u)
        return u


def _bridge_lifts(pot: PotentialSpec, nodes, tau: float, uniforms) -> list:
    """The values a bridge path takes at its layers, given the layer values.

    The OU path passes through the layer values themselves.  The circle
    path passes through lifts: each segment's end is lifted from the
    previous lift with that segment's winding uniforms.  The layer values
    may be (R,) arrays or broadcast against them, e.g. (points, 1).
    """
    if pot.family == "quadratic":
        return list(nodes)
    lifts = [nodes[0]]
    for b, u in zip(nodes[1:], uniforms):
        lifts.append(_winding_target(lifts[-1], b, tau, u))
    return lifts


def _as_replica_array(value, n_replicas: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n_replicas, float(arr))
    if arr.shape != (n_replicas,):
        raise ValidationError("endpoint arrays must be scalars or shape (R,)")
    return arr


def multi_bridge_bundle(
    pot: PotentialSpec,
    sites,
    layers,
    t_start: float,
    tau: float,
    dt: float,
    rng: np.random.Generator,
    n_replicas: int,
) -> PathBundle:
    """Concatenated exact bridges through the given layer values.

    ``layers`` is a list of dicts site -> scalar or (R,) array; consecutive
    layers are tau apart and every segment is bridged exactly.  Only the
    quadratic and drift-free-circle potentials admit exact bridges.

    The randomness is drawn site by site, and within a site segment by
    segment (on the circle: each segment's winding uniforms, then its step
    noise).  Once drawn, the segments are independent given their ends, so
    the steps then run for every site and segment of the bundle together,
    one step index at a time.
    """
    if pot.family not in ("quadratic", "circle_free"):
        raise ValidationError(
            "exact bridges need the quadratic or drift-free circle potential"
        )
    sites = tuple(tuple(int(c) for c in s) for s in sites)
    n_seg = len(layers) - 1
    if n_seg < 1:
        raise ValidationError("need at least two layers to bridge")
    Kseg = step_count(tau, dt)
    if Kseg < 1 or abs(Kseg * dt - tau) > 1e-9 * max(tau, 1.0):
        raise ValidationError("tau must be an integer multiple of dt")
    R = n_replicas
    K = n_seg * Kseg
    circle = pot.family == "circle_free"
    # site-major, then time: every step of a site's path is contiguous.  A
    # segment's rows hold its start, then the step noise, then its (lifted) end
    values = np.empty((len(sites), K + 1, R))
    for i, s in enumerate(sites):
        values[i, 0] = _as_replica_array(layers[0][s], R)
        for j in range(n_seg):
            seg = values[i, j * Kseg : (j + 1) * Kseg + 1]
            end = _as_replica_array(layers[j + 1][s], R)
            if circle:
                end = _winding_target(seg[0], end, tau, rng.uniform(size=R))
            seg[-1] = end
            rng.standard_normal(out=seg[1:-1])
    # a (step, site, segment, replica) view of rows 0 .. Kseg-1 of every
    # segment, and a (site, segment, replica) view of the segment ends
    rows = np.moveaxis(values[:, :K].reshape(len(sites), n_seg, Kseg, R), 2, 0)
    steps = _lifted_bridge_steps if circle else _ou_bridge_steps
    steps(rows, values[:, Kseg::Kseg], tau, dt)
    times = t_start + dt * np.arange(K + 1)
    return PathBundle(sites, times, values.transpose(2, 0, 1), pot)


def _endpoint_offsets(bundle: PathBundle, y: Configuration, mc: MCParams) -> list:
    """(offsets of the path ends from y, kernel bandwidth h) per site, in the
    bundle's order, with h = bandwidth_scale * spread * R^(-1/5).  On the
    circle the offsets are wrapped into [-pi, pi) and the spread is theirs,
    so an end just across the seam from y counts as near it; on the line
    the spread is that of the ends."""
    out = []
    for s in bundle.sites:
        end = bundle.state_values(s)[:, -1]
        diff, spread = end - y[s], end
        if bundle.state_space == CIRCLE:
            diff = spread = np.mod(diff + np.pi, TWO_PI) - np.pi
        h = mc.bandwidth_scale * (float(np.std(spread)) or 1.0) * bundle.n_replicas ** (-0.2)
        out.append((diff, h))
    return out


def free_bridge_paths(
    pot: PotentialSpec,
    vol: Volume,
    x: Configuration,
    y: Configuration,
    t: float,
    mc: MCParams,
    rng: np.random.Generator,
) -> Tuple[PathBundle, Optional[np.ndarray]]:
    """Replica bundle of free bridges from x to y over [0, t].

    Returns (bundle, log_weights); weights are None when the bridges are
    exact, otherwise they reweight forward paths by a Gaussian kernel in
    the offsets of their ends from y (``_endpoint_offsets``).
    """
    if not (vol.issubset(x.domain) and vol.issubset(y.domain)):
        raise CoverageError("endpoint configurations must cover the volume")
    sites = tuple(vol.sorted_sites())
    R = mc.n_samples
    if pot.family in ("quadratic", "circle_free"):
        layers = [
            {s: x[s] for s in sites},
            {s: y[s] for s in sites},
        ]
        bundle = multi_bridge_bundle(pot, sites, layers, 0.0, t, mc.dt, rng, R)
        return bundle, None
    bundle = simulate(_free_drift(), pot, vol, x, t, mc.dt, seed=0, n_replicas=R, rng=rng)
    logw = np.zeros(R)
    for diff, h in _endpoint_offsets(bundle, y, mc):
        logw += -(diff**2) / (2.0 * h * h)
    return bundle, logw


def bridge_expectation(
    F: Callable,
    pot: PotentialSpec,
    vol: Volume,
    x: Configuration,
    y: Configuration,
    t: float,
    mc: MCParams,
    seed: int,
) -> Estimate:
    """Monte Carlo estimate of E[F(X) | X_0 = x, X_t = y] under the free law.

    ``F`` maps a PathBundle to one value per replica.  Reweighted bridges
    are self-normalized; an effective sample size below the configured
    threshold raises PrecisionError.
    """
    rng = substream(seed, "bridge")
    bundle, logw = free_bridge_paths(pot, vol, x, y, t, mc, rng)
    samples = np.asarray(F(bundle), dtype=float)
    if samples.shape != (bundle.n_replicas,):
        raise ValidationError("F must return one value per replica")
    if logw is None:
        return mean_estimate(samples, method="bridge-exact")
    return weighted_mean_estimate(samples, logw, mc.ess_threshold, method="bridge-reweighted")


def density(
    drift: DriftSpec,
    pot: PotentialSpec,
    vol: Volume,
    x: Configuration,
    y: Configuration,
    t: float,
    mc: MCParams,
    seed: int,
) -> Estimate:
    """Interacting-vs-free endpoint density f_t(x, y) by bridge reweighting."""

    def F(bundle: PathBundle) -> np.ndarray:
        return girsanov_weight(drift, vol, bundle)

    est = bridge_expectation(F, pot, vol, x, y, t, mc, seed)
    return dataclasses.replace(est, method="bridge")


def _kde_products(terms, n_replicas: int) -> np.ndarray:
    """Product over sites of the Gaussian kernel densities of (offsets, h) pairs."""
    prod = np.ones(n_replicas)
    for diff, h in terms:
        prod *= np.exp(-(diff**2) / (2.0 * h * h)) / (h * math.sqrt(2.0 * math.pi))
    return prod


def density_endpoint_ratio(
    drift: DriftSpec,
    pot: PotentialSpec,
    vol: Volume,
    x: Configuration,
    y: Configuration,
    t: float,
    mc: MCParams,
    seed: int,
) -> Estimate:
    """Independent density route: ratio of kernel-smoothed endpoint laws.

    Simulates the interacting and the free system forward from x and
    compares kernel density estimates at y, with one shared bandwidth per
    site so the smoothing bias cancels to leading order in the ratio.
    """
    R = mc.n_samples
    # only the path ends are read, so each bundle is dropped as soon as its
    # offsets are taken: the two systems' paths are never held at once
    q_offsets = _endpoint_offsets(
        simulate(drift, pot, vol, x, t, mc.dt, seed=0, n_replicas=R,
                 rng=substream(seed, "endpoint", "interacting")), y, mc)
    p_terms = _endpoint_offsets(
        simulate(_free_drift(), pot, vol, x, t, mc.dt, seed=0, n_replicas=R,
                 rng=substream(seed, "endpoint", "free")), y, mc)
    q_terms = [(d, h) for (d, _), (_, h) in zip(q_offsets, p_terms)]
    q_hat = mean_estimate(_kde_products(q_terms, R))
    p_hat = mean_estimate(_kde_products(p_terms, R))
    if p_hat.value <= 0 or p_hat.value < 3.0 * p_hat.stderr:
        raise PrecisionError("free endpoint density at y is not resolved")
    return ratio_estimate(q_hat, p_hat, method="endpoint-ratio")
