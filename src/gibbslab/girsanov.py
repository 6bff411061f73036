"""Girsanov reweighting over diffusion bridges.

The finite-volume interacting law Q is absolutely continuous with respect
to the free product law P, with density M = exp(sum_i [beta int b_i dBbar_i
- (beta^2/2) int b_i^2 ds]) over the interior sites.  The per-site exponent
is exposed as psi (with the opposite sign), so exp(-sum_i psi_i) == M holds
exactly, term by term, on the discrete grid.

Bridges of the free dynamics are sampled exactly for the quadratic
potential (Gaussian conditioning step by step) and for the drift-free
circle (winding number first, then a linear Brownian bridge on the lift);
any other potential falls back to forward paths that reach the terminal
point through the density of their last Euler step, which is exactly
Gaussian given the path before it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import List, Tuple

import numpy as np

from .dynamics import (
    BLOCK_ELEMENTS,
    DriftSpec,
    PathBundle,
    PotentialSpec,
    _circle_heat_kernel,
    _euler_grid,
    _evaluation_windows,
    constant_drift,
    free_kernel,
    simulate,
    whole_steps,
)
from .errors import CoverageError, NumericalError, PrecisionError, ValidationError
from .estimates import (
    Estimate,
    MCParams,
    mean_estimate,
    ratio_estimate,
    weighted_mean_estimate,
)
from .lattice import CIRCLE, TWO_PI, Volume, interior, wrap_angle
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


# Effective sample size below which a reweighted bridge estimate raises
# PrecisionError.
ESS_THRESHOLD = 200.0


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

    The terms -beta b dBbar + (beta^2/2) b^2 dt are formed in two (R, steps)
    arrays, the increments' (step-major, so each step is contiguous) and one
    more, with the rounding of ((-beta) b) dBbar + (((beta^2/2) b) b) dt.
    They are released on return, before the next block.
    """
    beta, dt = drift.beta, path.dt
    b = drift.evaluate(site, *_evaluation_windows(drift, path, site, lo, hi))
    terms = path.increments(idx, lo, hi)
    work = np.multiply(b, -beta)
    terms *= work
    np.multiply(b, 0.5 * beta * beta, out=work)
    work *= b
    work *= dt
    terms += work
    # summed in step order, as a running sum over the steps would; a
    # pairwise np.sum along the step axis would change the low bits
    for term in terms.T:
        out += term


def log_girsanov_weight(drift: DriftSpec, vol: Volume, path: PathBundle) -> np.ndarray:
    """log M over the interior of vol and the whole path, one value per replica."""
    window = (float(path.times[0]), float(path.times[-1]))
    inner = interior(vol, drift.nbhd)
    total = np.zeros(path.n_replicas)
    for site in inner.sorted_sites():
        total -= psi(drift, site, window, path)
    return total


# ---------------------------------------------------------------------------
# bridge sampling
# ---------------------------------------------------------------------------

def _ou_variance(s: float) -> float:
    return 0.5 * (1.0 - math.exp(-2.0 * s))


def _step(family: str, tau: float, dt: float, prev: int, n: int) -> tuple:
    """(a, b, c) of the exact bridge step x_n = c xi + a x_prev + b end from
    grid point prev to grid point n of [0, tau], the end at tau.

    With s = (n - prev) dt and the OU variance v:

    - quadratic (OU): with rem = tau - n dt,
      prec = 1 / v(s) + e^{-2 rem} / v(rem), a = e^{-s} / (v(s) prec),
      b = e^{-rem} / (v(rem) prec) and c = 1 / sqrt(prec);
    - otherwise the linear Brownian bridge towards the lifted end: with
      rem = tau - prev dt, a = 1 - s / rem, b = s / rem and
      c = sqrt(max(s (rem - s) / rem, 0)).
    """
    s = (n - prev) * dt
    if family == "quadratic":
        rem = tau - n * dt
        es, vs = math.exp(-s), _ou_variance(s)
        er, vr = math.exp(-rem), _ou_variance(rem)
        prec = 1.0 / vs + er * er / vr
        return es / (vs * prec), er / (vr * prec), 1.0 / math.sqrt(prec)
    rem = tau - prev * dt
    return 1.0 - s / rem, s / rem, math.sqrt(max(s * (rem - s) / rem, 0.0))


@functools.lru_cache(maxsize=32)
def _step_coefficients(family: str, tau: float, dt: float) -> np.ndarray:
    """Row k, 1 <= k < K, holds (a_k, b_k, c_k) of the exact bridge step
    x_k = c_k xi_k + a_k x_{k-1} + b_k end over [0, tau] in K = tau / dt
    steps, ``_step`` from grid point k - 1 to k.

    Row 0 is unused.  The result is a read-only (K, 3) array, computed once
    per family, tau and dt.
    """
    table = np.zeros((int(round(tau / dt)), 3))
    for k in range(1, len(table)):
        table[k] = _step(family, tau, dt, k - 1, k)
    table.flags.writeable = False
    return table


def _bridge_steps(rows: np.ndarray, ends: np.ndarray, table: np.ndarray) -> None:
    """Exact bridge steps, in place, for any number of segments.

    ``rows`` has the K steps of a segment on its first axis, then any shape:
    row 0 holds the starts and rows 1 .. K-1 the scaled step noise c_k
    noise, to which step k adds a_k row[k-1], then b_k end, the
    coefficients read from row k of ``table`` (``_step_coefficients``);
    ``ends`` holds the (lifted) values at tau.  Every element goes through
    the same scalar operations, so a segment's path does not depend on
    which other segments are stepped with it.
    """
    work = np.empty_like(ends)
    views = list(rows)
    for prev, row, (a, b) in zip(views, views[1:], table[1:, :2].tolist()):
        np.multiply(prev, a, out=work)
        np.add(row, work, out=row)
        np.multiply(ends, b, out=work)
        np.add(row, work, out=row)


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


@functools.lru_cache(maxsize=32)
def _bridge_coefficients(family: str, tau: float, dt: float, skip: int = 0) -> np.ndarray:
    """Weights of a segment's start and (lifted) end in each of its rows.

    Given its noise, every step of an exact bridge segment is affine in the
    previous row and the end, so a path is base + start * coef[:, 0] +
    end * coef[:, 1], where base is the path from 0 to 0.  The weights are
    the segment's own steps run without noise from the start (1, 0) to the
    end (0, 1).  A segment that leaves out its first ``skip`` steps keeps
    the rows of grid points skip .. K, the first one the jump from the
    start.  The result is a read-only (K+1-skip, 2) array, computed once per
    potential family, tau, dt and skip.
    """
    table = _step_coefficients(family, tau, dt)
    coef = np.zeros((len(table) + 1 - skip, 2))
    coef[0] = _step(family, tau, dt, 0, skip)[:2] if skip else (1.0, 0.0)
    coef[-1, 1] = 1.0
    _bridge_steps(coef[:-1], coef[-1], table[skip:])
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
    """The values one site's bridge path takes at its layers, given the
    layer values.

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


# Families whose free bridges are sampled exactly.
EXACT_FAMILIES = ("quadratic", "circle_free")


def require_exact_bridges(pot: PotentialSpec) -> None:
    """Refuses a potential without exact bridges, naming its family."""
    if pot.family not in EXACT_FAMILIES:
        raise ValidationError(
            f"exact bridges need the quadratic or drift-free circle potential,"
            f" not the {pot.family!r} family"
        )


def multi_bridge_bundle(
    pot: PotentialSpec,
    sites,
    layers,
    t_start: float,
    tau: float,
    dt: float,
    rng: np.random.Generator,
    n_replicas: int,
    skip: int = 0,
    out: np.ndarray = None,
) -> PathBundle:
    """Concatenated exact bridges through the given layer values.

    ``layers`` broadcasts to (layers, sites, R), the sites in the order
    given, e.g. (layers, sites, 1) for one value per site and layer, or to
    (layers, sites, P, R) for P points: the bundle then holds P x R
    replicas, point-major (replica p R + r is point p's path r), and the
    points' bridges share their draws.  Consecutive layers are tau apart,
    the first at t_start, and every segment is bridged exactly.  Only the
    quadratic and drift-free-circle potentials admit exact bridges.

    A bundle may leave out the first ``skip`` steps of its first segment,
    0 <= skip < tau / dt: it then starts at t_start + skip dt with one exact
    bridge jump over skip dt from the layer-0 values towards the layer-1
    values (``_step``), and takes the segment's other steps from there.
    Layer 0 enters only through that jump, and the bundle has the law of
    the same rows of the whole bridge.

    The randomness is drawn for R replicas, site by site, and within a site
    segment by segment (on the circle: each segment's winding uniforms,
    then its step noise, the jump's normal first), and written, scaled by
    its step's c_k, into every point's slot; each site's layer values are
    then lifted through ``_bridge_lifts``.  Once drawn, the segments are
    independent given their ends, so the steps then run for every site and
    point together, one step index at a time: a cut first segment alone,
    then the whole segments together.  At skip 0 the bundle is the whole
    bridge.

    The values are time-major, shape (rows, sites, P, R); ``out``, a
    C-contiguous array of that shape that the caller reuses, receives them
    in place of a new array.
    """
    require_exact_bridges(pot)
    sites = tuple(tuple(int(c) for c in s) for s in sites)
    R = n_replicas
    try:
        layers = np.asarray(layers, dtype=float)
        if layers.ndim not in (3, 4):
            raise ValueError(f"they have {layers.ndim} axes, not 3 or 4")
        if layers.ndim == 3:
            layers = layers[:, :, None]
        layers = np.broadcast_to(layers, (len(layers), len(sites), layers.shape[2], R))
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"layer values must broadcast to (layers, {len(sites)} sites, {R} replicas)"
            f" or (layers, {len(sites)} sites, points, {R} replicas): {exc}"
        ) from None
    n_seg = len(layers) - 1
    if n_seg < 1:
        raise ValidationError("need at least two layers to bridge")
    Kseg = whole_steps(tau, dt, "tau")
    if not 0 <= skip < Kseg:
        raise ValidationError(f"skip = {skip} steps must lie in [0, {Kseg}), the steps of a segment")
    # the row of layer 1, and the last row
    head = Kseg - skip
    K = head + (n_seg - 1) * Kseg
    P = layers.shape[2]
    circle = pot.family == "circle_free"
    # time-major, as ``simulate`` stores its paths: row k holds every site's
    # values at step k, each point's R replicas in a slot of their own.  A
    # segment's rows hold its start, then the step noise, then its (lifted)
    # end; a cut first segment has no start row, and its jump reads the
    # layer-0 values from ``starts``
    shape = (K + 1, len(sites), P, R)
    if out is None:
        values = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValidationError(f"out must be a C-contiguous array of shape {shape}")
    else:
        values = out
    starts = np.empty(values.shape[1:]) if skip else values[0]
    ends = range(head, K + 1, Kseg)
    # the first noise row of each segment
    firsts = (0 if skip else 1, *(end + 1 for end in ends))
    table = _step_coefficients(pot.family, tau, dt)
    a, b, c = _step(pot.family, tau, dt, 0, skip) if skip else (None, None, None)
    # the c of each noise row of a segment, which scales its normal as the
    # row's step would: a cut first segment's jump, then its steps left
    scales = [np.append(c, table[skip + 1:, 2]) if skip else table[1:, 2]] + [table[1:, 2]] * (n_seg - 1)
    # the generator refuses a strided ``out``, so a (site, segment)'s noise
    # rows are drawn into one scratch block of at most BLOCK_ELEMENTS values
    # and written, scaled, into every point's slot, in row order: the same
    # draws as one call.  It keeps one row when a segment has none (tau ==
    # dt) so the loop's step is positive
    noise = np.empty((max(1, min(Kseg - 1, BLOCK_ELEMENTS // R)), R))
    for i in range(len(sites)):
        uniforms = []
        for first, end, scale in zip(firsts, ends, scales):
            if circle:
                uniforms.append(rng.uniform(size=R))
            for lo in range(first, end, len(noise)):
                block = noise[: min(len(noise), end - lo)]
                rng.standard_normal(out=block)
                rows = scale[lo - first : lo - first + len(block), None, None]
                np.multiply(block[:, None], rows, out=values[lo : lo + len(block), i])
        lifts = _bridge_lifts(pot, layers[:, i], tau, uniforms)
        starts[i], values[head::Kseg, i] = lifts[0], lifts[1:]
    del noise
    lo = 0
    if skip:
        # the jump, as ``_bridge_steps`` takes a step, then the dt steps
        # left in the first segment
        jump = values[0]
        jump += starts * a
        jump += values[head] * b
        del starts
        _bridge_steps(values[:head], values[head], table[skip:])
        lo = head
    if K > lo:
        # a (step, segment, site, point, replica) view of rows 0 .. Kseg-1
        # of every whole segment, and a (segment, site, point, replica) view
        # of their ends
        rows = np.moveaxis(values[lo:K].reshape((-1, Kseg) + values.shape[1:]), 1, 0)
        _bridge_steps(rows, values[lo + Kseg::Kseg], table)
    times = t_start + dt * np.arange(skip, n_seg * Kseg + 1)
    values = values.reshape(K + 1, len(sites), P * R)
    return PathBundle(sites, times, values.transpose(2, 1, 0), pot)


@dataclasses.dataclass(frozen=True, eq=False)
class PinnedBridges:
    """Bridges drawn once with their pinned layer values at 0.

    Given its noise, a bridge is affine in its (lifted) layer values, so
    ``moved`` carries the paths to any pinned values.  ``values`` is the
    drawn bundle's time-major buffer, shape (rows, sites, R): the K+1 rows
    of the whole bridge, or K+1-skip when its first segment leaves out
    ``skip`` leading steps.  Each entry of ``pinned`` is (row of a site
    with a pinned layer, its layer values with None where pinned, its
    winding uniforms per segment, None off the circle).  ``coef`` holds the
    weights of a segment's start and end in its rows, ``head`` those in the
    rows the first segment keeps (``_bridge_coefficients``; equal to
    ``coef`` when it keeps them all).
    """

    pot: PotentialSpec
    tau: float
    sites: tuple
    times: np.ndarray
    values: np.ndarray
    pinned: tuple
    coef: np.ndarray
    head: np.ndarray

    @property
    def nbytes(self) -> int:
        held = [u for _, nodes, us in self.pinned for u in (*nodes, *us) if u is not None]
        return sum(np.asarray(u).nbytes for u in held + [self.times, self.values])

    def moved(self, nodes, P: int, out: np.ndarray = None) -> PathBundle:
        """The bundle with its pinned values set, as P x R replicas.

        ``nodes[n][i]`` is site i's values at layer n at P points, shape
        (P, 1), read only where the layer is pinned.  Each path is the
        drawn path plus the coefficient paths times the shift of its
        (lifted) layer values; on the circle the windings are picked again
        from the kept uniforms.  A point's paths do not depend on the other
        points.  The moved values, shape (rows, sites, P, R), are written
        into ``out`` when it is given, a buffer the caller reuses, and into
        a new array otherwise; the bundle views them.
        """
        K = len(self.coef) - 1
        # the leading steps the first segment leaves out: layer n sits in
        # row n K - cut, and a cut bundle holds no row of layer 0
        cut = K + 1 - len(self.head)
        coef, head = self.coef[:, :, None, None], self.head[:, :, None, None]

        def segment(m: int):
            """The rows of segment m after its start, and their weights."""
            if m == 0:
                lo = 0 if cut else 1
                return slice(lo, K - cut + 1), head[lo:]
            return slice(m * K - cut + 1, (m + 1) * K - cut + 1), coef[1:]

        R = self.values.shape[2]
        shape = self.values.shape[:2] + (P, R)
        if out is None:
            values = np.empty(shape)
        elif out.shape != shape:
            raise ValidationError(f"out has shape {out.shape}, not {shape}")
        else:
            values = out
        # the drawn paths, (rows, sites, P, R)
        values[...] = self.values[:, :, None, :]
        for i, column, uniforms in self.pinned:
            filled = [nodes[n][i] if v is None else v for n, v in enumerate(column)]
            lifts = _bridge_lifts(self.pot, filled, self.tau, uniforms)
            # the drawn path already passes through a stored layer value
            for n, (lift, v) in enumerate(zip(lifts, column)):
                if lift is v:
                    continue
                # a pinned value was drawn at 0, which layer 0 does not lift
                shift = lift if n == 0 else lift - self.values[n * K - cut, i]
                if n == 0 and not cut:
                    values[0, i] += shift
                if n > 0:
                    rows, w = segment(n - 1)
                    values[rows, i] += w[:, 1] * shift
                if n < len(lifts) - 1:
                    rows, w = segment(n)
                    values[rows, i] += w[:, 0] * shift
        replicas = values.reshape(values.shape[:2] + (P * R,)).transpose(2, 1, 0)
        return PathBundle(self.sites, self.times, replicas, self.pot)


def pinned_bridges(
    pot: PotentialSpec,
    sites,
    nodes,
    t_start: float,
    tau: float,
    dt: float,
    rng: np.random.Generator,
    n_replicas: int,
    skip: int = 0,
    out: np.ndarray = None,
) -> PinnedBridges:
    """Exact bridges through layer values of which some are pinned later.

    ``nodes[n][i]`` is site i's (R,) value at layer n, or None where the
    value is pinned.  One ``multi_bridge_bundle`` call draws the bridges
    with the pinned values at 0, keeping the circle's winding uniforms and
    leaving out the first ``skip`` steps of the first segment;
    ``PinnedBridges.moved`` sets the pinned values.  ``out``, shape (rows,
    sites, 1, R), receives the drawn values, as in ``multi_bridge_bundle``,
    and the bridges then view it.
    """
    R = n_replicas
    layers = np.array([[np.zeros(R) if v is None else v for v in row] for row in nodes])
    kept = _KeptUniforms(rng)
    drawn = multi_bridge_bundle(pot, sites, layers, t_start, tau, dt, kept, R, skip, out)
    n_seg = len(nodes) - 1
    uniforms = kept.uniforms or [None] * (len(sites) * n_seg)
    pinned = tuple(
        (i, column, tuple(uniforms[i * n_seg:(i + 1) * n_seg]))
        for i, column in enumerate(zip(*nodes))
        if any(v is None for v in column)
    )
    return PinnedBridges(
        pot, tau, drawn.sites, drawn.times, drawn.values.transpose(2, 1, 0), pinned,
        _bridge_coefficients(pot.family, tau, dt), _bridge_coefficients(pot.family, tau, dt, skip),
    )


def _replica_blocks(n_replicas: int, n_pairs: int) -> list:
    """The slices of the blocks of ceil(R / P) replicas that a run over P
    pairs walks: each block's noise is drawn once for all pairs, so the
    pairs' bundle of a block holds about R replicas whatever P is."""
    if n_pairs < 1:
        raise ValidationError("need at least one (x, y) pair")
    size = -(-n_replicas // n_pairs)
    return [slice(lo, min(lo + size, n_replicas)) for lo in range(0, n_replicas, size)]


def free_bridge_paths(
    pot: PotentialSpec,
    vol: Volume,
    pairs,
    t: float,
    dt: float,
    rng: np.random.Generator,
    n_replicas: int,
) -> PathBundle:
    """Free bridges from x to y over [0, t] for each (x, y) of ``pairs``.

    The bundle holds P x R replicas, pair-major (replica p R + r is pair
    p's path r), and all pairs share one draw of R replicas.  The bridges
    are exact for the quadratic and drift-free circle families
    (``multi_bridge_bundle``); any other potential gets free forward paths
    from x (``simulate``), which ``density`` ends at y through the density
    of their last Euler step.
    """
    for x, y in pairs:
        if not (vol.issubset(x.domain) and vol.issubset(y.domain)):
            raise CoverageError("endpoint configurations must cover the volume")
    sites = tuple(vol.sorted_sites())
    starts = [x for x, _ in pairs]
    if pot.family in EXACT_FAMILIES:
        # (layers, sites, pairs, 1)
        layers = np.array([[x.array_for(sites) for x in starts],
                           [y.array_for(sites) for _, y in pairs]]).transpose(0, 2, 1)
        return multi_bridge_bundle(pot, sites, layers[..., None], 0.0, t, dt, rng, n_replicas)
    return simulate(_free_drift(), pot, vol, starts, t, dt, rng, n_replicas)


def _last_step_log_density(drift: DriftSpec, vol: Volume, bundle: PathBundle, ys) -> np.ndarray:
    """log density at y of the last Euler step of each path of a pair-major
    bundle of P x R replicas, P = len(ys), shape (P, R).

    Given the path up to t - dt, x_K is normal at each site, with mean
    x_{K-1} + (-U'(x_{K-1}) / 2 + beta b_{K-1}) dt and variance dt
    (Pedersen, Scand. J. Statist. 22, 1995); b_{K-1} is 0 on the boundary
    layer of vol, as in ``simulate``.  On the circle the normal is wrapped
    (``_circle_heat_kernel`` over 2 pi), and a density that underflows
    gives -inf.
    """
    K, dt, P = bundle.times.size - 1, bundle.dt, len(ys)
    circle = bundle.state_space == CIRCLE
    inner = interior(vol, drift.nbhd)
    out = np.zeros((P, bundle.n_replicas // P))
    for i, site in enumerate(bundle.sites):
        last = bundle.values[:, i, K - 1]
        move = -0.5 * np.asarray(bundle.pot.dU(wrap_angle(last) if circle else last), dtype=float)
        if drift.beta > 0 and site in inner:
            b = drift.evaluate(site, *_evaluation_windows(drift, bundle, site, K - 1, K))
            move += drift.beta * b[:, 0]
        # each pair's y against its own R paths
        d = np.array([y[site] for y in ys])[:, None] - (last + move * dt).reshape(P, -1)
        if circle:
            with np.errstate(divide="ignore"):
                out += np.log(_circle_heat_kernel(dt, wrap_angle(d)) / TWO_PI)
        else:
            out -= d * d / (2.0 * dt) + 0.5 * math.log(TWO_PI * dt)
    return out


def density(
    drift: DriftSpec,
    pot: PotentialSpec,
    vol: Volume,
    pairs,
    t: float,
    mc: MCParams,
    seed: int,
) -> List[Estimate]:
    """Interacting-vs-free endpoint density f_t(x, y) by bridge reweighting,
    one Estimate per (x, y) of ``pairs``.

    The R replicas are walked in blocks of ceil(R / P)
    (``_replica_blocks``), each block's paths drawn once for all pairs on
    the (seed, "bridge") substream (``free_bridge_paths``).  So a pair's
    estimate depends on how many pairs there are, not on their values, and
    a single pair draws as one block.  On exact free bridges from x to y the
    estimate is the mean Girsanov weight M.  Forward paths from x reach y
    through their last Euler step: a path's sample is M over [0, t - dt)
    times q / p, the interacting and free last-step densities at y
    (``_last_step_log_density``), self-normalized with weights p; an
    effective sample size below ESS_THRESHOLD raises PrecisionError.
    """
    rng = substream(seed, "bridge")
    R, P = mc.n_samples, len(pairs)
    exact = pot.family in EXACT_FAMILIES
    ys = [y for _, y in pairs]
    # the free last-step log densities weigh forward paths only
    samples, logp = np.empty((P, R)), None if exact else np.empty((P, R))
    for block in _replica_blocks(R, P):
        bundle = free_bridge_paths(pot, vol, pairs, t, mc.dt, rng, block.stop - block.start)
        if exact:
            samples[:, block] = np.exp(log_girsanov_weight(drift, vol, bundle)).reshape(P, -1)
        else:
            # M over [0, t - dt), from the paths up to x_{K-1}; 1 at t = dt
            head = PathBundle(bundle.sites, bundle.times[:-1], bundle.values[:, :, :-1], pot)
            logm = log_girsanov_weight(drift, vol, head).reshape(P, -1) if head.times.size > 1 else 0
            logq = _last_step_log_density(drift, vol, bundle, ys)
            logp[:, block] = _last_step_log_density(_free_drift(), vol, bundle, ys)
            # a path whose free density underflows has no weight
            ratio = np.subtract(logq, logp[:, block], out=np.full(logq.shape, -np.inf),
                                where=logp[:, block] > -np.inf)
            samples[:, block] = np.exp(logm + ratio)
        # dropped before the next block is drawn
        del bundle
    if exact:
        return [mean_estimate(s, method="bridge") for s in samples]
    return [weighted_mean_estimate(s, w, ESS_THRESHOLD, method="bridge") for s, w in zip(samples, logp)]


def _last_step_densities(drift: DriftSpec, pot: PotentialSpec, vol: Volume, pairs, t: float,
                         dt: float, n_replicas: int, rng: np.random.Generator) -> np.ndarray:
    """Last-step densities at y of Euler runs of R replicas from x, for each
    (x, y) of ``pairs``, shape (P, R): one ``simulate`` call per block of
    ``_replica_blocks``, whose noise all pairs share."""
    P = len(pairs)
    out = np.empty((P, n_replicas))
    for block in _replica_blocks(n_replicas, P):
        bundle = simulate(drift, pot, vol, [x for x, _ in pairs], t, dt, rng, block.stop - block.start)
        out[:, block] = np.exp(_last_step_log_density(drift, vol, bundle, [y for _, y in pairs]))
        # dropped before the next block is run
        del bundle
    return out


def _free_euler_density(pot: PotentialSpec, vol: Volume, pairs, t: float, dt: float) -> np.ndarray:
    """Density at y of the free Euler scheme's end x_K from x over [0, t],
    one value per (x, y) of ``pairs``: the product over the sites of

    - quadratic, x_{k+1} = a x_k + sqrt(dt) xi with a = 1 - dt: the normal
      of mean a^K x and variance (1 - a^{2K}) / (2 - dt), or dt K when
      a^2 = 1;
    - circle_free, x + sqrt(t) xi wrapped: ``free_kernel`` at t over 2 pi.

    ``simulate``'s checks apply to x and y, and a law that is not finite
    raises NumericalError.
    """
    sites, K = _euler_grid(pot, vol, [c for pair in pairs for c in pair], t, dt)
    x, y = (np.array([c.array_for(sites) for c in side]) for side in zip(*pairs))
    if pot.family == "quadratic":
        a = np.float64(1.0 - dt)
        # |a| > 1 overflows as the Euler run would; the check below raises
        with np.errstate(over="ignore", invalid="ignore"):
            var = dt * K if a * a == 1.0 else (1.0 - a ** (2 * K)) / (2.0 - dt)
            dens = np.exp(-((y - a**K * x) ** 2) / (2.0 * var)) / np.sqrt(TWO_PI * var)
    else:
        dens = free_kernel(pot, t, x, y) / TWO_PI
    dens = np.prod(dens, axis=1)
    if not np.all(np.isfinite(dens)):
        raise NumericalError("the free endpoint law is not finite")
    return dens


def _resolved(samples: np.ndarray, side: str) -> Estimate:
    """The mean of one side's last-step densities; PrecisionError, naming
    their effective sample size, when it is not 3 standard errors above 0."""
    est = mean_estimate(samples)
    if est.value <= 0 or est.value < 3.0 * est.stderr:
        ess = samples.sum() ** 2 / np.sum(samples * samples) if est.value > 0 else 0.0
        raise PrecisionError(
            f"the {side} density at y is not resolved: effective sample size"
            f" {ess:.1f} of {samples.size} last steps"
        )
    return est


def density_endpoint_ratio(
    drift: DriftSpec,
    pot: PotentialSpec,
    vol: Volume,
    pairs,
    t: float,
    mc: MCParams,
    seed: int,
) -> List[Estimate]:
    """Independent density route, one Estimate per (x, y) of ``pairs``:
    the ratio of the interacting and free Euler end densities at y.

    The numerator is the mean last-step density at y of the interacting
    system run forward from x (``_last_step_densities``).  The denominator
    is a closed form for the quadratic and drift-free circle families
    (``_free_euler_density``), else the mean last-step density of free
    runs.  A Monte Carlo side under 3 standard errors raises
    PrecisionError.
    """
    R = mc.n_samples
    interacting = _last_step_densities(drift, pot, vol, pairs, t, mc.dt, R,
                                       substream(seed, "endpoint", "interacting"))
    if pot.family in EXACT_FAMILIES:
        free = [Estimate(float(p), 0.0, R) for p in _free_euler_density(pot, vol, pairs, t, mc.dt)]
    else:
        free = [_resolved(p, "free") for p in _last_step_densities(
            _free_drift(), pot, vol, pairs, t, mc.dt, R, substream(seed, "endpoint", "free"))]
    return [ratio_estimate(_resolved(q, "interacting"), p, method="endpoint-ratio")
            for q, p in zip(interacting, free)]
