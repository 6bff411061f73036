"""Initial Gibbs measures, DLR and Dobrushin checks, and the two-layer
(initial condition, evolved state) Gibbs structure.

An interaction is a finite list of volume-local terms with declared
sup-norms; finite-volume Gibbs measures are sampled by single-site
Metropolis with proposals from the a-priori measure m, so beta0 = 0 is
exact.  The two-layer Hamiltonian couples an initial layer x to an evolved
layer y through coupling terms: the free kernel factors -log p_t(x_i, y_i)
and a volume-indexed dynamic interaction Phi (typically the truncated
cluster expansion of the evolved density).  Conditional densities of the
evolved layer are estimated by sampling x from the modified interaction
(initial terms + coupling terms off the window) and averaging the window
factors (the coupling terms on the window).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .clusters import TimeGrid, enumerate_clusters
from .dynamics import (
    DriftSpec,
    PotentialSpec,
    _sample_reference_rng,
    free_kernel,
    reference_quadrature,
)
from .errors import CoverageError, NumericalError, SetupError, ValidationError
from .estimates import Estimate, MCParams
from .expansion import (
    cluster_sampler,
    cluster_weight,
    connected_collections,
    volume_key,
)
from .lattice import Configuration, Volume, concat
from .rng import substream


# ---------------------------------------------------------------------------
# static interactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionTerm:
    """One volume-local potential with a declared sup-norm."""

    volume: Volume
    evaluator: Callable  # dict site -> float or (chains,) array, restricted to volume
    sup_norm: float
    label: str = "term"

    def __post_init__(self):
        if self.sup_norm < 0:
            raise SetupError("sup norm must be nonnegative")
        if not self.volume.sites:
            raise SetupError("term volume must be nonempty")

    def value(self, values: Dict):
        """The evaluator on values restricted to the volume.

        Scalar values give a scalar; arrays along a chain axis give the
        broadcast array of the per-chain values.
        """
        return self.evaluator({s: values[s] for s in self.volume.sites})


@dataclass(frozen=True)
class Interaction:
    """Finite family of terms with inverse temperature beta0."""

    terms: tuple
    beta0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.beta0 < 0:
            raise SetupError("beta0 must be nonnegative")

    def terms_reaching(self, vol: Volume) -> List[InteractionTerm]:
        return [t for t in self.terms if t.volume.sites & vol.sites]

    def terms_at(self, site) -> List[InteractionTerm]:
        site = tuple(site)
        return [t for t in self.terms if site in t.volume]

    def per_site_norm_sums(self) -> Dict:
        """Site -> (sum of norms, Dobrushin-weighted sum of norms)."""
        out: Dict = {}
        for t in self.terms:
            for s in t.volume.sites:
                plain, dob = out.get(s, (0.0, 0.0))
                out[s] = (plain + t.sup_norm, dob + (len(t.volume) - 1) * t.sup_norm)
        return out

    def spot_check_norms(self, pot: PotentialSpec, seed: int) -> None:
        """Verify declared sup-norms against 256 random probe configurations."""
        rng = substream(seed, "norm-check")
        for t in self.terms:
            sites = t.volume.sorted_sites()
            draws = _sample_reference_rng(pot, 256 * len(sites), rng).reshape(-1, len(sites))
            for row in draws:
                val = t.value(dict(zip(sites, row)))
                if abs(val) > t.sup_norm + 1e-9:
                    raise SetupError(
                        f"term '{t.label}' exceeds declared sup norm at a probe point"
                    )


def site_term(site, fn: Callable, sup_norm: float, label: str = "site") -> InteractionTerm:
    site = tuple(site)
    return InteractionTerm(
        Volume(frozenset({site})), lambda v, s=site: fn(v[s]), sup_norm, label
    )


def pair_term(a, b, fn: Callable, sup_norm: float, label: str = "pair") -> InteractionTerm:
    a, b = tuple(a), tuple(b)
    return InteractionTerm(
        Volume(frozenset({a, b})), lambda v, a=a, b=b: fn(v[a], v[b]), sup_norm, label
    )


def nearest_neighbor_terms(
    vol: Volume, coupling: float, kind: str = "tanh"
) -> List[InteractionTerm]:
    """Bounded pair terms on all 1D-nearest-neighbor pairs inside vol.

    kind "tanh": coupling * tanh(x_i) tanh(x_j) (line);
    kind "cos_diff": coupling * cos(x_i - x_j) (circle rotors).
    """
    if kind == "tanh":
        fn = lambda a, b: coupling * np.tanh(a) * np.tanh(b)
    elif kind == "cos_diff":
        fn = lambda a, b: coupling * np.cos(a - b)
    else:
        raise SetupError(f"unknown pair template {kind!r}")
    out = []
    for s in vol.sorted_sites():
        nxt = s[:-1] + (s[-1] + 1,)
        if nxt in vol:
            out.append(pair_term(s, nxt, fn, abs(coupling), f"nn-{kind}"))
    return out


def site_field_terms(vol: Volume, coupling: float, kind: str = "bounded") -> List[InteractionTerm]:
    """Bounded single-site terms: x^2/(1+x^2) (line) or cos x (circle)."""
    if kind == "bounded":
        fn = lambda a: coupling * a * a / (1.0 + a * a)
    elif kind == "cos":
        fn = lambda a: coupling * np.cos(a)
    else:
        raise SetupError(f"unknown site template {kind!r}")
    return [site_term(s, fn, abs(coupling), f"site-{kind}") for s in vol.sorted_sites()]


def empty_interaction(beta0: float = 0.0) -> Interaction:
    return Interaction((), beta0)


# ---------------------------------------------------------------------------
# Hamiltonian and Gibbs sampling
# ---------------------------------------------------------------------------

def hamiltonian(
    phi: Interaction,
    vol: Volume,
    x_vol: Configuration,
    z_boundary: Optional[Configuration] = None,
) -> float:
    """Sum of phi_A over terms A meeting vol, on the merged configuration."""
    full = concat(x_vol, z_boundary) if z_boundary is not None else x_vol
    total = 0.0
    for t in phi.terms_reaching(vol):
        if not t.volume.issubset(full.domain):
            missing = sorted(t.volume.sites - full.domain.sites)
            raise CoverageError(f"term '{t.label}' misses sites {missing[:4]}")
        total += float(t.value(full.values))
    if not math.isfinite(total):
        raise NumericalError("hamiltonian evaluated to a non-finite value")
    return total


def _draw_chains(
    pot: PotentialSpec,
    n_sites: int,
    mc: MCParams,
    n_samples: int,
    rngs: Sequence[np.random.Generator],
):
    """Initial values and pre-drawn moves of independent chains.

    Chain c reads rngs[c]: n_sites initial draws from m, then for the
    burn-in and for each of the n_samples blocks of thin sweeps its
    proposals from m followed by its uniforms.  Chains draw in list order,
    so a generator shared by several chains is read chain after chain.
    Returns the initial values, (n_sites, chains), and the proposals and
    log-uniforms, both (burn_in + n_samples * thin, n_sites, chains).
    """
    blocks = [mc.burn_in] + [mc.thin] * n_samples
    init = np.empty((n_sites, len(rngs)))
    proposals = np.empty((sum(blocks), n_sites, len(rngs)))
    logu = np.empty_like(proposals)
    for c, rng in enumerate(rngs):
        init[:, c] = _sample_reference_rng(pot, n_sites, rng)
        start = 0
        for sweeps in blocks:
            stop = start + sweeps
            proposals[start:stop, :, c] = _sample_reference_rng(
                pot, sweeps * n_sites, rng
            ).reshape(sweeps, n_sites)
            logu[start:stop, :, c] = np.log(rng.uniform(size=(sweeps, n_sites)))
            start = stop
    return init, proposals, logu


def _metropolis_sweeps(
    sites: Sequence,
    values: Dict,
    site_energy: Callable,
    scale: float,
    proposals: np.ndarray,
    logu: np.ndarray,
) -> None:
    """In-place single-site Metropolis of independent chains over pre-drawn moves.

    ``values`` maps each site to a (chains,) array.  ``proposals`` and
    ``logu`` are (sweeps, sites, chains) arrays whose row k drives sweep k.
    For the move at site s, values[s] holds the (2, chains) stack of the old
    and the proposed value while site_energy(values, s) evaluates both; a
    scalar energy broadcasts over the stack.  Each chain rejects its
    proposal when logu >= -scale * (change of the local energy).
    """
    for props, us in zip(proposals, logu):
        for s, prop, lu in zip(sites, props, us):
            old = values[s]
            values[s] = np.array((old, prop))
            energy = site_energy(values, s)
            if np.ndim(energy) < 2:  # the same for both values, e.g. no terms
                energy = (energy, energy)
            d_e = energy[1] - energy[0]
            if not np.isfinite(d_e).all():
                raise SetupError("non-finite local energy in Gibbs sampling")
            values[s] = np.where(lu >= -scale * d_e, old, prop)


def _site_energy(phi: Interaction, sites: Sequence) -> Callable:
    """Local energy at s: the sum of the terms of phi that contain s."""
    site_terms = {s: phi.terms_at(s) for s in sites}
    return lambda values, s: sum(t.value(values) for t in site_terms[s])


def sample_gibbs(
    phi: Interaction,
    pot: PotentialSpec,
    vol: Volume,
    boundary: Optional[Configuration],
    sweeps: int,
    seed: int,
    rng: Optional[np.random.Generator] = None,
) -> Configuration:
    """One draw from the finite-volume Gibbs measure (free boundary if None)."""
    if sweeps < 1:
        raise ValidationError("sweeps must be >= 1")
    if rng is None:
        rng = substream(seed, "gibbs")
    mc = MCParams(burn_in=0, thin=sweeps)
    [[sample]] = gibbs_chain(phi, pot, vol, [boundary], 1, mc, [rng])
    return Configuration(dict(zip(vol.sorted_sites(), sample)), pot.state_space)


def gibbs_chain(
    phi: Interaction,
    pot: PotentialSpec,
    vol: Volume,
    boundaries: Sequence[Optional[Configuration]],
    n_samples: int,
    mc: MCParams,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Thinned samples of independent Metropolis chains after burn-in.

    Chain c is held at boundaries[c] outside vol (None for a free boundary)
    and draws from rngs[c], as laid out in ``_draw_chains``; a term that
    reads a site neither in vol nor held by every boundary raises
    CoverageError.  All chains advance together.  Returns a
    (chains, n_samples, |vol|) array in ``vol.sorted_sites()`` order.
    """
    if len(boundaries) != len(rngs):
        raise ValidationError("gibbs_chain needs one boundary per generator")
    sites = vol.sorted_sites()
    b, thin = mc.burn_in, mc.thin
    init, proposals, logu = _draw_chains(pot, len(sites), mc, n_samples, rngs)
    # init on vol, then the boundaries at the other sites the terms read
    values = dict(zip(sites, init))
    for t in phi.terms_reaching(vol):
        for s in sorted(t.volume.sites - values.keys()):
            if any(z is None or s not in z.values for z in boundaries):
                msg = f"term '{t.label}' reaches {s}, outside vol and not in every boundary"
                raise CoverageError(msg)
            values[s] = np.array([z.values[s] for z in boundaries])
    energy = _site_energy(phi, sites)
    out = np.empty((len(rngs), n_samples, len(sites)))
    _metropolis_sweeps(sites, values, energy, phi.beta0, proposals[:b], logu[:b])
    for j, k in enumerate(range(b, len(proposals), thin)):
        _metropolis_sweeps(
            sites, values, energy, phi.beta0, proposals[k:k + thin], logu[k:k + thin]
        )
        for i, s in enumerate(sites):
            out[:, j, i] = values[s]
    return out


def single_site_conditional_quadrature(
    phi: Interaction,
    pot: PotentialSpec,
    site,
    boundary: Optional[Configuration] = None,
    n: int = 2001,
):
    """Grid and probabilities of the one-site conditional e^{-beta0 h} dm."""
    site = tuple(site)
    xs, w = reference_quadrature(pot, n)
    energies = np.zeros_like(xs)
    terms = phi.terms_at(site)
    base = dict(boundary.values) if boundary is not None else {}
    for i, v in enumerate(xs):
        base[site] = float(v)
        energies[i] = sum(t.value(base) for t in terms)
    dens = w * np.exp(-phi.beta0 * (energies - energies.min()))
    return xs, dens / dens.sum()


def dobrushin_check(phi: Interaction) -> dict:
    """Exact uniqueness bound beta0 * sup_i sum_{A ni i} (|A|-1) ||phi_A||."""
    sums = phi.per_site_norm_sums()
    value = phi.beta0 * max((v[1] for v in sums.values()), default=0.0)
    return {"value": value, "passes": bool(value < 1.0)}


def dlr_test(
    phi: Interaction,
    pot: PotentialSpec,
    big_vol: Volume,
    sub_vol: Volume,
    n_outer: int,
    n_inner: int,
    seed: int,
    mc: Optional[MCParams] = None,
) -> dict:
    """Consistency of the big-volume measure with its conditional kernels.

    Compares E[f] under the big-volume Gibbs measure against the two-stage
    average (outer draw fixes the boundary, inner chain resamples sub_vol)
    for a battery of bounded local observables.
    """
    if not sub_vol.issubset(big_vol):
        raise CoverageError("sub volume must sit inside the big volume")
    if n_outer < 2 or n_inner < 1:
        # fewer leave the stderrs, and so every z, NaN
        raise ValidationError(
            f"dlr_test needs n_outer >= 2 and n_inner >= 1, not {n_outer} and {n_inner}"
        )
    mc = mc or MCParams(n_samples=2, burn_in=100, thin=2)
    sub_sites = sub_vol.sorted_sites()
    i0 = sub_sites[0]

    fs: List[Tuple[str, Callable]] = [
        ("tanh_first", lambda c: math.tanh(c[i0])),
        ("cos_first", lambda c: math.cos(c[i0])),
        ("mean_tanh", lambda c: np.mean([math.tanh(c[s]) for s in sub_sites])),
    ]
    if len(sub_sites) >= 2:
        i1 = sub_sites[1]
        fs.append(("pair_tanh", lambda c: math.tanh(c[i0]) * math.tanh(c[i1])))

    big_sites = big_vol.sorted_sites()
    # direct and outer chains advance together on their own generators; the
    # inner chains share rng_inner and read it chain after chain
    direct, outer = gibbs_chain(
        phi, pot, big_vol, [None, None], n_outer, mc,
        [substream(seed, "dlr", "direct"), substream(seed, "dlr", "outer")],
    )
    held = [(s, i) for i, s in enumerate(big_sites) if s not in sub_vol.sites]
    boundaries = [
        Configuration({s: row[i] for s, i in held}, pot.state_space)
        for row in outer.tolist()
    ]
    rng_inner = substream(seed, "dlr", "inner")
    inner = gibbs_chain(
        phi, pot, sub_vol, boundaries, n_inner, mc, [rng_inner] * n_outer
    )

    inner_means: Dict[str, list] = {name: [] for name, _ in fs}
    for chain in inner:
        samples = [dict(zip(sub_sites, row)) for row in chain.tolist()]
        for name, f in fs:
            inner_means[name].append(float(np.mean([f(c) for c in samples])))
    direct_samples = [dict(zip(big_sites, row)) for row in direct.tolist()]

    rows = []
    for name, f in fs:
        d = np.array([f(c) for c in direct_samples])
        a = np.array(inner_means[name])
        m1, s1 = d.mean(), d.std(ddof=1) / math.sqrt(d.size)
        m2, s2 = a.mean(), a.std(ddof=1) / math.sqrt(a.size)
        denom = math.hypot(s1, s2) or 1.0
        rows.append(
            {
                "f": name,
                "direct": m1,
                "directStderr": s1,
                "twoStage": m2,
                "twoStageStderr": s2,
                "z": (m1 - m2) / denom,
            }
        )
    return {"rows": rows, "maxAbsZ": max(abs(r["z"]) for r in rows)}


# ---------------------------------------------------------------------------
# two-layer structure
# ---------------------------------------------------------------------------

# Bytes of cluster samplers an ExpansionDynamicInteraction keeps.
SAMPLER_BUDGET_BYTES = 64 * 2**20


class ZeroDynamicInteraction:
    """Phi identically zero (the beta = 0 evolved interaction)."""

    def traces(self) -> List[Volume]:
        return []


class ExpansionDynamicInteraction:
    """Phi from the truncated cluster expansion, evaluated on demand.

    The cluster enumeration and the connected-collection combinatorics are
    precomputed once, on the drift's neighbourhood.  Each cluster's weight
    randomness is drawn once, into a ``cluster_sampler`` built on first use
    from the substream keyed by the cluster's index, and every weight is
    that sampler evaluated at the pinned values of x and y (common random
    numbers), so Phi is a fixed deterministic function of the
    configurations.  ``value`` broadcasts over arrays of pinned values like
    every other term, evaluating each cluster of the group once per call.

    Samplers are kept under SAMPLER_BUDGET_BYTES, the least recently used
    evicted first; ``evictions`` counts the samplers dropped.  A dropped
    sampler is drawn again from the same substream, so no eviction changes
    a result.
    """

    def __init__(
        self,
        drift: DriftSpec,
        pot: PotentialSpec,
        vol: Volume,
        grid: TimeGrid,
        k_max: int,
        n_max: int,
        mc: MCParams,
        seed: int,
    ):
        self.drift = drift
        self.pot = pot
        self.n_max = n_max
        self.mc = mc
        self.seed = seed
        self._clusters = enumerate_clusters(vol, drift.nbhd, grid, k_max)
        coll = connected_collections(self._clusters, drift.nbhd, n_max)
        # {trace key: [(cluster indices, C), ...]}, the table's rows in order
        self._groups: Dict[tuple, list] = {}
        for row, C, t in zip(coll.index.tolist(), coll.coef.tolist(), coll.trace.tolist()):
            combo = tuple(i for i in row if i >= 0)
            self._groups.setdefault(coll.keys[t], []).append((combo, C))
        self._samplers: OrderedDict = OrderedDict()
        self._sampler_bytes = 0
        self.evictions = {"samplers": 0}

    def traces(self) -> List[Volume]:
        return [Volume(frozenset(k)) for k in self._groups]

    def _sampler(self, i: int):
        sampler = self._samplers.get(i)
        if sampler is not None:
            self._samplers.move_to_end(i)
            return sampler
        sampler = cluster_sampler(
            self._clusters[i], self.drift, self.pot, self.mc,
            substream(self.seed, "weight", i),
        )
        while self._samplers and self._sampler_bytes + sampler.nbytes > SAMPLER_BUDGET_BYTES:
            _, old = self._samplers.popitem(last=False)
            self._sampler_bytes -= old.nbytes
            self.evictions["samplers"] += 1
        self._samplers[i] = sampler
        self._sampler_bytes += sampler.nbytes
        return sampler

    def value(self, delta: Volume, x, y):
        """Phi_delta(x, y).

        x and y are Configurations or any mappings from site tuples to
        values (on the circle, angles in [0, 2 pi) as a Configuration holds
        them); they must cover the pinned sites of the clusters behind delta.
        Values may be scalars or arrays of one broadcast shape, and the
        result broadcasts with them: a float for scalars.
        """
        group = self._groups.get(volume_key(delta))
        if not group:
            return 0.0
        weights: Dict[int, object] = {}
        total = 0.0
        for combo, C in group:
            prod = 1.0
            for i in combo:
                if i not in weights:
                    weights[i] = cluster_weight(self._sampler(i), x, y).value
                prod = prod * weights[i]
            total = total + -C * prod
        return total


class CouplingTerm(NamedTuple):
    """A term of the two-layer coupling: evaluator(x, y) reads the site ->
    value mappings x and y on volume, and broadcasts over arrays in x."""

    volume: Volume
    evaluator: Callable


@dataclass(frozen=True)
class BiSpaceInteraction:
    """Initial interaction, dynamic interaction and kernel coupling time."""

    initial: Interaction
    dynamic: object  # ZeroDynamicInteraction-like
    pot: PotentialSpec
    t: float

    def __post_init__(self):
        if self.t <= 0:
            raise ValidationError("coupling time t must be positive")

    def coupling_terms(self, vol: Volume) -> List[CouplingTerm]:
        """The kernel pinning -log p_t(x_i, y_i) at each site i of vol, in
        sorted order, then Phi_Delta(x, y) for every dynamic trace Delta."""
        return [
            CouplingTerm(
                Volume(frozenset({i})),
                lambda x, y, i=i: -_log_kernel(self.pot, self.t, x[i], y[i]),
            )
            for i in vol.sorted_sites()
        ] + [
            CouplingTerm(dv, lambda x, y, dv=dv: self.dynamic.value(dv, x, y))
            for dv in self.dynamic.traces()
        ]


def _log_kernel(pot: PotentialSpec, t: float, x, y):
    """log p_t(x, y), elementwise; a scalar takes libm's log, from which
    numpy's SIMD log can differ in the last place, depending on the CPU."""
    p = free_kernel(pot, t, x, y)
    if not np.all((p > 0.0) & np.isfinite(p)):
        raise NumericalError(f"free kernel nonpositive at ({x}, {y})")
    return np.log(p) if np.ndim(p) else math.log(p)


def bispace_hamiltonian(
    bsi: BiSpaceInteraction,
    delta: Volume,
    delta_p: Volume,
    x: Configuration,
    y: Configuration,
) -> float:
    """Two-layer Hamiltonian of the window (delta on layer x, delta_p on y):
    beta0 * h_delta(x) plus the coupling terms that meet delta union delta_p.
    """
    union = delta.union(delta_p)
    total = bsi.initial.beta0 * hamiltonian(bsi.initial, delta, x)
    for c in bsi.coupling_terms(union):
        if c.volume.sites & union.sites:
            total += c.evaluator(x.values, y.values)
    return total


def _modified_interaction(
    bsi: BiSpaceInteraction, vol: Volume, y_boundary: Configuration
) -> Interaction:
    """beta0 times the initial terms, and the coupling terms off the window
    vol at y = y_boundary (no declared bound: -log p_t is unbounded on the
    line), at inverse temperature 1."""
    b0, y = bsi.initial.beta0, y_boundary.values
    initial = [
        InteractionTerm(t.volume, lambda v, t=t: b0 * t.evaluator(v), b0 * t.sup_norm, t.label)
        for t in bsi.initial.terms
    ]
    coupling = [
        InteractionTerm(c.volume, lambda v, c=c: c.evaluator(v, y), math.inf, "coupling")
        for c in bsi.coupling_terms(y_boundary.domain)
        if not c.volume.sites & vol.sites
    ]
    return Interaction(tuple(initial + coupling), beta0=1.0)


def conditional_density(
    bsi: BiSpaceInteraction,
    vol: Volume,
    z_vol: Configuration,
    y_boundary: Configuration,
    mc: MCParams,
    seed: int,
    n_inner: int = 16,
) -> Estimate:
    """Density of the evolved window values z given the evolved boundary.

    Estimated as the ratio of the window factor averaged over x drawn from
    the modified interaction, and its m-average over window values (the
    normalizer), with a delta-method error bar.
    """
    if vol.sites & y_boundary.domain.sites:
        raise ValidationError("y_boundary must not cover the window itself")
    if not vol.issubset(z_vol.domain):
        raise CoverageError("z_vol must cover the window")
    work = vol.union(y_boundary.domain)
    lam_sites = vol.sorted_sites()
    window_terms = [c for c in bsi.coupling_terms(vol) if c.volume.sites & vol.sites]

    rng = substream(seed, "conditional")
    [chain] = gibbs_chain(
        _modified_interaction(bsi, vol, y_boundary), bsi.pot, work, [None],
        mc.n_samples, mc, [rng],
    )
    n = len(chain)
    # fresh normalizer draws per outer sample keep the b_k independent
    z_inner = _sample_reference_rng(
        bsi.pot, n * n_inner * len(lam_sites), rng
    ).reshape(n, n_inner, len(lam_sites))

    # the window factors at an (outer sample, 1 + n_inner) grid of points:
    # column 0 holds the target window values, the others z_inner; the
    # window and y_boundary are disjoint, checked above
    xv = {s: chain[:, j, None] for j, s in enumerate(work.sorted_sites())}
    yv = dict(y_boundary.values)
    for j, s in enumerate(lam_sites):
        yv[s] = np.concatenate([np.full((n, 1), z_vol[s]), z_inner[:, :, j]], axis=1)
    factors = np.exp(-sum(c.evaluator(xv, yv) for c in window_terms))
    a = factors[:, 0]
    b = factors[:, 1:].mean(axis=1)
    ma, mb = a.mean(), b.mean()
    if mb <= 0:
        raise NumericalError("conditional density normalizer is nonpositive")
    va = a.var(ddof=1) / n
    vb = b.var(ddof=1) / n
    cab = float(np.cov(a, b, ddof=1)[0, 1]) / n if n > 1 else 0.0
    value = ma / mb
    var = va / mb**2 + ma**2 * vb / mb**4 - 2.0 * ma * cab / mb**3
    return Estimate(value, math.sqrt(max(var, 0.0)), n, method="conditional")


def quasilocality_probe(
    bsi: BiSpaceInteraction,
    vol: Volume,
    deltas: Sequence[Volume],
    probe_pairs: Sequence[Tuple[Configuration, Configuration]],
    mc: MCParams,
    seed: int,
) -> List[dict]:
    """Sensitivity of the conditional density to the boundary beyond delta.

    For each delta, every probe pair (z, z') is merged into boundaries that
    agree on delta and differ outside; the row reports the worst absolute
    difference of the two conditional-density estimates, computed with
    common random numbers so full agreement gives an exact zero.
    """
    for i in range(1, len(deltas)):
        if not deltas[i - 1].issubset(deltas[i]):
            raise ValidationError("delta sequence must be increasing")
    # conditional_density is a pure function of its inputs (each weight is
    # its cluster's fixed sampler evaluated at the pinned values), so each
    # distinct pair of window values and boundary is estimated once: y1
    # serves every delta, and the mixed boundary at the full delta is y1 again
    window = vol.sorted_sites()
    seen: Dict[tuple, Estimate] = {}
    estimates = []  # per pair: g1, then g2 for each delta
    for z_a, z_b in probe_pairs:
        if not vol.issubset(z_a.domain) or z_b.domain != z_a.domain:
            raise CoverageError("each probe pair must cover the window, on one domain")
        boundary_sites = z_a.domain.sites - vol.sites
        ys = [z_a.restrict(Volume(boundary_sites))]
        for delta in deltas:
            mixed = {
                s: (z_a[s] if s in delta.sites else z_b[s]) for s in boundary_sites
            }
            ys.append(Configuration(mixed, z_a.state_space))
        pair_estimates = []
        for y in ys:
            key = (tuple(z_a[s] for s in window), tuple(sorted(y.values.items())))
            if key not in seen:
                seen[key] = conditional_density(bsi, vol, z_a, y, mc, seed)
            pair_estimates.append(seen[key])
        estimates.append(pair_estimates)
    rows = []
    for k, delta in enumerate(deltas):
        sup_diff = 0.0
        noise = 0.0
        for g1, *g2s in estimates:
            g2 = g2s[k]
            sup_diff = max(sup_diff, abs(g1.value - g2.value))
            noise = max(noise, math.hypot(g1.stderr, g2.stderr))
        rows.append(
            {
                "delta": [list(s) for s in delta.sorted_sites()],
                "supDiff": sup_diff,
                "noise": noise,
            }
        )
    return rows
