"""Initial Gibbs measures, DLR and Dobrushin checks, and the two-layer
(initial condition, evolved state) Gibbs structure.

An interaction is a finite list of volume-local terms with declared
sup-norms; finite-volume Gibbs measures are sampled by single-site
Metropolis with proposals from the a-priori measure m, so beta0 = 0 is
exact.  The two-layer Hamiltonian couples an initial layer x to an evolved
layer y through the free kernel factors -log p_t(x_i, y_i) and a
volume-indexed dynamic interaction Phi (typically the truncated cluster
expansion of the evolved density).  Conditional densities of the evolved
layer are estimated by sampling x from the decoupled modified interaction
(initial terms + kernel pinning off the window + Phi terms not touching
the window) and averaging the window factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clusters import TimeGrid, enumerate_clusters, trace
from .dynamics import (
    DriftSpec,
    PotentialSpec,
    _sample_reference_rng,
    free_kernel,
    reference_quadrature,
)
from .errors import CoverageError, NumericalError, SetupError, ValidationError
from .estimates import Estimate, MCParams
from .expansion import cluster_weight, connected_collections, volume_key
from .lattice import Configuration, Neighborhood, Volume, concat
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

    def __hash__(self):
        return hash((self.volume, id(self.evaluator), self.sup_norm, self.label))

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

    def spot_check_norms(self, pot: PotentialSpec, seed: int, n_probe: int = 256) -> None:
        """Verify declared sup-norms against random probe configurations."""
        rng = substream(seed, "norm-check")
        for t in self.terms:
            sites = t.volume.sorted_sites()
            draws = _sample_reference_rng(pot, n_probe * len(sites), rng).reshape(
                n_probe, len(sites)
            )
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
    blocks: Sequence[int],
    rngs: Sequence[np.random.Generator],
):
    """Initial values and pre-drawn moves of independent chains.

    Chain c reads rngs[c]: n_sites initial draws from m, then for each block
    of sweeps its proposals from m followed by its uniforms.  Chains draw in
    list order, so a generator shared by several chains is read chain after
    chain.  Returns the initial values, (n_sites, chains), and the proposals
    and log-uniforms, both (sum(blocks), n_sites, chains).
    """
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


def _chain_values(
    sites: Sequence, init: np.ndarray, boundaries: Sequence[Optional[Configuration]]
) -> Dict:
    """Site -> (chains,) values: init on sites, chain c's boundary elsewhere."""
    values = dict(zip(sites, init))
    held = {s for b in boundaries if b is not None for s in b.values} - values.keys()
    for s in sorted(held):
        if any(b is None or s not in b.values for b in boundaries):
            raise CoverageError(f"boundary site {s} is not held in every chain")
        values[s] = np.array([b.values[s] for b in boundaries])
    return values


def _metropolis_sweeps(
    sites: Sequence,
    values: Dict,
    local_energy: Callable,
    scale: float,
    proposals: np.ndarray,
    logu: np.ndarray,
) -> None:
    """In-place single-site Metropolis of independent chains over pre-drawn moves.

    ``values`` maps each site to a (chains,) array.  ``proposals`` and
    ``logu`` are (sweeps, sites, chains) arrays whose row k drives sweep k.
    For the move at site s, values[s] holds the (2, chains) stack of the old
    and the proposed value while local_energy(values, s) evaluates both; a
    scalar energy broadcasts over the stack.  Each chain rejects its
    proposal when logu >= -scale * (change of the local energy).
    """
    for props, us in zip(proposals, logu):
        for s, prop, lu in zip(sites, props, us):
            old = values[s]
            values[s] = np.array((old, prop))
            energy = local_energy(values, s)
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
    for t in phi.terms_reaching(vol):
        dom = vol.sites | (boundary.domain.sites if boundary is not None else set())
        if not t.volume.sites <= dom:
            raise CoverageError(f"term '{t.label}' reaches uncovered sites")
    if rng is None:
        rng = substream(seed, "gibbs")
    sites = vol.sorted_sites()
    init, proposals, logu = _draw_chains(pot, len(sites), [sweeps], [rng])
    values = _chain_values(sites, init, [boundary])
    _metropolis_sweeps(sites, values, _site_energy(phi, sites), phi.beta0, proposals, logu)
    return Configuration({s: values[s][0] for s in sites}, pot.state_space)


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
    and draws from rngs[c], as laid out in ``_draw_chains``.  All chains
    advance together.  Returns a (chains, n_samples, |vol|) array in
    ``vol.sorted_sites()`` order.
    """
    if len(boundaries) != len(rngs):
        raise ValidationError("gibbs_chain needs one boundary per generator")
    sites = vol.sorted_sites()
    b, thin = mc.burn_in, mc.thin
    init, proposals, logu = _draw_chains(pot, len(sites), [b] + [thin] * n_samples, rngs)
    values = _chain_values(sites, init, boundaries)
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
    for t in phi.terms_reaching(sub_vol):
        if not t.volume.issubset(big_vol):
            raise CoverageError(
                f"term '{t.label}' reaches outside big_vol: margin too small"
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

class ZeroDynamicInteraction:
    """Phi identically zero (the beta = 0 evolved interaction)."""

    def traces(self) -> List[Volume]:
        return []

    def value(self, delta: Volume, x: Configuration, y: Configuration) -> float:
        return 0.0


class ExpansionDynamicInteraction:
    """Phi from the truncated cluster expansion, evaluated on demand.

    The cluster enumeration and the connected-collection combinatorics are
    precomputed once; per call only the weights of the clusters behind the
    requested trace are estimated.  Every weight call with the same trace
    values reuses both the cached result and the same random substream, so
    Phi behaves as a fixed deterministic function of the configurations
    (common random numbers).
    """

    def __init__(
        self,
        drift: DriftSpec,
        pot: PotentialSpec,
        vol: Volume,
        nbhd: Neighborhood,
        grid: TimeGrid,
        k_max: int,
        n_max: int,
        mc: MCParams,
        seed: int,
    ):
        self.drift = drift
        self.pot = pot
        self.vol = vol
        self.nbhd = nbhd
        self.grid = grid
        self.k_max = k_max
        self.n_max = n_max
        self.mc = mc
        self.seed = seed
        self._clusters = enumerate_clusters(vol, nbhd, grid, k_max)
        self._groups = connected_collections(self._clusters, nbhd, n_max)
        self._weights: Dict[tuple, float] = {}

    def traces(self) -> List[Volume]:
        return [Volume(frozenset(k)) for k in sorted(self._groups)]

    def _filled(self, cfg: Configuration) -> Configuration:
        # weights only read the configurations on their own trace, so
        # missing sites (e.g. window sites absent from a boundary-only y)
        # can be padded with any value without changing the result
        vals = {s: (cfg[s] if s in cfg else 0.0) for s in self.vol.sorted_sites()}
        return Configuration(vals, self.pot.state_space)

    def _weight(self, i: int, x: Configuration, y: Configuration) -> float:
        G = self._clusters[i]
        tr = trace(G).sorted_sites()
        M = self.grid.M
        key = (
            i,
            tuple(round(x[s], 12) if s in x else 0.0 for s in tr if (s, 0) in G.support),
            tuple(round(y[s], 12) if s in y else 0.0 for s in tr if (s, M) in G.support),
        )
        if key not in self._weights:
            if len(self._weights) > 200_000:
                self._weights.clear()
            est = cluster_weight(
                G, self._filled(x), self._filled(y), self.drift, self.pot,
                self.mc, rng=substream(self.seed, "weight", i),
            )
            self._weights[key] = est.value
        return self._weights[key]

    def value(self, delta: Volume, x: Configuration, y: Configuration) -> float:
        group = self._groups.get(volume_key(delta))
        if not group:
            return 0.0
        total = 0.0
        for combo, C in group:
            prod = 1.0
            for i in combo:
                prod *= self._weight(i, x, y)
            total += -C * prod
        return total


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

    def __hash__(self):
        return hash((self.initial, id(self.dynamic), hash(self.pot), self.t))


def _log_kernel(pot: PotentialSpec, t: float, xi: float, yi: float) -> float:
    p = float(free_kernel(pot, t, xi, yi))
    if p <= 0.0 or not math.isfinite(p):
        raise NumericalError(f"free kernel nonpositive at ({xi}, {yi})")
    return math.log(p)


def bispace_hamiltonian(
    bsi: BiSpaceInteraction,
    delta: Volume,
    delta_p: Volume,
    x: Configuration,
    y: Configuration,
) -> float:
    """Two-layer Hamiltonian of the window (delta on layer x, delta_p on y).

    beta0 * h_delta(x) - sum over delta union delta_p of log p_t(x_i, y_i)
    plus the dynamic terms whose trace meets the union.
    """
    union = delta.union(delta_p)
    if not union.sites:
        return 0.0
    total = bsi.initial.beta0 * hamiltonian(bsi.initial, delta, x) if delta.sites else 0.0
    for i in union.sorted_sites():
        total -= _log_kernel(bsi.pot, bsi.t, x[i], y[i])
    for dv in bsi.dynamic.traces():
        if dv.sites & union.sites:
            total += bsi.dynamic.value(dv, x, y)
    return total


def _modified_energy_sampler(
    bsi: BiSpaceInteraction,
    lam: Volume,
    work: Volume,
    y: Configuration,
    n_samples: int,
    mc: MCParams,
    rng: np.random.Generator,
) -> List[Dict]:
    """Chain of x-layer samples from the decoupled modified interaction.

    Energy: beta0 * (initial terms) + Phi terms avoiding the window
    - sum over off-window sites of log p_t(x_i, y_i).
    """
    phi = bsi.initial
    sites = work.sorted_sites()
    phi_vols = [dv for dv in bsi.dynamic.traces() if not (dv.sites & lam.sites)]

    def point_energy(values: Dict, s) -> float:
        e = phi.beta0 * sum(t.value(values) for t in phi.terms_at(s))
        if s not in lam.sites:
            e -= _log_kernel(bsi.pot, bsi.t, values[s], y[s])
        if phi_vols:
            xcfg = Configuration(dict(values), bsi.pot.state_space)
            for dv in phi_vols:
                if s in dv.sites:
                    e += bsi.dynamic.value(dv, xcfg, y)
        return e

    def local_energy(values: Dict, s) -> np.ndarray:
        # one chain: the (2, 1) stack at s becomes two scalar evaluations
        point = {r: v[0] for r, v in values.items()}
        energies = np.empty((2, 1))
        for j, v in enumerate(values[s][:, 0]):
            point[s] = v
            energies[j, 0] = point_energy(point, s)
        return energies

    b = mc.burn_in
    init, proposals, logu = _draw_chains(
        bsi.pot, len(sites), [b + n_samples * mc.thin], [rng]
    )
    values = dict(zip(sites, init))
    _metropolis_sweeps(sites, values, local_energy, 1.0, proposals[:b], logu[:b])
    out = []
    for k in range(b, len(proposals), mc.thin):
        _metropolis_sweeps(
            sites, values, local_energy, 1.0,
            proposals[k:k + mc.thin], logu[k:k + mc.thin],
        )
        out.append({s: v[0] for s, v in values.items()})
    return out


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
    the decoupled modified interaction, and its m-average over window
    values (the normalizer), with a delta-method error bar.
    """
    if vol.sites & y_boundary.domain.sites:
        raise ValidationError("y_boundary must not cover the window itself")
    if not vol.issubset(z_vol.domain):
        raise CoverageError("z_vol must cover the window")
    work = vol.union(y_boundary.domain)
    lam_sites = vol.sorted_sites()
    phi_window = [dv for dv in bsi.dynamic.traces() if dv.sites & vol.sites]

    rng = substream(seed, "conditional")
    xs = _modified_energy_sampler(bsi, vol, work, y_boundary, mc.n_samples, mc, rng)
    # fresh normalizer draws per outer sample keep the b_k independent
    z_inner = _sample_reference_rng(
        bsi.pot, len(xs) * n_inner * len(lam_sites), rng
    ).reshape(len(xs), n_inner, len(lam_sites))

    def window_factor(xcfg: Configuration, zvals: Dict) -> float:
        val = 0.0
        for s in lam_sites:
            val += _log_kernel(bsi.pot, bsi.t, xcfg[s], zvals[s])
        if phi_window:
            zcfg = Configuration(zvals, bsi.pot.state_space)
            ycfg = concat(zcfg, y_boundary)
            for dv in phi_window:
                val -= bsi.dynamic.value(dv, xcfg, ycfg)
        return math.exp(val)

    z_target = {s: z_vol[s] for s in lam_sites}
    a = np.empty(len(xs))
    b = np.empty(len(xs))
    for k, xv in enumerate(xs):
        xcfg = Configuration(xv, bsi.pot.state_space)
        a[k] = window_factor(xcfg, z_target)
        b[k] = np.mean(
            [
                window_factor(xcfg, dict(zip(lam_sites, row)))
                for row in z_inner[k]
            ]
        )
    ma, mb = a.mean(), b.mean()
    if mb <= 0:
        raise NumericalError("conditional density normalizer is nonpositive")
    n = a.size
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
    # conditional_density is a pure function of its inputs (weights use
    # common random numbers keyed by value), so each distinct pair of window
    # values and boundary is estimated once: y1 serves every delta, and the
    # mixed boundary at the full delta is y1 again
    window = vol.sorted_sites()
    seen: Dict[tuple, Estimate] = {}
    estimates = []  # per pair: g1, then g2 for each delta
    for z_a, z_b in probe_pairs:
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
