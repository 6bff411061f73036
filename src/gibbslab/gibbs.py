"""Initial Gibbs measures, DLR and Dobrushin checks, and the two-layer
(initial condition, evolved state) Gibbs structure.

An interaction is a finite list of volume-local terms with declared
sup-norms; finite-volume Gibbs measures are sampled by single-site
Metropolis with proposals from the a-priori measure m, one colour class of
sites at a time, so beta0 = 0 is exact.  The two-layer Hamiltonian couples
an initial layer x to an evolved
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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .clusters import ClusterSet
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
    _path_elements,
    _require_bridges,
    _same_range,
    cluster_sampler,
    cluster_weight,
    connected_collections,
    volume_key,
    weight_stream,
)
from . import girsanov
from .lattice import CIRCLE, Configuration, Volume, as_site, concat, wrap_angle
from .rng import substream


# ---------------------------------------------------------------------------
# static interactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionTerm:
    """One local potential with a declared sup-norm.

    Its value at a configuration is ``fn`` of the values of ``sites``, in
    that order.  ``fn`` broadcasts over arrays, so terms that share one
    ``fn`` are scored in one call on stacked rows of their site values.
    """

    sites: tuple
    fn: Callable
    sup_norm: float
    label: str = "term"
    volume: Volume = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sites = tuple(as_site(s) for s in self.sites)
        if self.sup_norm < 0:
            raise SetupError("sup norm must be nonnegative")
        if not sites:
            raise SetupError("term volume must be nonempty")
        if len(set(sites)) != len(sites):
            raise SetupError(f"term sites {sites} are not distinct")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "volume", Volume(frozenset(sites)))

    def value(self, values: Mapping):
        """fn at the values of the term's sites, read from a site -> value
        mapping; scalars give a scalar, arrays their broadcast array."""
        return self.fn(*(values[s] for s in self.sites))


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
    return InteractionTerm((site,), fn, sup_norm, label)


def pair_term(a, b, fn: Callable, sup_norm: float, label: str = "pair") -> InteractionTerm:
    return InteractionTerm((a, b), fn, sup_norm, label)


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


def _colour_classes(terms: Sequence[InteractionTerm], sites: Sequence) -> List[list]:
    """Greedy colouring of the chain sites, visited in the order given.

    Two chain sites conflict when one term reads both; held sites and terms
    with one chain site add no constraint.  Each site takes the least
    colour that no earlier conflicting site has.  Returns the classes in
    colour order, each in site order, so no term reads two sites of one
    class.
    """
    index = {s: i for i, s in enumerate(sites)}
    earlier: List[set] = [set() for _ in sites]
    for t in terms:
        inside = sorted(index[s] for s in t.sites if s in index)
        for k, i in enumerate(inside):
            earlier[i].update(inside[:k])
    colour: List[int] = []
    for i in range(len(sites)):
        used = {colour[j] for j in earlier[i]}
        colour.append(min(set(range(len(used) + 1)) - used))
    classes: List[list] = [[] for _ in range(max(colour, default=-1) + 1)]
    for s, c in zip(sites, colour):
        classes[c].append(s)
    return classes


def _index(ix):
    """A run of consecutive indices as a slice, which reads a view; any
    other list as an index array."""
    ix = list(ix)
    if ix and ix == list(range(ix[0], ix[0] + len(ix))):
        return slice(ix[0], ix[0] + len(ix))
    return np.asarray(ix, dtype=np.intp)


def _draw_chains(
    pot: PotentialSpec,
    position: Sequence[int],
    mc: MCParams,
    n_samples: int,
    rngs: Sequence[np.random.Generator],
):
    """Initial values and pre-drawn moves of independent chains.

    Chains that share one generator object draw together, in groups taken
    in order of first appearance.  A group of g chains draws g * n_sites
    initial values from m, then for the burn-in and for each of the
    n_samples blocks of thin sweeps its g * sweeps * n_sites proposals from
    m followed by as many uniforms, each draw chain-major: chain by chain in
    list order, then sweep by sweep, then site by site in sorted order.  So
    a chain with a generator of its own draws what one chain alone would.
    The value of sorted site i lands at ``position[i]`` of the site axis.

    Returns ``moves``, (1 + burn_in + n_samples * thin, n_sites, chains),
    whose row 0 holds the initial values and row 1 + k the proposals of
    sweep k, and the log-uniforms, (burn_in + n_samples * thin, n_sites,
    chains).
    """
    n = len(position)
    blocks = [mc.burn_in] + [mc.thin] * n_samples
    groups: Dict[int, list] = {}
    for c, rng in enumerate(rngs):
        groups.setdefault(id(rng), []).append(c)
    moves = np.empty((1 + sum(blocks), n, len(rngs)))
    logu = np.empty((sum(blocks), n, len(rngs)))
    at = np.asarray(position, dtype=np.intp)[:, None]
    for cols in groups.values():
        rng, g = rngs[cols[0]], len(cols)
        moves[0, at, cols] = _sample_reference_rng(pot, g * n, rng).reshape(g, n).T
        start = 0
        for sweeps in blocks:
            stop = start + sweeps
            moves[1 + start:1 + stop, at, cols] = _sample_reference_rng(
                pot, g * sweeps * n, rng
            ).reshape(g, sweeps, n).transpose(1, 2, 0)
            u = rng.uniform(size=(g, sweeps, n))
            logu[start:stop, at, cols] = np.log(u, out=u).transpose(1, 2, 0)
            start = stop
    return moves, logu


class _ClassMove(NamedTuple):
    """What a move of one colour class, the chain sites lo..hi-1 of the
    colour order, reads and writes.

    ``new`` is a zeroed (depth, class sites, chains) buffer whose [k, i]
    takes the proposal's value of the k-th term at class site i, in
    ``phi.terms`` order, and ``carried`` the (depth, class sites) indices of
    those terms' carried values (the zero row past a site's last term).
    ``groups`` score the terms that read another chain site, one
    (fn, per-argument state rows, slots of ``new``) per fn and arity;
    ``tables`` the one-site terms, one (fn, argument a of the chain site,
    per-argument rows, width) per fn, arity and a, where the rows of argument a are colour
    positions in ``moves`` and the others held rows; their block tables
    stack, in order, into the columns that go to ``one_slots``.
    """

    lo: int
    hi: int
    new: np.ndarray
    carried: np.ndarray
    groups: list
    tables: list
    one_slots: object


def _class_moves(terms, classes, row, first, chains) -> List[_ClassMove]:
    """The ``_ClassMove`` of each colour class; ``row`` maps each chain and
    held site to its state row, and chain site p of the colour order has
    its proposal in row first + p."""
    chain_sites = {s for cls in classes for s in cls}
    moves, lo = [], 0
    for cls in classes:
        at = [[q for q, t in enumerate(terms) if s in t.volume] for s in cls]
        depth = max(map(len, at), default=0)
        carried = np.full((depth, len(cls)), len(terms), dtype=np.intp)
        # keyed by fn and arity too: one variadic fn may serve terms of
        # several sizes, whose rows do not stack
        groups: Dict[tuple, tuple] = {}
        tables: Dict[tuple, tuple] = {}
        for i, (s, qs) in enumerate(zip(cls, at)):
            for k, q in enumerate(qs):
                slot = k * len(cls) + i
                carried[k, i] = q
                t = terms[q]
                if len(chain_sites.intersection(t.sites)) == 1:
                    a = t.sites.index(s)
                    args, slots = tables.setdefault(
                        (t.fn, len(t.sites), a), ([[] for _ in t.sites], [])
                    )
                    for b, r in enumerate(t.sites):
                        args[b].append(lo + i if b == a else row[r])
                else:
                    args, slots = groups.setdefault(
                        (t.fn, len(t.sites)), ([[] for _ in t.sites], [])
                    )
                    for b, r in enumerate(t.sites):
                        args[b].append(first + lo + i if r == s else row[r])
                slots.append(slot)
        moves.append(_ClassMove(
            lo, lo + len(cls), np.zeros((depth, len(cls), chains)), carried,
            [(fn, [_index(r) for r in args], _index(s)) for (fn, _), (args, s) in groups.items()],
            [
                (fn, a, [_index(r) for r in args], len(s))
                for (fn, _, a), (args, s) in tables.items()
            ],
            _index([slot for _, slots in tables.values() for slot in slots]),
        ))
        lo += len(cls)
    return moves


def _metropolis_sweeps(
    phi: Interaction,
    classes: Sequence[list],
    held: Mapping,
    moves: np.ndarray,
    logu: np.ndarray,
    burn_in: int,
    thin: int,
    out: np.ndarray,
    out_rows,
) -> None:
    """Chromatic Metropolis of independent chains over pre-drawn moves.

    ``classes`` are the colour classes of the chain sites
    (``_colour_classes``), and ``held`` maps each held site to one value
    for every chain or to a (chains,) array.  ``moves`` and ``logu`` hold
    the chain sites in colour order on their site axis (``_draw_chains``).
    One (rows, chains) array holds the chain sites in colour order, then
    the held sites, then one proposal row per chain site.  A class moves at
    once: its proposals go into their rows, and each group of the terms it
    reads that share one fn is scored in one call on gathered rows.  No
    term reads two sites of one class, so this is the single-site kernel
    that visits the sites class by class.

    Each term carries its current value in one (terms, chains) array, so a
    move scores only the proposal: d_e at a site is the sum of the new
    values minus the sum of the carried ones, both over the site's terms in
    ``phi.terms`` order, and a chain rejects when logu >= -beta0 * d_e.
    The terms with one chain site are scored over that site's proposals for
    a block of sweeps, one call per fn, stacked per class, and the moves
    read that table; a block holds at most girsanov.BLOCK_ELEMENTS // chains
    sweeps, and the first one also scores the initial values.  The state
    after each ``thin`` sweeps past ``burn_in`` goes to ``out``, a (chains,
    samples, sites) array, from the state rows ``out_rows``.
    """
    n_sweeps, n, chains = logu.shape
    block = max(1, girsanov.BLOCK_ELEMENTS // chains)
    order = [s for cls in classes for s in cls]
    row = {s: r for r, s in enumerate(order + list(held))}
    first = len(row)  # the proposal row of the first chain site
    state = np.empty((first + n, chains))
    for s, v in held.items():
        state[row[s]] = v
    terms = [t for t in phi.terms if t.volume.sites.intersection(order)]
    plan = _class_moves(terms, classes, row, first, chains)
    flats = [move.new.reshape(-1, chains) for move in plan]
    current = np.zeros((len(terms) + 1, chains))  # the last row stays zero

    def tabulate(t0: int, t1: int) -> list:
        """Per class, its one-site terms at rows t0..t1-1 of ``moves``, a
        (t1 - t0, terms, chains) table, or None."""
        tables = []
        for move in plan:
            parts = [
                np.broadcast_to(
                    fn(*(moves[t0:t1, r] if b == a else state[r] for b, r in enumerate(args))),
                    (t1 - t0, width, chains),
                )
                for fn, a, args, width in move.tables
            ]
            tables.append(np.concatenate(parts, axis=1) if len(parts) > 1 else (parts or [None])[0])
        return tables

    def score(move: _ClassMove, flat: np.ndarray, table, r: int) -> None:
        """The values of the terms of one class at its proposal rows, into
        ``move.new``; the one-site terms read row r of the class table."""
        for fn, args, slots in move.groups:
            flat[slots] = fn(*(state[a] for a in args))
        if table is not None:
            flat[move.one_slots] = table[r]

    # the carried values at the initial state: every class scores its terms
    # with the initial values in the proposal rows too, and the one-site
    # terms read row 0 of the first tables
    state[:n] = state[first:] = moves[0]
    t0, tables = 0, tabulate(0, 1 + min(block, n_sweeps))
    for move, flat, table in zip(plan, flats, tables):
        score(move, flat, table, 0)
        current[move.carried] = move.new

    for k in range(n_sweeps):
        if k and k % block == 0:
            t0, tables = 1 + k, tabulate(1 + k, 1 + min(k + block, n_sweeps))
        for move, flat, table in zip(plan, flats, tables):
            lo, hi = move.lo, move.hi
            state[first + lo:first + hi] = moves[1 + k, lo:hi]
            score(move, flat, table, 1 + k - t0)
            carried = current[move.carried]
            d_e = sum(move.new) - sum(carried)
            if not np.isfinite(d_e).all():
                raise SetupError("non-finite local energy in Gibbs sampling")
            # d_e is finite, so this is the negation of logu >= -beta0 * d_e
            accept = logu[k, lo:hi] < -phi.beta0 * d_e
            np.copyto(state[lo:hi], state[first + lo:first + hi], where=accept)
            # each term the class reads has one slot; the padding slots
            # write zeros back to the zero row
            np.copyto(carried, move.new, where=accept)
            current[move.carried] = carried
        done = k + 1 - burn_in
        if done > 0 and done % thin == 0:
            out[:, done // thin - 1] = state[out_rows].T


def sample_gibbs(
    phi: Interaction,
    pot: PotentialSpec,
    vol: Volume,
    boundary: Optional[Configuration],
    sweeps: int,
    rng: np.random.Generator,
) -> Configuration:
    """One draw from the finite-volume Gibbs measure (free boundary if None)."""
    if sweeps < 1:
        raise ValidationError("sweeps must be >= 1")
    mc = MCParams(burn_in=0, thin=sweeps)
    [[sample]] = gibbs_chain(phi, pot, vol, boundary, 1, mc, [rng])
    return Configuration(dict(zip(vol.sorted_sites(), sample)), pot.state_space)


def gibbs_chain(
    phi: Interaction,
    pot: PotentialSpec,
    vol: Volume,
    boundary: Optional[Mapping],
    n_samples: int,
    mc: MCParams,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Thinned samples of independent Metropolis chains after burn-in.

    There is one chain per generator, at least one; chains that share one
    generator object draw together, as laid out in ``_draw_chains``, and a
    chain with a generator of its own draws what it would alone.  Outside
    vol every chain is held at ``boundary`` (None for a free boundary), a
    mapping such as a Configuration from each held site to one value for
    every chain or to a (chains,) array; a term that reads a site neither
    in vol nor held raises CoverageError.  All chains advance together,
    one colour class of vol's sites at a time, the classes of
    ``_colour_classes`` over ``vol.sorted_sites()``.  Returns a (chains,
    n_samples, |vol|) array in ``vol.sorted_sites()`` order.
    """
    if not len(rngs):
        raise ValidationError("gibbs_chain runs one chain per generator, and needs one")
    sites = vol.sorted_sites()
    reaching = phi.terms_reaching(vol)
    held: Dict = {}
    for t in reaching:
        for s in sorted(t.volume.sites - vol.sites - held.keys()):
            if boundary is None or s not in boundary:
                raise CoverageError(f"term '{t.label}' reaches {s}, outside vol and not held")
            value = np.asarray(boundary[s], dtype=float)
            if value.shape not in ((), (len(rngs),)):
                raise ValidationError(
                    f"boundary value at {s} has shape {value.shape}, not () or ({len(rngs)},)"
                )
            held[s] = value
    classes = _colour_classes(reaching, sites)
    position = {s: p for p, s in enumerate(s for cls in classes for s in cls)}
    rows = [position[s] for s in sites]
    moves, logu = _draw_chains(pot, rows, mc, n_samples, rngs)
    out = np.empty((len(rngs), n_samples, len(sites)))
    _metropolis_sweeps(phi, classes, held, moves, logu, mc.burn_in, mc.thin, out, _index(rows))
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
    sums: Dict = {}
    for t in phi.terms:
        for s in t.volume.sites:
            sums[s] = sums.get(s, 0.0) + (len(t.volume) - 1) * t.sup_norm
    value = phi.beta0 * max(sums.values(), default=0.0)
    return {"value": value, "passes": bool(value < 1.0)}


def dlr_test(
    phi: Interaction,
    pot: PotentialSpec,
    big_vol: Volume,
    sub_vol: Volume,
    n_outer: int,
    n_inner: int,
    seed: int,
    mc: MCParams,
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
    sub_sites = sub_vol.sorted_sites()

    # observables of (..., |sub|) arrays of sub_vol values
    fs: List[Tuple[str, Callable]] = [
        ("tanh_first", lambda c: np.tanh(c[..., 0])),
        ("cos_first", lambda c: np.cos(c[..., 0])),
        ("mean_tanh", lambda c: np.tanh(c).mean(axis=-1)),
    ]
    if len(sub_sites) >= 2:
        fs.append(("pair_tanh", lambda c: np.tanh(c[..., 0]) * np.tanh(c[..., 1])))

    # every direct and outer draw is the one sample of its own chain, so the
    # draws are independent as the stderrs assume: the direct chains draw
    # together on their substream, the outer chains on theirs, and the inner
    # chains on the "inner" substream
    big_sites = big_vol.sorted_sites()
    direct_rng, outer_rng = substream(seed, "dlr", "direct"), substream(seed, "dlr", "outer")
    draws = gibbs_chain(
        phi, pot, big_vol, None, 1, mc, [direct_rng] * n_outer + [outer_rng] * n_outer
    )[:, 0]
    direct, outer = draws[:n_outer], draws[n_outer:]
    boundary = {s: outer[:, i] for i, s in enumerate(big_sites) if s not in sub_vol.sites}
    inner = gibbs_chain(
        phi, pot, sub_vol, boundary, n_inner, mc, [substream(seed, "dlr", "inner")] * n_outer
    )
    direct_sub = direct[:, [big_sites.index(s) for s in sub_sites]]

    rows = []
    for name, f in fs:
        d = f(direct_sub)
        a = f(inner).mean(axis=1)
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

    The connected-collection combinatorics of the cluster set, built on the
    drift's neighbourhood, are precomputed once.  Each cluster's weight
    randomness is drawn once, by ``cluster_sampler`` on first use from the
    stream keyed by the cluster's value (``weight_stream``), and every
    weight is that sampler evaluated at the pinned values of x and y
    (common random numbers), so Phi is a fixed deterministic function of
    the configurations.  ``value`` broadcasts over arrays of pinned values
    like every other term, evaluating each cluster of the group once per
    call, and moves each bridge into one scratch array that the interaction
    allocates once and every call reuses.

    Samplers are kept, with arrays of their own, under SAMPLER_BUDGET_BYTES,
    the least recently used evicted first; ``evictions`` counts the
    samplers dropped.  A dropped sampler is drawn again from the same
    substream, so no eviction changes a result.
    """

    def __init__(
        self,
        drift: DriftSpec,
        pot: PotentialSpec,
        clusters: ClusterSet,
        n_max: int,
        mc: MCParams,
        seed: int,
    ):
        _same_range(clusters, drift)
        _require_bridges(clusters.clusters, pot)
        self.drift = drift
        self.pot = pot
        self.n_max = n_max
        self.mc = mc
        self.seed = seed
        self._clusters = clusters.clusters
        coll = connected_collections(clusters, n_max)
        # {trace key: [(cluster indices, C), ...]}, the table's rows in order
        self._groups: Dict[tuple, list] = {}
        for row, C, t in zip(coll.index.tolist(), coll.coef.tolist(), coll.trace.tolist()):
            combo = tuple(i for i in row if i >= 0)
            self._groups.setdefault(coll.keys[t], []).append((combo, C))
        # the moved bridges of one block of points, or of one point of the
        # largest bridge, which every weight reuses
        widest = max((_path_elements(G, drift, mc.dt)[1] for G in self._clusters), default=0)
        self._scratch = np.empty(max(girsanov.BLOCK_ELEMENTS, mc.n_samples * widest))
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
            weight_stream(self.seed, self._clusters[i]),
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
                    weights[i] = cluster_weight(self._sampler(i), x, y, self._scratch).value
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
    bsi: BiSpaceInteraction, vol: Volume, y_boundary: Mapping
) -> Interaction:
    """beta0 times the initial terms, and the coupling terms off the window
    vol at y = y_boundary, site -> (chains,) values (no declared bound:
    -log p_t is unbounded on the line), at inverse temperature 1.  Each
    distinct initial fn is scaled once, so the terms of one template still
    share one fn; each coupling term becomes an fn over its sorted sites.
    """
    b0 = bsi.initial.beta0
    scaled: Dict[Callable, Callable] = {}
    for t in bsi.initial.terms:
        scaled.setdefault(t.fn, lambda *v, f=t.fn: b0 * f(*v))
    initial = [
        InteractionTerm(t.sites, scaled[t.fn], b0 * t.sup_norm, t.label)
        for t in bsi.initial.terms
    ]
    coupling = [
        InteractionTerm(
            sites,
            lambda *v, c=c, sites=sites: c.evaluator(dict(zip(sites, v)), y_boundary),
            math.inf, "coupling",
        )
        for c in bsi.coupling_terms(Volume(frozenset(y_boundary)))
        if not c.volume.sites & vol.sites
        for sites in [c.volume.sorted_sites()]
    ]
    return Interaction(tuple(initial + coupling), beta0=1.0)


# Fresh window values drawn from m per outer sample for the normalizer of
# conditional_density; read at call time.
N_INNER = 16


def conditional_density(
    bsi: BiSpaceInteraction,
    vol: Volume,
    z_vol,
    y_boundary: Mapping,
    mc: MCParams,
    seed: int,
) -> Estimate:
    """Density of the evolved window values given the evolved boundary, for
    B cases: z_vol is (B, |vol|) in ``vol.sorted_sites()`` order, y_boundary
    maps each boundary site to its (B,) values (on the circle both are
    wrapped to [0, 2 pi)), and the Estimate holds (B,) arrays.

    Case k is the ratio of the window factor averaged over x drawn from the
    modified interaction, and its m-average over window values (the
    normalizer, N_INNER draws per outer sample), with a delta-method error
    bar.  Each case runs its own chain on a fresh (seed, "conditional")
    substream, all in one ``gibbs_chain`` call, so the cases share common
    random numbers.
    """
    z_vol = np.asarray(z_vol, dtype=float)
    n_cases = len(z_vol) if z_vol.ndim == 2 else 0
    y = {s: np.asarray(v, dtype=float) for s, v in y_boundary.items()}
    shapes = [z_vol.shape] + [v.shape for v in y.values()]
    if n_cases < 1 or shapes != [(n_cases, len(vol))] + [(n_cases,)] * len(y):
        raise ValidationError(f"value shapes {shapes}, not (B, {len(vol)}) then (B,), B >= 1")
    if vol.sites & y.keys():
        raise ValidationError("y_boundary must not cover the window itself")
    if bsi.pot.state_space == CIRCLE:
        z_vol, y = wrap_angle(z_vol), {s: wrap_angle(v) for s, v in y.items()}
    work = vol.union(Volume(frozenset(y)))
    lam_sites = vol.sorted_sites()
    window_terms = [c for c in bsi.coupling_terms(vol) if c.volume.sites & vol.sites]

    n = mc.n_samples
    rngs = [substream(seed, "conditional") for _ in range(n_cases)]
    chains = gibbs_chain(_modified_interaction(bsi, vol, y), bsi.pot, work, None, n, mc, rngs)
    # fresh normalizer draws per outer sample keep the b_k independent; every
    # generator has made the same draws so far, so one draw serves all cases
    z_inner = _sample_reference_rng(
        bsi.pot, n * N_INNER * len(lam_sites), rngs[0]
    ).reshape(n, N_INNER, len(lam_sites))

    value, stderr = np.empty(n_cases), np.empty(n_cases)
    for k in range(n_cases):
        # the case's window factors at an (outer sample, 1 + N_INNER) grid of
        # points: column 0 holds its window values, the others z_inner; the
        # window and the boundary are disjoint, checked above
        xv = {s: chains[k, :, j, None] for j, s in enumerate(work.sorted_sites())}
        yv = {s: v[k, None, None] for s, v in y.items()}
        for j, s in enumerate(lam_sites):
            yv[s] = np.empty((n, 1 + N_INNER))
            yv[s][:, 0] = z_vol[k, j]
            yv[s][:, 1:] = z_inner[:, :, j]
        f = np.exp(-sum(c.evaluator(xv, yv) for c in window_terms))
        a, b = f[:, 0], f[:, 1:].mean(axis=1)
        ma, mb = a.mean(), b.mean()
        if mb <= 0:
            raise NumericalError("conditional density normalizer is nonpositive")
        va, vb = a.var(ddof=1) / n, b.var(ddof=1) / n
        cab = float(np.cov(a, b, ddof=1)[0, 1]) / n
        value[k] = ma / mb
        var = va / mb**2 + ma**2 * vb / mb**4 - 2.0 * ma * cab / mb**3
        stderr[k] = math.sqrt(max(var, 0.0))
    return Estimate(value, stderr, n, method="conditional")


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
    common random numbers so full agreement gives an exact zero.  All pairs
    share one domain.
    """
    for i in range(1, len(deltas)):
        if not deltas[i - 1].issubset(deltas[i]):
            raise ValidationError("delta sequence must be increasing")
    domains = {z.domain for pair in probe_pairs for z in pair}
    if len(domains) != 1 or not vol.issubset(*domains):
        raise CoverageError(
            f"{len(probe_pairs)} probe pairs: each probe pair must cover the window, on one domain"
        )
    [domain] = domains
    # the cases share common random numbers, so each distinct pair of window
    # values and boundary is one case: z's own boundary, the mixed one at the
    # whole domain, serves every delta and is the mixed one at the full delta
    boundary = sorted(domain.sites - vol.sites)
    cases: Dict[tuple, int] = {}  # window values + boundary values -> case
    index = []  # per pair: the case of z's boundary, then the mixed one per delta
    for z_a, z_b in probe_pairs:
        win = [z_a[s] for s in vol.sorted_sites()]
        for d in [domain, *deltas]:
            key = tuple(win + [(z_a if s in d.sites else z_b)[s] for s in boundary])
            index.append(cases.setdefault(key, len(cases)))
    table = np.array(list(cases))
    est = conditional_density(
        bsi, vol, table[:, :len(vol)], dict(zip(boundary, table[:, len(vol):].T)), mc, seed
    )
    g1, *g2s = np.reshape(index, (len(probe_pairs), 1 + len(deltas))).T
    return [
        {
            "delta": [list(s) for s in delta.sorted_sites()],
            "supDiff": float(np.abs(est.value[g1] - est.value[g2]).max()),
            "noise": max(map(math.hypot, est.stderr[g1], est.stderr[g2])),
        }
        for delta, g2 in zip(deltas, g2s)
    ]
