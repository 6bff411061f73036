"""Experiment configuration: one JSON file resolves into domain objects.

Schema (all keys camelCase; unknown keys are rejected at the top level and
inside lattice, potential, drift, time, mc, truncation and interaction;
resolve_drift rejects drift.params that the family does not read):

  seed            int, master seed for every derived random stream
  lattice         {"box": [[lo...], [hi...]], "neighborhoodRadius": int}
                  kp's range when there is no drift; with a drift it must
                  be the drift's, and kp takes the drift's range
  potential       {"family": "quadratic" | "circle_free" | "quartic"}
  drift           {"family": <builtin name>, "beta": float, "memory": float,
                   "params": {...}}   params are family-specific
  time            {"t": float} or {"T": float, "M": int}, not both; step mc.dt
  mc              {"nSamples", "dt", "bandwidthScale", "essThreshold",
                   "burnIn", "thin"}  all optional
  truncation      {"kMax": int, "nMax": int}   nMax defaults to 2
  interaction     {"beta0": float, "terms": [{"template": ..., ...}]}
  betaGrid        [float, ...]
  x, y            {"constant": v} or {"values": {"0": v0, "1": v1, ...}}
  probes          subcommand-specific probe lists
  out             default output directory

Only the keys a subcommand needs are required; everything resolved is
echoed back into the run directory for replay.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Tuple

import numpy as np

from .clusters import TimeGrid
from .dynamics import (
    DriftSpec,
    PotentialSpec,
    builtin_drifts,
    circle_free_potential,
    custom_potential,
    quadratic_potential,
)
from .errors import ValidationError
from .estimates import MCParams
from .gibbs import Interaction, nearest_neighbor_terms, site_field_terms
from .lattice import Configuration, Neighborhood, Volume

TOP_KEYS = {
    "seed", "lattice", "potential", "drift", "time", "mc", "truncation",
    "interaction", "betaGrid", "x", "y", "probes", "out",
}

# the drift families a config can build, and the params each reads
DRIFT_PARAMS = {
    "constant": {"c"},
    "markov_local": {"scale", "radius"},
    "resonance": {"amplitude"},
    "delayed_feedback": {"alpha"},
}

SECTION_KEYS = {
    "lattice": {"box", "neighborhoodRadius"},
    "potential": {"family"},
    "drift": {"family", "beta", "memory", "params"},
    "time": {"t", "T", "M"},
    "mc": {"nSamples", "dt", "bandwidthScale", "essThreshold", "burnIn", "thin"},
    "truncation": {"kMax", "nMax"},
    "interaction": {"beta0", "terms"},
}


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config root must be a JSON object")
    unknown = set(cfg) - TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for section, allowed in SECTION_KEYS.items():
        spec = cfg.get(section, {})
        if not isinstance(spec, dict):
            raise ValidationError(f"config '{section}' must be a JSON object")
        unknown = set(spec) - allowed
        if unknown:
            raise ValidationError(f"unknown keys under '{section}': {sorted(unknown)}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def number(value, key: str, kind: type = float):
    """value as a float (or kind); a ValidationError naming the key otherwise."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"config '{key}' must be a number, not {value!r}") from None


def require(cfg: dict, key: str):
    if key not in cfg:
        raise ValidationError(f"config is missing required key '{key}'")
    return cfg[key]


def resolve_volume(cfg: dict) -> Volume:
    box = require(require(cfg, "lattice"), "box")
    lo, hi = ([number(c, "lattice.box", int) for c in box[k]] for k in (0, 1))
    return Volume.box(lo, hi)


def resolve_neighborhood(cfg: dict) -> Neighborhood:
    """kp's neighbourhood: the drift's, else range lattice.neighborhoodRadius."""
    if "drift" in cfg:
        return resolve_drift(cfg).nbhd
    radius = require(cfg, "lattice").get("neighborhoodRadius", 1)
    return Neighborhood.range1d(number(radius, "lattice.neighborhoodRadius", int))


def resolve_potential(cfg: dict) -> PotentialSpec:
    fam = require(cfg, "potential").get("family", "quadratic")
    if fam == "quadratic":
        return quadratic_potential()
    if fam == "circle_free":
        return circle_free_potential()
    if fam == "quartic":
        return custom_potential(
            lambda x: np.asarray(x) ** 4, lambda x: 4.0 * np.asarray(x) ** 3
        )
    raise ValidationError(f"unknown potential family '{fam}'")


def resolve_drift(cfg: dict) -> DriftSpec:
    """The drift of the 'drift' section; a lattice.neighborhoodRadius other
    than the drift's range is rejected, never mixed with it."""
    spec = require(cfg, "drift")
    fam = spec.get("family", "constant")
    if fam not in DRIFT_PARAMS:
        raise ValidationError(
            f"drift family '{fam}' cannot be configured from JSON; "
            f"choose from {sorted(DRIFT_PARAMS)}"
        )
    catalog = builtin_drifts()
    params = dict(spec.get("params", {}))
    unknown = set(params) - DRIFT_PARAMS[fam]
    if unknown:
        raise ValidationError(f"unknown params of drift family '{fam}': {sorted(unknown)}")
    memory = spec.get("memory", 0.5 if fam == "delayed_feedback" else 0.1)
    memory = number(memory, "drift.memory")
    if fam == "constant":
        drift = catalog[fam](number(params.get("c", 1.0), "drift.params.c"), memory=memory)
    elif fam == "markov_local":
        nbhd = Neighborhood.range1d(number(params.get("radius", 1), "drift.params.radius", int))
        scale = number(params.get("scale", 1.0), "drift.params.scale")
        drift = catalog[fam](scale, nbhd, memory=memory)
    elif fam == "resonance":
        amplitude = number(params.get("amplitude", 1.0), "drift.params.amplitude")
        drift = catalog[fam](amplitude, memory=memory)
    else:
        drift = catalog[fam](number(params.get("alpha", 1.0), "drift.params.alpha"), memory)
    radius = cfg.get("lattice", {}).get("neighborhoodRadius")
    drift_range = max(abs(c) for offset in drift.nbhd.offsets for c in offset)
    if radius is not None and number(radius, "lattice.neighborhoodRadius", int) != drift_range:
        raise ValidationError(
            f"lattice.neighborhoodRadius {radius} differs from the range "
            f"{drift_range} of the '{fam}' drift"
        )
    return dataclasses.replace(drift, beta=number(spec.get("beta", 1.0), "drift.beta"))


def resolve_mc(cfg: dict) -> MCParams:
    mc = cfg.get("mc", {})
    return MCParams(
        n_samples=number(mc.get("nSamples", 10_000), "mc.nSamples", int),
        dt=number(mc.get("dt", 0.01), "mc.dt"),
        bandwidth_scale=number(mc.get("bandwidthScale", 1.0), "mc.bandwidthScale"),
        ess_threshold=number(mc.get("essThreshold", 200.0), "mc.essThreshold"),
        burn_in=number(mc.get("burnIn", 100), "mc.burnIn", int),
        thin=number(mc.get("thin", 2), "mc.thin", int),
    )


def resolve_time(cfg: dict) -> Tuple[float, TimeGrid]:
    """(t, grid) of the 'time' section: {"t": t} is one slice of length t,
    {"T": T, "M": M} is M slices of length T and t = T * M."""
    tm = require(cfg, "time")
    if set(tm) == {"t"}:
        t = number(tm["t"], "time.t")
        return t, TimeGrid(t, 1)
    if set(tm) == {"T", "M"}:
        grid = TimeGrid(number(tm["T"], "time.T"), number(tm["M"], "time.M", int))
        return grid.horizon, grid
    raise ValidationError(
        f"config 'time' takes either 't' or both 'T' and 'M', not {sorted(tm)}"
    )


def resolve_truncation(cfg: dict) -> tuple:
    """(kMax, nMax) of the 'truncation' section; nMax defaults to 2."""
    trunc = require(cfg, "truncation")
    k_max = number(require(trunc, "kMax"), "truncation.kMax", int)
    return k_max, number(trunc.get("nMax", 2), "truncation.nMax", int)


def resolve_configuration(cfg: dict, key: str, vol: Volume, state_space: str) -> Configuration:
    spec = require(cfg, key)
    if "constant" in spec:
        constant = number(spec["constant"], f"{key}.constant")
        return Configuration.constant(vol, constant, state_space)
    values = require(spec, "values")
    sites = vol.sorted_sites()
    if len(values) != len(sites):
        raise ValidationError(f"'{key}.values' must list one value per site")
    for i in range(len(sites)):
        if str(i) not in values:
            raise ValidationError(f"'{key}.values' is missing key '{i}'")
    return Configuration(
        {s: number(values[str(i)], f"{key}.values.{i}") for i, s in enumerate(sites)},
        state_space,
    )


def resolve_interaction(cfg: dict, vol: Volume) -> Interaction:
    spec = cfg.get("interaction", {"beta0": 0.0, "terms": []})
    terms = []
    for tspec in spec.get("terms", []):
        template = require(tspec, "template")
        coupling = number(tspec.get("coupling", 1.0), "interaction.terms.coupling")
        if template == "nearest_neighbor":
            terms.extend(
                nearest_neighbor_terms(vol, coupling, tspec.get("kind", "tanh"))
            )
        elif template == "site_field":
            terms.extend(site_field_terms(vol, coupling, tspec.get("kind", "bounded")))
        else:
            raise ValidationError(f"unknown interaction template '{template}'")
    return Interaction(tuple(terms), beta0=number(spec.get("beta0", 0.0), "interaction.beta0"))
