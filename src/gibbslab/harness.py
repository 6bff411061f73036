"""Experiment orchestration: run subcommands, persist artifacts, replay.

Every run writes, into its output directory, the resolved config
(config.resolved.json), a plain-text manifest (manifest.txt) listing the
subcommand, seed, config hash and the sha256 of every artifact, and the
subcommand's own CSV / JSON-lines outputs.  Numeric CSV rows always carry
the seed and config hash.  A run is replayed by re-executing it from the
resolved config into a scratch directory and comparing artifacts byte for
byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
from typing import Callable, Dict, List, Optional

from . import config as cfgmod
from .clusters import enumerate_clusters
from .dynamics import simulate
from .errors import ValidationError
from .estimates import MCParams
from .expansion import (
    connected_collections,
    interaction_terms,
    kp_check,
    kp_geometry,
    kp_lambda_star,
    reconstruct_density,
    summability_report,
    weight_bound_fit,
    weight_table,
)
from .gibbs import (
    BiSpaceInteraction,
    ExpansionDynamicInteraction,
    ZeroDynamicInteraction,
    bispace_hamiltonian,
    dlr_test,
    dobrushin_check,
    quasilocality_probe,
)
from .girsanov import density, density_endpoint_ratio
from .lattice import Volume
from .rng import substream


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path: str, header: List[str], rows: List[List], seed: int, chash: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header + ["seed", "configHash"])
        for row in rows:
            writer.writerow([_cell(v) for v in row] + [seed, chash])


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # numpy floats repr as "np.float64(...)"
    return str(v)


def _write_jsonl(path: str, records: List[dict]) -> None:
    lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
    _write_text(path, "\n".join(lines) + "\n")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _estimate_record(est) -> dict:
    return {"value": est.value, "stderr": est.stderr, "n": est.n, "method": est.method}


def _probe_pair_configs(cfg: dict, vol: Volume, state_space: str):
    return [
        tuple(
            cfgmod.resolve_configuration(cfg, f"probes.pairs.{i}.{k}", vol, state_space)
            for k in ("x", "y")
        )
        for i in range(len(cfgmod.value(cfg, "probes.pairs")))
    ]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_simulate(cfg, out_dir, seed, chash) -> dict:
    vol = cfgmod.resolve_volume(cfg)
    pot = cfgmod.resolve_potential(cfg)
    drift = cfgmod.resolve_drift(cfg)
    mc = cfgmod.resolve_mc(cfg)
    t, _ = cfgmod.resolve_time(cfg)
    x0 = cfgmod.resolve_configuration(cfg, "x", vol, pot.state_space)
    n_rep = min(mc.n_samples, 256)  # a cap the README states under "Command line"
    bundle = simulate(drift, pot, vol, x0, t, mc.dt, substream(seed, "simulate"), n_rep)
    sites = list(bundle.sites)
    header = ["time"] + ["x" + "_".join(map(str, s)) for s in sites]
    rows = [
        [float(bundle.times[k])] + [float(bundle.values[0, i, k]) for i in range(len(sites))]
        for k in range(bundle.times.size)
    ]
    _write_csv(os.path.join(out_dir, "paths.csv"), header, rows, seed, chash)
    terminal = bundle.values[:, :, -1]
    srows = [
        ["_".join(map(str, s)), float(terminal[:, i].mean()),
         float(terminal[:, i].std(ddof=1) / math.sqrt(n_rep))]
        for i, s in enumerate(sites)
    ]
    _write_csv(
        os.path.join(out_dir, "terminal_summary.csv"),
        ["site", "mean", "stderr"], srows, seed, chash,
    )
    return {"artifacts": ["paths.csv", "terminal_summary.csv"], "replicas": n_rep}


def _run_density(cfg, out_dir, seed, chash) -> dict:
    vol = cfgmod.resolve_volume(cfg)
    pot = cfgmod.resolve_potential(cfg)
    drift = cfgmod.resolve_drift(cfg)
    mc = cfgmod.resolve_mc(cfg)
    t, _ = cfgmod.resolve_time(cfg)
    rows = []
    for i, (x, y) in enumerate(_probe_pair_configs(cfg, vol, pot.state_space)):
        est = density(drift, pot, vol, x, y, t, mc, seed)
        rows.append([i, "bridge", est.value, est.stderr, est.n])
        oracle = density_endpoint_ratio(drift, pot, vol, x, y, t, mc, seed)
        rows.append([i, "endpoint-ratio", oracle.value, oracle.stderr, oracle.n])
    _write_csv(
        os.path.join(out_dir, "density.csv"),
        ["pair", "method", "value", "stderr", "n"], rows, seed, chash,
    )
    return {"artifacts": ["density.csv"], "pairs": len(rows) // 2}


def _run_expand(cfg, out_dir, seed, chash) -> dict:
    vol = cfgmod.resolve_volume(cfg)
    pot = cfgmod.resolve_potential(cfg)
    drift = cfgmod.resolve_drift(cfg)
    mc = cfgmod.resolve_mc(cfg)
    t, grid = cfgmod.resolve_time(cfg)
    k_max, n_max = cfgmod.resolve_truncation(cfg)
    x = cfgmod.resolve_configuration(cfg, "x", vol, pot.state_space)
    y = cfgmod.resolve_configuration(cfg, "y", vol, pot.state_space)

    clusters = enumerate_clusters(vol, drift.nbhd, grid, k_max)
    # built before any weight is drawn, so an nMax over the collection cap
    # exits before the Monte Carlo work and writes no weights
    coll = connected_collections(clusters, drift.nbhd, n_max)
    table = weight_table(clusters, k_max, x, y, drift, pot, mc, seed)
    _write_jsonl(
        os.path.join(out_dir, "weights.jsonl"),
        [
            {"cluster": G.to_record(), "estimate": _estimate_record(e)}
            for G, e in table.items()
        ],
    )
    itab = interaction_terms(table, coll)
    _write_jsonl(
        os.path.join(out_dir, "interaction.jsonl"),
        [
            {"trace": [list(s) for s in key], "estimate": _estimate_record(e)}
            for key, e in itab.entries
        ],
    )
    rec = reconstruct_density(table)
    summ = summability_report(itab)
    summary = {
        "reconstruct": _estimate_record(rec),
        "interactionTotal": _estimate_record(itab.total),
        "summability": {"sup": summ["sup"], "nTerms": summ["nTerms"]},
        "nClusters": len(table),
    }
    artifacts = ["weights.jsonl", "interaction.jsonl", "expand_summary.json"]
    beta_grid = cfgmod.value(cfg, "betaGrid")
    if beta_grid:
        rows = weight_bound_fit(beta_grid, vol, drift, pot, x, y, t, k_max, mc, seed)
        cols = ["beta", "T", "M", "lambdaHat", "c1Hat", "c2Hat", "maxAbsZ", "nClusters"]
        _write_csv(
            os.path.join(out_dir, "lambda_fit.csv"), cols,
            [[r[k] for k in cols] for r in rows], seed, chash,
        )
        artifacts.append("lambda_fit.csv")
    _write_text(
        os.path.join(out_dir, "expand_summary.json"),
        json.dumps(summary, sort_keys=True, indent=1) + "\n",
    )
    return {"artifacts": artifacts, **summary}


def _run_kp(cfg, out_dir, seed, chash) -> dict:
    vol = cfgmod.resolve_volume(cfg)
    nbhd = cfgmod.resolve_neighborhood(cfg)
    _, grid = cfgmod.resolve_time(cfg)
    k_max, _ = cfgmod.resolve_truncation(cfg)
    geometry = kp_geometry(vol, nbhd, grid, k_max)
    rows = []
    for lam in cfgmod.value(cfg, "probes.lambdas"):
        res = kp_check(lam, geometry)
        rows.append([res["lambda"], res["satisfied"], res["worstRatio"], res["nClusters"]])
    star = kp_lambda_star(geometry)
    rows.append([star, True, "lambdaStar", ""])
    _write_csv(
        os.path.join(out_dir, "kp.csv"),
        ["lambda", "satisfied", "worstRatio", "nClusters"], rows, seed, chash,
    )
    return {"artifacts": ["kp.csv"], "lambdaStar": star}


def _run_dobrushin(cfg, out_dir, seed, chash) -> dict:
    vol = cfgmod.resolve_volume(cfg)
    phi = cfgmod.resolve_interaction(cfg, vol)
    res = dobrushin_check(phi)
    _write_csv(
        os.path.join(out_dir, "dobrushin.csv"),
        ["value", "stderr", "passes"],
        [[res["value"], "exact", res["passes"]]], seed, chash,
    )
    return {"artifacts": ["dobrushin.csv"], **res}


def _run_dlr(cfg, out_dir, seed, chash) -> dict:
    big = cfgmod.resolve_volume(cfg)
    pot = cfgmod.resolve_potential(cfg)
    phi = cfgmod.resolve_interaction(cfg, big)
    sub = Volume.box(*cfgmod.value(cfg, "probes.subBox"))
    mc = MCParams(burn_in=cfgmod.value(cfg, "mc.burnIn"), thin=cfgmod.value(cfg, "mc.thin"))
    rep = dlr_test(
        phi, pot, big, sub, cfgmod.value(cfg, "probes.nOuter"),
        cfgmod.value(cfg, "probes.nInner"), seed, mc,
    )
    rows = [
        [r["f"], r["direct"], r["directStderr"], r["twoStage"], r["twoStageStderr"], r["z"]]
        for r in rep["rows"]
    ]
    _write_csv(
        os.path.join(out_dir, "dlr.csv"),
        ["f", "direct", "directStderr", "twoStage", "twoStageStderr", "z"],
        rows, seed, chash,
    )
    return {"artifacts": ["dlr.csv"], "maxAbsZ": rep["maxAbsZ"]}


def _resolve_bispace(cfg, seed) -> BiSpaceInteraction:
    vol = cfgmod.resolve_volume(cfg)
    pot = cfgmod.resolve_potential(cfg)
    phi = cfgmod.resolve_interaction(cfg, vol)
    t, grid = cfgmod.resolve_time(cfg)
    if cfgmod.value(cfg, "probes.dynamic") == "zero":
        dyn = ZeroDynamicInteraction()
    else:
        drift = cfgmod.resolve_drift(cfg)
        k_max, n_max = cfgmod.resolve_truncation(cfg)
        mc = cfgmod.resolve_mc(cfg)
        dyn = ExpansionDynamicInteraction(
            drift, pot, vol, grid, k_max, n_max,
            mc.with_samples(min(mc.n_samples, 1000)), seed,  # a cap the README states
        )
    return BiSpaceInteraction(phi, dyn, pot, t)


def _run_bispace(cfg, out_dir, seed, chash) -> dict:
    vol = cfgmod.resolve_volume(cfg)
    pot = cfgmod.resolve_potential(cfg)
    bsi = _resolve_bispace(cfg, seed)
    x = cfgmod.resolve_configuration(cfg, "x", vol, pot.state_space)
    y = cfgmod.resolve_configuration(cfg, "y", vol, pot.state_space)
    h = bispace_hamiltonian(bsi, vol, vol, x, y)
    _write_csv(
        os.path.join(out_dir, "bispace.csv"),
        ["quantity", "value", "stderr"],
        [["hamiltonian", h, "exact"]], seed, chash,
    )
    return {"artifacts": ["bispace.csv"], "hamiltonian": h}


def _run_quasilocality(cfg, out_dir, seed, chash) -> dict:
    pot = cfgmod.resolve_potential(cfg)
    work = cfgmod.resolve_volume(cfg)
    window = Volume.box(*cfgmod.value(cfg, "probes.window"))
    deltas = [Volume.box(*box) for box in cfgmod.value(cfg, "probes.deltas")]
    pairs = _probe_pair_configs(cfg, work, pot.state_space)
    bsi = _resolve_bispace(cfg, seed)
    mc = cfgmod.resolve_mc(cfg)
    rows = quasilocality_probe(bsi, window, deltas, pairs, mc, seed)
    _write_csv(
        os.path.join(out_dir, "quasilocality.csv"),
        ["delta", "supDiff", "noise"],
        [[json.dumps(r["delta"]), r["supDiff"], r["noise"]] for r in rows],
        seed, chash,
    )
    return {"artifacts": ["quasilocality.csv"], "curve": [r["supDiff"] for r in rows]}


def _run_report(cfg, out_dir, seed, chash) -> dict:
    found = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv") or name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
                found[name] = sum(1 for _ in fh)
    report = {"configHash": chash, "seed": seed, "files": found}
    _write_text(
        os.path.join(out_dir, "report.json"),
        json.dumps(report, sort_keys=True, indent=1) + "\n",
    )
    return {"artifacts": ["report.json"], "files": found}


SUBCOMMANDS: Dict[str, Callable] = {
    "simulate": _run_simulate,
    "density": _run_density,
    "expand": _run_expand,
    "kp": _run_kp,
    "dobrushin": _run_dobrushin,
    "dlr": _run_dlr,
    "bispace": _run_bispace,
    "quasilocality": _run_quasilocality,
    "report": _run_report,
}


def run(subcommand: str, cfg: dict, out_dir: str, seed: Optional[int] = None) -> dict:
    """Execute one subcommand; writes artifacts and the run manifest."""
    if subcommand not in SUBCOMMANDS:
        raise ValidationError(
            f"unknown subcommand '{subcommand}'; choose from {sorted(SUBCOMMANDS)}"
        )
    resolved = dict(cfg)
    if seed is not None:
        resolved["seed"] = seed
    cfgmod.check(resolved)
    effective_seed = resolved["seed"] = cfgmod.value(resolved, "seed")
    chash = cfgmod.config_hash(resolved)
    os.makedirs(out_dir, exist_ok=True)
    _write_text(
        os.path.join(out_dir, "config.resolved.json"),
        json.dumps(resolved, sort_keys=True, indent=1) + "\n",
    )
    summary = SUBCOMMANDS[subcommand](resolved, out_dir, effective_seed, chash)
    artifacts = ["config.resolved.json"] + summary.get("artifacts", [])
    manifest = [
        f"subcommand: {subcommand}",
        f"seed: {effective_seed}",
        f"configHash: {chash}",
    ]
    for name in artifacts:
        manifest.append(f"artifact: {name} sha256 {_sha256(os.path.join(out_dir, name))}")
    _write_text(os.path.join(out_dir, "manifest.txt"), "\n".join(manifest) + "\n")
    summary["configHash"] = chash
    summary["seed"] = effective_seed
    return summary


def replay(artifact_dir: str) -> dict:
    """Re-run a stored experiment and compare artifacts byte for byte."""
    manifest_path = os.path.join(artifact_dir, "manifest.txt")
    if not os.path.exists(manifest_path):
        raise ValidationError(f"no manifest.txt under {artifact_dir}")
    meta = {}
    artifacts = []
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, rest = line.strip().partition(": ")
            if key == "artifact":
                artifacts.append(rest.split(" sha256 ")[0])
            else:
                meta[key] = rest
    with open(os.path.join(artifact_dir, "config.resolved.json"), "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    with tempfile.TemporaryDirectory() as tmp:
        run(meta["subcommand"], cfg, tmp, seed=int(meta["seed"]))
        for name in artifacts:
            old = os.path.join(artifact_dir, name)
            new = os.path.join(tmp, name)
            if not os.path.exists(new):
                return {"ok": False, "firstDivergence": f"{name}: missing on replay"}
            with open(old, "rb") as f1, open(new, "rb") as f2:
                a, b = f1.read(), f2.read()
            if a != b:
                for lineno, (la, lb) in enumerate(
                    zip(a.decode("utf-8", "replace").splitlines(),
                        b.decode("utf-8", "replace").splitlines()),
                    start=1,
                ):
                    if la != lb:
                        return {
                            "ok": False,
                            "firstDivergence": f"{name}:{lineno}: {la!r} != {lb!r}",
                        }
                return {"ok": False, "firstDivergence": f"{name}: length mismatch"}
    return {"ok": True, "firstDivergence": None}
