"""Experiment orchestration: run subcommands, persist artifacts, replay.

Every run writes, into its output directory, the resolved config
(config.resolved.json), the subcommand's own CSV / JSON-lines outputs, and
a plain-text manifest (manifest.txt) listing the subcommand, seed, config
hash and the sha256 of every file the run's writers wrote; a failed run
leaves no output directory.  Numeric CSV rows always carry the seed and
config hash.  A run is replayed by re-executing it from the resolved config
into a scratch directory and comparing artifacts byte for byte.
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
from .dynamics import simulate
from .errors import ValidationError
from .estimates import MCParams
from .expansion import (
    connected_collections,
    interaction_terms,
    kp_check,
    kp_lambda_star,
    reconstruct_density,
    summability_report,
    weight_bound_fit,
    weight_table,
)
from .gibbs import bispace_hamiltonian, dlr_test, dobrushin_check, quasilocality_probe
from .girsanov import density, density_endpoint_ratio
from .lattice import Volume
from .rng import substream


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # numpy floats repr as "np.float64(...)"
    return str(v)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _estimate_record(est) -> dict:
    return {"value": est.value, "stderr": est.stderr, "n": est.n, "method": est.method}


class Run(cfgmod.Resolved):
    """One run: its config, resolved on first read (``config.Resolved``),
    its output directory, the staging directory its writers write into, its
    config hash, and ``artifacts``, the names of the files written, in order."""

    def __init__(self, cfg: dict, out_dir: str, stage: str):
        super().__init__(cfg)
        self.out_dir = out_dir
        self.stage = stage
        self.chash = cfgmod.config_hash(cfg)
        self.artifacts: List[str] = []

    def _artifact(self, name: str) -> str:
        self.artifacts.append(name)
        return os.path.join(self.stage, name)

    def write_csv(self, name: str, header: List[str], rows: List[List]) -> None:
        """Every row ends with the run's seed and config hash."""
        with open(self._artifact(name), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header + ["seed", "configHash"])
            for row in rows:
                writer.writerow([_cell(v) for v in row] + [self.seed, self.chash])

    def write_jsonl(self, name: str, records: List[dict]) -> None:
        lines = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]
        _write_text(self._artifact(name), "\n".join(lines) + "\n")

    def write_json(self, name: str, obj: dict) -> None:
        _write_text(self._artifact(name), json.dumps(obj, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _run_simulate(run: Run) -> dict:
    t, _ = run.time
    n_rep = min(run.mc.n_samples, 256)  # a cap the README states under "Command line"
    bundle = simulate(
        run.drift, run.pot, run.vol, run.x, t, run.mc.dt, substream(run.seed, "simulate"), n_rep
    )
    sites = list(bundle.sites)
    header = ["time"] + ["x" + "_".join(map(str, s)) for s in sites]
    rows = [
        [float(bundle.times[k])] + [float(bundle.values[0, i, k]) for i in range(len(sites))]
        for k in range(bundle.times.size)
    ]
    run.write_csv("paths.csv", header, rows)
    terminal = bundle.values[:, :, -1]
    srows = [
        ["_".join(map(str, s)), float(terminal[:, i].mean()),
         float(terminal[:, i].std(ddof=1) / math.sqrt(n_rep))]
        for i, s in enumerate(sites)
    ]
    run.write_csv("terminal_summary.csv", ["site", "mean", "stderr"], srows)
    return {"replicas": n_rep}


def _run_density(run: Run) -> dict:
    t, _ = run.time
    # each route draws its noise once for all pairs, on a substream of its
    # own, so their order does not change the rows.  The endpoint route
    # runs first: its simulate history, (W + K + 1) sites R floats, is the
    # largest block of the run, and allocated first it leaves a heap that
    # the bridge route's smaller bundles reuse.  Allocated second, it may
    # not fit the heap the bridge route left, and is then mapped beside it,
    # which raises the peak resident memory by the size of that heap
    ratio = density_endpoint_ratio(run.drift, run.pot, run.vol, run.pairs, t, run.mc, run.seed)
    bridge = density(run.drift, run.pot, run.vol, run.pairs, t, run.mc, run.seed)
    rows = []
    for i, (est, oracle) in enumerate(zip(bridge, ratio)):
        rows.append([i, "bridge", est.value, est.stderr, est.n])
        rows.append([i, "endpoint-ratio", oracle.value, oracle.stderr, oracle.n])
    run.write_csv("density.csv", ["pair", "method", "value", "stderr", "n"], rows)
    return {"pairs": len(rows) // 2}


def _run_expand(run: Run) -> dict:
    t, _ = run.time
    k_max, n_max = run.truncation
    drift, x, y = run.drift, run.x, run.y
    # built before any weight is drawn, so an nMax over the collection cap
    # exits before the Monte Carlo work and writes no weights
    coll = connected_collections(run.clusters, n_max)
    table = weight_table(run.clusters, x, y, drift, run.pot, run.mc, run.seed)
    run.write_jsonl(
        "weights.jsonl",
        [
            {"cluster": G.to_record(), "estimate": _estimate_record(e)}
            for G, e in table.items()
        ],
    )
    itab = interaction_terms(table, coll)
    run.write_jsonl(
        "interaction.jsonl",
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
    run.write_json("expand_summary.json", summary)
    beta_grid = cfgmod.value(run.cfg, "betaGrid")
    if beta_grid:
        rows = weight_bound_fit(
            beta_grid, run.vol, drift, run.pot, x, y, t, k_max, run.mc, run.seed
        )
        cols = ["beta", "T", "M", "lambdaHat", "c1Hat", "c2Hat", "maxAbsZ", "nClusters"]
        run.write_csv("lambda_fit.csv", cols, [[r[k] for k in cols] for r in rows])
    return summary


def _run_kp(run: Run) -> dict:
    clusters, rows = run.clusters, []
    for lam in cfgmod.value(run.cfg, "probes.lambdas"):
        res = kp_check(lam, clusters)
        rows.append([res["lambda"], res["satisfied"], res["worstRatio"], res["nClusters"]])
    star = kp_lambda_star(clusters)
    rows.append([star, True, "lambdaStar", ""])
    run.write_csv("kp.csv", ["lambda", "satisfied", "worstRatio", "nClusters"], rows)
    return {"lambdaStar": star}


def _run_dobrushin(run: Run) -> dict:
    res = dobrushin_check(run.interaction)
    run.write_csv(
        "dobrushin.csv", ["value", "stderr", "passes"], [[res["value"], "exact", res["passes"]]]
    )
    return res


def _run_dlr(run: Run) -> dict:
    cfg = run.cfg
    sub = Volume.box(*cfgmod.value(cfg, "probes.subBox"))
    # the chains' sample counts are nOuter and nInner, so mc.nSamples is not read
    mc = MCParams(burn_in=cfgmod.value(cfg, "mc.burnIn"), thin=cfgmod.value(cfg, "mc.thin"))
    rep = dlr_test(
        run.interaction, run.pot, run.vol, sub, cfgmod.value(cfg, "probes.nOuter"),
        cfgmod.value(cfg, "probes.nInner"), run.seed, mc,
    )
    rows = [
        [r["f"], r["direct"], r["directStderr"], r["twoStage"], r["twoStageStderr"], r["z"]]
        for r in rep["rows"]
    ]
    run.write_csv(
        "dlr.csv", ["f", "direct", "directStderr", "twoStage", "twoStageStderr", "z"], rows
    )
    return {"maxAbsZ": rep["maxAbsZ"]}


def _run_bispace(run: Run) -> dict:
    h = bispace_hamiltonian(run.bispace, run.vol, run.vol, run.x, run.y)
    run.write_csv("bispace.csv", ["quantity", "value", "stderr"], [["hamiltonian", h, "exact"]])
    return {"hamiltonian": h}


def _run_quasilocality(run: Run) -> dict:
    window = Volume.box(*cfgmod.value(run.cfg, "probes.window"))
    deltas = [Volume.box(*box) for box in cfgmod.value(run.cfg, "probes.deltas")]
    rows = quasilocality_probe(run.bispace, window, deltas, run.pairs, run.mc, run.seed)
    run.write_csv(
        "quasilocality.csv", ["delta", "supDiff", "noise"],
        [[json.dumps(r["delta"]), r["supDiff"], r["noise"]] for r in rows],
    )
    return {"curve": [r["supDiff"] for r in rows]}


def _run_report(run: Run) -> dict:
    found = {}
    existing = os.listdir(run.out_dir) if os.path.isdir(run.out_dir) else []
    for name in sorted(existing):
        if name.endswith(".csv") or name.endswith(".jsonl"):
            with open(os.path.join(run.out_dir, name), "r", encoding="utf-8") as fh:
                found[name] = sum(1 for _ in fh)
    run.write_json("report.json", {"configHash": run.chash, "seed": run.seed, "files": found})
    return {"files": found}


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
    """Execute one subcommand; writes artifacts and the run manifest,
    staged under the nearest existing ancestor of ``out_dir`` and moved
    into it (new or not, its parents created) on success."""
    if subcommand not in SUBCOMMANDS:
        raise ValidationError(
            f"unknown subcommand '{subcommand}'; choose from {sorted(SUBCOMMANDS)}"
        )
    resolved = dict(cfg)
    if seed is not None:
        resolved["seed"] = seed
    cfgmod.check(resolved)
    resolved["seed"] = cfgmod.value(resolved, "seed")
    # staged under the nearest existing ancestor, so a failed run creates
    # no directory at all
    anchor = os.path.dirname(os.path.abspath(out_dir))
    while not os.path.exists(anchor):
        anchor = os.path.dirname(anchor)
    for path in (anchor, out_dir):
        if os.path.exists(path) and not os.path.isdir(path):
            raise ValidationError(f"output directory {out_dir}: {path} is not a directory")
    with tempfile.TemporaryDirectory(prefix=".stage-", dir=anchor) as stage:
        record = Run(resolved, out_dir, stage)
        record.write_json("config.resolved.json", resolved)
        summary = SUBCOMMANDS[subcommand](record)
        manifest = [
            f"subcommand: {subcommand}",
            f"seed: {record.seed}",
            f"configHash: {record.chash}",
        ]
        for name in record.artifacts:
            manifest.append(f"artifact: {name} sha256 {_sha256(os.path.join(stage, name))}")
        _write_text(os.path.join(stage, "manifest.txt"), "\n".join(manifest) + "\n")
        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    return {**summary, "artifacts": record.artifacts, "configHash": record.chash,
            "seed": record.seed}


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
