import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbslab
from gibbslab import config as cfgmod
from gibbslab import clusters as clusters_module
from gibbslab import expansion, harness
from gibbslab.cli import main
from gibbslab.clusters import ClusterSet, TimeGrid
from gibbslab.dynamics import PotentialSpec
from gibbslab.errors import (
    BudgetError,
    GibbslabError,
    NumericalError,
    PrecisionError,
    ValidationError,
)
from gibbslab.expansion import kp_check, kp_lambda_star
from gibbslab.harness import replay, run
from gibbslab.lattice import Neighborhood, Volume


SIM_CFG = {
    "seed": 7,
    "lattice": {"box": [[0], [2]], "neighborhoodRadius": 0},
    "potential": {"family": "quadratic"},
    "drift": {"family": "constant", "beta": 0.3, "memory": 0.1, "params": {"c": 0.7}},
    "time": {"t": 0.2},
    "mc": {"nSamples": 64, "dt": 0.05},
    "x": {"constant": 0.0},
}

KP_CFG = {
    "seed": 1,
    "lattice": {"box": [[0], [3]], "neighborhoodRadius": 1},
    "time": {"T": 1.0, "M": 3},
    "truncation": {"kMax": 3},
    "probes": {"lambdas": [0.0, 1.0]},
}

DOB_CFG = {
    "seed": 1,
    "lattice": {"box": [[0], [4]]},
    "interaction": {
        "beta0": 0.4,
        "terms": [{"template": "nearest_neighbor", "coupling": 0.8}],
    },
}


def test_exit_codes_by_error_family():
    assert GibbslabError("x").exit_code == 1
    assert ValidationError("x").exit_code == 2
    assert NumericalError("x").exit_code == 3
    assert PrecisionError("x").exit_code == 4


def test_load_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"seed": 1, "bogus": 2}))
    with pytest.raises(ValidationError):
        cfgmod.load_config(str(p))


def test_load_config_rejects_unknown_nested_keys(tmp_path, capsys):
    # a misspelt "nSamples" used to be ignored in favour of the default
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps({**SIM_CFG, "mc": {"nSample": 10}}))
    with pytest.raises(ValidationError, match="nSample"):
        cfgmod.load_config(str(bad))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # the kernel bandwidth factor and the ESS threshold are constants, not keys
    for key in ("bandwidthScale", "essThreshold"):
        removed = tmp_path / f"{key}.json"
        removed.write_text(json.dumps({**SIM_CFG, "mc": {key: 1.0}}))
        capsys.readouterr()
        assert main(["simulate", "--config", str(removed), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown keys under 'mc': ['{key}']" in capsys.readouterr().err
    # drift params are checked per family by the same table, at load
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**SIM_CFG, "drift": {**SIM_CFG["drift"], "params": {"zz": 1}}}))
    with pytest.raises(ValidationError, match="zz"):
        cfgmod.load_config(str(params))
    # and so are the probes: a misspelt nOuter used to run the default 200
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({**SIM_CFG, "probes": {"nOutter": 4}}))
    with pytest.raises(ValidationError, match=r"unknown keys under 'probes': \['nOutter'\]"):
        cfgmod.load_config(str(probes))
    # a dotted key names no row, at any level: it is not read as a path
    for dotted in (
        {**SIM_CFG, "mc.nSamples": 100},
        {**SIM_CFG, "probes.nOuter": 1},
        {**SIM_CFG, "drift": {**SIM_CFG["drift"], "params.c": 5}},
        {**SIM_CFG, "x": {"values": {"*": 0.0}}},
    ):
        path = tmp_path / "dotted.json"
        path.write_text(json.dumps(dotted))
        with pytest.raises(ValidationError, match=r"unknown .*\['(mc\.|probes\.|params\.|\*)"):
            cfgmod.load_config(str(path))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_time_section_has_no_step_key(tmp_path, capsys):
    # the step is mc.dt; a time.dt key used to pass and change nothing
    bad = tmp_path / "time_dt.json"
    bad.write_text(json.dumps({**SIM_CFG, "time": {"t": 1, "dt": 0.1}}))
    with pytest.raises(ValidationError, match="dt"):
        cfgmod.load_config(str(bad))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_expand_on_quartic_refuses_the_potential_before_any_weight(tmp_path, capsys, monkeypatch):
    # a quartic potential has no exact bridges: the weight pass refuses it
    # with exit 2 before it draws any weight or builds the general kernel,
    # whose grid exp(-x^4) underflows (which used to exit 3 at M = 2, and 2
    # at M = 1, whichever cluster came first)
    cfg = {
        "seed": 1,
        "lattice": {"box": [[0], [1]], "neighborhoodRadius": 0},
        "potential": {"family": "quartic"},
        "drift": {"family": "constant", "beta": 0.2, "memory": 0.1, "params": {"c": 0.5}},
        "time": {"T": 0.5, "M": 2},
        "mc": {"nSamples": 16, "dt": 0.05},
        "truncation": {"kMax": 2, "nMax": 1},
        "x": {"constant": 0.0},
        "y": {"constant": 0.2},
    }
    def no_kernel(pot, *args, **kwargs):
        raise AssertionError("the general kernel was built")

    monkeypatch.setattr(PotentialSpec, "_eigensystem", property(no_kernel))
    for M in (1, 2):
        cfg["time"]["M"] = M
        path = tmp_path / f"quartic-{M}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"o{M}"
        assert main(["expand", "--config", str(path), "--out", str(out)]) == 2
        assert "not the 'general' family" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("memory,dt", [(0.1, 0.03), (0.01, 0.05)])
@pytest.mark.parametrize("subcommand", ["expand", "density"])
def test_drift_memory_off_the_step_grid_exits_2(tmp_path, capsys, subcommand, memory, dt):
    # t0 / dt must be a whole number of steps: 0.1 / 0.03 used to run on
    # x(t - 0.09), and 0.01 / 0.05 on a one-step window five times the
    # declared memory under expand while density refused it
    cfg = {
        "seed": 1,
        "lattice": {"box": [[0], [1]], "neighborhoodRadius": 0},
        "potential": {"family": "quadratic"},
        "drift": {"family": "delayed_feedback", "beta": 0.2, "memory": memory,
                  "params": {"alpha": 0.5}},
        "time": {"T": 10 * dt, "M": 2},
        "mc": {"nSamples": 256, "dt": dt},
        "truncation": {"kMax": 1, "nMax": 1},
        "x": {"constant": 0.3},
        "y": {"constant": 0.2},
        "probes": {"pairs": [{"x": {"constant": 0.3}, "y": {"constant": 0.2}}]},
    }
    path = tmp_path / "memory.json"
    path.write_text(json.dumps(cfg))
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "must be a whole number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "time", [{"t": 1.0, "T": 0.5, "M": 4}, {"t": 1.0, "M": 3}, {"T": 0.5}],
    ids=["both-forms", "t-with-M", "T-alone"],
)
def test_time_takes_exactly_one_form(tmp_path, capsys, time):
    # {"t": 1, "T": 0.5, "M": 4} used to couple the kernel at t = 1 but run
    # the expansion to 2, and {"t": 1, "M": 3} dropped M
    with pytest.raises(ValidationError, match="takes either 't' or both 'T' and 'M'"):
        cfgmod.Resolved({"time": time}).time
    path = tmp_path / "time.json"
    path.write_text(json.dumps({**ROBUSTNESS_CFG, "time": time}))
    assert main(["quasilocality", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert cfgmod.Resolved({"time": {"T": 0.5, "M": 4}}).time == (2.0, TimeGrid(0.5, 4))
    assert cfgmod.Resolved({"time": {"t": 1.0}}).time == (1.0, TimeGrid(1.0, 1))


def test_unknown_drift_param_exits_2(tmp_path, capsys):
    # a misspelt "scale" used to run the default scale
    drift = {"family": "markov_local", "beta": 0.2, "memory": 0.1,
             "params": {"scal": 2.0, "radius": 0}}
    path = tmp_path / "params.json"
    path.write_text(json.dumps({**SIM_CFG, "drift": drift}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown params of drift family 'markov_local': ['scal']" in capsys.readouterr().err


def test_config_hash_canonical():
    assert cfgmod.config_hash({"a": 1, "b": 2}) == cfgmod.config_hash({"b": 2, "a": 1})
    assert cfgmod.config_hash({"a": 1}) != cfgmod.config_hash({"a": 2})


def test_resolve_configuration_by_values():
    lattice = {"box": [[0], [2]]}  # on the line: the default potential is quadratic
    cfg = {"lattice": lattice, "x": {"values": {"0": 1.0, "1": 2.0, "2": 3.0}}}
    x = cfgmod.Resolved(cfg).x
    assert x[(1,)] == 2.0
    with pytest.raises(ValidationError):
        cfgmod.Resolved({"lattice": lattice, "x": {"values": {"0": 1.0}}}).x


def test_endpoint_values_missing_a_site_key_exit_2(tmp_path, capsys):
    # two values on a 2-site box pass the length check; the gap used to end
    # in a raw KeyError
    bad = {**SIM_CFG, "lattice": {"box": [[0], [1]], "neighborhoodRadius": 0},
           "x": {"values": {"0": 0.1, "2": 0.3}}}
    with pytest.raises(ValidationError, match="'x.values' is missing key '1'"):
        cfgmod.Resolved(bad).x
    path = tmp_path / "values.json"
    path.write_text(json.dumps(bad))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "missing key '1'" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["density", "quasilocality"])
def test_probe_pair_without_y_exits_2(tmp_path, capsys, subcommand):
    cfg = {
        "seed": 1,
        "lattice": {"box": [[0], [1]], "neighborhoodRadius": 0},
        "potential": {"family": "quadratic"},
        "drift": {"family": "constant", "beta": 0.2, "memory": 0.1, "params": {"c": 0.5}},
        "time": {"t": 0.2},
        "mc": {"nSamples": 16, "dt": 0.05},
        "probes": {
            "window": [[0], [0]], "deltas": [[[0], [1]]],
            "pairs": [{"x": {"constant": 0.0}}],
        },
    }
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(cfg))
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "'probes.pairs' entry is missing key 'y'" in capsys.readouterr().err


def test_nmax_default_is_shared_by_expand_and_bispace(tmp_path, monkeypatch):
    # expand used to default nMax to 2 and bispace / quasilocality to 1
    cfg = {
        "seed": 1,
        "lattice": {"box": [[0], [1]], "neighborhoodRadius": 0},
        "potential": {"family": "quadratic"},
        "drift": {"family": "constant", "beta": 0.2, "memory": 0.1, "params": {"c": 0.5}},
        "time": {"T": 0.5, "M": 2},
        "mc": {"nSamples": 16, "dt": 0.05},
        "truncation": {"kMax": 1},
        "x": {"constant": 0.0},
        "y": {"constant": 0.2},
        "probes": {"dynamic": "expansion"},
    }
    assert cfgmod.Resolved(cfg).truncation == (1, 2)
    seen = []
    real = harness.connected_collections
    monkeypatch.setattr(
        harness, "connected_collections",
        lambda clusters, n_max: seen.append(n_max) or real(clusters, n_max),
    )
    run("expand", cfg, str(tmp_path / "expand"))
    assert seen == [cfgmod.Resolved(cfg).bispace.dynamic.n_max] == [2]


def _readme_config() -> dict:
    """The config documented in README.md, comments stripped."""
    readme = Path(os.path.dirname(__file__), "..", "README.md").read_text()
    (block,) = re.findall(r"```jsonc\n(.*?)```", readme, re.S)
    return json.loads(re.sub(r"//[^\n]*", "", block))


def test_expand_over_the_collection_cap_exits_before_any_weight(tmp_path, capsys, monkeypatch):
    # the README config at nMax 12: 3^12 exceeds the default collection cap,
    # which is checked before the first cluster weight is drawn
    cfg = _readme_config()
    cfg["truncation"]["nMax"] = 12
    path = tmp_path / "nmax12.json"
    path.write_text(json.dumps(cfg))

    def no_weights(*args, **kwargs):
        raise AssertionError("a cluster weight was drawn")

    monkeypatch.setattr(expansion, "cluster_sampler", no_weights)
    out = tmp_path / "o"
    assert main(["expand", "--config", str(path), "--out", str(out)]) == 2
    assert "collection enumeration exceeded cap of 200000" in capsys.readouterr().err
    assert not (out / "weights.jsonl").exists()


def test_a_failed_run_leaves_no_directory(tmp_path):
    # expand at nMax 12 exits 2, and used to leave a directory holding only
    # config.resolved.json, and then an empty parent directory
    cfg = _readme_config()
    cfg["truncation"]["nMax"] = 12
    with pytest.raises(BudgetError, match="collection enumeration exceeded cap"):
        run("expand", cfg, str(tmp_path / "runs" / "o"))
    assert not (tmp_path / "runs").exists()
    # an existing directory keeps what it held and gets nothing new
    out = tmp_path / "existing"
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    with pytest.raises(BudgetError):
        run("expand", cfg, str(out))
    assert os.listdir(out) == ["kept.txt"]
    assert sorted(os.listdir(tmp_path)) == ["existing"]


def test_a_run_into_new_nested_directories_creates_them(tmp_path):
    out = tmp_path / "runs" / "a" / "o"
    summary = run("dobrushin", DOB_CFG, str(out))
    assert sorted(os.listdir(out)) == sorted(summary["artifacts"] + ["manifest.txt"])
    assert os.listdir(tmp_path) == ["runs"]
    assert os.listdir(tmp_path / "runs") == ["a"]


def test_a_run_into_an_existing_directory_writes_its_files_there(tmp_path):
    out = tmp_path / "existing"
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    summary = run("dobrushin", DOB_CFG, str(out))
    assert sorted(os.listdir(out)) == sorted(summary["artifacts"] + ["kept.txt", "manifest.txt"])
    assert (out / "kept.txt").read_text() == "kept"
    assert replay(str(out)) == {"ok": True, "firstDivergence": None}
    assert sorted(os.listdir(tmp_path)) == ["existing"]


@pytest.mark.parametrize("sub", sorted(harness.SUBCOMMANDS))
def test_an_output_directory_at_or_under_a_regular_file_exits_2(tmp_path, capsys, sub):
    # under a regular file the staging directory ended in a raw
    # NotADirectoryError from tempfile.mkdtemp; at the file itself the run
    # did its work and then failed in os.makedirs
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(_readme_config()))
    afile = tmp_path / "afile"
    afile.write_text("kept")
    for out in (afile / "o", afile / "a" / "o", afile):
        assert main([sub, "--config", str(path), "--out", str(out)]) == 2
        assert f"{afile} is not a directory" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["afile", "readme.json"]
    assert afile.read_text() == "kept"


def test_the_readme_config_cannot_resolve_its_density(tmp_path, capsys):
    # on the five-site box the interacting last-step density at y is a
    # product of five normals of variance dt, which few of the R paths
    # carry: the endpoint route exits 4 naming its effective sample size
    # (3.1 here; the 3-stderr rule keeps it under about 9) and leaves no
    # run directory
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(_readme_config()))
    assert main(["density", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    found = re.search(r"the interacting density at y is not resolved: effective sample size ([0-9.]+) of 10000", err)
    assert found and float(found.group(1)) < 9.0
    assert sorted(os.listdir(tmp_path)) == ["readme.json"]


def test_expand_tests_each_pair_of_clusters_once(tmp_path, monkeypatch):
    # the collections, the reconstruction and the weights read one cluster
    # set, whose conflict graph is built once: expand used to build it twice
    calls = []
    real = clusters_module.conflicts
    monkeypatch.setattr(
        clusters_module, "conflicts", lambda G1, G2, nbhd: calls.append(1) or real(G1, G2, nbhd)
    )
    cfg = {
        **ROBUSTNESS_CFG,
        "lattice": {"box": [[0], [3]]},
        "drift": {"family": "markov_local", "beta": 0.2, "params": {"scale": 1.0, "radius": 1}},
        "time": {"T": 1.0, "M": 2},
        "truncation": {"kMax": 2, "nMax": 2},
    }
    N = run("expand", cfg, str(tmp_path / "o"))["nClusters"]
    assert N == 16
    assert len(calls) == N * (N + 1) // 2


@pytest.mark.parametrize("sub", sorted(harness.SUBCOMMANDS))
def test_the_manifest_lists_every_file_a_run_writes(tmp_path, sub):
    # the manifest used to list what each subcommand declared it wrote
    cfg = _readme_config()
    if sub == "density":
        # two sites, as in CI: the endpoint-ratio route does not resolve the
        # README's five (test_the_readme_config_cannot_resolve_its_density)
        cfg["lattice"] = {"box": [[0], [1]], "neighborhoodRadius": 0}
        cfg["drift"]["params"]["radius"] = 0
    else:
        cfg["mc"] = {"nSamples": 20, "burnIn": 10, "thin": 2}
    out = tmp_path / sub
    summary = run(sub, cfg, str(out))
    manifest = (out / "manifest.txt").read_text().splitlines()
    listed = [line.split()[1] for line in manifest if line.startswith("artifact: ")]
    assert listed == summary["artifacts"]
    assert sorted(listed + ["manifest.txt"]) == sorted(os.listdir(out))


def test_a_run_builds_its_potential_once(tmp_path, monkeypatch):
    # quasilocality used to build the volume and the potential once for its
    # probe pairs and again for its two-layer interaction
    built = []
    real = cfgmod.POTENTIALS["quadratic"]
    monkeypatch.setitem(cfgmod.POTENTIALS, "quadratic", lambda: built.append(1) or real())
    cfg = {**ROBUSTNESS_CFG, "potential": {"family": "quadratic"}}
    assert cfg["probes"]["dynamic"] == "expansion"
    run("quasilocality", cfg, str(tmp_path / "q"))
    assert len(built) == 1


@pytest.mark.parametrize("sub", sorted(harness.SUBCOMMANDS))
def test_a_two_dimensional_box_exits_2_before_the_run_directory(tmp_path, capsys, sub):
    # on [[0, 0], [2, 2]] expand used to exit 0 with no cluster and kp with
    # lambdaStar 1.0: the configurable neighbourhoods are one-dimensional
    cfg = _readme_config()
    cfg["lattice"]["box"] = [[0, 0], [2, 2]]
    path = tmp_path / "2d.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main([sub, "--config", str(path), "--out", str(out)]) == 2
    assert "d-dimensional neighbourhoods are not configurable yet" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValidationError, match="not configurable yet"):
        run(sub, cfg, str(out))
    assert not out.exists()


@pytest.mark.parametrize("key", ["subBox", "window", "deltas"])
def test_every_probe_box_is_one_dimensional(key):
    cfg = _readme_config()
    cfg["probes"][key] = [[0, 0], [1, 1]] if key != "deltas" else [[[0, 0], [1, 1]]]
    with pytest.raises(ValidationError, match=f"'probes.{key}(.0)?' has corners of 2 coordinates"):
        cfgmod.check(cfg)


def test_bispace_with_zero_dynamics_reads_no_drift(tmp_path):
    # only the expansion dynamics read the drift, truncation and mc sections
    cfg = {**DOB_CFG, "time": {"t": 1.0}, "x": {"constant": 0.3}, "y": {"constant": -0.2}}
    assert "drift" not in cfg and cfgmod.value(cfg, "probes.dynamic") == "zero"
    assert math.isfinite(run("bispace", cfg, str(tmp_path / "b"))["hamiltonian"])


def test_resolve_interaction_templates():
    lattice = {"box": [[0], [3]]}
    phi = cfgmod.Resolved({**DOB_CFG, "lattice": lattice}).interaction
    assert len(phi.terms) == 3
    assert phi.beta0 == 0.4
    with pytest.raises(ValidationError):
        cfgmod.Resolved(
            {"lattice": lattice, "interaction": {"terms": [{"template": "nope"}]}}
        ).interaction


def test_run_simulate_artifacts_and_manifest(tmp_path):
    out = str(tmp_path / "run1")
    summary = run("simulate", SIM_CFG, out)
    assert summary["seed"] == 7
    for name in ("paths.csv", "terminal_summary.csv", "config.resolved.json", "manifest.txt"):
        assert os.path.exists(os.path.join(out, name))
    header = Path(out, "paths.csv").read_text().splitlines()[0].strip().split(",")
    assert header[-2:] == ["seed", "configHash"]
    manifest = Path(out, "manifest.txt").read_text()
    assert "subcommand: simulate" in manifest
    assert manifest.count("sha256") == 3  # config + two csv artifacts


def test_seed_override_changes_hash_and_output(tmp_path):
    a = run("simulate", SIM_CFG, str(tmp_path / "a"))
    b = run("simulate", SIM_CFG, str(tmp_path / "b"), seed=99)
    assert a["configHash"] != b["configHash"]
    pa = (tmp_path / "a" / "paths.csv").read_text()
    pb = (tmp_path / "b" / "paths.csv").read_text()
    assert pa != pb


def test_replay_roundtrip_and_tamper_detection(tmp_path):
    out = str(tmp_path / "run")
    run("simulate", SIM_CFG, out)
    assert replay(out) == {"ok": True, "firstDivergence": None}
    # tamper with one artifact line
    path = Path(out, "paths.csv")
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[1], "9.999")
    path.write_text("\n".join(lines) + "\n")
    res = replay(out)
    assert res["ok"] is False
    assert res["firstDivergence"].startswith("paths.csv:2")


def test_replay_roundtrip_of_an_expand_run(tmp_path):
    # the weights, the interaction table and the summary are written from
    # the array evaluator; a replay must reproduce them byte for byte
    cfg = {
        "seed": 3,
        "lattice": {"box": [[0], [3]], "neighborhoodRadius": 1},
        "potential": {"family": "quadratic"},
        "drift": {
            "family": "markov_local", "beta": 0.5, "memory": 0.1,
            "params": {"scale": 1.0, "radius": 1},
        },
        "time": {"T": 1.0, "M": 2},
        "mc": {"nSamples": 32, "dt": 0.1},
        "truncation": {"kMax": 2, "nMax": 3},
        "x": {"constant": 0.3},
        "y": {"constant": -0.4},
    }
    out = str(tmp_path / "expand")
    run("expand", cfg, out)
    manifest = Path(out, "manifest.txt").read_text()
    for name in ("weights.jsonl", "interaction.jsonl", "expand_summary.json"):
        assert f"artifact: {name} sha256" in manifest
    traces = [
        json.loads(line)["trace"]
        for line in Path(out, "interaction.jsonl").read_text().splitlines()
    ]
    assert any(len(t) > 1 for t in traces)
    assert replay(out) == {"ok": True, "firstDivergence": None}


def test_expand_with_a_beta_grid_writes_one_lambda_fit_row_per_beta(tmp_path):
    cfg = {
        "seed": 5,
        "lattice": {"box": [[0], [1]], "neighborhoodRadius": 0},
        "potential": {"family": "quadratic"},
        "drift": {"family": "constant", "beta": 0.2, "memory": 0.1, "params": {"c": 0.5}},
        "time": {"t": 1.0},
        "mc": {"nSamples": 16, "dt": 0.05},
        "truncation": {"kMax": 2, "nMax": 2},
        "x": {"constant": 0.3},
        "y": {"constant": -0.2},
        "betaGrid": [0.5, 2.0],
    }
    out = str(tmp_path / "expand")
    summary = run("expand", cfg, out)
    assert "lambda_fit.csv" in summary["artifacts"]
    with open(os.path.join(out, "lambda_fit.csv"), newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "beta", "T", "M", "lambdaHat", "c1Hat", "c2Hat", "maxAbsZ", "nClusters",
        "seed", "configHash",
    ]
    rows = _read_back(os.path.join(out, "lambda_fit.csv"))
    assert [float(r["beta"]) for r in rows] == cfg["betaGrid"]
    grids = [expansion.grid_for_beta(1.0, 0.1, beta) for beta in cfg["betaGrid"]]
    assert [(float(r["T"]), int(r["M"])) for r in rows] == [(g.T, g.M) for g in grids]
    assert [g.M for g in grids] == [1, 2]  # the two rows slice the horizon differently
    assert replay(out) == {"ok": True, "firstDivergence": None}


DRIFT_FAMILIES = next(k.choices for k in cfgmod.SCHEMA if k.path == "drift.family")


@pytest.mark.parametrize("family", DRIFT_FAMILIES)
def test_every_drift_family_of_the_schema_simulates_and_replays(tmp_path, family):
    # no neighborhoodRadius, so each family keeps its own range
    cfg = {**SIM_CFG, "lattice": {"box": [[0], [2]]},
           "drift": {"family": family, "beta": 0.3}}
    drift = cfgmod.Resolved(cfg).drift
    assert (drift.label, drift.beta) == (family, 0.3)
    out = str(tmp_path / family)
    run("simulate", cfg, out)
    assert len(_read_back(os.path.join(out, "paths.csv"))) == 5  # t = 0.2 in steps of 0.05
    assert replay(out) == {"ok": True, "firstDivergence": None}


def _read_back(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows
    for row in rows:
        assert len(row) == len(header)
    return [dict(zip(header, row)) for row in rows]


def test_csv_rows_read_back_with_plain_numbers(tmp_path):
    dlr_cfg = {
        **DOB_CFG,
        "lattice": {"box": [[0], [3]]},
        "potential": {"family": "quadratic"},
        "mc": {"nSamples": 2, "burnIn": 5, "thin": 2},
        "probes": {"subBox": [[1], [2]], "nOuter": 6, "nInner": 2},
    }
    run("dlr", dlr_cfg, str(tmp_path / "dlr"))
    for rec in _read_back(tmp_path / "dlr" / "dlr.csv"):
        for col in ("direct", "directStderr", "twoStage", "twoStageStderr", "z", "seed"):
            float(rec[col])
    quasi_cfg = {
        **DOB_CFG,
        "potential": {"family": "quadratic"},
        "time": {"t": 1.0},
        "mc": {"nSamples": 4, "burnIn": 2, "thin": 1},
        "probes": {
            "window": [[2], [2]],
            "deltas": [[[2], [2]], [[0], [4]]],
            "pairs": [{"x": {"constant": 0.3}, "y": {"constant": -0.2}}],
        },
    }
    run("quasilocality", quasi_cfg, str(tmp_path / "q"))
    for rec in _read_back(tmp_path / "q" / "quasilocality.csv"):
        assert json.loads(rec["delta"])
        for col in ("supDiff", "noise", "seed"):
            float(rec[col])


def test_run_kp_subcommand(tmp_path):
    summary = run("kp", KP_CFG, str(tmp_path / "kp"))
    assert summary["lambdaStar"] > 0.0
    rows = (tmp_path / "kp" / "kp.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 + 1  # header, two probes, lambda-star row


def test_kp_on_a_geometry_without_clusters(tmp_path):
    # one site, radius 1 and one slice: no interior site, no kernel layer
    cfg = {**KP_CFG, "lattice": {"box": [[0], [0]], "neighborhoodRadius": 1}, "time": {"t": 1}}
    summary = run("kp", cfg, str(tmp_path / "kp"))
    assert summary["lambdaStar"] == 1.0
    rows = _read_back(tmp_path / "kp" / "kp.csv")
    assert [(r["lambda"], r["worstRatio"], r["nClusters"]) for r in rows] == [
        ("0.0", "0.0", "0"), ("1.0", "0.0", "0"), ("1.0", "lambdaStar", ""),
    ]


def test_kp_enumerates_its_clusters_once_per_run(tmp_path, monkeypatch):
    # every lambda probe and the lambda* bisection read one enumeration and
    # one conflict graph, built afresh by each run
    calls = {"enumerate_clusters": 0, "kp_check": 0, "kp_lambda_star": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(clusters_module, "enumerate_clusters")
    counted(harness, "kp_check")
    counted(harness, "kp_lambda_star")
    for k in range(2):
        summary = run("kp", KP_CFG, str(tmp_path / f"kp{k}"))
    assert calls == {"enumerate_clusters": 2, "kp_check": 4, "kp_lambda_star": 2}
    vol, grid = Volume.box((0,), (3,)), TimeGrid(1.0, 3)
    cset = ClusterSet.enumerate(vol, Neighborhood.range1d(1), grid, 3)
    assert summary["lambdaStar"] == kp_lambda_star(cset)
    assert calls["enumerate_clusters"] == 3
    rows = _read_back(tmp_path / "kp1" / "kp.csv")[:2]
    for lam, row in zip((0.0, 1.0), rows):
        res = kp_check(lam, cset)
        assert row["worstRatio"] == str(res["worstRatio"])
        assert row["nClusters"] == str(res["nClusters"])


def test_run_dobrushin_subcommand(tmp_path):
    summary = run("dobrushin", DOB_CFG, str(tmp_path / "dob"))
    assert summary["value"] == pytest.approx(2 * 0.4 * 0.8)
    assert summary["passes"] is True


def test_run_report_counts_files(tmp_path):
    out = str(tmp_path / "rep")
    run("dobrushin", DOB_CFG, out)
    summary = run("report", DOB_CFG, out)
    assert "dobrushin.csv" in summary["files"]
    assert os.path.exists(os.path.join(out, "report.json"))


def test_unknown_subcommand_rejected(tmp_path):
    with pytest.raises(ValidationError):
        run("frobnicate", SIM_CFG, str(tmp_path / "x"))


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SIM_CFG))
    out = str(tmp_path / "cli-run")
    assert main(["simulate", "--config", str(cfg_path), "--out", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["replicas"] == 64
    assert main(["replay", "--artifacts", out]) == 0


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_library_never_loads_scipy(tmp_path):
    # scipy is test tooling only; these tests import scipy.stats, so the
    # check runs in a fresh interpreter
    code = f"""
import importlib, pkgutil, sys
import numpy as np
import gibbslab
for mod in pkgutil.iter_modules(gibbslab.__path__):
    importlib.import_module("gibbslab." + mod.name)
from gibbslab.dynamics import custom_potential, free_kernel
line = custom_potential(lambda x: np.asarray(x) ** 2, lambda x: 2.0 * np.asarray(x))
circle = custom_potential(np.cos, lambda x: -np.sin(x), state_space="circle")
assert np.isfinite(free_kernel(line, 0.5, 0.3, -0.2))
assert np.isfinite(free_kernel(circle, 0.5, 0.3, 6.0))
from gibbslab.harness import run
run("simulate", {SIM_CFG!r}, {str(tmp_path / "sim")!r})
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, f"{{len(loaded)}} scipy modules loaded: {{loaded[:3]}}"
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gibbslab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


ROBUSTNESS_CFG = {
    "seed": 1,
    "lattice": {"box": [[0], [1]], "neighborhoodRadius": 0},
    "drift": {"family": "constant", "beta": 0.2, "memory": 0.1, "params": {"c": 0.5}},
    # M = 2 puts pure time clusters, which read the free kernel, first
    "time": {"T": 0.5, "M": 2},
    "mc": {"nSamples": 16, "dt": 0.05, "burnIn": 2, "thin": 1},
    "truncation": {"kMax": 1, "nMax": 2},
    "interaction": {
        "beta0": 0.4,
        "terms": [{"template": "nearest_neighbor", "coupling": 0.8}],
    },
    "x": {"constant": 0.3},
    "y": {"constant": 0.2},
    "probes": {
        "lambdas": [0.0, 1.0],
        "subBox": [[1], [1]], "nOuter": 4, "nInner": 2,
        "dynamic": "expansion",
        "window": [[0], [0]], "deltas": [[[0], [0]], [[0], [1]]],
        "pairs": [{"x": {"constant": 0.3}, "y": {"constant": 0.2}}],
    },
}


def test_every_subcommand_and_potential_ends_in_a_typed_exit(tmp_path, capsys):
    # under quartic, the subcommands that build cluster weights refuse the
    # potential, which has no exact bridges, with exit 2 before they draw a
    # weight or read the general kernel, on whose grid exp(-U) underflows
    builds_weights = {"expand", "bispace", "quasilocality"}
    for family in ("quadratic", "circle_free", "quartic"):
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps({**ROBUSTNESS_CFG, "potential": {"family": family}}))
        for sub in sorted(set(harness.SUBCOMMANDS) - {"report"}):
            out = str(tmp_path / f"{sub}-{family}")
            code = main([sub, "--config", str(path), "--out", out])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (sub, family, code, err)
            if family == "quartic" and sub in builds_weights:
                assert code == 2 and "not the 'general' family" in err, (sub, err)


def test_dlr_reads_no_sample_count_from_mc(tmp_path):
    # dlr's sample counts are probes.nOuter and probes.nInner, so mc.nSamples
    # changes nothing, not even at 1, which MCParams rejects
    tables = []
    for n in (1, 2):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({**ROBUSTNESS_CFG, "mc": {**ROBUSTNESS_CFG["mc"], "nSamples": n}}))
        assert main(["dlr", "--config", str(path), "--out", str(tmp_path / f"o{n}")]) == 0
        rows = _read_back(tmp_path / f"o{n}" / "dlr.csv")
        tables.append([{k: v for k, v in r.items() if k != "configHash"} for r in rows])
    assert tables[0] == tables[1]


def test_a_window_off_the_lattice_exits_2(tmp_path, capsys):
    # a window site outside the box used to end in a raw KeyError
    probes = {**ROBUSTNESS_CFG["probes"], "window": [[-1], [0]]}
    path = tmp_path / "window.json"
    path.write_text(json.dumps({**ROBUSTNESS_CFG, "probes": probes}))
    assert main(["quasilocality", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "each probe pair must cover the window" in capsys.readouterr().err


def _key_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _key_paths(child, prefix + (key,))


MUTATED_CFG = {**ROBUSTNESS_CFG, "potential": {"family": "quadratic"}}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    path=st.sampled_from(list(_key_paths(MUTATED_CFG))),
    bad=st.sampled_from(["a", None, [], {}, -1, 0, 1.5, True, [[0]], -0.5]),
    sub=st.sampled_from(sorted(set(harness.SUBCOMMANDS) - {"report"})),
)
def test_a_mutated_config_ends_in_a_typed_exit(path, bad, sub):
    # one key set to one bad value used to end in a raw exception in 246 of
    # the 710 such mutations, and dlr with nOuter 0 or 1 exited 0 on NaN
    cfg = json.loads(json.dumps(MUTATED_CFG))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "cfg.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([sub, "--config", config_path, "--out", os.path.join(tmp, "o")])
    assert code in (0, 2, 3, 4), (path, bad, sub, code)
    if code == 0:
        summary = json.loads(out.getvalue())
        assert not _holds_nan(summary), (path, bad, sub, summary)


def _holds_nan(node) -> bool:
    if isinstance(node, float):
        return math.isnan(node)
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    return any(_holds_nan(c) for c in children)


@pytest.mark.parametrize(
    "sub", ["simulate", "density", "expand", "kp", "bispace", "quasilocality"]
)
def test_a_radius_other_than_the_drift_range_exits_2(tmp_path, capsys, sub):
    # the expansion took its range from the radius (default 1) and the
    # Girsanov factors from the drift (range 0), and mixed them silently
    cfg = {**ROBUSTNESS_CFG, "potential": {"family": "quadratic"},
           "lattice": {"box": [[0], [1]], "neighborhoodRadius": 1}}
    path = tmp_path / "radius.json"
    path.write_text(json.dumps(cfg))
    assert main([sub, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "neighborhoodRadius 1 differs from the range 0 of the 'constant' drift" in (
        capsys.readouterr().err
    )
    # without a drift, kp reads the radius
    no_drift = {k: v for k, v in cfg.items() if k != "drift"}
    summary = run("kp", no_drift, str(tmp_path / "kp"))
    vol, grid = Volume.box((0,), (1,)), TimeGrid(0.5, 2)
    for radius, same in ((1, True), (0, False)):
        cset = ClusterSet.enumerate(vol, Neighborhood.range1d(radius), grid, 1)
        assert (summary["lambdaStar"] == kp_lambda_star(cset)) is same


def test_expand_takes_its_range_from_the_drift(tmp_path):
    # with no radius set, expand used to enumerate with radius 1 under a
    # range-0 drift: reconstruct 0.789 +- 0.003 against the bridge 0.492
    cfg = {
        "seed": 3,
        "lattice": {"box": [[0], [2]]},
        "potential": {"family": "quadratic"},
        "drift": {"family": "constant", "beta": 0.5, "params": {"c": 0.7}},
        "time": {"T": 2.0, "M": 1},
        "mc": {"nSamples": 4000, "dt": 0.05},
        "truncation": {"kMax": 3, "nMax": 3},
        "x": {"constant": 0.3},
        "y": {"constant": -0.2},
        "probes": {"pairs": [{"x": {"constant": 0.3}, "y": {"constant": -0.2}}]},
    }
    rec = run("expand", cfg, str(tmp_path / "expand"))["reconstruct"]
    run("density", cfg, str(tmp_path / "density"))
    bridge = _read_back(tmp_path / "density" / "density.csv")[0]
    assert bridge["method"] == "bridge"
    value, stderr = float(bridge["value"]), float(bridge["stderr"])
    assert abs(rec["value"] - value) < 4 * math.hypot(rec["stderr"], stderr)


def test_kp_takes_its_range_from_the_drift(tmp_path):
    # with a range-0 drift and no radius, kp used to check the radius-1
    # geometry (1 cluster, lambdaStar 0.3679) while expand weighted 3 clusters
    cfg = {
        "seed": 3,
        "lattice": {"box": [[0], [2]]},
        "potential": {"family": "quadratic"},
        "drift": {"family": "constant", "beta": 0.5, "params": {"c": 0.7}},
        "time": {"T": 2.0, "M": 1},
        "mc": {"nSamples": 64, "dt": 0.05},
        "truncation": {"kMax": 3, "nMax": 3},
        "x": {"constant": 0.3},
        "y": {"constant": -0.2},
    }
    expand = run("expand", cfg, str(tmp_path / "expand"))
    run("kp", cfg, str(tmp_path / "kp"))
    rows = [r for r in _read_back(tmp_path / "kp" / "kp.csv") if r["worstRatio"] != "lambdaStar"]
    assert rows and {int(r["nClusters"]) for r in rows} == {expand["nClusters"]}
    assert expand["nClusters"] == 3


DLR_CFG = {**DOB_CFG, "potential": {"family": "quadratic"},
           "probes": {"subBox": [[1], [3]], "nOuter": 4, "nInner": 2}}


@pytest.mark.parametrize(
    "sub, base, path, value, message",
    [
        ("simulate", SIM_CFG, "mc.nSamples", "lots", "config 'mc.nSamples' must be a number"),
        ("simulate", SIM_CFG, "lattice.box", [[0], ["two"]],
         "config 'lattice.box' must be a number"),
        ("kp", KP_CFG, "lattice.neighborhoodRadius", "one",
         "config 'lattice.neighborhoodRadius' must be a number"),
        ("kp", KP_CFG, "probes.lambdas", [0.0, "half"],
         "config 'probes.lambdas.1' must be a number"),
        ("dlr", DLR_CFG, "probes.nOuter", "many", "config 'probes.nOuter' must be a number"),
        # these used to run on a truncated value, on NaN or on nothing
        ("simulate", SIM_CFG, "lattice.box", [[1.5], [2]],
         "config 'lattice.box' must be a whole number, not 1.5"),
        ("kp", KP_CFG, "truncation.kMax", 1.5, "config 'truncation.kMax' must be a whole number"),
        ("dlr", DLR_CFG, "mc.thin", True, "config 'mc.thin' must be a number, not True"),
        ("simulate", SIM_CFG, "seed", 1.7, "config 'seed' must be a whole number, not 1.7"),
        ("kp", KP_CFG, "probes.lambdas", [float("nan")],
         "config 'probes.lambdas.0' must be a finite number, not nan"),
        ("simulate", SIM_CFG, "lattice.box", [[0], [-3]], "config 'lattice.box' is empty"),
        ("dlr", DLR_CFG, "probes.nOuter", 1, "dlr_test needs n_outer >= 2 and n_inner >= 1"),
        ("dlr", DLR_CFG, "probes.nInner", 0, "dlr_test needs n_outer >= 2 and n_inner >= 1"),
        # t / dt overflowed the step count into a raw OverflowError
        ("simulate", SIM_CFG, "time.t", 1e308, "1e+308 / dt = inf steps"),
    ],
    ids=["mc.nSamples", "lattice.box", "lattice.neighborhoodRadius", "probes.lambdas",
         "probes.nOuter", "lattice.box-fraction", "truncation.kMax-fraction", "mc.thin-bool",
         "seed-fraction", "probes.lambdas-nan", "lattice.box-empty", "probes.nOuter-one",
         "probes.nInner-zero", "time.t-huge"],
)
def test_a_non_numeric_config_value_exits_2(tmp_path, capsys, sub, base, path, value, message):
    # the first five used to end in a raw ValueError from int() or float()
    cfg = json.loads(json.dumps(base))
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node.setdefault(key, {})
    node[last] = value
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(cfg))
    assert main([sub, "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_the_interaction_total_of_no_clusters_is_a_float(tmp_path):
    # box 0..0 at radius 1 has an empty interior, so no clusters: the total
    # is written as 0.0, a float like every other total, not as the int 0
    cfg = _readme_config()
    cfg["lattice"]["box"] = [[0], [0]]
    summary = run("expand", cfg, str(tmp_path / "o"))
    assert summary["nClusters"] == 0
    total = json.loads((tmp_path / "o" / "expand_summary.json").read_text())["interactionTotal"]
    assert isinstance(total["value"], float) and total["value"] == 0.0
