"""Spans and counts around the calls into each gibbslab layer.

``Tracer.install`` replaces every public function of the layer modules, in
every gibbslab module that binds it by name, with a wrapper that records a
span (name, start, end, parent span, pass id) in memory.  A few predicates
that the cluster combinatorics call tens of thousands of times per pass are
only counted; their time stays in the caller's self time.
``Tracer.uninstall`` puts the original functions back.  Per-layer
metrics are computed from the spans after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("dynamics", "girsanov", "clusters", "expansion", "gibbs", "harness")
METHODS = {"gibbs": {"ExpansionDynamicInteraction": ("__init__", "value")}}
COUNT_ONLY = {
    "clusters.conflicts",
    "clusters.non_intersecting",
    "clusters.space_compatible",
    "clusters.is_connected",
    "clusters.is_chain_connected",
    "clusters.trace",
    "expansion.volume_key",
}


def _bundle_steps(bundle) -> int:
    R, n_sites, n_times = bundle.values.shape
    return R * n_sites * (n_times - 1)


def _psi_steps(args, kwargs) -> int:
    call = dict(zip(("drift", "site", "window", "path"), args), **kwargs)
    if call["drift"].beta == 0.0:
        return 0
    window, path = call["window"], call["path"]
    return path.n_replicas * round((window[1] - window[0]) / path.dt)


# work counts: span name -> (quantity, f(args, kwargs, result))
WORK = {
    "dynamics.simulate": ("replica_steps", lambda a, k, r: _bundle_steps(r)),
    "girsanov.multi_bridge_bundle": ("replica_steps", lambda a, k, r: _bundle_steps(r)),
    "girsanov.psi": ("replica_steps", lambda a, k, r: _psi_steps(a, k)),
    "clusters.enumerate_clusters": ("clusters", lambda a, k, r: len(r)),
    "expansion.interaction_terms": ("terms", lambda a, k, r: len(r.entries)),
}

# functions that must record calls on a workload, or the traced run fails
HEAVY = {
    "density": (
        "dynamics.simulate", "girsanov.psi", "girsanov.multi_bridge_bundle",
        "girsanov.log_girsanov_weight", "girsanov.density",
        "girsanov.density_endpoint_ratio", "harness.run",
    ),
    "expansion": (
        "clusters.enumerate_clusters", "clusters.conflicts", "clusters.is_connected",
        "clusters.ursell_coefficient", "expansion.cluster_weight",
        "expansion.weight_table", "expansion.interaction_terms",
        "expansion.reconstruct_density", "expansion.kp_check",
        "expansion.kp_lambda_star", "harness.run",
    ),
    "gibbs": (
        "dynamics.free_kernel", "girsanov.psi", "girsanov.multi_bridge_bundle",
        "expansion.cluster_weight", "gibbs.ExpansionDynamicInteraction.__init__",
        "gibbs.ExpansionDynamicInteraction.value", "gibbs.conditional_density",
        "gibbs.quasilocality_probe", "gibbs.dlr_test", "gibbs.gibbs_chain",
        "harness.run",
    ),
}

# per-layer metrics: (metric name, span name, quantity); quantity is
# "calls", "self_s", "total_s" or a key of WORK
SPAN_METRICS = [
    ("dynamics.simulate.calls", "dynamics.simulate", "calls"),
    ("dynamics.simulate.self_s", "dynamics.simulate", "self_s"),
    ("dynamics.simulate.replica_steps", "dynamics.simulate", "replica_steps"),
    ("dynamics.free_kernel.calls", "dynamics.free_kernel", "calls"),
    ("dynamics.free_kernel.self_s", "dynamics.free_kernel", "self_s"),
    ("girsanov.psi.calls", "girsanov.psi", "calls"),
    ("girsanov.psi.self_s", "girsanov.psi", "self_s"),
    ("girsanov.psi.replica_steps", "girsanov.psi", "replica_steps"),
    ("girsanov.multi_bridge_bundle.calls", "girsanov.multi_bridge_bundle", "calls"),
    ("girsanov.multi_bridge_bundle.self_s", "girsanov.multi_bridge_bundle", "self_s"),
    ("girsanov.multi_bridge_bundle.replica_steps", "girsanov.multi_bridge_bundle", "replica_steps"),
    ("girsanov.log_girsanov_weight.self_s", "girsanov.log_girsanov_weight", "self_s"),
    ("girsanov.density.self_s", "girsanov.density", "self_s"),
    ("girsanov.density_endpoint_ratio.self_s", "girsanov.density_endpoint_ratio", "self_s"),
    ("clusters.enumerate_clusters.calls", "clusters.enumerate_clusters", "calls"),
    ("clusters.enumerate_clusters.self_s", "clusters.enumerate_clusters", "self_s"),
    ("clusters.enumerate_clusters.clusters", "clusters.enumerate_clusters", "clusters"),
    ("clusters.conflicts.calls", "clusters.conflicts", "calls"),
    ("clusters.is_connected.calls", "clusters.is_connected", "calls"),
    ("clusters.ursell_coefficient.calls", "clusters.ursell_coefficient", "calls"),
    ("clusters.ursell_coefficient.self_s", "clusters.ursell_coefficient", "self_s"),
    ("expansion.cluster_weight.calls", "expansion.cluster_weight", "calls"),
    ("expansion.cluster_weight.self_s", "expansion.cluster_weight", "self_s"),
    ("expansion.weight_table.self_s", "expansion.weight_table", "self_s"),
    ("expansion.interaction_terms.self_s", "expansion.interaction_terms", "self_s"),
    ("expansion.interaction_terms.terms", "expansion.interaction_terms", "terms"),
    ("expansion.reconstruct_density.self_s", "expansion.reconstruct_density", "self_s"),
    ("expansion.kp_check.calls", "expansion.kp_check", "calls"),
    ("expansion.kp_check.self_s", "expansion.kp_check", "self_s"),
    ("expansion.kp_lambda_star.self_s", "expansion.kp_lambda_star", "self_s"),
    ("gibbs.ExpansionDynamicInteraction.init_s", "gibbs.ExpansionDynamicInteraction.__init__", "total_s"),
    ("gibbs.ExpansionDynamicInteraction.value.calls", "gibbs.ExpansionDynamicInteraction.value", "calls"),
    ("gibbs.conditional_density.calls", "gibbs.conditional_density", "calls"),
    ("gibbs.conditional_density.self_s", "gibbs.conditional_density", "self_s"),
    ("gibbs.quasilocality_probe.self_s", "gibbs.quasilocality_probe", "self_s"),
    ("gibbs.dlr_test.self_s", "gibbs.dlr_test", "self_s"),
    ("gibbs.sample_gibbs.calls", "gibbs.sample_gibbs", "calls"),
    ("gibbs.gibbs_chain.calls", "gibbs.gibbs_chain", "calls"),
    ("harness.run.self_s", "harness.run", "self_s"),
]


def _unit(quantity: str) -> str:
    return "s" if quantity.endswith("_s") else "count"


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names: list = []
        self.index: dict = {}
        self.span_name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.pass_of: list = []
        self.stack: list = []
        self.counts: list = []
        self.work = Counter()
        self.errors = Counter()
        self._seen_errors: list = []
        self.pass_id = -1
        self._bound = None

    def _name_id(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.counts.append(0)
        return self.index[name]

    def _error(self, layer: str, exc: BaseException) -> None:
        # count each exception once, in the innermost layer it left
        if not any(e is exc for e in self._seen_errors):
            self._seen_errors.append(exc)
            self.errors[layer] += 1

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        layer = name.split(".")[0]
        counts = self.counts
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[nid] += 1
                return fn(*args, **kwargs)
            return counted

        span_name, start, end = self.span_name, self.start, self.end
        parent, pass_of, stack = self.parent, self.pass_of, self.stack
        quantity, work_fn = WORK.get(name, (None, None))
        work = self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            pass_of.append(self.pass_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if work_fn is not None:
                work[(name, quantity)] += work_fn(args, kwargs, result)
            return result

        return traced

    def _bindings(self) -> list:
        """(owner, attribute, original, wrapper) for every place a layer
        function or traced method is bound; wrappers are made once."""
        modules = [importlib.import_module(f"gibbslab.{m}") for m in LAYERS]
        bound = [m for n, m in sorted(sys.modules.items()) if n.startswith("gibbslab.")]
        out = []
        for mod in modules:
            layer = mod.__name__.split(".")[-1]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in bound:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            out.append((other, other_attr, fn, wrapper))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = getattr(cls, meth)
                    out.append((cls, meth, fn, self._wrap(f"{layer}.{cls_name}.{meth}", fn)))
        return out

    def install(self) -> None:
        """Wrap every public function of each layer wherever it is bound."""
        if self._bound is None:
            self._bound = self._bindings()
        for owner, attr, _, wrapper in self._bound:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, fn, _ in self._bound or ():
            setattr(owner, attr, fn)

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s, plus the work counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        for name in COUNT_ONLY:
            if name in out:
                out[name]["calls"] = self.counts[self.index[name]]
        for (name, quantity), value in self.work.items():
            out[name][quantity] = value
        return out

    def weight_miss_ratio(self, values: int) -> float:
        """cluster_weight spans under a gibbs span, per ``values`` value calls."""
        weight = self.index.get("expansion.cluster_weight")
        if weight is None or values == 0:
            return 0.0
        gibbs_ids = {i for name, i in self.index.items() if name.startswith("gibbs.")}
        misses = 0
        for i, nid in enumerate(self.span_name):
            if nid != weight:
                continue
            p = self.parent[i]
            while p >= 0 and self.span_name[p] not in gibbs_ids:
                p = self.parent[p]
            misses += p >= 0
        return misses / values

    def metrics(self) -> dict:
        summ = self.summary()
        out = {}
        for metric, name, quantity in SPAN_METRICS:
            value = summ.get(name, {}).get(quantity, 0)
            out[metric] = {"value": value, "unit": _unit(quantity)}
        values = summ.get("gibbs.ExpansionDynamicInteraction.value", {}).get("calls", 0)
        out["gibbs.weight_miss_ratio"] = {"value": self.weight_miss_ratio(values), "unit": "ratio"}
        for layer in LAYERS:
            out[f"{layer}.errors"] = {"value": self.errors[layer], "unit": "count"}
        return out

    def missing_heavy(self, workload: str) -> list:
        summ = self.summary()
        return [name for name in HEAVY[workload] if summ.get(name, {}).get("calls", 0) == 0]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,pass\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.span_name[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.pass_of[i]}\n"
                )
