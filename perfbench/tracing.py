"""Span tracing of fcnets from outside the package.

``Tracer.install`` wraps every public function of every ``fcnets`` module
in place, in each module (and the package root) that binds it, so calls
made through ``from .x import f`` names are seen too. Each call records a
span ``[module, function, start, end, parent index]``; classes that
``fcnets.networks`` exports are counted on construction. Spans stay in
memory; ``layer_metrics`` turns them into the per-layer figures and
``dump`` writes them out once the run ends.

Time metrics are layer self time. ``<module>.<function>_s`` is the time
inside the outermost calls of that function minus the time of nested
calls into other modules; calls within the same module count toward the
caller. ``<module>.self_s`` and ``<module>.<function>_self_s`` subtract
every nested span, same module included.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

PACKAGE = "fcnets"
MODULE, NAME, START, END, PARENT = range(5)

# (module, function, metric suffix, kind); kind "layer" is layer time,
# "self" subtracts every nested span, "calls" counts calls
FUNCTION_METRICS = (
    ("pipeline", "load_config", "load_config_s", "layer"),
    ("runtime", "to_json", "to_json_s", "layer"),
    ("panels", "load_manifest", "load_manifest_s", "layer"),
    ("estimators", "estimate", "estimate_s", "layer"),
    ("thresholding", "apply_spec", "apply_spec_s", "layer"),
    ("networks", "load_network", "load_network_s", "layer"),
    ("metrics", "local_efficiency", "local_efficiency_s", "layer"),
    ("metrics", "distance_matrix", "distance_matrix_calls", "calls"),
    ("metrics", "path_length", "path_length_s", "layer"),
    ("metrics", "clustering", "clustering_s", "layer"),
    ("metrics", "edge_betweenness", "edge_betweenness_s", "layer"),
    ("metrics", "edge_betweenness", "edge_betweenness_calls", "calls"),
    ("nullmodels", "rewire_preserving_degree", "rewire_s", "layer"),
    ("nullmodels", "small_world", "small_world_self_s", "self"),
    ("nullmodels", "powerlaw_fit", "powerlaw_fit_s", "layer"),
    ("communities", "louvain", "louvain_s", "layer"),
    ("communities", "girvan_newman", "girvan_newman_self_s", "self"),
    ("communities", "modularity", "modularity_calls", "calls"),
    ("groupcompare", "nbs", "nbs_s", "layer"),
    ("groupcompare", "spc", "spc_s", "layer"),
    ("ergm", "ergm_mple", "mple_s", "layer"),
    ("ergm", "ergm_simulate", "simulate_s", "layer"),
    ("twopart", "twopart_fit", "fit_s", "layer"),
    ("twopart", "corr_matrix", "corr_matrix_calls", "calls"),
    ("resampling", "metric_error", "metric_error_self_s", "self"),
)
MODULE_SELF_METRICS = ("cli", "pipeline")


def _swaps(args):
    return args["swaps_per_edge"] * args["g"].edge_count


def _metropolis_steps(args):
    n = args["n"]
    burn_in = 10 * n * n if args["burn_in"] is None else int(args["burn_in"])
    thin = n * n if args["thin"] is None else int(args["thin"])
    return burn_in + args["count"] * thin


# rate metrics: work implied by a call's arguments over the calls' own
# duration; (metric, [(module, function, work from bound arguments)])
RATE_METRICS = (
    ("nullmodels.swaps_per_s", [("nullmodels", "rewire_preserving_degree", _swaps)]),
    (
        "groupcompare.permutations_per_s",
        [
            ("groupcompare", "nbs", lambda a: a["permutations"]),
            ("groupcompare", "spc", lambda a: a["permutations"]),
        ],
    ),
    ("ergm.steps_per_s", [("ergm", "ergm_simulate", _metropolis_steps)]),
    ("resampling.replicates_per_s", [("resampling", "metric_error", lambda a: a["replicates"])]),
)
WORK_HOOKS = {(m, f): hook for _, parts in RATE_METRICS for m, f, hook in parts}
CLASS_COUNT_MODULE = "networks"
BUILT_METRIC = "networks.built"
MODULE_CALLS_METRICS = ("estimators",)  # entries into the module: outermost calls


def metric_names():
    """Every per-layer metric this module reports, with its unit."""
    out = {f"{m}.self_s": "s" for m in MODULE_SELF_METRICS}
    for module, _, suffix, kind in FUNCTION_METRICS:
        out[f"{module}.{suffix}"] = "count" if kind == "calls" else "s"
    out.update({f"{m}.calls": "count" for m in MODULE_CALLS_METRICS})
    out[BUILT_METRIC] = "count"
    out.update({name: "1/s" for name, _ in RATE_METRICS})
    return out


def _per_pass(total, passes):
    """Counts stay whole when every pass did the same work."""
    if isinstance(total, int) and total % passes == 0:
        return total // passes
    return total / passes


class Tracer:
    def __init__(self):
        self.spans = []
        self.work = Counter()  # (module, function) -> work from call arguments
        self.built = 0
        self.missing = set()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every public function and count network constructions."""
        pkg = importlib.import_module(PACKAGE)
        mods = {"": pkg}
        for info in pkgutil.iter_modules(pkg.__path__):
            mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
        wrappers = {}
        for short, mod in mods.items():
            if not short:
                continue
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(short, attr, obj)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        networks = mods.get(CLASS_COUNT_MODULE)
        for attr, cls in vars(networks).items() if networks else ():
            if inspect.isclass(cls) and cls.__module__ == networks.__name__ and not attr.startswith("_"):
                self._patch(cls, "__init__", self._counting_init(cls.__init__))
        present = {(wrapper.module, wrapper.name) for wrapper in wrappers.values()}
        wanted = {(m, f) for m, f, _, _ in FUNCTION_METRICS}
        self.missing = {f"{m}.{f}" for m, f in (wanted | set(WORK_HOOKS)) - present}
        if networks is None:
            self.missing.add(f"{PACKAGE}.{CLASS_COUNT_MODULE}")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, module, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK_HOOKS.get((module, name))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                self._record_work(module, name, fn, work, args, kwargs)
            span = [module, name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        wrapper.module, wrapper.name = module, name
        return wrapper

    def _record_work(self, module, name, fn, hook, args, kwargs):
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            self.work[(module, name)] += hook(bound.arguments)
        except (KeyError, TypeError, AttributeError):
            self.missing.add(f"{module}.{name} arguments")

    def _counting_init(self, init):
        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            self.built += 1
            return init(obj, *args, **kwargs)

        return counted

    # -- results -----------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-layer metrics per pass (totals over the traced passes / passes)."""
        spans = self.spans
        children = defaultdict(list)
        for idx, span in enumerate(spans):
            children[span[PARENT]].append(idx)

        def duration(i):
            return spans[i][END] - spans[i][START]

        def self_time(i):
            return duration(i) - sum(duration(c) for c in children[i])

        def layer_time(i):
            # subtract the outermost nested spans that belong to other modules
            total, todo = duration(i), list(children[i])
            while todo:
                c = todo.pop()
                if spans[c][MODULE] == spans[i][MODULE]:
                    todo.extend(children[c])
                else:
                    total -= duration(c)
            return total

        def outermost(i, key):
            p = spans[i][PARENT]
            while p >= 0:
                if key(spans[p]) == key(spans[i]):
                    return False
                p = spans[p][PARENT]
            return True

        by_fn = defaultdict(list)
        for idx, span in enumerate(spans):
            by_fn[(span[MODULE], span[NAME])].append(idx)

        out = {}
        for module in MODULE_SELF_METRICS:
            out[f"{module}.self_s"] = sum(self_time(i) for i, s in enumerate(spans) if s[MODULE] == module)
        for module, name, suffix, kind in FUNCTION_METRICS:
            idxs = by_fn.get((module, name), [])
            if kind == "calls":
                value = len(idxs)
            elif kind == "self":
                value = sum(self_time(i) for i in idxs)
            else:
                value = sum(layer_time(i) for i in idxs if outermost(i, lambda s: s[:2]))
            out[f"{module}.{suffix}"] = value
        for module in MODULE_CALLS_METRICS:
            out[f"{module}.calls"] = sum(
                1 for i, s in enumerate(spans) if s[MODULE] == module and outermost(i, lambda s: s[MODULE])
            )
        out[BUILT_METRIC] = self.built
        for metric, parts in RATE_METRICS:
            work = sum(self.work[(m, f)] for m, f, _ in parts)
            busy = sum(duration(i) for m, f, _ in parts for i in by_fn.get((m, f), []) if outermost(i, lambda s: s[:2]))
            out[metric] = work / busy if busy > 0 else 0.0
        rates = {name for name, _ in RATE_METRICS}
        return {k: (v if k in rates else _per_pass(v, passes)) for k, v in out.items()}

    def dump(self, path):
        """Write the spans as JSON lines: module, function, start, end, parent index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("module", "function", "start", "end", "parent"), span))) + "\n")
