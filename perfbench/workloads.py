"""The three benchmark workloads.

A workload receives the inputs that ``inputs.GENERATORS`` made and wrote
during set-up, then runs passes (``run_pass``, the timed section) that
each attempt the same top-level fcnets calls. ``check`` compares the first
pass with references made apart from fcnets; every later pass must
reproduce the first pass's ``fingerprint`` exactly, since the inputs and
seeds are the same.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import traceback

import numpy as np

import checks
import inputs as gen


class _Failed:
    def __repr__(self):
        return "FAILED"


FAILED = _Failed()


def _has_failed(value):
    if value is FAILED:
        return True
    if isinstance(value, (list, tuple)):
        return any(_has_failed(v) for v in value)
    return False


class Ops:
    """Runs top-level fcnets calls, counting attempts and failures.

    A call whose inputs came from a failed call is counted as attempted and
    failed without running, so every pass attempts the same operations.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = set()

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        if _has_failed(args) or _has_failed(list(kwargs.values())):
            self.failed += 1
            return FAILED
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failing operation is counted, not fatal
            self.failed += 1
            name = getattr(fn, "__qualname__", repr(fn))
            if name not in self._reported:
                self._reported.add(name)
                traceback.print_exc(file=sys.stderr)
            return FAILED


def _digest(obj):
    """Stable digest of nested plain data, arrays included."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(str((x.dtype, x.shape)).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif dataclasses.is_dataclass(x):
            feed(dataclasses.asdict(x))
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _adjacency(n, edges):
    a = np.zeros((n, n))
    if edges:
        i, j = np.asarray(edges, dtype=int).T
        a[i, j] = a[j, i] = 1.0
    return a


class Workload:
    def __init__(self, data, paths, directory):
        self.data = data
        self.paths = paths
        self.directory = directory

    def fingerprint(self, out):
        return _digest(out)


# --- cohort -------------------------------------------------------------------


class Cohort(Workload):
    """``fcnets pipeline`` on a 20 + 20 subject, n = 90, T = 300 study."""

    def run_pass(self, fc, ops, out_dir):
        def pipeline(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                code = fc.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"fcnets pipeline exited with code {code}")
            return out_dir

        return ops(pipeline, ["pipeline", "--config", self.paths["config"], "--out", out_dir])

    def fingerprint(self, out_dir):
        if out_dir is FAILED:
            return None
        reports = {}
        for name in sorted(os.listdir(out_dir)):
            if name != "provenance.json":  # holds a timestamp by design
                with open(os.path.join(out_dir, name), "rb") as fh:
                    reports[name] = fh.read()
        return reports

    def check(self, fc, out_dir):
        if out_dir is FAILED:
            return []
        problems = []
        config = gen.cohort_config()
        spec = config["threshold"]
        n = gen.COHORT_N
        count = checks.fixed_degree_count(n, spec["k_target"])
        graphs = []
        for s in range(len(self.data["series"])):
            series = gen.read_series_csv(os.path.join(self.directory, f"subject_{s:02d}.csv"))
            corr = np.corrcoef(series)
            cm = fc.estimators.estimate(series, config["estimator"]["name"])
            problems += checks.check_correlation(f"subject {s}", series, cm.values)
            net = fc.thresholding.apply_spec(cm, spec)
            problems += checks.check_fixed_degree(f"subject {s}", corr, net.edges, spec["k_target"])
            graphs.append(checks.graph(n, checks.top_edges(corr, count)))

        def report(label):
            with open(os.path.join(out_dir, f"{label}.json")) as fh:
                return json.load(fh)["result"]

        with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
            rows = [
                {k: (int(v) if k == "subject" else float(v)) for k, v in row.items()}
                for row in csv.DictReader(fh)
            ]
        problems += checks.check_metrics_table(rows, graphs)
        for entry in report("community")["per_subject"]:
            s = entry["subject"]
            problems += checks.check_partition(
                f"louvain subject {s}", graphs[s], entry["assignment"], entry["q"],
                self.data["modules"], min_nmi=0.9,
            )
        for label, method in (("compare", "nbs"), ("compare_2", "spc")):
            problems += checks.check_cluster_test(method, report(label), self.data["planted_edges"])
        bootstrap = report("bootstrap")
        params = config["analyses"][-1]["params"]
        direct = checks.metric_reference(graphs[params["subject"]], params["metric"])
        problems += checks.check_bootstrap(bootstrap, direct, params["replicates"])
        return problems


# --- graph_nulls ------------------------------------------------------------------


class GraphNulls(Workload):
    """Null models and divisive communities on graphs read from edge lists."""

    def run_pass(self, fc, ops, out_dir):
        d = self.data
        g = {name: ops(fc.networks.load_network, path) for name, path in self.paths.items()}
        out = {}
        for name in ("ws", "er"):
            out[name] = ops(
                fc.nullmodels.small_world, g[name], null_count=gen.NULLS_NULL_COUNT,
                swaps_per_edge=gen.NULLS_SWAPS_PER_EDGE, seed=d["small_world_seeds"][name],
            )
        out["rewired"] = ops(
            fc.nullmodels.rewire_preserving_degree, g["modular"],
            swaps_per_edge=gen.NULLS_SWAPS_PER_EDGE, seed=d["rewire_seed"],
        )
        out["gn"] = ops(fc.communities.girvan_newman, g["modular"])
        out["powerlaw"] = ops(
            fc.nullmodels.powerlaw_fit, d["powerlaw_degrees"],
            bootstrap_reps=gen.POWERLAW_REPS, seed=d["powerlaw_seed"],
        )
        return out

    def check(self, fc, out):
        d = self.data
        problems = []
        regimes = {
            # criterion-04 regimes; the random-graph sigma band is widened
            # from the 20-seed mean bound to a single graph's spread
            "ws": [("sigma", 1.0, np.inf), ("omega", -0.3, 0.3)],
            "er": [("sigma", 0.6, 1.4), ("omega", 0.3, np.inf)],
        }
        for name, regime in regimes.items():
            if out[name] is not FAILED:
                problems += checks.check_small_world(
                    name, checks.graph(*d[name]), dataclasses.asdict(out[name]), regime
                )
        n, edges = d["modular"]
        if out["rewired"] is not FAILED:
            problems += checks.check_rewire(n, edges, out["rewired"].edges)
        if out["gn"] is not FAILED:
            problems += checks.check_partition(
                "girvan_newman", checks.graph(n, edges), out["gn"].assignment, out["gn"].q,
                d["gn_labels"], min_nmi=0.9,
            )
        if out["powerlaw"] is not FAILED:
            problems += checks.check_powerlaw(out["powerlaw"].alpha, d["powerlaw_alpha"], tol=0.2)
        return problems


# --- group_models ---------------------------------------------------------------------


class GroupModels(Workload):
    """ERGMs on synchronization networks, two-part dyad models, Kronecker likelihoods."""

    def run_pass(self, fc, ops, out_dir):
        d = self.data
        panel = ops(fc.panels.load_manifest, self.paths["ergm_manifest"])
        subjects = panel.subjects if panel is not FAILED else [FAILED] * gen.ERGM_SUBJECTS
        spec = {"method": "fixed_density", "density": gen.ERGM_DENSITY}
        cms = [ops(fc.estimators.estimate, x, "synchronization") for x in subjects]
        nets = [ops(fc.thresholding.apply_spec, cm, spec) for cm in cms]
        fits = [ops(fc.ergm.ergm_mple, g, gen.ERGM_TERMS) for g in nets]
        rep = ops(
            fc.ergm.representative_network, nets, gen.ERGM_TERMS,
            ensemble=gen.ERGM_ENSEMBLE, seed=d["representative_seed"],
        )
        models = {
            "single_task": {"omega": fc.twopart.CorrelationStructure("lear", rho=0.5, delta=1.0)},
            "two_task": {"gamma": "unstructured"},
        }
        twopart = {}
        for study, options in models.items():
            mats = [[ops(fc.estimators.load_connection_matrix, p) for p in task] for task in self.paths[study]]
            data = ops(fc.twopart.build_dyad_dataset, mats, coordinates=d[study]["coordinates"])
            twopart[study] = ops(fc.twopart.twopart_fit, data, maxfev=gen.DYAD_MAXFEV, **options)
        kron = [ops(fc.twopart.kronecker_loglik, **inst) for inst in d["kronecker"]]
        return {"cms": cms, "nets": nets, "fits": fits, "rep": rep, "twopart": twopart, "kron": kron}

    def check(self, fc, out):
        d = self.data
        problems = []
        n = gen.ERGM_N
        cm0 = out["cms"][0]
        if cm0 is not FAILED:
            series = gen.read_series_csv(os.path.join(self.directory, "ergm", "subject_00.csv"))
            rng = np.random.default_rng(0)
            pairs = [tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(12)]
            embed = cm0.params
            problems += checks.check_synchronization(
                "subject 0", series, cm0.values, pairs, embed["lag"], embed["dim"], embed["neighbor_count"]
            )
        adjs, thetas = [], []
        for s, (g, fit) in enumerate(zip(out["nets"], out["fits"])):
            if g is FAILED or fit is FAILED:
                continue
            adjs.append(_adjacency(n, g.edges))
            thetas.append(fit.theta)
            problems += checks.check_mple(f"subject {s}", adjs[-1], fit.theta)
        rep = out["rep"]
        if rep is not FAILED and len(adjs) == gen.ERGM_SUBJECTS:
            problems += checks.check_representative(rep.meta, adjs, _adjacency(n, rep.edges), thetas)
        for study, fit in out["twopart"].items():
            if fit is not FAILED:
                parts = {
                    part: {"beta": f.beta, "se": f.se, "converged": f.converged}
                    for part, f in (("presence", fit.presence), ("strength", fit.strength))
                }
                problems += checks.check_twopart(study, parts, gen.DYAD_BETA_V, gen.DYAD_BETA_S)
        for k, (value, inst) in enumerate(zip(out["kron"], d["kronecker"])):
            if value is not FAILED:
                problems += checks.check_kronecker(f"instance {k}", value, inst)
        return problems


WORKLOADS = {"cohort": Cohort, "graph_nulls": GraphNulls, "group_models": GroupModels}
