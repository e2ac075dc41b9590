"""The benchmark's three workloads: inputs from a seed, one op, and its check.

Each workload is a closed loop with one client: the next op starts only after
the previous one has finished and been checked.  ``run`` is the timed op;
``check`` runs outside the timed region and returns a list of errors, empty
when the op's output is correct.  An op fails when it raises, exits nonzero or
fails its check; a failure is counted, never skipped or re-seeded away.

Why these three:

* ``cli-session`` is how a user makes the paper's figures: one
  ``python -m scalelab`` process per command at the headline scale.  Start-up
  and ``import scalelab`` dominate, so it shows CLI-startup and CSV-writer
  changes, and a binning change should leave it flat.
* ``frontier-stress`` is the stress scale (2000 models x 512 samples, 2000
  bins), where the per-bin masking in ``extract_frontier`` dominates.  It
  shows frontier-algorithm changes and has no import or CSV cost.  At the
  seed commit the binned envelope stops being monotone, and the offset fit
  raises ``ValueError``, above about 2000 bins on 500-1000 models or 3000
  bins on 2000 models; ops pushed into that regime count as failures.
* ``fit-reconcile`` is the paper's reconciliation as a user query: fits on
  small total-basis frontiers, then the map back to the non-embedding basis
  and the closed forms there.  Python call overhead sets its cost, not array size;
  nothing in it bins or does I/O.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPECS = ("epoch", "chinchilla")
LOSS_RTOL = 1e-12
ROUNDTRIP_RTOL = 1e-9
SSE_SLACK = 1e-9
# Seven float64 values per sample, as in the curves CSV's seven columns.
SAMPLE_BYTES = 7 * 8
# A CLI command that hangs is killed and counted as a failed op.
CLI_TIMEOUT_S = 60


def cli_env() -> dict:
    """Environment for child interpreters: this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _sse(x, y, prefactor, exponent, offset) -> float:
    return float(np.sum((offset + prefactor * x**exponent - y) ** 2))


def _offset_free_sse(x, y) -> float:
    exponent, intercept = np.polyfit(np.log(x), np.log(y), 1)
    return _sse(x, y, np.exp(intercept), exponent, 0.0)


def _check_offset_fit(label, fit, x, y) -> list[str]:
    """The offset fit is finite and does not lose to offset 0 in y-space SSE."""
    values = (fit.prefactor, fit.exponent, fit.offset, fit.r_squared)
    if fit.offset is None or not np.all(np.isfinite(values)):
        return [f"{label}: offset fit not finite: {values}"]
    if not 0.0 <= fit.offset < y.min():
        return [f"{label}: offset {fit.offset} outside [0, min(y))"]
    sse = _sse(x, y, fit.prefactor, fit.exponent, fit.offset)
    sse0 = _offset_free_sse(x, y)
    if sse > sse0 * (1.0 + SSE_SLACK):
        return [f"{label}: offset fit SSE {sse:.6g} loses to offset 0 ({sse0:.6g})"]
    return []


class Workload:
    name = ""
    scales: dict = {}
    in_process = True  # the op calls scalelab in this process
    # Seconds between reference runs inside one op (in-process ops only).
    # None when an op is short enough for the runs before and after it.
    sample_every_s = None

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.size = self.scales[scale]
        self.workdir = workdir

    def setup(self) -> None:
        """Import, build inputs and state; timed as part of ``setup_s``."""

    def warm_up(self) -> None:
        self.run(self.op_input(0))

    def op_input(self, i: int):
        raise NotImplementedError

    def run(self, inp, tracer=None):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def adopt_spans(self, tracer, parent: int) -> None:
        """Merge spans the op recorded outside this process (traced runs only)."""

    def output_bytes(self, out) -> int:
        return 0

    def sizes(self) -> dict:
        raise NotImplementedError


class CliSession(Workload):
    """Sequential ``python -m scalelab`` commands at the headline scale.

    A session is twelve commands for one spec (picked by the seed): simulate,
    frontier for both bases, fit in three forms on each frontier CSV,
    exponent-curve, reproduce and fit-embed-map, in a seed-picked order in
    which each fit follows the frontier it reads.  Every output is compared to
    the sha256 digest recorded at the seed commit in ``digests.json``.
    """

    name = "cli-session"
    in_process = False
    # The digests pin the headline scale, so the tiny scale is the same.
    scales = {"full": {"models": 20, "samples": 512, "bins": 200}}
    scales["tiny"] = scales["full"]
    SESSION = 12

    def setup(self) -> None:
        self.digests = json.loads((HERE / "digests.json").read_text())
        self.env = cli_env()
        self._session_index = None
        self._session = []

    def _plan(self, k: int) -> list[dict]:
        rng = random.Random(f"{self.seed}:{k}")
        spec = rng.choice(SPECS)
        out = self.workdir
        todo = [
            {"key": f"simulate:{spec}", "args": ["simulate", "--spec", spec], "file": "curves.csv"},
            {"key": f"exponent-curve:{spec}", "args": ["exponent-curve", "--spec", spec],
             "file": "exponent_curve.csv"},
            {"key": "reproduce", "args": ["reproduce"], "file": "reproduce.json"},
            {"key": "fit-embed-map", "args": ["fit-embed-map"], "file": "embed_map.json",
             "echo": True},
        ]
        for basis in ("nonembed", "total"):
            frontier_csv = f"frontier_{basis}.csv"
            todo.append({"key": f"frontier:{spec}:{basis}", "file": frontier_csv,
                         "args": ["frontier", "--spec", spec, "--basis", basis]})
            for form in ("plain", "kaplan", "chinchilla"):
                todo.append({"key": f"fit:{spec}:{basis}:{form}", "file": f"fit_{basis}_{form}.json",
                             "args": ["fit", str(out / frontier_csv), "--form", form],
                             "needs": f"frontier:{spec}:{basis}", "echo": True})
        plan, done = [], set()
        while todo:
            ready = [c for c in todo if c.get("needs") in (None, *done)]
            cmd = rng.choice(ready)
            todo.remove(cmd)
            done.add(cmd["key"])
            plan.append({**cmd, "args": [*cmd["args"], "--output", str(out / cmd["file"])]})
        return plan

    def op_input(self, i: int) -> dict:
        k, j = divmod(i - 1, self.SESSION)
        if k != self._session_index:
            self._session_index, self._session = k, self._plan(k)
        return self._session[j]

    def warm_up(self) -> None:
        self._call(["fit-embed-map", "--output", str(self.workdir / "warm_up.json")], None)

    def _call(self, args, tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "scalelab", *args]
        else:
            argv = [sys.executable, str(HERE / "tracecli.py"), str(self.workdir / "spans.json"), *args]
        return subprocess.run(argv, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CLI_TIMEOUT_S)

    def run(self, inp, tracer=None):
        return self._call(inp["args"], tracer)

    def adopt_spans(self, tracer, parent: int) -> None:
        path = self.workdir / "spans.json"
        if path.exists():
            recorded = json.loads(path.read_text())
            path.unlink()
            tracer.adopt(recorded["spans"], recorded["extra"], parent)

    def output_bytes(self, out) -> int:
        return len(out.stdout) + os.path.getsize(out.args[-1])

    def check(self, inp, out) -> list[str]:
        key = inp["key"]
        if out.returncode != 0:
            return [f"{key}: exit {out.returncode}: {out.stderr.decode(errors='replace')[-200:]}"]
        data = Path(inp["args"][-1]).read_bytes()
        errors = []
        if hashlib.sha256(data).hexdigest() != self.digests.get(key):
            errors.append(f"{key}: output digest differs from the seed commit's")
        if inp.get("echo") and out.stdout != data:
            errors.append(f"{key}: stdout differs from the --output file")
        return errors

    def sizes(self) -> dict:
        s = self.size
        return {**s, "commands_per_session": self.SESSION,
                "working_set_bytes": s["models"] * s["samples"] * SAMPLE_BYTES}


class FrontierStress(Workload):
    """One op: simulate, extract both bases at many bins, three fits on each.

    The seed picks the spec per op and jitters the size-grid bounds by up to
    10% each way.  An op takes seconds, during which the machine's speed
    changes, so the worker samples it every ``sample_every_s`` within the op
    (``reference.py``).
    """

    name = "frontier-stress"
    scales = {
        "full": {"models": 2000, "samples": 512, "bins": 2000},
        "tiny": {"models": 50, "samples": 64, "bins": 50},
    }
    JITTER = 0.1
    SPOT_CHECKS = 256
    sample_every_s = 0.25

    def setup(self) -> None:
        from scalelab import frontier, lossmodel, params

        self.frontier, self.lossmodel, self.params = frontier, lossmodel, params

    def warm_up(self) -> None:
        """One tiny-scale op: it loads every code path, but a full op would add seconds of
        the very work the timed ops measure to each set-up."""
        tiny = FrontierStress(self.seed, "tiny", self.workdir)
        tiny.setup()
        tiny.run(tiny.op_input(0))

    def op_input(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        lo, hi = np.exp(rng.uniform(-self.JITTER, self.JITTER, 2)) * self.frontier.KAPLAN_SIZE_RANGE
        return {"op": i, "spec": SPECS[int(rng.integers(len(SPECS)))],
                "sizes": np.geomspace(lo, hi, self.size["models"])}

    def run(self, inp, tracer=None):
        fr = self.frontier
        curves = fr.simulate_curves(inp["sizes"], self.lossmodel.SPEC_CATALOG[inp["spec"]],
                                    self.params.DEFAULT_EMBED_MAP,
                                    samples_per_curve=self.size["samples"])
        frontiers, fits = {}, {}
        for basis in ("total", "nonembed"):
            front = fr.extract_frontier(curves, n_bins=self.size["bins"], basis=basis)
            frontiers[basis] = front
            fits[basis] = {
                "plain": fr.fit_param_scaling(front),
                "kaplan": fr.fit_loss_scaling(front, form="kaplan"),
                "chinchilla": fr.fit_loss_scaling(front, form="chinchilla"),
            }
        return {"curves": curves, "frontiers": frontiers, "fits": fits}

    def check(self, inp, out) -> list[str]:
        spec = self.lossmodel.SPEC_CATALOG[inp["spec"]]
        errors = self._check_losses(inp, out["curves"], spec)
        for basis, front in out["frontiers"].items():
            errors += check_frontier(basis, front, reference_frontier(out["curves"],
                                                                      self.size["bins"], basis))
            fits = out["fits"][basis]
            for form in ("plain", "kaplan"):
                values = (fits[form].prefactor, fits[form].exponent, fits[form].r_squared)
                if not np.all(np.isfinite(values)):
                    errors.append(f"{basis} {form} fit not finite: {values}")
            errors += _check_offset_fit(f"{basis} chinchilla", fits["chinchilla"], front.c,
                                        front.loss_min)
        return errors

    def _check_losses(self, inp, curves, spec) -> list[str]:
        """Spot-check simulated losses against the loss surface evaluated here."""
        rng = np.random.default_rng([self.seed, inp["op"], 1])
        omega = self.params.DEFAULT_EMBED_MAP.omega
        for m, s in zip(rng.integers(len(curves), size=self.SPOT_CHECKS),
                        rng.integers(self.size["samples"], size=self.SPOT_CHECKS)):
            cv = curves[m]
            n_total = cv.n_nonembed + omega * cv.n_nonembed ** (1.0 / 3.0)
            want = spec.n_c / n_total**spec.alpha + spec.d_c / cv.tokens[s] ** spec.beta + spec.e_irr
            if abs(cv.loss[s] - want) > LOSS_RTOL * want:
                return [f"model {m} sample {s}: loss {cv.loss[s]!r} != surface {want!r}"]
        return []

    def sizes(self) -> dict:
        s = self.size
        return {**s, "samples_total": s["models"] * s["samples"],
                "working_set_bytes": s["models"] * s["samples"] * SAMPLE_BYTES}


def reference_frontier(curves, n_bins: int, basis: str) -> dict:
    """Per-bin minimum-loss sample, found by a running minimum over the curves.

    Independent of ``extract_frontier``'s search: one pass per curve keeps
    each bin's best sample so far; a later curve replaces it only with a
    strictly lower loss, so ties go to the earlier sample as in the pooled
    concatenation order.  Edge-model winners are dropped.
    """
    cs = [cv.c_nonembed if basis == "nonembed" else cv.c_total for cv in curves]
    edges = np.geomspace(min(c.min() for c in cs), max(c.max() for c in cs), n_bins + 1)
    best = np.full(n_bins, np.inf)
    model = np.full(n_bins, -1)
    sample = np.zeros(n_bins, dtype=int)
    for k, (cv, c) in enumerate(zip(curves, cs)):
        b = np.clip(np.searchsorted(edges, c, side="right") - 1, 0, n_bins - 1)
        order = np.lexsort((cv.loss, b))
        first = np.r_[True, b[order][1:] != b[order][:-1]]
        idx = order[first]
        bins = b[idx]
        better = cv.loss[idx] < best[bins]
        best[bins[better]] = cv.loss[idx[better]]
        model[bins[better]] = k
        sample[bins[better]] = idx[better]
    keep = (model > 0) & (model < len(curves) - 1)
    centers = np.sqrt(edges[:-1] * edges[1:])
    n_of = np.array([cv.n_nonembed if basis == "nonembed" else cv.n_total for cv in curves])
    return {
        "c": centers[keep],
        "loss_min": best[keep],
        "n_opt": n_of[model[keep]],
        "d_opt": np.array([curves[m].tokens[j] for m, j in zip(model[keep], sample[keep])]),
        "model_index": np.array([curves[m].model_index for m in model[keep]]),
    }


def check_frontier(basis: str, front, ref: dict) -> list[str]:
    got_index = np.array([p.model_index for p in front.points])
    if got_index.shape != ref["model_index"].shape:
        return [f"{basis}: {got_index.size} frontier points, reference has {ref['model_index'].size}"]
    bad = np.flatnonzero(got_index != ref["model_index"])
    if bad.size:
        i = bad[0]
        return [f"{basis}: point {i} model_index {got_index[i]} != reference {ref['model_index'][i]}"]
    for field in ("c", "loss_min", "n_opt", "d_opt"):
        got = getattr(front, field)
        bad = np.flatnonzero(np.abs(got - ref[field]) > LOSS_RTOL * np.abs(ref[field]))
        if bad.size:
            i = bad[0]
            return [f"{basis}: point {i} {field} {got[i]!r} != reference {ref[field][i]!r}"]
    return []


class FitReconcile(Workload):
    """One op: for every frontier, fit it, map its sizes to the non-embedding basis, closed forms there.

    Set-up builds total-basis headline frontiers (20 models x 512 samples)
    for both catalog specs at several bin counts.  The seed picks the order in
    which an op visits them and, per frontier, 16 extra query sizes
    log-uniform over its range.  An op covers all frontiers rather than one:
    a one-frontier op takes about 4 ms, and the 11th-slowest of the ~7000
    such ops in a run is set by the machine's millisecond hiccups, not by the
    program, so ``op_tail_ms`` would not repeat from run to run.
    """

    name = "fit-reconcile"
    scales = {"full": {"bins": (100, 150, 200, 250, 300), "queries": 16},
              "tiny": {"bins": (100,), "queries": 4}}

    def setup(self) -> None:
        from scalelab import analytic, fitting, frontier, lossmodel, params

        self.analytic, self.fitting, self.params = analytic, fitting, params
        self.embed_map = params.DEFAULT_EMBED_MAP
        self.frontiers = {}
        for spec in SPECS:
            curves = frontier.simulate_curves(frontier.kaplan_size_grid(),
                                              lossmodel.SPEC_CATALOG[spec], self.embed_map)
            for bins in self.size["bins"]:
                front = frontier.extract_frontier(curves, n_bins=bins, basis="total")
                self.frontiers[spec, bins] = (lossmodel.SPEC_CATALOG[spec], front.c,
                                              front.n_opt, front.loss_min)
        self.keys = sorted(self.frontiers)

    def op_input(self, i: int) -> list[tuple]:
        rng = np.random.default_rng([self.seed, i])
        visits = []
        for j in rng.permutation(len(self.keys)):
            key = self.keys[j]
            n_opt = self.frontiers[key][2]
            queries = np.exp(rng.uniform(np.log(n_opt.min()), np.log(n_opt.max()),
                                         self.size["queries"]))
            visits.append((key, queries))
        return visits

    def run(self, inp, tracer=None):
        return [self._reconcile(key, queries) for key, queries in inp]

    def _reconcile(self, key, queries) -> dict:
        spec, c, n_opt, loss = self.frontiers[key]
        fitting, analytic, emb = self.fitting, self.analytic, self.embed_map
        plain = fitting.fit_power_law(c, n_opt)
        kaplan = fitting.fit_power_law(c, loss)
        offset = fitting.fit_power_law_with_offset(c, loss)
        totals = np.concatenate([n_opt, queries])
        n_ne = np.array([self.params.nonembed_from_total(float(t), emb) for t in totals])
        ce = analytic.ce_of_optimal_ne(n_ne, spec, emb)
        return {
            "fits": (plain, kaplan, offset),
            "totals": totals,
            "n_ne": n_ne,
            "ce": ce,
            "g": analytic.local_param_exponent(n_ne, spec, emb),
            "k": analytic.local_loss_exponent(n_ne, spec, emb),
            "nt_opt": analytic.optimal_nt(ce * totals / n_ne, spec),
        }

    def check(self, inp, out) -> list[str]:
        errors = []
        for (key, _), result in zip(inp, out):
            errors += [f"{key}: {e}" for e in self._check_one(key, result)]
        return errors

    def _check_one(self, key, out) -> list[str]:
        _, c, _, loss = self.frontiers[key]
        errors = []
        back = self.params.total_from_nonembed(out["n_ne"], self.embed_map)
        bad = np.flatnonzero(~(np.abs(back - out["totals"]) <= ROUNDTRIP_RTOL * out["totals"]))
        if bad.size:
            i = bad[0]
            errors.append(f"inverse of {out['totals'][i]!r} maps back to {back[i]!r}")
        plain, kaplan, offset = out["fits"]
        for label, fit in (("plain", plain), ("kaplan", kaplan)):
            if not np.all(np.isfinite((fit.prefactor, fit.exponent, fit.r_squared))):
                errors.append(f"{label} fit not finite")
        errors += _check_offset_fit("offset", offset, c, loss)
        order = np.argsort(out["n_ne"])
        rises = np.diff(out["n_ne"][order]) > 0
        if not np.all((np.diff(out["ce"][order]) > 0) | ~rises):
            errors.append("ce_of_optimal_ne not increasing in n_nonembed")
        if not np.all(np.isfinite(out["g"]) & (out["g"] > 0)):
            errors.append("local_param_exponent not finite and positive")
        if not np.all(out["k"] < 0):
            errors.append("local_loss_exponent not negative")
        if not np.all(np.isfinite(out["nt_opt"]) & (out["nt_opt"] > 0)):
            errors.append("optimal_nt not finite and positive")
        return errors

    def sizes(self) -> dict:
        points = sum(v[1].size for v in self.frontiers.values())
        return {"bins": list(self.size["bins"]), "queries": self.size["queries"],
                "frontiers": len(self.frontiers), "frontier_points": points,
                "working_set_bytes": points * 3 * 8}


WORKLOADS = {w.name: w for w in (CliSession, FrontierStress, FitReconcile)}
