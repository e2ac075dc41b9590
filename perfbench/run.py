"""The scalelab benchmark: one workload under one seed, end to end or traced.

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout whose ``src/scalelab`` is the program
under test.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a separate traced run.  Every op's
output is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, with
provenance, go to ``.perfbench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import REFERENCES, SETUP_REFERENCE, timed
from spans import LAYERS
from workloads import ROOT, WORKLOADS, cli_env

HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
STARTUP_REPS = 5
# Fresh interpreters whose set-up times give the median setup_s: this many
# set-up-only workers before the timed worker and as many after it, so that
# the median spans the run rather than one stretch of machine load.
SETUPS_EACH_SIDE = 3
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Per-function quantities reported from the traced run, with their units.
# self_ms and calls are per op; bytes, samples_in and points_out per call.
TRACED = {
    "cli.main": ("self_ms",),
    "frontier.write_curves_csv": ("self_ms", "bytes"),
    "frontier.write_frontier_csv": ("self_ms",),
    "frontier.read_frontier_csv": ("self_ms",),
    "frontier.extract_frontier": ("self_ms", "calls", "samples_in", "points_out",
                                  "msamples_per_s", "peak_alloc_mb"),
    "frontier.simulate_curves": ("self_ms", "peak_alloc_mb"),
    "lossmodel.loss_ne_ce": ("self_ms", "calls"),
    "params.total_from_nonembed": ("self_ms", "calls"),
    "params.nonembed_from_total": ("calls", "us_per_call"),
    "fitting.fit_power_law_with_offset": ("self_ms", "calls"),
    "fitting.fit_power_law": ("self_ms", "calls"),
    "analytic.ce_of_optimal_ne": ("self_ms",),
    "analytic.local_param_exponent": ("self_ms",),
    "analytic.local_loss_exponent": ("self_ms",),
    "analytic.optimal_nt": ("self_ms",),
    "analytic.exponent_curve": ("self_ms",),
}
QUANTITY_UNITS = {
    "self_ms": "ms/op", "calls": "calls/op", "bytes": "B/call", "samples_in": "samples/call",
    "points_out": "points/call", "msamples_per_s": "Msample/s", "peak_alloc_mb": "MB",
    "us_per_call": "us",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "cli.python_start_ms": "ms",
        "cli.import_numpy_ms": "ms",
        "cli.import_scalelab_ms": "ms",
        "cli.output_bytes": "B/op",
    }
    for fn, quantities in TRACED.items():
        units.update({f"{fn}.{q}": QUANTITY_UNITS[q] for q in quantities})
    units.update({f"{layer}.self_ms": "ms/op" for layer in LAYERS})
    units.update({"trace.op_ms": "ms", "trace.unspanned_ms": "ms/op", "trace.overhead_frac": "ratio"})
    return units


def spawn_worker(name, seed, seconds, mode, scale, workdir) -> tuple[dict, float]:
    """Run one worker; return its result and its set-up time from process start."""
    argv = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(seconds), mode, scale,
            str(workdir)]
    started = time.perf_counter()
    proc = subprocess.run(argv, env=cli_env(), stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker ({mode}) exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def tail(lat: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 ops beyond it: (value, percentile).

    Below 20 ops that percentile falls under the median, which is reported
    instead: a maximum over a handful of ops would measure only the noise.
    """
    ordered = sorted(lat)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def at_nominal(times: list[float], spans: list[list[float]], refs: list[list[float]],
               nominal_s: float) -> list[float]:
    """Each timed item at the reference's nominal speed.

    ``spans`` are the items' ``[start, end]`` and ``refs`` the ``[start,
    seconds]`` of the reference runs, in time order.  An item's local
    reference time is the median of the runs made within it and the runs
    just before and just after it.
    """
    starts = [start for start, _ in refs]
    out = []
    for t, (t0, t1) in zip(times, spans):
        near = refs[max(bisect.bisect_left(starts, t0) - 1, 0):bisect.bisect_right(starts, t1) + 1]
        out.append(t * nominal_s / statistics.median(seconds for _, seconds in near))
    return out


def end_to_end(name, seed, seconds, scale, workdir) -> tuple[dict, dict, dict]:
    wl = WORKLOADS[name]
    setup_work, setup_nominal = SETUP_REFERENCE
    setups, setup_spans, setup_refs = [], [], [timed(setup_work)]

    def set_up(mode: str) -> dict:
        started = time.perf_counter()
        result, setup = spawn_worker(name, seed, seconds, mode, scale, workdir)
        setups.append(setup)
        setup_spans.append([started, started + setup])
        setup_refs.append(timed(setup_work))
        return result

    for _ in range(SETUPS_EACH_SIDE):
        set_up("setup")
    main_result = set_up("run")
    for _ in range(SETUPS_EACH_SIDE):
        set_up("setup")
    phase = main_result["plain"]
    lat, passed = phase["lat"], sum(phase["ok"])
    op_nominal = REFERENCES[name][1]
    norm = at_nominal(lat, phase["span"], phase["ref"], op_nominal)
    tail_value, tail_pct = tail(norm)
    rss_kb = main_result["maxrss_kb" if wl.in_process else "children_maxrss_kb"]
    values = {
        "setup_s": statistics.median(at_nominal(setups, setup_spans, setup_refs, setup_nominal)),
        "ops_per_s": passed / sum(norm),
        "op_p50_ms": statistics.median(norm) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "ok_frac": passed / len(lat),
    }
    ref_median = statistics.median(seconds for _, seconds in phase["ref"])
    slow = f"measured; reference median x{ref_median / op_nominal:.4f} its nominal time"
    setup_ref_median = statistics.median(seconds for _, seconds in setup_refs)
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-ups; {statistics.median(setups):.4f} s "
                   f"measured, reference median x{setup_ref_median / setup_nominal:.4f} "
                   "its nominal time",
        "ops_per_s": f"{passed} passed ops in {sum(norm):.3f} s, {sum(lat):.3f} s {slow}; input "
                     + ", ".join(f"{k}={v}" for k, v in main_result["sizes"].items()),
        "op_p50_ms": f"{len(lat)} ops; {statistics.median(lat) * 1e3:.3f} ms {slow}",
        "op_tail_ms": f"p{tail_pct:.1f} of {len(lat)} ops",
        "peak_rss_mb": "max over CLI child processes" if not wl.in_process else "worker process",
        "ok_frac": f"fail_frac {1 - values['ok_frac']:.6g} = {len(lat) - passed}/{len(lat)}",
    }
    detail = {"setups_s": setups, "setup_spans": setup_spans, "setup_references": setup_refs,
              "latencies_s": lat, "spans": phase["span"], "references": phase["ref"],
              "tail_percentile": tail_pct,
              "sizes": main_result["sizes"], "errors": phase["errors"]}
    return values, notes, {"phases": [phase], **detail}


def startup_probe() -> dict:
    """Interpreter start and the two imports, each timed in fresh processes (ms, medians)."""
    env = cli_env()
    starts, numpy_ms, scalelab_ms = [], [], []
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import scalelab; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)")
    for _ in range(STARTUP_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append(time.perf_counter() - t)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout.split()
        numpy_ms.append(float(out[0]))
        scalelab_ms.append(float(out[1]))
    return {
        "cli.python_start_ms": statistics.median(starts) * 1e3,
        "cli.import_numpy_ms": statistics.median(numpy_ms) * 1e3,
        "cli.import_scalelab_ms": statistics.median(scalelab_ms) * 1e3,
    }


def per_layer(name, seed, seconds, scale, workdir) -> tuple[dict, dict, dict]:
    result, _ = spawn_worker(name, seed, seconds, "trace", scale, workdir)
    plain, traced, rows = result["plain"], result["traced"], result["layers"]
    n_ops = len(traced["lat"])
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "peak_alloc_b": 0}
    values = startup_probe()
    values["cli.output_bytes"] = (sum(traced["out_bytes"]) / len(traced["out_bytes"])
                                  if traced["out_bytes"] else 0.0)
    for fn, quantities in TRACED.items():
        row = rows.get(fn, empty)
        calls = row["calls"]
        measured = {
            "self_ms": row["self_s"] / n_ops * 1e3,
            "calls": calls / n_ops,
            "bytes": row.get("bytes", 0) / calls if calls else 0.0,
            "samples_in": row.get("samples_in", 0) / calls if calls else 0.0,
            "points_out": row.get("points_out", 0) / calls if calls else 0.0,
            "msamples_per_s": row.get("samples_in", 0) / row["incl_s"] / 1e6 if calls else 0.0,
            "peak_alloc_mb": row["peak_alloc_b"] / 2**20,
            "us_per_call": row["incl_s"] / calls * 1e6 if calls else 0.0,
        }
        values.update({f"{fn}.{q}": measured[q] for q in quantities})
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = sum(
            row["self_s"] for fn, row in rows.items() if fn.startswith(layer + ".")) / n_ops * 1e3
    op = rows["op"]
    values["trace.op_ms"] = op["incl_s"] / n_ops * 1e3
    values["trace.unspanned_ms"] = op["self_s"] / n_ops * 1e3
    nominal = REFERENCES[name][1]
    traced_p50, plain_p50 = (
        statistics.median(at_nominal(phase["lat"], phase["span"], phase["ref"], nominal))
        for phase in (traced, plain))
    values["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0
    spanned = sum(values[f"{layer}.self_ms"] for layer in LAYERS) + values["trace.unspanned_ms"]
    notes = {
        "trace.op_ms": f"mean of {n_ops} traced ops; layer self times + unspanned = {spanned:.4f} ms",
        "trace.overhead_frac": (f"traced p50 {statistics.median(traced['lat']) * 1e3:.3f} ms vs "
                                f"untraced {statistics.median(plain['lat']) * 1e3:.3f} ms measured; "
                                "the ratio is taken at nominal speed"),
    }
    detail = {"phases": [plain, traced], "sizes": result["sizes"], "layers": rows,
              "errors": plain["errors"] + traced["errors"]}
    return values, notes, detail


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def provenance(name, seed, sizes) -> dict:
    import numpy

    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True) if shutil.which("git") else None
    return {
        "workload": name,
        "seed": seed,
        "sizes": sizes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": git.stdout.strip() if git and git.returncode == 0 else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the in-process workloads for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "scalelab" / "__init__.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'scalelab'}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        measure = per_layer if args.trace else end_to_end
        values, notes, detail = measure(args.workload, args.seed, args.seconds, args.scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    attempted = sum(len(p["lat"]) for p in detail["phases"])
    failed = sum(len(p["ok"]) - sum(p["ok"]) for p in detail["phases"])
    prov = provenance(args.workload, args.seed, detail["sizes"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}")
    for key, metric in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}{note}")
    for error in detail["errors"]:
        print(f"  FAILED {error}")
    print("provenance " + json.dumps(prov))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {**summary, "notes": notes, "provenance": prov,
              **{k: v for k, v in detail.items() if k != "phases"}}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
