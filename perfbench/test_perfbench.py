"""The benchmark's own tests: tiny smoke runs, and checks that catch corrupted outputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from run import END_TO_END, at_nominal, per_layer_units
from spans import Tracer, self_times
from workloads import ROOT, CliSession, FitReconcile, FrontierStress

HERE = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def test_benchmark_json_names_the_metrics_run_py_prints():
    assert {w["name"] for w in SPEC["workloads"]} == {"cli-session", "frontier-stress", "fit-reconcile"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()


@pytest.mark.parametrize("workload", ["cli-session", "frontier-stress", "fit-reconcile"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line for line in lines[:-1])
    if trace:
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        layers = sum(metrics[f"{layer}.self_ms"] for layer in
                     ("cli", "params", "lossmodel", "analytic", "frontier", "fitting"))
        assert layers + metrics["trace.unspanned_ms"] == pytest.approx(metrics["trace.op_ms"])


def test_at_nominal_takes_out_a_slow_spell():
    # The same work three times; the reference ran twice as slow around the
    # second, and within the third, which it sampled twice.
    refs = [[0.0, 0.1], [1.0, 0.1], [2.0, 0.2], [4.0, 0.2], [5.0, 0.1],
            [5.5, 0.2], [6.0, 0.2], [7.0, 0.1]]
    spans = [[0.2, 0.9], [2.3, 3.9], [4.2, 6.9]]
    assert at_nominal([0.5, 1.0, 1.0], spans, refs, 0.1) == pytest.approx([0.5, 0.5, 0.5])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fit-reconcile", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_check_catches_a_flipped_byte(tmp_path):
    wl = CliSession(3, "tiny", tmp_path)
    wl.setup()
    inp = next(wl.op_input(i) for i in range(1, 13) if wl.op_input(i)["key"].startswith("frontier"))
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    path = tmp_path / inp["args"][-1]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    assert wl.check(inp, out)


def test_cli_check_catches_a_nonzero_exit(tmp_path):
    wl = CliSession(3, "tiny", tmp_path)
    wl.setup()
    inp = {"key": "reproduce", "args": ["reproduce", "--bins", "5", "--output", str(tmp_path / "r")]}
    assert wl.check(inp, wl.run(inp))


@pytest.fixture(scope="module")
def stress():
    wl = FrontierStress(3, "tiny", None)
    wl.setup()
    inp = wl.op_input(1)
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    return wl, inp, out


def _with_point(out, basis, index, **changes):
    front = out["frontiers"][basis]
    points = list(front.points)
    points[index] = dataclasses.replace(points[index], **changes)
    frontiers = {**out["frontiers"], basis: dataclasses.replace(front, points=points)}
    return {**out, "frontiers": frontiers}


def test_stress_check_catches_a_perturbed_frontier_loss(stress):
    wl, inp, out = stress
    point = out["frontiers"]["total"].points[3]
    assert wl.check(inp, _with_point(out, "total", 3, loss_min=point.loss_min * (1 + 1e-9)))


def test_stress_check_catches_a_wrong_winner(stress):
    wl, inp, out = stress
    point = out["frontiers"]["nonembed"].points[2]
    assert wl.check(inp, _with_point(out, "nonembed", 2, model_index=point.model_index + 1))


def test_stress_check_catches_a_dropped_point(stress):
    wl, inp, out = stress
    front = out["frontiers"]["total"]
    short = dataclasses.replace(front, points=front.points[:-1])
    assert wl.check(inp, {**out, "frontiers": {**out["frontiers"], "total": short}})


def test_stress_check_catches_an_offset_fit_that_loses_to_offset_zero(stress):
    wl, inp, out = stress
    loss = out["frontiers"]["total"].loss_min
    fits = dict(out["fits"]["total"])
    fits["chinchilla"] = dataclasses.replace(fits["chinchilla"], offset=0.9 * loss.min())
    assert wl.check(inp, {**out, "fits": {**out["fits"], "total": fits}})


def test_stress_check_catches_a_wrong_simulated_loss(stress):
    wl, inp, out = stress
    curves = [dataclasses.replace(cv, loss=cv.loss * (1 + 1e-9)) for cv in out["curves"]]
    assert wl.check(inp, {**out, "curves": curves})


def test_reconcile_check_catches_a_wrong_inverse():
    wl = FitReconcile(3, "tiny", None)
    wl.setup()
    inp = wl.op_input(1)
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    n_ne = out[1]["n_ne"].copy()
    n_ne[5] *= 1 + 1e-6
    assert wl.check(inp, [out[0], {**out[1], "n_ne": n_ne}])


def test_tracer_nests_cross_module_calls_and_restores_them():
    from scalelab import frontier

    original = frontier.fit_power_law_with_offset
    tracer = Tracer()
    tracer.install()
    try:
        c = np.geomspace(1e10, 1e20, 12)
        front = frontier.Frontier("total", [
            frontier.FrontierPoint(ci, 1.7 + 40.0 * ci**-0.15, 1.0, 1.0, 1) for ci in c])
        frontier.fit_loss_scaling(front, form="kaplan")  # outside an op: not recorded
        tracer.op = 1
        frontier.fit_loss_scaling(front, form="chinchilla")
    finally:
        tracer.uninstall()
    assert frontier.fit_power_law_with_offset is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "frontier.fit_loss_scaling"
    assert "fitting.fit_power_law_with_offset" in names
    for span in tracer.spans[1:]:
        assert span[3] is not None and span[4] == 1
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])
