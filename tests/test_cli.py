import json

import pytest

from scalelab import analytic
from scalelab.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_embed_map_bundled_default(capsys):
    code, out, _ = _run(capsys, ["fit-embed-map"])
    assert code == 0
    report = json.loads(out)
    assert report["omega"] == pytest.approx(47491.0, rel=0.02)
    assert abs(report["delta"] - 0.34) < 0.01
    assert report["n_points"] == 50


def test_fit_embed_map_single_row_errors(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("name,d_model,n_layers,vocab,context_learned\na,512,8,32000,0\n")
    code, _, err = _run(capsys, ["fit-embed-map", str(path)])
    assert code != 0
    assert ">=2 configurations" in err


def test_fit_embed_map_exact_synthetic(capsys, tmp_path):
    # explicit n_nonembed = d**3 makes the log-linear model exact: r_squared = 1
    rows = ["name,d_model,n_layers,vocab,context_learned,n_nonembed"]
    for i, d in enumerate([256, 512, 1024, 2048]):
        rows.append(f"m{i},{d},1,32000,0,{d**3}")
    path = tmp_path / "exact.csv"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = _run(capsys, ["fit-embed-map", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert report["delta"] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_simulate_emits_curves_csv(tmp_path, capsys):
    out_path = tmp_path / "curves.csv"
    code, _, _ = _run(capsys, ["simulate", "--sizes-count", "4", "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "model_index,n_nonembed,n_total,tokens,c_total,c_nonembed,loss"
    assert len(lines) == 1 + 4 * 512
    rerun_path = tmp_path / "curves2.csv"
    assert main(["simulate", "--sizes-count", "4", "--output", str(rerun_path)]) == 0
    capsys.readouterr()
    assert rerun_path.read_bytes() == out_path.read_bytes()


def test_frontier_then_fit_reproduces_headline_exponent(tmp_path, capsys):
    frontier_path = tmp_path / "frontier.csv"
    code, _, _ = _run(capsys, ["frontier", "--basis", "nonembed",
                               "--output", str(frontier_path)])
    assert code == 0

    code, out, _ = _run(capsys, ["fit", str(frontier_path), "--form", "plain"])
    assert code == 0
    report = json.loads(out)
    assert report["basis"] == "nonembed"
    assert report["exponent"] == pytest.approx(0.78, abs=0.02)

    code, out, _ = _run(capsys, ["fit", str(frontier_path), "--form", "kaplan"])
    assert code == 0
    assert json.loads(out)["exponent"] == pytest.approx(-0.069, abs=0.005)


def test_fit_chinchilla_form_on_total_frontier(tmp_path, capsys):
    frontier_path = tmp_path / "frontier_total.csv"
    code, _, _ = _run(capsys, ["frontier", "--basis", "total",
                               "--output", str(frontier_path)])
    assert code == 0
    code, out, _ = _run(capsys, ["fit", str(frontier_path), "--form", "chinchilla"])
    assert code == 0
    report = json.loads(out)
    assert -report["exponent"] == pytest.approx(0.178, abs=0.005)
    assert report["offset"] == pytest.approx(1.817, abs=0.01)


def test_fit_on_empty_frontier_errors(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("basis,c,loss_min,n_opt,d_opt,model_index\n")
    code, _, err = _run(capsys, ["fit", str(path)])
    assert code != 0
    assert ">=3" in err


def test_exponent_curve_row_count(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, _, _ = _run(capsys, ["exponent-curve", "--output", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "n_nonembed,c_nonembed,g,k,loss_opt"
    assert len(lines) == 401


def test_exponent_curve_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["exponent-curve", "--output", str(a)]) == 0
    assert main(["exponent-curve", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_default_passes_all_targets(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["reproduce", "--output", str(report_path)])
    assert code == 0
    entries = json.loads(report_path.read_text())
    assert len(entries) == 6
    assert all(e["pass"] for e in entries)
    observed = {(e["spec"], e["quantity"]): e["observed"] for e in entries}
    assert observed[("epoch", "param_exponent_nonembed")] == pytest.approx(0.78, abs=0.02)
    assert observed[("chinchilla", "param_exponent_nonembed")] == pytest.approx(0.74, abs=0.02)
    assert "pass" in out


def test_reproduce_omega_zero_reports_total_only(tmp_path, capsys):
    report_path = tmp_path / "report0.json"
    code, out, _ = _run(capsys, ["reproduce", "--omega", "0", "--output", str(report_path)])
    assert code == 0
    entries = json.loads(report_path.read_text())
    quantities = {e["quantity"] for e in entries}
    assert all("nonembed" not in q for q in quantities)
    assert "param_exponent_total" in quantities
    assert "identical to total" in out
    observed = {e["quantity"]: e["observed"] for e in entries}
    assert observed["param_exponent_total"] == pytest.approx(0.513, abs=0.01)


def test_reproduce_custom_symmetric_spec(tmp_path, capsys):
    spec_path = tmp_path / "sym.json"
    spec_path.write_text(json.dumps(
        {"n_c": 400.0, "d_c": 400.0, "alpha": 0.3, "beta": 0.3, "e_irr": 0.0}))
    report_path = tmp_path / "reportc.json"
    code, _, _ = _run(capsys, ["reproduce", "--spec", str(spec_path),
                               "--output", str(report_path)])
    assert code == 0
    entries = json.loads(report_path.read_text())
    observed = {e["quantity"]: e["observed"] for e in entries}
    assert observed["param_exponent_total"] == pytest.approx(0.5, abs=0.01)
    assert all(e["pass"] is None for e in entries)


def test_unknown_spec_file_errors(capsys):
    code, _, err = _run(capsys, ["frontier", "--spec", "/nonexistent/spec.json"])
    assert code != 0
    assert err.startswith("error:")


def test_non_finite_omega_errors(capsys):
    code, _, err = _run(capsys, ["exponent-curve", "--omega", "nan"])
    assert code != 0
    assert "omega" in err


def test_fit_rejects_unknown_basis(tmp_path, capsys):
    path = tmp_path / "frontier.csv"
    code, _, _ = _run(capsys, ["frontier", "--basis", "total", "--output", str(path)])
    assert code == 0
    path.write_text(path.read_text().replace("\ntotal,", "\ntot,"))
    code, out, err = _run(capsys, ["fit", str(path)])
    assert code != 0
    assert out == ""
    assert "basis" in err


@pytest.mark.parametrize("argv", [
    ["exponent-curve", "--omega", "nan"],                # ValueError
    ["reproduce", "--bins", "3000"],                     # ValueError in the offset fit
    ["frontier", "--spec", "/nonexistent/spec.json"],    # OSError
    ["fit", "/nonexistent/frontier.csv"],                # OSError
])
def test_bad_input_exits_2(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command, text, named", [
    ("fit", "basis,c,loss_min,n_opt,d_opt,model_index\n"
            "total,1e10,3.0,1e3,1e6,1\ntotal,1e11,2.5\n", "row 2 has fewer than 6"),
    ("fit-embed-map", "name,d_model,n_layers,vocab,context_learned\n"
                      "a,512,8,32000,0\nb,1024,8\n", "row 2 has no vocab"),
    ("fit", "basis,c,loss_min,n_opt,d_opt,model_index\n"
            "total,1e10,3.0,1e3,1e6,1,99\ntotal,1e11,2.5,2e3,2e6,2\n"
            "total,1e12,2.2,4e3,4e6,3\ntotal,1e13,2.0,8e3,8e6,4\n", "row 1 has more than 6"),
    ("fit-embed-map", "name,d_model,n_layers,vocab,context_learned\n"
                      "a,512,8,32000,0,99,98\nb,1024,8,32000,0\n", "row 1 has more than 5"),
    ("exponent-curve --spec", "[406.4, 410.7, 0.3392, 0.2849, 1.693]", "JSON object"),
    ("exponent-curve --spec", '{"n_c": 406.4, "d_c": null, "alpha": 0.3392, "beta": 0.2849, '
                              '"e_irr": 1.693}', "'d_c'"),
], ids=["frontier-csv-short-row", "config-csv-short-row", "frontier-csv-long-row",
        "config-csv-long-row", "spec-array", "spec-null"])
def test_malformed_input_file_exits_2(tmp_path, capsys, command, text, named):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = _run(capsys, [*command.split(), str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


def test_offset_fit_error_names_bins_finer_than_the_schedule(capsys):
    code, out, err = _run(capsys, ["reproduce", "--bins", "3000"])
    assert code == 2 and out == ""
    assert "bins are finer than the token schedule" in err
    assert "use fewer bins" in err


def test_reproduce_tolerance_failure_exits_1(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, err = _run(capsys, ["reproduce", "--bins", "15", "--output", str(report_path)])
    assert code == 1
    assert "FAIL" in out and err == ""
    assert any(e["pass"] is False for e in json.loads(report_path.read_text()))


def test_arithmetic_error_exits_1(capsys, monkeypatch):
    def underflow(*args, **kwargs):
        raise ArithmeticError("n_nonembed underflows to 0 for this n_total")

    monkeypatch.setattr(analytic, "exponent_curve", underflow)
    code, _, err = _run(capsys, ["exponent-curve"])
    assert code == 1
    assert err == "error: n_nonembed underflows to 0 for this n_total\n"


def test_fit_prefactor_overflow_exits_1(tmp_path, capsys):
    # n_opt falls 100x every 1/32 decade of compute: ln prefactor is 741.4
    path = tmp_path / "steep.csv"
    path.write_text("basis,c,loss_min,n_opt,d_opt,model_index\n"
                    "nonembed,1e5,3.0,100.0,10.0,1\n"
                    f"nonembed,{10.0**5.03125!r},2.0,1.0,10.0,2\n"
                    f"nonembed,{10.0**5.0625!r},1.0,0.01,10.0,3\n")
    code, out, err = _run(capsys, ["fit", str(path), "--form", "plain"])
    assert code == 1
    assert out == "" and err == "error: prefactor overflows\n"


# Runs every command in one fresh interpreter, then lists what got imported.
_EVERY_COMMAND = """
import sys
from scalelab.cli import main

out = sys.argv[1]
for argv in [
    ["simulate", "--output", f"{out}/curves.csv"],
    ["frontier", "--basis", "nonembed", "--output", f"{out}/nonembed.csv"],
    ["frontier", "--basis", "total", "--output", f"{out}/total.csv"],
    ["fit", f"{out}/nonembed.csv", "--form", "plain", "--output", f"{out}/plain.json"],
    ["fit", f"{out}/nonembed.csv", "--form", "kaplan", "--output", f"{out}/kaplan.json"],
    ["fit", f"{out}/total.csv", "--form", "chinchilla", "--output", f"{out}/chinchilla.json"],
    ["exponent-curve", "--output", f"{out}/curve.csv"],
    ["reproduce", "--output", f"{out}/report.json"],
    ["fit-embed-map", "--output", f"{out}/embed.json"],
]:
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_no_command_imports_numpy_ma(tmp_path, fresh_python):
    """np.unique imports numpy.ma on first use, 12-18 ms of a fitting command's start-up."""
    proc = fresh_python("-c", _EVERY_COMMAND, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# Runs one command in a fresh interpreter, then lists the scalelab modules it loaded.
_ONE_COMMAND = """
import sys
from scalelab.cli import main

assert main(sys.argv[1:]) == 0, sys.argv
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scalelab"))
"""

_PARSER_MODULES = ["scalelab", "scalelab.cli", "scalelab.fitting", "scalelab.frontier"]
_SURFACE_MODULES = sorted(_PARSER_MODULES + ["scalelab.lossmodel", "scalelab.params"])


@pytest.mark.parametrize("argv, loaded", [
    (["fit", "{frontier}", "--form", "plain"], _PARSER_MODULES),
    (["fit", "{frontier}", "--form", "chinchilla"], _PARSER_MODULES),
    (["fit-embed-map"], sorted(_PARSER_MODULES + ["scalelab.data", "scalelab.params"])),
    (["simulate", "--sizes-count", "3"], _SURFACE_MODULES),
    (["frontier", "--basis", "total"], _SURFACE_MODULES),
    (["reproduce"], _SURFACE_MODULES),
    (["reproduce", "--omega", "0"], sorted(_SURFACE_MODULES + ["scalelab.analytic"])),
    (["exponent-curve"], sorted(_SURFACE_MODULES + ["scalelab.analytic"])),
], ids=["fit-plain", "fit-chinchilla", "fit-embed-map", "simulate", "frontier", "reproduce",
        "reproduce-omega-0", "exponent-curve"])
def test_each_command_loads_only_the_modules_it_calls(tmp_path, fresh_python, argv, loaded):
    """A command never imports analytic, lossmodel or params unless it calls them."""
    frontier = tmp_path / "frontier.csv"
    frontier.write_text("basis,c,loss_min,n_opt,d_opt,model_index\n"
                        "total,1e10,3.0,1e3,1e6,1\ntotal,1e11,2.5,1e4,1e6,2\n"
                        "total,1e12,2.2,1e5,1e6,3\ntotal,1e13,2.0,1e6,1e6,4\n")
    argv = [a.format(frontier=frontier) for a in argv] + ["--output", str(tmp_path / "out")]
    proc = fresh_python("-c", _ONE_COMMAND, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)


@pytest.mark.parametrize("command", ["fit-embed-map", "simulate", "frontier", "fit",
                                     "exponent-curve", "reproduce"])
def test_every_command_prints_help(fresh_python, command):
    proc = fresh_python("-m", "scalelab", command, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: scalelab {command}")
