import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalelab import analytic, cli
from scalelab import frontier as frontier_module
from scalelab.cli import main
from scalelab.frontier import extract_frontier, fit_param_scaling
from scalelab.lossmodel import CHINCHILLA
from scalelab.params import bundled_config_path


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


@pytest.mark.xfail(strict=True, reason="the fitted exponent steps with the bin count: 23 counts "
                   "from 100 to 400 miss the tolerance (ROADMAP item 20)")
def test_the_chinchilla_parameter_exponent_holds_at_every_bin_count_from_100_to_400(
        chinchilla_curves):
    """``reproduce --bins B``'s chinchilla check, over every B from 100 to 400.  The curves
    are the headline run's (its spec, map and default schedule), simulated once, so each
    count costs an extraction and a fit.  ``--bins 101`` reads 0.7608 and fails."""
    target, tol = cli.HEADLINE_TARGETS[("chinchilla", "param_exponent_nonembed")]
    missed = [bins for bins in range(100, 401) if not abs(fit_param_scaling(
        extract_frontier(chinchilla_curves, n_bins=bins, basis="nonembed")).exponent
        - target) <= tol]
    assert missed == []


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


def test_reproduce_named_spec_reports_every_measurement_without_targets(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["reproduce", "--spec", "epoch", "--output", str(report_path)])
    assert code == 0
    entries = json.loads(report_path.read_text())
    assert [e["quantity"] for e in entries] == [
        "param_exponent_total", "loss_exponent_total_kaplan_form", "gamma_total_chinchilla_form",
        "offset_total_chinchilla_form", "param_exponent_nonembed",
        "loss_exponent_nonembed_kaplan_form",
    ]
    for e in entries:
        assert list(e) == ["quantity", "spec", "observed", "target", "tolerance", "pass"]
        assert (e["spec"], e["target"], e["tolerance"], e["pass"]) == ("epoch", None, None, None)


def test_reproduce_omega_zero_prints_its_note_before_the_table(capsys):
    code, out, _ = _run(capsys, ["reproduce", "--omega", "0"])
    assert code == 0
    note, header = out.splitlines()[:2]
    assert note.startswith("omega = 0: ")
    assert header.split()[:2] == ["spec", "quantity"]


def test_unknown_spec_file_errors(capsys):
    code, _, err = _run(capsys, ["frontier", "--spec", "/nonexistent/spec.json"])
    assert code != 0
    assert err.startswith("error:")


def test_non_finite_omega_errors(capsys):
    code, _, err = _run(capsys, ["exponent-curve", "--omega", "nan"])
    assert code != 0
    assert "omega" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--omega", "1e308"],
    ["frontier", "--omega", "1e300"],
    ["frontier", "--sizes-min", "1e300", "--sizes-max", "1e305"],
])
def test_compute_beyond_the_doubles_names_every_input_that_sets_it(capsys, argv):
    """An omega that overflows n_total was once blamed on tokens_per_param, an option the
    command line does not have."""
    assert _run(capsys, argv) == (2, "", "error: sizes, omega and tokens_per_param take "
                                         "compute out of the range of doubles\n")


def test_a_frontier_of_two_models_names_the_three_curve_need(capsys):
    """Both models of a two-model grid are its edges, whose bins the guard drops: the
    frontier is refused with one line naming the need, not binned and then found empty."""
    assert _run(capsys, ["frontier", "--sizes-count", "2"]) == (
        2, "", "error: need >=3 distinct model_index labels: bins won by the smallest or "
        "largest model are dropped\n")


def test_fit_rejects_unknown_basis(tmp_path, capsys):
    path = tmp_path / "frontier.csv"
    code, _, _ = _run(capsys, ["frontier", "--basis", "total", "--output", str(path)])
    assert code == 0
    path.write_text(path.read_text().replace("\ntotal,", "\ntot,"))
    code, out, err = _run(capsys, ["fit", str(path)])
    assert code != 0
    assert out == ""
    assert "basis" in err
    path.write_text("basis,c,loss_min,n_opt,d_opt,model_index\ntotal,1e10,3.0,1e3,1e6,1\n"
                    "nonembed,1e11,2.5,1e4,1e6,2\ntotal,1e12,2.2,1e5,1e6,3\n")
    assert _run(capsys, ["fit", str(path)]) == (2, "", "error: frontier CSV mixes bases\n")


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
    ("exponent-curve --spec", '{"n_c": "406.4", "d_c": 410.7, "alpha": 0.3392, "beta": 0.2849, '
                              '"e_irr": 1.693}', "key 'n_c' must be a number, got '406.4'"),
    ("exponent-curve --spec", '{"n_c": 406.4, "d_c": 410.7, "alpha": 0.3392, "beta": 0.2849, '
                              '"e_irr": true}', "key 'e_irr' must be a number, got True"),
    ("fit", "basis,c,loss_min,n_opt,d_opt,model_index\n"
            "total,1e10,3.0,1e3,1e6,1\ntotal,1e11,abc,1e4,1e6,2\n",
     "row 2 column 'loss_min' must be a number, got 'abc'"),
    ("fit-embed-map", "name,d_model,n_layers,vocab,context_learned\n"
                      "a,512,8,32000,0\nb,5.5,8,32000,0\n",
     "row 2 column 'd_model' must be an integer, got '5.5'"),
    ("exponent-curve --spec", '{"n_c": 1' + "0" * 400 + ', "d_c": 410.7, "alpha": 0.3392, '
                              '"beta": 0.2849, "e_irr": 1.693}', "key 'n_c' is too large"),
    # Fields beyond the csv module's limit of 131,072 characters, and nesting beyond the
    # recursion limit, once ended in a csv.Error or RecursionError traceback.
    ("fit", "basis,c,loss_min,n_opt,d_opt,model_index\n"
            f"total,{'1' * 200_000},3.0,1e3,1e6,1\n", "frontier CSV row 1: field larger"),
    ("fit", f"basis,{'c' * 200_000}\n", "frontier CSV header: field larger"),
    ("fit-embed-map", "name,d_model,n_layers,vocab,context_learned\n"
                      f"a,512,8,32000,0\nb,{'5' * 140_000},8,32000,0\n",
     "config CSV row 2: field larger"),
    ("exponent-curve --spec", "[" * 100_000, "spec file nests too deeply"),
    # Past 4,300 digits int() itself refuses, naming an interpreter setting.
    ("exponent-curve --spec", '{"n_c": 1' + "0" * 5000 + ', "d_c": 410.7, "alpha": 0.3392, '
                              '"beta": 0.2849, "e_irr": 1.693}',
     "spec file key 'n_c' is too large for a double"),
    # A byte that is not UTF-8 once ended in the codec's message, naming no file or row.
    # The decoder reads thousands of bytes ahead of the csv module, so row 600 (past two
    # blank lines, which do not count) is named only if the row is found again.
    ("fit-embed-map", b"name,d_model,n_layers,vocab,context_learned\n"
                      + b"".join(b"m%d,512,8,32000,0\n" % k for k in range(1, 600))
                      + b"\n\nbad\xe2(,512,8,32000,0\n",
     "config CSV row 600: byte 0xe2 is not UTF-8 (invalid continuation byte)"),
    ("fit", b"basis,c\xff,loss_min,n_opt,d_opt,model_index\ntotal,1e10,3.0,1e3,1e6,1\n",
     "frontier CSV header: byte 0xff is not UTF-8 (invalid start byte)"),
    ("fit-embed-map", b"name,d_model,n_layers,vocab,context_learned\n"
                      b"a,512,8,32000,0\nb," + b"5" * 140_000 + b",8,32000,0\nc\xff,1,2,3,4\n",
     "config CSV row 2: field larger"),  # the first fault in the file is named
    ("exponent-curve --spec", b'{"n_c": 406.4, "d_c": "\xff", "alpha": 0.3392}',
     "spec file offset 23: byte 0xff is not UTF-8 (invalid start byte)"),
    # The offset counts from the file's first byte, a byte-order mark included.
    ("exponent-curve --spec", b'\xef\xbb\xbf{"n_c": 406.4, "d_c": "\xff", "alpha": 0.3392}',
     "spec file offset 26: byte 0xff is not UTF-8 (invalid start byte)"),
    # A JSON syntax error once printed the json module's message alone, naming no file.
    ("exponent-curve --spec", '{"n_c": 406.4,',
     "error: spec file line 1 column 15: Expecting property name enclosed in double quotes\n"),
    ("exponent-curve --spec", "", "error: spec file line 1 column 1: Expecting value\n"),
    # An integer past the largest double once ended in "int too large to convert to float"
    # and exit status 1, naming no file or row.
    ("fit-embed-map", "name,d_model,n_layers,vocab,context_learned\n"
                      f"a,512,8,32000,0\nb,{10**160},8,32000,0\n",
     "config CSV row 2: n_nonembed is too large for a double"),
    # Configurations whose fitted map is no map: the embedding falls as the model grows,
    # or grows faster than it.
    ("fit-embed-map", "name,d_model,n_layers,vocab,context_learned\n"
                      "a,512,8,64000,0\nb,1024,8,8000,0\nc,2048,8,1000,0\n",
     "error: delta must be finite and > 0\n"),
    ("fit-embed-map", "name,d_model,n_layers,vocab,context_learned\n"
                      "a,512,8,1,0\nb,1024,8,100,0\nc,2048,8,10000,0\n",
     "error: delta must lie in (0, 1)\n"),
], ids=["frontier-csv-short-row", "config-csv-short-row", "frontier-csv-long-row",
        "config-csv-long-row", "spec-array", "spec-null", "spec-string", "spec-bool",
        "frontier-csv-unparsable-field", "config-csv-unparsable-field", "spec-huge-integer",
        "frontier-csv-field-over-the-limit", "frontier-csv-header-over-the-limit",
        "config-csv-field-over-the-limit", "spec-nested-too-deeply",
        "spec-integer-over-4300-digits", "config-csv-not-utf8-past-the-read-ahead",
        "frontier-csv-header-not-utf8", "config-csv-field-over-the-limit-before-not-utf8",
        "spec-not-utf8", "spec-not-utf8-after-a-byte-order-mark", "spec-truncated",
        "spec-empty", "config-csv-integer-beyond-the-doubles", "config-csv-delta-below-0",
        "config-csv-delta-above-1"])
def test_malformed_input_file_exits_2(tmp_path, capsys, command, text, named):
    path = tmp_path / "input"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    code, out, err = _run(capsys, [*command.split(), str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("command", ["fit --form chinchilla", "fit-embed-map"])
def test_a_csv_after_a_byte_order_mark_reads_as_its_text(tmp_path, capsys, command):
    # Spreadsheet programs save "UTF-8 with BOM"; the mark was once read into the first
    # header field, and the file refused as having the wrong header.
    if command == "fit-embed-map":
        plain = bundled_config_path()
    else:
        plain = tmp_path / "total.csv"
        assert _run(capsys, ["frontier", "--basis", "total", "--output", str(plain)])[0] == 0
    marked = tmp_path / "marked.csv"
    marked.write_bytes(_BOM + plain.read_bytes())
    reports = []
    for path in (plain, marked):
        report = tmp_path / f"{path.stem}.json"
        assert _run(capsys, [*command.split(), str(path), "--output", str(report)])[0] == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_a_spec_file_after_a_byte_order_mark_reads_as_its_text(tmp_path, capsys):
    # Once refused with "Unexpected UTF-8 BOM (decode using utf-8-sig)".
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(json.dumps(dataclasses.asdict(CHINCHILLA)))
    marked.write_bytes(_BOM + plain.read_bytes())
    curves = []
    for path in (plain, marked):
        curve = tmp_path / f"{path.stem}.csv"
        code, _, err = _run(capsys, ["exponent-curve", "--spec", str(path), "--output", str(curve)])
        assert (code, err) == (0, "")
        curves.append(curve.read_bytes())
    assert curves[0] == curves[1]


@pytest.mark.parametrize("command, text", [
    ("fit", b"basis,c\xff,loss_min,n_opt,d_opt,model_index\ntotal,1e10,3.0,1e3,1e6,1\n"),
    ("fit-embed-map", b"name,d_model,n_layers,vocab,context_learned\n"
                      + b"".join(b"m%d,512,8,32000,0\n" % k for k in range(1, 600))
                      + b"\n\nbad\xe2(,512,8,32000,0\n"),
], ids=["frontier-csv-header", "config-csv-row-600"])
def test_a_byte_that_is_not_utf8_after_a_byte_order_mark_names_the_same_record(
        tmp_path, capsys, command, text):
    errors = []
    for prefix in (b"", _BOM):
        path = tmp_path / "input.csv"
        path.write_bytes(prefix + text)
        code, out, err = _run(capsys, [command, str(path)])
        assert code == 2 and out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert "is not UTF-8" in errors[0]


@pytest.mark.parametrize("command, named", [
    ("simulate", "--sizes-count 20"),
    ("frontier", "--sizes-count 20 and --bins 200"),
    ("reproduce", "--bins 200"),
])
def test_memory_error_exits_2_naming_the_grid_options(capsys, monkeypatch, command, named):
    def unable(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.9 GiB for an array with shape (2000000000,)")

    monkeypatch.setattr(frontier_module, "simulate_curves", unable)
    code, out, err = _run(capsys, [command])
    assert (code, out) == (2, "")
    assert err == f"error: not enough memory for {named}\n"


@pytest.mark.parametrize("argv, named", [
    (["simulate", "--sizes-count", str(10**20)], f"--sizes-count {10**20}"),
    (["frontier", "--bins", str(10**20)], f"--bins {10**20}"),
    (["reproduce", "--bins", str(10**20)], f"--bins {10**20}"),
])
def test_count_beyond_the_address_space_exits_2_naming_it(capsys, argv, named):
    """NumPy refuses such a count before allocating anything."""
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: not enough memory") and err.count("\n") == 1
    assert named in err


def test_offset_fit_error_names_bins_finer_than_the_schedule(capsys):
    code, out, err = _run(capsys, ["reproduce", "--bins", "3000"])
    assert code == 2 and out == ""
    assert "bins are finer than the token schedule" in err
    assert "use fewer bins" in err


@pytest.mark.parametrize("row, message", [
    ("total,0,2.5,1e4,1e6,2", "x values must be finite and > 0"),
    ("total,nan,2.5,1e4,1e6,2", "x values must be finite and > 0"),
    ("total,-1e11,2.5,1e4,1e6,2", "x values must be finite and > 0"),
    ("total,1e11,inf,1e4,1e6,2", "y values must be finite and > 0"),
])
def test_fit_chinchilla_names_a_bad_value_not_the_bins(tmp_path, capsys, row, message):
    path = tmp_path / "frontier.csv"
    path.write_text("basis,c,loss_min,n_opt,d_opt,model_index\ntotal,1e10,3.0,1e3,1e6,1\n"
                    f"{row}\ntotal,1e12,2.3,1e5,1e6,3\ntotal,1e13,2.2,1e6,1e6,4\n")
    for form in ("kaplan", "chinchilla"):
        assert _run(capsys, ["fit", str(path), "--form", form]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("form", ["plain", "kaplan", "chinchilla"])
def test_fit_refuses_a_rank_deficient_frontier(tmp_path, fresh_python, form):
    """Compute one ulp apart fits no slope: one error line and exit 1, not a fit of R² 0
    under a warning for each profile step."""
    path, report = tmp_path / "frontier.csv", tmp_path / "fit.json"
    path.write_text("basis,c,loss_min,n_opt,d_opt,model_index\ntotal,1e10,3.0,1e3,1e6,1\n"
                    "total,10000000000.000002,2.5,1e4,1e6,2\n"
                    "total,10000000000.000004,2.2,1e5,1e6,3\n")
    proc = fresh_python("-m", "scalelab", "fit", str(path), "--form", form,
                        "--output", str(report))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: log-log fit is rank-deficient")
    assert proc.stderr.count("\n") == 1
    assert not report.exists()


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


@pytest.mark.parametrize("exponent, floor, code, err", [
    (-30.0, 0.5, 0, ""),
    (-80.0, 0.0, 1, "error: the power law overflows a double at the searched offset and at offset 0\n"),
], ids=["floor", "no-floor"])
def test_fit_chinchilla_on_a_law_that_overflows_near_the_least_loss(tmp_path, capsys, exponent,
                                                                    floor, code, err):
    """Offsets near the least loss take this steep law out of the doubles: the search passes
    them by without a warning, and only a law that overflows at offset 0 too is refused."""
    path = tmp_path / "steep.csv"
    rows = ((1e10 * 1.1 ** (k / 7), k) for k in range(8))
    path.write_text("basis,c,loss_min,n_opt,d_opt,model_index\n" + "".join(
        f"total,{c!r},{5.0 * (c / 1e10) ** exponent + floor!r},1e3,1e6,{k}\n" for c, k in rows))
    got_code, out, got_err = _run(capsys, ["fit", str(path), "--form", "chinchilla"])
    assert (got_code, got_err) == (code, err)
    assert json.loads(out)["offset"] == pytest.approx(floor) if code == 0 else out == ""


# The exit-status contract as a property over generated argv.  Each option value is
# "ok", a "usage" error that argparse reports, or "bad" input that a check rejects with
# one error line.  None is the flag without a value, and {name} a file of
# _CONTRACT_FILES in the run's directory.
_FLOAT_VALUES = [(None, "usage"), ("abc", "usage"), ("", "usage"), ("nan", "bad"),
                 ("inf", "bad"), ("-inf", "bad"), ("-1.0", "bad"), ("1e308", "bad")]
_INT_VALUES = [(None, "usage"), ("abc", "usage"), ("2.5", "usage"), ("-3", "bad"),
               (str(10**20), "bad")]
_CONTRACT_OPTIONS = {
    "--spec": [("epoch", "ok"), ("chinchilla", "ok"), ("{spec}", "ok"), (None, "usage"),
               *[(f"{{{name}}}", "bad") for name in ("spec-string", "spec-bool",
                                                     "spec-truncated", "spec-non-utf8",
                                                     "spec-array", "absent")]],
    "--omega": [("0", "ok"), ("1000.5", "ok"), *_FLOAT_VALUES],
    "--sizes-min": [("1000.5", "ok"), *_FLOAT_VALUES],
    "--sizes-max": [("1e7", "ok"), *_FLOAT_VALUES],
    "--sizes-count": [("3", "ok"), *_INT_VALUES],
    "--basis": [("total", "ok"), (None, "usage"), ("flops", "usage")],
    "--bins": [("15", "ok"), *_INT_VALUES],
    "--form": [("plain", "ok"), ("kaplan", "ok"), ("chinchilla", "ok"), (None, "usage"),
               ("log", "usage")],
}
_FRONTIER_TEXT = ("basis,c,loss_min,n_opt,d_opt,model_index\ntotal,1e10,3.0,1e3,1e6,1\n"
                  "total,1e11,2.5,1e4,1e6,2\ntotal,1e12,2.2,1e5,1e6,3\ntotal,1e13,2.0,1e6,1e6,4\n")
_CONFIG_TEXT = ("name,d_model,n_layers,vocab,context_learned\n"
                "a,256,1,32000,0\nb,512,2,32000,0\nc,1024,4,32000,0\n")
_SPEC = {"n_c": 400.0, "d_c": 400.0, "alpha": 0.3, "beta": 0.3, "e_irr": 0.0}
_CONTRACT_FILES = {
    "spec": json.dumps(_SPEC).encode(),
    "spec-string": json.dumps({**_SPEC, "n_c": "400"}).encode(),
    "spec-bool": json.dumps({**_SPEC, "e_irr": False}).encode(),
    "spec-truncated": json.dumps(_SPEC)[:30].encode(),
    "spec-non-utf8": b"\xff" + json.dumps(_SPEC).encode(),
    "spec-array": json.dumps(list(_SPEC.values())).encode(),
    "frontier": _FRONTIER_TEXT.encode(),
    "frontier-truncated": _FRONTIER_TEXT[:-12].encode(),
    "frontier-long-row": _FRONTIER_TEXT.replace(",2\n", ",2,9\n").encode(),
    "frontier-wrong-header": _FRONTIER_TEXT.replace("loss_min", "loss").encode(),
    "frontier-non-utf8": b"\xff" + _FRONTIER_TEXT.encode(),
    "frontier-unparsable": _FRONTIER_TEXT.replace("2.5", "abc").encode(),
    # n_opt falls 100x every 1/32 decade of compute, so a plain fit's prefactor overflows
    "frontier-steep": ("basis,c,loss_min,n_opt,d_opt,model_index\nnonembed,1e5,3.0,100.0,10.0,1\n"
                       f"nonembed,{10.0**5.03125!r},2.0,1.0,10.0,2\n"
                       f"nonembed,{10.0**5.0625!r},1.0,0.01,10.0,3\n").encode(),
    "config": _CONFIG_TEXT.encode(),
    "config-truncated": _CONFIG_TEXT[:-8].encode(),
    "config-long-row": _CONFIG_TEXT.replace(",0\n", ",0,9\n", 1).encode(),
    "config-wrong-header": _CONFIG_TEXT.replace("vocab", "vocabulary").encode(),
    "config-non-utf8": b"\xff" + _CONFIG_TEXT.encode(),
    "config-unparsable": _CONFIG_TEXT.replace("512", "5.5").encode(),
}
_CSV_CASES = ["truncated", "long-row", "wrong-header", "non-utf8", "unparsable"]
# Per command: its positional argument's values (None leaves it out) and its options.
_CONTRACT_COMMANDS = {
    "fit-embed-map": ([(None, "ok"), ("{config}", "ok"), ("{absent}", "bad"),
                       *[(f"{{config-{case}}}", "bad") for case in _CSV_CASES]], []),
    "simulate": ([], ["--spec", "--omega", "--sizes-min", "--sizes-max", "--sizes-count"]),
    "frontier": ([], ["--spec", "--omega", "--sizes-min", "--sizes-max", "--sizes-count",
                      "--basis", "--bins"]),
    "fit": ([(None, "usage"), ("{frontier}", "ok"), ("{frontier-steep}", "ok"),
             ("{absent}", "bad"), *[(f"{{frontier-{case}}}", "bad") for case in _CSV_CASES]],
            ["--form"]),
    "exponent-curve": ([], ["--spec", "--omega"]),
    "reproduce": ([], ["--spec", "--omega", "--bins"]),
}


@st.composite
def _contract_argv(draw):
    """(command, [(flag or "" for the positional, value, kind)]): each option is left out
    half the time, and a sixth of the time has a value that argparse or a check rejects."""
    command = draw(st.sampled_from(list(_CONTRACT_COMMANDS)))
    positional, flags = _CONTRACT_COMMANDS[command]
    chosen = [("", *draw(st.sampled_from(positional)))] if positional else []
    for flag in flags:
        want = draw(st.sampled_from(["left out"] * 3 + ["ok"] * 2 + ["not ok"]))
        values = [v for v in _CONTRACT_OPTIONS[flag] if (v[1] == "ok") == (want == "ok")]
        if want != "left out":
            chosen.append((flag, *draw(st.sampled_from(values))))
    return command, chosen


def _expected_status(command, chosen):
    """README's exit status for a generated run, and whether it writes --output."""
    kinds = {kind for _, _, kind in chosen}
    values = {flag: value for flag, value, _ in chosen}
    if kinds - {"ok"}:
        return 2, False
    if values.get("") == "{frontier-steep}" and values.get("--form", "plain") == "plain":
        return 1, False  # ArithmeticError: the prefactor overflows
    if command == "reproduce" and "--bins" in values and not {"--spec", "--omega"} & set(values):
        return 1, True  # 15 bins miss a headline tolerance
    return 0, True


@settings(deadline=None, max_examples=80)
@given(_contract_argv())
@example(("simulate", [("--omega", "1e308", "bad")]))
@example(("fit", [("", "{frontier-unparsable}", "bad")]))
@example(("reproduce", [("--bins", "15", "ok")]))
@example(("simulate", [("--sizes-count", str(10**20), "bad")]))
@example(("frontier", [("--sizes-count", "3", "ok"), ("--bins", str(10**20), "bad")]))
def test_every_run_keeps_the_exit_status_contract(case):
    """Every run exits with README's status for its case, prints no traceback, writes one
    `error:` line for a failure outside argparse's usage errors, and leaves no --output
    file behind when it fails."""
    command, chosen = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in _CONTRACT_FILES.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(content)
        paths = {name: os.path.join(tmp, name) for name in [*_CONTRACT_FILES, "absent"]}
        output = os.path.join(tmp, "output")
        argv = [command, f"--output={output}"]
        for flag, value, _ in chosen:
            if value is not None:
                value = value.format(**paths)
                argv.append(f"{flag}={value}" if flag else value)
            elif flag:
                argv.append(flag)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
        written = os.path.exists(output)
    err = err.getvalue()
    status, writes = _expected_status(command, chosen)
    assert (code, written) == (status, writes), (argv, err)
    assert "Traceback" not in err
    if "usage" in {kind for _, _, kind in chosen}:
        assert err.splitlines()[-1].startswith(f"scalelab {command}: error:"), err
    elif code == 0 or writes:
        assert err == ""
    else:
        assert err.startswith("error:") and err.count("\n") == 1, err
        # A count beyond the address space is refused ahead of every other check.
        for flag, value, _ in chosen:
            if flag in ("--sizes-count", "--bins") and value == str(10**20):
                assert f"{flag} {value}" in err, err


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


# Runs one command in a fresh interpreter, then lists the scalelab modules it loaded and
# which of the file-format modules: neither is loaded by numpy or argparse.
_ONE_COMMAND = """
import sys
from scalelab.cli import main

assert main(sys.argv[1:]) == 0, sys.argv
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scalelab"))
print(sorted(m for m in ("csv", "json") if m in sys.modules))
"""


def _run_fresh(tmp_path, fresh_python, script, argv):
    """The output lines of ``script`` run in a fresh interpreter on ``argv`` plus --output,
    where "{frontier}" in ``argv`` stands for a four-point frontier CSV."""
    frontier = tmp_path / "frontier.csv"
    frontier.write_text("basis,c,loss_min,n_opt,d_opt,model_index\n"
                        "total,1e10,3.0,1e3,1e6,1\ntotal,1e11,2.5,1e4,1e6,2\n"
                        "total,1e12,2.2,1e5,1e6,3\ntotal,1e13,2.0,1e6,1e6,4\n")
    argv = [a.format(frontier=frontier) for a in argv] + ["--output", str(tmp_path / "out")]
    proc = fresh_python("-c", script, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


_FIT_MODULES = ["scalelab", "scalelab.cli", "scalelab.fitting", "scalelab.frontier"]
_SURFACE_MODULES = sorted(_FIT_MODULES + ["scalelab.lossmodel", "scalelab.params"])


@pytest.mark.parametrize("argv, loaded, formats", [
    (["fit", "{frontier}", "--form", "plain"], sorted(_FIT_MODULES + ["scalelab._files"]),
     ["csv", "json"]),
    (["fit", "{frontier}", "--form", "chinchilla"], sorted(_FIT_MODULES + ["scalelab._files"]),
     ["csv", "json"]),
    (["fit-embed-map"], ["scalelab", "scalelab._files", "scalelab.cli", "scalelab.fitting",
                         "scalelab.params"], ["csv", "json"]),
    (["simulate", "--sizes-count", "3"], _SURFACE_MODULES, []),
    (["frontier", "--basis", "total"], _SURFACE_MODULES, []),
    (["reproduce"], _SURFACE_MODULES, ["json"]),
    (["reproduce", "--omega", "0"], sorted(_SURFACE_MODULES + ["scalelab.analytic"]), ["json"]),
    (["exponent-curve"], ["scalelab", "scalelab.analytic", "scalelab.cli", "scalelab.fitting",
                          "scalelab.lossmodel", "scalelab.params"], []),
], ids=["fit-plain", "fit-chinchilla", "fit-embed-map", "simulate", "frontier", "reproduce",
        "reproduce-omega-0", "exponent-curve"])
def test_each_command_loads_only_the_modules_it_calls(tmp_path, fresh_python, argv, loaded,
                                                      formats):
    """A command never imports analytic, lossmodel or params unless it calls them, nor json
    or csv unless it reads or writes that format."""
    lines = _run_fresh(tmp_path, fresh_python, _ONE_COMMAND, argv)
    assert lines[-2:] == [str(loaded), str(formats)]


@pytest.mark.parametrize("argv", [["fit-embed-map"], ["simulate", "--sizes-count", "3"],
                                  ["frontier", "--sizes-count", "3"], ["reproduce"],
                                  ["exponent-curve"]], ids=lambda argv: argv[0])
def test_no_command_loads_importlib_resources(tmp_path, fresh_python, checkout_env, argv):
    """``bundled_config_path`` names the file beside ``params``, so no command pays the
    5-10 ms of importing importlib.resources.  Under -S no .pth file in site-packages
    loads it first (certifi's does), so numpy's directory joins the checkout's on the
    path."""
    numpy_dir = os.path.dirname(os.path.dirname(np.__file__))
    path = os.pathsep.join([checkout_env["PYTHONPATH"], numpy_dir])
    script = _ONE_COMMAND + 'print("importlib.resources" in sys.modules)\n'
    argv = [*argv, "--output", str(tmp_path / "out")]
    proc = fresh_python("-S", "-c", script, *argv, env={"PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# Runs ``python -m scalelab ARGS`` as runpy does, and at exit prints which of numpy and
# scalelab.frontier the process loaded.
_LOADED_AT_EXIT = """
import atexit, runpy, sys

atexit.register(lambda: print([m for m in ("numpy", "scalelab.frontier") if m in sys.modules]))
runpy.run_module("scalelab", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["fit", "--help"], 0),
    (["simulate", "--bins", "x"], 2),
], ids=["help", "command-help", "usage-error"])
def test_help_and_usage_errors_load_no_numpy(fresh_python, argv, code):
    """The parser takes its defaults from the package, so it loads neither numpy nor
    ``frontier``; a process that only prints help or a usage error skips both."""
    proc = fresh_python("-c", _LOADED_AT_EXIT, *argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["fit-embed-map", "simulate", "frontier", "fit",
                                     "exponent-curve", "reproduce"])
def test_every_command_prints_help(fresh_python, command):
    proc = fresh_python("-m", "scalelab", command, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"usage: scalelab {command}")


# Runs ``python -m scalelab ARGS`` as runpy does.  ``run()`` ends the process through
# ``os._exit``, so no atexit handler runs after a command; the probe wraps ``os._exit`` and
# prints, just before the real one, OPENBLAS_NUM_THREADS, the thread count and whether the
# collector is enabled.
_AT_EXIT = """
import gc, os, runpy, sys

def probe(status, _exit=os._exit):
    tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
    print(os.environ.get("OPENBLAS_NUM_THREADS"), tasks, gc.isenabled(), flush=True)
    _exit(status)

os._exit = probe
runpy.run_module("scalelab", run_name="__main__", alter_sys=True)
"""


def test_a_command_process_disables_the_collector_and_runs_blas_on_one_thread(tmp_path,
                                                                              fresh_python):
    """The collector stays off, and OpenBLAS starts no worker thread."""
    proc = fresh_python("-c", _AT_EXIT, "fit-embed-map", "--output", str(tmp_path / "e.json"),
                        env={"OPENBLAS_NUM_THREADS": None})
    assert proc.returncode == 0, proc.stderr
    threads, tasks, enabled = proc.stdout.splitlines()[-1].split()
    assert (threads, enabled) == ("1", "False")
    if sys.platform == "linux":
        assert tasks == "1"


def test_a_command_process_keeps_the_users_blas_threads(tmp_path, fresh_python):
    proc = fresh_python("-c", _AT_EXIT, "fit-embed-map", "--output", str(tmp_path / "e.json"),
                        env={"OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split()[0] == "2"


def test_in_process_main_changes_no_process_setting(tmp_path, capsys):
    frozen, enabled, environ = gc.get_freeze_count(), gc.isenabled(), dict(os.environ)
    assert main(["fit-embed-map", "--output", str(tmp_path / "e.json")]) == 0
    assert gc.get_freeze_count() == frozen and gc.isenabled() == enabled
    assert dict(os.environ) == environ


# Runs one command through ``main()`` with the collector off from the start, as ``run()``
# runs it, then collects once and prints the objects found and the bytes freed.
_LEFT_TO_COLLECT = """
import gc, sys, tracemalloc

gc.disable()
tracemalloc.start()
from scalelab.cli import main

assert main(sys.argv[1:]) == 0, sys.argv
held = tracemalloc.get_traced_memory()[0]
found = gc.collect()
print(found, held - tracemalloc.get_traced_memory()[0])
"""


@pytest.mark.parametrize("argv", [
    ["fit-embed-map"], ["simulate"], ["frontier", "--basis", "total"],
    ["fit", "{frontier}", "--form", "chinchilla"], ["exponent-curve"], ["reproduce"],
], ids=lambda argv: argv[0])
def test_a_command_leaves_the_disabled_collector_under_a_mib(tmp_path, fresh_python, argv):
    """With the collector off, the cyclic garbage of imports and a command stays with the
    process until it exits.  This bounds it: each command read 410-460 objects and about
    250 kB (tracemalloc) with CPython 3.11 and NumPy 2.4, about 90% of it from imports."""
    found, freed = map(int, _run_fresh(tmp_path, fresh_python, _LEFT_TO_COLLECT, argv)[-1].split())
    assert found > 0 and freed < 2**20


def _command_parsers(parser):
    """The subparsers of a parser that ``cli._build_parser`` built, by command name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_commands_own_parser_formats_as_the_full_parser(command):
    full, alone = cli._build_parser(), cli._build_parser(command)
    assert list(_command_parsers(alone)) == [command]
    mine, theirs = _command_parsers(alone)[command], _command_parsers(full)[command]
    assert mine.format_help() == theirs.format_help()
    assert mine.format_usage() == theirs.format_usage()
    assert alone.format_usage() == full.format_usage()


def _parse(parser, argv):
    """What parsing ``argv`` gives: the Namespace or the exit status, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


_FLAGS = ["--spec", "--omega", "--sizes-min", "--sizes-max", "--sizes-count", "--basis",
          "--bins", "--form", "--output", "--help", "--bogus"]
_VALUES = ["epoch", "total", "nonembed", "plain", "kaplan", "f.csv", "20", "1e6", "abc",
           "nan", "-3", "2.5", "0.5"]
_ARG = st.one_of(
    st.sampled_from(_FLAGS).map(lambda flag: [flag]),  # a flag with its value missing
    st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)).map(list),
    st.sampled_from(_VALUES).map(lambda value: [value]),
)
_FIRST = st.sampled_from([*cli._COMMANDS, "-h", "--help", "bogus", "", "Simulate", "fit-embed",
                          "--output", "f.csv"])


@settings(deadline=None)
@given(st.lists(_FIRST, max_size=1), st.lists(_ARG, max_size=5))
@example([], [])
@example(["simulate"], [["extra"]])
@example(["fit"], [])
@example(["bogus"], [])
@example(["simulate"], [["--omega", "nan"]])
def test_a_commands_own_parser_parses_as_the_full_parser(first, rest):
    """``main`` parses with the subparser of the command its first argument names; the
    full parser gives the same Namespace, or the same exit status and output.  The results
    are compared by ``repr``, as ``Namespace(omega=nan)`` equals no Namespace."""
    argv = first + [token for arg in rest for token in arg]
    alone = cli._build_parser(argv[0] if argv else None)
    assert repr(_parse(alone, argv)) == repr(_parse(cli._build_parser(), argv))


@pytest.mark.parametrize("argv, code, err", [
    (["fit-embed-map", "--output", "{tmp}/e.json"], 0, ""),
    (["fit", "{tmp}/f.csv", "--form", "plain"], 1, "error: prefactor overflows\n"),
    (["fit", "{tmp}/missing.csv"], 2, "error: "),
    (["fit", "{tmp}/f.csv", "--form", "bogus"], 2, "usage: scalelab fit"),
], ids=["ok", "arithmetic", "bad-input", "usage"])
def test_python_m_scalelab_exit_status(tmp_path, fresh_python, argv, code, err):
    (tmp_path / "f.csv").write_text("basis,c,loss_min,n_opt,d_opt,model_index\n"
                                    "nonembed,1e5,3.0,100.0,10.0,1\n"
                                    f"nonembed,{10.0**5.03125!r},2.0,1.0,10.0,2\n"
                                    f"nonembed,{10.0**5.0625!r},1.0,0.01,10.0,3\n")
    proc = fresh_python("-m", "scalelab", *(a.format(tmp=tmp_path) for a in argv))
    assert proc.returncode == code
    assert proc.stderr.startswith(err) and (err or proc.stderr == "")


def test_a_closed_pipe_ends_python_m_scalelab_quietly_with_141(checkout_env):
    """A reader that stops early, as `scalelab simulate | head -n 1` does, is not bad input:
    the command once printed "error: [Errno 32] Broken pipe" and exited 2."""
    with subprocess.Popen([sys.executable, "-m", "scalelab", "simulate"], env=checkout_env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"model_index,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=300) == 141
    assert err == b""


@pytest.mark.parametrize("command", ["simulate", "exponent-curve"])
def test_a_command_process_hands_a_pipe_every_byte_before_it_ends(tmp_path, checkout_env,
                                                                  command):
    """``run()`` ends the process with ``os._exit``, which flushes nothing itself: what a
    command writes to a pipe arrives whole, as in its ``--output`` file, and so does a
    rejected argument's `error:` line.  PYTHONUNBUFFERED is unset, so standard output is
    block-buffered, as in a shell pipeline.  ``simulate`` writes about 1 MB in strings
    longer than the buffer, which bypass it; ``exponent-curve`` writes row by row, so its
    last rows are still buffered when the command returns."""
    env = {k: v for k, v in checkout_env.items() if k != "PYTHONUNBUFFERED"}

    def scalelab(*args):
        return subprocess.run([sys.executable, "-m", "scalelab", command, *args], env=env,
                              capture_output=True, timeout=300)

    path = tmp_path / "output.csv"
    assert scalelab("--output", str(path)).returncode == 0
    proc = scalelab()
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == path.read_bytes()
    proc = scalelab("--omega", "nan")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    assert proc.stderr.endswith(b"\n")


def test_no_command_builds_a_row_record(tmp_path, monkeypatch):
    """Every command reads and writes columns; TrainingCurve and FrontierPoint rows are
    built only when a caller indexes or iterates a table or reads ``points``."""
    def no_rows(*args, **kwargs):
        raise AssertionError("a command built a row record")

    monkeypatch.setattr(frontier_module, "TrainingCurve", no_rows)
    monkeypatch.setattr(frontier_module, "FrontierPoint", no_rows)
    for argv in [
        ["simulate", "--output", f"{tmp_path}/curves.csv"],
        ["frontier", "--basis", "total", "--output", f"{tmp_path}/total.csv"],
        ["fit", f"{tmp_path}/total.csv", "--form", "chinchilla"],
        ["exponent-curve", "--output", f"{tmp_path}/curve.csv"],
        ["reproduce"],
    ]:
        assert main(argv) == 0, argv
