import json

import pytest

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
