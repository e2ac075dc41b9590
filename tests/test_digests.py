"""Pin the default CLI outputs to the sha256 digests in perfbench/digests.json.

Each key names one command at the headline scale: ``simulate:SPEC``,
``frontier:SPEC:BASIS``, ``fit:SPEC:BASIS:FORM`` (on that frontier's CSV),
``exponent-curve:SPEC``, ``reproduce`` and ``fit-embed-map``.  A refactor that
changes a single output byte fails here.

``ROW_BLOCK_DIGESTS`` pins a grid of 300 models, which ``simulate_curves`` fills
in three row blocks: the sample columns per spec and one frontier command.  They
were recorded from the code that evaluated the whole grid at once.
``STRESS_DIGESTS`` pins the frontier command at the stress scale, 2000 models and
2000 bins, in both bases.  All three tables hold the bits of NumPy's AVX-512
kernels (ROADMAP item 10).
"""

import hashlib
import json
from pathlib import Path

import pytest

from scalelab import DEFAULT_EMBED_MAP, SPEC_CATALOG, simulate_curves, size_grid
from scalelab.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
)


def _argv(key: str, workdir: Path) -> list[str]:
    command, *rest = key.split(":")
    if command == "fit":
        spec, basis, form = rest
        frontier_csv = workdir / "frontier.csv"
        assert main(["frontier", "--spec", spec, "--basis", basis,
                     "--output", str(frontier_csv)]) == 0
        return ["fit", str(frontier_csv), "--form", form]
    if command == "frontier":
        spec, basis = rest
        return ["frontier", "--spec", spec, "--basis", basis]
    return [command, *(["--spec", rest[0]] if rest else [])]


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_output_matches_pinned_digest(key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    assert main([*_argv(key, tmp_path), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[key]


# sha256 of the tokens, c_total, c_nonembed and loss columns, in that order, of
# simulate_curves(size_grid(7.9e2, 1.58e9, 300), spec, DEFAULT_EMBED_MAP), and of the
# output of `frontier --sizes-count 300 --bins 400 --basis total`.
ROW_BLOCK_DIGESTS = {
    "simulate_curves:chinchilla":
        "e10ee0c0123b37df937a2ae2288dab05f3094ba1e993a98670eb7cfedadf52ab",
    "simulate_curves:epoch":
        "4b75006feffe5f1df7acc060cc38bc0340c0d2aab9bff30c85dd9f904b2a5e76",
    "frontier:300:400:total":
        "d1f29ce8b48e1c474839889003b41a9c7b36926380ae8b41434a9ba3cdae224f",
}


@pytest.mark.parametrize("spec_name", sorted(SPEC_CATALOG))
def test_row_block_columns_match_pinned_digest(spec_name):
    curves = simulate_curves(size_grid(7.9e2, 1.58e9, 300), SPEC_CATALOG[spec_name],
                             DEFAULT_EMBED_MAP)
    digest = hashlib.sha256()
    for name in ("tokens", "c_total", "c_nonembed", "loss"):
        digest.update(getattr(curves, name).tobytes())
    assert digest.hexdigest() == ROW_BLOCK_DIGESTS[f"simulate_curves:{spec_name}"]


def test_row_block_frontier_matches_pinned_digest(tmp_path):
    out = tmp_path / "out"
    assert main(["frontier", "--sizes-count", "300", "--bins", "400", "--basis", "total",
                 "--output", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == ROW_BLOCK_DIGESTS["frontier:300:400:total"]


# sha256 of the output of `frontier --sizes-count 2000 --bins 2000 --basis BASIS`:
# simulate_curves and extract_frontier each take its samples in 16 blocks of 128 rows.
STRESS_DIGESTS = {
    "nonembed": "9ac1edeeb0e16b3e93b628d77fe87e2036e1450784122141f805549f63dae40c",
    "total": "bad12f6877b346929ca24e3a6d490d92bb8bba2856ea8f46edd8e627317cdf67",
}


@pytest.mark.parametrize("basis", sorted(STRESS_DIGESTS))
def test_stress_frontier_matches_pinned_digest(basis, tmp_path):
    out = tmp_path / "out"
    assert main(["frontier", "--sizes-count", "2000", "--bins", "2000", "--basis", basis,
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == STRESS_DIGESTS[basis]
