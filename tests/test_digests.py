"""Pin the default CLI outputs to the sha256 digests in perfbench/digests.json.

Each key names one command at the headline scale: ``simulate:SPEC``,
``frontier:SPEC:BASIS``, ``fit:SPEC:BASIS:FORM`` (on that frontier's CSV),
``exponent-curve:SPEC``, ``reproduce`` and ``fit-embed-map``.  A refactor that
changes a single output byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

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
