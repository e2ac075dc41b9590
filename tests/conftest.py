import os
import subprocess
import sys
from pathlib import Path

import pytest

from scalelab import (
    CHINCHILLA,
    DEFAULT_EMBED_MAP,
    EPOCH,
    extract_frontier,
    kaplan_size_grid,
    simulate_curves,
    size_grid,
)


@pytest.fixture(scope="session")
def fresh_python():
    """Runs ``python *args`` in a new interpreter that imports scalelab from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=300)

    return run


@pytest.fixture(scope="session")
def epoch_curves():
    return simulate_curves(kaplan_size_grid(), EPOCH, DEFAULT_EMBED_MAP)


@pytest.fixture(scope="session")
def chinchilla_curves():
    return simulate_curves(kaplan_size_grid(), CHINCHILLA, DEFAULT_EMBED_MAP)


@pytest.fixture(scope="session")
def epoch_frontier_nonembed(epoch_curves):
    return extract_frontier(epoch_curves, basis="nonembed")


@pytest.fixture(scope="session")
def epoch_frontier_total(epoch_curves):
    return extract_frontier(epoch_curves, basis="total")


@pytest.fixture(scope="session")
def chinchilla_frontier_nonembed(chinchilla_curves):
    return extract_frontier(chinchilla_curves, basis="nonembed")


@pytest.fixture(scope="session")
def chinchilla_frontier_total(chinchilla_curves):
    return extract_frontier(chinchilla_curves, basis="total")


@pytest.fixture(scope="session")
def epoch_large_frontier_total():
    curves = simulate_curves(size_grid(1e8, 1e12, 20), EPOCH, DEFAULT_EMBED_MAP)
    return extract_frontier(curves, basis="total")


@pytest.fixture(scope="session")
def chinchilla_large_frontier_total():
    curves = simulate_curves(size_grid(1e8, 1e12, 20), CHINCHILLA, DEFAULT_EMBED_MAP)
    return extract_frontier(curves, basis="total")
