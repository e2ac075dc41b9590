"""Fixed reference work, timed beside the ops, that gives the machine's speed.

On a small shared host the same code runs up to about 1.8x slower for
seconds to minutes at a time, as the load from other tenants changes.  CPU
time slows just as wall time does, and a median within one run cannot remove
a slow spell that covers the whole run.  So the benchmark runs its
workload's reference before every op, once after the last op, and, on a
timer, within an op that takes seconds; set-ups are interleaved with
``SETUP_REFERENCE``.  A reference is fixed work of the same kind as the op
that never touches scalelab.  Every end-to-end time is reported at the
reference's nominal speed:

    reported time = measured time * NOMINAL_S / local reference time

where the local reference time is the median of the reference runs within
the timed item and just before and after it (``run.at_nominal``).  A change
to scalelab moves the measured time and leaves the reference alone, so it
moves the reported time by the same factor.  The measured times and the reference times are printed
and kept in the full result.  The nominal times are the references' medians
on a quiet 2-vCPU Intel Xeon host, so there the reported times read as
wall times.
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time

import numpy as np

from workloads import cli_env


def interpreter_start() -> None:
    """A fresh interpreter that imports numpy: most of a CLI command or a set-up."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=cli_env(), check=True)


@functools.cache
def _pooled() -> tuple[np.ndarray, np.ndarray]:
    """Pooled losses and their bins, made once: made per run, they would add to
    the op's peak memory whenever a run fell within an op.  At 4 MB they
    exceed L2, as the op's pooled arrays do, and add little to its memory."""
    rng = np.random.default_rng(0)
    loss = rng.random(2**18)
    return loss, (loss * 2000).astype(np.int64)


def masked_minima() -> None:
    """Per-bin masked minima over pooled samples, as frontier extraction does."""
    loss, bin_of = _pooled()
    for b in range(0, 2000, 64):
        mask = bin_of == b
        if mask.any():
            j = np.argmin(loss[mask])
            float(bin_of[mask][j])


def scalar_loops() -> None:
    """Python-level bisection on floats and small-array least squares, as fits and inversion do."""
    x = np.geomspace(1e10, 1e20, 60)
    for n_total in np.geomspace(1e6, 1e12, 300):
        lo, hi = 1.0, float(n_total)
        while hi - lo > 1e-10 * hi:
            mid = 0.5 * (lo + hi)
            if mid + 3.0 * mid ** (1.0 / 3.0) < n_total:
                lo = mid
            else:
                hi = mid
    for offset in np.linspace(0.0, 1.0, 300):
        y = np.log(2.0 + 40.0 * x**-0.15 - offset)
        np.polyfit(np.log(x), y, 1)


# Per workload: the reference work and its nominal time in seconds.
REFERENCES = {
    "cli-session": (interpreter_start, 0.120),
    "frontier-stress": (masked_minima, 0.0070),
    "fit-reconcile": (scalar_loops, 0.0095),
}
# Set-ups are fresh interpreters on every workload.
SETUP_REFERENCE = (interpreter_start, 0.120)


def timed(work) -> list[float]:
    """Run ``work`` once; return its start (``time.perf_counter``) and duration in seconds."""
    start = time.perf_counter()
    work()
    return [start, time.perf_counter() - start]
