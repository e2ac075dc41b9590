"""The ``scalelab`` command: ``python -m scalelab`` and the console script.

Both run ``run()``, which sets what suits a process that runs one command and
exits.  ``import scalelab`` and an in-process ``scalelab.cli.main()`` change
neither setting.
"""

import gc
import os


def run() -> int:
    """Run one command in this process, which exits after it; returns its exit status.

    Every BLAS call here is an n-by-2 least-squares solve, so OpenBLAS starts
    on one thread instead of a spinning pool, unless the user set
    ``OPENBLAS_NUM_THREADS``; numpy reads it when the command first imports
    numpy.  The collector is frozen before exit, so the collections at
    interpreter shutdown skip every object still alive.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        from . import cli

        return cli.main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
