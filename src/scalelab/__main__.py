"""The ``scalelab`` command: ``python -m scalelab`` and the console script.

Both run ``run()``, which sets what suits a process that runs one command and
exits.  ``import scalelab`` and an in-process ``scalelab.cli.main()`` change
neither setting.
"""

import gc
import os
import sys


def run() -> int:
    """Run one command in this process, which exits after it; returns its exit status.

    Every BLAS call here is an n-by-2 least-squares solve, so OpenBLAS starts
    on one thread instead of a spinning pool, unless the user set
    ``OPENBLAS_NUM_THREADS``; numpy reads it when the command first imports
    numpy.  The collector is frozen before exit, so the collections at
    interpreter shutdown skip every object still alive.  A reader that closes
    standard output ends the command quietly with 141 (128 + SIGPIPE), as a
    shell reports a process killed by SIGPIPE.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        from . import cli

        status = cli.main()
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter shutdown
        return status
    except BrokenPipeError:
        # What is still buffered goes to devnull, so shutdown's flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
