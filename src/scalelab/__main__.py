"""The ``scalelab`` command: ``python -m scalelab`` and the console script.

Both run ``run()``, which sets what suits a process that runs one command and
exits.  ``import scalelab`` and an in-process ``scalelab.cli.main()`` change
none of these settings.
"""

import gc
import os
import sys


def run() -> int:
    """Run one command in this process, which exits after it; returns its exit status.

    The cyclic collector is off from the start: the command leaves well under
    a MiB of cyclic garbage, which is not worth the dozens of collections
    that importing numpy and running the command would trigger.  It is frozen
    before exit all the same, since interpreter shutdown collects even with
    the collector off, and a frozen object is skipped.  Every BLAS call here
    is an n-by-2 least-squares solve, so OpenBLAS starts on one thread
    instead of a spinning pool, unless the user set ``OPENBLAS_NUM_THREADS``;
    numpy reads it when the command first imports numpy.  A reader that
    closes standard output ends the command quietly with 141 (128 + SIGPIPE),
    as a shell reports a process killed by SIGPIPE.
    """
    gc.disable()
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
