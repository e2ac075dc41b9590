"""The ``scalelab`` command: ``python -m scalelab`` and the console script.

Both run ``run()``, which sets what suits a process that runs one command, and
ends the process itself.  ``import scalelab`` and an in-process
``scalelab.cli.main()`` change none of these settings.
"""

import gc
import os
import sys


def run():
    """Run one command in this process, then end the process with its exit status.

    The cyclic collector is off from the start: the command leaves well under
    a MiB of cyclic garbage, which is not worth the dozens of collections
    that importing numpy and running the command would trigger.  Every BLAS
    call here is an n-by-2 least-squares solve, so OpenBLAS starts on one
    thread instead of a spinning pool, unless the user set
    ``OPENBLAS_NUM_THREADS``; numpy reads it when the command first imports
    numpy.  Once the command has returned and standard output and standard
    error are flushed, ``os._exit`` ends the process: interpreter
    finalization would only tear down modules and free memory that the
    exiting process hands back anyway.  So ``atexit`` handlers do not run
    after a command that returned; a caller that needs them calls
    ``scalelab.cli.main()`` in-process.  argparse's help and usage errors
    raise ``SystemExit``, and any other exception propagates, each to the
    interpreter's usual exit.  A reader that closes standard output or
    standard error ends the command quietly with 141 (128 + SIGPIPE), as a
    shell reports a process killed by SIGPIPE.
    """
    gc.disable()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        from . import cli

        status = cli.main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        status = 141  # what is still buffered goes with the process
    os._exit(status)


if __name__ == "__main__":
    run()
