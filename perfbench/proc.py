"""Run one ``python -m repro`` command with a stack dump armed on SIGUSR1.

The benchmark starts its mw workers and the store server through this
wrapper, so a run that hangs can ask every process for all its thread
stacks (``faulthandler``) before killing it.  Arguments are passed to
``repro.cli.main`` unchanged, e.g.
``python perfbench/proc.py mw-worker tcp://127.0.0.1:7000``.
"""

import faulthandler
import signal
import sys

faulthandler.register(signal.SIGUSR1, all_threads=True)

from repro.cli import main  # noqa: E402 - arm the dump before the import

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
