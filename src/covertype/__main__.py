"""`python -m covertype` and the `covertype` console script: one CLI
call, one process.

`run` freezes the heap after the import (gc.freeze), so the collections
the command triggers skip the start-up heap: site, the standard library
and cli.  When cli.main returns, `run` ends the process as the
interpreter's exit would, less the teardown that frees every module and
memoized table one object at a time: it runs the atexit handlers with
atexit._run_exitfuncs, the call that exit makes; flushes sys.stdout and
sys.stderr, skipping one that is None or closed; and calls os._exit
with the command's exit code, which a failed flush does not change, as
a failed error line does not in cli._fail.  An exception that escapes
cli.main is not caught: it prints a traceback and exits 1, as before.
Skipping the teardown is sound because the package starts no thread,
writes every file inside a `with` block and defines no __del__.  The
README's "Start-up" section gives the time it saves per command.
cli.main neither freezes nor exits, since tests and long-lived callers
run it in-process.
"""

import atexit
import gc
import os
import sys

from .cli import main


def run():
    """Run the command on sys.argv and end the process with its exit
    code.  It never returns: only an exception leaves it."""
    gc.freeze()
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
