"""`python -m covertype` and the `covertype` console script: one CLI
call, one process.

`run` freezes the heap twice (gc.freeze moves every tracked object to a
permanent generation that no collection visits).  After the import, it
keeps the start-up heap (site, the standard library, cli) out of the
collections the command triggers; after the command, it keeps the whole
heap out of the interpreter's final collections, which would only walk
objects about to be discarded.  The exit itself is unchanged: atexit
handlers run, the std streams are flushed, and the code is the
command's.  cli.main never freezes, since tests and long-lived callers
run it in-process.
"""

import gc

from .cli import main


def run() -> int:
    """Run the command on sys.argv and return its exit code."""
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
