"""`python -m covertype`: one CLI call, one process.

The heap is frozen twice (gc.freeze moves every tracked object to a
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

gc.freeze()
code = main()
gc.freeze()
raise SystemExit(code)
