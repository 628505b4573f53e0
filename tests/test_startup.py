"""What a CLI process imports before it does any work.

Every CLI call is a fresh process, so each module it imports is loaded,
and without a bytecode cache compiled, on every call."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import covertype

SRC = Path(covertype.__file__).resolve().parents[1]

PROBE = """
import json, sys
from covertype import cli
after_import = sorted(sys.modules)
cli.main(["--machine", "bounds", "--chi", "0"])
print(json.dumps({"after_import": after_import, "after_bounds": sorted(sys.modules)}))
"""

# loaded by the standard dataclass machinery; none is needed to run a command
COMPILER_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# annotations are never evaluated and their names come from collections.abc
UNUSED_AT_RUN_TIME = COMPILER_MODULES + ("typing",)

# The benchmark's tracer wraps functions only in the covertype modules
# already loaded after `from covertype import cli`; a layer imported
# lazily would make its traced self-test fail, so all stay eager.
LAYERS = ("gf2", "homology", "complexes", "cohomology", "surfaces", "reduction", "fileformat")


def test_cli_start_up_imports():
    # -S leaves site-packages, and whatever a .pth file would import, out
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    after_import = set(seen["after_import"])
    assert after_import.isdisjoint(UNUSED_AT_RUN_TIME), sorted(after_import & set(UNUSED_AT_RUN_TIME))
    assert {f"covertype.{m}" for m in LAYERS} <= after_import
    after_bounds = set(seen["after_bounds"])
    assert after_bounds.isdisjoint(UNUSED_AT_RUN_TIME + ("hashlib",))
