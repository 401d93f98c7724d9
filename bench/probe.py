"""Set-up probe, run in a fresh interpreter: import the CLI, then load a
generated workload's configuration and inputs.

    python3 bench/probe.py <workload> <workdir>

Prints one JSON line with the import and load times in milliseconds.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import socialagent.cli  # noqa: E402,F401

_IMPORTED = time.perf_counter()

from inputs import load  # noqa: E402

load(sys.argv[1], Path(sys.argv[2]))
_LOADED = time.perf_counter()
print(
    json.dumps(
        {"import_ms": (_IMPORTED - _STARTED) * 1e3, "load_ms": (_LOADED - _IMPORTED) * 1e3}
    )
)
