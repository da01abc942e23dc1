"""Fresh-process set-up: import decotab, parse model files, order cliques.

    python3 perfbench/setup_probe.py MODEL.json [MODEL.json ...]

Prints one JSON line with ``import_s`` (importing ``decotab.cli``, which
loads every module a command uses) and ``setup_s`` (that plus parsing each
model file and running ``perfect_order`` on it).  The clock starts before
the first decotab import, so interpreter start-up is not included.
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import decotab.cli  # noqa: E402,F401

_imported = time.perf_counter()

from decotab.graphs import perfect_order  # noqa: E402
from decotab.modelio import load_model  # noqa: E402

for path in sys.argv[1:]:
    graph, _ = load_model(path)
    perfect_order(graph)
_done = time.perf_counter()
print(json.dumps({"import_s": _imported - _start, "setup_s": _done - _start}))
