"""Run the braidcat command line with the benchmark's wrappers installed.

Usage: python3 perfbench/traced_cli.py SPAWNED ARGS...

SPAWNED is the parent's ``time.perf_counter()`` taken just before it
started this process; the clock is shared between processes, so the
difference to the moment ``braidcat.cli`` is imported is the command's
startup.  The command's own output and exit code are untouched; the
spans go to the last line of standard error, after a marker.
"""

import json
import sys
import time
from pathlib import Path

spawned = float(sys.argv[1])
sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import braidcat.cli  # noqa: E402

startup_s = time.perf_counter() - spawned

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
try:
    code = braidcat.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
sys.stdout.flush()
payload = {"startup_s": startup_s, "spans": tracer.spans, "counts": dict(tracer.counts)}
print(tracing.CLI_MARKER + json.dumps(payload), file=sys.stderr)
sys.exit(code)
