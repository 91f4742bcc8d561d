"""Import braidcat and build one workload's inputs in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints ``ready`` once the first job could start; the parent times this
line from the moment it started the process.
"""

import sys
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.SETUP[sys.argv[1]](int(sys.argv[2]))
print("ready", flush=True)
