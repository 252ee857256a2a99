"""Time one fresh-process set-up of a workload.

    python3 benchmarks/setup_probe.py INPUTS.json

Measures from just before ``import robusttolls`` to the end of
``workloads.load_all`` (load and validate every scenario, ``incidence``,
``kkt_blocks``), which is everything a run does before its first timed
op.  Prints the seconds on one line.  Interpreter start-up is not
included.
"""

import time

_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    importlib.import_module("robusttolls")
    import workloads

    with open(argv[0], encoding="utf-8") as handle:
        inputs = json.load(handle)
    workloads.load_all(workloads.program(root), inputs)
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
