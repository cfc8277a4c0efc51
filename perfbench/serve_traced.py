"""Traced launcher for ``repro serve``.

``python3 perfbench/serve_traced.py <spans.jsonl> <serve args...>`` wraps
the program's layers (see :mod:`layers`) inside the server process, then
runs the ``serve`` command unchanged.  Spans stay in memory and are
written to ``spans.jsonl`` once the server stops (SIGINT), each stamped
with its wall-clock end so the benchmark can split them by phase.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402


def main() -> int:
    recorder = layers.Recorder(stamp=True)
    layers.install(recorder, server=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve"] + sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
