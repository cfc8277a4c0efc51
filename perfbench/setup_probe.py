"""Fresh-interpreter set-up probe for the in-process workloads.

Run as ``python3 perfbench/setup_probe.py <workload> <cache-dir>`` from
the checkout root: imports what the workload uses, opens the default
result cache, prints ``ready`` and exits.  The parent times spawn to
``ready``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    import repro.campaign.runner  # noqa: F401
    from repro.campaign.cache import ResultCache

    if sys.argv[1] == "pareto-fronts":
        import repro.analysis.pareto  # noqa: F401
    ResultCache(sys.argv[2])
    print("ready", flush=True)


if __name__ == "__main__":
    main()
