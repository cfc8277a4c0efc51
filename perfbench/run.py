"""End-to-end benchmark of the repro mapping solver.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign-table1 --seed 1 \
        --seconds 20 --trace 0

Workloads (see README.md): ``campaign-table1``, ``pareto-fronts`` and
``service-contended``.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a separate traced run.  The line
before it is a JSON detail record: raw and normalised figures, the
calibration factor and its within-run spread, op counts per phase, the
checks passed and the host.  A failed op or check exits with code 1, a
checkout without the program with code 2.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: End-to-end metrics reported from raw wall time rather than normalised
#: time, because normalising them added the kernel's noise in ten-run
#: sets (README.md): set-up time (process start and imports) everywhere,
#: and on service-contended client A's cold latency, which the server's
#: GIL switch interval behind client B's solve sets, not host speed.
RAW_METRICS = {
    ("campaign-table1", "setup_s"),
    ("pareto-fronts", "setup_s"),
    ("service-contended", "setup_s"),
    ("service-contended", "cold_ops_per_s"),
    ("service-contended", "latency_p50_ms"),
    ("service-contended", "latency_p90_ms"),
}

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "cold_ops_per_s": "1/s",
    "warm_ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
}


def host_info() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.util.find_spec("scipy") is not None,
        "pulp": importlib.util.find_spec("pulp") is not None,
        "machine": platform.machine(),
    }


def end_to_end(workload: str, out) -> tuple[dict, dict]:
    """``(reported, detail)``: the six metrics, and raw/normalised pairs."""
    import calib

    cold, warm = out.phases["cold"], out.phases["warm"]
    figures = {}
    for norm, label in ((False, "raw"), (True, "normalised")):
        lat = cold.latencies(norm)
        figures[label] = {
            "setup_s": statistics.median(out.setup)
            * (out.setup_factor if norm else 1.0),
            "cold_ops_per_s": cold.rate(norm),
            "warm_ops_per_s": warm.rate(norm),
            "latency_p50_ms": calib.quantile(lat, 0.5) * 1e3,
            "latency_p90_ms": calib.quantile(lat, 0.9) * 1e3,
        }
    reported = {"peak_rss_mb": out.peak_rss_mb}
    for name in figures["normalised"]:
        raw = (workload, name) in RAW_METRICS
        reported[name] = figures["raw" if raw else "normalised"][name]
    detail = {
        "raw": figures["raw"], "normalised": figures["normalised"],
        "reported_raw": sorted(m for w, m in RAW_METRICS if w == workload),
        "cold_latency_samples": len(cold.raw),
        "calibration": {name: cal.factor_summary()
                        for name, cal in out.phases.items()},
        "setup_samples": out.setup,
        "setup_factor": out.setup_factor,
    }
    return reported, detail


def per_layer(workload: str, out, recorder) -> dict:
    import layers

    metrics = layers.aggregate(recorder.spans, {"cold", "warm"})
    metrics.update(out.layer)
    for name in ("service.server.request_ms", "service.server.solve_ms",
                 "service.server.solves", "service.server.served_from_cache",
                 "service.server.coalesced", "service.client.transport_ms",
                 "service.hard_solves_per_s"):
        metrics.setdefault(name, 0)
    untraced, traced = out.phases["cold_untraced"], out.phases["cold"]
    norm = (workload, "cold_ops_per_s") not in RAW_METRICS
    metrics["obs.trace_overhead_ratio"] = \
        untraced.rate(norm) / traced.rate(norm)
    return metrics


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("busy_s", "s"),
                         ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: the program (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), scratch,
                        layers.Recorder() if args.trace else None)
    correct = True
    error = None
    try:
        out = workloads.WORKLOADS[args.workload](run)
    except (workloads.BenchFailure, AssertionError) as exc:
        correct, error, out = False, f"{type(exc).__name__}: {exc}", None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if out is None:
        print(json.dumps({"correct": False, "error": error}))
        return 1

    attempted = sum(out.attempted.values())
    failed = sum(out.failed.values())
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host_info(),
              "attempted": out.attempted, "failed": out.failed,
              "checks": out.checks, "notes": out.notes}
    if args.trace:
        values = per_layer(args.workload, out, run.recorder)
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(values.items())}
        spans_dir = ROOT / ".perfbench_out"
        run.recorder.dump(spans_dir / f"spans-{args.workload}-"
                                      f"{args.seed}.jsonl")
        detail.update(layers.breakdown(
            run.recorder.spans,
            {name: sum(cal.raw) for name, cal in out.phases.items()}))
    else:
        values, extra = end_to_end(args.workload, out)
        detail.update(extra)
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in values.items()}
    if failed:
        correct = False
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
