"""Per-layer tracing from outside the program.

:func:`install` wraps the program's public functions, layer by layer, in
span recorders.  Spans are kept in memory (one small tuple each) and
written out only when the run ends.  Each span knows its parent on the
same thread, so a layer's *self time* is its duration minus the part its
child spans cover.  Nothing is wrapped in an untraced run.

Wrapped entry points, by layer:

=========================  ==============================================
serialization              ``spec_from_dict``, ``mapping_to_dict``
campaign.spec              ``Task.key``
campaign.cache             ``ResultCache.get`` / ``ResultCache.put``
campaign.runner            ``execute_tasks``, ``solve_task``
algorithms.registry        ``solve`` and its polynomial / exact dispatch
algorithms.exact           the structured solvers (Thm 9 blocks, P||Cmax)
algorithms.brute_force     ``optimal``
algorithms.bnb             ``optimal`` (nodes, pruned, memo hits)
analysis.pareto            ``pareto_front`` (extremes / sweep children)
service.server             ``SolveService.solve`` and the HTTP handler's
                           ``do_POST`` (server process only)
service.client             client A's ``ServiceClient.solve``
=========================  ==============================================
"""

from __future__ import annotations

import functools
import json
import threading
import time

from calib import quantile

_clock = time.perf_counter

#: Span name of the benchmark's own calibration kernel runs; aggregation
#: leaves it out of every layer's figures.
KERNEL_SPAN = "bench.kernel"


class Recorder:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self, stamp: bool = False) -> None:
        # (phase, name, total_s, self_s, extra); ``extra`` gains the span's
        # wall-clock end under "end" when ``stamp`` is set
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.stamp = stamp
        self.installed = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func, extra=None):
        """``func`` wrapped in a span; ``extra(result, frame)`` may add
        fields to the span (a dict) from the call's result."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [name, 0.0, {}]  # name, child seconds, scratch
            stack.append(frame)
            t0 = _clock()
            try:
                result = func(*args, **kwargs)
            finally:
                total = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += total
            fields = extra(result, frame, stack) if extra else None
            if self.stamp:
                fields = dict(fields or (), end=time.time())
            with self._lock:
                self.spans.append((self.phase, frame[0], total,
                                   total - frame[1], fields))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _patch(recorder: Recorder, owners, attr: str, name: str, extra=None):
    """Replace ``attr`` on every owner that holds the same function."""
    original = getattr(owners[0], attr)
    wrapped = recorder.wrap(name, original, extra)
    for owner in owners:
        if getattr(owner, attr) is original:
            setattr(owner, attr, wrapped)


def _cache_get_extra(result, frame, stack):
    return {"hit": result is not None}


def _bnb_extra(result, frame, stack):
    meta = result.meta
    return {"nodes": meta.get("nodes", 0), "pruned": meta.get("pruned", 0),
            "memo_hits": meta.get("memo_hits", 0)}


def _execute_extra(result, frame, stack):
    fields = {"rows": len(result),
              "hits": sum(1 for r in result if r.get("cached"))}
    if stack and stack[-1][0] == "analysis.pareto.pareto_front":
        scratch = stack[-1][2]
        part = "extremes" if not scratch.get("seen") else "sweep"
        scratch["seen"] = True
        fields["part"] = part
    return fields


def _front_extra(result, frame, stack):
    return {"kept": len(result)}


def install(recorder: Recorder, server: bool = False) -> None:
    """Wrap every traced entry point of the program (idempotent per
    process: call once)."""
    recorder.installed = True
    import repro.algorithms.bnb as bnb
    import repro.algorithms.brute_force as brute_force
    import repro.algorithms.exact as exact
    import repro.algorithms.registry as registry
    import repro.analysis as analysis
    import repro.analysis.pareto as pareto
    import repro.campaign.runner as runner
    import repro.serialization as serialization
    from repro.campaign.cache import ResultCache
    from repro.campaign.spec import Task

    _patch(recorder, [serialization, runner], "spec_from_dict",
           "serialization.spec_from_dict")
    _patch(recorder, [serialization, runner], "mapping_to_dict",
           "serialization.mapping_to_dict")

    key = Task.__dict__["key"]
    prop = functools.cached_property(
        recorder.wrap("campaign.spec.task_key", key.func))
    prop.__set_name__(Task, "key")
    Task.key = prop

    _patch(recorder, [ResultCache], "get", "campaign.cache.get",
           _cache_get_extra)
    _patch(recorder, [ResultCache], "put", "campaign.cache.put")
    _patch(recorder, [runner], "execute_tasks",
           "campaign.runner.execute_tasks", _execute_extra)
    servers = []
    if server:
        import repro.service.server as service_server

        servers = [service_server]
        _patch(recorder, [service_server.SolveService], "solve",
               "service.server.solve")
        _patch(recorder, [service_server._Handler], "do_POST",
               "service.server.http")
    _patch(recorder, [runner] + servers, "solve_task",
           "campaign.runner.solve_task")
    _patch(recorder, [registry, runner], "solve", "algorithms.registry.solve")
    _patch(recorder, [registry], "_poly_dispatch", "algorithms.registry.poly")
    _patch(recorder, [registry], "_exact_dispatch",
           "algorithms.registry.exact")
    _patch(recorder, [exact], "pipeline_period_exact_blocks",
           "algorithms.exact.structured")
    _patch(recorder, [exact], "fork_latency_exact_hom_platform",
           "algorithms.exact.structured")
    # exact.py holds brute_force.optimal under another name
    _patch(recorder, [brute_force], "optimal",
           "algorithms.brute_force.optimal")
    exact.brute_optimal = brute_force.optimal
    _patch(recorder, [bnb], "optimal", "algorithms.bnb.optimal", _bnb_extra)
    _patch(recorder, [pareto, analysis], "pareto_front",
           "analysis.pareto.pareto_front", _front_extra)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _p50(values):
    return quantile(values, 0.5) if values else 0.0


def aggregate(spans, phases) -> dict:
    """Per-layer figures from the spans of ``phases``.

    Returns a flat dict of per-layer metric name -> value; layers that
    did not run report 0.
    """
    by: dict[str, list] = {}
    for phase, name, total, self_s, extra in spans:
        if phase in phases:
            by.setdefault(name, []).append((phase, total, self_s, extra or {}))

    def selfs(name, where=None):
        return [s for ph, t, s, e in by.get(name, ())
                if where is None or where(ph, e)]

    def totals(name, where=None):
        return [t for ph, t, s, e in by.get(name, ())
                if where is None or where(ph, e)]

    out = {}
    us, ms = 1e6, 1e3
    out["serialization.spec_from_dict_us"] = \
        _p50(selfs("serialization.spec_from_dict")) * us
    out["serialization.mapping_to_dict_us"] = \
        _p50(selfs("serialization.mapping_to_dict")) * us
    out["campaign.spec.task_key_us"] = \
        _p50(selfs("campaign.spec.task_key")) * us
    hit = selfs("campaign.cache.get", lambda ph, e: e.get("hit"))
    miss = selfs("campaign.cache.get", lambda ph, e: not e.get("hit"))
    puts = selfs("campaign.cache.put")
    out["campaign.cache.get_hit_us"] = _p50(hit) * us
    out["campaign.cache.get_miss_us"] = _p50(miss) * us
    out["campaign.cache.put_us"] = _p50(puts) * us
    out["campaign.cache.busy_s"] = sum(hit) + sum(miss) + sum(puts)
    out["campaign.runner.cold_overhead_us"] = \
        _p50(selfs("campaign.runner.solve_task")) * us
    warm = [(s, e) for ph, t, s, e in by.get("campaign.runner.execute_tasks",
                                              ())
            if e.get("hits") and e.get("hits") == e.get("rows")]
    warm_hits = sum(e["hits"] for s, e in warm)
    out["campaign.runner.warm_overhead_us"] = \
        (sum(s for s, e in warm) / warm_hits * us) if warm_hits else 0.0
    poly = selfs("algorithms.registry.poly")
    out["algorithms.registry.poly_us"] = _p50(poly) * us
    out["algorithms.registry.poly_busy_s"] = sum(poly)
    structured = selfs("algorithms.exact.structured")
    bnb = by.get("algorithms.bnb.optimal", ())
    out["algorithms.registry.ops.poly"] = len(poly)
    out["algorithms.registry.ops.structured"] = len(structured)
    out["algorithms.registry.ops.bnb"] = len(bnb)
    out["algorithms.exact.structured_ms"] = _p50(structured) * ms
    out["algorithms.exact.structured_busy_s"] = sum(structured)
    bnb_self = [s for ph, t, s, e in bnb]
    out["algorithms.bnb.solve_ms"] = _p50(bnb_self) * ms
    out["algorithms.bnb.busy_s"] = sum(bnb_self)
    out["algorithms.bnb.nodes"] = sum(e.get("nodes", 0) for *_, e in bnb)
    out["algorithms.bnb.pruned"] = sum(e.get("pruned", 0) for *_, e in bnb)
    out["algorithms.solve_context.memo_hits"] = \
        sum(e.get("memo_hits", 0) for *_, e in bnb)
    out["analysis.pareto.extremes_ms"] = _p50(totals(
        "campaign.runner.execute_tasks",
        lambda ph, e: e.get("part") == "extremes")) * ms
    out["analysis.pareto.sweep_ms"] = _p50(totals(
        "campaign.runner.execute_tasks",
        lambda ph, e: e.get("part") == "sweep")) * ms
    fronts = by.get("analysis.pareto.pareto_front", ())
    kept = sum(e.get("kept", 0) for *_, e in fronts)
    candidates = sum(e.get("rows", 0)
                     for ph, t, s, e in by.get("campaign.runner.execute_tasks",
                                               ())
                     if e.get("part"))
    out["analysis.pareto.points_kept_ratio"] = \
        kept / candidates if candidates else 0.0
    return out


#: Spans that enclose a whole op: their self time is the op's glue, and
#: the coverage figure counts only the layers below them.
ENTRY_SPANS = {"campaign.runner.execute_tasks", "analysis.pareto.pareto_front",
               "service.client.solve", KERNEL_SPAN}


def breakdown(spans, phase_seconds: dict) -> dict:
    """Self seconds per span name and phase, and the share of each traced
    phase's op time that the layers below the entry point account for.
    On service-contended the server's spans run beside the client's (and
    client B's solves beside client A's), so its cold share exceeds 1."""
    self_s: dict = {}
    for phase, name, total, own, extra in spans:
        if name != KERNEL_SPAN:
            by_name = self_s.setdefault(phase, {})
            by_name[name] = by_name.get(name, 0.0) + own
    coverage = {
        phase: sum(v for n, v in self_s.get(phase, {}).items()
                   if n not in ENTRY_SPANS) / seconds
        for phase, seconds in phase_seconds.items()
        if phase in ("cold", "warm") and seconds}
    return {"layer_self_s": self_s, "phase_raw_s": phase_seconds,
            "layer_coverage": coverage}
