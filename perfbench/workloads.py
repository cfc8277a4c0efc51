"""The three workloads: campaign-table1, pareto-fronts, service-contended.

Each workload function takes a :class:`Run` (seed, time budget, trace
flag, scratch directory) and returns an :class:`Outcome` with its phase
timings, op counts and checks passed.  Ops are timed with
:class:`calib.Calibrated`, so every phase carries raw and normalised
figures.  Results are checked against :mod:`checker` between rounds or
requests, outside every op's timing, and raise :class:`BenchFailure` or
:class:`checker.CheckError` on the first disagreement.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib
import checker
import inputs
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_clock = time.perf_counter

#: Fresh interpreters started per run to measure set-up time.
SETUP_SAMPLES = 7

#: Exact-mode oracle re-solves of auto-route rows per campaign run.
ORACLE_SAMPLES = 24

#: Distinct client A requests re-solved in-process per service run.
SERVICE_COMPARE = 40


class BenchFailure(Exception):
    """An op failed or a check disagreed with the program."""


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scratch: Path
    recorder: "layers.Recorder | None" = None

    def tmpdir(self, name: str) -> Path:
        path = self.scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


@dataclass
class Outcome:
    setup: list = field(default_factory=list)  # raw seconds per sample
    setup_factor: float = 1.0
    phases: dict = field(default_factory=dict)  # name -> Calibrated
    attempted: dict = field(default_factory=dict)  # phase -> ops
    failed: dict = field(default_factory=dict)  # phase -> failed ops
    peak_rss_mb: float = 0.0
    checks: dict = field(default_factory=dict)  # check -> count passed
    layer: dict = field(default_factory=dict)  # per-layer metrics
    notes: dict = field(default_factory=dict)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure(f"no VmHWM for pid {pid}")


def _timed_setup(out: Outcome, start) -> None:
    """Set-up samples with kernel runs before each and after the last; the
    normalised set-up time uses the median of all those readings (a few
    per gap, since one reading next to a process spawn is noisy)."""
    kernels = [calib.time_kernel() for _ in range(3)]
    for _ in range(SETUP_SAMPLES):
        out.setup.append(start())
        kernels += [calib.time_kernel() for _ in range(3)]
    out.setup_factor = calib.NOMINAL_KERNEL_S / statistics.median(kernels)


def _probe_setup(run: Run) -> float:
    cache_dir = run.tmpdir("setup-cache")
    t0 = _clock()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
         run.workload, str(cache_dir)],
        stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = _clock() - t0
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise BenchFailure("set-up probe failed")
    return ready


def _as_task(index: int, req: dict):
    from repro.campaign.spec import Task

    return Task(index=index, instance_id=f"op-{index}",
                instance=req["instance"], objective=req["objective"],
                period_bound=req["period_bound"],
                latency_bound=req["latency_bound"], solver=req["solver"])


def _strip(row: dict) -> dict:
    from repro.campaign.runner import strip_volatile

    return {k: v for k, v in strip_volatile(row).items()
            if k not in ("index", "instance_id", "_cacheable")}


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def _phase(run: Run, name: str) -> None:
    if run.recorder is not None:
        run.recorder.phase = name


def _calibrated(run: Run) -> calib.Calibrated:
    """A phase's op timer.  Once the layers are wrapped, kernel runs are
    spans too, so a layer span around them (the progress callback runs
    inside ``execute_tasks``) does not count them as its own time."""
    if run.recorder is not None and run.recorder.installed:
        return calib.Calibrated(timer=run.recorder.wrap(
            layers.KERNEL_SPAN, calib.time_kernel))
    return calib.Calibrated()


def _oracle(req: dict) -> dict:
    """The exact-mode bnb row for a request (the ground-truth column)."""
    import repro.campaign.runner as runner

    exact = dict(req, solver={"name": "oracle", "mode": "exact",
                              "engine": "bnb"})
    payload, _ = runner.solve_task(_as_task(0, exact))
    return payload


# ----------------------------------------------------------------------
# campaign-table1
# ----------------------------------------------------------------------
def _campaign_pass(reqs: list[dict], cache, cal: calib.Calibrated) -> list:
    """One serial ``execute_tasks`` campaign; ops are timed between the
    runner's progress callbacks, which is also where kernels run."""
    import repro.campaign.runner as runner

    state = {"t": _clock(), "done": 0}

    def progress(done: int, total: int) -> None:
        cal.add(_clock() - state["t"], done - state["done"])
        state["done"] = done
        state["t"] = _clock()

    tasks = [_as_task(i, r) for i, r in enumerate(reqs)]
    return runner.execute_tasks(tasks, cache=cache, progress=progress)


def campaign_table1(run: Run) -> Outcome:
    from repro.campaign.cache import ResultCache

    out = Outcome()
    reqs = inputs.campaign_tasks(run.seed)
    if not run.trace:
        _timed_setup(out, lambda: _probe_setup(run))

    # the benchmark keeps a digest of the first pass and the few rows the
    # oracle re-solves, not whole passes: a large live heap in this
    # process would make the program's garbage collections slower
    rng = random.Random(f"{run.seed}|oracle")
    sample = sorted(rng.sample(range(len(reqs)), ORACLE_SAMPLES))
    reference: dict = {}

    def check(rows: list, phase: str) -> None:
        """Re-price every row; every pass must equal the first one."""
        for row, req in zip(rows, reqs):
            if row["status"] != "ok":
                out.failed[phase] = out.failed.get(phase, 0) + 1
                continue
            checker.check_row(row, req)
        digest = _digest([_strip(r) for r in rows])
        if not reference:
            reference["digest"] = digest
            reference["sample"] = [rows[i] for i in sample]
        elif digest != reference["digest"]:
            raise BenchFailure(f"{phase} rows differ from the first pass")
        if phase == "warm" and not all(r["cached"] for r in rows):
            raise BenchFailure("warm pass solved instead of hitting")
        out.checks["rows_repriced"] = \
            out.checks.get("rows_repriced", 0) + len(rows)

    def phase(name: str, budget: float, cold: bool) -> None:
        """Whole passes until the budget is spent: cold passes each on a
        fresh cache, warm passes each re-opening the filled cold cache."""
        cal = _calibrated(run)
        out.phases[name] = cal
        passes = 0
        deadline = _clock() + budget
        cal.begin()
        while not passes or _clock() < deadline:
            _phase(run, name)
            cache_dir = run.tmpdir(f"{name}-cache") if cold \
                else run.scratch / "cold-cache"
            rows = _campaign_pass(reqs, ResultCache(cache_dir), cal)
            _phase(run, "checks")
            check(rows, "cold" if cold else "warm")
            del rows
            passes += 1
        cal.end()
        out.attempted[name] = passes * len(reqs)

    cold_budget, warm_budget = _split(run)
    if run.trace:
        phase("cold_untraced", cold_budget, True)
        layers.install(run.recorder)
    phase("cold", cold_budget, True)
    phase("warm", warm_budget, False)
    out.layer["campaign.cache.store_bytes"] = _store_bytes(run)
    out.peak_rss_mb = _self_peak_rss_mb()

    # sampled auto-route optima equal the exact-mode bnb optimum
    routes = {}
    for i, row in zip(sample, reference["sample"]):
        checker.check_equal_optimum(row, _oracle(reqs[i]), reqs[i])
        routes[row["algorithm"]] = routes.get(row["algorithm"], 0) + 1
    out.checks["oracle_equal"] = len(sample)
    out.notes["oracle_routes"] = routes
    out.notes["cells"] = len({tuple(r["_cell"]) for r in reqs})
    return out


def _store_bytes(run: Run) -> int:
    from repro.campaign.cache import ResultCache

    return ResultCache(run.scratch / "cold-cache").storage_stats()["bytes"]


def _split(run: Run) -> tuple[float, float]:
    """Cold and warm phase budgets; a traced run spends a third of its
    time on the untraced cold phase the overhead ratio compares with."""
    if run.trace:
        return 0.35 * run.seconds, 0.3 * run.seconds
    return 0.6 * run.seconds, 0.4 * run.seconds


# ----------------------------------------------------------------------
# pareto-fronts
# ----------------------------------------------------------------------
def _fronts_pass(instances: list[dict], cache, cal: calib.Calibrated,
                 per_op: bool) -> list:
    import repro.analysis.pareto as pareto
    from repro.serialization import spec_from_dict

    fronts = []
    t0 = _clock()
    for inst in instances:
        fronts.append(pareto.pareto_front(
            spec_from_dict(inst), num_points=inputs.PARETO_POINTS,
            exact_fallback=True, cache=cache))
        if per_op:
            cal.add(_clock() - t0)
            t0 = _clock()
    if not per_op:
        cal.add(_clock() - t0, len(instances))
    return fronts


def _front_doc(front) -> list:
    from repro.serialization import mapping_to_dict

    return [(s.period, s.latency, mapping_to_dict(s.mapping)) for s in front]


def pareto_fronts(run: Run) -> Outcome:
    from repro.campaign.cache import ResultCache

    out = Outcome()
    instances = inputs.pareto_instances(run.seed)
    if not run.trace:
        _timed_setup(out, lambda: _probe_setup(run))
    reference: list = []

    def phase(name: str, budget: float, cold: bool) -> None:
        """Whole rounds of every front: cold rounds on a fresh cache,
        warm rounds re-opening the filled cold cache."""
        cal = _calibrated(run)
        out.phases[name] = cal
        rounds = 0
        deadline = _clock() + budget
        cal.begin()
        while not rounds or _clock() < deadline:
            _phase(run, name)
            cache_dir = run.tmpdir(f"{name}-cache") if cold \
                else run.scratch / "cold-cache"
            fronts = _fronts_pass(instances, ResultCache(cache_dir), cal,
                                  per_op=cold)
            _phase(run, "checks")
            docs = [_front_doc(f) for f in fronts]
            if not reference:
                reference.extend(docs)
            elif docs != reference:
                raise BenchFailure(f"a {name} front differs from the "
                                   "first round")
            rounds += 1
        cal.end()
        out.attempted[name] = rounds * len(instances)

    cold_budget, warm_budget = _split(run)
    if run.trace:
        phase("cold_untraced", cold_budget, True)
        layers.install(run.recorder)
    phase("cold", cold_budget, True)
    phase("warm", warm_budget, False)
    out.layer["campaign.cache.store_bytes"] = _store_bytes(run)
    out.peak_rss_mb = _self_peak_rss_mb()

    # each front a strict staircase between the exact-mode extremes, and
    # every point's mapping re-priced
    points = 0
    for inst, doc in zip(instances, reference):
        lo = _oracle(inputs.request(inst, "period"))
        hi = _oracle(inputs.request(inst, "latency"))
        for row in (lo, hi):
            if row["status"] != "ok":
                raise BenchFailure(f"oracle failed: {row['error']}")
        checker.check_front([(p, lat) for p, lat, _ in doc],
                            lo["value"], hi["value"])
        for period, latency, mapping in doc:
            got = checker.price(mapping, inst)
            if not (checker.close(got[0], period)
                    and checker.close(got[1], latency)):
                raise BenchFailure(f"front point {period, latency} "
                                   f"re-prices to {got}")
            points += 1
    out.checks["fronts_checked"] = len(instances)
    out.checks["points_repriced"] = points
    out.notes["mean_front_points"] = points / len(instances)
    return out


# ----------------------------------------------------------------------
# service-contended
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, run: Run, cache_dir: Path, spans: Path | None = None):
        serve_args = ["--host", "127.0.0.1", "--port", "0",
                      "--cache-dir", str(cache_dir)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", "serve"] + serve_args
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                   str(spans)] + serve_args
        t0 = _clock()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(),
                                     cwd=ROOT, text=True)
        try:
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise BenchFailure(f"server did not start: {line!r}")
            self.url = line.split("listening on ")[1].split()[0]
            from repro.service.client import ServiceClient

            self.client = ServiceClient(self.url, timeout=120, retries=0)
            while True:
                try:
                    self.client.healthz()
                    break
                except Exception:  # noqa: BLE001 — not up yet
                    if _clock() - t0 > 60:
                        raise
                    time.sleep(0.002)
            self.ready_s = _clock() - t0
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.proc.pid)

    @contextlib.contextmanager
    def sharing_one_cpu(self):
        """Pin this thread and every server thread to one CPU meanwhile.

        A closed-loop request ping-pong between two CPUs measures the
        host's cross-CPU wake-up latency: in probes the warm rate swung
        between 561 and 776 requests/s from one 1500-request block to the
        next; on one CPU it stayed within 665-723.
        """
        mine = os.sched_getaffinity(0)
        one = {min(mine)}
        os.sched_setaffinity(0, one)
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), one)
        try:
            yield
        finally:
            os.sched_setaffinity(0, mine)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _metric_sum_count(text: str, family: str, keep) -> tuple:
    """Summed ``_sum`` and ``_count`` of a Prometheus histogram family over
    the series whose label text satisfies ``keep``."""
    total = count = 0.0
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if name.startswith(f"{family}_sum") and keep(name):
            total += float(value)
        elif name.startswith(f"{family}_count") and keep(name):
            count += float(value)
    return total, count


def service_contended(run: Run) -> Outcome:
    from repro.service.client import ServiceClient

    out = Outcome()

    def spawn_and_stop() -> float:
        server = Server(run, run.tmpdir("setup-cache"))
        server.stop()
        return server.ready_s

    if not run.trace:
        _timed_setup(out, spawn_and_stop)
    cold_budget, warm_budget = _split(run)
    first: dict[str, dict] = {}  # key -> first row seen, volatile-stripped

    def check(phase: str, req: dict, resp: dict) -> None:
        """Re-price the row; a key always gets the same row; warm
        requests must be served from the cache.  Runs between requests,
        outside their timings, so no response is kept alive."""
        row = resp["row"]
        if row["status"] != "ok":
            out.failed[phase] = out.failed.get(phase, 0) + 1
            return
        checker.check_row(row, req)
        stripped = _strip(row)
        if first.setdefault(resp["key"], stripped) != stripped:
            raise BenchFailure("a repeated request got another row")
        if phase == "warm" and not resp["cached"]:
            raise BenchFailure("warm request was not served from cache")
        out.checks["rows_repriced"] = out.checks.get("rows_repriced", 0) + 1

    def cold_phase(name: str, server: Server) -> tuple[list, list]:
        """Client A closed loop while client B keeps one hard request in
        flight; returns (A's (request, key) pairs, B's requests)."""
        cal = _calibrated(run)
        out.phases[name] = cal
        stream = inputs.ClientAStream(run.seed)
        b_pairs: list = []
        stop = threading.Event()
        started = threading.Event()
        b_client = ServiceClient(server.url, timeout=120, retries=0)

        def client_b() -> None:
            i = 0
            while not stop.is_set():
                req = inputs.client_b_request(run.seed, i)
                started.set()
                b_pairs.append((req, b_client.solve(_wire(req))))
                i += 1

        thread = threading.Thread(target=client_b, daemon=True)
        thread.start()
        started.wait()
        time.sleep(0.02)  # B's first request is in the server
        a_pairs = []
        _phase(run, name)
        deadline = _clock() + cold_budget
        t_start = _clock()
        cal.begin()
        while not a_pairs or _clock() < deadline:
            req = stream.next()
            t0 = _clock()
            resp = server.client.solve(_wire(req))
            cal.add(_clock() - t0)
            check("cold", req, resp)
            a_pairs.append((req, resp["key"]))
        cal.end()
        a_wall = _clock() - t_start
        stop.set()
        thread.join()
        for req, resp in b_pairs:
            check("cold", req, resp)
        out.attempted[name] = len(a_pairs)
        out.notes[f"{name}_b_solves"] = len(b_pairs)
        out.notes[f"{name}_b_per_s"] = len(b_pairs) / a_wall
        return a_pairs, [req for req, _ in b_pairs]

    if run.trace:
        plain = Server(run, run.tmpdir("untraced-cache"))
        try:
            cold_phase("cold_untraced", plain)
        finally:
            plain.stop()
    spans = run.scratch / "server-spans.jsonl" if run.trace else None
    server = Server(run, run.tmpdir("cold-cache"), spans)
    if run.trace:
        run.recorder.installed = True
        server.client.solve = run.recorder.wrap("service.client.solve",
                                                server.client.solve)
    try:
        a_pairs, b_reqs = cold_phase("cold", server)
        metrics_cold = server.client.metrics()
        warm_start = time.time()
        _phase(run, "warm")
        cal = _calibrated(run)
        out.phases["warm"] = cal
        replay = [req for req, _ in a_pairs]
        warm = 0
        deadline = _clock() + warm_budget
        with server.sharing_one_cpu():
            cal.begin()
            while not warm or _clock() < deadline:
                for req in replay:
                    t0 = _clock()
                    resp = server.client.solve(_wire(req))
                    cal.add(_clock() - t0)
                    check("warm", req, resp)
                    warm += 1
            cal.end()
        out.attempted["warm"] = warm
        _phase(run, "checks")
        metrics_end = server.client.metrics()
        stats = server.client.stats()
        out.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    # a sample of service rows equal in-process solve_task rows
    import repro.campaign.runner as runner
    from repro.service.server import task_from_doc

    distinct = {}
    for req, key in a_pairs:
        distinct.setdefault(key, req)
    sample = list(distinct.values())[:SERVICE_COMPARE] + b_reqs[:2]
    for req in sample:
        task = task_from_doc(_wire(req))
        payload, _ = runner.solve_task(task)
        if _strip(payload) != first[task.key]:
            raise BenchFailure("service row != in-process solve_task row")
    out.checks["service_equals_inprocess"] = len(sample)
    out.notes["a_repeats"] = len(a_pairs) - len(distinct)

    svc = stats["service"]
    out.notes["server"] = svc
    if run.trace:
        spans_list = [tuple(s) for s in _read_spans(spans)]
        for span in spans_list:
            end = span[4]["end"]
            ph = "cold" if end < warm_start else "warm"
            span[4].pop("end")
            run.recorder.spans.append((ph,) + span[1:])
        # warm phase only: client A's cache hits, no client B traffic
        req_s, req_n = _delta(metrics_cold, metrics_end,
                              "repro_request_seconds",
                              lambda series: 'endpoint="/v1/solve"' in series)
        warm_cal = out.phases["warm"]
        out.layer["service.server.request_ms"] = req_s / req_n * 1e3
        out.layer["service.client.transport_ms"] = \
            (sum(warm_cal.raw) - req_s) / len(warm_cal.raw) * 1e3
        # client A's polynomial solves; client B's are the bnb series
        solve_s, solve_n = _metric_sum_count(
            metrics_cold, "repro_solve_seconds",
            lambda series: 'engine="bnb"' not in series)
        out.layer["service.server.solve_ms"] = solve_s / solve_n * 1e3
        out.layer["campaign.cache.store_bytes"] = \
            stats["cache"]["storage"]["bytes"]
        out.layer["service.server.solves"] = svc["solves"]
        out.layer["service.server.served_from_cache"] = \
            svc["served_from_cache"]
        out.layer["service.server.coalesced"] = svc["coalesced"]
        out.layer["service.hard_solves_per_s"] = out.notes["cold_b_per_s"]
    return out


def _delta(before: str, after: str, family: str, keep) -> tuple:
    s0, n0 = _metric_sum_count(before, family, keep)
    s1, n1 = _metric_sum_count(after, family, keep)
    return s1 - s0, n1 - n0


def _wire(req: dict) -> dict:
    return {k: v for k, v in req.items() if not k.startswith("_")}


def _read_spans(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


WORKLOADS = {
    "campaign-table1": campaign_table1,
    "pareto-fronts": pareto_fronts,
    "service-contended": service_contended,
}
