"""Independent re-pricer for the program's mapping documents.

Implements the simplified cost model of the paper's Section 3.4 straight
from its formulas, without importing the program, so a result row is
checked against a computation made apart from the code that produced it.

For a group of total work ``W`` on processors of speeds ``s_1..s_k``:

* replicated: period ``W / (k * min s)``, delay ``W / min s``;
* data-parallel: period = delay = ``W / sum s``.

A pipeline's period is the largest group period and its latency the sum
of group delays.  A fork uses the flexible latency model: the root group
finishes its stages after its own delay, and every other group starts
once the root stage is done (at ``t0``), so the latency is
``max(delay(root group), t0 + max delay(other group))``.  In a fork-join
every group first runs its branch stages (the root group right after the
root stage, the others from ``t0``), and the join group runs the join
stage once every branch stage is done; the join work counts toward its
group's period load.

Structural checks: every stage mapped exactly once, no processor used
twice, processor indices on the platform, pipeline groups contiguous
intervals, data-parallel groups only when the instance allows them and
only in the shapes the model admits (a pipeline interval of one stage;
the root or the join of a fork alone), and bi-criteria thresholds met.
"""

from __future__ import annotations

REL_TOL = 1e-9


class CheckError(AssertionError):
    """A result that contradicts the independent computation."""


def total_work(app: dict) -> float:
    if app["kind"] == "pipeline":
        return float(sum(app["works"]))
    return float(app["root_work"] + sum(app["branch_works"])
                 + app.get("join_work", 0.0))


def stage_works(app: dict) -> dict[int, float]:
    """Stage index -> work: pipeline stages 1..n; fork root 0, branches
    1..n, fork-join join n+1."""
    if app["kind"] == "pipeline":
        return {i + 1: float(w) for i, w in enumerate(app["works"])}
    works = {0: float(app["root_work"])}
    works.update({i + 1: float(w) for i, w in enumerate(app["branch_works"])})
    if app["kind"] == "fork-join":
        works[len(app["branch_works"]) + 1] = float(app["join_work"])
    return works


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _groups(mapping: dict, instance: dict) -> list[tuple[list, list, bool]]:
    """Validate the structure; returns ``(stages, speeds, dp)`` per group."""
    app, speeds = instance["application"], instance["platform"]["speeds"]
    if mapping.get("kind") != "mapping":
        raise CheckError(f"not a mapping document: {mapping.get('kind')!r}")
    if mapping["application"] != app or \
            mapping["platform"]["speeds"] != speeds:
        raise CheckError("mapping is for another instance")
    if app["kind"] == "pipeline" and app.get("dp_overheads"):
        raise CheckError("dp overheads are outside the simplified model")
    works = stage_works(app)
    seen_stages: list[int] = []
    seen_procs: list[int] = []
    out = []
    for group in mapping["groups"]:
        stages, procs = list(group["stages"]), list(group["processors"])
        kind = group["assignment"]
        if kind not in ("replicated", "data-parallel"):
            raise CheckError(f"unknown assignment {kind!r}")
        if not stages or not procs:
            raise CheckError("empty group")
        dp = kind == "data-parallel"
        if dp and not instance["allow_data_parallel"]:
            raise CheckError("data-parallel group where dp is not allowed")
        if app["kind"] == "pipeline":
            if sorted(stages) != list(range(min(stages), max(stages) + 1)):
                raise CheckError(f"pipeline group {stages} not an interval")
            if dp and len(stages) > 1:
                raise CheckError("data-parallel pipeline interval of length > 1")
        else:
            ends = {0}
            if app["kind"] == "fork-join":
                ends.add(len(app["branch_works"]) + 1)
            if dp and len(stages) > 1 and ends & set(stages):
                raise CheckError("root/join data-parallelized with other stages")
        for p in procs:
            if not 0 <= p < len(speeds):
                raise CheckError(f"processor {p} not on the platform")
        seen_stages += stages
        seen_procs += procs
        out.append((stages, [float(speeds[p]) for p in procs], dp))
    if sorted(seen_stages) != sorted(works):
        raise CheckError(f"stages mapped {sorted(seen_stages)} != "
                         f"{sorted(works)}")
    if len(set(seen_procs)) != len(seen_procs):
        raise CheckError("a processor is used by two groups")
    return out


def _period(work: float, speeds: list, dp: bool) -> float:
    if dp:
        return work / sum(speeds)
    return work / (len(speeds) * min(speeds))


def _delay(work: float, speeds: list, dp: bool) -> float:
    if dp:
        return work / sum(speeds)
    return work / min(speeds)


def price(mapping: dict, instance: dict) -> tuple[float, float]:
    """``(period, latency)`` of a mapping document on its instance."""
    app = instance["application"]
    works = stage_works(app)
    groups = _groups(mapping, instance)
    loads = [sum(works[i] for i in st) for st, _, _ in groups]
    period = max(_period(w, sp, dp) for w, (_, sp, dp) in zip(loads, groups))
    if app["kind"] == "pipeline":
        latency = sum(_delay(w, sp, dp) for w, (_, sp, dp) in zip(loads, groups))
        return period, latency
    root = next(g for g in groups if 0 in g[0])
    t0 = _delay(works[0], root[1], root[2])
    if app["kind"] == "fork":
        delays = [_delay(w, sp, dp) for w, (_, sp, dp) in zip(loads, groups)]
        rest = [d for d, g in zip(delays, groups) if g is not root]
        t_root = delays[groups.index(root)]
        return period, max([t_root] + [t0 + d for d in rest])
    join = len(app["branch_works"]) + 1
    done = t0
    for stages, speeds, dp in groups:
        branch = sum(works[i] for i in stages if i not in (0, join))
        if branch > 0:
            done = max(done, t0 + _delay(branch, speeds, dp))
    join_group = next(g for g in groups if join in g[0])
    return period, done + _delay(works[join], join_group[1], join_group[2])


def check_row(row: dict, req: dict) -> None:
    """Re-price one ok result row against the request that produced it."""
    if row.get("status") != "ok":
        raise CheckError(f"row failed: {row.get('error_type')}: "
                         f"{row.get('error')}")
    period, latency = price(row["mapping"], req["instance"])
    if not (close(period, row["period"]) and close(latency, row["latency"])):
        raise CheckError(
            f"re-priced ({period!r}, {latency!r}) != row "
            f"({row['period']!r}, {row['latency']!r})")
    value = period if req["objective"] == "period" else latency
    if not close(value, row["value"]):
        raise CheckError(f"objective value {row['value']!r} != {value!r}")
    kb, lb = req.get("period_bound"), req.get("latency_bound")
    if kb is not None and period > kb * (1 + REL_TOL) + REL_TOL:
        raise CheckError(f"period {period!r} exceeds bound {kb!r}")
    if lb is not None and latency > lb * (1 + REL_TOL) + REL_TOL:
        raise CheckError(f"latency {latency!r} exceeds bound {lb!r}")


def check_equal_optimum(row: dict, oracle: dict, req: dict) -> None:
    """An auto-route optimum must equal the exact-mode optimum."""
    check_row(oracle, req)
    if not close(row["value"], oracle["value"]):
        raise CheckError(f"route {row.get('algorithm')!r} value "
                         f"{row['value']!r} != exact {oracle['value']!r}")


def check_front(points: list[tuple[float, float]], min_period: float,
                min_latency: float) -> None:
    """A Pareto front: strict staircase from the min-period solve to the
    min-latency solve."""
    if not points:
        raise CheckError("empty front")
    for (p0, l0), (p1, l1) in zip(points, points[1:]):
        if not (p1 > p0 and l1 < l0):
            raise CheckError(f"front not a strict staircase at {p0, l0} -> "
                             f"{p1, l1}")
    if not close(points[0][0], min_period):
        raise CheckError(f"first period {points[0][0]!r} != min period "
                         f"{min_period!r}")
    if not close(points[-1][1], min_latency):
        raise CheckError(f"last latency {points[-1][1]!r} != min latency "
                         f"{min_latency!r}")
