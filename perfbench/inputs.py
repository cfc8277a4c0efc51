"""Seeded inputs for the three workloads.

Everything here is plain Python over ``random.Random``: the program only
ever receives the documents built below.  The same ``--seed`` always gives
the same documents, so two runs with one seed send identical requests.

Instance documents use the program's wire format::

    {"kind": "instance",
     "application": {"kind": "pipeline", "works": [...]}
                  | {"kind": "fork", "root_work": w0, "branch_works": [...]}
                  | {"kind": "fork-join", ..., "join_work": wj},
     "platform": {"kind": "platform", "speeds": [...]},
     "allow_data_parallel": bool}

Bi-criteria thresholds come from witness mappings priced by
:mod:`checker` (one replicated group on the k fastest processors, or the
fastest processor alone), so every threshold is feasible by construction
and no operation ends in an infeasibility verdict.
"""

from __future__ import annotations

import random

import checker

GRAPHS = ("pipeline", "fork", "forkjoin")

#: Table 1 cells (graph, homogeneous app, homogeneous platform, dp) whose
#: three criteria are all polynomial; every other cell has at least one
#: NP-hard criterion and routes it to the exact engines.
_POLY_CELLS = {
    ("pipeline", False, True, False), ("pipeline", False, True, True),
    ("pipeline", True, True, False), ("pipeline", True, True, True),
    ("pipeline", True, False, False),
    ("fork", True, True, False), ("fork", True, True, True),
    ("fork", True, False, False),
    ("forkjoin", True, True, False), ("forkjoin", True, True, True),
    ("forkjoin", True, False, False),
}

#: (n, p) of each instance slot per cell class of the campaign grid.  The
#: sizes are fixed so a seed changes works and speeds but not instance
#: size, which would swing a pass's cost far more than the seed should.
#: Polynomial cells stay small enough that the exact-mode oracle can
#: re-solve them with bnb, and get more slots, so that about two thirds of
#: the ops take a polynomial route: the median op is then a polynomial
#: solve and the 90th percentile a bnb solve, never the boundary between
#: the two.  NP-hard cells use one size per graph, chosen so their bnb
#: solves form one cluster of a few milliseconds each (a 90th percentile
#: between clusters of sizes moved by 25% from seed to seed).  Each size
#: appears many times because a percentile of a few hundred distinct ops
#: still moves with the seed.
_CAMPAIGN_SIZES = {
    "poly": ((4, 3), (4, 4), (5, 3), (5, 4), (6, 4), (6, 5), (7, 5)) * 3,
    ("pipeline", "hard"): ((7, 5),) * 12,
    ("fork", "hard"): ((4, 4),) * 12,
    ("forkjoin", "hard"): ((4, 3),) * 12,
}


def _works(rng: random.Random, n: int, hom: bool) -> list[float]:
    if hom:
        return [float(rng.randint(1, 20))] * n
    return [float(rng.randint(1, 20)) for _ in range(n)]


def _speeds(rng: random.Random, p: int, hom: bool) -> list[float]:
    if hom:
        return [float(rng.randint(1, 10))] * p
    return [float(rng.randint(1, 10)) for _ in range(p)]


def instance_doc(rng: random.Random, graph: str, n: int, p: int,
                 app_hom: bool, plat_hom: bool, dp: bool) -> dict:
    """One random instance document of the given Table 1 cell."""
    works = _works(rng, n, app_hom)
    if graph == "pipeline":
        app = {"kind": "pipeline", "works": works}
    else:
        app = {"kind": "fork" if graph == "fork" else "fork-join",
               "root_work": float(rng.randint(1, 20)),
               "branch_works": works}
        if graph == "forkjoin":
            app["join_work"] = float(rng.randint(1, 20))
    return {"kind": "instance", "application": app,
            "platform": {"kind": "platform",
                         "speeds": _speeds(rng, p, plat_hom)},
            "allow_data_parallel": dp}


def thresholds(instance: dict) -> tuple[float, float]:
    """Feasible ``(period_bound, latency_bound)`` for the bi-criteria forms.

    The period bound lies halfway between the best one-group replicated
    period and the fastest processor's period; the latency bound is 1.2x
    the fastest processor's latency.  Both have a witness mapping.
    """
    app = instance["application"]
    speeds = sorted(instance["platform"]["speeds"], reverse=True)
    total = checker.total_work(app)
    best_rep = min(total / (k * speeds[k - 1])
                   for k in range(1, len(speeds) + 1))
    alone = total / speeds[0]
    return best_rep + 0.5 * (alone - best_rep), 1.2 * alone


def criteria(instance: dict) -> list[tuple[str, float | None, float | None]]:
    """Period, latency and both bi-criteria forms of one instance."""
    kbound, lbound = thresholds(instance)
    return [("period", None, None), ("latency", None, None),
            ("latency", kbound, None), ("period", None, lbound)]


def _cell_rng(seed: int, *parts) -> random.Random:
    return random.Random(f"{seed}|" + "|".join(map(str, parts)))


def campaign_tasks(seed: int) -> list[dict]:
    """The campaign-table1 grid: every Table 1 cell x 4 criteria.

    Returns request documents (the ``POST /v1/solve`` shape, also what
    :class:`repro.campaign.spec.Task` is built from), each tagged with
    its cell under ``"_cell"``.
    """
    out = []
    for graph in GRAPHS:
        for app_hom in (True, False):
            for plat_hom in (True, False):
                for dp in (False, True):
                    cell = (graph, app_hom, plat_hom, dp)
                    size = _CAMPAIGN_SIZES["poly"] if cell in _POLY_CELLS \
                        else _CAMPAIGN_SIZES[(graph, "hard")]
                    rng = _cell_rng(seed, "campaign", *cell)
                    for n, p in size:
                        inst = instance_doc(rng, graph, n, p, app_hom,
                                            plat_hom, dp)
                        for obj, kb, lb in criteria(inst):
                            out.append(request(inst, obj, kb, lb, cell))
    return out


def request(instance: dict, objective: str, period_bound=None,
            latency_bound=None, cell=None) -> dict:
    """A solve request with the program's default solver config."""
    doc = {"instance": instance, "objective": objective,
           "period_bound": period_bound, "latency_bound": latency_bound,
           "solver": {"name": "auto", "exact_fallback": True}}
    if cell is not None:
        doc["_cell"] = list(cell)
    return doc


#: Pareto instances: NP-hard cells whose every sweep point runs bnb, as
#: (graph, dp, (n, p) per front).  Sizes are fixed and chosen so every
#: front takes a few tens of milliseconds: one cluster of front times,
#: whose median and 90th percentile do not jump between shapes.
_PARETO_SHAPES = (
    ("pipeline", True, ((7, 5),) * 12 + ((8, 5),) * 12),
    ("fork", False, ((4, 4),) * 24),
    ("fork", True, ((4, 4),) * 24),
    ("forkjoin", False, ((3, 4),) * 12 + ((4, 3),) * 12),
)

#: Sweep points per front.
PARETO_POINTS = 8


def pareto_instances(seed: int) -> list[dict]:
    """Het-app, het-platform NP-hard instances for the Pareto workload."""
    out = []
    for graph, dp, sizes in _PARETO_SHAPES:
        rng = _cell_rng(seed, "pareto", graph, dp)
        for n, p in sizes:
            out.append(instance_doc(rng, graph, n, p, False, False, dp))
    return out


#: Polynomial cells client A draws from (cheap solves).
_SERVICE_CELLS = (
    ("pipeline", True, True, True), ("pipeline", False, True, False),
    ("pipeline", True, False, False), ("fork", True, True, True),
    ("fork", True, False, False), ("forkjoin", True, True, False),
)

#: Share of client A's requests that repeat an earlier request.
REPEAT_SHARE = 0.25


class ClientAStream:
    """Client A's request stream: cheap polynomial cells, ~25% repeats.

    Request ``i`` is a pure function of ``(seed, i)`` and the requests
    before it, so the stream is as long as a run needs and identical for
    one seed.
    """

    def __init__(self, seed: int) -> None:
        self._rng = _cell_rng(seed, "client-a")
        self.sent: list[dict] = []

    def next(self) -> dict:
        rng = self._rng
        if self.sent and rng.random() < REPEAT_SHARE:
            doc = self.sent[rng.randrange(len(self.sent))]
        else:
            cell = _SERVICE_CELLS[rng.randrange(len(_SERVICE_CELLS))]
            inst = instance_doc(rng, cell[0], rng.randint(4, 8),
                                rng.randint(3, 6), *cell[1:])
            obj, kb, lb = criteria(inst)[rng.randrange(4)]
            doc = request(inst, obj, kb, lb)
        self.sent.append(doc)
        return doc


def client_b_request(seed: int, i: int) -> dict:
    """Client B's i-th hard request: het fork with dp, n=6, exact bnb."""
    rng = _cell_rng(seed, "client-b", i)
    inst = instance_doc(rng, "fork", 6, 4, False, False, True)
    return request(inst, "latency")
