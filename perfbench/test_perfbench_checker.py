"""The independent checker on hand-computed mappings.

Run with ``python -m pytest perfbench/test_perfbench_checker.py -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402


def pipeline(works, speeds, dp=True):
    return {"kind": "instance",
            "application": {"kind": "pipeline", "works": works},
            "platform": {"kind": "platform", "speeds": speeds},
            "allow_data_parallel": dp}


def fork(root, branches, speeds, dp=True, join=None):
    app = {"kind": "fork" if join is None else "fork-join",
           "root_work": root, "branch_works": branches}
    if join is not None:
        app["join_work"] = join
    return {"kind": "instance", "application": app,
            "platform": {"kind": "platform", "speeds": speeds},
            "allow_data_parallel": dp}


def mapping(instance, *groups):
    return {"kind": "mapping", "application": instance["application"],
            "platform": instance["platform"],
            "groups": [{"stages": s, "processors": p,
                        "assignment": "data-parallel" if dp else "replicated"}
                       for s, p, dp in groups]}


def test_pipeline_replicated_and_data_parallel():
    inst = pipeline([3.0, 5.0, 2.0, 7.0], [4.0, 2.0, 1.0])
    m = mapping(inst, ([1, 2, 3], [0], False), ([4], [1, 2], True))
    # interval 1-3: W=10 on speed 4 -> 2.5; stage 4 dp: 7 / (2+1)
    assert checker.price(m, inst) == pytest.approx((2.5, 2.5 + 7 / 3))


def test_replicated_group_uses_slowest_processor():
    inst = pipeline([6.0, 6.0], [3.0, 2.0, 1.0], dp=False)
    m = mapping(inst, ([1], [0, 1], False), ([2], [2], False))
    # period 6 / (2 * 2) = 1.5 and 6 / 1; delays 6 / 2 + 6 / 1
    assert checker.price(m, inst) == pytest.approx((6.0, 9.0))


def test_fork_flexible_latency():
    inst = fork(4.0, [6.0, 3.0], [2.0, 3.0, 1.0])
    m = mapping(inst, ([0], [0], False), ([1, 2], [1, 2], True))
    # t0 = 4 / 2; branches dp: 9 / 4 -> latency max(2, 2 + 2.25)
    assert checker.price(m, inst) == pytest.approx((2.25, 4.25))


def test_fork_root_group_can_dominate_latency():
    inst = fork(4.0, [6.0, 1.0], [2.0, 1.0])
    m = mapping(inst, ([0, 1], [0], False), ([2], [1], False))
    # root group 10 / 2 = 5; other group 2 + 1 / 1 = 3
    assert checker.price(m, inst) == pytest.approx((5.0, 5.0))


def test_forkjoin_join_waits_for_every_branch():
    inst = fork(19.0, [3.0, 9.0, 4.0], [8.0, 7.0, 4.0], join=16.0)
    m = mapping(inst, ([0, 1, 3, 4], [0], False), ([2], [1, 2], True))
    # t0 = 19/8; root group branches 7/8 -> 3.25; dp 9/11 -> 3.19;
    # join on the root group 16/8 = 2; root group load 42/8
    assert checker.price(m, inst) == pytest.approx((5.25, 5.25))


def test_forkjoin_separate_join_group():
    inst = fork(2.0, [4.0], [1.0, 2.0, 4.0], join=3.0)
    m = mapping(inst, ([0], [0], False), ([1], [1], False),
                ([2], [2], False))
    # t0 = 2; branch done 2 + 4/2 = 4; join 3/4
    assert checker.price(m, inst) == pytest.approx((2.0, 4.75))


@pytest.mark.parametrize("groups, message", [
    ((([1, 2], [0], False), ([3], [0], False)), "two groups"),
    ((([1, 2], [0], False),), "stages mapped"),
    ((([1, 3], [0], False), ([2], [1], False)), "not an interval"),
    ((([1, 2], [0, 1], True), ([3], [2], False)), "length > 1"),
    ((([1, 2, 3], [5], False),), "not on the platform"),
])
def test_pipeline_structure_errors(groups, message):
    inst = pipeline([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(checker.CheckError, match=message):
        checker.price(mapping(inst, *groups), inst)


def test_data_parallel_only_when_allowed():
    inst = pipeline([1.0, 2.0], [1.0, 2.0], dp=False)
    m = mapping(inst, ([1], [0], True), ([2], [1], False))
    with pytest.raises(checker.CheckError, match="not allowed"):
        checker.price(m, inst)


def test_fork_root_not_data_parallel_with_branches():
    inst = fork(1.0, [1.0, 1.0], [1.0, 1.0])
    m = mapping(inst, ([0, 1], [0], True), ([2], [1], False))
    with pytest.raises(checker.CheckError, match="root/join"):
        checker.price(m, inst)


def test_mapping_for_another_instance():
    inst = pipeline([1.0, 2.0], [1.0, 2.0])
    other = pipeline([1.0, 3.0], [1.0, 2.0])
    with pytest.raises(checker.CheckError, match="another instance"):
        checker.price(mapping(other, ([1, 2], [0], False)), inst)


def _row(inst, objective, groups, period, latency):
    return {"status": "ok", "mapping": mapping(inst, *groups),
            "period": period, "latency": latency,
            "value": period if objective == "period" else latency}


def test_check_row_prices_and_bounds():
    inst = pipeline([6.0, 6.0], [3.0, 2.0, 1.0], dp=False)
    groups = (([1], [0, 1], False), ([2], [2], False))
    req = {"instance": inst, "objective": "latency", "period_bound": 6.0,
           "latency_bound": None}
    checker.check_row(_row(inst, "latency", groups, 6.0, 9.0), req)
    with pytest.raises(checker.CheckError, match="re-priced"):
        checker.check_row(_row(inst, "latency", groups, 6.0, 9.0 + 1e-6),
                          req)
    with pytest.raises(checker.CheckError, match="exceeds bound"):
        checker.check_row(_row(inst, "latency", groups, 6.0, 9.0),
                          dict(req, period_bound=5.0))


def test_check_equal_optimum():
    inst = pipeline([6.0, 6.0], [3.0, 2.0, 1.0], dp=False)
    req = {"instance": inst, "objective": "period", "period_bound": None,
           "latency_bound": None}
    best = _row(inst, "period", (([1, 2], [0, 1, 2], False),), 4.0, 12.0)
    worse = _row(inst, "period", (([1], [0, 1], False), ([2], [2], False)),
                 6.0, 9.0)
    checker.check_equal_optimum(best, best, req)
    with pytest.raises(checker.CheckError, match="!= exact"):
        checker.check_equal_optimum(worse, best, req)


def test_check_front():
    checker.check_front([(1.0, 9.0), (2.0, 5.0)], 1.0, 5.0)
    with pytest.raises(checker.CheckError, match="staircase"):
        checker.check_front([(1.0, 9.0), (2.0, 9.0)], 1.0, 9.0)
    with pytest.raises(checker.CheckError, match="first period"):
        checker.check_front([(1.5, 9.0), (2.0, 5.0)], 1.0, 5.0)
    with pytest.raises(checker.CheckError, match="last latency"):
        checker.check_front([(1.0, 9.0), (2.0, 5.0)], 1.0, 4.0)
