"""Tests of the benchmark's own arithmetic (no laxkit run, no subprocess).

Run with: python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_subtracts_children():
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    a = tr.group("construct.a", "construct")
    b = tr.group("opcore.mul", "opcore")
    d = tr.group("special.sigma", "special")
    tr.enter(a)                      # a: 0 .. 10
    clock.now = 2.0
    tr.enter(b)                      # b: 2 .. 5
    clock.now = 5.0
    tr.exit()
    clock.now = 6.0
    tr.enter(b)                      # b: 6 .. 9, holding d: 7 .. 8
    clock.now = 7.0
    tr.enter(d)
    clock.now = 8.0
    tr.exit()
    clock.now = 9.0
    tr.exit()
    clock.now = 10.0
    tr.exit()
    assert a.self_s == pytest.approx(4.0)
    assert a.incl == pytest.approx(10.0)
    assert b.self_s == pytest.approx(5.0)
    assert b.incl == pytest.approx(6.0)
    assert b.calls == 2 and b.outer_calls == 2
    assert d.self_s == pytest.approx(1.0)
    assert tr.layers["opcore"].incl == pytest.approx(6.0)
    total_self = sum(lay.self_s for lay in tr.layers.values())
    assert total_self == pytest.approx(10.0)


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    tr = tracer.Tracer(clock)
    g = tr.group("dual.directional", "dual")
    tr.enter(g)
    clock.now = 1.0
    tr.enter(g)
    clock.now = 3.0
    tr.exit()
    clock.now = 4.0
    tr.exit()
    assert g.calls == 2 and g.outer_calls == 1
    assert g.incl == pytest.approx(4.0)
    assert g.self_s == pytest.approx(4.0)
    assert tr.layers["dual"].incl == pytest.approx(4.0)


def test_span_wrapper_closes_on_exception():
    tr = tracer.Tracer(FakeClock())

    def boom():
        raise ArithmeticError("pole")
    wrapped = tr.span(boom, "fields.eval", "fields")
    with pytest.raises(ArithmeticError):
        wrapped()
    assert tr.stack == []
    assert tr.groups["fields.eval"].depth == 0


def test_point_totals_count_only_inside_points():
    tr = tracer.Tracer(FakeClock())
    tr.counts["leaf_calls"] = 5          # made outside any point
    before = tr.snapshot()
    tr.counts["leaf_calls"] += 7
    tr.add_point(before)
    before = tr.snapshot()
    tr.counts["leaf_calls"] += 3
    tr.add_point(before, rhs=True)
    assert tr.point_totals["leaf_calls"] == 10
    assert (tr.points, tr.rhs_points) == (1, 1)


class Node:
    __slots__ = ("kids",)

    def __init__(self, *kids):
        self.kids = list(kids)


def test_count_nodes_distinguishes_sharing():
    leaf = Node()
    mid = Node(leaf, leaf)
    root = Node(mid, mid, leaf)
    distinct, tree = tracer.count_nodes([root], Node)
    assert distinct == 3
    # root + 2 * (mid + 2 leaves) + leaf
    assert tree == 1 + 2 * 3 + 1


def test_median_and_geomean():
    assert metrics.median([3.0, 1.0, 2.0]) == 2.0
    assert metrics.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert metrics.geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        metrics.geomean([0.0, 1.0])


@pytest.mark.parametrize("name,ok", [
    ("op_s.geomean", True), ("check_s.vandiejen.collapse-matches-hamiltonian", True),
    ("9lives", True), ("_hidden", False), ("a b", False), ("a/b", False),
    ("x" * 64, True), ("x" * 65, False), ("", False)])
def test_metric_name_charset(name, ok):
    assert metrics.valid_name(name) is ok


def test_every_reported_metric_has_a_valid_name_and_unit():
    names = [n for n, _u in run.END_TO_END] + [n for n, _u in run.per_layer_names()]
    assert len(names) == len(set(names))
    assert len(run.per_layer_names()) <= 128
    for name, unit in list(run.END_TO_END) + run.per_layer_names():
        assert metrics.valid_name(name), name
        assert metrics.valid_unit(unit), unit


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _u in run.per_layer_names()]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_fail_ratio_counting():
    ops = [
        {"mode": "verify", "checks": [{"pass": True}, {"pass": False},
                                      {"pass": True}]},
        {"mode": "verify", "passed": False},           # raised: one failed attempt
        {"mode": "flow", "passed": True},
        {"mode": "flow", "passed": False},             # aborted or over-drift
    ]
    assert metrics.count_outcomes(ops) == (6, 3)


def test_flow_drift_takes_worst_of_charpoly_and_trace_columns():
    # columns: t, x1, p1, trL2, charpoly_drift
    rows = [[0.0, 0.1, 0.0, 10.0, 0.0],
            [0.5, 0.2, 0.0, 10.0 + 1.1e-5, 1e-9],
            [1.0, 0.3, 0.0, 10.0, 2e-9]]
    assert run.flow_drift(rows, [3]) == pytest.approx(1e-6)
    rows[2][-1] = 3e-6
    assert run.flow_drift(rows, [3]) == pytest.approx(3e-6)


def test_check_times_are_gaps_between_check_ends():
    checks = [{"name": "a"}, {"name": "b"}, {"name": "c"}]
    res = {"t_ready": 10.0,
           "check_marks": [["a-part", 10.5], ["a", 11.0], ["b", 11.25], ["c", 13.0]]}
    assert run.check_times(checks, res) == {"a": 1.0, "b": 0.25, "c": 1.75}


def test_normalize_scales_by_probe_speed():
    ops = [{"op_s": 2.0, "probe_s": 2 * run.PROBE_REF_S, "setup_s": 0.3,
            "setup_probe_s": 3 * run.PROBE_REF_S},
           {"op_s": 0.001, "probe_s": None, "setup_s": 0.2,
            "setup_probe_s": None}]
    run.normalize([ops])
    assert ops[0]["ref_s"] == pytest.approx(1.0)
    assert ops[0]["setup_ref_s"] == pytest.approx(0.1)
    # no sample of its own: the run's median probe (2.5 x reference) applies
    assert ops[1]["ref_s"] == pytest.approx(0.001 / 2.5)
    assert ops[1]["setup_ref_s"] == pytest.approx(0.2 / 2.5)


def test_repeated_calls_count_once_for_outcomes_and_wall():
    def op(system, secs, passed=True):
        return {"mode": "flow", "system": system, "passed": passed,
                "op_s": secs, "probe_s": run.PROBE_REF_S,
                "setup_s": 0.1, "setup_probe_s": run.PROBE_REF_S}
    passes = [[op("a", 0.1), op("b", 2.0, False)],
              [op("a", 0.1), op("a", 0.3), op("a", 0.2), op("b", 2.2, False)]]
    assert metrics.count_outcomes(run.first_calls(passes)) == (4, 2)
    values, op_s = run.end_to_end(passes)
    assert op_s == {"a": pytest.approx(0.15), "b": pytest.approx(2.1)}
    assert values["pass_ratio"] == pytest.approx(0.5)
    # pass walls 2.1 and 0.2 + 2.2 (median of a's three calls)
    assert values["wall_s"] == pytest.approx((2.1 + 2.4) / 2)


def test_probe_speed_is_the_time_averaged_sample():
    # a call that spent a third of its time on a host twice as slow is
    # stretched by 4/3, and so is the mean of its evenly spaced probes;
    # the median would see only the fast state
    res = {"t_ready": 10.0, "t_end": 12.0, "speed_samples": [2e-5, 2e-5, 4e-5],
           "setup_samples": [4e-5, 5e-5, 9e-5]}
    run.add_timings(res, t_spawn=9.5)
    assert res["probe_s"] == pytest.approx(8e-5 / 3)
    assert res["setup_probe_s"] == pytest.approx(6e-5)
    # the probe's own time is taken out of the call and the set-up
    assert res["op_s"] == pytest.approx(2.0 - 8e-5)
    assert res["setup_s"] == pytest.approx(0.5 - 1.8e-4)


def test_check_medians_are_at_reference_speed():
    ops = [{"system": "a", "ref_scale": 0.5, "check_s": {"x": 2.0, "y": 1.0}},
           {"system": "a", "ref_scale": 1.0, "check_s": {"x": 3.0, "y": 1.0}},
           {"system": "a", "ref_scale": 1.0, "check_s": {"x": 4.0}}]
    assert run.check_medians(ops) == {("a", "x"): pytest.approx(3.0),
                                      ("a", "y"): pytest.approx(0.75)}


def flow_result(rows, rc=0):
    header = "t,x1,x2,p1,p2,trL2,charpoly_drift"
    lines = [header] + [",".join(repr(v) for v in row) for row in rows]
    return {"rc": rc, "stdout": "\n".join(lines) + "\n", "setup_s": 0.1,
            "setup_probe_s": None, "op_s": 1.0, "probe_s": None}


def flow_rows(stop_t, drift_after=0.0):
    rows = []
    for i in range(int(round(stop_t * 10)) + 1):
        t = i / 10
        drift = drift_after if t >= run.FLOW_POLE_T["vandiejen"] else 0.0
        rows.append([t, 0.1 + t, 0.2, 0.3 - t, 0.0, 5.0, drift])
    return rows


def test_flow_control_needs_a_complete_flow():
    # drift past the ledgered pole fails the operation, not the control
    op = run.read_flow("vandiejen", flow_result(flow_rows(1.0, drift_after=5e-4)))
    assert op["control"] is True and op["passed"] is False
    # a flow that aborts, however late, fails the control
    op = run.read_flow("vandiejen", flow_result(flow_rows(0.7), rc=1))
    assert op["control"] is False and op["passed"] is False
    op = run.read_flow("koornwinder", flow_result(flow_rows(0.9)))
    assert op["control"] is False


def test_flow_control_needs_motion_and_early_drift_bound():
    op = run.read_flow("koornwinder", flow_result(flow_rows(1.0)))
    assert op["control"] is True and op["passed"] is True
    still = [[row[0], 0.1, 0.2, 0.3, 0.0, 5.0, 0.0] for row in flow_rows(1.0)]
    assert run.read_flow("koornwinder", flow_result(still))["control"] is False
    early = flow_rows(1.0)
    early[3][-1] = 1e-5
    assert run.read_flow("vandiejen", flow_result(early))["control"] is False
