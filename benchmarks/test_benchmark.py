"""Tests of the benchmark itself: oracle power, span accounting, seeding.

    python3 -m pytest -q benchmarks
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

import oracle
import run
import tracing
import workloads

CLI = run.load_cli()


def _golden_request():
    axes = (workloads.Axis(1.0, 1.0, 1), workloads.Axis(-2.0, 2.0, 5),
            workloads.Axis(-2.0, 2.0, 5))
    return workloads.Request(0, "scan_float", (("scan", run.GOLDEN_ARGV),), 25, axes=axes)


def _edit_row(text, row, column, value):
    lines = text.split("\n")
    f = lines[row].split(",")
    f[column] = value
    lines[row] = ",".join(f)
    return "\n".join(lines)


def test_oracle_accepts_golden_scan():
    v = oracle.check(_golden_request(), [(0, run.GOLDEN.read_text())])
    assert (v.attempted, v.failed) == (25, 0)


@pytest.mark.parametrize("column, value", [
    (-4, "35184372088831.58e3"),  # perturbed det on row 2 (1,-2,-1)
    (-3, "6"), (-2, "9"),  # swapped inertia (9,6,0) -> (6,6,0) / (9,9,0)
    (-5, "7"),  # wrong indicator
])
def test_oracle_rejects_wrong_scan_row(column, value):
    bad = _edit_row(run.GOLDEN.read_text(), 2, column, value)
    v = oracle.check(_golden_request(), [(0, bad)])
    assert v.failed == 1 and v.known == 0


def test_oracle_rejects_swapped_inertia_and_det_exact():
    point = (Fraction(1, 2), Fraction(1), Fraction(1))
    det = 2 ** 45 * Fraction(3, 4) ** 5
    assert oracle.check_point(point, "SO(1,5)", "3/4", det, (5, 10, 0), True)[0] is None
    assert oracle.check_point(point, "SO(1,5)", "3/4", det, (10, 5, 0), True)[0]
    assert oracle.check_point(point, "SO(1,5)", "3/4", det + 1, (5, 10, 0), True)[0]
    assert oracle.check_point(point, "SO(3,3)", "3/4", det, (9, 6, 0), True)[0]


def test_small_magnitude_misclassification_is_a_known_failure():
    k, l2, m2 = point = tuple(Fraction(v, 10 ** 6) for v in (1, 2, 1))
    dq = l2 * m2 - k * k
    msg, known = oracle.check_point(point, "Degenerate(det Q = 0)", float(dq),
                                    float(2 ** 45 * dq ** 5), (5, 9, 1), False)
    assert msg and known


def test_oracle_rejects_wrong_report_outputs():
    req = workloads.first_request("point_report", 3)
    results = [run.invoke(CLI, argv) for _, argv in req.commands]
    assert oracle.check(req, results).failed == 0
    names = [name for name, _ in req.commands]
    i = names.index("dgl")
    d = json.loads(results[i][1])
    d["eigenvalues"][0] += 1e-3
    bad = list(results)
    bad[i] = (0, json.dumps(d))
    assert oracle.check(req, bad).failed == 1
    i = names.index("killing_exact")
    d = json.loads(results[i][1])
    d["sig_pos"], d["sig_neg"] = d["sig_neg"], d["sig_pos"]
    bad = list(results)
    bad[i] = (0, json.dumps(d))
    assert oracle.check(req, bad).failed == 1
    bad = list(results)
    bad[0] = (1, "")
    assert oracle.check(req, bad).failed == 1


def test_span_self_times_sum_to_root():
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        req = next(r for r in next(workloads.blocks("point_report", 5))
                   if r.stratum.endswith("float"))
        tracer.request = req.index
        root = tracer.open("bench.request")
        traced = [run.invoke(CLI, argv) for _, argv in req.commands]
        tracer.close(root)
    finally:
        restore()
    spans = tracer.spans
    own = tracing.self_times(spans)
    assert sum(own) == spans[root][tracing.END] - spans[root][tracing.START]
    assert all(s >= 0 for s in own)
    names = Counter(s[tracing.NAME] for s in spans)
    # cli binds killing_form and pseudo_orthogonal_embedding by name
    assert names["classify.killing_form"] >= 2
    assert names["classify.transform_structure_constants"] >= 1
    assert names["cli.main"] == len(req.commands)
    # wrapping leaves every command's output unchanged, and is undone
    assert [run.invoke(CLI, argv) for _, argv in req.commands] == traced
    assert not hasattr(CLI.killing_form, "__wrapped__")


def test_same_seed_same_requests():
    for w in workloads.WORKLOADS:
        a, b, c = (workloads.blocks(w, s) for s in (7, 7, 8))
        first = [next(a), next(a)]
        assert first == [next(b), next(b)]
        assert first != [next(c), next(c)]


@pytest.mark.parametrize("workload, shapes, strata", [
    ("scan_float", workloads.FLOAT_SHAPES, workloads.FLOAT_EXPONENTS),
    ("scan_exact", workloads.EXACT_SHAPES, workloads.EXACT_DENOMINATORS),
])
def test_scan_blocks_are_latin(workload, shapes, strata):
    block = next(workloads.blocks(workload, 11))
    assert block[0].points == min(r.points for r in block)
    pairs = Counter((tuple(sorted(a.steps for a in r.axes)), r.stratum.split(",")[0])
                    for r in block)
    assert len(pairs) == len(shapes) * len(strata)
    assert set(pairs.values()) == {1}


def test_point_report_block_strata():
    block = next(workloads.blocks("point_report", 11))
    kinds = set()
    for r in block:
        tag = oracle.class_of(*r.point)
        kinds.add((tag, None if tag == "Degenerate" else oracle.exact_embedding_possible(*r.point)))
    assert kinds == set(workloads.REPORT_KINDS)


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (40, 75, 100, 125, 200, 999, 1000):
        p = run.tail_percentile(n)
        assert n * (100 - p) >= 999.999
    assert [run.tail_percentile(n) for n in (39, 40, 100, 999, 1000)] == [50, 75, 90, 90, 99]
