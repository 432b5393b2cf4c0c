"""Tests of the benchmark itself: budget, ranking, wrappers and checks.

Run with ``python3 -m pytest -q bench/tests`` from the repository root.
"""

import contextlib
import copy
import io
import json
import os
import time

import pytest

import checks
import inputs
import polys
import run
import timing
import tracing
from folgerm import cli

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
FIXTURES = os.path.join(ROOT, "fixtures")


def _report(tmp_path, cmd, text):
    path = tmp_path / "doc.fol"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([cmd, str(path), "--json"])
    return code, json.loads(out.getvalue())


# -- budget and ranking ------------------------------------------------------


def test_stalled_op_is_failed_and_ranked_slowest():
    def spin():
        while True:
            pass

    elapsed, result, error = timing.timed(spin, 0.2)
    assert error == "timeout" and result is None
    assert 0.2 <= elapsed < 1.0
    samples = [(0.05, False), (elapsed, True), (0.15, False)]
    assert timing.slowest(samples) == elapsed
    assert timing.nearest_rank(samples, 1.0) == elapsed


def test_budget_is_cleared_after_an_op():
    elapsed, result, error = timing.timed(lambda: 7, 0.05)
    assert (result, error) == (7, None)
    time.sleep(0.1)  # a timer left armed would raise OpTimeout here


def test_raising_op_is_failed_with_the_exception_name():
    _, _, error = timing.timed(lambda: 1 / 0, 1.0)
    assert error == "ZeroDivisionError"


def test_percentiles_use_nearest_rank():
    samples = [(float(i), False) for i in range(1, 101)]
    assert timing.nearest_rank(samples, 0.5) == 50.0
    assert timing.nearest_rank(samples, 0.9) == 90.0
    twenty = [(float(i), False) for i in range(1, 21)]
    assert timing.nearest_rank(twenty, 0.9) == 18.0
    assert timing.nearest_rank([(3.0, False)], 0.9) == 3.0


def test_failed_ops_rank_above_completed_ones():
    samples = [(float(i), False) for i in range(1, 10)] + [(0.001, True)]
    assert timing.nearest_rank(samples, 1.0) == 0.001
    assert timing.nearest_rank(samples, 0.9) == 9.0
    with_two = samples + [(0.002, True)]
    assert timing.nearest_rank(with_two, 0.9) == 0.001


def test_summary_counts_every_failed_attempt():
    spec = {"ops": [{"id": "a:x"}, {"id": "b:y", "fault": "polynomials.poly_gcd"}]}
    result = {
        "oracle_problems": {},
        "residuals": {},
        "passes": [
            {
                "traced": False,
                "ops": [
                    {"id": "a:x", "elapsed": 0.1, "reference": timing.REFERENCE_S / 2,
                     "error": None, "problems": []},
                    {"id": "b:y", "elapsed": 3.0, "reference": timing.REFERENCE_S / 2,
                     "error": "timeout"},
                ],
            }
        ]
        * 3,
    }
    per_op, attempts, walls, lines = run.summarize(spec, result)
    assert len(attempts) == 6 and sum(attempts) == 3
    assert per_op["b:y"]["failed"] and not per_op["a:x"]["failed"]
    # The machine ran the reference twice as fast as REFERENCE_S: completed
    # ops count double, while the stalled op keeps its budget.
    assert [w for w, _ in walls] == [pytest.approx(3.2)] * 3
    assert list(lines.values()) == [3]
    metrics = run.end_to_end({"peak_rss_mb": 40.0}, per_op, [0.1])
    assert metrics["slowest_op_s"]["value"] == pytest.approx(3.0)
    assert metrics["op_p50_s"]["value"] == pytest.approx(0.2)
    assert metrics["wall_s"]["value"] == pytest.approx(3.2)


# -- tracing -----------------------------------------------------------------


def _fixture_calls():
    local = ["invariants", "check-bs", "check-liu", "check-cota", "check-second-type", "reduce"]
    calls = []
    for name in sorted(os.listdir(FIXTURES)):
        path = os.path.join(FIXTURES, name)
        if name == "omega_lambda.fol":
            calls += [[cmd, path, "--json"] for cmd in ("projective-validate", "projective-global")]
        else:
            calls += [[cmd, path, "--json"] for cmd in local]
    return calls


def _outputs(calls):
    outputs = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def test_wrappers_leave_reports_byte_identical():
    calls = _fixture_calls()
    plain = _outputs(calls)
    recorder = tracing.Recorder()
    undo = tracing.install(recorder)
    try:
        traced = _outputs(calls)
    finally:
        tracing.uninstall(undo)
    assert traced == plain
    names = {span[0] for span in recorder.spans}
    assert {"cli.main", "localalg.standard_basis", "polynomials.poly_gcd"} <= names
    assert {"projective.milnor_sum_certificate", "blowup.rational_roots"} <= names


def test_uninstall_restores_every_binding():
    from folgerm import germs, localalg, theorems

    before = (germs.standard_basis, theorems.standard_basis, localalg.standard_basis,
              germs.FoliationGerm.__init__, localalg.QuotientOperator.compose)
    undo = tracing.install(tracing.Recorder())
    assert germs.standard_basis is theorems.standard_basis is localalg.standard_basis
    assert germs.standard_basis is not before[0]
    tracing.uninstall(undo)
    after = (germs.standard_basis, theorems.standard_basis, localalg.standard_basis,
             germs.FoliationGerm.__init__, localalg.QuotientOperator.compose)
    assert after == before


def test_layer_metrics_split_self_time_by_module():
    spans = [
        ("cli.main", 0.0, 10.0, -1, "op", None, None),
        ("germs.milnor_foliation", 1.0, 7.0, 0, "op", None, None),
        ("localalg.standard_basis", 2.0, 6.0, 1, "op", ("k",), None),
        ("polynomials.poly_gcd", 3.0, 5.0, 2, "op", ("a",), None),
        ("polynomials.poly_gcd", 3.5, 4.5, 3, "op", ("b",), None),
        ("blowup.rational_roots", 8.0, 9.0, 0, "op", None, True),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.self_s"] == pytest.approx(10 - 6 - 1)
    assert metrics["germs.self_s"] == pytest.approx(6 - 4)
    assert metrics["localalg.self_s"] == pytest.approx(4 - 2)
    assert metrics["polynomials.self_s"] == pytest.approx(2)
    assert metrics["polynomials.poly_gcd.calls"] == 2
    assert metrics["polynomials.poly_gcd.s"] == pytest.approx(2.0)
    assert metrics["polynomials.poly_gcd.repeat_ratio"] == 1.0
    assert metrics["blowup.rational_roots.certified_ratio"] == 1.0


# -- checks reject tampered reports --------------------------------------------


def _ops(workload, names):
    built = inputs.build(workload, 5)
    return [(op, built["documents"][op["doc"]]) for op in built["ops"] if op["doc"] in names]


def _tamper_mu(report):
    report["data"]["mu"] += 1


def _tamper_verdict(report):
    report["verdict"] = "pass" if report["verdict"] != "pass" else "fail"


def _tamper_point(report):
    key = "singular_points" if "singular_points" in report["data"] else "points"
    report["data"][key] = report["data"][key][1:]


@pytest.mark.parametrize(
    "workload, names",
    [
        ("operator-ladder", {"fk3", "ham5"}),
        ("germ-corpus", {"h00", "h01", "pq00", "pq01"}),
        ("projective-ladder", {"omega3", "lines3", "lines4"}),
    ],
)
def test_checks_accept_reports_and_reject_tampered_ones(tmp_path, workload, names):
    seen = {}
    for op, text in _ops(workload, names):
        code, report = _report(tmp_path, op["cmd"], text)
        before = dict(seen)
        assert checks.check(op, code, report, seen) == [], op["id"]
        tampered_any = False
        for tamper in (_tamper_mu, _tamper_verdict, _tamper_point):
            bad = copy.deepcopy(report)
            try:
                tamper(bad)
            except (KeyError, TypeError):
                continue
            if bad == report:
                continue
            bad_code = 1 if bad["verdict"] == "fail" else 0
            assert checks.check(op, bad_code, bad, dict(before)), (op["id"], tamper.__name__)
            tampered_any = True
        assert tampered_any, op["id"]


def test_check_flags_a_missed_line_intersection(tmp_path):
    (op, text), = _ops("projective-ladder", {"linesfault"})[:1]
    code, report = _report(tmp_path, op["cmd"], text)
    problems = checks.check(op, code, report)
    assert any("line intersections not reported" in p for p in problems)


def test_rational_root_test_of_residuals():
    assert inputs.has_rational_root("111964521321*y - 7917120512")
    assert inputs.has_rational_root("6*y^3 - 5*y^2 - 2*y + 1")
    assert not inputs.has_rational_root("y^2 - 2")
    assert not inputs.has_rational_root("5*y^3 + 5*y + 22")


def test_inputs_depend_only_on_the_seed():
    for workload in inputs.WORKLOADS:
        assert inputs.build(workload, 3) == inputs.build(workload, 3)
    assert inputs.build("germ-corpus", 3) != inputs.build("germ-corpus", 4)


def test_line_meets_match_folgerm_point_format():
    assert polys.line_meet((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    assert polys.parse_point("[-7 : 0 : 1]") == (-7, 0, 1)


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    per_op = {"a:x": {"times": [0.1], "failed": False}}
    printed = run.end_to_end({"peak_rss_mb": 40.0}, per_op, [0.1])
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: metric["unit"] for name, metric in printed.items()
    }
    layer = set(tracing.layer_metrics([])) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in declared["per_layer"]} <= layer
    assert {m["name"] for m in declared["workloads"]} == set(inputs.WORKLOADS)
