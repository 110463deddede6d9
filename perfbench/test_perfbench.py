"""Self-tests for the benchmark: determinism, failure accounting, smoke runs.

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_op_list(name, tmp_path):
    scratch = str(tmp_path)
    first = [op.key for r in range(2) for op in workloads.Workload(name, 7, scratch).round(r)]
    again = [op.key for r in range(2) for op in workloads.Workload(name, 7, scratch).round(r)]
    other = [op.key for r in range(2) for op in workloads.Workload(name, 8, scratch).round(r)]
    assert first == again
    assert first != other


def _search_ops(tmp_path):
    return workloads.Workload("search", 1, str(tmp_path)).round(0)


def test_wrong_answer_is_a_failed_op(tmp_path):
    op = next(o for o in _search_ops(tmp_path) if o.key[:2] == ("walk", "p4"))
    tampered = dataclasses.replace(
        op, run=lambda: dataclasses.replace(op.run(), length=16))
    tally = run.Tally()
    run.run_ops([op, tampered], tally)
    assert (tally.attempted, tally.wrong, tally.crashed, tally.failed) == (2, 1, 0, 1)
    assert len(tally.latencies) == 1
    assert tally.failures[0][0] is tampered


def test_crash_is_a_failed_op(tmp_path):
    op = next(o for o in _search_ops(tmp_path) if o.key[:2] == ("walk", "p4"))

    def boom():
        raise KeyError("boom")

    tally = run.Tally()
    run.run_ops([dataclasses.replace(op, run=boom)], tally)
    assert (tally.attempted, tally.wrong, tally.crashed) == (1, 0, 1)
    assert tally.correct is False


def test_crash_of_a_known_defect_keeps_the_run_correct(tmp_path):
    op = next(o for o in _search_ops(tmp_path) if o.key[:2] == ("walk", "p4"))

    def boom():
        raise RecursionError("deep")

    tally = run.Tally()
    run.run_ops([dataclasses.replace(op, run=boom, tags={"known_defect": "deep recursion"})],
                tally)
    assert (tally.attempted, tally.crashed, tally.failed) == (1, 1, 1)
    assert tally.correct is True


def test_host_scale_is_clamped():
    ref = run.PROBE_REF_S
    assert run.host_scale(ref, ref) == pytest.approx(1.0)
    assert run.host_scale(ref / 2, ref / 2) == pytest.approx(2.0)
    assert run.host_scale(ref * 40, ref) == pytest.approx(1 / run.MAX_SCALE)
    assert run.host_scale(ref / 40, ref / 40) == pytest.approx(run.MAX_SCALE)


def test_failed_ops_sort_after_completed_ones():
    tally = run.Tally()
    tally.latencies = [0.001] * 8
    tally.crashed = 2
    tally.op_time = 1.0
    metrics = run.end_to_end(tally, 0.1)
    assert metrics["op_p50_ms"] == pytest.approx(1.0)
    assert metrics["op_p90_ms"] == float("inf")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_every_metric():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER)


def _bench(cwd, *argv):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_one_round(name):
    """One round per workload (--seconds 0): every output is checked and the
    only failures are the ops tagged as known defects."""
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 20
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench:"):
            assert "(known:" in line, proc.stderr


def test_smoke_traced_round():
    proc = _bench(ROOT, "--workload", "cli", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [n for n, _, _ in tracing.PER_LAYER]
    assert result["metrics"]["cli.main.calls"]["value"] > 0
    assert "prediction" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    proc = _bench(str(tmp_path), "--workload", "cli", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_name():
    before = {(id(owner), attr): getattr(owner, attr)
              for _, targets, _ in tracing._plan(workloads.API) for owner, attr in targets}
    tracer = tracing.Tracer()
    tracer.install(workloads.API)
    assert workloads.API.classify is not before[(id(workloads.API), "classify")]
    tracer.uninstall()
    after = {(id(owner), attr): getattr(owner, attr)
             for _, targets, _ in tracing._plan(workloads.API) for owner, attr in targets}
    assert after == before


def test_self_time_subtracts_children():
    spans = [["bench.op", 0.0, 10.0, -1, 0], ["walks.classify", 1.0, 9.0, 0, 0],
             ["graphs.find_p5", 2.0, 5.0, 1, 0], ["graphs.find_c4", 5.0, 6.0, 1, 0]]
    calls, busy, self_t = tracing.span_totals(spans)
    assert busy["walks.classify"] == 8.0
    assert self_t["walks.classify"] == 4.0
    assert self_t["bench.op"] == 2.0
    assert tracing.layer_self_times(self_t)["graphs"] == 4.0
