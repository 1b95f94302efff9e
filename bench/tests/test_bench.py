"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout: python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import protometrics  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(name, workdir):
    if name == "classify-n300":
        return workloads.classify_n300(7, n=16)
    if name == "pipeline-n200":
        return workloads.pipeline_n200(7, n=10, n_perturb=8)
    return workloads.cli_small(7, workdir, workloads.load_oracles(), n_max=16)


def contexts(name, workdir):
    """The untraced context and a factory for the traced one."""
    if name == "cli-small":
        env = run.child_env()
        return (workloads.CliRunner(workdir, env),
                lambda tracer: workloads.CliRunner(workdir, env, tracer))
    return protometrics, lambda tracer: tracer.api(protometrics)


def outputs(session, ctx):
    return [session.step(ctx)[1] for _ in session.ops]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_op_passes_its_check_at_tiny_size(name, tmp_path):
    session = run.Session(tiny(name, tmp_path))
    outputs(session, contexts(name, tmp_path)[0])
    assert session.failures == []
    assert session.attempted == len(session.ops)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    plain, make_traced = contexts(name, tmp_path)
    session = run.Session(tiny(name, tmp_path))
    untraced = outputs(session, plain)
    tracer = tracing.Tracer()
    ctx = make_traced(tracer)
    tracer.install()
    try:
        traced = outputs(session, ctx)
    finally:
        tracer.restore()
    assert session.failures == []
    assert [run.digest(o) for o in untraced] == [run.digest(o) for o in traced]
    assert tracer.spans
    assert sys.modules["protometrics.classify"].check_triangle is protometrics.check_triangle
    assert sys.modules["protometrics.io"].LabeledMatrix is protometrics.LabeledMatrix


def test_tracer_attributes_nested_time_to_the_callee():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        lib = tracer.api(protometrics)
        lib.decompose(lib.gen_protometric(protometrics.GenSpec(12, 3)))
    finally:
        tracer.restore()
    layers = {(s.layer, s.name, s.parent) for s in tracer.spans}
    assert ("checks", "check_prequadrangle", "transforms") in layers
    assert ("transforms", "decompose", None) in layers
    assert all(s.self_time <= s.dur for s in tracer.spans)
    top = [s for s in tracer.spans if s.parent is None]
    assert sum(s.self_time for s in tracer.spans) == pytest.approx(sum(s.dur for s in top))
    assert tracing.counts(tracer.spans)["splitmix64_draws"] == 6 * 5 + 6 + 12


def test_measure_times_whole_cycles_and_enough_ops():
    ops = [workloads.Op(f"op{k}", lambda ctx: None, lambda out: None) for k in range(7)]
    session = run.Session(ops)
    session.step(None)  # a warm-up op, so that timing starts mid-cycle
    by_position = run.measure(session, None, 0.0)
    counts = {len(ds) for ds in by_position.values()}
    assert len(by_position) == 7 and len(counts) == 1
    assert counts.pop() * 7 >= run.MIN_OP_SAMPLES


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


def test_checks_flag_corrupted_in_process_outputs(tmp_path):
    ops = tiny("classify-n300", tmp_path)
    report = op_named(ops, "classify:random").call(protometrics)
    assert op_named(ops, "classify:random").check(report) is None
    flipped = dataclasses.replace(report, triangle_o=not report.triangle_o)
    assert op_named(ops, "classify:random").check(flipped)

    scan = op_named(ops, "prequad:t:perturbed")
    verdict = scan.call(protometrics)
    assert verdict.count_violations == 1 and scan.check(verdict) is None
    assert scan.check(dataclasses.replace(verdict, count_violations=2))
    assert scan.check(dataclasses.replace(verdict, witnesses=()))

    ops = tiny("pipeline-n200", tmp_path)
    session = run.Session(ops)
    outputs(session, protometrics)
    roundtrip = op_named(ops, "compose:decomposition")
    good = roundtrip.call(protometrics)
    bad = good.entries.copy()
    bad[1, 2] = np.nextafter(bad[1, 2], np.inf)  # one ulp off is not bit for bit
    assert roundtrip.check(good) is None
    assert roundtrip.check(protometrics.LabeledMatrix(good.labels, bad))
    assert op_named(ops, "reject:decompose").check(good)


def test_checks_flag_corrupted_cli_outputs(tmp_path):
    ops = tiny("cli-small", tmp_path)
    runner = contexts("cli-small", tmp_path)[0]
    check = op_named(ops, "check:prequad:t:perturbed40.csv")
    res = check.call(runner)
    assert res.code == 1 and check.check(res) is None
    fudged = res.out.replace("violations=1/", "violations=0/")
    assert check.check(dataclasses.replace(res, out=fudged))
    assert check.check(dataclasses.replace(res, code=0))
    unmet = op_named(ops, "unmet:decompose")
    assert unmet.check(dataclasses.replace(unmet.call(runner), code=2))


def test_result_line_and_failure_outside_a_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline-n200", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    alone = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert alone.returncode != 0
    assert alone.stdout == ""
