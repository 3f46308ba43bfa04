"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest -q bench/selftest.py

The traced-versus-untraced test calls every job of every workload twice and
takes about a minute and a half on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from numflow.netmodel import instance_to_json  # noqa: E402


def _dump(inst) -> str:
    return json.dumps(instance_to_json(inst))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_instances(workload):
    a = W.instances(workload, 7)
    b = W.instances(workload, 7)
    c = W.instances(workload, 8)
    for (la, base_a, rel_a), (lb, base_b, rel_b) in zip(a, b):
        assert la == lb
        assert _dump(base_a) == _dump(base_b)
        assert _dump(rel_a) == _dump(rel_b)
    assert any(_dump(ra) != _dump(rc) for (_, _, ra), (_, _, rc) in zip(a, c))


def test_pwl_generator_is_deterministic():
    assert _dump(W.gen_pwl_instance(40, 3)) == _dump(W.gen_pwl_instance(40, 3))
    assert _dump(W.gen_pwl_instance(40, 3)) != _dump(W.gen_pwl_instance(40, 4))


def _fingerprint(call):
    try:
        res = call()
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return (res.n_iter, res.converged, res.x.tobytes())


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_run_returns_identical_iterates(workload):
    jobs = W.jobs(workload, W.instances(workload, 1))
    plain = [_fingerprint(job.call) for job in jobs]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = []
        for k, job in enumerate(jobs):
            with tracer.job(k, job.name):
                traced.append(_fingerprint(job.call))
    assert traced == plain
    assert tracer.spans and all("end" in s for s in tracer.spans)


def test_tracer_restores_library():
    import numflow.solvers as solvers

    before = solvers.admm_u_update
    with tracing.Tracer().installed():
        assert solvers.admm_u_update is not before
    assert solvers.admm_u_update is before


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace,expected", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_emitted_metrics_match_declared(trace, expected):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pwl", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # failures are counted per job, and no pwl job fails
    assert (result["attempted"], result["failed"]) == (3, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in expected.items()
    }


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pwl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
