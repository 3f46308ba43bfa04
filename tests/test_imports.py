"""Which modules a fresh interpreter loads: numpy only, until a cold
projection (NNLS) or the piecewise-linear LP (HiGHS) needs scipy.optimize."""

import json
import os
import subprocess
import sys

import numflow

_PRELUDE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

_NUMPY_ONLY = _PRELUDE + """
import numflow, numflow.cli
from numflow import SolverParams, gen_instance, kkt_check, oracle_solve, small_topology
from numflow import solve_admm, solve_cp
from numflow.netmodel import instance_to_json

inst = gen_instance(small_topology(), 5, seed=1)
doc = instance_to_json(inst)
reports = {}
solves = {"admm": lambda: solve_admm(inst, SolverParams()),
          "cp": lambda: solve_cp(inst, SolverParams()), "oracle": lambda: oracle_solve(inst)}
for name, solve in solves.items():
    sol = solve()
    reports[name] = [sol.converged, kkt_check(inst, sol.x, sol.u, sol.rho).max_residual]
print(json.dumps({"classes": len(doc["classes"]), "reports": reports, "scipy": scipy_modules()}))
"""

_DEFERRED = _PRELUDE + """
from dataclasses import replace
from numflow import PwlConcave, PwlUtility, SolverParams, gen_instance, small_topology
from numflow import solve_gradproj, solve_pwl_aggregate

inst = gen_instance(small_topology(), 10, seed=1)
before = scipy_modules()
gradproj = solve_gradproj(inst, SolverParams())
after_gradproj = "scipy.optimize" in sys.modules
f = PwlUtility(PwlConcave((0.0, 2.0), (3.0, 0.0)))
pwl_inst = replace(inst, classes=tuple(replace(c, flows=(f, f)) for c in inst.classes))
pwl = solve_pwl_aggregate(pwl_inst, SolverParams())
print(json.dumps({"before": before, "after_gradproj": after_gradproj,
                  "converged": [gradproj.converged, pwl.converged],
                  "pwl_objective": pwl.objective}))
"""


def _run(code: str) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(numflow.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_import_and_first_order_solves_load_no_scipy():
    doc = _run(_NUMPY_ONLY)
    assert doc["classes"] == 5
    reports = doc["reports"]
    assert all(converged for converged, _ in reports.values())
    # ADMM stops on its relative-change test, the others on a KKT residual
    assert reports["admm"][1] < 0.1 and reports["cp"][1] < 1e-4 and reports["oracle"][1] < 1e-6
    assert doc["scipy"] == []


def test_cold_projection_and_pwl_lp_import_scipy_where_they_run():
    doc = _run(_DEFERRED)
    assert doc["before"] == []
    assert doc["after_gradproj"] is True
    assert doc["converged"] == [True, True]
    assert doc["pwl_objective"] > 0.0
