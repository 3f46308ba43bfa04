"""Tests for the reference oracle, experiment runner, report emission, and CLI."""

import json
from dataclasses import replace

import numpy as np
import pytest

from numflow.cli import main as cli_main
from numflow.harness import (
    ExperimentConfig,
    Report,
    ReportRow,
    emit_report,
    oracle_solve,
    report_to_csv,
    run_experiment,
)
from numflow.netmodel import (
    FlowClass,
    Instance,
    Link,
    Network,
    gen_instance,
    iridium_topology,
    routing_matrix,
    save_instance,
    small_topology,
)
from numflow.pwl import PwlConcave
from numflow.rng import mix
from numflow.solvers import SolverParams, solve_admm
from numflow.utility import PwlUtility, WeightedLog, evaluate, kkt_check_single_path

QUICK_CFG = ExperimentConfig(
    topology="small",
    n_values=(5,),
    seed=3,
    solvers=("admm", "gradproj"),
    repetitions=1,
)


def _single_link_instance(class_flows, cap=10.0):
    net = Network(node_count=2, links=(Link(1, 2, cap),))
    classes = tuple(FlowClass(1, 2, ((1,),), tuple(flows)) for flows in class_flows)
    return Instance(net, classes, routing_matrix(net, classes))


class TestOracle:
    def test_single_link_analytic(self):
        inst = _single_link_instance([[WeightedLog(1.0)]])
        sol = oracle_solve(inst)
        assert sol.x[0] == pytest.approx(10.0, abs=1e-7)
        assert sol.rho[0] == pytest.approx(0.1, abs=1e-7)

    def test_water_filling(self):
        inst = _single_link_instance(
            [[WeightedLog(1.0)], [WeightedLog(1.5), WeightedLog(1.5)]]
        )
        sol = oracle_solve(inst)
        assert sol.x == pytest.approx([2.5, 7.5], abs=1e-7)
        assert sol.rho[0] == pytest.approx(0.4, abs=1e-7)

    def test_self_consistent_kkt(self):
        inst = gen_instance(small_topology(), 8, seed=13)
        sol = oracle_solve(inst)
        assert kkt_check_single_path(inst, sol.x, sol.u, sol.rho, tol=1e-7).passed

    @pytest.mark.parametrize("n, s", [(50, 2), (50, 3), (75, 1)])
    def test_certifies_iridium_with_dependent_active_links(self, n, s):
        # the saturated links' Newton Jacobian is singular on these instances
        inst = gen_instance(iridium_topology(), n, seed=mix(s, n),
                            endpoint_rule="gateway-constrained")
        sol = oracle_solve(inst)
        assert kkt_check_single_path(inst, sol.x, sol.u, sol.rho, tol=1e-7).passed

    def test_agrees_with_admm(self):
        net = small_topology()
        params = SolverParams(pct=1e-10)
        for seed in range(1, 21):
            inst = gen_instance(net, 6, seed=seed)
            ref = oracle_solve(inst)
            sol = solve_admm(inst, params)
            gap = np.max(
                np.abs(np.concatenate(sol.u) - np.concatenate(ref.u))
                / np.concatenate(ref.u)
            )
            assert gap <= 1e-4


class TestRunExperiment:
    def test_row_shape_and_recomputation(self):
        rep = run_experiment(QUICK_CFG)
        assert len(rep.rows) == 2
        assert [r.solver for r in rep.rows] == ["admm", "gradproj"]
        for row in rep.rows:
            assert row.converged
            assert row.n == 5
            assert np.isfinite(row.f_star)
            assert row.l_max == pytest.approx(10.0, abs=1e-2)

    def test_f_star_recomputed_from_rates(self):
        rep = run_experiment(QUICK_CFG)
        inst = gen_instance(small_topology(), 5, seed=_per_n_seed(QUICK_CFG.seed, 5))
        sol = solve_admm(inst, SolverParams())
        expected = float(
            sum(
                evaluate(f, r)
                for cls, ui in zip(inst.classes, sol.u)
                for f, r in zip(cls.flows, ui)
            )
        )
        admm_row = next(r for r in rep.rows if r.solver == "admm")
        assert admm_row.f_star == pytest.approx(expected, rel=1e-12)

    def test_determinism_excluding_wall_time(self):
        a = run_experiment(QUICK_CFG)
        b = run_experiment(QUICK_CFG)
        strip = lambda r: (r.solver, r.n, r.f_star, r.l_max, r.n_iter, r.converged)
        assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]

    def test_config_from_json(self):
        cfg = ExperimentConfig.from_json(
            {
                "topology": "small",
                "n_values": [5, 10],
                "seed": 4,
                "solvers": ["admm"],
                "params": {"admm": {"r": 40.0}},
                "repetitions": 2,
            }
        )
        assert cfg.n_values == (5, 10)
        assert cfg.solver_params("admm").r == 40.0
        assert cfg.solver_params("cp") == SolverParams()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ValueError):
            ExperimentConfig(solvers=("nope",))


def _per_n_seed(base, n):
    from numflow.rng import mix

    return mix(base, n)


class TestReports:
    ROWS = (
        ReportRow("admm", 10, -12.345678, 10.0001, 200, 0.0123456, 0.013, True),
        ReportRow("cp", 10, -12.345679, 9.9999, 400, 0.02, 0.021, False),
    )

    def test_csv_header_and_format(self):
        csv_text = report_to_csv(Report(rows=self.ROWS))
        lines = csv_text.strip().split("\n")
        assert lines[0] == "solver,N,f_star,l_max,n_iter,t_sec,converged"
        assert lines[1] == "admm,10,-12.3457,10.0001,200,0.0123456,true"
        assert lines[2].endswith("false")

    def test_empty_report_header_only(self):
        assert report_to_csv(Report(rows=())).strip() == "solver,N,f_star,l_max,n_iter,t_sec,converged"

    def test_emission_byte_identical(self, tmp_path):
        rep = Report(rows=self.ROWS, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(rep, "csv", str(p1))
        emit_report(rep, "csv", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_round_trip(self, tmp_path):
        rep = Report(rows=self.ROWS, seed=9)
        path = tmp_path / "rep.json"
        emit_report(rep, "json", str(path))
        again = Report.from_json(json.loads(path.read_text()))
        assert again == rep


class TestCli:
    def _gen(self, tmp_path, n=5, seed=3):
        out = tmp_path / "inst.json"
        rc = cli_main(
            ["gen", "--topology", "small", "--n", str(n), "--seed", str(seed), "--out", str(out)]
        )
        assert rc == 0
        return out

    def test_gen_solve_verify_oracle(self, tmp_path):
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "oracle", "--out", str(sol)]) == 0
        assert cli_main(["verify", str(inst), str(sol), "--tol", "1e-5"]) == 0

    def test_solve_admm_and_verify_loose(self, tmp_path):
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "admm", "--out", str(sol)]) == 0
        assert cli_main(["verify", str(inst), str(sol), "--tol", "0.1"]) == 0

    def test_verify_failure_exit_code(self, tmp_path):
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        cli_main(["solve", str(inst), "--solver", "admm", "--out", str(sol)])
        assert cli_main(["verify", str(inst), str(sol), "--tol", "1e-9"]) == 3

    def test_verify_without_link_duals(self, tmp_path):
        # ADMM's class-consistency duals must not stand in for link duals
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "admm", "--out", str(sol)]) == 0
        doc = json.loads(sol.read_text())
        assert doc["lambda"] is not None
        doc["rho"] = None
        sol.write_text(json.dumps(doc))
        assert cli_main(["verify", str(inst), str(sol), "--tol", "0.1"]) == 3

    def test_verify_prints_every_component(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "oracle", "--out", str(sol)]) == 0
        capsys.readouterr()
        assert cli_main(["verify", str(inst), str(sol), "--tol", "1e-5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for name in ("primal_feasibility", "flow_nonnegativity", "dual_nonnegativity",
                     "complementary_slackness", "flow_slackness", "stationarity",
                     "conservation", "max_residual"):
            assert doc[name] <= 1e-5
        assert doc["passed"] is True

    def test_solve_pwl_and_verify(self, tmp_path):
        base = gen_instance(small_topology(), 6, seed=2)
        classes = tuple(
            replace(cls, flows=(
                PwlUtility(PwlConcave((0.0, 2.0 + i, 5.0 + i), (4.0 - 0.5 * i, 1.0, 0.0))),
                PwlUtility(PwlConcave((0.0, 3.0), (2.5, 0.0))),
            ))
            for i, cls in enumerate(base.classes)
        )
        inst = tmp_path / "inst.json"
        save_instance(Instance(base.network, classes, base.routing), str(inst))
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "pwl", "--out", str(sol)]) == 0
        assert max(json.loads(sol.read_text())["rho"]) > 0  # some link binds
        assert cli_main(["verify", str(inst), str(sol), "--tol", "1e-9"]) == 0

    def test_unknown_solver_usage_error(self, tmp_path):
        inst = self._gen(tmp_path)
        assert cli_main(["solve", str(inst), "--solver", "magic"]) == 1

    def test_missing_file_usage_error(self, tmp_path):
        assert cli_main(["solve", str(tmp_path / "absent.json"), "--solver", "admm"]) == 1

    def test_bench_emits_report(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "topology": "small",
                    "n_values": [5],
                    "seed": 3,
                    "solvers": ["admm"],
                    "repetitions": 1,
                }
            )
        )
        out = tmp_path / "rep.csv"
        assert cli_main(["bench", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "solver,N,f_star,l_max,n_iter,t_sec,converged"
        assert len(lines) == 2

    def test_pwl_subcommand(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"breakpoints": [0.0, 2.0], "slopes": [3.0, 0.0]}))
        assert cli_main(["pwl", "conjugate", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["breakpoints"] == [0.0, 3.0]
        assert doc["slopes"] == [2.0, 0.0]
        assert doc["offset"] == -6.0
        assert cli_main(["pwl", "eval", str(f), "--x", "1.0"]) == 0
        assert capsys.readouterr().out.strip() == "3"
