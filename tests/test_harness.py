"""Tests for the reference oracle, experiment runner, report emission, and CLI."""

import functools
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from numflow import harness
from numflow.cli import main as cli_main
from numflow.errors import DomainError, MaxIterExceeded, NonConvergence
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
    instance_to_json,
    iridium_topology,
    routing_matrix,
    save_instance,
    small_topology,
)
from numflow.multipath import gen_multipath_instance, solve_multipath
from numflow.pwl import PwlConcave
from numflow.rng import mix
from numflow.solvers import SolverParams, solve_admm, solve_cp, solve_gradproj
from numflow.utility import (
    FairClasses,
    NegPower,
    PwlUtility,
    WeightedLog,
    evaluate,
    kkt_check_single_path,
)

from helpers import _single_link_instance

# iridium gateway-constrained (N, base seed) whose saturated links are dependent
DEPENDENT_ACTIVE_LINKS = [(50, 2), (50, 3), (75, 1)]

QUICK_CFG = ExperimentConfig(
    topology="small",
    n_values=(5,),
    seed=3,
    solvers=("admm", "gradproj"),
    repetitions=1,
)


def _dual_terms(inst):
    """Per-class flow parameter arrays, as the oracle read them before the
    class table: ("log", w, None) or ("power", w, a)."""
    terms = []
    for cls in inst.classes:
        fams = cls.flows
        if all(isinstance(f, WeightedLog) for f in fams):
            terms.append(("log", np.asarray([f.w for f in fams]), None))
        else:
            assert all(isinstance(f, NegPower) for f in fams) and len({f.a for f in fams}) == 1
            terms.append(("power", np.asarray([f.w for f in fams]), fams[0].a))
    return terms


def _primal_rates(terms, v):
    """u[i][k] = conjugate derivative of flow (i,k) at the path price v_i."""
    return [w / vi if tag == "log" else (a * w / vi) ** (1.0 / (a + 1.0))
            for (tag, w, a), vi in zip(terms, v)]


def _table_terms(classes):
    """``_dual_terms`` read back from a class table."""
    return [("log", w, None) if a == 0.0 else ("power", w, a)
            for w, a in zip(np.split(classes.w, np.cumsum(classes.sizes)[:-1]), classes.a.tolist())]


class _PerFlowDual:
    """The link-price dual as the oracle evaluated it before it ran on class
    aggregates: a Python loop over the classes with numpy reductions over
    each class's flows. Kept as the reference the oracle is checked against."""

    def __init__(self, R, c, classes):
        self.R, self.c, self.terms = R, c, _table_terms(classes)

    def rates(self, v):
        x = np.asarray([ui.sum() for ui in _primal_rates(self.terms, v)])
        slopes = np.empty(len(self.terms))
        for i, ((tag, w, a), vi) in enumerate(zip(self.terms, v)):
            if tag == "log":
                slopes[i] = float(np.sum(-w / vi**2))
            else:
                p = 1.0 / (a + 1.0)
                slopes[i] = float(np.sum(-p * (a * w) ** p * vi ** (-p - 1.0)))
        return x, slopes

    def __call__(self, rho):
        """Dual value at the link prices ``rho``."""
        v = np.maximum(self.R.T @ rho, 1e-12)
        val = float(rho @ self.c)
        for (tag, w, a), vi in zip(self.terms, v):
            if tag == "log":
                val += float(np.sum(w * (np.log(w / vi) - 1.0)))
            else:
                u = (a * w / vi) ** (1.0 / (a + 1.0))
                val += float(np.sum(-w * u ** (-a) - vi * u))
        return val


def _single_flow_classes(inst):
    """``inst`` with every class cut down to its first flow."""
    classes = tuple(replace(cls, flows=cls.flows[:1]) for cls in inst.classes)
    return Instance(inst.network, classes, inst.routing)


def _dual_instances():
    small, iridium = small_topology(), iridium_topology()
    cases = {
        "log": gen_instance(small, 20, seed=3),
        "log-single-flow": _single_flow_classes(gen_instance(small, 20, seed=4)),
        "iridium-log": gen_instance(iridium, 75, seed=1, endpoint_rule="gateway-constrained"),
    }
    for a in (1.0, 2.0, 3.0):
        cases[f"power-a{a:g}"] = gen_instance(small, 20, seed=5, utility_spec={"family": "power", "a": a})
    cases["power-single-flow"] = _single_flow_classes(
        gen_instance(small, 20, seed=6, utility_spec={"family": "power", "a": 2.0}))
    mixed = gen_instance(small, 20, seed=7)
    classes = tuple(
        replace(cls, flows=tuple(NegPower(f.w, 1.0 + i % 3) for f in cls.flows)) if i % 2 else cls
        for i, cls in enumerate(mixed.classes)
    )
    cases["log-and-power"] = Instance(mixed.network, classes, mixed.routing)
    return cases


DUAL_INSTANCES = _dual_instances()


def _per_flow_duality_gap(inst):
    """Relative amount by which the per-flow dual at the oracle's link prices
    exceeds the oracle's objective; weak duality makes it nonnegative."""
    sol = oracle_solve(inst)
    classes = FairClasses(cls.flows for cls in inst.classes)
    value = _PerFlowDual(inst.routing.dense(), inst.network.capacities, classes)(sol.rho)
    gap = (value - sol.objective) / abs(sol.objective)
    assert gap >= -1e-12
    return gap


class TestAggregateDual:
    @pytest.mark.parametrize("name", sorted(DUAL_INSTANCES))
    def test_class_table_holds_the_dual_terms(self, name):
        inst = DUAL_INSTANCES[name]
        got = _table_terms(FairClasses(cls.flows for cls in inst.classes))
        want = _dual_terms(inst)
        assert [(tag, a) for tag, _, a in got] == [(tag, a) for tag, _, a in want]
        assert all(np.array_equal(g[1], w[1]) for g, w in zip(got, want))

    @pytest.mark.parametrize("name", sorted(DUAL_INSTANCES))
    def test_oracle_rates_are_the_conjugate_derivatives(self, name):
        # the share split of x(v) equals each flow's own conjugate
        # derivative at the final path price, to round-off
        inst = DUAL_INSTANCES[name]
        sol = oracle_solve(inst)
        v = np.maximum(inst.routing.dense().T @ sol.rho, 1e-12)
        ref = np.concatenate(_primal_rates(_dual_terms(inst), v))
        u = np.concatenate(sol.u)
        assert float(np.max(np.abs(u - ref))) <= 1e-15 * (1.0 + float(np.max(ref)))

    @pytest.mark.parametrize("name", sorted(DUAL_INSTANCES))
    def test_matches_per_flow_dual(self, name):
        assert _per_flow_duality_gap(DUAL_INSTANCES[name]) <= 1e-9

    @pytest.mark.parametrize("name", sorted(DUAL_INSTANCES))
    def test_rates_and_slopes_match_per_flow(self, name):
        # the class table's rate law and slopes, which the oracle's Newton steps use
        inst = DUAL_INSTANCES[name]
        R, c = inst.routing.dense(), inst.network.capacities
        classes = FairClasses(cls.flows for cls in inst.classes)
        rng = np.random.default_rng(12)
        for scale in (1e-12, 1e-3, 1.0, 10.0):
            v = scale * (0.5 + rng.uniform(size=R.shape[1]))
            x, slopes = classes.rates(v)
            x_ref, slopes_ref = _PerFlowDual(R, c, classes).rates(v)
            np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(slopes, slopes_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("topology, n, s", [("small", 10, 1), ("small", 30, 1)]
                             + [("iridium", n, s) for n, s in DEPENDENT_ACTIVE_LINKS])
    def test_oracle_matches_per_flow_reference(self, topology, n, s):
        if topology == "small":
            inst = gen_instance(small_topology(), n, seed=s)
        else:
            inst = gen_instance(iridium_topology(), n, seed=mix(s, n),
                                endpoint_rule="gateway-constrained")
        assert _per_flow_duality_gap(inst) <= 1e-9


@pytest.mark.parametrize("solve", [
    lambda inst: solve_admm(inst, SolverParams()),
    lambda inst: solve_cp(inst, SolverParams()),
    lambda inst: solve_gradproj(inst, SolverParams()),
    oracle_solve,
], ids=["admm", "cp", "gradproj", "oracle"])
def test_no_classes_is_a_domain_error(solve):
    with pytest.raises(DomainError, match="no flow classes"):
        solve(gen_instance(small_topology(), 0, seed=1))


def test_multipath_no_classes_is_a_domain_error():
    inst = gen_multipath_instance(small_topology(), 0, 1, paths_per_class=2)
    with pytest.raises(DomainError, match="no flow classes"):
        solve_multipath(inst, SolverParams())


def _assert_certified(inst, max_steps):
    sol = oracle_solve(inst)
    assert kkt_check_single_path(inst, sol.x, sol.u, sol.rho, tol=1e-7).passed
    assert sol.n_iter <= max_steps
    return sol


@functools.cache
def _oracle_base(name):
    topology, n = name.split("-")
    if topology == "small":
        return gen_instance(small_topology(), int(n), seed=1)
    return gen_instance(iridium_topology(), int(n), seed=mix(1, int(n)),
                        endpoint_rule="gateway-constrained")


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

    @pytest.mark.parametrize("n, s", DEPENDENT_ACTIVE_LINKS)
    def test_certifies_iridium_with_dependent_active_links(self, n, s):
        # the saturated links' Newton Jacobian is singular on these instances
        inst = gen_instance(iridium_topology(), n, seed=mix(s, n),
                            endpoint_rule="gateway-constrained")
        sol = oracle_solve(inst)
        assert kkt_check_single_path(inst, sol.x, sol.u, sol.rho, tol=1e-7).passed

    @pytest.mark.parametrize("n, s", DEPENDENT_ACTIVE_LINKS)
    def test_admm_and_cp_agree_on_iridium_with_dependent_active_links(self, n, s):
        # ADMM's percent-change rule gives ~0.1% objectives (README); CP
        # stops on the KKT residual
        inst = gen_instance(iridium_topology(), n, seed=mix(s, n),
                            endpoint_rule="gateway-constrained")
        ref = oracle_solve(inst).objective
        admm = solve_admm(inst, SolverParams(r=40.0, pct=1e-4))
        cp = solve_cp(inst, SolverParams())
        assert cp.converged
        assert abs(admm.objective - ref) <= 1e-3 * abs(ref)
        assert abs(cp.objective - ref) <= 1e-6 * abs(ref)

    @pytest.mark.parametrize("topology, n, a", [("small", 20, 1.0), ("small", 20, 2.0),
                                                ("iridium", 75, 1.0)])
    def test_certifies_alpha_fair_instances(self, topology, n, a):
        spec = {"family": "power", "a": a}
        if topology == "small":
            inst = gen_instance(small_topology(), n, seed=1, utility_spec=spec)
        else:
            inst = gen_instance(iridium_topology(), n, seed=1, utility_spec=spec,
                                endpoint_rule="gateway-constrained")
        sol = oracle_solve(inst)
        assert kkt_check_single_path(inst, sol.x, sol.u, sol.rho, tol=1e-7).passed

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1e2, 1e4])
    @pytest.mark.parametrize("base", ["small-20", "iridium-300"])
    def test_certifies_scaled_weights(self, base, scale):
        inst = _oracle_base(base)
        classes = tuple(replace(cls, flows=tuple(replace(f, w=scale * f.w) for f in cls.flows))
                        for cls in inst.classes)
        _assert_certified(Instance(inst.network, classes, inst.routing), max_steps=30)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("base", ["small-30", "iridium-300"])
    def test_certifies_non_uniform_capacities(self, base, seed):
        inst = _oracle_base(base)
        caps = 10.0 ** np.random.default_rng(seed).uniform(-2.0, 3.0, len(inst.network.links))
        links = tuple(link._replace(cap=float(cap)) for link, cap in zip(inst.network.links, caps))
        net = replace(inst.network, links=links)
        _assert_certified(Instance(net, inst.classes, inst.routing), max_steps=40)

    def test_certifies_parallel_links_with_non_unique_prices(self):
        # every class 1 -> 3 crosses one of two parallel links into node 2 and one
        # of two out of it, so the four link rows are dependent (a + b = c + d).
        # The class weights 1.5, 2, 2.5, 3 pair up to equal sums, so every link
        # saturates at x = 5 and the link prices are not unique.
        net = Network(3, (Link(1, 2, 10.0), Link(1, 2, 10.0), Link(2, 3, 10.0), Link(2, 3, 10.0)),
                      allow_parallel=True)
        classes = tuple(FlowClass(1, 3, (path,), (WeightedLog(1.0), WeightedLog(0.5 * i)))
                        for i, path in enumerate([(1, 3), (1, 4), (2, 3), (2, 4)], start=1))
        inst = Instance(net, classes, routing_matrix(net, classes))
        sol = _assert_certified(inst, max_steps=30)
        np.testing.assert_allclose(sol.x, 5.0, rtol=1e-9)

    def test_certifies_an_unused_link_of_tiny_capacity(self):
        # the parallel copy of link 1 loses every shortest-path tie-break
        net = small_topology()
        first = net.links[0]
        net = replace(net, links=net.links + (Link(first.tail, first.head, 1e-9),), allow_parallel=True)
        inst = gen_instance(net, 20, seed=1)
        assert not inst.routing.dense()[-1].any()
        sol = _assert_certified(inst, max_steps=30)
        ref = oracle_solve(_oracle_base("small-20"))
        np.testing.assert_allclose(sol.x, ref.x, rtol=1e-8)

    def test_singular_newton_system_is_non_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(harness.np.linalg, "solve", fail)
        with pytest.raises(NonConvergence, match="Newton system is singular"):
            oracle_solve(gen_instance(small_topology(), 5, seed=1))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0])
    def test_rejects_a_tol_that_is_not_finite_and_nonnegative(self, monkeypatch, tol):
        # before its first Newton step, and before the single-path check
        monkeypatch.setattr(harness.np.linalg, "solve", None)
        inst = gen_multipath_instance(small_topology(), 2, 1, paths_per_class=2)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            oracle_solve(inst, tol=tol)

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

    def test_failed_row_records_error(self, monkeypatch, tmp_path):
        def fail(inst, params):
            raise MaxIterExceeded("projection NNLS did not settle")

        monkeypatch.setitem(harness.SOLVERS, "gradproj", fail)
        rep = run_experiment(QUICK_CFG)
        path = tmp_path / "rep.json"
        emit_report(rep, "json", str(path))
        rows = {r["solver"]: r for r in json.loads(path.read_text())["rows"]}
        assert rows["gradproj"]["error"] == "MaxIterExceeded: projection NNLS did not settle"
        assert math.isnan(rows["gradproj"]["f_star"]) and not rows["gradproj"]["converged"]
        assert rows["admm"]["error"] is None
        again = Report.from_json(json.loads(path.read_text()))
        assert [r.error for r in again.rows] == [r.error for r in rep.rows]

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

    @pytest.mark.parametrize("doc, key", [
        ({"n_value": [5], "solver": ["admm"]}, "'n_value'"),
        ({"params": {"magic": {"r": 1.0}}}, "magic"),
    ], ids=["top-level", "params"])
    def test_config_from_json_rejects_unknown_keys(self, doc, key):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_json(doc)

    def test_config_from_empty_json_is_the_default(self):
        assert ExperimentConfig.from_json({}) == ExperimentConfig()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ValueError):
            ExperimentConfig(solvers=("nope",))

    @pytest.mark.parametrize("bad", [
        {"seed": 2.5}, {"seed": True}, {"repetitions": 1.7}, {"repetitions": True},
        {"n_values": (3.9,)}, {"n_values": (True,)}, {"n_values": (5, 0)}, {"n_values": (-2,)},
    ])
    def test_config_integer_fields(self, bad):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)

    def test_config_takes_numpy_integers(self):
        cfg = ExperimentConfig(n_values=(np.int64(5),), seed=np.int32(2), repetitions=np.int64(1))
        assert cfg.n_values == (5,) and cfg.seed == 2 and cfg.repetitions == 1


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

    def test_json_bytes_match_the_field_by_field_form(self, tmp_path):
        # reference: every row key written out by hand, in the report's order
        rows = self.ROWS + (ReportRow("gradproj", 5, float("nan"), float("nan"), 0, 0.0, 0.0,
                                      False, "MaxIterExceeded: no ascent step"),)
        rep = Report(rows=rows, seed=9)
        reference = {
            "version": rep.version,
            "seed": rep.seed,
            "rows": [
                {
                    "solver": r.solver,
                    "N": r.n,
                    "f_star": r.f_star,
                    "l_max": r.l_max,
                    "n_iter": r.n_iter,
                    "t_sec": r.t_sec,
                    "t_mean_sec": r.t_mean_sec,
                    "converged": r.converged,
                    "error": r.error,
                }
                for r in rep.rows
            ],
        }
        path = tmp_path / "rep.json"
        emit_report(rep, "json", str(path))
        assert path.read_bytes() == (json.dumps(reference, indent=2) + "\n").encode()

    def test_json_without_error_field_loads(self):
        doc = Report(rows=self.ROWS, seed=9).to_json()
        for row in doc["rows"]:
            del row["error"]
        assert Report.from_json(doc) == Report(rows=self.ROWS, seed=9)


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

    def test_verify_nan_rate_fails(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "oracle", "--out", str(sol)]) == 0
        doc = json.loads(sol.read_text())
        doc["u"][0][0] = math.nan
        sol.write_text(json.dumps(doc))  # NaN, as Python's json writes it
        capsys.readouterr()
        assert cli_main(["verify", str(inst), str(sol)]) == 3
        report = json.loads(capsys.readouterr().out)
        assert math.isnan(report["max_residual"]) and report["passed"] is False

    def test_verify_infinite_rate_fails_without_a_warning(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "oracle", "--out", str(sol)]) == 0
        doc = json.loads(sol.read_text())
        doc["u"][0][0] = math.inf
        sol.write_text(json.dumps(doc))  # Infinity, as Python's json writes it
        capsys.readouterr()
        assert cli_main(["verify", str(inst), str(sol)]) == 3
        out, err = capsys.readouterr()
        assert json.loads(out)["passed"] is False and err == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_verify_tol_must_be_finite_and_nonnegative(self, tmp_path, capsys, tol):
        # nan and -1 used to fail every report (exit 3), inf to pass every finite one
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "oracle", "--out", str(sol)]) == 0
        capsys.readouterr()
        assert cli_main(["verify", str(inst), str(sol), "--tol", tol]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numflow: --tol must be finite and >= 0") and err.count("\n") == 1

    def test_verify_multipath_solution(self, tmp_path):
        # unused paths carry positive path duals "mu", which verify must read
        inst = gen_multipath_instance(small_topology(), 5, 1, paths_per_class=2)
        sol = solve_multipath(inst, SolverParams(alpha=2.0))
        assert np.max(sol.mu) > 0
        inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
        save_instance(inst, str(inst_path))
        sol_path.write_text(json.dumps(sol.to_json()))
        assert cli_main(["verify", str(inst_path), str(sol_path), "--tol", "1e-5"]) == 0

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

    @pytest.mark.parametrize("solver, attr, error", [
        ("gradproj", None, MaxIterExceeded("projection NNLS did not settle")),
        ("admm", None, NonConvergence("did not converge")),
        ("oracle", "oracle_solve", NonConvergence("oracle residual too large")),
        ("oracle", "oracle_solve", MaxIterExceeded("projection NNLS did not settle")),
    ])
    def test_non_convergence_exit_code(self, tmp_path, monkeypatch, solver, attr, error):
        def fail(*args, **kwargs):
            raise error

        if attr is None:
            monkeypatch.setitem(harness.SOLVERS, solver, fail)
        else:
            monkeypatch.setattr(harness, attr, fail)
        inst = self._gen(tmp_path)
        assert cli_main(["solve", str(inst), "--solver", solver]) == 2

    def test_unknown_solver_usage_error(self, tmp_path):
        inst = self._gen(tmp_path)
        assert cli_main(["solve", str(inst), "--solver", "magic"]) == 1

    def test_missing_file_usage_error(self, tmp_path):
        assert cli_main(["solve", str(tmp_path / "absent.json"), "--solver", "admm"]) == 1

    def test_bad_gen_spec_usage_error(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        argv = ["gen", "--n", "3", "--family", "power", "--a", "0.5", "--out", str(out)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "numflow: exponent must be >= 1\n"

    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_gen_non_finite_exponent_usage_error(self, tmp_path, capsys, a):
        out = tmp_path / "inst.json"
        argv = ["gen", "--n", "3", "--family", "power", "--a", a, "--out", str(out)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == "numflow: exponent must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["admm", "cp", "gradproj", "oracle"])
    @pytest.mark.parametrize("cap", [math.nan, math.inf])
    def test_solve_non_finite_capacity_usage_error(self, tmp_path, capsys, cap, solver):
        doc = instance_to_json(gen_instance(small_topology(), 3, seed=1))
        doc["links"][0]["cap"] = cap
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity, as Python's json writes them
        assert cli_main(["solve", str(path), "--solver", solver]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numflow: capacity must be positive and finite")
        assert err.count("\n") == 1

    def test_solve_non_finite_weight_usage_error(self, tmp_path, capsys):
        doc = instance_to_json(gen_instance(small_topology(), 3, seed=1))
        doc["classes"][0]["flows"][0]["w"] = math.nan
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path), "--solver", "oracle"]) == 1
        assert capsys.readouterr().err == "numflow: weight must be finite\n"

    # misspelt keys such as "R" used to be dropped, solving at the default r and pct
    @pytest.mark.parametrize("doc", [{"r": -1}, {"r": "40"}, {"R": 40, "pcT": 1e-9}])
    def test_bad_params_usage_error(self, tmp_path, capsys, doc):
        inst = self._gen(tmp_path)
        params = tmp_path / "p.json"
        params.write_text(json.dumps(doc))
        assert cli_main(["solve", str(inst), "--solver", "admm", "--params", str(params)]) == 1
        assert capsys.readouterr().err.startswith("numflow: ")

    def test_bad_bench_config_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solvers": ["magic"]}))
        assert cli_main(["bench", str(cfg), "--out", str(tmp_path / "rep.csv")]) == 1
        assert capsys.readouterr().err == "numflow: unknown solver: magic\n"

    @pytest.mark.parametrize("doc, key", [
        ({"params": [1]}, "'params'"),
        ({"params": {"admm": "abc"}}, "'params.admm'"),
        ({"solvers": "admm"}, "'solvers'"),
        ({"n_values": 5}, "'n_values'"),
        # an unknown key used to be dropped, running the whole default sweep
        ({"n_value": [5]}, "'n_value'"),
        ({"params": {"oracle": {}}}, "oracle"),
        ({"params": {"admm": {"R": 40}}}, "'R'"),
    ])
    def test_bench_config_of_wrong_type_usage_error(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli_main(["bench", str(cfg), "--out", str(tmp_path / "rep.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numflow: ") and key in err and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        {"endpoint_rule": "gateway-constrained"},
        {"endpoint_rule": "nope"},
        {"n_values": [-2]},
        {"n_values": [3.9], "repetitions": 1.7, "seed": 2.5},
        {"n_values": [True]},
    ], ids=["no-gateways", "unknown-rule", "negative-n", "fractions", "bool-n"])
    def test_bench_config_it_cannot_run_usage_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        sweep = {"topology": "small", "n_values": [3], "repetitions": 1, "solvers": ["admm"]}
        cfg.write_text(json.dumps({**sweep, **doc}))
        assert cli_main(["bench", str(cfg), "--out", str(tmp_path / "rep.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numflow: ") and err.count("\n") == 1

    def test_bool_max_iter_usage_error(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"max_iter": True}))
        assert cli_main(["solve", str(inst), "--solver", "cp", "--params", str(params)]) == 1
        assert "max_iter" in capsys.readouterr().err

    def test_bench_topology_must_be_a_string(self, tmp_path, capsys, monkeypatch):
        # an int topology must not reach open(), which reads it as a file descriptor
        def fail(path):
            raise AssertionError(f"load_instance({path!r}) called")

        monkeypatch.setattr(harness, "load_instance", fail)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topology": 7, "n_values": [3], "repetitions": 1}))
        assert cli_main(["bench", str(cfg), "--out", str(tmp_path / "rep.csv")]) == 1
        assert capsys.readouterr().err == "numflow: 'topology' must be a string, got int\n"

    @pytest.mark.parametrize("argv", [
        "solve {d}/brace.json --solver admm",
        "solve {d}/negative_cap.json --solver admm",
        "solve {d}/no_links.json --solver admm",
        "solve {d}/list.json --solver admm",
        "bench {d}/list.json --out {d}/rep.csv",
        "verify {d}/inst.json {d}/brace.json",
        "verify {d}/inst.json {d}/sol_without_x.json",
        "verify {d}/inst.json {d}/sol_bad_rho.json",
        "pwl eval {d}/brace.json --x 1",
        "pwl eval {d}/rising_slopes.json --x 1",
        "pwl eval {d}/nan_breakpoint.json --x 1",
        "pwl supconv {d}/inf_offset.json {d}/nan_breakpoint.json",
        "solve {d}/inf_breakpoint_pwl.json --solver pwl",
        "gen --topology {d}/brace.json --n 2 --out {d}/out.json",
        "solve {d}/inst.json --solver admm --out {d}/absent/sol.json",
    ])
    def test_bad_file_usage_error(self, tmp_path, capsys, argv):
        inst = gen_instance(small_topology(), 3, seed=1)
        doc = instance_to_json(inst)
        bad_rho = {"x": [1.0] * 3, "u": [[1.0] * len(c.flows) for c in inst.classes], "rho": "abc"}
        negative_cap = json.loads(json.dumps(doc))
        negative_cap["links"][0]["cap"] = -1.0
        no_links = {k: v for k, v in doc.items() if k != "links"}
        inf_breakpoint_pwl = json.loads(json.dumps(doc))
        for cls in inf_breakpoint_pwl["classes"]:
            cls["flows"] = [{"family": "pwl", "breakpoints": [0.0, math.inf], "slopes": [3.0, 0.0]}]
        files = {
            "inst.json": json.dumps(doc),
            "brace.json": "{",
            "negative_cap.json": json.dumps(negative_cap),
            "no_links.json": json.dumps(no_links),
            "list.json": "[1, 2]",
            "sol_without_x.json": json.dumps({"u": [], "rho": []}),
            "sol_bad_rho.json": json.dumps(bad_rho),
            "rising_slopes.json": json.dumps({"breakpoints": [0, 1], "slopes": [0, 1]}),
            # NaN and Infinity, as Python's json writes them
            "nan_breakpoint.json": json.dumps({"breakpoints": [0.0, math.nan], "slopes": [1.0, 0.0]}),
            "inf_offset.json": json.dumps({"breakpoints": [0.0, 2.0], "slopes": [3.0, 0.0],
                                           "offset": -math.inf}),
            "inf_breakpoint_pwl.json": json.dumps(inf_breakpoint_pwl),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert cli_main([arg.format(d=tmp_path) for arg in argv.split()]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numflow: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("keys, value", [
        (("nodes",), 6.7),
        (("links", 0, "tail"), 1.9),
        (("links", 0, "tail"), True),
        (("gateways",), [1.5]),
        (("classes", 0, "src"), lambda v: v + 0.5),
        (("classes", 0, "paths", 0, 0), lambda v: v + 0.5),
        (("paths_per_class",), 1.2),
        (("seed",), 2.5),
        (("allow_parallel",), "false"),
    ], ids=["nodes", "tail", "bool-tail", "gateway", "src", "link-id", "paths_per_class", "seed",
            "allow_parallel"])
    def test_solve_non_integer_field_usage_error(self, tmp_path, capsys, keys, value):
        # int() and bool() used to turn each of these into a different, valid instance
        doc = instance_to_json(gen_instance(small_topology(), 3, seed=1))
        *outer, last = keys
        at = functools.reduce(lambda d, k: d[k], outer, doc)
        at[last] = value(at[last]) if callable(value) else value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", str(path), "--solver", "oracle"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numflow: ") and err.count("\n") == 1

    @pytest.mark.parametrize("family, keys, value", [
        ("log", ("links", 0, "cap"), True),
        ("log", ("links", 0, "cap"), "10"),
        ("log", ("classes", 0, "flows", 0, "w"), "0.5"),
        ("log", ("classes", 0, "flows", 0, "w"), True),
        ("power", ("classes", 0, "flows", 0, "w"), False),
        ("power", ("classes", 0, "flows", 0, "a"), "2"),
        ("pwl", ("classes", 0, "flows", 0, "breakpoints"), ["0", "2"]),
        ("pwl", ("classes", 0, "flows", 0, "slopes"), [True, 0.0]),
        ("pwl", ("classes", 0, "flows", 0, "offset"), "1.5"),
    ], ids=["bool-cap", "str-cap", "str-w", "bool-w", "bool-power-w", "str-a", "str-breakpoints",
            "bool-slope", "str-offset"])
    def test_solve_non_number_real_field_usage_error(self, tmp_path, capsys, family, keys, value):
        # float() used to turn each of these into a number
        spec = {"family": "power", "a": 2.0} if family == "power" else {}
        doc = instance_to_json(gen_instance(small_topology(), 3, 1, spec))
        if family == "pwl":
            for cls in doc["classes"]:
                cls["flows"] = [{"family": "pwl", "breakpoints": [0.0, 2.0], "slopes": [3.0, 0.0]}]
        *outer, last = keys
        functools.reduce(lambda d, k: d[k], outer, doc)[last] = value
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        solver = "pwl" if family == "pwl" else "oracle"
        assert cli_main(["solve", str(path), "--solver", solver]) == 1
        shown = value[0] if isinstance(value, list) else value
        assert capsys.readouterr().err == f"numflow: {last} must be a number, got {shown!r}\n"

    @pytest.mark.parametrize("edit", [{"breakpoints": [0, "2"]}, {"slopes": ["3", 0]},
                                      {"offset": True}], ids=["breakpoints", "slopes", "offset"])
    def test_pwl_eval_non_number_field_usage_error(self, tmp_path, capsys, edit):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"breakpoints": [0.0, 2.0], "slopes": [3.0, 0.0], **edit}))
        assert cli_main(["pwl", "eval", str(f), "--x", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numflow: ") and "must be a number" in err and err.count("\n") == 1

    @pytest.mark.parametrize("params", [
        {"r": True, "alpha": True}, {"pct": "1e-4"}, {"tol": False}, {"alpha": "0.1"},
    ], ids=["bool-r-alpha", "str-pct", "bool-tol", "str-alpha"])
    def test_solve_non_number_params_usage_error(self, tmp_path, capsys, params):
        # r = True used to run ADMM with r = 1
        inst = self._gen(tmp_path)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        assert cli_main(["solve", str(inst), "--solver", "admm", "--params", str(path)]) == 1
        name = next(iter(params))
        assert capsys.readouterr().err == f"numflow: {name} must be a number, got {params[name]!r}\n"

    @pytest.mark.parametrize("key, edit", [
        ("x", lambda v: [str(e) for e in v]),
        ("rho", lambda v: [True for _ in v]),
        ("u", lambda v: [[str(e) for e in ui] for ui in v]),
        ("x", lambda v: None),
    ], ids=["str-x", "bool-rho", "str-u", "null-x"])
    def test_verify_non_number_solution_usage_error(self, tmp_path, capsys, key, edit):
        # string rates and bool duals used to be read as numbers and fail the check (exit 3)
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "oracle", "--out", str(sol)]) == 0
        doc = json.loads(sol.read_text())
        doc[key] = edit(doc[key])
        sol.write_text(json.dumps(doc))
        assert cli_main(["verify", str(inst), str(sol)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"numflow: {key} must be a number, got ") and err.count("\n") == 1

    def test_verify_with_one_flow_rate_array_too_few_usage_error(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        sol = tmp_path / "sol.json"
        assert cli_main(["solve", str(inst), "--solver", "oracle", "--out", str(sol)]) == 0
        doc = json.loads(sol.read_text())
        doc["u"].pop()
        sol.write_text(json.dumps(doc))
        assert cli_main(["verify", str(inst), str(sol)]) == 1
        assert capsys.readouterr().err == "numflow: one flow-rate array per class required\n"

    def test_missing_key_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"version": 1, "nodes": 2}))
        assert cli_main(["solve", str(path), "--solver", "admm"]) == 1
        assert capsys.readouterr().err == "numflow: missing key 'links'\n"

    @pytest.mark.parametrize("solver", ["admm", "cp", "gradproj", "oracle"])
    def test_solve_without_classes_usage_error(self, tmp_path, capsys, solver):
        inst = self._gen(tmp_path, n=0)
        assert cli_main(["solve", str(inst), "--solver", solver]) == 1
        assert capsys.readouterr().err == "numflow: the instance has no flow classes\n"

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

    def test_solve_without_out_writes_stdout(self, tmp_path, capsys):
        inst = self._gen(tmp_path)
        assert cli_main(["solve", str(inst), "--solver", "oracle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True and len(doc["x"]) == 5 and len(doc["rho"]) == 14

    def test_gen_iridium_is_gateway_constrained(self, tmp_path):
        out = tmp_path / "inst.json"
        assert cli_main(["gen", "--topology", "iridium", "--n", "20", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        gateways = set(iridium_topology().gateways)
        assert doc["gateways"] == sorted(gateways) and len(doc["classes"]) == 20
        assert all(c["src"] in gateways or c["dst"] in gateways for c in doc["classes"])

    def test_gen_on_an_instance_file_keeps_its_network(self, tmp_path):
        net = Network(3, (Link(1, 2, 4.0), Link(2, 3, 5.0), Link(3, 1, 6.0), Link(2, 1, 7.0)))
        src = tmp_path / "src.json"
        save_instance(gen_instance(net, 2, seed=1), str(src))
        out = tmp_path / "inst.json"
        assert cli_main(["gen", "--topology", str(src), "--n", "4", "--seed", "2",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == instance_to_json(gen_instance(net, 4, seed=2))

    def test_pwl_eval_requires_x(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"breakpoints": [0.0, 2.0], "slopes": [3.0, 0.0]}))
        assert cli_main(["pwl", "eval", str(f)]) == 1
        assert capsys.readouterr() == ("", "eval requires --x\n")

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_pwl_eval_non_finite_x_usage_error(self, tmp_path, capsys, x):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"breakpoints": [0.0, 2.0], "slopes": [3.0, 0.0]}))
        assert cli_main(["pwl", "eval", str(f), "--x", x]) == 1
        assert capsys.readouterr() == ("", f"numflow: --x must be finite, got {x}\n")

    def test_pwl_supconv(self, tmp_path, capsys):
        f, g = tmp_path / "f.json", tmp_path / "g.json"
        f.write_text(json.dumps({"breakpoints": [0.0, 2.0], "slopes": [3.0, 0.0]}))
        g.write_text(json.dumps({"breakpoints": [0.0, 4.0], "slopes": [1.0, 0.0]}))
        assert cli_main(["pwl", "supconv", str(f), str(g)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"breakpoints": [0.0, 2.0, 6.0], "slopes": [3.0, 1.0, 0.0]}

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


def test_bench_tracer_targets_resolve():
    # the traced benchmark run patches these attributes; a missing one would
    # break it, so renaming or deleting one must fail here first
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(mod, attr) for mod, attr, _, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing
