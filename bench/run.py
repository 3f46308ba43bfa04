"""Serial benchmark of numflow: one workload, one process, one job at a time.

    python3 bench/run.py --workload {iridium,small,pwl} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``. A closed loop with one client calls the workload's jobs in list
order, then calls the heaviest jobs again until ``--seconds`` are used up.
Only the solver call is timed: references are computed before the loop,
and each call is checked right after it returns.
The last line of standard output is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). A traced
run spends half its time untraced and half traced, and both halves must
return identical iterates. Everything the run measured is written to
``bench/out/``; a human summary goes to standard error.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy is imported; the harness's
# NUMFLOW_THREADS pool is never used, and the variable is dropped anyway.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NUMFLOW_THREADS", None)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
SETUP_REPEATS = 3
# Times ``import numflow`` in a fresh interpreter; the set-up repeats use it
# because a module is imported only once per process.
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import numflow; print(time.perf_counter() - t)")
# Host speed. On a shared 2-core VM the wall time of one and the same call
# moved by up to 1.7x within a minute, in phases of several seconds, with
# the load other tenants put on the host. A fixed kernel that runs no
# numflow code (an interpreter loop and small numpy calls, the two kinds
# of work the solvers spend their time on) is timed between consecutive
# calls. Each call's wall seconds are multiplied by
# (CAL_REF_S / geometric mean of the kernel times on either side of it)
# ** CAL_EXPONENT. Over every job of the three workloads, this kernel with
# exponent 0.75 lowered the call-to-call spread of log wall time from
# 0.06-0.29 to 0.02-0.18 and raised it for no job. Over two sets of runs
# per workload, the run-to-run spread of sweep_s was 0.06-0.12, against
# 0.09-0.21 in wall seconds and up to 0.22 with one kernel median per run;
# exponents 0.5 and 1 did no better in the worst case. Raw wall seconds
# and every kernel time are in the results file.
CAL_REF_S = 0.0125
CAL_EXPONENT = 0.75

# name -> (unit, better); must match BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sweep_s": ("s", "lower"),
    "ok_share": ("ratio", "higher"),
    "obj_gap_max": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "netmodel.gen_s": ("s", "lower"),
    "netmodel.dense_s": ("s", "lower"),
    "netmodel.flows": ("count", "lower"),
    "solvers.admm.s": ("s", "lower"),
    "solvers.admm.iters": ("count", "lower"),
    "solvers.admm.us_per_iter": ("us", "lower"),
    "solvers.admm_u_update.calls": ("count", "lower"),
    "solvers.admm_u_update.s": ("s", "lower"),
    "solvers.spd_prefactor.s": ("s", "lower"),
    "solvers.cp.s": ("s", "lower"),
    "solvers.cp.iters": ("count", "lower"),
    "solvers.cp.us_per_iter": ("us", "lower"),
    "solvers.cp.converged_share": ("ratio", "higher"),
    "solvers.gradproj.s": ("s", "lower"),
    "solvers.gradproj.iters": ("count", "lower"),
    "solvers.gradproj.us_per_iter": ("us", "lower"),
    "solvers.project.calls": ("count", "lower"),
    "solvers.project.s": ("s", "lower"),
    "solvers.project.us_per_call": ("us", "lower"),
    "solvers.simplex.s": ("s", "lower"),
    "solvers.simplex.pivots": ("count", "lower"),
    "solvers.pwl.s": ("s", "lower"),
    "pwl.supconv.s": ("s", "lower"),
    "pwl.apportion.s": ("s", "lower"),
    "utility.aggregate_class.s": ("s", "lower"),
    "utility.kkt_check.calls": ("count", "lower"),
    "utility.kkt_check.s": ("s", "lower"),
    "multipath.s": ("s", "lower"),
    "multipath.iters": ("count", "lower"),
    "multipath.converged_share": ("ratio", "higher"),
    "multipath.allocate.s": ("s", "lower"),
    "harness.oracle.s": ("s", "lower"),
    "harness.oracle.iters": ("count", "lower"),
    "harness.oracle.certified_share": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}
# self time of a job span that no wrapped function covers, by job kind
_JOB_SELF = {"oracle": "harness.oracle", "multipath": "multipath.solve_multipath"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("iridium", "small", "pwl"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(W, workload, seed):
    """Import, instances (with their dense routing) and a warm-up, timed by phase."""
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                           capture_output=True, text=True, timeout=120, check=True)
    import_s = float(probe.stdout)
    t0 = time.perf_counter()
    insts = W.instances(workload, seed)
    t1 = time.perf_counter()
    for _, base, relabelled in insts:
        base.routing.dense()
        relabelled.routing.dense()
    t2 = time.perf_counter()
    W.warm_up()
    t3 = time.perf_counter()
    return insts, {"import_s": import_s, "gen_s": t1 - t0, "dense_s": t2 - t1,
                   "warmup_s": t3 - t2, "total_s": import_s + t3 - t0}


class Calibration:
    """The host-speed kernel: an interpreter loop and small numpy calls."""

    def __init__(self, np):
        self._np = np
        self.sample()  # first numpy calls are not representative

    def sample(self) -> float:
        np = self._np
        t = time.perf_counter()
        acc = 0.0
        for i in range(120000):
            acc += i * 0.5
        x = np.zeros(64)
        for _ in range(2400):
            x = np.maximum(x - 1.0, 0.0) + 1e-3
        return time.perf_counter() - t


def speed(before: float, after: float) -> float:
    """Factor from wall seconds to reported seconds, for work between two kernel samples."""
    return (CAL_REF_S / math.sqrt(before * after)) ** CAL_EXPONENT


@dataclass(frozen=True)
class Call:
    job: int          # index into the job list
    wall: float       # wall seconds of the solver call
    kernel: tuple     # kernel seconds just before and just after the call
    outcome: object   # checks.Outcome

    @property
    def factor(self) -> float:
        return speed(*self.kernel)

    @property
    def s(self) -> float:
        """Host-speed rescaled seconds."""
        return self.wall * self.factor


def measure(jobs, seconds, cal, check, tracer=None, first_call=0) -> list[Call]:
    """Closed loop over the job list.

    The first round calls every job in list order. After it, the next call
    goes to the job with the most time per call made so far among those
    whose last call still fits in the time left, so the remaining time goes
    to the jobs that weigh most in ``sweep_s``; the run ends when no job
    fits. The kernel runs between calls, and ``check`` right after each
    call; neither is inside a call's timing.
    """
    walls, outcomes, kernel = [], [], [cal.sample()]
    count = [0] * len(jobs)
    last = [0.0] * len(jobs)
    start = time.perf_counter()
    while True:
        if 0 in count:
            j = count.index(0)
        else:
            left = seconds - (time.perf_counter() - start)
            fits = [k for k in range(len(jobs)) if last[k] <= left]
            if not fits:
                break
            j = max(fits, key=lambda k: (last[k] / count[k], -k))
        with tracer.job(first_call + len(walls), jobs[j].name) if tracer else nullcontext():
            t = time.perf_counter()
            try:
                result = jobs[j].call()
            except Exception as exc:  # a job that raises is a failed job, not a failed run
                result = exc
            dt = time.perf_counter() - t
        walls.append((j, dt))
        outcomes.append(check(jobs[j], result))
        kernel.append(cal.sample())
        count[j] += 1
        last[j] = dt
    return [Call(j, dt, (kernel[i], kernel[i + 1]), outcomes[i])
            for i, (j, dt) in enumerate(walls)]


def _median_per_job(n_jobs, calls, attr="s"):
    per_job = [[] for _ in range(n_jobs)]
    for c in calls:
        per_job[c.job].append(getattr(c, attr))
    return [statistics.median(v) for v in per_job]


def layer_metrics(jobs, calls, first_call, tracer, outcomes, setup, untraced_sweep):
    """Per-layer values for one pass over the job list (per-job medians, summed).

    Each call's times are rescaled by that call's host-speed factor;
    ``setup`` and ``untraced_sweep`` come rescaled already.
    """
    per_job: list[list[dict]] = [[] for _ in jobs]
    for k, c in enumerate(calls):
        rec = tracer.call_records(first_call + k)
        rec["sweep"] = c.wall
        per_job[c.job].append({key: v * c.factor if key.endswith(".s") or key.startswith("self:")
                               or key == "sweep" else v for key, v in rec.items()})
    total: dict[str, float] = {}
    for j, recs in enumerate(per_job):
        keys = set().union(*recs)
        for key in keys:
            value = statistics.median(r.get(key, 0.0) for r in recs)
            if key == "self:job":
                key = "self:" + _JOB_SELF.get(jobs[j].kind, "bench.job")
            elif key.startswith("job."):
                key = _JOB_SELF.get(jobs[j].kind, "bench.job") + key[3:]
            total[key] = total.get(key, 0.0) + value

    def share(kind, flag):
        mine = [outcomes[j] for j, job in enumerate(jobs) if job.kind == kind]
        return sum(1 for o in mine if flag(o)) / len(mine) if mine else 0.0

    def per(num, den, scale=1e6):
        return total.get(num, 0.0) / total[den] * scale if total.get(den) else 0.0

    g = total.get
    m = {k: g(k, 0.0) for k in PER_LAYER}
    m.update({
        "netmodel.gen_s": setup["gen_s"],
        "netmodel.dense_s": setup["dense_s"],
        "netmodel.flows": float(sum(len(c.flows) for inst in {id(jb.base): jb.base for jb in jobs}.values()
                                    for c in inst.classes)),
        "solvers.admm.us_per_iter": per("solvers.admm.s", "solvers.admm.iters"),
        "solvers.cp.us_per_iter": per("solvers.cp.s", "solvers.cp.iters"),
        "solvers.cp.converged_share": share("cp", lambda o: o.converged),
        "solvers.gradproj.us_per_iter": per("solvers.gradproj.s", "solvers.gradproj.iters"),
        "solvers.project.us_per_call": per("solvers.project.s", "solvers.project.calls"),
        "solvers.simplex.pivots": g("solvers.simplex.iters", 0.0),
        "multipath.converged_share": share("multipath", lambda o: o.converged),
        "harness.oracle.iters": float(sum(o.n_iter or 0 for j, o in enumerate(outcomes)
                                          if jobs[j].kind == "oracle")),
        "harness.oracle.certified_share": share("oracle", lambda o: o.error is None),
        "trace.overhead_s": g("sweep", 0.0) - untraced_sweep,
    })
    selfs = {k[5:]: v for k, v in total.items() if k.startswith("self:")}
    shares = {k: v / g("sweep") for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])}
    return m, {"traced_sweep_s": g("sweep"), "self_s": selfs, "self_share_of_traced_sweep": shares}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "numflow", "__init__.py")):
        print(f"bench: no numflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numflow
    import_s = time.perf_counter() - t0
    if not os.path.abspath(numflow.__file__).startswith(SRC + os.sep):
        print(f"bench: numflow imported from {numflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy

    import checks
    import tracing
    import workloads as W

    # each set-up is rescaled by the kernel samples on either side of it
    cal = Calibration(np)
    setup_kernel = [cal.sample()]
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(set_up(W, args.workload, args.seed))
        setup_kernel.append(cal.sample())
    insts = setups[-1][0]
    setup = {k: statistics.median(s[1][k] * speed(*setup_kernel[i:i + 2]) for i, s in enumerate(setups))
             for k in setups[0][1]}
    jobs = W.jobs(args.workload, insts)

    # references: on the base instances, before timing and outside setup_s
    try:
        refs = {id(base): checks.reference(base) for _, base, _ in insts}
    except RuntimeError as exc:
        print(f"bench: no reference: {exc}", file=sys.stderr)
        return 3

    def check(job, result):
        if isinstance(result, Exception):
            return checks.failed_call(result)
        return checks.check(job, result, refs[id(job.base)])

    tracer = None
    if args.trace:
        calls = measure(jobs, args.seconds / 2, cal, check)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = measure(jobs, args.seconds / 2, cal, check, tracer, first_call=len(calls))
        phases = [calls, traced]
    else:
        phases = [measure(jobs, args.seconds, cal, check)]

    all_calls = [c for phase in phases for c in phase]
    first = {}
    deterministic = True
    for c in all_calls:
        if first.setdefault(c.job, c.outcome).fingerprint() != c.outcome.fingerprint():
            deterministic = False
    job_ok = [all(c.outcome.ok for c in all_calls if c.job == j) for j in range(len(jobs))]
    correct = deterministic and all(c.outcome.valid for c in all_calls)
    # An operation is a job: one solver on one instance. Its repeated calls
    # time it; they must return identical results, so the job fails or
    # passes as a whole, and the failed share is that of the job list
    # however many calls the host's speed allowed.
    failed = len(jobs) - sum(job_ok)

    untraced = phases[0]
    times = _median_per_job(len(jobs), untraced)
    wall_times = _median_per_job(len(jobs), untraced, "wall")
    sweep_s = sum(times)
    # Calls that did not converge already count against ok_share, and their
    # gap says nothing about accuracy: the diverging multipath job ends with
    # some x̄ exactly 0 (objective -inf) or barely above it (gap ~20),
    # depending on round-off.
    gaps = [c.outcome.gap for c in all_calls if c.outcome.converged and c.outcome.gap is not None]
    e2e = {
        "setup_s": setup["total_s"],
        "sweep_s": sweep_s,
        "ok_share": sum(job_ok) / len(jobs),
        # 1.0 marks a run in which no converged call returned a finite objective
        "obj_gap_max": max(gaps) if gaps else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    trace_doc = None
    if args.trace:
        layers, trace_doc = layer_metrics(
            jobs, phases[1], len(untraced), tracer, [first[j] for j in range(len(jobs))],
            setup, sweep_s)
        trace_doc.update(spans=tracer.spans,
                         counters=[[c, n, *v] for (c, n), v in tracer.counters.items()])
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": END_TO_END[k][0]} for k in END_TO_END}

    job_rows = []
    for j, job in enumerate(jobs):
        o = first[j]
        job_rows.append({
            "job": job.name, "calls": sum(1 for c in untraced if c.job == j),
            "median_s": times[j], "median_wall_s": wall_times[j],
            "n_iter": o.n_iter, "converged": o.converged,
            "ok": job_ok[j], "gap": o.gap, "feas": o.feas, "cons": o.cons, "error": o.error,
            "reference": vars(refs[id(job.base)]),
        })
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__, "scipy": scipy.__version__,
                "threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}},
        "first_import_s": import_s, "setup": setup, "setups": [s[1] for s in setups],
        "setup_kernel_s": setup_kernel,
        "end_to_end": e2e, "sweep_samples": len(untraced), "jobs": job_rows,
        "wall_sweep_s": sum(wall_times),
        "calibration": {"ref_s": CAL_REF_S, "exponent": CAL_EXPONENT},
        "calls": [[c.job, c.wall, *c.kernel] for c in all_calls],
        "correct": correct, "deterministic": deterministic,
        "trace": trace_doc,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)

    for row in job_rows:
        print(f"{row['job']:28s} calls={row['calls']:3d} median={row['median_s']:8.4f}s "
              f"wall={row['median_wall_s']:8.4f}s iters={row['n_iter']} converged={row['converged']} "
              f"ok={row['ok']} gap={row['gap']} {row['error'] or ''}", file=sys.stderr)
    print(f"env {doc['env']}", file=sys.stderr)
    print(f"sweep={sweep_s:.4f}s wall={doc['wall_sweep_s']:.4f}s from {len(untraced)} calls; "
          f"setup={setup}; first import={import_s:.4f}s; correct={correct}; wrote {path}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
