"""Network utility maximization via source-destination aggregate flows.

Reduces a K-flow rate allocation problem to an N-class aggregate problem,
solves the aggregate with first-order methods (ADMM, Chambolle-Pock,
gradient projection), and apportions aggregate rates back to flows in
closed form. Includes multipath allocation, a piecewise-linear utility
algebra, topology generators, a reference oracle, and a benchmark CLI.
"""

from .errors import NumflowError
from .netmodel import (
    FlowClass,
    Instance,
    Link,
    Network,
    RoutingMatrix,
    dijkstra_path,
    gen_instance,
    iridium_topology,
    routing_matrix,
    small_topology,
)
from .pwl import PwlConcave, pwl_apportion, pwl_conjugate, pwl_eval, pwl_supconv
from .utility import (
    ClassUtility,
    NegPower,
    PwlUtility,
    Quadratic,
    WeightedLog,
    aggregate_class,
    apportion,
    conjugate_derivative,
    evaluate,
    kkt_check,
    kkt_check_single_path,
)
from .solvers import (
    SolverParams,
    Solution,
    admm_u_update,
    cp_prox_f,
    cp_prox_gstar,
    project_polytope,
    solve_admm,
    solve_cp,
    solve_gradproj,
    solve_pwl_aggregate,
    spd_prefactor,
)
from .multipath import (
    allocate_subflows,
    gen_multipath_instance,
    k_paths,
    kkt_check_multipath,
    solve_multipath,
    solve_multipath_aggregate,
)
from .harness import (VERSION as __version__, ExperimentConfig, Report, emit_report, oracle_solve,
                      run_experiment)
