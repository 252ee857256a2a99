"""Distributionally robust congestion toll design on single-commodity networks.

The pipeline: describe a directed network with linear edge latencies
(:mod:`robusttolls.network`), factor its equilibrium system once
(:mod:`robusttolls.equilibrium`), estimate or state the disturbance
moments and their ambiguity (:mod:`robusttolls.uncertainty`), then design
tolls whose worst-case expected equilibrium latency over a moment
ambiguity ball is minimal (:mod:`robusttolls.design`).
:mod:`robusttolls.harness` crosses anticipated against actual ambiguity
radii in a Monte Carlo grid, and :mod:`robusttolls.cli` exposes all of it
as the ``robusttolls`` command.
"""

from .design import (DesignResult, TollPolytope, dro_objective, epsilon_max, nominal_tolls,
                     polytope_nonempty, solve_dro_tolls, toll_polytope)
from .equilibrium import (KktBlocks, LatencyModel, NashSolution, equilibrium_latency_g, kkt_blocks,
                          latency_decomposition, nash_flow_closed_form, nash_flow_potential,
                          system_latency)
from .exceptions import (ConvergenceError, FileFormatError, InfeasibleError,
                         InsufficientDataError, InvalidNetworkError, NumericalDegeneracyError,
                         OutOfRegimeError, TollDesignError, TooManyPathsError)
from .harness import CellResult, ExperimentGrid, Scenario, load_scenario, run_experiment
from .network import (Edge, IncidenceData, Network, PathSet, ValidationReport, enumerate_paths,
                      incidence, is_feasible_flow, load_network, validate_network)
from .optim import SolveReport, psd_sqrt
from .uncertainty import (DisturbanceModel, GelbrichPoint, SampleSet, estimate_nominal,
                          gelbrich_distance, in_gelbrich_ball, load_samples, sample_uniform_ball,
                          support_check, worst_case_mean)

__version__ = "0.1.0"

__all__ = [
    "CellResult", "ConvergenceError", "DesignResult", "DisturbanceModel", "Edge",
    "ExperimentGrid", "FileFormatError", "GelbrichPoint", "IncidenceData", "InfeasibleError",
    "InsufficientDataError", "InvalidNetworkError", "KktBlocks", "LatencyModel",
    "NashSolution", "Network", "NumericalDegeneracyError", "OutOfRegimeError", "PathSet",
    "SampleSet", "Scenario", "SolveReport", "TollDesignError", "TollPolytope",
    "TooManyPathsError", "ValidationReport", "dro_objective", "enumerate_paths",
    "epsilon_max", "equilibrium_latency_g", "estimate_nominal", "gelbrich_distance",
    "in_gelbrich_ball", "incidence", "is_feasible_flow", "kkt_blocks", "latency_decomposition",
    "load_network", "load_samples", "load_scenario", "nash_flow_closed_form",
    "nash_flow_potential", "nominal_tolls", "polytope_nonempty",
    "psd_sqrt", "run_experiment", "sample_uniform_ball", "solve_dro_tolls",
    "support_check", "system_latency", "toll_polytope", "validate_network",
    "worst_case_mean",
]
