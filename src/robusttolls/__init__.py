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

from .design import (DesignResult, TollPolytope, dro_objective, epsilon_max, polytope_nonempty,
                     solve_dro_tolls, toll_polytope)
from .equilibrium import (KktBlocks, LatencyModel, NashSolution, equilibrium_latency_g, kkt_blocks,
                          latency_decomposition, nash_flow_closed_form, nash_flow_potential,
                          system_latency)
from .exceptions import (ConvergenceError, FileFormatError, InfeasibleError,
                         InsufficientDataError, InvalidNetworkError, NumericalDegeneracyError,
                         OutOfRegimeError, TollDesignError)
from .harness import CellResult, ExperimentGrid, Scenario, load_scenario, run_experiment
from .network import (Edge, IncidenceData, Network, ValidationReport, incidence, is_feasible_flow,
                      load_network, validate_network)
from .uncertainty import (DisturbanceModel, SampleSet, estimate_nominal, load_samples,
                          sample_uniform_ball, worst_case_mean)

__version__ = "0.1.0"

__all__ = [
    "CellResult", "ConvergenceError", "DesignResult", "DisturbanceModel", "Edge",
    "ExperimentGrid", "FileFormatError", "IncidenceData", "InfeasibleError",
    "InsufficientDataError", "InvalidNetworkError", "KktBlocks", "LatencyModel",
    "NashSolution", "Network", "NumericalDegeneracyError", "OutOfRegimeError",
    "SampleSet", "Scenario", "TollDesignError", "TollPolytope", "ValidationReport",
    "dro_objective", "epsilon_max", "equilibrium_latency_g", "estimate_nominal",
    "incidence", "is_feasible_flow", "kkt_blocks", "latency_decomposition",
    "load_network", "load_samples", "load_scenario", "nash_flow_closed_form",
    "nash_flow_potential", "polytope_nonempty", "run_experiment", "sample_uniform_ball",
    "solve_dro_tolls", "system_latency", "toll_polytope", "validate_network",
    "worst_case_mean",
]
