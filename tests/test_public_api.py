"""The package's public surface is exactly what the pipeline calls.

Names that only tests used were removed; this keeps them from coming back
unnoticed and checks that every exported name imports.
"""

import importlib

import pytest

import robusttolls

PUBLIC = {
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
}

REMOVED = (
    "enumerate_paths", "PathSet", "DEFAULT_MAX_PATHS", "TooManyPathsError",
    "GelbrichPoint", "gelbrich_distance", "in_gelbrich_ball", "support_check",
    "psd_sqrt", "_psd_eigh", "nominal_tolls", "SolveReport", "active_set_qp",
    "STATUS_OPTIMAL", "STATUS_ITERATION_CAP", "FORMATS", "_need", "_check_format",
)

MODULES = ("cli", "design", "equilibrium", "exceptions", "harness", "network", "optim",
           "uncertainty")


def test_all_is_the_public_surface():
    assert sorted(robusttolls.__all__) == sorted(PUBLIC)
    namespace: dict = {}
    exec("from robusttolls import *", namespace)
    assert PUBLIC <= namespace.keys()


@pytest.mark.parametrize("module", MODULES)
def test_removed_names_stay_removed(module):
    loaded = importlib.import_module(f"robusttolls.{module}")
    assert [name for name in REMOVED if hasattr(loaded, name)] == []
    assert [name for name in REMOVED if hasattr(robusttolls, name)] == []


def test_disturbance_model_has_no_point_view():
    assert not hasattr(robusttolls.DisturbanceModel, "as_point")
