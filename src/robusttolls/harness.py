"""Scenario files and the worst-case-latency experiment grid.

A scenario bundles everything one run needs: the network file, the
disturbance description (inline moments or a sample CSV to estimate them
from), the list of ambiguity radii, and the Monte Carlo configuration.
The experiment crosses anticipated radii (the design column) with actual
radii (the adversary row): for each anticipated radius it designs tolls
once, then for each actual radius it simulates disturbances from the
worst-case mean shift at that radius and compares the Monte Carlo
latency average against the closed-form expectation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .design import epsilon_max, solve_dro_tolls
from .equilibrium import LatencyModel, kkt_blocks, latency_decomposition
from .exceptions import FileFormatError, InfeasibleError
from .network import Network, incidence, load_network
from .uncertainty import DisturbanceModel, estimate_nominal, load_samples, sample_uniform_ball, worst_case_mean


@dataclass(frozen=True)
class Scenario:
    """A fully resolved experiment description."""

    network: Network
    lat: LatencyModel
    model: DisturbanceModel
    grid: tuple[float, ...]
    mc_samples: int
    seed: int


@dataclass(frozen=True)
class CellResult:
    """One grid cell: actual radius ``eps`` against anticipated ``eps_hat``."""

    eps: float
    eps_hat: float
    estimate: float
    stderr: float
    expectation: float
    tau_star: np.ndarray


@dataclass(frozen=True)
class ExperimentGrid:
    """The full cross of actual and anticipated radii, row-major cells."""

    grid: tuple[float, ...]
    cells: tuple[CellResult, ...]
    edge_ids: tuple[str, ...]
    mc_samples: int
    seed: int

    def cell(self, i: int, j: int) -> CellResult:
        return self.cells[i * len(self.grid) + j]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise FileFormatError(message)


def _number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_scenario(path: str, seed_override: int | None = None) -> Scenario:
    """Load a scenario JSON file, resolving its network and disturbance.

    Expected shape::

        {"network": "net.json",
         "disturbance": {"mean": [...], "cov": [[...]], "delta": 0.2},
         "grid": [0.0, 10.0, 20.0, 30.0],
         "mc_samples": 10000,
         "seed": 42}

    ``disturbance`` may instead name a sample CSV:
    ``{"samples": "records.csv", "delta": 0.2}``, in which case the
    moments are estimated from the residuals.  Relative paths resolve
    against the scenario file's directory.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as err:
        raise FileFormatError(f"cannot read scenario file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise FileFormatError(f"scenario file {path} is not valid JSON: {err}") from err

    _require(isinstance(raw, dict), "scenario file must hold a JSON object")
    for key in ("network", "disturbance", "grid", "mc_samples", "seed"):
        _require(key in raw, f"scenario file is missing the '{key}' field")
    _require(isinstance(raw["network"], str), "'network' must be a path string")
    base = os.path.dirname(os.path.abspath(path))
    network_path = os.path.join(base, raw["network"])
    net, betas = load_network(network_path)
    lat = LatencyModel(betas)

    dist = raw["disturbance"]
    _require(isinstance(dist, dict), "'disturbance' must be an object")
    _require(_number(dist.get("delta")), "disturbance needs a numeric 'delta'")
    delta = float(dist["delta"])
    if "samples" in dist:
        _require(isinstance(dist["samples"], str), "'samples' must be a path string")
        samples = load_samples(os.path.join(base, dist["samples"]), net.edge_ids())
        model = estimate_nominal(samples, lat, delta)
    else:
        for key in ("mean", "cov"):
            _require(key in dist, f"inline disturbance needs '{key}' (or use 'samples')")
        _require(isinstance(dist["mean"], list) and all(_number(v) for v in dist["mean"]),
                 "'mean' must be a list of numbers")
        _require(isinstance(dist["cov"], list), "'cov' must be a matrix (list of rows)")
        mean = np.array([float(v) for v in dist["mean"]])
        try:
            cov = np.array(dist["cov"], dtype=float)
        except (TypeError, ValueError) as err:
            raise FileFormatError(f"'cov' is not a numeric matrix: {err}") from None
        _require(mean.shape[0] == net.num_edges,
                 f"'mean' must have one entry per edge ({net.num_edges})")
        model = DisturbanceModel(mean=mean, cov=cov, support_radius=delta)

    _require(isinstance(raw["grid"], list) and raw["grid"] != []
             and all(_number(v) for v in raw["grid"]), "'grid' must be a nonempty list of numbers")
    grid = tuple(float(v) for v in raw["grid"])
    _require(isinstance(raw["mc_samples"], int) and not isinstance(raw["mc_samples"], bool)
             and raw["mc_samples"] >= 1, "'mc_samples' must be a positive integer")
    _require(isinstance(raw["seed"], int) and not isinstance(raw["seed"], bool),
             "'seed' must be an integer")
    seed = int(raw["seed"]) if seed_override is None else int(seed_override)
    return Scenario(network=net, lat=lat, model=model, grid=grid,
                    mc_samples=int(raw["mc_samples"]), seed=seed)


def run_experiment(scenario: Scenario) -> ExperimentGrid:
    """Design tolls per anticipated radius and Monte Carlo the whole grid.

    Every grid value is checked against the robustness ceiling before any
    design or simulation work starts.  Cell (i, j) draws
    ``mc_samples`` disturbances uniformly from the support ball centered
    at the worst-case mean for actual radius ``grid[i]`` under the tolls
    designed for anticipated radius ``grid[j]``, streams them through the
    affine latency decomposition, and records the sample mean, its
    standard error, and the closed-form expectation.  The stream for each
    cell is seeded by ``(seed, i, j)``, so cells are reproducible in
    isolation and the full table is byte-stable across runs.
    """
    inc = incidence(scenario.network)
    blocks = kkt_blocks(inc, scenario.lat)
    model = scenario.model

    if any(e < 0.0 for e in scenario.grid):
        raise ValueError("grid radii must be nonnegative")
    ceiling, _ = epsilon_max(blocks, model)
    too_big = [e for e in scenario.grid if e > ceiling + 1e-9]
    if too_big:
        raise InfeasibleError(
            f"grid radii {too_big} exceed the robustness ceiling {ceiling:g}",
            epsilon_max=ceiling)

    designs = [solve_dro_tolls(blocks, model, eps_hat) for eps_hat in scenario.grid]

    delta = model.support_radius
    cells: list[CellResult] = []
    for i, eps in enumerate(scenario.grid):
        for j, _eps_hat in enumerate(scenario.grid):
            tau = designs[j].tau_star
            q, q0 = latency_decomposition(blocks, tau)
            center = worst_case_mean(blocks, tau, model, eps)
            draws = sample_uniform_ball(center, delta, scenario.mc_samples,
                                        seed=(scenario.seed, i, j))
            values = draws @ q + q0
            estimate = float(values.mean())
            spread = float(values.std(ddof=1)) if values.size > 1 else 0.0
            stderr = spread / float(np.sqrt(values.size))
            expectation = float(eps * np.linalg.norm(q) + q @ model.mean + q0)
            cells.append(CellResult(eps=eps, eps_hat=scenario.grid[j], estimate=estimate,
                                    stderr=stderr, expectation=expectation, tau_star=tau))
    return ExperimentGrid(grid=scenario.grid, cells=tuple(cells),
                          edge_ids=scenario.network.edge_ids(),
                          mc_samples=scenario.mc_samples, seed=scenario.seed)
