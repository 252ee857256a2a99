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

import os
from dataclasses import dataclass

import numpy as np

from .design import epsilon_max, solve_dro_tolls
from .equilibrium import LatencyModel, kkt_blocks, latency_decomposition
from .exceptions import FileFormatError, InfeasibleError
from .network import Network, _number, _read_json, _require, incidence, load_network
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
    against the scenario file's directory.  Schema problems raise
    :class:`FileFormatError` naming the file at fault: the scenario, or
    the network or sample file it points to.
    """
    raw = _read_json(path, "scenario")
    where = f"scenario file {path}"
    _require(isinstance(raw, dict), where, "must hold a JSON object")
    for key in ("network", "disturbance", "grid", "mc_samples", "seed"):
        _require(key in raw, where, f"missing the '{key}' field")
    _require(isinstance(raw["network"], str), where, "'network' must be a path string")
    base = os.path.dirname(os.path.abspath(path))
    network_path = os.path.join(base, raw["network"])
    net, betas = load_network(network_path)
    lat = LatencyModel(betas)

    dist = raw["disturbance"]
    _require(isinstance(dist, dict), where, "'disturbance' must be an object")
    _require(_number(dist.get("delta")), where, "disturbance needs a finite numeric 'delta'")
    delta = float(dist["delta"])
    if "samples" in dist:
        _require(isinstance(dist["samples"], str), where, "'samples' must be a path string")
        samples = load_samples(os.path.join(base, dist["samples"]), net.edge_ids())
        model = estimate_nominal(samples, lat, delta)
    else:
        for key in ("mean", "cov"):
            _require(key in dist, where, f"inline disturbance needs '{key}' (or use 'samples')")
        m = net.num_edges
        mean, rows = dist["mean"], dist["cov"]
        _require(isinstance(mean, list) and len(mean) == m and all(map(_number, mean)), where,
                 f"'mean' must be a list of finite numbers, one per edge ({m})")
        try:
            cov = np.array(rows, dtype=float)
        except (TypeError, ValueError, OverflowError) as err:
            raise FileFormatError(f"{where}: 'cov' is not a numeric matrix: {err}") from None
        _require(cov.shape == (m, m) and np.isfinite(cov).all(), where,
                 f"'cov' must be a {m}x{m} matrix (list of rows) of finite numbers")
        model = DisturbanceModel(mean=np.array(mean, dtype=float), cov=cov, support_radius=delta)

    grid = raw["grid"]
    _require(isinstance(grid, list) and grid != [] and all(map(_number, grid)), where,
             "'grid' must be a nonempty list of finite numbers")
    grid = tuple(float(v) for v in grid)
    _require(type(raw["mc_samples"]) is int and raw["mc_samples"] >= 1, where,
             "'mc_samples' must be a positive integer")
    _require(type(raw["seed"]) is int, where, "'seed' must be an integer")
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
