"""Scenario files and the worst-case-latency experiment grid.

A scenario bundles everything one run needs: the network file, the
disturbance description (inline moments or a sample CSV to estimate them
from), the list of ambiguity radii, and the Monte Carlo configuration.
The experiment crosses anticipated radii (the design column) with actual
radii (the adversary row): for each anticipated radius it designs tolls
once, then for each actual radius it simulates disturbances from the
worst-case mean shift at that radius and compares the Monte Carlo
latency average against the closed-form expectation.  Each cell streams
its draws in blocks of unit-ball pieces (directions, their norms and
radius factors), projects each block straight onto the cell's latency
slope without forming the ball points, and adds the projections into
running sums.  The cells always run on one thread pool, one worker
per usable CPU at most; every cell is computed whole by one thread from
its own seed, so the results do not depend on the number of threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .design import _ceiling, solve_dro_tolls
from .equilibrium import LatencyModel, _regime_floor, kkt_blocks, latency_decomposition
from .exceptions import FileFormatError, OutOfRegimeError
from .network import Network, _number, _read_json, _require, incidence, load_network
from .uncertainty import (DisturbanceModel, _ball_blocks, _check_radius, _is_whole, _shifted_mean,
                          estimate_nominal, load_samples)


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


def load_scenario(path: str) -> Scenario:
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
    the network or sample file it points to; moments that
    ``DisturbanceModel`` refuses raise ``ValueError`` naming the scenario.
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
    try:
        model = (estimate_nominal(samples, lat, delta) if "samples" in dist else
                 DisturbanceModel(mean=np.array(mean, dtype=float), cov=cov, support_radius=delta))
    except ValueError as err:
        raise ValueError(f"{where}: bad 'disturbance': {err}") from err

    grid = raw["grid"]
    _require(isinstance(grid, list) and grid != [] and all(map(_number, grid)), where,
             "'grid' must be a nonempty list of finite numbers")
    grid = tuple(float(v) for v in grid)
    _require(type(raw["mc_samples"]) is int and raw["mc_samples"] >= 1, where,
             "'mc_samples' must be a positive integer")
    _require(type(raw["seed"]) is int and raw["seed"] >= 0, where,
             "'seed' must be a nonnegative integer")
    return Scenario(network=net, lat=lat, model=model, grid=grid,
                    mc_samples=int(raw["mc_samples"]), seed=int(raw["seed"]))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cell_moments(center: np.ndarray, delta: float, q: np.ndarray, q0: float,
                  count: int, seed: tuple[int, ...]) -> tuple[float, float]:
    """Mean and standard error of ``q @ draw + q0`` over one cell's ball draws.

    A draw is ``center + delta * z`` with ``z = scale * direction / norm``
    a point of the unit ball, so its value is ``(q @ center + q0) + delta
    * (q @ z)``: each block of unit-ball pieces from :func:`_ball_blocks`
    is projected onto ``q`` as ``scale * (direction @ q) / norm``, and no
    draw is ever formed.  Only running sums of ``v = q @ z`` and ``v**2``
    are kept, so no array of ``count`` values is held.  The values are
    symmetric about zero (Gaussian directions), so their mean is small
    next to their spread, and ``sum v**2 - mean sum v`` loses no digits.
    """
    base = float(center @ q) + q0
    total, squares = 0.0, 0.0
    for direction, norms, scale in _ball_blocks(center.shape[0], count, seed):
        values = direction @ q
        values /= norms
        values *= scale
        total += float(values.sum())
        squares += float(values @ values)
    mean = total / count
    spread = float(np.sqrt((squares - mean * total) / (count - 1))) if count > 1 else 0.0
    return base + delta * mean, delta * spread / float(np.sqrt(count))


def run_experiment(scenario: Scenario) -> ExperimentGrid:
    """Design tolls per anticipated radius and Monte Carlo the whole grid.

    Before any design or simulation work starts, ``ValueError`` refuses an
    empty grid, a grid radius that is negative or not finite, an
    ``mc_samples`` that is not a positive integer and a ``seed`` that is
    not a nonnegative integer, and ``design._ceiling``, the gate of
    ``solve_dro_tolls``, refuses the grid radii past the robustness
    ceiling.  Cell (i, j) draws
    ``mc_samples`` disturbances uniformly from the support ball centered
    at the worst-case mean for actual radius ``grid[i]`` under the tolls
    designed for anticipated radius ``grid[j]``, streams them through the
    affine latency decomposition, and records the sample mean, its
    standard error, and the closed-form expectation.  That decomposition
    holds only while every edge carries flow, so before any sampling each
    cell's lowest closed-form flow over its whole support ball,
    ``(c - gamma (center + tau))_e - delta ||gamma_e||``, is checked; if
    any falls below round-off (``equilibrium._regime_floor``, which scales
    with the demand), :class:`OutOfRegimeError` carries the lowest such
    flow over the grid and names its cell.

    The stream for each cell is seeded by ``(seed, i, j)``, so cells are
    reproducible in isolation and the full table is byte-stable across
    runs.  Each cell's draws are projected onto its latency slope block
    by block, without forming ball points, and added into running
    sums, never held whole.  The cells always run on one thread pool
    with one worker per usable CPU at most, even when that is one; each
    cell is computed by one thread in a fixed order, so the results do
    not depend on the number of threads.
    """
    if not scenario.grid:
        raise ValueError("the grid needs at least one radius")
    for eps in scenario.grid:
        _check_radius(eps, "grid radius")
    if not _is_whole(scenario.mc_samples) or scenario.mc_samples < 1:
        raise ValueError(f"mc_samples must be a positive integer, got {scenario.mc_samples!r}")
    if not _is_whole(scenario.seed) or scenario.seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {scenario.seed!r}")
    blocks = kkt_blocks(incidence(scenario.network), scenario.lat)
    model, delta = scenario.model, scenario.model.support_radius
    _ceiling(blocks, model, scenario.grid)

    tolls = [solve_dro_tolls(blocks, model, eps_hat).tau_star for eps_hat in scenario.grid]
    slopes = [latency_decomposition(blocks, tau) for tau in tolls]

    reach = delta * np.linalg.norm(blocks.gamma, axis=1)
    jobs, heads, outside = [], [], []
    for i, eps in enumerate(scenario.grid):
        for j, (tau, (q, q0)) in enumerate(zip(tolls, slopes)):
            center = _shifted_mean(model, q, eps)
            flow = float((blocks.c - blocks.gamma @ (center + tau) - reach).min())
            if flow < -_regime_floor(blocks, center + tau):
                outside.append((flow, eps, scenario.grid[j]))
            jobs.append((center, delta, q, q0, scenario.mc_samples, (scenario.seed, i, j)))
            expectation = float(eps * np.linalg.norm(q) + q @ model.mean + q0)
            heads.append((eps, scenario.grid[j], expectation, tau))
    if outside:
        lowest, eps, eps_hat = min(outside)
        raise OutOfRegimeError(
            f"experiment cell eps={eps:g}, eps_hat={eps_hat:g} leaves the closed-form "
            f"regime: its lowest flow over the support ball is {lowest:.6g}", lowest)

    # Imported here: it would add several milliseconds to every import of the package.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(len(jobs), _usable_cpus())) as pool:
        moments = list(pool.map(_cell_moments, *zip(*jobs)))
    cells = tuple(CellResult(eps=eps, eps_hat=eps_hat, estimate=estimate, stderr=stderr,
                             expectation=expectation, tau_star=tau)
                  for (eps, eps_hat, expectation, tau), (estimate, stderr) in zip(heads, moments))
    return ExperimentGrid(grid=scenario.grid, cells=cells, edge_ids=scenario.network.edge_ids(),
                          mc_samples=scenario.mc_samples, seed=scenario.seed)
