"""Command line front end for validation, equilibria, design, and experiments.

Subcommands map one-to-one onto the library layers: ``validate`` and
``equilibrium`` exercise the network and equilibrium modules, ``epsmax``
and ``design`` the design module, ``estimate`` the uncertainty module,
and ``experiment`` the full Monte Carlo grid.  Each subcommand declares
only the options it reads, and argparse refuses any other.  A command
returns its exit code and output, which :func:`main` writes to stdout or
``--out``.  ``--out`` overwrites an existing file in place and cuts it to
the new length, so the file keeps its inode and hard links, and a symlink
is written through; the command never syncs the file.  Exit codes are
part of the contract: 0 on success, 1 when the input fails a domain
rule, 2 when a file or argument cannot be parsed or the output file
cannot be written, 3 on a numerical failure,
printed as ``solver failure:`` when a solver stops short or fails its
certificate (:class:`ConvergenceError`) and as ``numerical failure:``
when floating point cannot carry the computation
(:class:`NumericalDegeneracyError`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import stat
import sys
from typing import Sequence

import numpy as np

from .design import epsilon_max, solve_dro_tolls
from .equilibrium import (LatencyModel, kkt_blocks, nash_flow_closed_form, nash_flow_potential,
                          system_latency)
from .exceptions import (ConvergenceError, FileFormatError, NumericalDegeneracyError,
                         TollDesignError)
from .harness import ExperimentGrid, load_scenario, run_experiment
from .network import _number, _read_json, incidence, load_network, validate_network
from .uncertainty import estimate_nominal, load_samples


def _fmt(value: float) -> str:
    """Shortest round-trip decimal text; identical bytes for identical floats."""
    return repr(float(value))


def _parse_vector(raw: str, length: int, what: str) -> np.ndarray:
    """Parse an inline comma-separated vector, or a JSON file holding one."""
    text = raw.strip()
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        if not os.path.exists(text):
            raise FileFormatError(
                f"{what} is neither a comma-separated vector nor an existing file: {raw!r}") from None
        values = _read_json(text, what)
        if not (isinstance(values, list) and all(map(_number, values))):
            raise FileFormatError(f"{what} file {text} must hold a JSON array of finite numbers")
    vector = np.array(values, dtype=float)
    if vector.shape != (length,) or not np.isfinite(vector).all():
        raise FileFormatError(f"{what} must have {length} finite entries, got {raw!r}")
    return vector


def _finite(text: str) -> float:
    """Argument type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def cmd_validate(args: argparse.Namespace) -> tuple[int, str]:
    net, _ = load_network(args.network)
    report = validate_network(net)
    code = 0 if report.ok else 1
    if args.format == "json":
        return code, json.dumps({"ok": report.ok, "problems": list(report.problems)}, indent=2) + "\n"
    if report.ok:
        return code, (f"network ok: {net.num_nodes} nodes, {net.num_edges} edges, "
                      f"demand {net.demand:g}\n")
    lines = ["network invalid:"] + [f"  - {p}" for p in report.problems]
    return code, "\n".join(lines) + "\n"


def cmd_equilibrium(args: argparse.Namespace) -> tuple[int, str]:
    net, betas = load_network(args.network)
    inc = incidence(net)
    lat = LatencyModel(betas)
    alpha = _parse_vector(args.alpha, net.num_edges, "--alpha")
    tau = (np.zeros(net.num_edges) if args.tau is None
           else _parse_vector(args.tau, net.num_edges, "--tau"))

    solutions = {}
    closed_note = None
    if args.method in ("closed", "both"):
        try:
            solutions["closed"] = nash_flow_closed_form(kkt_blocks(inc, lat), alpha, tau)
        except TollDesignError as err:
            if args.method == "closed":
                raise
            closed_note = str(err)
    if args.method in ("potential", "both"):
        solutions["potential"] = nash_flow_potential(inc, lat, alpha, tau)

    payload: dict[str, object] = {"edge_ids": list(net.edge_ids())}
    for name, sol in solutions.items():
        payload[name] = {
            "flow": [float(v) for v in sol.flow],
            "perceived_cost": [float(v) for v in lat.beta * sol.flow + alpha + tau],
            "node_potentials": [float(v) for v in sol.node_potentials],
            "system_latency": system_latency(sol.flow, lat, alpha),
        }
    if closed_note is not None:
        payload["closed_note"] = closed_note
    if len(solutions) == 2:
        payload["max_flow_difference"] = float(
            np.abs(solutions["closed"].flow - solutions["potential"].flow).max())

    if args.format == "json":
        return 0, json.dumps(payload, indent=2) + "\n"
    lines = []
    for name, sol in solutions.items():
        block = payload[name]
        lines.append(f"{name} equilibrium")
        lines.append(f"  {'edge':>8} {'flow':>14} {'cost':>14}")
        for eid, f, cst in zip(net.edge_ids(), block["flow"], block["perceived_cost"]):
            lines.append(f"  {eid:>8} {f:>14.6f} {cst:>14.6f}")
        lines.append(f"  system latency: {block['system_latency']:.6f}")
    if closed_note is not None:
        lines.append(f"closed form unavailable: {closed_note}")
    if "max_flow_difference" in payload:
        lines.append(f"max flow difference: {payload['max_flow_difference']:.3e}")
    return 0, "\n".join(lines) + "\n"


def _scenario_blocks(path: str):
    scenario = load_scenario(path)
    return scenario, kkt_blocks(incidence(scenario.network), scenario.lat)


def cmd_epsmax(args: argparse.Namespace) -> tuple[int, str]:
    scenario, blocks = _scenario_blocks(args.scenario)
    value, certificate = epsilon_max(blocks, scenario.model)
    finite = bool(np.isfinite(value))
    if args.format == "json":
        payload = {
            "epsilon_max": value if finite else None,
            "finite": finite,
            "certificate": None if certificate is None else [float(v) for v in certificate],
            "edge_ids": list(scenario.network.edge_ids()),
        }
        return 0, json.dumps(payload, indent=2) + "\n"
    lines = [f"epsilon_max: {value:.12g}"]
    if certificate is not None:
        pairs = " ".join(f"{eid}={v:.6g}" for eid, v in zip(scenario.network.edge_ids(), certificate))
        lines.append(f"certificate toll: {pairs}")
    else:
        lines.append("every radius is admissible (single-route network)")
    return 0, "\n".join(lines) + "\n"


def cmd_design(args: argparse.Namespace) -> tuple[int, str]:
    scenario, blocks = _scenario_blocks(args.scenario)
    result = solve_dro_tolls(blocks, scenario.model, args.eps)
    if args.format == "json":
        payload = {
            "eps": result.eps,
            "tau_star": [float(v) for v in result.tau_star],
            "edge_ids": list(scenario.network.edge_ids()),
            "objective": result.objective,
            "worst_case_latency": result.worst_case_latency,
            "iterations": result.iterations,
            "residual": result.residual,
        }
        return 0, json.dumps(payload, indent=2) + "\n"
    pairs = " ".join(f"{eid}={v:.6g}" for eid, v in zip(scenario.network.edge_ids(), result.tau_star))
    lines = [
        f"designed tolls (eps={result.eps:g}): {pairs}",
        f"objective: {result.objective:.6f}",
        f"worst-case expected latency: {result.worst_case_latency:.6f}",
        f"solver: {result.iterations} iterations, gap {result.residual:.3e}",
    ]
    return 0, "\n".join(lines) + "\n"


def cmd_estimate(args: argparse.Namespace) -> tuple[int, str]:
    net, betas = load_network(args.network)
    samples = load_samples(args.samples, net.edge_ids())
    model = estimate_nominal(samples, LatencyModel(betas), args.delta)
    if args.format == "json":
        payload = {
            "edge_ids": list(net.edge_ids()),
            "mean": [float(v) for v in model.mean],
            "cov": [[float(v) for v in row] for row in model.cov],
            "support_radius": model.support_radius,
            "records": samples.num_records,
        }
        return 0, json.dumps(payload, indent=2) + "\n"
    lines = [f"estimated from {samples.num_records} records"]
    lines.append("mean: " + " ".join(f"{eid}={v:.6g}" for eid, v in zip(net.edge_ids(), model.mean)))
    lines.append("cov:")
    for row in model.cov:
        lines.append("  " + " ".join(f"{v:>12.6g}" for v in row))
    lines.append(f"support radius: {model.support_radius:g}")
    return 0, "\n".join(lines) + "\n"


def _experiment_csv(grid: ExperimentGrid) -> str:
    header = ["eps", "eps_hat", "g_bar", "stderr", "expectation"]
    header += [f"tau_{eid}" for eid in grid.edge_ids]
    lines = [",".join(header)]
    for cell in grid.cells:
        row = [_fmt(cell.eps), _fmt(cell.eps_hat), _fmt(cell.estimate), _fmt(cell.stderr),
               _fmt(cell.expectation)] + [_fmt(v) for v in cell.tau_star]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _experiment_json(grid: ExperimentGrid) -> str:
    payload = {
        "grid": list(grid.grid),
        "mc_samples": grid.mc_samples,
        "seed": grid.seed,
        "edge_ids": list(grid.edge_ids),
        "cells": [
            {
                "eps": cell.eps,
                "eps_hat": cell.eps_hat,
                "g_bar": cell.estimate,
                "stderr": cell.stderr,
                "expectation": cell.expectation,
                "tau_star": [float(v) for v in cell.tau_star],
            }
            for cell in grid.cells
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _experiment_text(grid: ExperimentGrid) -> str:
    k = len(grid.grid)
    head = "eps \\ eps_hat"
    lines = [f"worst-case expected equilibrium latency "
             f"(N={grid.mc_samples}, seed={grid.seed})"]
    lines.append("Monte Carlo estimates")
    lines.append(f"{head:>14}" + "".join(f"{e:>12g}" for e in grid.grid))
    for i, eps in enumerate(grid.grid):
        row = "".join(f"{grid.cell(i, j).estimate:>12.2f}" for j in range(k))
        lines.append(f"{eps:>14g}" + row)
    lines.append("closed-form expectations")
    lines.append(f"{head:>14}" + "".join(f"{e:>12g}" for e in grid.grid))
    for i, eps in enumerate(grid.grid):
        row = "".join(f"{grid.cell(i, j).expectation:>12.2f}" for j in range(k))
        lines.append(f"{eps:>14g}" + row)
    lines.append("designed tolls")
    for j, eps_hat in enumerate(grid.grid):
        pairs = " ".join(f"{eid}={v:.6g}" for eid, v in zip(grid.edge_ids, grid.cell(0, j).tau_star))
        lines.append(f"  eps_hat={eps_hat:g}: {pairs}")
    return "\n".join(lines) + "\n"


def cmd_experiment(args: argparse.Namespace) -> tuple[int, str]:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    render = {"csv": _experiment_csv, "json": _experiment_json, "text": _experiment_text}
    return 0, render[args.format](run_experiment(scenario))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robusttolls",
        description="Design congestion tolls that stay good under disturbance uncertainty.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def command(name, func, help, source, formats=("json", "text")):
        p = sub.add_parser(name, help=help)
        p.add_argument(f"--{source}", required=True, help=f"{source} JSON file")
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument("--format", choices=formats, default="text", help="output format")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "check a network file's structure", "network")

    p = command("equilibrium", cmd_equilibrium, "compute an equilibrium flow", "network")
    p.add_argument("--alpha", required=True, help="disturbance vector (comma list or JSON file)")
    p.add_argument("--tau", help="toll vector (comma list or JSON file), default zero")
    p.add_argument("--method", choices=("closed", "potential", "both"), default="both")

    command("epsmax", cmd_epsmax, "largest admissible ambiguity radius", "scenario")

    p = command("design", cmd_design, "design robust tolls at a radius", "scenario")
    p.add_argument("--eps", type=_finite, required=True, help="anticipated ambiguity radius")

    p = command("estimate", cmd_estimate, "estimate disturbance moments from samples", "network")
    p.add_argument("--samples", required=True, help="sample CSV file")
    p.add_argument("--delta", type=_finite, required=True,
                   help="support radius of the disturbance")

    p = command("experiment", cmd_experiment, "run the worst-case latency grid", "scenario",
                formats=("csv", "json", "text"))
    p.add_argument("--seed", type=int, help="override the scenario's Monte Carlo seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        code, content = args.func(args)
    except FileFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalDegeneracyError) as err:
        cause = "solver" if isinstance(err, ConvergenceError) else "numerical"
        print(f"{cause} failure: {err}", file=sys.stderr)
        return 3
    except (TollDesignError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(content)
        return code
    try:
        # Write over the old bytes and then cut the file to its new length.
        # Opening with O_TRUNC instead makes ext4 (auto_da_alloc) flush the
        # file to disk.  Devices and pipes cannot be cut, and need not be.
        fd = os.open(args.out, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                handle.truncate()
    except OSError as err:
        # The OS error's own text repeats the path; its strerror does not.
        print(f"error: cannot write output file {args.out}: {err.strerror}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
