"""Command line front end for validation, equilibria, design, and experiments.

Subcommands map one-to-one onto the library layers: ``validate`` and
``equilibrium`` exercise the network and equilibrium modules, ``epsmax``
and ``design`` the design module, ``estimate`` the uncertainty module,
and ``experiment`` the full Monte Carlo grid.  Exit codes are part of
the contract: 0 on success, 1 when the input fails a domain rule, 2 when
a file or argument cannot be parsed, 3 when a solver gives up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

import numpy as np

from .design import DesignResult, epsilon_max, solve_dro_tolls
from .equilibrium import (LatencyModel, kkt_blocks, nash_flow_closed_form, nash_flow_potential,
                          system_latency)
from .exceptions import (ConvergenceError, FileFormatError, NumericalDegeneracyError,
                         TollDesignError)
from .harness import ExperimentGrid, load_scenario, run_experiment
from .network import _number, _read_json, incidence, load_network, validate_network
from .uncertainty import estimate_nominal, load_samples

FORMATS = ("csv", "json", "text")


def _fmt(value: float) -> str:
    """Shortest round-trip decimal text; identical bytes for identical floats."""
    return repr(float(value))


def _emit(content: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(content)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)


def _need(args: argparse.Namespace, attr: str, flag: str, command: str) -> str:
    value = getattr(args, attr)
    if value is None:
        raise FileFormatError(f"'{command}' needs {flag}")
    return value


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


def _check_format(fmt: str, allowed: tuple[str, ...], command: str) -> None:
    if fmt not in allowed:
        raise FileFormatError(f"'{command}' supports --format {'/'.join(allowed)}, not {fmt}")


def cmd_validate(args: argparse.Namespace) -> int:
    net, _ = load_network(_need(args, "network", "--network", "validate"))
    _check_format(args.format, ("json", "text"), "validate")
    report = validate_network(net)
    if args.format == "json":
        _emit(json.dumps({"ok": report.ok, "problems": list(report.problems)}, indent=2) + "\n",
              args.out)
    elif report.ok:
        _emit(f"network ok: {net.num_nodes} nodes, {net.num_edges} edges, "
              f"demand {net.demand:g}\n", args.out)
    else:
        lines = ["network invalid:"] + [f"  - {p}" for p in report.problems]
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if report.ok else 1


def cmd_equilibrium(args: argparse.Namespace) -> int:
    net, betas = load_network(_need(args, "network", "--network", "equilibrium"))
    _check_format(args.format, ("json", "text"), "equilibrium")
    inc = incidence(net)
    lat = LatencyModel(betas)
    alpha = _parse_vector(_need(args, "alpha", "--alpha", "equilibrium"), net.num_edges, "--alpha")
    tau = (np.zeros(net.num_edges) if args.tau is None
           else _parse_vector(args.tau, net.num_edges, "--tau"))

    solutions = {}
    closed_note = None
    if args.method in ("closed", "both"):
        blocks = kkt_blocks(inc, lat)
        if args.method == "closed":
            solutions["closed"] = nash_flow_closed_form(blocks, alpha, tau)
        else:
            try:
                solutions["closed"] = nash_flow_closed_form(blocks, alpha, tau)
            except TollDesignError as err:
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
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
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
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _scenario_blocks(args: argparse.Namespace, command: str):
    scenario = load_scenario(_need(args, "scenario", "--scenario", command),
                             seed_override=args.seed)
    blocks = kkt_blocks(incidence(scenario.network), scenario.lat)
    return scenario, blocks


def cmd_epsmax(args: argparse.Namespace) -> int:
    _check_format(args.format, ("json", "text"), "epsmax")
    scenario, blocks = _scenario_blocks(args, "epsmax")
    value, certificate = epsilon_max(blocks, scenario.model)
    finite = bool(np.isfinite(value))
    if args.format == "json":
        payload = {
            "epsilon_max": value if finite else None,
            "finite": finite,
            "certificate": None if certificate is None else [float(v) for v in certificate],
            "edge_ids": list(scenario.network.edge_ids()),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"epsilon_max: {value:.12g}"]
    if certificate is not None:
        pairs = " ".join(f"{eid}={v:.6g}" for eid, v in zip(scenario.network.edge_ids(), certificate))
        lines.append(f"certificate toll: {pairs}")
    else:
        lines.append("every radius is admissible (single-route network)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _design_payload(result: DesignResult, edge_ids: tuple[str, ...]) -> dict[str, object]:
    return {
        "eps": result.eps,
        "tau_star": [float(v) for v in result.tau_star],
        "edge_ids": list(edge_ids),
        "objective": result.objective,
        "worst_case_latency": result.worst_case_latency,
        "iterations": result.iterations,
        "residual": result.residual,
    }


def cmd_design(args: argparse.Namespace) -> int:
    _check_format(args.format, ("json", "text"), "design")
    if not np.isfinite(args.eps):
        raise FileFormatError(f"--eps must be a finite number, got {args.eps!r}")
    scenario, blocks = _scenario_blocks(args, "design")
    result = solve_dro_tolls(blocks, scenario.model, args.eps)
    if args.format == "json":
        _emit(json.dumps(_design_payload(result, scenario.network.edge_ids()), indent=2) + "\n",
              args.out)
        return 0
    pairs = " ".join(f"{eid}={v:.6g}" for eid, v in zip(scenario.network.edge_ids(), result.tau_star))
    lines = [
        f"designed tolls (eps={result.eps:g}): {pairs}",
        f"objective: {result.objective:.6f}",
        f"worst-case expected latency: {result.worst_case_latency:.6f}",
        f"solver: {result.iterations} iterations, gap {result.residual:.3e}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    _check_format(args.format, ("json", "text"), "estimate")
    net, betas = load_network(_need(args, "network", "--network", "estimate"))
    samples = load_samples(_need(args, "samples", "--samples", "estimate"), net.edge_ids())
    model = estimate_nominal(samples, LatencyModel(betas), args.delta)
    if args.format == "json":
        payload = {
            "edge_ids": list(net.edge_ids()),
            "mean": [float(v) for v in model.mean],
            "cov": [[float(v) for v in row] for row in model.cov],
            "support_radius": model.support_radius,
            "records": samples.num_records,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0
    lines = [f"estimated from {samples.num_records} records"]
    lines.append("mean: " + " ".join(f"{eid}={v:.6g}" for eid, v in zip(net.edge_ids(), model.mean)))
    lines.append("cov:")
    for row in model.cov:
        lines.append("  " + " ".join(f"{v:>12.6g}" for v in row))
    lines.append(f"support radius: {model.support_radius:g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


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


def cmd_experiment(args: argparse.Namespace) -> int:
    scenario = load_scenario(_need(args, "scenario", "--scenario", "experiment"),
                             seed_override=args.seed)
    grid = run_experiment(scenario)
    if args.format == "csv":
        _emit(_experiment_csv(grid), args.out)
    elif args.format == "json":
        _emit(_experiment_json(grid), args.out)
    else:
        _emit(_experiment_text(grid), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--network", help="network JSON file")
    common.add_argument("--scenario", help="scenario JSON file")
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario's Monte Carlo seed")
    common.add_argument("--out", default=None, help="write output here instead of stdout")
    common.add_argument("--format", choices=FORMATS, default="text", help="output format")

    parser = argparse.ArgumentParser(
        prog="robusttolls",
        description="Design congestion tolls that stay good under disturbance uncertainty.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("validate", parents=[common], help="check a network file's structure")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("equilibrium", parents=[common], help="compute an equilibrium flow")
    p.add_argument("--alpha", help="disturbance vector (comma list or JSON file)")
    p.add_argument("--tau", help="toll vector (comma list or JSON file), default zero")
    p.add_argument("--method", choices=("closed", "potential", "both"), default="both")
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("epsmax", parents=[common], help="largest admissible ambiguity radius")
    p.set_defaults(func=cmd_epsmax)

    p = sub.add_parser("design", parents=[common], help="design robust tolls at a radius")
    p.add_argument("--eps", type=float, required=True, help="anticipated ambiguity radius")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("estimate", parents=[common], help="estimate disturbance moments from samples")
    p.add_argument("--samples", help="sample CSV file")
    p.add_argument("--delta", type=float, required=True, help="support radius of the disturbance")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("experiment", parents=[common], help="run the worst-case latency grid")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except FileFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ConvergenceError, NumericalDegeneracyError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except (TollDesignError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
