"""Output checks.  Each one returns quietly or raises :class:`CheckFailed`.

The checks run outside the timed region.  Reference values come from
``oracle.py``; everything else is recomputed here from the program's
own outputs with plain numpy.
"""

from __future__ import annotations

import csv
import io

import numpy as np

# Relative agreement required between the program and the scipy oracle.
REL_TOL = 1e-7
# Monte Carlo estimates must sit within this many standard errors.
MC_SIGMAS = 5.0


class CheckFailed(Exception):
    """An op produced an output that fails its check."""


def _close(value: float, ref: float, what: str, rel: float = REL_TOL) -> None:
    if not abs(value - ref) <= rel * max(1.0, abs(ref)):
        raise CheckFailed(f"{what} is {value!r}, reference {ref!r}")


def ceiling(value: tuple, ref: dict) -> None:
    """``epsilon_max`` matches the HiGHS optimum of the same LP."""
    _close(float(value[0]), ref["epsilon_max"], "epsilon_max")


def design(result, eps_hat: float, polytope, ref: dict) -> None:
    """A design toll lies in the radius-0 polytope and attains the reference optimum.

    ``polytope`` is ``toll_polytope(blocks, model, 0)``; its membership
    test gets a tolerance scaled by the right-hand side.  ``eps_hat`` is
    at most 0.9 of the reference ceiling by construction, so it is not
    checked against it here.
    """
    tol = 1e-9 * max(1.0, float(np.abs(polytope.rhs).max()))
    if not polytope.contains(result.tau_star, tol=tol):
        raise CheckFailed("design toll lies outside the admissible polytope")
    _close(result.worst_case_latency, ref["designs"][repr(eps_hat)]["worst_case_latency"],
           "worst_case_latency")


def equilibrium(solution, inc, beta: np.ndarray, alpha: np.ndarray, tau: np.ndarray,
                is_feasible_flow) -> None:
    """Feasible flow satisfying Wardrop's condition at the returned potentials.

    Every used edge's cost equals the potential drop across it and no
    edge is cheaper than its drop.
    """
    flow = np.asarray(solution.flow, dtype=float)
    if not is_feasible_flow(inc, flow):
        raise CheckFailed("equilibrium flow is infeasible")
    cost = beta * flow + alpha + tau
    drop = inc.matrix.T @ np.asarray(solution.node_potentials, dtype=float)
    scale = max(1.0, float(np.abs(cost).max()))
    used = flow > 1e-9 * max(1.0, float(np.abs(inc.injections).max()))
    gap = np.abs(cost - drop)[used]
    if gap.size and float(gap.max()) > 1e-7 * scale:
        raise CheckFailed(f"used edge cost differs from its potential drop by {float(gap.max()):.3e}")
    if float((drop - cost).max()) > 1e-7 * scale:
        raise CheckFailed("an edge is cheaper than the potential drop across it")


def flow(value: np.ndarray, ref: np.ndarray) -> None:
    """An equilibrium flow matches the reference flow edge by edge."""
    gap = float(np.abs(np.asarray(value) - ref).max())
    if gap > REL_TOL * max(1.0, float(np.abs(ref).max())):
        raise CheckFailed(f"equilibrium flow differs from the reference by {gap:.3e}")


def system_latency(value: float, flow: np.ndarray, beta: np.ndarray, alpha: np.ndarray) -> None:
    """The equilibrium latency equals ``sum f (beta f + alpha)`` of the flow."""
    _close(float(value), float(flow @ (beta * flow + alpha)), "equilibrium latency", rel=1e-9)


def experiment_csv(text: str, first: str, cells: list[float]) -> None:
    """Byte-identical to the run's first output; every cell checked.

    The closed-form expectation must match the reference and the Monte
    Carlo estimate must lie within ``MC_SIGMAS`` standard errors of it.
    """
    if text != first:
        raise CheckFailed("experiment CSV differs from the first invocation's bytes")
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(cells):
        raise CheckFailed(f"experiment CSV has {len(rows)} cells, expected {len(cells)}")
    for k, (row, ref) in enumerate(zip(rows, cells)):
        estimate, stderr, expectation = (float(row[key]) for key in ("g_bar", "stderr", "expectation"))
        _close(expectation, ref, f"cell {k} expectation")
        if not abs(estimate - expectation) <= MC_SIGMAS * stderr:
            raise CheckFailed(f"cell {k} estimate {estimate!r} is more than {MC_SIGMAS:g} "
                              f"standard errors ({stderr!r}) from {expectation!r}")
