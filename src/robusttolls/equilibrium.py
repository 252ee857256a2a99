"""Wardrop equilibria under linear latencies, closed form and by oracle.

With latency ``beta_e * f_e + alpha_e + tau_e`` on every edge, the
equilibrium flow is the minimizer of a strictly convex quadratic
potential over the flow polytope.  Eliminating the flow-balance
constraints once per network yields a small set of dense blocks
(:func:`kkt_blocks`) from which equilibria, node potentials, and the
equilibrium latency are all affine or quadratic evaluations.  The closed
form is only valid while every edge keeps positive flow; the
potential-minimization solver (:func:`nash_flow_potential`) is the
regime-free reference that also handles boundary equilibria: the
interior-point kernel of :mod:`robusttolls.optim` run from the max-min
flow, then a crossover that pins the edges on the optimal face at
exactly zero and solves the equality system on the rest once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, NumericalDegeneracyError, OutOfRegimeError
from .network import IncidenceData, _endpoints, _max_min_flow
from .optim import STATUS_OPTIMAL, _balance_qr, _barrier_newton

# How far below zero (relative to the demand) a closed-form flow may dip
# from round-off and still count as in regime.
_REGIME_TOL = 1e-9
# The potential solver's bound on its result's KKT residual, relative to the demand.
_KKT_TOL = 1e-8


@dataclass(frozen=True)
class LatencyModel:
    """Per-edge latency slopes for ``latency = beta * flow + offset``.

    Slopes must be finite and strictly positive; that is what makes the
    equilibrium unique and the elimination blocks well defined.
    """

    beta: np.ndarray

    def __post_init__(self) -> None:
        beta = np.ascontiguousarray(np.asarray(self.beta, dtype=float))
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError("beta must be a nonempty vector")
        if not np.all((beta > 0.0) & (beta < np.inf)):
            raise ValueError("every latency slope must be finite and strictly positive")
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class KktBlocks:
    """Dense elimination blocks of the equilibrium optimality system.

    For slope matrix B and reduced incidence R these are
    ``s = (R B^-1 R')^-1``, ``lam = B^-1 R' s``, and
    ``gamma = B^-1 - lam R B^-1`` (symmetric positive semidefinite with
    null space spanned by the rows of R), plus ``c = lam @ injections``,
    the equilibrium flow when perceived edge costs vanish.  ``gamma``
    maps a perceived-cost vector to the flow it displaces, which is why
    every formula downstream is affine in it.  The source incidence and
    latency data ride along so later stages need only this object.
    """

    gamma: np.ndarray
    lam: np.ndarray
    s: np.ndarray
    gamma_norm: float
    c: np.ndarray
    inc: IncidenceData
    lat: LatencyModel

    @property
    def demand_latency_term(self) -> float:
        """The constant ``injections @ s @ injections`` in the latency."""
        eta = self.inc.injections
        return float(eta @ self.s @ eta)


@dataclass(frozen=True)
class NashSolution:
    """An equilibrium flow with its node potentials and provenance.

    ``node_potentials`` holds one multiplier per non-destination node;
    the perceived cost of any used edge equals the potential drop across
    it.  ``method`` records which solver produced the point
    (``"closed_form"`` or ``"potential"``).
    """

    flow: np.ndarray
    node_potentials: np.ndarray
    method: str


def kkt_blocks(inc: IncidenceData, lat: LatencyModel) -> KktBlocks:
    """Factor the equilibrium system once for a network and latency model.

    Uses a Cholesky factorization of ``R B^-1 R'`` (dense, one row per
    non-destination node) rather than inverting the full saddle-point
    matrix.  Construction verifies the two structural identities the rest
    of the package leans on: ``gamma`` is positive semidefinite and
    annihilates the rows of R.
    """
    matrix, eta = inc.matrix, inc.injections
    if lat.beta.shape != (matrix.shape[1],):
        raise ValueError(f"beta must have length {matrix.shape[1]}, got {lat.beta.shape}")
    binv = 1.0 / lat.beta
    weighted = matrix * binv  # R B^-1, shape (k, m)
    normal = weighted @ matrix.T
    try:
        chol = np.linalg.cholesky(normal)
    except np.linalg.LinAlgError as err:
        raise NumericalDegeneracyError("R B^-1 R' is not positive definite") from err
    chol_inv = np.linalg.solve(chol, np.eye(chol.shape[0]))
    s = chol_inv.T @ chol_inv
    lam = weighted.T @ s
    gamma = np.diag(binv) - lam @ weighted
    gamma = 0.5 * (gamma + gamma.T)

    eigvals = np.linalg.eigvalsh(gamma)
    gamma_norm = float(np.abs(eigvals).max(initial=0.0))
    # When the network has as many independent balance rows as edges the
    # block is structurally zero and gamma_norm is round-off dust, so the
    # definiteness test needs the scale of B^-1 itself as a floor.
    floor = max(gamma_norm, float(binv.max()))
    if eigvals.size and eigvals[0] < -1e-10 * floor:
        raise NumericalDegeneracyError(f"flow-response block has eigenvalue {eigvals[0]:.3e} < 0")
    # Round-off in gamma scales with B^-1 too, so the annihilation check
    # shares that floor.
    annihilation = float(np.abs(gamma @ matrix.T).max(initial=0.0))
    if annihilation > 1e-10 * floor * max(1.0, float(np.abs(matrix).max(initial=0.0))):
        raise NumericalDegeneracyError("flow-response block does not annihilate the incidence rows")

    c = lam @ eta
    for arr in (gamma, lam, s, c):
        arr.setflags(write=False)
    return KktBlocks(gamma=gamma, lam=lam, s=s, gamma_norm=gamma_norm, c=c, inc=inc, lat=lat)


def _check_cost_vectors(blocks: KktBlocks, alpha: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    m = blocks.gamma.shape[0]
    alpha = np.asarray(alpha, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if alpha.shape != (m,):
        raise ValueError(f"alpha must have length {m}, got {alpha.shape}")
    if tau.shape != (m,):
        raise ValueError(f"tau must have length {m}, got {tau.shape}")
    return alpha, tau


def _regime_flow(blocks: KktBlocks, cost: np.ndarray) -> np.ndarray:
    """The closed-form flow ``-gamma cost + c``, checked to be in regime.

    Raises :class:`OutOfRegimeError` if any component falls below
    ``-_REGIME_TOL`` (scaled by demand).
    """
    flow = -blocks.gamma @ cost + blocks.c
    scale = max(1.0, float(np.abs(blocks.inc.injections).max(initial=0.0)))
    lowest = float(flow.min())
    if lowest < -_REGIME_TOL * scale:
        raise OutOfRegimeError(lowest)
    return flow


def nash_flow_closed_form(blocks: KktBlocks, alpha: np.ndarray, tau: np.ndarray) -> NashSolution:
    """Equilibrium flow by direct evaluation, valid in the interior regime.

    ``flow = -gamma (alpha + tau) + c``.  If any component falls below
    zero, beyond round-off, the closed form does not apply and
    :class:`OutOfRegimeError` is raised; callers should switch to
    :func:`nash_flow_potential`, which handles flows pinned at zero.
    """
    alpha, tau = _check_cost_vectors(blocks, alpha, tau)
    cost = alpha + tau
    flow = _regime_flow(blocks, cost)
    # The raw multiplier of the balance constraint is the negated trip
    # cost; flip it so potentials decrease along used edges and the
    # destination sits at zero.
    potentials = blocks.lam.T @ cost + blocks.s @ blocks.inc.injections
    return NashSolution(flow=flow, node_potentials=potentials, method="closed_form")


def nash_flow_potential(inc: IncidenceData, lat: LatencyModel, alpha: np.ndarray,
                        tau: np.ndarray) -> NashSolution:
    """Equilibrium flow by minimizing the congestion potential directly.

    Minimizes ``sum(0.5 beta f^2 + (alpha+tau) f)`` over flows with
    ``R f = injections`` and ``f >= 0``, written ``f = f* - y`` with
    ``f*`` the max-min flow, feasible and positive on every edge.  In
    ``y`` this is the interior-point kernel's problem
    (:func:`~robusttolls.optim._barrier_newton`): weights ``beta/2``,
    linear term ``-(beta f* + cost)``, circulations ``R y = 0`` and
    bounds ``y <= f*``, solved from ``y = 0`` within the kernel's Newton
    budget.  A crossover then lands on the optimal face exactly (Megiddo
    1991; Ye 1992): edges whose bound multiplier exceeds their flow are
    pinned at exactly ``0.0``, and one equality KKT solve on the free
    edges, the weighted Laplacian ``R_F B_F^-1 R_F'`` over the nodes they
    touch, gives those nodes' potentials and the free flows.  Nodes that
    no free edge touches keep the kernel's potentials, and the pinned
    edges' multipliers are read off the potentials.  Raises
    :class:`ConvergenceError` if the kernel runs out of steps, the face
    system is singular, or the KKT residual of the result (stationarity,
    balance, negative flows or multipliers, complementarity) exceeds
    ``_KKT_TOL`` (scaled by demand).
    """
    matrix, eta = inc.matrix, inc.injections
    k, m = matrix.shape
    alpha = np.asarray(alpha, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if alpha.shape != (m,) or tau.shape != (m,):
        raise ValueError(f"alpha and tau must have length {m}")
    cost = alpha + tau
    beta = lat.beta

    factors = _balance_qr(matrix)
    span, triangle, _ = factors
    start = _max_min_flow(inc)
    y, lam, report = _barrier_newton(0.0, np.zeros(m), 0.5 * beta, -(beta * start + cost),
                                     factors, start, np.zeros(m))
    if report.status != STATUS_OPTIMAL:
        raise ConvergenceError("potential minimization did not converge",
                               report.iterations, report.gap)
    barrier_flow = start - y
    pinned = lam > barrier_flow
    free = ~pinned
    # The kernel's balance multipliers: R' p = beta f + cost - lam.
    potentials = np.linalg.solve(triangle, span.T @ (beta * barrier_flow + cost - lam))

    # Crossover: the equality KKT system on the free edges, over the
    # nodes they touch (the destination, index k, stays at zero).
    tails, heads = _endpoints(inc)
    touched = np.zeros(k + 1, dtype=bool)
    touched[tails[free]] = touched[heads[free]] = True
    nodes = np.flatnonzero(touched[:k])
    face = matrix[np.ix_(nodes, np.flatnonzero(free))]
    weighted = face / beta[free]
    try:
        potentials[nodes] = np.linalg.solve(weighted @ face.T, eta[nodes] + weighted @ cost[free])
    except np.linalg.LinAlgError:
        raise ConvergenceError(f"the optimal face with {int(pinned.sum())} pinned edges is singular",
                               report.iterations, np.inf) from None
    drop = matrix.T @ potentials
    flow = np.zeros(m)
    flow[free] = (drop[free] - cost[free]) / beta[free]
    multipliers = np.where(pinned, cost - drop, 0.0)

    scale = max(1.0, float(np.abs(eta).max(initial=0.0)))
    residual = max(float(np.abs(beta * flow + cost - drop - multipliers).max(initial=0.0)),
                   float(np.abs(matrix @ flow - eta).max(initial=0.0)),
                   max(0.0, -float(flow.min(initial=0.0))),
                   max(0.0, -float(multipliers.min(initial=0.0))),
                   float(np.abs(multipliers * flow).max(initial=0.0)))
    if residual > _KKT_TOL * scale:
        raise ConvergenceError(f"the optimal face with {int(pinned.sum())} pinned edges fails "
                               "the KKT check", report.iterations, residual)
    return NashSolution(flow=flow, node_potentials=potentials, method="potential")


def system_latency(flow: np.ndarray, lat: LatencyModel, alpha: np.ndarray) -> float:
    """Total travel time ``sum f_e (beta_e f_e + alpha_e)`` of a flow.

    Tolls are deliberately absent: they move money, not time, so the
    system performance measure ignores them.
    """
    flow = np.asarray(flow, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if flow.shape != lat.beta.shape or alpha.shape != lat.beta.shape:
        raise ValueError("flow and alpha must match the latency model length")
    return float(flow @ (lat.beta * flow + alpha))


def latency_decomposition(blocks: KktBlocks, tau: np.ndarray) -> tuple[np.ndarray, float]:
    """Split the equilibrium latency into a slope on alpha and a constant.

    For fixed tolls the in-regime equilibrium latency is affine in the
    disturbance: ``g(alpha) = q @ alpha + q0`` with ``q = gamma tau + c``
    and ``q0 = tau gamma tau + injections s injections``.  Returns
    ``(q, q0)``.
    """
    m = blocks.gamma.shape[0]
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (m,):
        raise ValueError(f"tau must have length {m}, got {tau.shape}")
    q = blocks.gamma @ tau + blocks.c
    q0 = float(tau @ blocks.gamma @ tau) + blocks.demand_latency_term
    return q, q0


def equilibrium_latency_g(blocks: KktBlocks, alpha: np.ndarray, tau: np.ndarray) -> float:
    """Equilibrium system latency at a disturbance and toll, in regime.

    Evaluates the affine decomposition after confirming the closed-form
    flow stays nonnegative (same regime test as
    :func:`nash_flow_closed_form`).  Tolls shift which equilibrium
    arises but are not themselves counted as travel time.
    """
    alpha, tau = _check_cost_vectors(blocks, alpha, tau)
    _regime_flow(blocks, alpha + tau)
    q, q0 = latency_decomposition(blocks, tau)
    return float(q @ alpha + q0)
