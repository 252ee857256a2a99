"""Wardrop equilibria under linear latencies, closed form and by oracle.

With latency ``beta_e * f_e + alpha_e + tau_e`` on every edge, the
equilibrium flow is the minimizer of a strictly convex quadratic
potential over the flow polytope.  Eliminating the flow-balance
constraints once per network yields a small set of dense blocks
(:func:`kkt_blocks`) from which equilibria, node potentials, and the
equilibrium latency are all affine or quadratic evaluations.  The closed
form is only valid while every edge keeps positive flow; the
potential-minimization solver (:func:`nash_flow_potential`) is the
regime-free reference that also handles boundary equilibria, by a
semismooth Newton method on the potential's dual in the node potentials
that pins unused edges at exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalDegeneracyError, OutOfRegimeError
from .network import IncidenceData, _frozen, _locked, _reduced_costs, _vector
from .optim import _norm, _solve_certified

# How far below zero (relative to the demand, on top of the round-off of
# the flow's own evaluation) a closed-form flow may dip and still count as
# in regime.
_REGIME_TOL = 1e-9


@dataclass(frozen=True)
class LatencyModel:
    """Per-edge latency slopes for ``latency = beta * flow + offset``.

    Slopes must be finite and strictly positive; that is what makes the
    equilibrium unique and the elimination blocks well defined.  ``beta``
    is a write-locked copy, so later edits to the caller's array miss it.
    """

    beta: np.ndarray

    def __post_init__(self) -> None:
        beta = _frozen(self.beta)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError("beta must be a nonempty vector")
        if not np.all((beta > 0.0) & (beta < np.inf)):
            raise ValueError("every latency slope must be finite and strictly positive")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class KktBlocks:
    """Dense elimination blocks of the equilibrium optimality system.

    For slope matrix B and reduced incidence R these are
    ``s = (R B^-1 R')^-1``, ``lam = B^-1 R' s``, and
    ``gamma = B^-1 - lam R B^-1``, built as ``W W'`` (positive
    semidefinite, annihilating the rows of R; exactly zero when R is
    square), its spectral norm ``gamma_norm``, plus
    ``c = lam @ injections``, the equilibrium flow when perceived edge
    costs vanish.  ``gamma`` maps a perceived-cost vector to the flow it
    displaces, which is why every formula downstream is affine in it.
    The source incidence and latency data ride along so later stages
    need only this object.
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

    Every block comes from one complete QR of ``B^-1/2 R' = [Q1 Q2] [T; 0]``
    with ``T`` square (the null-space method; Golub & Van Loan, *Matrix
    Computations*, sec. 6.2): ``R B^-1 R' = T'T``, so ``s = T^-1 T^-T``
    and ``lam = B^-1/2 Q1 T^-T``, and ``W = B^-1/2 Q2`` gives
    ``gamma = W W'`` and ``||gamma|| = sigma_max(W)^2``, the top
    eigenvalue of the small Gram ``W'W``.  So ``gamma`` is positive
    semidefinite and annihilates the rows of R by construction, and when
    R has as many rows as edges it is exactly zero.  ``inc`` must come
    from :func:`~robusttolls.network.incidence`, whose validation
    guarantees R full row rank.  The four array blocks are write-locked.
    """
    matrix, eta = inc.matrix, inc.injections
    k, m = matrix.shape
    _vector(lat.beta, m, "beta")
    root = np.sqrt(lat.beta)[:, None]
    q, t = np.linalg.qr(matrix.T / root, mode="complete")
    t_inv = np.linalg.inv(t[:k])
    w = q[:, k:] / root
    gamma = _locked(w @ w.T)
    gamma_norm = float(np.linalg.eigvalsh(w.T @ w).max(initial=0.0))
    s = _locked(t_inv @ t_inv.T)
    lam = _locked((q[:, :k] / root) @ t_inv.T)
    c = _locked(lam @ eta)
    return KktBlocks(gamma=gamma, lam=lam, s=s, gamma_norm=gamma_norm, c=c, inc=inc, lat=lat)


def _finite(value, m: int, name: str) -> np.ndarray:
    """``value`` as a float vector of ``m`` entries, which must all be finite."""
    value = _vector(value, m, name)
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")
    return value


def _perceived_cost(m: int, alpha, tau) -> np.ndarray:
    """The edge cost ``alpha + tau``; each must be a finite vector of ``m`` entries."""
    return _finite(alpha, m, "alpha") + _finite(tau, m, "tau")


def _regime_floor(blocks: KktBlocks, cost: np.ndarray) -> float:
    """How far below zero a closed-form flow ``c - gamma cost`` may dip and stay in regime.

    ``_REGIME_TOL`` of the demand, however small, plus the round-off of
    evaluating the flow: ``m`` machine epsilons of ``||gamma|| ||cost||
    + max |c|``.  The first term bounds ``gamma cost`` and the error that
    ``gamma``'s own round-off puts into it, which cancellation can make
    far larger than the product itself.
    """
    size = blocks.gamma_norm * _norm(cost) + float(np.abs(blocks.c).max())
    return _REGIME_TOL * float(blocks.inc.injections[0]) + cost.shape[0] * np.finfo(float).eps * size


def _regime_flow(blocks: KktBlocks, cost: np.ndarray) -> np.ndarray:
    """The closed-form flow ``c - gamma cost``, checked to be in regime.

    ``gamma R' = 0``, so it is taken on the reduced costs, exact zeros on
    routes of equal cost.  Raises :class:`OutOfRegimeError` if any
    component falls below ``-_regime_floor`` of the original cost.
    """
    flow = blocks.c - blocks.gamma @ _reduced_costs(blocks.inc, cost)
    lowest = float(flow.min())
    if lowest < -_regime_floor(blocks, cost):
        raise OutOfRegimeError(f"closed-form equilibrium leaves the nonnegative regime (min flow "
                               f"{lowest:.6g}); use the potential-based solver instead", lowest)
    return flow


def nash_flow_closed_form(blocks: KktBlocks, alpha: np.ndarray, tau: np.ndarray) -> NashSolution:
    """Equilibrium flow by direct evaluation, valid in the interior regime.

    ``flow = -gamma (alpha + tau) + c``.  If any component falls below
    zero, beyond round-off, the closed form does not apply and
    :class:`OutOfRegimeError` is raised; callers should switch to
    :func:`nash_flow_potential`, which handles flows pinned at zero.  A
    non-finite entry of ``alpha`` or ``tau`` raises ``ValueError`` naming it.
    """
    cost = _perceived_cost(blocks.gamma.shape[0], alpha, tau)
    flow = _regime_flow(blocks, cost)
    # The raw multiplier of the balance constraint is the negated trip
    # cost; flip it so potentials decrease along used edges and the
    # destination sits at zero.
    potentials = blocks.lam.T @ cost + blocks.s @ blocks.inc.injections
    return NashSolution(flow=flow, node_potentials=potentials, method="closed_form")


def nash_flow_potential(inc: IncidenceData, lat: LatencyModel, alpha: np.ndarray,
                        tau: np.ndarray) -> NashSolution:
    """Equilibrium flow by minimizing the congestion potential directly.

    The potential ``sum(0.5 beta f^2 + cost f)`` (``cost = alpha + tau``)
    over ``R f = injections``, ``f >= 0`` is minimized through its dual in
    the node potentials ``p`` by :func:`~robusttolls.optim._dual_newton`,
    with the weighted Laplacians ``R B^-1 R'`` of the used edges as
    Hessians, from the potentials that use every edge.  ``f = (R' p -
    cost)_+ / beta`` is exactly ``0.0`` on unused edges.  The answer is
    accepted only through :func:`~robusttolls.optim._solve_certified`:
    the worst node's balance residual and the most negative flow must be
    at most ``optim._KKT_TOL`` times the demand (as in
    ``is_feasible_flow``), and the duality gap between the potential at
    ``f`` and its dual at ``p`` at most ``optim._KKT_TOL`` times the terms
    it sums, a test that does not depend on the units.  Raises
    :class:`ConvergenceError` if the dual Newton budget
    (``optim._DUAL_STEPS``) does not finish, or, naming the term and its
    ratio to its scale, if the answer fails that check.  A non-finite
    entry of ``alpha`` or ``tau`` raises ``ValueError`` naming it.
    """
    cost = _perceived_cost(inc.tails.shape[0], alpha, tau)
    flow, potentials = _solve_certified(inc, inc.injections, 1.0 / lat.beta, cost)
    return NashSolution(flow=flow, node_potentials=potentials, method="potential")


def system_latency(flow: np.ndarray, lat: LatencyModel, alpha: np.ndarray) -> float:
    """Total travel time ``sum f_e (beta_e f_e + alpha_e)`` of a flow.

    Tolls are deliberately absent: they move money, not time, so the
    system performance measure ignores them.  A non-finite entry of
    ``flow`` or ``alpha`` raises ``ValueError`` naming it; a total beyond
    the float range (``beta f^2`` overflows from flows near 1e154 at unit
    slopes) raises :class:`NumericalDegeneracyError` naming the overflow.
    """
    m = lat.beta.shape[0]
    flow, alpha = _finite(flow, m, "flow"), _finite(alpha, m, "alpha")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(flow @ (lat.beta * flow + alpha))
    if not math.isfinite(total):
        raise NumericalDegeneracyError(f"the system latency of flows up to "
                                       f"{float(np.abs(flow).max()):.3e} overflows the float range")
    return total


def latency_decomposition(blocks: KktBlocks, tau: np.ndarray) -> tuple[np.ndarray, float]:
    """Split the equilibrium latency into a slope on alpha and a constant.

    For fixed tolls the in-regime equilibrium latency is affine in the
    disturbance: ``g(alpha) = q @ alpha + q0`` with ``q = y + c``, ``q0 =
    sum beta y^2 + injections s injections`` and ``y = gamma tau`` formed
    once (``tau gamma tau = sum beta y^2`` as ``gamma B gamma = gamma``).
    Returns ``(q, q0)``.
    """
    y = blocks.gamma @ _vector(tau, blocks.gamma.shape[0], "tau")
    return y + blocks.c, float(y @ (blocks.lat.beta * y)) + blocks.demand_latency_term


def equilibrium_latency_g(blocks: KktBlocks, alpha: np.ndarray, tau: np.ndarray) -> float:
    """Equilibrium system latency at a disturbance and toll, in regime.

    Evaluates the affine decomposition after confirming the closed-form
    flow stays nonnegative (same regime test as
    :func:`nash_flow_closed_form`), and refusing non-finite ``alpha`` and
    ``tau`` as it does.  Tolls shift which equilibrium arises but are not
    themselves counted as travel time.
    """
    _regime_flow(blocks, _perceived_cost(blocks.gamma.shape[0], alpha, tau))
    q, q0 = latency_decomposition(blocks, tau)
    return float(q @ np.asarray(alpha, dtype=float) + q0)
