"""Robust toll design over the full-utilization polytope.

A toll vector is admissible when, at the plug-in disturbance moments,
the tolled equilibrium still sends positive flow down every edge with a
safety margin covering the support radius; those tolls form a polyhedron
in the flow-response geometry (:func:`toll_polytope`).  Every feasible
flow is the plug-in equilibrium of some nonnegative toll, so the largest
ambiguity radius for which a margin-``eps`` version of that set stays
nonempty, the robustness ceiling (:func:`epsilon_max`), is a network-flow
number: the largest minimum edge flow over all feasible flows.  The
design program itself (:func:`solve_dro_tolls`) minimizes the worst-case
expected equilibrium latency over ambiguity radius ``eps``: the radius
enters through the objective's mean-shift term while the constraint set
stays the nominal (radius-zero) polytope, so designs anticipating
different radii remain comparable on a common footing and the ceiling
acts as a validity bound on ``eps`` rather than shrinking the feasible
set.  The objective only sees tolls through the flow response
``y = gamma @ tau``, so the design is solved in that circulation by the
interior-point method of :mod:`robusttolls.optim`, which finishes on a
certified optimal face, and optima come in affine families of tolls.
The result is the family's minimum-norm nonnegative member
(:func:`_min_norm_toll`), with exact zero tolls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import KktBlocks, latency_decomposition
from .exceptions import ConvergenceError, InfeasibleError, NumericalDegeneracyError
from .network import IncidenceData, _endpoints
from .optim import _barrier_newton, _dual_newton
from .uncertainty import DisturbanceModel, _check_radius


@dataclass(frozen=True)
class TollPolytope:
    """The admissible toll set ``{tau >= 0 : gamma @ tau <= rhs}``.

    Row ``e`` asks the flow at the plug-in mean to keep ``margin`` on
    edge ``e``; ``inc`` is the network's incidence, on which
    :func:`polytope_nonempty` decides whether any flow can.
    """

    gamma: np.ndarray
    rhs: np.ndarray
    margin: float
    inc: IncidenceData

    def contains(self, tau: np.ndarray, tol: float = 1e-9) -> bool:
        tau = np.asarray(tau, dtype=float)
        if tau.shape != (self.gamma.shape[1],):
            raise ValueError(f"tau must have length {self.gamma.shape[1]}, got {tau.shape}")
        if float(tau.min(initial=0.0)) < -tol:
            return False
        slack = self.rhs - self.gamma @ tau
        return bool(float(slack.min(initial=np.inf)) >= -tol)


@dataclass(frozen=True)
class DesignResult:
    """Outcome of a robust toll design solve.

    ``tau_star`` is the minimum-norm optimal toll, with exact ``0.0`` on
    every edge whose nonnegativity binds (all of them on single-route
    networks); ``objective`` is the design objective value (latency terms
    that depend on the toll); ``worst_case_latency`` adds the
    toll-independent constants, giving the worst-case expected
    equilibrium latency over the radius-``eps`` ambiguity ball.
    ``iterations`` is the number of interior-point Newton steps of the
    design solve.  ``residual`` is the final duality gap of the solve's
    answer: 0.0 when the solve finished on a certified optimal face
    (complementary by construction; the few Newton steps on the face are
    not counted in ``iterations``), and the interior-point gap when it
    stopped on its own rule instead.  Both are zero on single-route
    networks, which leave nothing to optimize.
    """

    tau_star: np.ndarray
    objective: float
    worst_case_latency: float
    eps: float
    iterations: int
    residual: float


def toll_polytope(blocks: KktBlocks, model: DisturbanceModel, eps: float) -> TollPolytope:
    """Admissible tolls with utilization margin covering radius ``eps``.

    The right-hand side is ``-||gamma|| (eps + support_radius) - gamma @
    mean + c``: a toll passes when the closed-form flow at the plug-in
    mean keeps a margin of ``||gamma||`` times the total disturbance
    budget on every edge.  Monotone in ``eps``: larger radii shrink the
    set.
    """
    _check_radius(eps)
    if model.mean.shape[0] != blocks.gamma.shape[0]:
        raise ValueError("model dimension does not match the network")
    margin = blocks.gamma_norm * (eps + model.support_radius)
    rhs = -margin * np.ones(blocks.gamma.shape[0]) - blocks.gamma @ model.mean + blocks.c
    return TollPolytope(gamma=blocks.gamma, rhs=rhs, margin=margin, inc=blocks.inc)


def _admissible(margin: float, top: float) -> bool:
    """The one admissibility rule: ``margin <= t* (1 + 1e-12)``.

    ``margin`` is ``||gamma|| (eps + delta)`` and ``top`` the smallest
    entry ``t*`` of the max-min flow; the relative 1e-12 absorbs the
    rounding of a margin built from :func:`epsilon_max` itself.
    """
    return margin <= top * (1.0 + 1e-12)


def polytope_nonempty(poly: TollPolytope) -> bool:
    """Whether any nonnegative toll satisfies the polytope.

    Every feasible flow is the flow of some nonnegative toll, so the set
    is nonempty exactly when ``margin`` is at most ``t*``, the smallest
    entry of the max-min flow, by the rule every radius check applies
    (:func:`_admissible`).
    """
    return _admissible(poly.margin, float(poly.inc.max_min_flow.min()))


def _ceiling(blocks: KktBlocks, model: DisturbanceModel) -> tuple[float, float, np.ndarray | None]:
    """The robustness ceiling, ``t*`` and the circulation of its certificate toll."""
    if model.mean.shape[0] != blocks.gamma.shape[0]:
        raise ValueError("model dimension does not match the network")
    k, m = blocks.inc.matrix.shape
    if k == m:
        # As many independent balance rows as edges leave R no null space,
        # so the flow response and ||gamma|| are exactly zero.
        return float("inf"), float("inf"), None
    flow = blocks.inc.max_min_flow
    top = float(flow.min())
    if not _admissible(blocks.gamma_norm * model.support_radius, top):
        raise InfeasibleError("no nonnegative toll keeps every edge utilized at the nominal "
                              "moments; the support radius is too large for this network")
    ceiling = max(top / blocks.gamma_norm - model.support_radius, 0.0)
    return ceiling, top, blocks.c - blocks.gamma @ model.mean - flow


def epsilon_max(blocks: KktBlocks, model: DisturbanceModel) -> tuple[float, np.ndarray | None]:
    """Largest ambiguity radius with a nonempty admissible toll set.

    A toll is admissible at radius ``eps`` when its flow at the plug-in
    mean, ``c - gamma @ (mean + tau)``, keeps ``||gamma|| (eps + delta)``
    on every edge, and every feasible flow is that flow for some
    nonnegative toll.  So the ceiling is ``t* / ||gamma|| - delta``, where
    ``t*`` is the largest minimum edge flow over all feasible flows: the
    smallest entry of the max-min flow ``f*``, which is ``demand / v*``
    for the minimum flow value ``v*`` with every edge carrying at least 1
    (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 6).  The mean
    and covariance do not enter.  Returns the radius and a certificate
    toll attaining it, the nonnegative toll whose plug-in flow is ``f*``.
    When the flow response is zero (single-route networks) every radius
    is admissible and the result is ``(inf, None)``.  When radius 0 fails
    the admissibility rule, no toll keeps the network fully utilized even
    nominally; that is a modelling problem, reported as
    :class:`InfeasibleError`.  A ceiling that rounds below 0 but passes
    the rule is 0.
    """
    ceiling, _, circulation = _ceiling(blocks, model)
    if circulation is None:
        return ceiling, None
    return ceiling, _toll_for_circulation(blocks, circulation)


def dro_objective(blocks: KktBlocks, model: DisturbanceModel, eps: float, tau: np.ndarray) -> float:
    """Design objective: worst-case expected latency minus its constants.

    ``eps ||gamma tau + c|| + tau gamma tau + mean gamma tau``.  The
    dropped constants (``c @ mean`` and the demand term) do not depend on
    the toll, so minimizers agree with the full worst-case latency.
    """
    _check_radius(eps)
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (blocks.gamma.shape[0],):
        raise ValueError(f"tau must have length {blocks.gamma.shape[0]}, got {tau.shape}")
    if model.mean.shape[0] != blocks.gamma.shape[0]:
        raise ValueError("model dimension does not match the network")
    q = blocks.gamma @ tau + blocks.c
    return float(eps * np.linalg.norm(q) + tau @ blocks.gamma @ tau + model.mean @ blocks.gamma @ tau)


def _min_norm_toll(null: np.ndarray, toll: np.ndarray) -> np.ndarray:
    """Smallest-norm nonnegative toll with the same flow response as ``toll``.

    With ``N = null`` an orthonormal basis of the incidence matrix's null
    space, the family is ``{tau : N' tau = b}``, ``b = N' toll``.
    :func:`~robusttolls.optim._dual_newton` minimizes ``||tau||^2 / 2``
    over its nonnegative members through the dual ``max b' mu -
    ||(N mu)_+||^2 / 2`` from ``mu = b``: ``tau* = (N mu)_+``, exact zeros
    off the optimal face.  Raises :class:`ConvergenceError` if the dual
    Newton budget (``optim._DUAL_STEPS``) does not finish it.
    """
    m = null.shape[0]
    b = null.T @ toll
    tau, _, steps, residual = _dual_newton(null.T, b, np.ones(m), np.zeros(m), b)
    if tau is None:
        raise ConvergenceError("toll canonicalization did not converge", steps, residual)
    return tau


def _toll_for_circulation(blocks: KktBlocks, y: np.ndarray) -> np.ndarray:
    """A nonnegative toll whose flow response is the circulation ``y``.

    ``gamma @ (B y) = y`` whenever ``R y = 0``, and adding node potentials
    ``R' pi`` leaves the response unchanged.  The potentials are longest
    paths to the destination with edge weights ``-beta*y``, so
    ``pi_tail - pi_head >= -beta_e y_e`` on every edge and the toll
    ``B y + R' pi`` is nonnegative.  Validated networks are acyclic, so
    at most one relaxation sweep per node settles them.  This gives the
    certificate toll of :func:`epsilon_max`.
    """
    matrix = blocks.inc.matrix
    k = matrix.shape[0]
    beta = blocks.lat.beta
    # The destination is the dropped row, index k, with potential zero.
    tails, heads = _endpoints(blocks.inc)
    need = -beta * y
    pi = np.zeros(k + 1)
    for _ in range(k + 1):
        relaxed = pi.copy()
        np.maximum.at(relaxed, tails, pi[heads] + need)
        if np.array_equal(relaxed, pi):
            break
        pi = relaxed
    return np.clip(beta * y + matrix.T @ pi[:k], 0.0, None)


def solve_dro_tolls(blocks: KktBlocks, model: DisturbanceModel, eps: float) -> DesignResult:
    """Design the toll minimizing worst-case expected latency at radius ``eps``.

    Validates ``eps`` against the robustness ceiling first, by the rule
    :func:`polytope_nonempty` applies; a radius beyond it raises
    :class:`InfeasibleError` carrying the ceiling.  The search
    runs over the nominal admissible polytope, in the circulation
    ``y = gamma @ tau``: minimize ``eps ||y + c|| + sum beta y^2 + mean @ y``
    subject to ``R y = 0`` and ``y <= rhs(0)``, by the interior-point
    Newton method started at the circulation of the ceiling's certificate,
    whose slack is the max-min flow less ``||gamma|| delta``, at least
    ``||gamma|| epsilon_max`` on every row.  The solve finishes on the
    optimal face once a guessed face passes its KKT certificate
    (feasibility, nonnegative multipliers, stationarity; see
    :func:`~robusttolls.optim._barrier_newton`), or else on the
    interior-point stopping rule.  The toll ``beta * y`` has response
    ``y``; it is canonicalized to the minimum-norm nonnegative toll with
    that response by :func:`_min_norm_toll`, in the network's null-space
    basis, which the Newton solve shares.  A solve that stops short of
    optimal raises :class:`ConvergenceError` naming the stopping test
    that failed, with its iterations and that test's relative value; a
    radius that is negative, NaN or infinite raises ``ValueError``.
    """
    _check_radius(eps)
    ceiling, top, start = _ceiling(blocks, model)
    if not _admissible(blocks.gamma_norm * (eps + model.support_radius), top):
        raise InfeasibleError(
            f"anticipated radius {eps:g} exceeds the robustness ceiling {ceiling:g}",
            epsilon_max=ceiling)

    if start is None:
        # Single-route networks: the only circulation is zero, and so is the toll.
        tau_star, iterations, gap = np.zeros(blocks.gamma.shape[0]), 0, 0.0
    else:
        rhs = toll_polytope(blocks, model, 0.0).rhs
        slack = float((rhs - start).min())
        if not slack > 0.0:
            # The slack is at least ||gamma|| * ceiling up to rounding, so
            # this is a ceiling of zero.
            raise NumericalDegeneracyError(
                f"the robustness ceiling's certificate has slack {slack:.3e} (ceiling "
                f"{ceiling:g}), so the design has no interior start point")
        null = blocks.inc.null_basis
        y, iterations, gap = _barrier_newton(eps, blocks.c, blocks.lat.beta, model.mean, null,
                                             rhs, start)
        # gamma @ (beta * y) = y for a circulation y, so beta * y is one toll of the family.
        tau_star = _min_norm_toll(null, blocks.lat.beta * y)

    objective = dro_objective(blocks, model, eps, tau_star)
    q, q0 = latency_decomposition(blocks, tau_star)
    worst_case = float(eps * np.linalg.norm(q) + q @ model.mean + q0)
    return DesignResult(tau_star=tau_star, objective=objective, worst_case_latency=worst_case,
                        eps=eps, iterations=iterations, residual=gap)
