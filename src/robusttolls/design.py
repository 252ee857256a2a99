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
set.  Because the objective only sees tolls through the flow response
``y = gamma @ tau``, the design is solved in that circulation (a convex
program with a smooth norm term, handled by an interior-point Newton
method), and optima come in affine families of tolls; results are
canonicalized to the minimum-norm representative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import KktBlocks, latency_decomposition
from .exceptions import ConvergenceError, InfeasibleError, NumericalDegeneracyError
from .network import IncidenceData, _endpoints, _max_min_flow
from .optim import STATUS_OPTIMAL, _balance_qr, _barrier_newton, active_set_qp
from .uncertainty import DisturbanceModel

# An anticipated radius this far past the robustness ceiling still counts
# as within it (here and in the harness's grid check).
_CEILING_SLACK = 1e-9


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

    ``tau_star`` is the minimum-norm optimal toll; ``objective`` is the
    design objective value (latency terms that depend on the toll);
    ``worst_case_latency`` adds the toll-independent constants, giving
    the worst-case expected equilibrium latency over the radius-``eps``
    ambiguity ball.  ``iterations`` is the number of interior-point
    Newton steps and ``residual`` their final duality gap (both zero on
    single-route networks, which leave nothing to optimize).
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
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if model.mean.shape[0] != blocks.gamma.shape[0]:
        raise ValueError("model dimension does not match the network")
    margin = blocks.gamma_norm * (eps + model.support_radius)
    rhs = -margin * np.ones(blocks.gamma.shape[0]) - blocks.gamma @ model.mean + blocks.c
    return TollPolytope(gamma=blocks.gamma, rhs=rhs, margin=margin, inc=blocks.inc)


def polytope_nonempty(poly: TollPolytope) -> bool:
    """Whether any nonnegative toll satisfies the polytope.

    Every feasible flow is the flow of some nonnegative toll, so the set
    is nonempty exactly when some feasible flow keeps ``margin`` on every
    edge, that is when ``margin`` is at most the smallest entry of the
    max-min flow.  A relative 1e-12 absorbs the rounding of a margin
    built from :func:`epsilon_max` itself.
    """
    return poly.margin <= float(_max_min_flow(poly.inc).min()) * (1.0 + 1e-12)


def _ceiling(blocks: KktBlocks, model: DisturbanceModel) -> tuple[float, np.ndarray | None]:
    """The robustness ceiling and the circulation of its certificate toll."""
    if model.mean.shape[0] != blocks.gamma.shape[0]:
        raise ValueError("model dimension does not match the network")
    k, m = blocks.inc.matrix.shape
    if k == m:
        # As many independent balance rows as edges leave R no null space,
        # so the flow response is structurally zero and ||gamma|| is round-off.
        return float("inf"), None
    flow = _max_min_flow(blocks.inc)
    ceiling = float(flow.min()) / blocks.gamma_norm - model.support_radius
    if ceiling < 0.0:
        raise InfeasibleError("no nonnegative toll keeps every edge utilized at the nominal "
                              "moments; the support radius is too large for this network")
    return ceiling, blocks.c - blocks.gamma @ model.mean - flow


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
    is admissible and the result is ``(inf, None)``.  A negative ceiling
    means no toll keeps the network fully utilized even nominally; that
    is a modelling problem, reported as :class:`InfeasibleError`.
    """
    ceiling, circulation = _ceiling(blocks, model)
    if circulation is None:
        return ceiling, None
    return ceiling, _toll_for_circulation(blocks, circulation)


def dro_objective(blocks: KktBlocks, model: DisturbanceModel, eps: float, tau: np.ndarray) -> float:
    """Design objective: worst-case expected latency minus its constants.

    ``eps ||gamma tau + c|| + tau gamma tau + mean gamma tau``.  The
    dropped constants (``c @ mean`` and the demand term) do not depend on
    the toll, so minimizers agree with the full worst-case latency.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (blocks.gamma.shape[0],):
        raise ValueError(f"tau must have length {blocks.gamma.shape[0]}, got {tau.shape}")
    if model.mean.shape[0] != blocks.gamma.shape[0]:
        raise ValueError("model dimension does not match the network")
    q = blocks.gamma @ tau + blocks.c
    return float(eps * np.linalg.norm(q) + tau @ blocks.gamma @ tau + model.mean @ blocks.gamma @ tau)


def _min_norm_equivalent(blocks: KktBlocks, tau: np.ndarray) -> np.ndarray:
    """Smallest-norm toll with the same flow response as ``tau``.

    The flow response is blind to anything in the row space of the
    incidence matrix, so optima form the family ``tau + R' v`` clipped to
    nonnegativity; minimizing the norm over that family is a small
    strictly convex QP in ``v``.
    """
    matrix = blocks.inc.matrix
    hess = matrix @ matrix.T
    grad = matrix @ tau
    v, _, iters, residual, status = active_set_qp(hess, grad, -matrix.T, tau,
                                                  np.zeros(matrix.shape[0]))
    if status != STATUS_OPTIMAL:
        raise ConvergenceError("canonicalization QP did not converge", iters, residual)
    out = tau + matrix.T @ v
    out[out < 0.0] = 0.0
    return out


def _toll_for_circulation(blocks: KktBlocks, y: np.ndarray) -> np.ndarray:
    """A nonnegative toll whose flow response is the circulation ``y``.

    ``gamma @ (B y) = y`` whenever ``R y = 0``, and adding node potentials
    ``R' pi`` leaves the response unchanged.  The potentials are longest
    paths to the destination with edge weights ``-beta*y``, so
    ``pi_tail - pi_head >= -beta_e y_e`` on every edge and the toll
    ``B y + R' pi`` is nonnegative.  Validated networks are acyclic, so
    at most one relaxation sweep per node settles them.
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

    Validates ``eps`` against the robustness ceiling first (an
    anticipated radius beyond it has no fully-utilized interpretation and
    raises :class:`InfeasibleError` carrying the ceiling).  The search
    runs over the nominal admissible polytope, in the circulation
    ``y = gamma @ tau``: minimize ``eps ||y + c|| + sum beta y^2 + mean @ y``
    subject to ``R y = 0`` and ``y <= rhs(0)``, by the interior-point
    Newton method started at the circulation of the ceiling's certificate,
    whose slack is the max-min flow less ``||gamma|| delta``, at least
    ``||gamma|| epsilon_max`` on every row.  The circulation is turned
    back into a toll and canonicalized to the minimum-norm member of the
    optimal family.  A solve that does not close its duality gap raises
    :class:`ConvergenceError` with the Newton iterations and the gap.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    ceiling, start = _ceiling(blocks, model)
    if eps > ceiling + _CEILING_SLACK:
        raise InfeasibleError(
            f"anticipated radius {eps:g} exceeds the robustness ceiling {ceiling:g}",
            epsilon_max=ceiling)

    if start is None:
        # Single-route networks: the only circulation is zero.
        y, iterations, gap = np.zeros(blocks.gamma.shape[0]), 0, 0.0
    else:
        rhs = toll_polytope(blocks, model, 0.0).rhs
        slack = float((rhs - start).min())
        if not slack > 0.0:
            # The slack is at least ||gamma|| * ceiling up to rounding, so
            # this is a ceiling of zero.
            raise NumericalDegeneracyError(
                f"the robustness ceiling's certificate has slack {slack:.3e} (ceiling "
                f"{ceiling:g}), so the design has no interior start point")
        y, _, report = _barrier_newton(eps, blocks.c, blocks.lat.beta, model.mean,
                                       _balance_qr(blocks.inc.matrix), rhs, start)
        if report.status != STATUS_OPTIMAL:
            raise ConvergenceError("design solve did not close its duality gap",
                                   report.iterations, report.gap)
        iterations, gap = report.iterations, report.gap
    tau_star = _min_norm_equivalent(blocks, _toll_for_circulation(blocks, y))

    objective = dro_objective(blocks, model, eps, tau_star)
    q, q0 = latency_decomposition(blocks, tau_star)
    worst_case = float(eps * np.linalg.norm(q) + q @ model.mean + q0)
    return DesignResult(tau_star=tau_star, objective=objective, worst_case_latency=worst_case,
                        eps=eps, iterations=iterations, residual=gap)
