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
``y = gamma @ tau``, so the design is solved in that circulation: at
radius zero as the certified Wardrop equilibrium of its slack, and
otherwise by the interior-point method of :mod:`robusttolls.optim`,
which finishes on a certified optimal face.  The tolls with one
response differ by node potentials, and one map
(:func:`_toll_for_circulation`) picks the toll for both the design and
the ceiling's certificate: the least-potential nonnegative member, which
leaves every node a toll-free route to the destination, with exact zero
tolls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import KktBlocks
from .exceptions import ConvergenceError, InfeasibleError
from .network import IncidenceData, _drop, _laplacian, _net_outflow, _reduced_costs, _vector
from .optim import _barrier_newton, _interior_start, _solve_certified
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
        tau = _vector(tau, self.gamma.shape[1], "tau")
        if float(tau.min(initial=0.0)) < -tol:
            return False
        slack = self.rhs - self.gamma @ tau
        return bool(float(slack.min(initial=np.inf)) >= -tol)


@dataclass(frozen=True)
class DesignResult:
    """Outcome of a robust toll design solve.

    ``tau_star`` is the least-potential optimal toll: every node but the
    destination has an out-edge whose toll is exactly ``0.0`` (every
    edge, on single-route networks), and every route pays the least toll
    any optimal toll charges it.  ``objective`` is the design objective
    value (latency terms that depend on the toll); ``worst_case_latency``
    adds the toll-independent constants, giving the worst-case expected
    equilibrium latency over the radius-``eps`` ambiguity ball; both, and
    ``slope``, the latency slope ``q = y + c`` on the disturbance, are
    read off the circulation ``y = gamma @ tau_star``, exact to round-off.
    ``iterations`` counts the solve's interior-point Newton steps, and
    ``residual`` is the final duality gap of its answer: 0.0 when it
    finished on a certified optimal face (complementary by construction;
    the few Newton steps on the face are not counted in ``iterations``),
    and the interior-point gap when it stopped on its own rule instead.
    At ``eps = 0`` the design is usually its nominal equilibrium, accepted
    by the equilibrium's certificate with no interior-point step, so both
    are 0 there.  Both are zero on single-route networks, which leave
    nothing to optimize.
    """

    tau_star: np.ndarray
    objective: float
    worst_case_latency: float
    eps: float
    iterations: int
    residual: float
    slope: np.ndarray


def toll_polytope(blocks: KktBlocks, model: DisturbanceModel, eps: float) -> TollPolytope:
    """Admissible tolls with utilization margin covering radius ``eps``.

    The right-hand side is ``-||gamma|| (eps + support_radius) - gamma @
    mean + c``: a toll passes when the closed-form flow at the plug-in
    mean keeps a margin of ``||gamma||`` times the total disturbance
    budget on every edge.  Monotone in ``eps``: larger radii shrink the
    set.
    """
    _check_radius(eps)
    _vector(model.mean, blocks.gamma.shape[0], "the model's mean")
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


def _ceiling(blocks: KktBlocks, model: DisturbanceModel, radii=()) -> tuple[float, np.ndarray | None]:
    """The robustness ceiling and its certificate's circulation; the one gate for radii.

    Raises :class:`InfeasibleError` if ``||gamma|| delta`` fails :func:`_admissible` against
    ``t*`` (the least max-min flow entry) or, carrying the ceiling, naming every
    ``eps`` in ``radii`` whose ``||gamma|| (eps + delta)`` fails it.
    """
    k, m = blocks.inc.matrix.shape
    _vector(model.mean, m, "the model's mean")
    if k == m:
        # As many independent balance rows as edges leave R no null space,
        # so the flow response and ||gamma|| are exactly zero.
        return float("inf"), None
    flow = blocks.inc.max_min_flow
    top = float(flow.min())
    if not _admissible(blocks.gamma_norm * model.support_radius, top):
        raise InfeasibleError("no nonnegative toll keeps every edge utilized at the nominal "
                              "moments; the support radius is too large for this network")
    ceiling = max(top / blocks.gamma_norm - model.support_radius, 0.0)
    too_big = [repr(float(eps)) for eps in radii
               if not _admissible(blocks.gamma_norm * (eps + model.support_radius), top)]
    if too_big:
        named = (f"radius {too_big[0]} exceeds" if len(too_big) == 1
                 else f"radii {', '.join(too_big)} exceed")
        raise InfeasibleError(f"anticipated {named} the robustness ceiling {ceiling!r}",
                              epsilon_max=ceiling)
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
    toll attaining it, the least-potential nonnegative toll whose plug-in
    flow is ``f*`` (:func:`_toll_for_circulation`).
    When the flow response is zero (single-route networks) every radius
    is admissible and the result is ``(inf, None)``.  When radius 0 fails
    the admissibility rule, no toll keeps the network fully utilized even
    nominally; that is a modelling problem, reported as
    :class:`InfeasibleError`.  A ceiling that rounds below 0 but passes
    the rule is 0.
    """
    ceiling, circulation = _ceiling(blocks, model)
    if circulation is None:
        return ceiling, None
    return ceiling, _toll_for_circulation(blocks, circulation)


def dro_objective(blocks: KktBlocks, model: DisturbanceModel, eps: float, tau: np.ndarray) -> float:
    """Design objective: worst-case expected latency minus its constants.

    ``eps ||y + c|| + sum beta y^2 + mean @ y``, ``y = gamma tau`` formed
    once (``gamma B gamma = gamma``).  The dropped constants (``c @ mean``
    and the demand term) do not depend on the toll, so minimizers agree.
    """
    _check_radius(eps)
    m = blocks.gamma.shape[0]
    tau, mean = _vector(tau, m, "tau"), _vector(model.mean, m, "the model's mean")
    y = blocks.gamma @ tau
    return float(eps * np.linalg.norm(y + blocks.c) + y @ (blocks.lat.beta * y) + mean @ y)


def _toll_for_circulation(blocks: KktBlocks, y: np.ndarray) -> np.ndarray:
    """The least-potential nonnegative toll whose flow response is the circulation ``y``.

    ``gamma B y = y`` when ``R y = 0``, and potentials leave the response
    alone, so it is the reduced cost of ``B y`` (``network._reduced_costs``):
    every node has a toll-free route, and any other nonnegative toll with
    this response charges every route at least as much, hence raises as
    much revenue or more at any flow (Dial, *Transportation Research B* 33, 1999).
    """
    return _reduced_costs(blocks.inc, blocks.lat.beta * y)


def _nominal_design(blocks: KktBlocks, model: DisturbanceModel, rhs: np.ndarray) -> np.ndarray | None:
    """The radius-zero design ``y`` as the certified equilibrium of its slack, or None.

    ``min sum beta y^2 + mean @ y`` over ``R y = 0``, ``y <= rhs`` is, in
    ``v = rhs - y >= 0``, the equilibrium problem with weights
    ``w = 1/(2 beta)``, edge cost ``-(2 beta rhs + mean)`` and injections
    ``R rhs``, which :func:`~robusttolls.optim._solve_certified` solves
    and accepts; None if it raises.  That solve's finish refines the
    balance of ``v`` on its face, so ``rhs - v`` misses ``R y = 0`` by at
    most the residual the certificate accepted.  One projection onto
    ``R y = 0`` in the Hessian's metric ``d = 1/(2 beta)`` over all edges
    balances it to rounding: ``y -= d R' L^-1 R y`` with
    ``L = R diag(d) R'``, which moves the gradient ``2 beta y + mean`` by
    ``R' p`` and so keeps it stationary.
    """
    inc, beta, weights = blocks.inc, blocks.lat.beta, 0.5 / blocks.lat.beta
    try:
        v = _solve_certified(inc, _net_outflow(inc, rhs), weights, -(2.0 * beta * rhs + model.mean))[0]
    except ConvergenceError:
        return None
    y = rhs - v
    return y - weights * _drop(inc, np.linalg.solve(_laplacian(inc, weights), _net_outflow(inc, y)))


def solve_dro_tolls(blocks: KktBlocks, model: DisturbanceModel, eps: float) -> DesignResult:
    """Design the toll minimizing worst-case expected latency at radius ``eps``.

    Validates ``eps`` first through :func:`_ceiling`, the radius gate
    ``run_experiment`` shares; a radius beyond the robustness ceiling
    raises :class:`InfeasibleError` carrying the ceiling.  The search
    runs over the nominal admissible polytope, in the circulation
    ``y = gamma @ tau``: minimize ``eps ||y + c|| + sum beta y^2 + mean @ y``
    subject to ``R y = 0`` and ``y <= rhs(0)``.  Its start is the
    circulation of the ceiling's certificate, whose slack, the max-min
    flow less ``||gamma|| delta``, is at least ``||gamma|| epsilon_max``
    on every row up to rounding.  That start is judged first, and once,
    by :func:`~robusttolls.optim._interior_start` after projecting it
    onto ``R y = 0``: with no positive slack left (a ceiling of zero up
    to rounding, or bounds whose slack cancels) it raises
    :class:`NumericalDegeneracyError`, at every radius.  At ``eps = 0``
    the design is the Wardrop equilibrium of its slack
    (:func:`_nominal_design`), accepted by the equilibrium's own
    certificate with 0 iterations and a residual of 0.0, and projected
    once onto ``R y = 0``.  Otherwise, and
    where that equilibrium does not certify, the interior-point Newton
    method runs from the start and finishes on the optimal face once a
    guessed face passes its KKT certificate (feasibility, nonnegative
    multipliers, stationarity; see
    :func:`~robusttolls.optim._barrier_newton`), or else on the
    interior-point stopping rule.  Every number is read off ``y``: the
    least-potential toll (:func:`_toll_for_circulation`), the latency
    slope ``q = y + c`` and ``tau gamma tau = sum beta y^2``.
    A solve that stops short of optimal raises :class:`ConvergenceError`
    naming the stopping test that failed, with its iterations and that
    test's relative value; a radius that is negative, NaN or infinite
    raises ``ValueError``.
    """
    _check_radius(eps)
    start = _ceiling(blocks, model, (eps,))[1]

    y, iterations, gap = np.zeros(blocks.gamma.shape[0]), 0, 0.0  # kept on single-route networks
    if start is not None:
        rhs = toll_polytope(blocks, model, 0.0).rhs
        start = _interior_start(blocks.inc.null_basis, rhs, start)
        y = _nominal_design(blocks, model, rhs) if eps == 0.0 else None
        if y is None:
            y, iterations, gap = _barrier_newton(eps, blocks.c, blocks.lat.beta, model.mean,
                                                 blocks.inc.null_basis, rhs, start)

    q = y + blocks.c
    spread_and_quadratic = eps * float(np.linalg.norm(q)) + float(y @ (blocks.lat.beta * y))
    worst_case = spread_and_quadratic + float(model.mean @ q) + blocks.demand_latency_term
    return DesignResult(tau_star=_toll_for_circulation(blocks, y),
                        objective=spread_and_quadratic + float(model.mean @ y),
                        worst_case_latency=worst_case, eps=eps, iterations=iterations, residual=gap,
                        slope=q)
