"""Deterministic Newton methods in plain numpy, for small instances.

:func:`_barrier_newton`, an interior-point method in a null-space basis
from one complete QR (:func:`~robusttolls.network._null_basis`) that
crosses over to a certified optimal face, solves the robust design from
the start :func:`_interior_start` projects and checks.
:func:`_dual_newton`, a semismooth Newton method in node potentials on
the dual of a separable quadratic over a network's flows, lands on the
optimal face exactly and refines its balance there, the one place an
answer's balance is repaired: it solves Wardrop equilibria, and the
design at radius zero, which is such an equilibrium in the design's
slack.  Its Hessians are weighted Laplacians, and it reaches the
incidence only through the edge-list products that
:mod:`robusttolls.network` owns.
:func:`_certificate` judges a proposed answer of that problem by its
balance, its sign and its duality gap, and :func:`_solve_certified`
returns only what it accepts: both the equilibrium and the design at
radius zero go through it.
Determinism matters here, not sparse scalability.  Whether a radius is
admissible is decided before any solve, by the one rule of
:mod:`robusttolls.design`; whether a start has an interior, by
:func:`_interior_start` alone.  Each routine raises its own typed errors.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ConvergenceError, NumericalDegeneracyError
from .network import _EPS, IncidenceData, _drop, _laplacian, _net_outflow

# Interior-point budget and stopping tolerances (relative, see
# :func:`_barrier_newton`).
_NEWTON_ITERS = 100
_GAP_TOL = 1e-12
_DUAL_TOL = 1e-10
# Relative gap from which :func:`_barrier_newton` tries to finish on its
# guessed optimal face, and the Newton steps one such try may take: every
# certified face of the design ladder and of 600 twelve-decade designs
# took one step (a quadratic objective, eps = 0) or two, once three.
_CROSSOVER_GAP = 1e-4
_FACE_STEPS = 3
# Step budget of :func:`_dual_newton`: equilibria took at most 44 steps
# on slopes spanning six decades.
_DUAL_STEPS = 100
# Bound on a certified answer of :func:`_dual_newton`'s problem, per
# injection or per the gap's terms (see :func:`_solve_certified`).
_KKT_TOL = 1e-8


def _interior_start(basis: np.ndarray, upper: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``start`` projected onto the null space that ``basis`` spans, checked to be interior.

    A projection that does not hold every bound ``y < upper`` strictly
    raises :class:`NumericalDegeneracyError` naming the least slack.
    """
    y = basis @ (basis.T @ start)
    least = float((upper - y).min(initial=np.inf))
    if not least > 0.0:
        raise NumericalDegeneracyError(f"projected start has no interior: least slack {least:.3e}")
    return y


def _barrier_newton(eps: float, offset: np.ndarray, weights: np.ndarray, lin: np.ndarray,
                    basis: np.ndarray, upper: np.ndarray, y: np.ndarray
                    ) -> tuple[np.ndarray, int, float]:
    """Minimize ``eps*||y + offset|| + sum(weights*y**2) + lin @ y`` on a polyhedron.

    The feasible set is ``{y : balance @ y = 0, y <= upper}``, where
    ``basis`` is :func:`~robusttolls.network._null_basis` of ``balance``.
    Nothing is checked: the caller
    (:func:`~robusttolls.design.solve_dro_tolls`) guarantees
    ``eps >= 0``, float vectors of ``upper``'s length, and a start ``y``
    from :func:`_interior_start`: in the null space of ``balance`` and
    strictly inside every bound.  This is a
    primal-dual interior-point method (Boyd & Vandenberghe, *Convex
    Optimization*, sec. 11.7) with one multiplier per bound and a
    backtracking search on the residual norm.  There is no epigraph
    variable for the norm: when ``balance @ offset != 0`` the norm term is
    smooth on the whole feasible set, because ``||y + offset|| >=
    ||balance @ offset|| / ||balance||``.  Iterates move in an orthonormal
    basis ``N`` of the null space of ``balance`` (full row rank), so they
    keep the equality exactly and each Newton system is the reduced
    ``N' (D - (eps/||u||) u_hat u_hat') N`` with ``D`` diagonal (weights,
    norm curvature, barrier).  There is no phase one.

    Once the relative duality gap is at most ``_CROSSOVER_GAP``, the
    method crosses over to the optimal face (Megiddo 1991; Ye 1992).  It
    guesses the face as the bounds whose multiplier exceeds their slack,
    and takes up to ``_FACE_STEPS`` Newton steps of the objective on that
    face, each one KKT solve in ``N``.  It returns the face point as soon
    as its certificate holds:

    - every bound holds to round-off (``m`` machine epsilons of
      ``max|upper|``), and the face's bounds are tight to it, so
      complementarity is exact by construction;
    - the face multipliers, clipped at zero, leave a reduced gradient
      ``N'(grad + multipliers)`` of at most ``_DUAL_TOL`` of the kernel's
      own scale (the gradient's scale plus the norm of its multipliers).

    A face whose certificate fails is tried again only once the guess
    changes.  Returns ``(y, iterations, gap)``: ``iterations`` counts the
    interior-point steps (not the face steps), and ``gap`` is 0.0 after a
    crossover finish.  The fallback exit is the interior-point stopping
    rule: the duality gap and the reduced dual residual at ``_GAP_TOL``
    and ``_DUAL_TOL`` of the objective's and the gradient's scale, with
    the final ``slack @ lam`` as ``gap``.  If the budget
    (``_NEWTON_ITERS``) runs out or the step search stalls, raises
    :class:`ConvergenceError` naming the stopping test that failed, with
    its relative value as the residual; a singular Newton system raises
    one with an infinite residual.
    """
    m = upper.shape[0]
    slack = upper - y

    def gradient(point: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        resid = point + offset
        size = math.sqrt(resid @ resid)
        unit = resid / size if eps > 0.0 else np.zeros(m)
        return unit, size, eps * unit + 2.0 * weights * point + lin

    def hessian(unit: np.ndarray, size: float, barrier: np.ndarray | float) -> np.ndarray:
        # The reduced Hessian of the objective, plus a diagonal barrier term.
        curvature = eps / size if eps > 0.0 else 0.0
        reduced_unit = basis.T @ unit
        return (basis.T * (2.0 * weights + curvature + barrier)) @ basis \
            - curvature * (reduced_unit[:, None] * reduced_unit)

    def face_point(y: np.ndarray, face: np.ndarray) -> np.ndarray | None:
        # Newton steps of the objective on the face {y[face] = upper[face]}
        # from y, each the face's KKT system solved in the null basis: the
        # SVD of the face rows gives the step that makes them tight, the
        # free directions the Newton step within the face, and the
        # multipliers the least-norm ones (a degenerate face, with more
        # rows than rank, has many).  Returns the first point whose
        # certificate holds, or None.
        rows = basis[face]
        left, sv, right = np.linalg.svd(rows)
        rank = int((sv > rows.shape[1] * _EPS * sv[:1].max(initial=0.0)).sum())
        left, sv, span, free = left[:, :rank], sv[:rank], right[:rank], right[rank:].T
        roundoff = m * _EPS * float(np.abs(upper).max(initial=0.0))
        unit, size, grad = gradient(y)
        for _ in range(_FACE_STEPS):
            hess = hessian(unit, size, 0.0)
            reduced = basis.T @ grad
            move = span.T @ ((left.T @ (upper[face] - y[face])) / sv)
            if free.shape[1]:
                try:
                    move += free @ np.linalg.solve(free.T @ hess @ free,
                                                   -(free.T @ (reduced + hess @ move)))
                except np.linalg.LinAlgError:
                    return None
            mult = np.maximum(-left @ ((span @ (reduced + hess @ move)) / sv), 0.0)
            y = y + basis @ move
            unit, size, grad = gradient(y)
            pulled = grad.copy()
            pulled[face] += mult
            reduced = basis.T @ pulled
            if math.sqrt(reduced @ reduced) <= _DUAL_TOL * (grad_scale + math.sqrt(lam @ lam)):
                excess = y - upper
                tight = float(np.abs(excess[face]).max(initial=0.0)) <= roundoff
                return y if tight and float(excess.max(initial=0.0)) <= roundoff else None
        return None

    unit, size, grad = gradient(y)
    # Gap scale: the objective's terms at the start, plus the linear
    # term's reach across the slacks (the whole gap when it is an LP).
    # Over the start's length scale it gives the gradient's scale, which
    # the dual residual is measured against when the optimum is interior
    # and both the gradient and the multipliers vanish.
    reach = np.abs(y + offset) + slack
    scale = eps * size + float((y + offset) @ (weights * (y + offset))) \
        + float(np.abs(lin) @ reach) + np.finfo(float).tiny
    grad_scale = scale / math.sqrt(reach @ reach)
    lam = scale / (m * slack)
    reduced = basis.T @ (grad + lam)
    dual_norm = math.sqrt(reduced @ reduced)
    it = 0
    tried = None  # the last guessed face whose certificate failed
    while True:
        gap = float(slack @ lam)
        gap_rel = gap / scale
        dual_rel = dual_norm / (grad_scale + math.sqrt(lam @ lam))
        if gap_rel <= _GAP_TOL and dual_rel <= _DUAL_TOL:
            return y, it, gap
        if gap_rel <= _CROSSOVER_GAP:
            face = lam > slack
            if not np.array_equal(face, tried):
                point = face_point(y, face)
                if point is not None:
                    return point, it, 0.0
                tried = face
        if it == _NEWTON_ITERS:
            break
        it += 1
        # Aim at the central point whose gap is a tenth of the current one.
        target = gap / (10.0 * m)
        ratio, aim = lam / slack, target / slack
        try:
            dy = basis @ np.linalg.solve(hessian(unit, size, ratio), -(basis.T @ (grad + aim)))
        except np.linalg.LinAlgError:
            raise ConvergenceError(f"design solve did not converge: the Newton system of step "
                                   f"{it} is singular", it, np.inf) from None
        dlam = aim - lam + ratio * dy

        step = 1.0
        for room, rate in ((lam, -dlam), (slack, dy)):
            closing = rate > 0.0
            if closing.any():
                step = min(step, 0.99 * float((room[closing] / rate[closing]).min()))
        centering = lam * slack - target
        before = float(np.hypot(dual_norm, math.sqrt(centering @ centering)))
        while step > 1e-14:
            trial = y + step * dy
            trial_slack = upper - trial
            trial_lam = lam + step * dlam
            if float(trial_slack.min()) > 0.0:
                trial_unit, trial_size, trial_grad = gradient(trial)
                reduced = basis.T @ (trial_grad + trial_lam)
                trial_dual = math.sqrt(reduced @ reduced)
                centering = trial_lam * trial_slack - target
                after = float(np.hypot(trial_dual, math.sqrt(centering @ centering)))
                if after <= (1.0 - 0.01 * step) * before:
                    break
            step *= 0.5
        else:
            break
        y, slack, lam, dual_norm = trial, trial_slack, trial_lam, trial_dual
        unit, size, grad = trial_unit, trial_size, trial_grad

    test, value, tol = (("duality gap", gap_rel, _GAP_TOL) if gap_rel > _GAP_TOL
                        else ("dual residual", dual_rel, _DUAL_TOL))
    raise ConvergenceError(f"design solve did not converge: the relative {test} {value:.3e} "
                           f"is above {tol:g}", it, value)


def _dual_newton(inc: IncidenceData, b: np.ndarray, weights: np.ndarray,
                 cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximize ``b'x - sum(weights * ((R' x - cost)_+)**2) / 2`` over potentials ``x``.

    That is the dual of ``min sum(v**2 / weights) / 2 + cost @ v`` over
    ``v >= 0`` with ``R v = b``, ``R`` the reduced incidence of ``inc``, and
    ``v = weights * (R' x - cost)_+``: a Wardrop equilibrium, or the design
    at radius zero in its slack.  ``R`` acts only through the edge-list
    products of :mod:`robusttolls.network`.  The start is the ``x`` that
    balances when no entry is clipped at zero, the potentials that use
    every edge.  Damped semismooth Newton (Qi & Sun 2006; Hintermueller,
    Ito & Kunisch 2002): on the face ``P = {R' x > cost}`` the step solves
    ``(H(P) + rho D) d = gradient``, with ``H(P)`` the Laplacian of the
    weights on ``P``, ``D`` the diagonal of the Laplacian of all weights and
    ``rho = 1e-4 min(1, |gradient| / |b|)`` (0.01 took up to 283 steps on
    six-decade slopes; :func:`_norm` keeps both norms finite and nonzero).
    An exact line search on ``R' d`` sets its length.  Once a full step
    keeps the face, an exact solve on ``P`` (over the rows it touches)
    finishes, followed by two steps of iterative refinement on the same
    block, ``x[rows] += H(P)^-1 (b - R v)[rows]`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 12): one face solve
    balances only as well as the block's conditioning allows.  Of the
    three points whose signs hold on the face, the one with the least
    worst-node residual ``max|R v - b|``, the balance
    :func:`_certificate` judges, is returned; ``v`` is exactly ``0.0``
    off ``P`` and where it is round-off.  Returns ``(v, x, steps
    taken)``.  Raises :class:`ConvergenceError`, with the gradient norm
    as its residual, if ``_DUAL_STEPS`` steps do not finish or a damped
    system is singular.
    """
    m = cost.shape[0]
    full = _laplacian(inc, weights)
    damping = np.diagonal(full)
    b_norm = _norm(b)
    root = np.sqrt(weights)
    top_cost = float(np.abs(cost).max(initial=0.0))
    x = np.linalg.solve(full, b + _net_outflow(inc, weights * cost))

    def on_face(u: np.ndarray, face: np.ndarray) -> tuple[np.ndarray, float]:
        roundoff = m * _EPS * (float(np.abs(u).max(initial=0.0)) + top_cost)
        return np.where(face & (u > roundoff), weights * u, 0.0), roundoff

    for it in range(_DUAL_STEPS):
        u = _drop(inc, x) - cost
        face = u > 0.0
        weighted = weights * u
        grad = b - _net_outflow(inc, np.where(face, weighted, 0.0))
        grad_norm = _norm(grad)
        if grad_norm <= m * _EPS * float(np.abs(weighted).max(initial=0.0)):
            return on_face(u, face)[0], x, it
        hess = _laplacian(inc, np.where(face, weights, 0.0))
        damped = hess.copy()
        damped.flat[::damped.shape[0] + 1] += 1e-4 * min(1.0, grad_norm / b_norm) * damping
        try:
            step = np.linalg.solve(damped, grad)
        except np.linalg.LinAlgError:
            raise ConvergenceError("potential minimization did not converge", it, grad_norm) from None
        moved = _drop(inc, step)
        rows = np.diagonal(hess) > 0.0
        if np.array_equal(u + moved > 0.0, face) and not b[~rows].any():
            block = hess[np.ix_(rows, rows)]
            residual = b + _net_outflow(inc, np.where(face, weights * cost, 0.0))
            exact, signed = x.copy(), []  # (worst residual, v, x) where the signs hold
            try:
                for refine in range(3):
                    correction = np.linalg.solve(block, residual[rows])
                    exact[rows] = exact[rows] + correction if refine else correction
                    exact_u = _drop(inc, exact) - cost
                    v, roundoff = on_face(exact_u, face)
                    residual = b - _net_outflow(inc, v)
                    if (exact_u[face].min(initial=0.0) >= -roundoff
                            and exact_u[~face].max(initial=0.0) <= roundoff):
                        signed.append((float(np.abs(residual).max(initial=0.0)), v, exact.copy()))
            except np.linalg.LinAlgError:
                pass  # the face leaves a direction free; keep stepping
            if signed:
                _, v, exact = min(signed, key=lambda point: point[0])
                return v, exact, it + 1
        x = x + _dual_line_max(root * u, root * moved, float(b @ step)) * step
    raise ConvergenceError("potential minimization did not converge", _DUAL_STEPS, grad_norm)


def _certificate(inc: IncidenceData, b: np.ndarray, weights: np.ndarray, cost: np.ndarray,
                 v: np.ndarray, x: np.ndarray) -> tuple[float, float, float, float]:
    """How far flows ``v`` and potentials ``x`` are from solving :func:`_dual_newton`'s problem.

    That is ``min f(v) = sum(v**2 / weights) / 2 + cost @ v`` over ``v >= 0``
    with ``R v = b``, whose dual ``g(x) = b'x - sum(weights * u_+**2) / 2``,
    ``u = R'x - cost``, is what :func:`_dual_newton` maximizes.  Returns
    ``(balance, lowest, gap, terms)``: the worst node's ``|R v - b|``, the
    least entry of ``v`` (0.0 if none is negative), the duality gap
    ``f(v) - g(x)``, and the sum of the absolute values of the terms of
    ``f(v)`` and ``g(x)``.  For a feasible ``v`` the gap bounds how far
    ``f(v)`` lies above the optimum (weak duality; Boyd & Vandenberghe,
    *Convex Optimization*, ch. 5).  It is summed as its per-edge
    Fenchel-Young parts ``(v - weights u_+)**2 / (2 weights) + v (u_+ -
    u)`` plus the balance's share ``(R v - b) @ x``, each exactly zero at an
    exact solution, so no two large terms cancel.  ``gap`` and ``terms``
    are in the same unit, a power of two near the largest flow or
    injection, so they stay finite however large or small the demand and
    only their ratio means anything.
    """
    unit = _power_of_two(float(max(np.abs(v).max(initial=0.0), np.abs(b).max(initial=0.0))))
    u = _drop(inc, x) - cost
    used = np.maximum(u, 0.0)
    latency, scaled = v / weights, v / unit
    excess = _net_outflow(inc, v) - b
    gap = (float(((v - weights * used) / unit) @ (latency - used)) / 2.0
           + float(scaled @ (used - u)) + float((excess / unit) @ x))
    terms = (float(scaled @ latency) / 2.0 + float(np.abs(cost) @ np.abs(scaled))
             + float(np.abs(b / unit) @ np.abs(x)) + float((weights * used / unit) @ used) / 2.0)
    return float(np.abs(excess).max(initial=0.0)), float(v.min(initial=0.0)), gap, terms


def _solve_certified(inc: IncidenceData, b: np.ndarray, weights: np.ndarray,
                     cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flows ``v`` and potentials ``x`` solving :func:`_dual_newton`'s problem, certified.

    :func:`_dual_newton` proposes the answer and :func:`_certificate`
    judges it: the worst node's balance residual and the most negative
    flow must be at most ``_KKT_TOL`` times ``max|b|`` (as in
    ``is_feasible_flow``), and the duality gap at most ``_KKT_TOL`` times
    the terms it sums, a test that does not depend on the units.  Raises
    :class:`ConvergenceError` as :func:`_dual_newton` does, or, naming
    the term and its ratio to its scale, if the answer fails that check.
    """
    v, x, steps = _dual_newton(inc, b, weights, cost)
    balance, lowest, gap, terms = _certificate(inc, b, weights, cost, v, x)
    demand = float(np.abs(b).max(initial=0.0))
    for name, value, scale, of in (("balance residual", balance, demand, "the demand"),
                                   ("most negative flow", -lowest, demand, "the demand"),
                                   ("duality gap", gap, terms, "its terms")):
        if not value <= _KKT_TOL * scale:
            ratio = value / scale if scale > 0.0 else math.inf
            raise ConvergenceError(f"the optimal face with {int((v == 0.0).sum())} pinned edges "
                                   f"fails the KKT check: its {name} is {ratio:.3e} of {of}",
                                   steps, ratio)
    return v, x


def _power_of_two(value: float) -> float:
    """The power of two just above ``value >= 0`` (1.0 for zero), an exact unit of measure."""
    return math.ldexp(1.0, math.frexp(value)[1])


def _norm(vector: np.ndarray) -> float:
    """``sqrt(vector @ vector)``, in units of a power of two near its largest entry.

    The units are exact, so only squares that would under- or overflow change.
    """
    unit = _power_of_two(float(np.abs(vector).max(initial=0.0)))
    scaled = vector / unit
    return unit * math.sqrt(scaled @ scaled)


def _dual_line_max(u: np.ndarray, w: np.ndarray, slope: float) -> float:
    """The step ``s >= 0`` maximizing ``slope*s - ||(u + s*w)_+||^2 / 2``.

    The derivative is piecewise linear and nonincreasing with a kink
    where an entry of ``u + s*w`` changes sign, so the root is found by
    walking the kinks in order.
    """
    enter = (u <= 0.0) & (w > 0.0)
    moving = enter | ((u > 0.0) & (w < 0.0))
    kinks = -u[moving] / w[moving]
    order = np.argsort(kinks, kind="stable")
    sign = np.where(enter[moving], 1.0, -1.0)[order]
    face = u > 0.0
    # Over the segment after the j-th kink the derivative is
    # slope - lin[j] - s * quad[j].
    lin = np.cumsum(np.concatenate([[float(u[face] @ w[face])], sign * (u * w)[moving][order]]))
    quad = np.cumsum(np.concatenate([[float(w[face] @ w[face])], sign * (w * w)[moving][order]]))
    past = slope - lin[:-1] - kinks[order] * quad[:-1] <= 0.0
    j = int(np.argmax(past)) if past.any() else len(kinks)
    return (slope - lin[j]) / quad[j]
