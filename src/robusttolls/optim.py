"""Deterministic dense optimization kernels.

Two solvers and nothing else: an interior-point Newton method for a
separable quadratic, a linear term and a smooth norm over a polyhedron
in circulation space (the robust design, and Wardrop equilibria written
as a shift from the max-min flow), and a primal active-set QP that now
serves only the toll canonicalization.  The interior-point method takes
its null-space basis from one complete QR (:func:`_balance_qr`), which
its caller computes once and may reuse.  The robustness ceiling is a
network-flow number and needs no solver from here, and the ambiguity
set enters the design only through its closed-form worst case, so no
matrix square root is needed either.  All of it is written against plain
numpy on dense arrays.  Instances in this package are small (tolls live
in R^|E| with |E| <= 512), so the priorities are determinism and
bit-reproducible runs, not sparse scalability: the active-set method
breaks ties by lowest constraint index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Statuses shared by every solver in this module.
STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_CAP = "iteration_cap"

# Interior-point budget and stopping tolerances (relative, see
# :func:`_barrier_newton`).
_NEWTON_ITERS = 100
_GAP_TOL = 1e-12
_DUAL_TOL = 1e-10


@dataclass(frozen=True)
class SolveReport:
    """How an interior-point solve went: status, effort, and residuals.

    ``gap`` is the duality gap ``slack @ multipliers``.
    """

    status: str
    iterations: int
    primal_residual: float
    gap: float


def active_set_qp(hess: np.ndarray, grad: np.ndarray, rows: np.ndarray, rhs: np.ndarray,
                  start: np.ndarray, max_iter: int = 0,
                  tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray, int, float, str]:
    """Minimize ``0.5 x'Hx + g'x`` s.t. ``rows @ x <= rhs`` from a feasible start.

    Primal active-set iteration for positive definite ``hess``: solve the
    equality problem on the working set, step to the nearest blocking
    constraint, and drop the constraint with the most negative multiplier
    when stationary.  Subproblems go through ``lstsq`` so redundant active
    constraints cannot derail the solve.

    Returns ``(x, multipliers, iterations, kkt_residual, status)``.
    """
    x = np.asarray(start, dtype=float).copy()
    n = x.shape[0]
    m = rows.shape[0]
    if max_iter <= 0:
        max_iter = 20 * (n + m) + 20
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    if m and float(np.max(rows @ x - rhs)) > 1e-9 * scale:
        raise ValueError("active-set start point violates the constraints")
    working = [int(i) for i in np.flatnonzero(rows @ x >= rhs - tol * scale)]
    lam = np.zeros(m)

    status = STATUS_ITERATION_CAP
    it = 0
    for it in range(1, max_iter + 1):
        act = rows[working]
        k = len(working)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = hess
        if k:
            kkt[:n, n:] = act.T
            kkt[n:, :n] = act
        target = np.concatenate([-grad, rhs[working]])
        sol = np.linalg.lstsq(kkt, target, rcond=None)[0]
        direction = sol[:n] - x
        if float(np.linalg.norm(direction)) <= tol * (1.0 + float(np.linalg.norm(x))):
            lam = np.zeros(m)
            lam[working] = sol[n:]
            worst = min(working, key=lambda i: lam[i], default=-1)
            if worst < 0 or lam[worst] >= -tol * (1.0 + float(np.abs(lam).max(initial=0.0))):
                status = STATUS_OPTIMAL
                break
            working.remove(worst)
            continue
        gain = rows @ direction
        step = 1.0
        blocker = -1
        for i in range(m):
            if i not in working and gain[i] > tol:
                t = (rhs[i] - float(rows[i] @ x)) / gain[i]
                if t < step - 1e-14:
                    step = t
                    blocker = i
        x = x + max(step, 0.0) * direction
        if blocker >= 0:
            working.append(blocker)
            working.sort()

    clamped = np.clip(lam, 0.0, None)
    stationarity = float(np.abs(hess @ x + grad + rows.T @ clamped).max(initial=0.0))
    violation = float(np.max(rows @ x - rhs, initial=0.0))
    comple = float(np.abs(clamped * (rows @ x - rhs)).max(initial=0.0))
    residual = max(stationarity, violation, comple, 0.0)
    return x, clamped, it, residual, status


def _balance_qr(balance: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complete QR of ``balance'`` for a full-row-rank ``balance``.

    Returns ``(span, triangle, null)``: ``balance' = span @ triangle``
    with ``triangle`` square upper triangular, and the columns of
    ``null`` are an orthonormal basis of the null space of ``balance``.
    """
    q, r = np.linalg.qr(balance.T, mode="complete")
    k = balance.shape[0]
    return q[:, :k], r[:k], q[:, k:]


def _barrier_newton(eps: float, offset: np.ndarray, weights: np.ndarray, lin: np.ndarray,
                    factors: tuple[np.ndarray, np.ndarray, np.ndarray], upper: np.ndarray,
                    start: np.ndarray) -> tuple[np.ndarray, np.ndarray, SolveReport]:
    """Minimize ``eps*||y + offset|| + sum(weights*y**2) + lin @ y`` on a polyhedron.

    The feasible set is ``{y : balance @ y = 0, y <= upper}``, where
    ``factors`` is :func:`_balance_qr` of ``balance``.  This is a
    primal-dual interior-point method (Boyd & Vandenberghe, *Convex
    Optimization*, sec. 11.7) with one multiplier per bound and a
    backtracking search on the residual norm.  There is no epigraph
    variable for the norm: when ``balance @ offset != 0`` the norm term is
    smooth on the whole feasible set, because ``||y + offset|| >=
    ||balance @ offset|| / ||balance||``.  Iterates move in an orthonormal
    basis ``N`` of the null space of ``balance`` (full row rank), so they
    keep the equality exactly and each Newton system is the reduced
    ``N' (D - (eps/||u||) u_hat u_hat') N`` with ``D`` diagonal (weights,
    norm curvature, barrier).  ``start`` must satisfy the equality and
    every bound strictly; there is no phase one.

    Returns the last iterate, its bound multipliers and a
    :class:`SolveReport` whose ``gap`` is the duality gap ``slack @
    multipliers``.  The status is optimal once that gap and the reduced
    dual residual are at tolerance, relative to the objective's and the
    gradient's scale; it is the iteration cap when the budget
    (``_NEWTON_ITERS``) runs out or the step search stalls first.
    """
    if eps < 0.0:
        raise ValueError("norm weight eps must be nonnegative")
    upper = np.asarray(upper, dtype=float)
    m = upper.shape[0]
    offset, weights, lin, start = (np.asarray(v, dtype=float) for v in (offset, weights, lin, start))
    span, triangle, basis = factors
    if basis.shape[0] != m or any(v.shape != (m,) for v in (offset, weights, lin, start)):
        raise ValueError("offset, weights, lin, start and the balance rows must have the length of upper")
    y = basis @ (basis.T @ start)
    slack = upper - y
    if not float(slack.min(initial=np.inf)) > 0.0:
        raise ValueError("start point must hold every bound strictly")

    def gradient(point: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        resid = point + offset
        size = float(np.linalg.norm(resid))
        unit = resid / size if eps > 0.0 else np.zeros(m)
        return unit, size, eps * unit + 2.0 * weights * point + lin

    unit, size, grad = gradient(y)
    # Gap scale: the objective's terms at the start, plus the linear
    # term's reach across the slacks (the whole gap when it is an LP).
    # Over the start's length scale it gives the gradient's scale, which
    # the dual residual is measured against when the optimum is interior
    # and both the gradient and the multipliers vanish.
    reach = np.abs(y + offset) + slack
    scale = eps * size + float((y + offset) @ (weights * (y + offset))) \
        + float(np.abs(lin) @ reach) + np.finfo(float).tiny
    grad_scale = scale / float(np.linalg.norm(reach))
    lam = scale / (m * slack)
    status = STATUS_ITERATION_CAP
    it = 0
    while True:
        gap = float(slack @ lam)
        dual = basis.T @ (grad + lam)
        dual_norm = float(np.linalg.norm(dual))
        if gap <= _GAP_TOL * scale and dual_norm <= _DUAL_TOL * (grad_scale + float(np.linalg.norm(lam))):
            status = STATUS_OPTIMAL
            break
        if it == _NEWTON_ITERS:
            break
        it += 1
        # Aim at the central point whose gap is a tenth of the current one.
        target = gap / (10.0 * m)
        curvature = eps / size if eps > 0.0 else 0.0
        reduced_unit = basis.T @ unit
        hess = (basis.T * (2.0 * weights + curvature + lam / slack)) @ basis \
            - curvature * np.outer(reduced_unit, reduced_unit)
        dy = basis @ np.linalg.solve(hess, -(basis.T @ (grad + target / slack)))
        dlam = target / slack - lam + lam / slack * dy

        step = 1.0
        for room, rate in ((lam, -dlam), (slack, dy)):
            closing = rate > 0.0
            if closing.any():
                step = min(step, 0.99 * float((room[closing] / rate[closing]).min()))
        before = float(np.hypot(dual_norm, np.linalg.norm(lam * slack - target)))
        while step > 1e-14:
            trial = y + step * dy
            trial_slack = upper - trial
            trial_lam = lam + step * dlam
            if float(trial_slack.min()) > 0.0:
                trial_unit, trial_size, trial_grad = gradient(trial)
                after = float(np.hypot(np.linalg.norm(basis.T @ (trial_grad + trial_lam)),
                                       np.linalg.norm(trial_lam * trial_slack - target)))
                if after <= (1.0 - 0.01 * step) * before:
                    break
            step *= 0.5
        else:
            break
        y, slack, lam = trial, trial_slack, trial_lam
        unit, size, grad = trial_unit, trial_size, trial_grad

    # balance = triangle' span', so this is |balance @ y|.
    violation = float(max(np.max(y - upper, initial=0.0),
                          np.abs(triangle.T @ (span.T @ y)).max(initial=0.0)))
    return y, lam, SolveReport(status, it, violation, gap)
