"""Deterministic dense optimization kernels.

The design layer needs four things: a linear program solver for
feasibility and robustness-radius questions, a primal active-set QP (the
toll canonicalization), an interior-point Newton method for the robust
design objective (a smooth norm term plus a separable quadratic over a
polyhedron in circulation space), and symmetric matrix helpers for the
ambiguity-set geometry.  All of it is written against plain numpy on dense
arrays.  Instances in this package are small (tolls live in R^|E| with
|E| <= 512), so the priorities are determinism and bit-reproducible runs,
not sparse scalability: the simplex uses Bland's rule with fixed
tie-breaking, and the active-set method breaks ties by lowest constraint
index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError

# Statuses shared by every solver in this module.
STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_CAP = "iteration_cap"

_PIVOT_TOL = 1e-10
_RCOST_TOL = 1e-9
_FEAS_TOL = 1e-9
# Interior-point budget and stopping tolerances (relative, see
# :func:`_barrier_newton`).
_NEWTON_ITERS = 100
_GAP_TOL = 1e-12
_DUAL_TOL = 1e-10


@dataclass(frozen=True)
class LpProblem:
    """A linear program: maximize ``cost @ x`` s.t. ``rows @ x <= rhs``, ``x >= lower``.

    Attributes:
        cost: objective coefficients, shape (n,).
        rows: inequality matrix, shape (m, n); m may be zero.
        rhs: inequality right-hand sides, shape (m,).
        lower: variable lower bounds, shape (n,); defaults to zero.
    """

    cost: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.cost.shape[0]
        if self.rows.ndim != 2 or self.rows.shape[1] != n:
            raise ValueError(f"rows must be (m, {n}), got {self.rows.shape}")
        if self.rhs.shape != (self.rows.shape[0],):
            raise ValueError("rhs length must match number of rows")
        if self.lower is not None and self.lower.shape != (n,):
            raise ValueError("lower bound length must match cost length")


@dataclass(frozen=True)
class SolveReport:
    """How a solve went: status, effort, and residual diagnostics.

    ``gap`` is the primal-dual gap, for linear programs and for the
    interior-point kernel alike.
    """

    status: str
    iterations: int
    primal_residual: float
    gap: float


def _simplex(table: np.ndarray, rhs: np.ndarray, cost: np.ndarray, basis: list[int],
             allowed: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Run simplex pivots in place on a row-reduced tableau.

    ``table`` and ``rhs`` must already be reduced with respect to
    ``basis`` (basic columns are unit vectors).  Minimizes ``cost`` over
    the columns flagged in ``allowed``; Bland's rule (lowest eligible
    index in, lowest basic index out on ratio ties) guarantees
    termination.
    """
    n_rows = table.shape[0]
    for it in range(max_iter):
        multipliers = cost[basis] @ table
        reduced = cost - multipliers
        entering = -1
        for j in np.flatnonzero(allowed):
            if reduced[j] < -_RCOST_TOL:
                entering = int(j)
                break
        if entering < 0:
            return STATUS_OPTIMAL, it
        col = table[:, entering]
        ratio = np.inf
        leaving = -1
        for i in range(n_rows):
            if col[i] > _PIVOT_TOL:
                r = rhs[i] / col[i]
                if r < ratio - 1e-12 or (abs(r - ratio) <= 1e-12 and (leaving < 0 or basis[i] < basis[leaving])):
                    ratio = r
                    leaving = i
        if leaving < 0:
            return STATUS_UNBOUNDED, it
        piv = table[leaving, entering]
        table[leaving] /= piv
        rhs[leaving] /= piv
        for i in range(n_rows):
            if i != leaving and table[i, entering] != 0.0:
                f = table[i, entering]
                table[i] -= f * table[leaving]
                rhs[i] -= f * rhs[leaving]
        # Round-off can push a degenerate basic value a hair negative;
        # snap it back so later ratio tests stay meaningful.
        rhs[(rhs < 0.0) & (rhs > -1e-11)] = 0.0
        basis[leaving] = entering
    return STATUS_ITERATION_CAP, max_iter


def solve_lp(problem: LpProblem, max_iter: int = 10_000) -> tuple[np.ndarray, SolveReport]:
    """Solve a small dense LP with a two-phase tableau simplex.

    Returns the primal solution (the best iterate on an iteration cap,
    the last vertex visited when unbounded) together with a
    :class:`SolveReport`.  Infeasibility and unboundedness are reported
    through the status rather than raised, because callers here use both
    outcomes as answers (phase-one feasibility probes, the robustness
    radius of a single-edge network).
    """
    cost = np.asarray(problem.cost, dtype=float)
    rows = np.asarray(problem.rows, dtype=float)
    rhs_in = np.asarray(problem.rhs, dtype=float)
    n = cost.shape[0]
    m = rows.shape[0]
    lower = np.zeros(n) if problem.lower is None else np.asarray(problem.lower, dtype=float)
    b = rhs_in - rows @ lower

    # Standard form: rows@y + s = b with y, s >= 0, plus one artificial per
    # row so phase one always starts from an identity basis.
    sign = np.where(b < 0.0, -1.0, 1.0)
    table = np.hstack([rows * sign[:, None], np.diag(sign), np.eye(m)])
    rhs = b * sign
    n_cols = n + 2 * m
    basis = [n + m + i for i in range(m)]
    artificial = np.zeros(n_cols, dtype=bool)
    artificial[n + m:] = True

    phase1_cost = np.zeros(n_cols)
    phase1_cost[artificial] = 1.0
    allowed = np.ones(n_cols, dtype=bool)
    status1, it1 = _simplex(table, rhs, phase1_cost, basis, allowed, max_iter)
    infeas = float(sum(rhs[i] for i in range(m) if artificial[basis[i]]))
    if status1 == STATUS_ITERATION_CAP:
        report = SolveReport(STATUS_ITERATION_CAP, it1, infeas, np.inf)
        return lower.copy(), report
    if infeas > 1e-8 * max(1.0, float(np.abs(b).max(initial=0.0))):
        report = SolveReport(STATUS_INFEASIBLE, it1, infeas, np.inf)
        return lower.copy(), report

    # Drive any lingering artificial out of the basis; rows where that is
    # impossible are redundant and harmless to leave as degenerate zeros.
    for i in range(m):
        if artificial[basis[i]]:
            pivots = np.flatnonzero(np.abs(table[i, : n + m]) > _PIVOT_TOL)
            if pivots.size:
                j = int(pivots[0])
                piv = table[i, j]
                table[i] /= piv
                rhs[i] /= piv
                for k in range(m):
                    if k != i and table[k, j] != 0.0:
                        f = table[k, j]
                        table[k] -= f * table[i]
                        rhs[k] -= f * rhs[i]
                basis[i] = j

    phase2_cost = np.zeros(n_cols)
    phase2_cost[:n] = -cost
    allowed = ~artificial
    status2, it2 = _simplex(table, rhs, phase2_cost, basis, allowed, max_iter - it1)

    y = np.zeros(n_cols)
    for i in range(m):
        y[basis[i]] = rhs[i]
    x = y[:n] + lower

    primal_residual = float(max(np.max(rows @ x - rhs_in, initial=0.0), np.max(lower - x, initial=0.0), 0.0))
    if status2 == STATUS_OPTIMAL:
        # Simplex multipliers give the dual; the theoretical gap is zero,
        # so what is reported is pure floating-point disagreement.
        multipliers = phase2_cost[basis] @ table
        duals = np.array([phase2_cost[n + i] - multipliers[n + i] for i in range(m)])
        gap = abs(float(cost @ x) - float(duals @ rhs_in + (cost - rows.T @ duals) @ lower))
    else:
        gap = np.inf
    return x, SolveReport(status2, it1 + it2, primal_residual, gap)


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


def phase_one_point(rows: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Find ``x >= 0`` minimizing the worst violation of ``rows @ x <= rhs``.

    Returns the point and its maximum violation (zero within tolerance
    means the polyhedron ``{x >= 0, rows @ x <= rhs}`` is nonempty).
    Implemented as the usual phase-one LP with a single slack variable.
    """
    rows = np.asarray(rows, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = rows.shape[1]
    cost = np.zeros(n + 1)
    cost[n] = -1.0
    widened = np.hstack([rows, -np.ones((rows.shape[0], 1))])
    x, report = solve_lp(LpProblem(cost, widened, rhs))
    if report.status not in (STATUS_OPTIMAL, STATUS_UNBOUNDED):
        # The widened problem is always feasible, so anything else is a
        # solver breakdown worth surfacing.
        raise ConvergenceError("phase-one feasibility probe failed", report.iterations, report.primal_residual)
    point = x[:n]
    violation = float(np.max(rows @ point - rhs, initial=0.0))
    return point, max(violation, 0.0)


def _barrier_newton(eps: float, offset: np.ndarray, weights: np.ndarray, lin: np.ndarray,
                    balance: np.ndarray, upper: np.ndarray,
                    start: np.ndarray) -> tuple[np.ndarray, SolveReport]:
    """Minimize ``eps*||y + offset|| + sum(weights*y**2) + lin @ y`` on a polyhedron.

    The feasible set is ``{y : balance @ y = 0, y <= upper}``.  This is a
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

    Returns the last iterate and a :class:`SolveReport` whose ``gap`` is
    the duality gap ``slack @ multipliers``.  The status is optimal once
    that gap and the reduced dual residual are at tolerance, relative to
    the objective's and the gradient's scale; it is the iteration cap
    when the budget runs out or the step search stalls first.
    """
    if eps < 0.0:
        raise ValueError("norm weight eps must be nonnegative")
    upper = np.asarray(upper, dtype=float)
    m = upper.shape[0]
    offset, weights, lin, start = (np.asarray(v, dtype=float) for v in (offset, weights, lin, start))
    balance = np.asarray(balance, dtype=float).reshape(-1, m)
    basis = np.linalg.qr(balance.T, mode="complete")[0][:, balance.shape[0]:]
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

    violation = float(max(np.max(y - upper, initial=0.0),
                          np.abs(balance @ y).max(initial=0.0)))
    return y, SolveReport(status, it, violation, gap)


def psd_sqrt(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues are allowed to dip to ``-tol`` times the spectral radius
    (and are clamped to zero) so that covariance matrices touched by
    round-off still pass; anything more negative is a caller error.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("psd_sqrt needs a square matrix")
    scale = float(np.abs(matrix).max(initial=0.0))
    if float(np.abs(matrix - matrix.T).max(initial=0.0)) > tol * max(scale, 1.0):
        raise ValueError("psd_sqrt needs a symmetric matrix")
    eigvals, eigvecs = np.linalg.eigh(matrix)
    if eigvals.size and eigvals[0] < -tol * max(float(eigvals[-1]), 1.0):
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {eigvals[0]:.3e})")
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    return 0.5 * (root + root.T)


def spectral_norm(matrix: np.ndarray) -> float:
    """Spectral norm of a symmetric matrix via its eigenvalues."""
    matrix = np.asarray(matrix, dtype=float)
    scale = float(np.abs(matrix).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    if float(np.abs(matrix - matrix.T).max(initial=0.0)) > 1e-10 * max(scale, 1.0):
        raise ValueError("spectral_norm here is for symmetric matrices")
    return float(np.abs(np.linalg.eigvalsh(matrix)).max())
