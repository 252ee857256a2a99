"""Tests for the quadratic and interior-point composite solvers."""

import itertools

import numpy as np
import pytest

from randnets import brute_force_qp
from robusttolls import optim
from robusttolls.exceptions import ConvergenceError
from robusttolls.optim import (
    STATUS_ITERATION_CAP,
    STATUS_OPTIMAL,
    _balance_qr,
    _barrier_newton,
    active_set_qp,
)


def _kernel_lp(cost, rows, rhs, start, lower=None):
    """``max cost @ x`` s.t. ``rows @ x <= rhs``, ``x >= lower``, by the kernel.

    The LP is the kernel's ``eps = 0``, zero-weight case in the variables
    ``y = (w, z)`` with ``w = lower - x <= 0`` and ``z = -rows @ w``, so
    the balance rows are ``[rows, I]`` and ``z <= rhs - rows @ lower``.
    ``start`` must be strictly feasible.
    """
    k, n = rows.shape
    lower = np.zeros(n) if lower is None else lower
    w = lower - start
    y, _, report = _barrier_newton(0.0, np.zeros(n + k), np.zeros(n + k),
                                   np.concatenate([cost, np.zeros(k)]),
                                   _balance_qr(np.hstack([rows, np.eye(k)])),
                                   np.concatenate([np.zeros(n), rhs - rows @ lower]),
                                   np.concatenate([w, -rows @ w]))
    return lower - y[:n], report


def test_lp_simple_box():
    # max x + 2y with x <= 3, y <= 4, x + y <= 5 -> (1, 4).
    x, report = _kernel_lp(np.array([1.0, 2.0]),
                          np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                          np.array([3.0, 4.0, 5.0]), np.ones(2))
    assert report.status == STATUS_OPTIMAL
    assert x == pytest.approx([1.0, 4.0], abs=1e-10)
    assert report.gap <= 1e-8


def test_lp_unbounded():
    # max x with x >= 0 only: the iterates run off and never claim optimality.
    x, report = _kernel_lp(np.array([1.0]), np.array([[-1.0]]), np.array([0.0]), np.ones(1))
    assert report.status == STATUS_ITERATION_CAP
    assert x[0] > 10.0


def test_lp_infeasible():
    # x >= 0 together with x <= -1 is empty, so no start is strict.
    with pytest.raises(ValueError):
        _kernel_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]), np.zeros(1))


def test_lp_lower_bounds():
    # max -x - y with x, y >= -2 and x + y <= 1 -> corner (-2, -2).
    x, report = _kernel_lp(np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
                          np.zeros(2), lower=np.array([-2.0, -2.0]))
    assert report.status == STATUS_OPTIMAL
    assert x == pytest.approx([-2.0, -2.0], abs=1e-10)


def test_lp_iteration_cap(monkeypatch):
    monkeypatch.setattr(optim, "_NEWTON_ITERS", 1)
    _, report = _kernel_lp(np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([5.0]),
                          np.ones(2))
    assert report.status == STATUS_ITERATION_CAP
    assert report.iterations == 1


def test_lp_shape_validation():
    with pytest.raises(ValueError):
        _barrier_newton(0.0, np.zeros(2), np.zeros(2), np.array([1.0]),
                        _balance_qr(np.array([[1.0, 1.0]])), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        _barrier_newton(0.0, np.zeros(2), np.zeros(2), np.zeros(2),
                        _balance_qr(np.array([[1.0, 1.0, 1.0]])), np.ones(2), np.zeros(2))


def test_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 7))
        rows = rng.normal(size=(m, n))
        feasible = rng.uniform(0.0, 2.0, n)
        rhs = rows @ feasible + rng.uniform(0.1, 2.0, m)
        # A simplex row keeps the feasible region bounded.
        rows = np.vstack([rows, np.ones(n)])
        rhs = np.concatenate([rhs, [float(feasible.sum() + rng.uniform(1.0, 5.0))]])
        cost = rng.normal(size=n)
        x, report = _kernel_lp(cost, rows, rhs, feasible)
        # The optimum of a bounded LP is the best feasible vertex.
        facets = np.vstack([rows, -np.eye(n)])
        bounds = np.concatenate([rhs, np.zeros(n)])
        best = -np.inf
        for subset in itertools.combinations(range(facets.shape[0]), n):
            corner = facets[list(subset)]
            if abs(np.linalg.det(corner)) < 1e-12:
                continue
            vertex = np.linalg.solve(corner, bounds[list(subset)])
            if float(np.max(facets @ vertex - bounds)) <= 1e-9:
                best = max(best, float(cost @ vertex))
        assert report.status == STATUS_OPTIMAL
        value = float(cost @ x)
        assert value == pytest.approx(best, abs=1e-7 * (1.0 + abs(best)))
        assert float(np.max(rows @ x - rhs)) <= 1e-8
        assert x.min() >= -1e-10
        assert report.gap <= 1e-6 * (1.0 + abs(value))


def test_qp_known_answer():
    # min (x-2)^2 + (y-3)^2 subject to x + y <= 3 -> (1, 2).
    hess = 2.0 * np.eye(2)
    grad = np.array([-4.0, -6.0])
    x, lam, _, residual, status = active_set_qp(hess, grad,
                                                np.array([[1.0, 1.0]]),
                                                np.array([3.0]),
                                                np.zeros(2))
    assert status == STATUS_OPTIMAL
    assert x == pytest.approx([1.0, 2.0], abs=1e-9)
    assert lam == pytest.approx([2.0], abs=1e-9)
    assert residual <= 1e-9


def test_qp_unconstrained_interior():
    hess = np.array([[2.0, 0.0], [0.0, 4.0]])
    grad = np.array([-2.0, -4.0])
    x, lam, _, _, status = active_set_qp(hess, grad,
                                         np.array([[1.0, 0.0]]),
                                         np.array([10.0]),
                                         np.zeros(2))
    assert status == STATUS_OPTIMAL
    assert x == pytest.approx([1.0, 1.0], abs=1e-9)
    assert lam == pytest.approx([0.0], abs=1e-12)


def test_qp_matches_subset_enumeration():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 7))
        root = rng.normal(size=(n, n))
        hess = root @ root.T + 0.1 * np.eye(n)
        grad = rng.normal(size=n) * 3.0
        rows = rng.normal(size=(m, n))
        rhs = rng.uniform(0.1, 2.0, m)  # the origin is always feasible
        x, _, _, residual, status = active_set_qp(hess, grad, rows, rhs, np.zeros(n))
        assert status == STATUS_OPTIMAL
        oracle = brute_force_qp(hess, grad, rows, rhs)
        assert x == pytest.approx(oracle, abs=1e-7)
        assert residual <= 1e-8


def test_qp_rejects_infeasible_start():
    with pytest.raises(ValueError):
        active_set_qp(np.eye(1), np.zeros(1), np.array([[1.0]]),
                      np.array([-1.0]), np.zeros(1))


def _circulation_instance(rng, n, k):
    """Random ``k`` balance rows on ``n`` variables, bounds with a strict interior.

    Returns ``(balance, upper, anchor, basis)``: ``anchor`` satisfies the
    balance rows and every bound strictly, and ``basis`` spans their null
    space (the oracles below enumerate in its coordinates).
    """
    balance = rng.normal(size=(k, n))
    basis = np.linalg.svd(balance)[2][k:].T if k else np.eye(n)
    anchor = basis @ rng.normal(size=basis.shape[1])
    upper = anchor + rng.uniform(0.2, 1.0, n)
    return balance, upper, anchor, basis


def test_projection_known_answer():
    # eps = 1, offset = -p and nothing else leaves the distance to p.
    # Projecting (3, 1) onto {y1 = y2, y <= 1} gives (1, 1).
    y, _, report = _barrier_newton(1.0, np.array([-3.0, -1.0]), np.zeros(2), np.zeros(2),
                                   _balance_qr(np.array([[1.0, -1.0]])), np.ones(2), np.zeros(2))
    assert report.status == STATUS_OPTIMAL
    assert y == pytest.approx([1.0, 1.0], abs=1e-8)


def test_projection_variational_inequality():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        balance, upper, anchor, _ = _circulation_instance(rng, n, int(rng.integers(1, n)))
        target = rng.normal(size=n) * 4.0
        proj, _, report = _barrier_newton(1.0, -target, np.zeros(n), np.zeros(n),
                                          _balance_qr(balance), upper, anchor)
        assert report.status == STATUS_OPTIMAL
        assert float(np.max(proj - upper)) <= 1e-12
        assert float(np.abs(balance @ proj).max()) <= 1e-12
        # Nearest-point characterization: (target - proj) . (z - proj) <= 0
        # for every feasible z.
        for _ in range(20):
            mix = rng.uniform(0.0, 1.0)
            z = mix * anchor + (1.0 - mix) * proj
            assert float((target - proj) @ (z - proj)) <= 1e-7


def test_composite_reduces_to_projection():
    # The projection's squared distance is a QP the subset oracle solves
    # exactly in null-space coordinates.
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        balance, upper, anchor, basis = _circulation_instance(rng, n, 1)
        p = rng.normal(size=n) * 3.0
        x, _, report = _barrier_newton(1.0, -p, np.zeros(n), np.zeros(n), _balance_qr(balance),
                                       upper, anchor)
        z = brute_force_qp(2.0 * basis.T @ basis, -2.0 * basis.T @ p, basis, upper)
        dist = float(np.linalg.norm(basis @ z - p))
        assert float(np.linalg.norm(x - p)) == pytest.approx(dist, abs=1e-9 * (1.0 + dist))
        assert report.status == STATUS_OPTIMAL


def test_composite_pure_quadratic_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        balance, upper, anchor, basis = _circulation_instance(rng, n, int(rng.integers(0, n)))
        weights = rng.uniform(0.1, 3.0, n)
        lin = rng.normal(size=n) * 2.0
        x, _, report = _barrier_newton(0.0, np.zeros(n), weights, lin, _balance_qr(balance),
                                       upper, anchor)
        # The kernel minimizes sum(w y^2) + g'y; the subset oracle uses
        # (1/2)z'Hz + g'z, so H = 2 N'WN in null-space coordinates.
        z = brute_force_qp(2.0 * (basis.T * weights) @ basis, basis.T @ lin, basis, upper)
        oracle = basis @ z
        assert x == pytest.approx(oracle, abs=1e-7)
        best = float(oracle @ (weights * oracle) + lin @ oracle)
        assert float(x @ (weights * x) + lin @ x) == pytest.approx(best, abs=1e-9 * (1.0 + abs(best)))
        assert report.status == STATUS_OPTIMAL
        assert report.gap <= 1e-10 * (1.0 + abs(best))


def test_composite_linear_matches_lp():
    # eps = 0 and no quadratic term is a plain LP: maximize y1 subject to
    # y1 + y2 = 0 and y <= (2, 3), whose optimum is the vertex (2, -2).
    x, _, report = _barrier_newton(0.0, np.zeros(2), np.zeros(2), np.array([-1.0, 0.0]),
                                   _balance_qr(np.array([[1.0, 1.0]])), np.array([2.0, 3.0]),
                                   np.zeros(2))
    assert report.status == STATUS_OPTIMAL
    assert x == pytest.approx([2.0, -2.0], abs=1e-9)


def test_composite_rejects_negative_eps():
    with pytest.raises(ValueError):
        _barrier_newton(-1.0, np.ones(1), np.zeros(1), np.zeros(1), _balance_qr(np.zeros((0, 1))),
                        np.ones(1), np.zeros(1))


def test_composite_infeasible_polytope():
    # y1 + y2 = 0 with both below -1 is empty, so no start can be strict.
    with pytest.raises(ValueError):
        _barrier_newton(1.0, np.ones(2), np.zeros(2), np.zeros(2),
                        _balance_qr(np.array([[1.0, 1.0]])), -np.ones(2), np.zeros(2))


def test_projection_infeasible_raises():
    # Projecting the origin onto {x >= 0, x <= -1}: with y = (x, -x) the
    # set is y1 + y2 = 0, y <= (-1, 0), which is empty, and the kernel
    # refuses it.
    with pytest.raises(ValueError):
        _barrier_newton(1.0, np.zeros(2), np.zeros(2), np.zeros(2),
                        _balance_qr(np.array([[1.0, 1.0]])), np.array([-1.0, 0.0]), np.zeros(2))


def test_composite_iteration_cap_reports_its_state(monkeypatch):
    monkeypatch.setattr(optim, "_NEWTON_ITERS", 2)
    _, _, report = _barrier_newton(0.0, np.zeros(2), np.ones(2), np.array([-1.0, 0.0]),
                                   _balance_qr(np.array([[1.0, 1.0]])), np.array([2.0, 3.0]),
                                   np.zeros(2))
    assert report.status == STATUS_ITERATION_CAP
    assert report.iterations == 2
    assert 0.0 < report.gap < np.inf


def test_convergence_error_carries_diagnostics():
    err = ConvergenceError("stalled", iterations=12, residual=0.5)
    assert err.iterations == 12
    assert err.residual == 0.5
    assert "stalled" in str(err)
