"""Tests for toll polytopes, robustness ceilings, and the toll design solver."""

import numpy as np
import pytest

from randnets import golden_section, layered_dag_network, random_instance, sample_strict_toll
from robusttolls import optim
from robusttolls.design import (
    DesignResult,
    dro_objective,
    epsilon_max,
    polytope_nonempty,
    solve_dro_tolls,
    toll_polytope,
)
from robusttolls.equilibrium import LatencyModel, equilibrium_latency_g, kkt_blocks
from robusttolls.exceptions import ConvergenceError, InfeasibleError
from robusttolls.network import Edge, Network, incidence
from robusttolls.uncertainty import DisturbanceModel, worst_case_mean
from test_equilibrium import pigou_blocks

PIGOU_MODEL = DisturbanceModel(mean=np.array([20.0, 30.0]), cov=0.01 * np.eye(2),
                               support_radius=0.2)

# Convergent reference values for the bundled two-road example, computed
# with a scalar search over the single effective toll direction.
PIGOU_TOLLS = (5.0, 9.2752266, 13.1883117, 16.7536686)
PIGOU_WORST_CASE = (3859.375, 4758.5404376, 5635.8162348, 6493.9487470)


def test_toll_polytope_pigou_rhs():
    poly = toll_polytope(pigou_blocks(), PIGOU_MODEL, eps=0.0)
    assert poly.rhs == pytest.approx([12.25, 87.25], abs=1e-9)
    assert poly.gamma == pytest.approx(pigou_blocks().gamma, abs=1e-12)


def test_toll_polytope_contains():
    poly = toll_polytope(pigou_blocks(), PIGOU_MODEL, eps=0.0)
    assert poly.contains(np.array([5.0, 0.0]))
    assert poly.contains(np.array([0.0, 0.0]))
    assert not poly.contains(np.array([25.0, 0.0]))
    assert not poly.contains(np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        poly.contains(np.zeros(3))


def test_toll_polytope_shrinks_with_radius():
    blocks = pigou_blocks()
    small = toll_polytope(blocks, PIGOU_MODEL, eps=5.0)
    large = toll_polytope(blocks, PIGOU_MODEL, eps=0.0)
    assert np.all(small.rhs <= large.rhs + 1e-12)
    rng = np.random.default_rng(3)
    for _ in range(50):
        tau = rng.uniform(0.0, 25.0, 2)
        if small.contains(tau):
            assert large.contains(tau)


def test_toll_polytope_rejects_negative_radius():
    with pytest.raises(ValueError):
        toll_polytope(pigou_blocks(), PIGOU_MODEL, eps=-0.5)


def test_polytope_nonempty_pigou():
    blocks = pigou_blocks()
    assert polytope_nonempty(toll_polytope(blocks, PIGOU_MODEL, eps=39.0))
    assert not polytope_nonempty(toll_polytope(blocks, PIGOU_MODEL, eps=40.5))


def _pigou_with_radius(delta):
    model = DisturbanceModel(mean=PIGOU_MODEL.mean, cov=PIGOU_MODEL.cov, support_radius=delta)
    return pigou_blocks(), model


def _network_case(edges, beta, demand=10.0, delta=0.05):
    n = 1 + max(h for _, h in edges)
    net = Network(num_nodes=n, edges=tuple(Edge(f"e{k}", t, h) for k, (t, h) in enumerate(edges)),
                  demand=demand)
    m = len(edges)
    blocks = kkt_blocks(incidence(net), LatencyModel(np.array(beta, dtype=float)))
    mean = np.linspace(0.0, 1.0, m)
    return blocks, DisturbanceModel(mean=mean, cov=np.zeros((m, m)), support_radius=delta)


def _random_cases():
    rng = np.random.default_rng(8080)
    return [random_instance(rng)[2:4] for _ in range(20)]


def _layered_case():
    # A size where a dense simplex's round-off can end on a wrong vertex:
    # one reported 22.769 here against the LP's optimum 22.248.
    rng = np.random.default_rng(28)
    net = layered_dag_network(rng, 60, 150, 1500.0)
    blocks = kkt_blocks(incidence(net), LatencyModel(rng.uniform(0.5, 2.0, 150)))
    model = DisturbanceModel(mean=rng.uniform(0.0, 10.0, 150), cov=np.zeros((150, 150)),
                             support_radius=0.05)
    return [(blocks, model)]


# name -> (instances, known ceiling or None); the known-answer cases
# (Pigou, an empty polytope, a single edge) have tests of their own below.
CEILING_CASES = {
    "series": (lambda: [_network_case([(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 3.0])], np.inf),
    "parallel": (lambda: [_network_case([(0, 1)] * 4, [0.5, 1.0, 2.0, 4.0])], None),
    "braess": (lambda: [_network_case([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
                                      [1.0, 0.1, 0.05, 0.1, 1.0], demand=20.0)], None),
    "random": (_random_cases, None),
    "layered-m150": (_layered_case, None),
}


def _highs_ceiling(optimize, blocks, model):
    """``max eps`` s.t. ``gamma tau + ||gamma|| eps <= rhs(0)``, ``tau, eps >= 0``, by HiGHS."""
    m = blocks.gamma.shape[0]
    cost = np.zeros(m + 1)
    cost[m] = -1.0
    rows = np.hstack([blocks.gamma, np.full((m, 1), blocks.gamma_norm)])
    res = optimize.linprog(cost, A_ub=rows, b_ub=toll_polytope(blocks, model, 0.0).rhs,
                           bounds=(0, None), method="highs")
    if res.status == 0:
        return float(res.x[m])
    return {2: InfeasibleError, 3: np.inf}[res.status]


def _assert_ceilings(instances, known=None):
    """Check ``epsilon_max`` on ``instances`` and, when scipy is there, against HiGHS.

    ``known`` is the ceiling of a single instance, ``np.inf``, or
    ``InfeasibleError`` for a polytope that is empty even at radius zero.
    Every finite ceiling's certificate must be a nonnegative toll in its
    polytope, and the polytope must empty just above the ceiling.
    """
    outcomes = []
    for blocks, model in instances:
        try:
            outcomes.append(epsilon_max(blocks, model))
        except InfeasibleError as err:
            assert err.epsilon_max is None
            outcomes.append((InfeasibleError, None))
    if known in (InfeasibleError, np.inf):
        assert [ceiling for ceiling, _ in outcomes] == [known]
    elif known is not None:
        assert [ceiling for ceiling, _ in outcomes] == [pytest.approx(known, rel=1e-12)]

    for (blocks, model), (ceiling, certificate) in zip(instances, outcomes):
        if ceiling is InfeasibleError or not np.isfinite(ceiling):
            assert certificate is None
            continue
        assert certificate.min() >= 0.0
        poly = toll_polytope(blocks, model, ceiling)
        assert poly.contains(certificate, tol=1e-9 * max(1.0, float(np.abs(poly.rhs).max())))
        assert polytope_nonempty(poly)
        assert not polytope_nonempty(toll_polytope(blocks, model, ceiling * (1.0 + 1e-9) + 1e-9))

    try:
        from scipy import optimize
    except ImportError:
        return
    for (blocks, model), (ceiling, _) in zip(instances, outcomes):
        reference = _highs_ceiling(optimize, blocks, model)
        if reference in (InfeasibleError, np.inf):
            assert ceiling == reference
        else:
            assert ceiling == pytest.approx(reference, rel=1e-10)


def test_epsilon_max_pigou():
    _assert_ceilings([_pigou_with_radius(0.2)], 39.8)


def test_epsilon_max_zero_support_radius():
    _assert_ceilings([_pigou_with_radius(0.0)], 40.0)


def test_epsilon_max_single_edge_unbounded():
    net = Network(num_nodes=2, edges=(Edge("only", 0, 1),), demand=5.0)
    blocks = kkt_blocks(incidence(net), LatencyModel(np.array([2.0])))
    model = DisturbanceModel(mean=np.array([1.0]), cov=np.zeros((1, 1)), support_radius=0.1)
    _assert_ceilings([(blocks, model)], np.inf)


def test_epsilon_max_two_roads_with_extreme_slopes_is_finite():
    # Pigou with slopes 1e-3 and 1e11: ||gamma|| = 2 / (b1 + b2) is tiny
    # but not zero, so the ceiling is t* / ||gamma|| = 50 * (1e11 + 1e-3) / 2,
    # about 2.5e12.  The flow response is zero only when R leaves no
    # circulation, and two parallel roads leave one.
    net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)), demand=100.0)
    blocks = kkt_blocks(incidence(net), LatencyModel(np.array([1e-3, 1e11])))
    model = DisturbanceModel(mean=np.zeros(2), cov=np.zeros((2, 2)), support_radius=0.0)
    ceiling, certificate = epsilon_max(blocks, model)
    assert np.isfinite(ceiling)
    assert ceiling == pytest.approx(2.5e12, rel=0.01)
    assert certificate.min() >= 0.0


def test_epsilon_max_infeasible_support():
    # With a huge support radius even the nominal polytope is empty.
    _assert_ceilings([_pigou_with_radius(50.0)], InfeasibleError)


@pytest.mark.parametrize("case", list(CEILING_CASES))
def test_epsilon_max_matches_highs(case):
    pytest.importorskip("scipy.optimize")
    build, known = CEILING_CASES[case]
    _assert_ceilings(build(), known)


def test_solve_dro_tolls_starts_inside_on_wide_slope_spreads():
    # Slopes spanning six decades can push an LP-computed certificate
    # outside its own polytope.  The max-min flow start has slack f* on
    # every edge here (zero support radius), so every instance must solve.
    rng = np.random.default_rng(1)
    for _ in range(40):
        net = layered_dag_network(rng, 12, 24, 240.0)
        blocks = kkt_blocks(incidence(net), LatencyModel(10.0 ** rng.uniform(0.0, 6.0, 24)))
        model = DisturbanceModel(mean=np.zeros(24), cov=np.zeros((24, 24)), support_radius=0.0)
        ceiling, _ = epsilon_max(blocks, model)
        result = solve_dro_tolls(blocks, model, 0.5 * ceiling)
        # The duality gap bounds how far the design is from optimal.
        assert 0.0 <= result.residual <= 1e-7 * abs(result.worst_case_latency)
        poly = toll_polytope(blocks, model, 0.0)
        assert poly.contains(result.tau_star, tol=1e-9 * float(np.abs(poly.rhs).max()))


def test_dro_objective_values():
    blocks = pigou_blocks()
    tau = np.array([5.0, 0.0])
    assert dro_objective(blocks, PIGOU_MODEL, 0.0, tau) == pytest.approx(-15.625, abs=1e-9)
    assert dro_objective(blocks, PIGOU_MODEL, 10.0, tau) == pytest.approx(895.4612335695782, abs=1e-7)
    with pytest.raises(ValueError):
        dro_objective(blocks, PIGOU_MODEL, -1.0, tau)
    with pytest.raises(ValueError):
        dro_objective(blocks, PIGOU_MODEL, 1.0, np.zeros(3))


def test_solve_dro_tolls_pigou_grid():
    blocks = pigou_blocks()
    for eps, toll, worst in zip((0.0, 10.0, 20.0, 30.0), PIGOU_TOLLS, PIGOU_WORST_CASE):
        result = solve_dro_tolls(blocks, PIGOU_MODEL, eps)
        assert isinstance(result, DesignResult)
        assert result.eps == eps
        assert result.tau_star[0] == pytest.approx(toll, abs=2e-6)
        assert result.tau_star[1] == pytest.approx(0.0, abs=1e-9)
        assert result.worst_case_latency == pytest.approx(worst, abs=2e-5)
        assert toll_polytope(blocks, PIGOU_MODEL, 0.0).contains(result.tau_star)


def test_solve_dro_tolls_worst_case_is_attained():
    # The reported worst case equals the equilibrium latency at the
    # shifted mean that exhausts the ambiguity radius.
    blocks = pigou_blocks()
    result = solve_dro_tolls(blocks, PIGOU_MODEL, 10.0)
    shifted = worst_case_mean(blocks, result.tau_star, PIGOU_MODEL, 10.0)
    attained = equilibrium_latency_g(blocks, shifted, result.tau_star)
    assert attained == pytest.approx(result.worst_case_latency, abs=1e-7)


def test_solve_dro_tolls_canonical_representative():
    # Among tolls inducing the same response, the solver returns the one
    # of least norm; shifting along the incidence row space cannot do
    # better without leaving the nonnegative orthant.
    rng = np.random.default_rng(17)
    for _ in range(10):
        net, lat, blocks, model, ceiling = random_instance(rng)
        eps = 0.3 * min(ceiling, 10.0 * net.demand) if np.isfinite(ceiling) else 1.0
        result = solve_dro_tolls(blocks, model, eps)
        base = float(result.tau_star @ result.tau_star)
        rows = blocks.inc.matrix
        for _ in range(20):
            move = rows.T @ rng.normal(size=rows.shape[0])
            alt = result.tau_star + move
            if float(alt.min()) < 0.0:
                continue
            assert float(alt @ alt) >= base - 1e-7 * (1.0 + base)


def test_solve_dro_tolls_rejects_radius_above_ceiling():
    with pytest.raises(InfeasibleError) as info:
        solve_dro_tolls(pigou_blocks(), PIGOU_MODEL, 45.0)
    assert info.value.epsilon_max == pytest.approx(39.8, abs=1e-6)
    with pytest.raises(ValueError):
        solve_dro_tolls(pigou_blocks(), PIGOU_MODEL, -1.0)


def test_solve_dro_tolls_single_edge():
    net = Network(num_nodes=2, edges=(Edge("only", 0, 1),), demand=5.0)
    blocks = kkt_blocks(incidence(net), LatencyModel(np.array([2.0])))
    model = DisturbanceModel(mean=np.array([1.0]), cov=np.zeros((1, 1)), support_radius=0.1)
    result = solve_dro_tolls(blocks, model, eps=2.0)
    assert result.tau_star == pytest.approx([0.0], abs=1e-9)
    # One road: latency is 2f^2 + f alpha at f = 5, worst alpha = 1 + 2.
    assert result.worst_case_latency == pytest.approx(50.0 + 5.0 * 3.0, abs=1e-9)


def test_solve_dro_tolls_matches_scalar_search_on_two_roads():
    # Two parallel roads leave one effective toll direction, so a scalar
    # golden-section search is an independent oracle for the design.
    rng = np.random.default_rng(2718)
    for _ in range(25):
        beta = rng.uniform(0.05, 4.0, 2)
        demand = float(rng.uniform(10.0, 200.0))
        net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)),
                      demand=demand)
        lat = LatencyModel(beta)
        blocks = kkt_blocks(incidence(net), lat)
        mean = rng.uniform(0.0, 0.3 * demand * float(beta.min()), 2)
        delta = float(rng.uniform(0.0, 0.05 * demand * float(beta.min())))
        model = DisturbanceModel(mean=mean, cov=np.diag(rng.uniform(0.0, 1.0, 2)),
                                 support_radius=delta)
        try:
            ceiling, _ = epsilon_max(blocks, model)
        except InfeasibleError:
            continue
        eps = float(rng.uniform(0.0, 0.9) * ceiling)
        result = solve_dro_tolls(blocks, model, eps)

        gamma = float(blocks.gamma[0, 0])
        rhs = toll_polytope(blocks, model, 0.0).rhs

        def worst_case(d: float) -> float:
            tau = np.array([d, 0.0]) if d >= 0.0 else np.array([0.0, -d])
            q = blocks.gamma @ tau + blocks.c
            q0 = float(tau @ blocks.gamma @ tau) + blocks.demand_latency_term
            return float(eps * np.linalg.norm(q) + q @ model.mean + q0)

        lo, hi = -rhs[1] / gamma, rhs[0] / gamma
        _, oracle = golden_section(worst_case, lo, hi)
        assert result.worst_case_latency <= oracle + 1e-4 * (1.0 + abs(oracle))
        assert result.worst_case_latency >= oracle - 1e-4 * (1.0 + abs(oracle))


def test_designed_tolls_stay_feasible_on_random_networks():
    rng = np.random.default_rng(515)
    for _ in range(8):
        net, lat, blocks, model, ceiling = random_instance(rng)
        eps = 0.5 * min(ceiling, 100.0) if np.isfinite(ceiling) else 1.0
        result = solve_dro_tolls(blocks, model, eps)
        poly = toll_polytope(blocks, model, 0.0)
        assert poly.contains(result.tau_star, tol=1e-6)
        assert float(result.tau_star.min()) >= -1e-9
        # The design must beat (or match) every feasible competitor drawn
        # from the strictly admissible set at this radius.
        for _ in range(5):
            competitor = sample_strict_toll(rng, blocks, model, eps * 0.99)
            assert (dro_objective(blocks, model, eps, result.tau_star)
                    <= dro_objective(blocks, model, eps, competitor) + 1e-5 * (1.0 + abs(result.objective)))


def _slsqp_worst_case(blocks, model, eps, start):
    """Reference optimum of the design in circulation space, by SLSQP.

    ``min eps ||y + c|| + sum beta y^2 + mean @ y`` over ``R y = 0``,
    ``y <= rhs(0)``, parametrized by a null-space basis of R.  The flow
    response and ``c`` are rebuilt here from R and the slopes alone.
    """
    linalg = pytest.importorskip("scipy.linalg")
    optimize = pytest.importorskip("scipy.optimize")
    matrix, eta, beta = blocks.inc.matrix, blocks.inc.injections, blocks.lat.beta
    potentials = linalg.solve((matrix / beta) @ matrix.T, eta, assume_a="pos")
    c = matrix.T @ potentials / beta
    root = 1.0 / np.sqrt(beta)
    q = np.linalg.qr((matrix * root).T)[0]
    gamma = root[:, None] * (np.eye(beta.size) - q @ q.T) * root[None, :]
    rhs = c - gamma @ model.mean - np.linalg.eigvalsh(gamma)[-1] * model.support_radius
    basis = linalg.null_space(matrix)

    def value(z):
        y = basis @ z
        return eps * np.linalg.norm(y + c) + y @ (beta * y) + model.mean @ y

    def grad(z):
        y = basis @ z
        return basis.T @ (eps * (y + c) / np.linalg.norm(y + c) + 2.0 * beta * y + model.mean)

    res = optimize.minimize(value, basis.T @ start, jac=grad, method="SLSQP",
                            constraints=[{"type": "ineq", "fun": lambda z: rhs - basis @ z,
                                          "jac": lambda z: -basis}],
                            options={"ftol": 1e-15, "maxiter": 2000})
    y = basis @ res.x
    assert float((y - rhs).max()) <= 1e-7 * max(1.0, float(np.abs(rhs).max()))
    return value(res.x) + c @ (beta * c) + model.mean @ c


def test_solve_dro_tolls_matches_slsqp_reference():
    rng = np.random.default_rng(4242)
    for _ in range(10):
        net, lat, blocks, model, ceiling = random_instance(rng)
        if not np.isfinite(ceiling):
            continue
        _, certificate = epsilon_max(blocks, model)
        for fraction in (0.0, 0.5, 0.9):
            eps = fraction * ceiling
            result = solve_dro_tolls(blocks, model, eps)
            reference = _slsqp_worst_case(blocks, model, eps, blocks.gamma @ certificate)
            assert result.worst_case_latency == pytest.approx(reference, rel=1e-7)


def test_solve_dro_tolls_reports_newton_state(monkeypatch):
    result = solve_dro_tolls(pigou_blocks(), PIGOU_MODEL, 10.0)
    assert result.iterations >= 1
    assert 0.0 <= result.residual <= 1e-9 * result.worst_case_latency
    # A budget too small to close the gap surfaces the real count and gap.
    monkeypatch.setattr(optim, "_NEWTON_ITERS", 1)
    with pytest.raises(ConvergenceError) as info:
        solve_dro_tolls(pigou_blocks(), PIGOU_MODEL, 10.0)
    assert info.value.iterations == 1
    assert 0.0 < info.value.residual < np.inf
