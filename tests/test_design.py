"""Tests for toll polytopes, robustness ceilings, and the toll design solver."""

import decimal
from fractions import Fraction

import numpy as np
import pytest

from randnets import (golden_section, layered_dag_network, random_dag_network, random_instance,
                      sample_strict_toll, twelve_decade_family, twelve_decade_networks)
from robusttolls import design, optim
from robusttolls.design import (
    DesignResult,
    _toll_for_circulation,
    dro_objective,
    epsilon_max,
    polytope_nonempty,
    solve_dro_tolls,
    toll_polytope,
)
from robusttolls.equilibrium import (LatencyModel, equilibrium_latency_g, kkt_blocks,
                                     latency_decomposition)
from robusttolls.exceptions import ConvergenceError, InfeasibleError, NumericalDegeneracyError
from robusttolls.harness import Scenario, run_experiment
from robusttolls.network import Edge, Network, incidence
from robusttolls.uncertainty import DisturbanceModel, worst_case_mean
from test_equilibrium import PIGOU_BETA, pigou_blocks
from test_network import pigou

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


@pytest.mark.parametrize("slow", [1e9, 1e11, 1e13])
def test_two_roads_with_extreme_slopes_have_exact_gamma_norm(slow):
    # Two parallel roads: gamma = (1, -1)(1, -1)' / (b1 + b2), so
    # ||gamma|| = 2 / (b1 + b2) and the ceiling is demand (b1 + b2) / 4 - delta.
    beta = np.array([1e-3, slow])
    net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)), demand=100.0)
    blocks = kkt_blocks(incidence(net), LatencyModel(beta))
    model = DisturbanceModel(mean=np.zeros(2), cov=np.zeros((2, 2)), support_radius=0.2)
    assert blocks.gamma_norm == pytest.approx(2.0 / beta.sum(), rel=1e-14)
    ceiling, _ = epsilon_max(blocks, model)
    assert ceiling == pytest.approx(100.0 * beta.sum() / 4.0 - 0.2, rel=1e-12)


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


def test_blocks_and_designs_hold_on_slopes_across_twelve_decades():
    # gamma = W W' is positive semidefinite and annihilates R by
    # construction, so no slope spread may break either property beyond
    # round-off relative to ||gamma||, nor keep the design from starting.
    stalled = set()
    for index, (net, beta) in enumerate(twelve_decade_networks(200)):
        m = net.num_edges
        data = incidence(net)
        blocks = kkt_blocks(data, LatencyModel(beta))
        model = DisturbanceModel(mean=np.zeros(m), cov=np.zeros((m, m)), support_radius=0.0)
        ceiling, _ = epsilon_max(blocks, model)
        try:
            result = solve_dro_tolls(blocks, model, 0.5 * ceiling if np.isfinite(ceiling) else 1.0)
        except ConvergenceError:
            stalled.add(index)
        else:
            assert np.all(result.tau_star >= 0.0) and np.isfinite(result.worst_case_latency)
        if m == data.matrix.shape[0]:
            assert blocks.gamma_norm == 0.0 and not blocks.gamma.any()
            continue
        eigvals = np.linalg.eigvalsh(blocks.gamma)
        assert eigvals[0] >= -1e-10 * blocks.gamma_norm
        assert float(np.abs(blocks.gamma @ data.matrix.T).max()) <= 1e-10 * blocks.gamma_norm
        assert blocks.gamma_norm == pytest.approx(eigvals[-1], rel=1e-12)
    # Instance 86 reaches the kernel's gap tolerance but stalls with its
    # dual residual at 4e-10 relative, above the kernel's 1e-10 (see the
    # FOUND line on optim._barrier_newton in CHANGES.md).  Any other stall
    # is a regression.
    assert stalled <= {86}


def _twelve_decade_design(seed, index, fraction=0.5):
    """Instance ``index`` of the twelve-decade generator, designed at ``fraction`` of its ceiling.

    Returns the network with its blocks, a zero disturbance model and the radius.
    """
    for at, (net, beta) in enumerate(twelve_decade_networks(index + 1, seed)):
        if at == index:
            m = net.num_edges
            blocks = kkt_blocks(incidence(net), LatencyModel(beta))
            model = DisturbanceModel(mean=np.zeros(m), cov=np.zeros((m, m)), support_radius=0.0)
            return net, blocks, model, fraction * epsilon_max(blocks, model)[0]


def test_a_singular_newton_system_raises_a_typed_error():
    # Instance 275 of the seed-11 twelve-decade designs at 0.9 of its
    # ceiling: no guessed face certifies, and the reduced Newton matrix of
    # step 34 is singular in floating point.  That is a typed solver
    # failure, not a bare LinAlgError.
    _, blocks, model, eps = _twelve_decade_design(11, 275, 0.9)
    with pytest.raises(ConvergenceError, match="Newton system of step .* is singular") as info:
        solve_dro_tolls(blocks, model, eps)
    assert info.value.iterations >= 1
    assert info.value.residual == np.inf


def _m250_design_at_radius_zero():
    """The 4th m = 250 layered DAG of ``default_rng(5)``, designed at radius 0."""
    rng = np.random.default_rng(5)
    for _ in range(4):
        net = layered_dag_network(rng, 100, 250, 2500.0)
        lat = LatencyModel(rng.uniform(0.5, 2.0, 250))
        mean = rng.uniform(10.0, 30.0, 250)
    model = DisturbanceModel(mean=mean, cov=np.zeros((250, 250)), support_radius=0.05)
    return net, kkt_blocks(incidence(net), lat), model, 0.0


def _assert_kkt_optimal(blocks, model, eps, y):
    """Check the design's KKT conditions at the circulation ``y``, without the kernel.

    The null space of R comes from an SVD (the kernel uses a QR) and the
    multipliers from scipy's nonnegative least squares on the bounds
    tight to 1e-9 of the right-hand side's scale, so they are nonnegative
    and complementary.  ``y`` must balance and hold every bound to that
    tolerance, and the reduced gradient the multipliers leave must be at
    most 1e-8 of the size of the gradient and the multipliers.
    """
    optimize = pytest.importorskip("scipy.optimize")
    matrix, beta = blocks.inc.matrix, blocks.lat.beta
    null = np.linalg.svd(matrix)[2][matrix.shape[0]:].T
    rhs = toll_polytope(blocks, model, 0.0).rhs
    scale = max(1.0, float(np.abs(rhs).max()))
    slack = rhs - y
    assert float(np.abs(matrix @ y).max()) <= 1e-12 * scale
    assert float(slack.min()) >= -1e-9 * scale
    shifted = y + blocks.c
    grad = eps * shifted / np.linalg.norm(shifted) + 2.0 * beta * y + model.mean
    tight = slack <= 1e-9 * scale
    mult = optimize.nnls(null[tight].T, -(null.T @ grad))[0] if tight.any() else np.zeros(0)
    residual = np.linalg.norm(null.T @ grad + null[tight].T @ mult)
    assert residual <= 1e-8 * (np.linalg.norm(grad) + np.linalg.norm(mult))


def _handed_circulation(monkeypatch, blocks, model, eps):
    """The design at ``eps`` and the circulation the solve hands to the toll map."""
    handed = []

    def spy(blocks, y):
        handed.append(y)
        return _toll_for_circulation(blocks, y)

    monkeypatch.setattr(design, "_toll_for_circulation", spy)
    return solve_dro_tolls(blocks, model, eps), handed[-1]


@pytest.mark.parametrize("instance", [
    pytest.param(_m250_design_at_radius_zero, id="m250-radius0"),
    pytest.param(lambda: _twelve_decade_design(12, 479), id="seed12-instance479"),
    pytest.param(lambda: _twelve_decade_design(13, 28), id="seed13-instance28"),
    pytest.param(lambda: _twelve_decade_design(11, 170), id="seed11-instance170"),
])
def test_former_kernel_failures_are_kkt_optimal(instance, monkeypatch):
    # The interior-point stopping rule stalled on the m = 250 design
    # (ConvergenceError at step 67) and on instance 28, hit a singular
    # Newton system on instance 479, and on instance 170 stopped "optimal"
    # with a worst-case latency 1.9e-4 above the optimum.  The face
    # crossover certifies each; the checker judges the circulation the
    # kernel hands to the toll map.
    _, blocks, model, eps = instance()
    result, y = _handed_circulation(monkeypatch, blocks, model, eps)
    _assert_kkt_optimal(blocks, model, eps, y)
    poly = toll_polytope(blocks, model, 0.0)
    assert poly.contains(result.tau_star, tol=1e-9 * max(1.0, float(np.abs(poly.rhs).max())))


def _ladder_rung(m):
    """The design ladder's rung of ``m`` edges: seed 2024, with a mean, delta = 0.2."""
    rng = np.random.default_rng(2024)
    net = layered_dag_network(rng, 2 * m // 5, m, 10.0 * m)
    blocks = kkt_blocks(incidence(net), LatencyModel(rng.uniform(0.5, 2.0, m)))
    return blocks, DisturbanceModel(mean=rng.uniform(10.0, 30.0, m), cov=np.zeros((m, m)),
                                    support_radius=0.2)


def _with_mean(seed, index):
    """Instance ``index`` of seed ``seed``'s twelve-decade family, with its mean, delta = 0."""
    net, beta, mean, _ = twelve_decade_family(seed)[index]
    m = net.num_edges
    return (kkt_blocks(incidence(net), LatencyModel(beta)),
            DisturbanceModel(mean=mean, cov=np.zeros((m, m)), support_radius=0.0))


@pytest.mark.parametrize("instance, worst_case", [
    pytest.param(lambda: (pigou_blocks(), PIGOU_MODEL), PIGOU_WORST_CASE[0], id="pigou"),
    pytest.param(lambda: _ladder_rung(250), None, id="ladder-m250"),
    pytest.param(lambda: _ladder_rung(800), None, id="ladder-m800"),
] + [pytest.param(lambda key=key: _with_mean(*key), None, id="with-mean-%d-%d" % key)
     for key in ((11, 8), (11, 10), (11, 18), (12, 6), (12, 16), (11, 135), (12, 266),
                 (11, 454), (13, 143), (13, 288))])
def test_a_nominal_design_finishes_on_its_equilibrium_face(instance, worst_case, monkeypatch):
    # At eps = 0 the design is a Wardrop equilibrium of its slack, accepted
    # by the equilibrium's certificate before any interior-point step.  The
    # cold solves of Pigou and the m = 250 rung took 6 and 16 steps.  The
    # m = 800 rung's face is degenerate, so the kernel's face test refused
    # it and fell back after 21 steps; with-mean designs 11/8 to 12/16 fell
    # back with gaps of 2.9e-7 to 3.2e-5 and failed the independent check.
    # On 11/135 and 12/266 the one projection onto R y = 0 over all edges
    # keeps the face's bounds tight only because the equilibrium solver
    # refines the face's balance first; unrefined, they fail the check (a
    # bound; stationarity).  11/454, 13/143 and 13/288 fell back to the
    # kernel without that refinement.
    blocks, model = instance()
    result, y = _handed_circulation(monkeypatch, blocks, model, 0.0)
    assert (result.iterations, result.residual) == (0, 0.0)
    _assert_kkt_optimal(blocks, model, 0.0, y)
    if worst_case is not None:
        assert result.worst_case_latency == pytest.approx(worst_case, rel=1e-9)


def test_nominal_designs_with_a_mean_finish_warm_and_certified(monkeypatch):
    # With a mean the nominal optimum sits on a face.  The cold kernel
    # finished none of these 100 designs without interior-point steps;
    # 80 now finish as their certified equilibrium (53 while the kernel's
    # face test judged it), and each such finish is optimal by the
    # independent check.
    rng = np.random.default_rng(112)
    warm = 0
    for net, beta in twelve_decade_networks(100, 12):
        m = net.num_edges
        blocks = kkt_blocks(incidence(net), LatencyModel(beta))
        model = DisturbanceModel(mean=rng.uniform(10.0, 30.0, m), cov=np.zeros((m, m)),
                                 support_radius=0.0)
        if blocks.inc.matrix.shape[0] == m:
            continue
        result, y = _handed_circulation(monkeypatch, blocks, model, 0.0)
        if result.iterations == 0:
            warm += 1
            assert result.residual == 0.0
            _assert_kkt_optimal(blocks, model, 0.0, y)
    assert warm >= 80


def test_twelve_decade_instance_86_names_the_dual_residual():
    # The kernel closes its duality gap on this layered DAG but stalls with
    # its dual residual above tolerance, so that is the test the error
    # names, with its value as the residual.
    _, blocks, model, eps = _twelve_decade_design(11, 86)
    with pytest.raises(ConvergenceError, match="relative dual residual .* is above 1e-10") as info:
        solve_dro_tolls(blocks, model, eps)
    assert "duality gap" not in str(info.value)
    assert 1e-10 < info.value.residual < 1e-6


def test_round_off_tolls_on_a_degenerate_face_are_exact_zeros():
    # Instances 25 and 506 of the twelve-decade sweep sit on degenerate
    # faces, and on instance 233 the longest paths leave 3.1e-16 on an
    # edge (of tolls up to 1.3).  A toll that is zero up to round-off of
    # the potentials must be exactly 0.0.
    for index, (net, beta) in enumerate(twelve_decade_networks(507)):
        if index not in (25, 233, 506):
            continue
        m = net.num_edges
        blocks = kkt_blocks(incidence(net), LatencyModel(beta))
        model = DisturbanceModel(mean=np.zeros(m), cov=np.zeros((m, m)), support_radius=0.0)
        ceiling, _ = epsilon_max(blocks, model)
        tau = solve_dro_tolls(blocks, model, 0.5 * ceiling).tau_star
        assert float(tau.min()) >= 0.0 and not np.signbit(tau).any()
        assert not np.any((tau > 0.0) & (tau <= 1e-12 * float(tau.max())))


def test_canonical_zero_tolls_are_exact_zeros():
    # The edge that sets its tail's potential gets a toll of exactly 0.0,
    # not the round-off of the potentials; the CSV prints repr.
    rng = np.random.default_rng(7)
    for n, m in ((6, 12), (40, 100)):
        for _ in range(10):
            net = layered_dag_network(rng, n, m, 100.0)
            blocks = kkt_blocks(incidence(net), LatencyModel(rng.uniform(0.5, 2.0, m)))
            model = DisturbanceModel(mean=rng.uniform(10.0, 30.0, m), cov=np.zeros((m, m)),
                                     support_radius=0.2)
            ceiling, _ = epsilon_max(blocks, model)
            tau = solve_dro_tolls(blocks, model, 0.5 * ceiling).tau_star
            assert not np.any((tau > 0.0) & (tau <= 1e-12 * float(tau.max())))


def _canonicalization_cases():
    """Layered DAGs with m = 12, 24, 100 and 250, then random DAGs with
    slopes log-uniform over twelve decades, with their disturbance models."""
    rng = np.random.default_rng(2026)
    cases = []
    for n, m, count in ((6, 12, 6), (10, 24, 6), (40, 100, 3), (100, 250, 1)):
        for _ in range(count):
            net = layered_dag_network(rng, n, m, 10.0 * m)
            blocks = kkt_blocks(incidence(net), LatencyModel(rng.uniform(0.5, 2.0, m)))
            cases.append((blocks, DisturbanceModel(mean=rng.uniform(10.0, 30.0, m),
                                                   cov=np.zeros((m, m)), support_radius=0.2)))
    while len(cases) < 40:
        net = random_dag_network(rng, 10, 20)
        m = net.num_edges
        blocks = kkt_blocks(incidence(net), LatencyModel(10.0 ** rng.uniform(-6.0, 6.0, m)))
        if blocks.inc.matrix.shape[0] < m:
            cases.append((blocks, DisturbanceModel(mean=np.zeros(m), cov=np.zeros((m, m)),
                                                   support_radius=0.0)))
    return cases


def _exact_least_potential_toll(blocks, y):
    """The least-potential toll of the circulation ``y``, in rational arithmetic.

    The potentials are the longest paths to the destination with edge
    weights ``-beta*y`` (the floating-point products, taken exactly),
    memoized over the acyclic network in :class:`fractions.Fraction`.
    Returns the exact tolls ``pi_tail - pi_head + beta_e y_e``.
    """
    matrix = blocks.inc.matrix
    k, m = matrix.shape
    weight = [Fraction(float(w)) for w in blocks.lat.beta * y]
    tails = [int(np.flatnonzero(matrix[:, e] > 0.5)[0]) for e in range(m)]
    heads = [int(np.flatnonzero(matrix[:, e] < -0.5)[0]) if (matrix[:, e] < -0.5).any() else k
             for e in range(m)]
    out = {}
    for e in range(m):
        out.setdefault(tails[e], []).append(e)
    potential = {k: Fraction(0)}

    def longest(node):
        if node not in potential:
            potential[node] = max(longest(heads[e]) - weight[e] for e in out[node])
        return potential[node]

    return [longest(tails[e]) - longest(heads[e]) + weight[e] for e in range(m)]


def test_tolls_are_the_exact_least_potential_tolls(monkeypatch):
    # Every design toll and every finite ceiling certificate is the
    # least-potential toll of its circulation: it keeps the response y,
    # is nonnegative with no negative zero, leaves every node but the
    # destination a toll-free out-edge, and matches the exact toll to
    # round-off.  The design's circulation is the one the solve hands to
    # the toll map.
    cases = _canonicalization_cases()
    for net, beta in twelve_decade_networks(40, seed=12):
        m = net.num_edges
        cases.append((kkt_blocks(incidence(net), LatencyModel(beta)),
                      DisturbanceModel(mean=np.zeros(m), cov=np.zeros((m, m)), support_radius=0.0)))
    pairs = []
    for index, (blocks, model) in enumerate(cases):
        ceiling, certificate = epsilon_max(blocks, model)
        if certificate is None:
            continue
        pairs.append((blocks, design._ceiling(blocks, model)[1], certificate))
        try:
            result, y = _handed_circulation(monkeypatch, blocks, model,
                                            (0.0, 0.5, 0.9)[index % 3] * ceiling)
        except ConvergenceError:
            continue
        pairs.append((blocks, y, result.tau_star))
    assert len(pairs) >= 150, len(pairs)
    for blocks, y, tau in pairs:
        matrix = blocks.inc.matrix
        m = matrix.shape[1]
        assert float(tau.min()) >= 0.0 and not np.signbit(tau).any()
        # The response is y when tau - beta*y is a potential difference
        # R' pi, which gamma annihilates (gamma @ tau would add the
        # round-off of gamma's own entries).
        scale = float(np.abs(blocks.lat.beta * y).max())
        shift = tau - blocks.lat.beta * y
        pi = np.linalg.lstsq(matrix.T, shift, rcond=None)[0]
        assert float(np.abs(matrix.T @ pi - shift).max()) <= 1e-12 * m * scale
        assert (matrix[:, tau == 0.0] > 0.5).any(axis=1).all()
        exact = np.array([float(t) for t in _exact_least_potential_toll(blocks, y)])
        assert float(np.abs(tau - exact).max()) <= 1e-12 * m * scale


def test_single_route_tolls_are_exact_zeros():
    net = Network(num_nodes=4, edges=(Edge("a", 0, 1), Edge("b", 1, 2), Edge("c", 2, 3)),
                  demand=5.0)
    blocks = kkt_blocks(incidence(net), LatencyModel(np.array([1.0, 2.0, 3.0])))
    model = DisturbanceModel(mean=np.array([1.0, 2.0, 3.0]), cov=np.zeros((3, 3)),
                             support_radius=0.1)
    tau = solve_dro_tolls(blocks, model, 2.0).tau_star
    assert np.array_equal(tau, np.zeros(3)) and not np.signbit(tau).any()


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


def _exact_worst_case(blocks, model, eps, tau):
    """Worst-case expected latency of the toll ``tau``, judged in exact arithmetic.

    ``eps ||q|| + mean @ q + tau gamma tau + eta s eta`` with
    ``q = gamma tau + c``, from the floating-point inputs taken exactly:
    ``gamma tau = B^-1 (tau - R' p)`` and ``c = B^-1 R' s eta`` by two
    rational solves with ``L = R B^-1 R'`` (``L p = R B^-1 tau``,
    ``L u = eta``, ``u = s eta``), and the norm in 50-digit decimals.
    Only the standard library computes; the matrix is read entry by entry.
    """
    matrix = [[int(round(v)) for v in row] for row in blocks.inc.matrix]
    k, m = len(matrix), len(matrix[0])
    inv_beta = [1 / Fraction(float(b)) for b in blocks.lat.beta]
    tau = [Fraction(float(t)) for t in tau]
    eta = [Fraction(float(v)) for v in blocks.inc.injections]
    # Gauss-Jordan on [L | R B^-1 tau | eta].
    rows = [[sum(matrix[i][e] * matrix[j][e] * inv_beta[e] for e in range(m)) for j in range(k)]
            + [sum(matrix[i][e] * inv_beta[e] * tau[e] for e in range(m)), eta[i]]
            for i in range(k)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    p, u = [row[k] for row in rows], [row[k + 1] for row in rows]
    flow_response = [inv_beta[e] * (tau[e] - sum(matrix[i][e] * p[i] for i in range(k)))
                     for e in range(m)]
    c = [inv_beta[e] * sum(matrix[i][e] * u[i] for i in range(k)) for e in range(m)]
    q = [g + ce for g, ce in zip(flow_response, c)]
    rest = (sum(Fraction(float(a)) * qe for a, qe in zip(model.mean, q))
            + sum(t * g for t, g in zip(tau, flow_response)) + sum(v * w for v, w in zip(eta, u)))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        squares = sum(qe * qe for qe in q)
        norm = (decimal.Decimal(squares.numerator) / decimal.Decimal(squares.denominator)).sqrt()
        return decimal.Decimal(float(eps)) * norm + (decimal.Decimal(rest.numerator)
                                                      / decimal.Decimal(rest.denominator))


# Twelve-decade designs (seed -> instance -> fractions of the ceiling) on
# which the worst case evaluated through gamma @ tau_star in floating point
# misses the exact value by 1e-10 to 2.8e-8 relative.
_EXACTLY_JUDGED = {11: {23: (0.0, 0.5, 0.9), 139: (0.0, 0.5, 0.9), 234: (0.0,)},
                   12: {346: (0.0, 0.9), 479: (0.0, 0.5, 0.9)}}


def test_reported_worst_case_is_exact_to_round_off():
    # The oracle first meets a value by hand: Pigou's two roads with slopes
    # (1.5, 0.5), both exact in binary, demand 100, mean (20, 30), radius 10
    # and toll (5, 0) give gamma tau = (2.5, -2.5), c = (25, 75) and
    # eta s eta = 100^2 * 3/8, so the worst case is 10 ||(27.5, 72.5)||
    # + 20*27.5 + 30*72.5 + 5*2.5 + 3750 = 10 sqrt(6012.5) + 6487.5.
    blocks = kkt_blocks(incidence(pigou()), LatencyModel(np.array([1.5, 0.5])))
    exact = _exact_worst_case(blocks, PIGOU_MODEL, 10.0, np.array([5.0, 0.0]))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        expected = 10 * decimal.Decimal("6012.5").sqrt() + decimal.Decimal("6487.5")
    assert abs(exact - expected) <= decimal.Decimal("1e-40")
    # The reported worst case is read off the design's circulation, so it
    # matches the exact worst case of the printed toll to round-off.
    judged = 0
    for seed, instances in _EXACTLY_JUDGED.items():
        for index, (net, beta) in enumerate(twelve_decade_networks(max(instances) + 1, seed)):
            if index not in instances:
                continue
            m = net.num_edges
            blocks = kkt_blocks(incidence(net), LatencyModel(beta))
            model = DisturbanceModel(mean=np.zeros(m), cov=np.zeros((m, m)), support_radius=0.0)
            ceiling, _ = epsilon_max(blocks, model)
            for fraction in instances[index]:
                eps = fraction * ceiling
                result = solve_dro_tolls(blocks, model, eps)
                exact = _exact_worst_case(blocks, model, eps, result.tau_star)
                error = abs(decimal.Decimal(result.worst_case_latency) - exact) / abs(exact)
                assert error <= decimal.Decimal("1e-12"), (seed, index, fraction, error)
                judged += 1
    assert judged == 12


def test_a_designs_toll_evaluates_to_its_own_worst_case():
    # latency_decomposition forms gamma tau once and reads its quadratic
    # term as sum beta y^2, as the design does, so the printed toll gives
    # back the design's worst case.  On these twelve-decade networks with
    # a mean, the dense quadratic form tau gamma tau misses it by up to
    # 5.4e-9 relative.
    judged = 0
    for seed, index in ((11, 275), (12, 479)):
        rng = np.random.default_rng(seed + 100)
        for net, beta in twelve_decade_networks(index + 1, seed):
            mean = rng.uniform(10.0, 30.0, net.num_edges)
        m = net.num_edges
        blocks = kkt_blocks(incidence(net), LatencyModel(beta))
        model = DisturbanceModel(mean=mean, cov=np.zeros((m, m)), support_radius=0.0)
        ceiling, _ = epsilon_max(blocks, model)
        for fraction in (0.0, 0.5, 0.9):
            eps = fraction * ceiling
            result = solve_dro_tolls(blocks, model, eps)
            q, q0 = latency_decomposition(blocks, result.tau_star)
            worst = eps * float(np.linalg.norm(q)) + float(q @ mean) + q0
            assert worst == pytest.approx(result.worst_case_latency, rel=1e-9, abs=0.0), \
                (seed, index, fraction)
            judged += 1
    assert judged == 6


def test_solve_dro_tolls_canonical_representative():
    # Among tolls inducing the same response, the solver returns the one
    # of least potentials: the cheapest route from every node charges
    # nothing, so shifting along the incidence row space without leaving
    # the nonnegative orthant cannot lower the revenue at a feasible flow.
    rng = np.random.default_rng(17)
    for _ in range(10):
        net, lat, blocks, model, ceiling = random_instance(rng)
        eps = 0.3 * min(ceiling, 10.0 * net.demand) if np.isfinite(ceiling) else 1.0
        tau = solve_dro_tolls(blocks, model, eps).tau_star
        cheapest = np.full(net.num_nodes, np.inf)
        cheapest[-1] = 0.0
        for _ in range(net.num_nodes):
            for j, e in enumerate(net.edges):
                cheapest[e.tail] = min(cheapest[e.tail], tau[j] + cheapest[e.head])
        assert np.array_equal(cheapest, np.zeros(net.num_nodes))
        flow = blocks.inc.max_min_flow
        base = float(tau @ flow)
        rows = blocks.inc.matrix
        for _ in range(20):
            alt = tau + rows.T @ rng.normal(size=rows.shape[0])
            if float(alt.min()) < 0.0:
                continue
            assert float(alt @ flow) >= base - 1e-9 * (1.0 + base)


def test_solve_dro_tolls_rejects_radius_above_ceiling():
    with pytest.raises(InfeasibleError) as info:
        solve_dro_tolls(pigou_blocks(), PIGOU_MODEL, 45.0)
    assert info.value.epsilon_max == pytest.approx(39.8, abs=1e-6)
    with pytest.raises(ValueError):
        solve_dro_tolls(pigou_blocks(), PIGOU_MODEL, -1.0)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_non_finite_radius_is_refused(eps):
    # NaN passed the old eps < 0 guard and reached the ceiling rule, which
    # reported it as a radius past the robustness ceiling.
    blocks = pigou_blocks()
    for call in (lambda: solve_dro_tolls(blocks, PIGOU_MODEL, eps),
                 lambda: toll_polytope(blocks, PIGOU_MODEL, eps),
                 lambda: dro_objective(blocks, PIGOU_MODEL, eps, np.zeros(2)),
                 lambda: worst_case_mean(blocks, np.zeros(2), PIGOU_MODEL, eps)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            call()


def _two_roads_with_extreme_slopes():
    # Slopes 1e-3 and 1e11 put the ceiling near 2.5e12, where an absolute
    # slack of 1e-9 is below the spacing of doubles.
    net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)), demand=100.0)
    blocks = kkt_blocks(incidence(net), LatencyModel(np.array([1e-3, 1e11])))
    return blocks, DisturbanceModel(mean=np.zeros(2), cov=np.zeros((2, 2)), support_radius=0.0)


@pytest.mark.parametrize("instance, past", [(lambda: _pigou_with_radius(0.2), 5e-10),
                                            (_two_roads_with_extreme_slopes, 1e-3)],
                         ids=["pigou", "extreme-slopes"])
def test_design_admits_a_radius_exactly_when_its_toll_set_is_nonempty(instance, past):
    # The design admits a radius exactly when its toll set is nonempty, at
    # the ceiling and just past it, on a small ceiling and on a huge one.
    blocks, model = instance()
    ceiling, _ = epsilon_max(blocks, model)
    for eps in (ceiling, ceiling + past):
        nonempty = polytope_nonempty(toll_polytope(blocks, model, eps))
        try:
            solve_dro_tolls(blocks, model, eps)
        except InfeasibleError as err:
            assert not nonempty and err.epsilon_max == ceiling
        else:
            assert nonempty
        assert nonempty or eps > ceiling


def test_experiment_grid_refuses_what_the_design_refuses():
    blocks, model = _pigou_with_radius(0.2)
    ceiling, _ = epsilon_max(blocks, model)
    refused = ceiling + 5e-10
    assert not polytope_nonempty(toll_polytope(blocks, model, refused))
    scenario = Scenario(network=pigou(), lat=LatencyModel(PIGOU_BETA), model=model,
                        grid=(0.0, refused), mc_samples=10, seed=1)
    with pytest.raises(InfeasibleError) as info:
        run_experiment(scenario)
    assert info.value.epsilon_max == ceiling
    # One gate refuses the radius for both, in the same words, naming the
    # radius and the ceiling.
    with pytest.raises(InfeasibleError) as single:
        solve_dro_tolls(blocks, model, refused)
    assert str(info.value) == str(single.value)
    # Both print as shortest round-trip text, so the radius 5e-10 past the
    # ceiling does not read as equal to it.
    assert str(single.value) == (f"anticipated radius {refused!r} exceeds the robustness "
                                 f"ceiling {ceiling!r}")


def test_support_radius_a_rounding_past_the_ceiling_leaves_a_zero_ceiling():
    # Pigou's zero-radius ceiling is 40.  A support radius 1e-14 past it
    # still passes the rule, so the nominal toll set is nonempty and the
    # ceiling is 0 (not infeasible, nor a negative round-off): the design
    # has no interior to start from, as at a radius of exactly 40.
    blocks, model = _pigou_with_radius(40.0 * (1.0 + 1e-14))
    assert polytope_nonempty(toll_polytope(blocks, model, 0.0))
    assert epsilon_max(blocks, model)[0] == 0.0
    with pytest.raises(NumericalDegeneracyError):
        solve_dro_tolls(blocks, model, 0.0)


def _two_roads_at_their_ceiling():
    # Two equal roads: t* = 50 and ||gamma|| = 2, so a support radius of 25
    # leaves a ceiling of zero up to rounding (epsmax prints 3.55e-15).
    net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)), demand=100.0)
    blocks = kkt_blocks(incidence(net), LatencyModel(np.array([0.5, 0.5])))
    return net, blocks, DisturbanceModel(mean=np.array([20.0, 30.0]), cov=np.zeros((2, 2)),
                                         support_radius=25.0)


def test_a_start_with_no_interior_is_a_numerical_degeneracy():
    # The certificate's slack is positive before the kernel projects it
    # onto R y = 0 and zero after; the kernel alone judges the start, so
    # the design and the experiment raise the typed error, not ValueError.
    net, blocks, model = _two_roads_at_their_ceiling()
    with pytest.raises(NumericalDegeneracyError, match="least slack"):
        solve_dro_tolls(blocks, model, 0.0)
    scenario = Scenario(network=net, lat=blocks.lat, model=model, grid=(0.0,), mc_samples=10,
                        seed=1)
    with pytest.raises(NumericalDegeneracyError, match="least slack"):
        run_experiment(scenario)


def test_a_start_with_no_interior_is_refused_before_the_equilibrium_solve(monkeypatch):
    # At eps = 0 the design is an equilibrium solve, but the start check
    # comes first: two equal roads at a zero ceiling raise the typed error
    # and never reach the equilibrium solver.
    def unreachable(*args):
        raise AssertionError("the equilibrium solver ran before the start check")

    monkeypatch.setattr(optim, "_dual_newton", unreachable)
    _, blocks, model = _two_roads_at_their_ceiling()
    with pytest.raises(NumericalDegeneracyError, match="least slack"):
        solve_dro_tolls(blocks, model, 0.0)


def test_a_ceiling_below_the_spacing_of_the_tolls_is_a_numerical_degeneracy():
    # Two roads with slopes 1e-6, demand 1e-6 and mean (1e4, 0): the
    # ceiling is 5e-13, and the bound and the start, both about
    # (-5e9, 5e9), leave a slack of 5e-7, below their rounding.  No node
    # potential shift helps: the route costs really differ by 1e4 over
    # slopes of 1e-6, and the optimal toll difference 1e4 - 1e-12 lies
    # below the spacing of doubles near 1e4.  So no computed toll can be
    # the design, and the typed error is the honest outcome.
    net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)), demand=1e-6)
    blocks = kkt_blocks(incidence(net), LatencyModel(np.full(2, 1e-6)))
    model = DisturbanceModel(mean=np.array([1e4, 0.0]), cov=np.zeros((2, 2)), support_radius=0.0)
    ceiling = epsilon_max(blocks, model)[0]
    assert ceiling == pytest.approx(5e-13, rel=1e-9)
    for fraction in (0.0, 0.5, 0.9):
        with pytest.raises(NumericalDegeneracyError, match="least slack"):
            solve_dro_tolls(blocks, model, fraction * ceiling)


def test_designs_a_few_ulps_below_the_ceiling_solve_or_raise_the_typed_error():
    # Support radii 1 to 4 ulps below t*/||gamma|| leave a ceiling of zero
    # up to rounding.  Whether the projected start keeps any slack is up to
    # that rounding; either way the outcome is a design inside the nominal
    # toll set or NumericalDegeneracyError.
    rng = np.random.default_rng(5)
    outcomes = set()
    for index in range(40):
        if index % 2:
            net = layered_dag_network(rng, 6, 12, 100.0)
            beta = rng.uniform(0.5, 2.0, net.num_edges)
        else:
            net = Network(num_nodes=2, edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)),
                          demand=float(rng.uniform(1.0, 200.0)))
            beta = rng.uniform(0.05, 3.0, 2)
        m = net.num_edges
        mean = rng.uniform(10.0, 30.0, m)
        blocks = kkt_blocks(incidence(net), LatencyModel(beta))
        delta = float(blocks.inc.max_min_flow.min()) / blocks.gamma_norm
        for _ in range(4):
            delta = float(np.nextafter(delta, 0.0))
            model = DisturbanceModel(mean=mean, cov=np.zeros((m, m)), support_radius=delta)
            try:
                tau = solve_dro_tolls(blocks, model, 0.0).tau_star
            except NumericalDegeneracyError:
                outcomes.add("degenerate")
                continue
            outcomes.add("solved")
            poly = toll_polytope(blocks, model, 0.0)
            assert poly.contains(tau, tol=1e-9 * float(np.abs(poly.rhs).max()))
    assert outcomes == {"solved", "degenerate"}


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
    # The solve finishes on its certified face, complementary by construction.
    assert result.residual == 0.0
    # A budget too small to close the gap surfaces the real count and gap.
    monkeypatch.setattr(optim, "_NEWTON_ITERS", 1)
    with pytest.raises(ConvergenceError) as info:
        solve_dro_tolls(pigou_blocks(), PIGOU_MODEL, 10.0)
    assert info.value.iterations == 1
    assert 0.0 < info.value.residual < np.inf
