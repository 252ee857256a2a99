"""Tests for the equilibrium blocks and the two flow solvers."""

import numpy as np
import pytest

from randnets import enumerate_paths, layered_dag_network, random_dag_network
from robusttolls import equilibrium, optim
from robusttolls.equilibrium import (
    LatencyModel,
    equilibrium_latency_g,
    kkt_blocks,
    latency_decomposition,
    nash_flow_closed_form,
    nash_flow_potential,
    system_latency,
)
from robusttolls.exceptions import ConvergenceError, OutOfRegimeError
from robusttolls.network import Edge, Network, _endpoints, _max_min_flow, incidence, is_feasible_flow
from robusttolls.optim import STATUS_OPTIMAL, active_set_qp
from test_network import braess, pigou

PIGOU_BETA = np.array([1.5, 0.1])


def pigou_blocks():
    return kkt_blocks(incidence(pigou()), LatencyModel(PIGOU_BETA))


def test_latency_model_validation():
    with pytest.raises(ValueError):
        LatencyModel(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LatencyModel(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        LatencyModel(np.array([]))
    with pytest.raises(ValueError):
        LatencyModel(np.array([[1.0]]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            LatencyModel(np.array([bad, 0.1]))
    model = LatencyModel([2.0, 3.0])
    with pytest.raises(ValueError):
        model.beta[0] = 9.0  # stored array is read-only


def test_kkt_blocks_pigou_values():
    blocks = pigou_blocks()
    assert blocks.gamma == pytest.approx(np.array([[0.625, -0.625],
                                                   [-0.625, 0.625]]), abs=1e-12)
    assert blocks.lam == pytest.approx(np.array([[0.0625], [0.9375]]).ravel().reshape(blocks.lam.shape), abs=1e-12)
    assert blocks.s == pytest.approx(np.array([[0.09375]]), abs=1e-12)
    assert blocks.gamma_norm == pytest.approx(1.25, abs=1e-12)
    assert blocks.c == pytest.approx(np.array([6.25, 93.75]), abs=1e-12)
    assert blocks.demand_latency_term == pytest.approx(937.5, abs=1e-9)


def test_kkt_blocks_braess_values():
    blocks = kkt_blocks(incidence(braess()), LatencyModel(np.ones(5)))
    assert blocks.gamma[0] == pytest.approx([0.375, -0.375, 0.125, -0.125, 0.25], abs=1e-12)
    assert blocks.c == pytest.approx([0.5, 0.5, 0.5, 0.5, 0.0], abs=1e-12)


def test_kkt_blocks_match_dense_inverse():
    # The blocks tile the inverse of the saddle matrix [[B, R'], [R, 0]].
    rng = np.random.default_rng(2024)
    nets = [braess()] + [random_dag_network(rng) for _ in range(20)]
    for net in nets:
        m = net.num_edges
        beta = rng.uniform(0.2, 4.0, m)
        data = incidence(net)
        blocks = kkt_blocks(data, LatencyModel(beta))
        r = data.matrix
        k = r.shape[0]
        saddle = np.zeros((m + k, m + k))
        saddle[:m, :m] = np.diag(beta)
        saddle[:m, m:] = r.T
        saddle[m:, :m] = r
        inv = np.linalg.inv(saddle)
        assert blocks.gamma == pytest.approx(inv[:m, :m], abs=1e-9)
        assert blocks.lam == pytest.approx(inv[:m, m:], abs=1e-9)
        assert blocks.s == pytest.approx(-inv[m:, m:], abs=1e-9)


def test_kkt_blocks_invariants_on_random_networks():
    rng = np.random.default_rng(77)
    for _ in range(30):
        net = random_dag_network(rng)
        data = incidence(net)
        blocks = kkt_blocks(data, LatencyModel(rng.uniform(0.1, 5.0, net.num_edges)))
        scale = max(blocks.gamma_norm, 1.0 / rng.uniform(0.1, 5.0))
        eigvals = np.linalg.eigvalsh(blocks.gamma)
        assert eigvals[0] >= -1e-10 * scale
        annihilation = blocks.gamma @ data.matrix.T
        assert float(np.abs(annihilation).max()) <= 1e-10 * max(scale, 1.0)
        assert blocks.gamma == pytest.approx(blocks.gamma.T, abs=1e-12 * max(1.0, blocks.gamma_norm))


def test_kkt_blocks_accept_slopes_across_six_decades():
    # Round-off in gamma scales with max(1/beta); an annihilation check
    # floored at 1 instead rejected this valid network.
    edges = [(0, 1), (0, 2), (0, 3), (2, 4), (1, 4), (3, 4), (0, 4)]
    net = Network(num_nodes=5, edges=tuple(Edge(f"e{k}", t, h) for k, (t, h) in enumerate(edges)),
                  demand=10.0)
    beta = np.array([1e-3, 1e3, 1e3, 1e-3, 1.0, 1e3, 1e3])
    data = incidence(net)
    blocks = kkt_blocks(data, LatencyModel(beta))
    floor = max(blocks.gamma_norm, 1e3)
    assert float(np.linalg.eigvalsh(blocks.gamma)[0]) >= -1e-10 * floor
    assert float(np.abs(blocks.gamma @ data.matrix.T).max()) <= 1e-10 * floor


def test_kkt_blocks_dimension_mismatch():
    with pytest.raises(ValueError):
        kkt_blocks(incidence(pigou()), LatencyModel(np.array([1.0, 1.0, 1.0])))


def test_closed_form_pigou():
    blocks = pigou_blocks()
    sol = nash_flow_closed_form(blocks, np.array([20.0, 30.0]), np.array([5.0, 0.0]))
    assert sol.method == "closed_form"
    assert sol.flow == pytest.approx([9.375, 90.625], abs=1e-9)
    # Node potentials price the trip: with only the destination pinned at
    # zero, the source potential is the common path cost.
    cost = PIGOU_BETA * sol.flow + np.array([25.0, 30.0])
    assert cost[0] == pytest.approx(cost[1], abs=1e-9)
    assert sol.node_potentials == pytest.approx([cost[0]], abs=1e-9)


def test_closed_form_out_of_regime():
    blocks = pigou_blocks()
    with pytest.raises(OutOfRegimeError) as info:
        nash_flow_closed_form(blocks, np.array([0.0, 200.0]), np.zeros(2))
    assert info.value.min_flow == pytest.approx(-31.25, abs=1e-9)
    assert "potential-based solver" in str(info.value)


def test_closed_form_dimension_checks():
    blocks = pigou_blocks()
    with pytest.raises(ValueError):
        nash_flow_closed_form(blocks, np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        nash_flow_closed_form(blocks, np.zeros(2), np.zeros(1))


def test_potential_solver_handles_pigou_boundary():
    # Huge constant cost on the second road pushes everyone onto the first.
    data = incidence(pigou())
    lat = LatencyModel(PIGOU_BETA)
    sol = nash_flow_potential(data, lat, np.array([0.0, 200.0]), np.zeros(2))
    assert sol.method == "potential"
    assert sol.flow == pytest.approx([100.0, 0.0], abs=1e-8)


def test_potential_solver_handles_braess_boundary():
    data = incidence(braess())
    lat = LatencyModel(np.ones(5))
    alpha = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    closed = kkt_blocks(data, lat)
    with pytest.raises(OutOfRegimeError):
        nash_flow_closed_form(closed, alpha, np.zeros(5))
    sol = nash_flow_potential(data, lat, alpha, np.zeros(5))
    assert sol.flow == pytest.approx([0.5, 0.5, 0.5, 0.5, 0.0], abs=1e-8)


def test_potential_matches_closed_form_in_regime():
    rng = np.random.default_rng(4242)
    for _ in range(25):
        net = random_dag_network(rng)
        m = net.num_edges
        data = incidence(net)
        lat = LatencyModel(rng.uniform(0.2, 3.0, m))
        blocks = kkt_blocks(data, lat)
        # Small constant costs keep every edge carrying flow.
        alpha = rng.uniform(0.0, 0.01 * net.demand * float(lat.beta.min()), m)
        tau = np.zeros(m)
        try:
            closed = nash_flow_closed_form(blocks, alpha, tau)
        except OutOfRegimeError:
            continue
        iterative = nash_flow_potential(data, lat, alpha, tau)
        assert float(np.abs(closed.flow - iterative.flow).max()) <= 1e-6
        assert float(np.abs(closed.node_potentials - iterative.node_potentials).max()) <= 1e-6


def test_potential_solver_satisfies_variational_inequality():
    # Wardrop flows minimize the potential, equivalently the travel cost
    # vector at equilibrium cannot be improved by any feasible reroute:
    # cost(f) . (f' - f) >= 0 for every feasible f'.
    rng = np.random.default_rng(31337)
    for _ in range(20):
        net = random_dag_network(rng)
        m = net.num_edges
        data = incidence(net)
        lat = LatencyModel(rng.uniform(0.2, 3.0, m))
        alpha = rng.uniform(0.0, 2.0 * net.demand, m)
        tau = rng.uniform(0.0, net.demand, m)
        sol = nash_flow_potential(data, lat, alpha, tau)
        assert is_feasible_flow(data, sol.flow, tol=1e-7)
        cost = lat.beta * sol.flow + alpha + tau
        for path in enumerate_paths(net):
            other = np.zeros(m)
            other[list(path)] = net.demand
            gap = float(cost @ (other - sol.flow))
            assert gap >= -1e-6 * (1.0 + abs(float(cost @ sol.flow)))


def test_potential_solver_iteration_budget(monkeypatch):
    data = incidence(pigou())
    lat = LatencyModel(PIGOU_BETA)
    monkeypatch.setattr(optim, "_NEWTON_ITERS", 1)
    with pytest.raises(ConvergenceError) as info:
        nash_flow_potential(data, lat, np.array([0.0, 200.0]), np.zeros(2))
    assert info.value.iterations == 1


@pytest.mark.parametrize("net, alpha, wrong, message", [
    # Pinning Pigou's cheap road leaves it a negative multiplier.
    (pigou(), [20.0, 30.0], [0], "1 pinned edges fails"),
    # Pinning Braess's edges into the destination leaves a face that
    # never reaches it, so its Laplacian has no grounded node.
    (braess(), [0.0] * 5, [2, 3], "2 pinned edges is singular"),
], ids=["negative-multiplier", "singular"])
def test_potential_solver_refuses_a_wrong_face(monkeypatch, net, alpha, wrong, message):
    # The crossover certifies the face it is given; a kernel answer that
    # points at the wrong one raises instead of returning.
    solve = equilibrium._barrier_newton

    def misleading(*args):
        y, lam, report = solve(*args)
        lam = lam.copy()
        lam[wrong] = 1e6
        return y, lam, report

    monkeypatch.setattr(equilibrium, "_barrier_newton", misleading)
    data = incidence(net)
    with pytest.raises(ConvergenceError, match=message):
        nash_flow_potential(data, LatencyModel(np.linspace(1.0, 1.5, net.num_edges)),
                            np.array(alpha), np.zeros(net.num_edges))


@pytest.mark.parametrize("edges", [[(0, 1)], [(0, 1), (1, 2)]], ids=["one-edge", "series"])
def test_potential_solver_on_single_route_networks(edges):
    # One route leaves no circulation: the null space of R is empty and
    # the interior-point kernel has no variables.
    net = Network(num_nodes=len(edges) + 1,
                  edges=tuple(Edge(f"e{k}", t, h) for k, (t, h) in enumerate(edges)), demand=4.0)
    data = incidence(net)
    lat = LatencyModel(np.linspace(1.0, 2.0, len(edges)))
    alpha = np.linspace(3.0, 0.5, len(edges))
    tau = np.full(len(edges), 0.25)
    closed = nash_flow_closed_form(kkt_blocks(data, lat), alpha, tau)
    sol = nash_flow_potential(data, lat, alpha, tau)
    assert sol.flow == pytest.approx(closed.flow, rel=1e-12)
    assert sol.node_potentials == pytest.approx(closed.node_potentials, rel=1e-12)


def test_potential_solver_certifies_boundary_equilibria_at_scale():
    # Layered DAGs of benchmark size with a third of the edges priced out
    # by about the demand, so that many edges pin at zero.
    rng = np.random.default_rng(8080)
    for m in (100, 125, 150, 500):
        net = layered_dag_network(rng, m // 3, m, float(m))
        data = incidence(net)
        lat = LatencyModel(rng.uniform(0.5, 2.0, m))
        alpha = rng.uniform(0.0, 5.0, m)
        hit = rng.choice(m, m // 3, replace=False)
        alpha[hit] += net.demand * rng.uniform(0.5, 1.5, hit.size)
        tau = np.zeros(m)
        sol = nash_flow_potential(data, lat, alpha, tau)
        assert is_feasible_flow(data, sol.flow)
        cost = lat.beta * sol.flow + alpha + tau
        drop = data.matrix.T @ sol.node_potentials
        scale = float(np.abs(cost).max())
        used = sol.flow > 1e-9 * net.demand
        pinned = ~used
        assert pinned.sum() >= m // 10
        assert np.all(sol.flow[pinned] == 0.0)
        assert float(np.abs(cost - drop)[used].max()) <= 1e-7 * scale
        assert float((drop - cost).max()) <= 1e-7 * scale


def _active_set_reference(data, lat, alpha, tau):
    """Equilibrium flow by the primal active-set QP in null-space coordinates.

    With ``N`` an orthonormal basis of null(R) and ``f*`` the max-min
    flow, ``f = f* + N z`` and the bounds are ``-N z <= f*``, so
    ``active_set_qp`` solves the potential from ``z = 0``.  Flows within
    round-off of zero come back as ``0.0``.
    """
    matrix = data.matrix
    k, m = matrix.shape
    beta = lat.beta
    basis = np.linalg.qr(matrix.T, mode="complete")[0][:, k:]
    start = _max_min_flow(data)
    z, _, _, _, status = active_set_qp((basis.T * beta) @ basis,
                                       basis.T @ (beta * start + alpha + tau),
                                       -basis, start, np.zeros(m - k))
    assert status == STATUS_OPTIMAL
    flow = start + basis @ z
    flow[flow <= 1e-10 * float(data.injections.max())] = 0.0
    return flow


def test_potential_solver_matches_active_set_reference():
    # Calm and stormy (+100 on a third of the edges) layered DAGs: the
    # interior-point solve and its crossover land on the active-set
    # solution, with the same edges pinned at exactly zero.
    rng = np.random.default_rng(6060)
    untouched = 0
    for m in (50, 100, 150):
        for stormy in (False, True):
            net = layered_dag_network(rng, 2 * m // 5, m, float(m))
            data = incidence(net)
            lat = LatencyModel(rng.uniform(0.5, 2.0, m))
            alpha = rng.uniform(10.0, 30.0, m)
            if stormy:
                alpha[rng.choice(m, m // 3, replace=False)] += 100.0
            tau = np.zeros(m)
            reference = _active_set_reference(data, lat, alpha, tau)
            sol = nash_flow_potential(data, lat, alpha, tau)
            assert float(np.abs(sol.flow - reference).max()) <= 1e-9 * float(reference.max())
            pinned = reference == 0.0
            assert pinned.any()
            assert np.array_equal(sol.flow == 0.0, pinned)
            # Wardrop's certificate at the returned potentials, to round-off
            # (the barrier iterate alone is only good to about 1e-9): flow
            # balances, used edges cost their potential drop and the
            # multipliers cost - drop are nonnegative on every edge, also
            # where no used edge touches either end.
            assert float(np.abs(data.matrix @ sol.flow - data.injections).max()) <= 1e-12 * m
            cost = lat.beta * sol.flow + alpha + tau
            multipliers = cost - data.matrix.T @ sol.node_potentials
            scale = float(np.abs(cost).max())
            assert float(np.abs(multipliers[~pinned]).max()) <= 1e-12 * scale
            assert float(multipliers.min()) >= -1e-12 * scale
            tails, heads = _endpoints(data)
            touched = np.zeros(data.matrix.shape[0] + 1, dtype=bool)
            touched[tails[~pinned]] = touched[heads[~pinned]] = True
            untouched += int((~touched).sum())
    assert untouched > 0


def test_system_latency_single_edge():
    net = Network(num_nodes=2, edges=(Edge("only", 0, 1),), demand=5.0)
    lat = LatencyModel(np.array([2.0]))
    flow = nash_flow_closed_form(kkt_blocks(incidence(net), lat),
                                 np.array([1.0]), np.array([0.0])).flow
    assert flow == pytest.approx([5.0], abs=1e-12)
    assert system_latency(flow, lat, np.array([1.0])) == pytest.approx(55.0, abs=1e-9)


def test_system_latency_excludes_tolls():
    blocks = pigou_blocks()
    alpha = np.array([20.0, 30.0])
    tau = np.array([5.0, 0.0])
    sol = nash_flow_closed_form(blocks, alpha, tau)
    direct = float(np.sum(sol.flow * (PIGOU_BETA * sol.flow + alpha)))
    assert system_latency(sol.flow, LatencyModel(PIGOU_BETA), alpha) == pytest.approx(direct, abs=1e-9)
    with_tolls = float(np.sum(sol.flow * (PIGOU_BETA * sol.flow + alpha + tau)))
    assert with_tolls != pytest.approx(direct, abs=1e-6)


def test_latency_decomposition_pigou():
    blocks = pigou_blocks()
    q, q0 = latency_decomposition(blocks, np.array([5.0, 0.0]))
    assert q == pytest.approx([9.375, 90.625], abs=1e-9)
    assert q0 == pytest.approx(953.125, abs=1e-9)


def test_latency_decomposition_toll_row_space_invariance():
    # Tolls shifted along the incidence row space leave the response and
    # the decomposition unchanged: (6, 1) = (5, 0) + 1 on both roads.
    blocks = pigou_blocks()
    q_a, q0_a = latency_decomposition(blocks, np.array([5.0, 0.0]))
    q_b, q0_b = latency_decomposition(blocks, np.array([6.0, 1.0]))
    assert q_a == pytest.approx(q_b, abs=1e-9)
    assert q0_a == pytest.approx(q0_b, abs=1e-9)


def test_equilibrium_latency_matches_flow_computation():
    rng = np.random.default_rng(909)
    checked = 0
    while checked < 25:
        net = random_dag_network(rng)
        m = net.num_edges
        data = incidence(net)
        lat = LatencyModel(rng.uniform(0.2, 3.0, m))
        blocks = kkt_blocks(data, lat)
        alpha = rng.uniform(0.0, 0.02 * net.demand * float(lat.beta.min()), m)
        tau = rng.uniform(0.0, 0.02 * net.demand * float(lat.beta.min()), m)
        try:
            g = equilibrium_latency_g(blocks, alpha, tau)
            sol = nash_flow_closed_form(blocks, alpha, tau)
        except OutOfRegimeError:
            continue
        checked += 1
        direct = system_latency(sol.flow, lat, alpha)
        assert abs(g - direct) <= 1e-8 * (1.0 + abs(g))


def test_equilibrium_latency_g_pigou_value():
    blocks = pigou_blocks()
    g = equilibrium_latency_g(blocks, np.array([20.0, 30.0]), np.array([5.0, 0.0]))
    assert g == pytest.approx(3859.375, abs=1e-9)


def test_equilibrium_latency_g_out_of_regime():
    blocks = pigou_blocks()
    with pytest.raises(OutOfRegimeError):
        equilibrium_latency_g(blocks, np.array([0.0, 200.0]), np.zeros(2))
