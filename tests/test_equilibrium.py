"""Tests for the equilibrium blocks and the two flow solvers."""

import numpy as np
import pytest

from randnets import (STATUS_OPTIMAL, active_set_qp, enumerate_paths, layered_dag_network,
                      random_dag_network, twelve_decade_family)
from robusttolls import optim
from robusttolls.equilibrium import (
    LatencyModel,
    equilibrium_latency_g,
    kkt_blocks,
    latency_decomposition,
    nash_flow_closed_form,
    nash_flow_potential,
    system_latency,
)
from robusttolls.exceptions import ConvergenceError, NumericalDegeneracyError, OutOfRegimeError
from robusttolls.network import Edge, Network, _max_min_flow, incidence, is_feasible_flow
from robusttolls.optim import _certificate
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
    # Slopes across six decades: gamma stays positive semidefinite and
    # annihilates the incidence rows, up to round-off on the scale of
    # max(1/beta).
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


def two_hop_network(demand: float) -> Network:
    """Nodes s, m, d: edges a and b from s to m, c from m to d, e from s to d."""
    return Network(num_nodes=3, demand=demand, node_ids=("s", "m", "d"),
                   edges=(Edge("a", 0, 1), Edge("b", 0, 1), Edge("c", 1, 2), Edge("e", 0, 2)))


@pytest.mark.parametrize("demand", [1e-150, 1e-200, 1e-300, 5e-324, 1e200])
def test_potential_solver_fails_typed_or_feasible_at_any_demand(demand):
    # Below a demand of about 1e-160 the squared norm of the injections
    # underflows to zero, and above 1e154 it overflows; the dual solver's
    # damping divides the gradient's norm by it.  The equilibrium either
    # certifies or raises the solver's typed error.
    data = incidence(two_hop_network(demand))
    try:
        sol = nash_flow_potential(data, LatencyModel(np.array([1.0, 2.0, 1.0, 3.0])),
                                  np.array([0.0, 5.0, 0.0, 1.0]), np.zeros(4))
    except ConvergenceError:
        return
    assert is_feasible_flow(data, sol.flow)


def test_system_latency_refuses_to_overflow():
    # At demand 1e200 the equilibrium certifies, but sum(beta f^2) is near
    # 1e400: a typed error naming the overflow, never inf.
    lat = LatencyModel(np.array([1.0, 2.0, 1.0, 3.0]))
    alpha = np.array([0.0, 5.0, 0.0, 1.0])
    sol = nash_flow_potential(incidence(two_hop_network(1e200)), lat, alpha, np.zeros(4))
    assert np.isfinite(sol.flow).all() and float(sol.flow.max()) > 1e199
    with pytest.raises(NumericalDegeneracyError, match="overflows the float range"):
        system_latency(sol.flow, lat, alpha)
    # A non-finite flow or cost is an input fault, named as such.
    for flow, cost, name in (([np.inf, 0.0, 0.0, 0.0], alpha, "flow"),
                             (sol.flow, [0.0, np.nan, 0.0, 0.0], "alpha")):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            system_latency(np.array(flow), lat, np.array(cost))


@pytest.mark.parametrize("flow, potential, balance, gap", [
    # Pigou's equilibrium is dyadic: flows 12.5 and 87.5 at the common
    # latency 38.75, so its balance residual and its gap are exactly 0.0.
    ([12.5, 87.5], 38.75, 0.0, 0.0),
    # No flow: the balance misses by the whole demand, and the gap is
    # negative, as the flow is infeasible.
    ([0.0, 0.0], 38.75, 100.0, -(100.0 * 38.75 - 500.0)),
    # All of the demand on the dear road, at its latency 40, leaves the
    # cheap road unused with R'x - cost = 20 > 0: 20**2 / (2 * 1.5).
    ([0.0, 100.0], 40.0, 0.0, 400.0 / 3.0),
    # The equilibrium flows under the potential 10, below both costs:
    # each flow pays its cost less its drop, 12.5 * 10 + 87.5 * 20, on
    # top of the potential at it, 500.
    ([12.5, 87.5], 10.0, 0.0, 2375.0),
], ids=["equilibrium", "off-balance", "unused-edge-cheaper-than-its-drop",
        "used-edges-dearer-than-their-drop"])
def test_certificate_on_pigou(flow, potential, balance, gap):
    # The gap is f(v) - g(x), in units of 128, the power of two above the
    # demand, and it refuses (beyond _KKT_TOL of its terms) where positive.
    got_balance, lowest, got_gap, terms = _certificate(
        incidence(pigou()), np.array([100.0]), 1.0 / PIGOU_BETA, np.array([20.0, 30.0]),
        np.array(flow), np.array([potential]))
    assert (got_balance, lowest) == (balance, 0.0)
    assert 128.0 * got_gap == pytest.approx(gap, rel=1e-12, abs=0.0)
    assert (got_gap > optim._KKT_TOL * terms) == (gap > 0.0)


@pytest.mark.parametrize("demand", [1e-300, 1e200])
def test_certificate_stays_finite_at_extreme_demands(demand):
    # With zero costs Pigou splits any demand as 1/16 and 15/16 at the
    # common latency 1.5 * demand / 16.  At 1e200 the potential is near
    # 1e399, and at 1e-300 its squares underflow; the certificate's
    # power-of-two units keep every value finite and its terms positive.
    data = incidence(Network(num_nodes=2, edges=pigou().edges, demand=demand))
    flow = np.array([demand / 16.0, 15.0 * demand / 16.0])
    balance, lowest, gap, terms = _certificate(data, np.array([demand]), 1.0 / PIGOU_BETA,
                                               np.zeros(2), flow, np.array([1.5 * flow[0]]))
    assert all(np.isfinite([balance, lowest, gap, terms]))
    assert balance <= 4.0 * np.finfo(float).eps * demand and lowest == 0.0
    assert 0.0 < terms and abs(gap) <= 1e-14 * terms


def test_regime_and_feasibility_scale_with_a_tiny_demand():
    # At demand 1e-12 the closed form puts -6.2e-11 on e1, 62 times the
    # demand: out of regime and infeasible, however small in absolute terms.
    data = incidence(Network(num_nodes=2, edges=pigou().edges, demand=1e-12))
    blocks = kkt_blocks(data, LatencyModel(PIGOU_BETA))
    alpha, tau = np.array([20.0, 30.0]), np.array([0.0, -10.0 - 1e-10])
    with pytest.raises(OutOfRegimeError) as info:
        nash_flow_closed_form(blocks, alpha, tau)
    assert info.value.min_flow == pytest.approx(-6.244e-11, rel=1e-3)
    assert not is_feasible_flow(data, blocks.c - blocks.gamma @ (alpha + tau))
    # The potential solver's balance is judged against the demand too: it
    # misses it by 0.52% here, and by 2.3% with equal costs, so both raise.
    lat = LatencyModel(PIGOU_BETA)
    for costs in ((alpha, tau), (np.array([20.0, 20.0]), np.zeros(2))):
        with pytest.raises(ConvergenceError, match="fails the KKT check"):
            nash_flow_potential(data, lat, *costs)
    # With costs on the demand's own scale it certifies an exact flow.
    sol = nash_flow_potential(data, lat, np.array([1e-12, 0.0]), np.zeros(2))
    assert sol.flow.tolist() == [0.0, 1e-12]
    assert is_feasible_flow(data, sol.flow)
    # A flow within round-off of zero stays in regime: e1's exact flow is
    # +3.3e-16 here, and the round-off of gamma @ cost, with costs near 20,
    # is a few 1e-15 either way.
    sol = nash_flow_closed_form(blocks, np.array([20.0, 20.0 - 1e-13]), np.zeros(2))
    assert abs(sol.flow[0]) < 1e-14


def test_closed_form_keeps_its_accuracy_at_a_tiny_demand():
    # Equal route costs of 20 against a demand of 1e-12: the flow is
    # evaluated on the costs less their common part, so nothing cancels and
    # the closed form returns c, its own exact answer, which balances.
    data = incidence(Network(num_nodes=2, edges=pigou().edges, demand=1e-12))
    blocks = kkt_blocks(data, LatencyModel(PIGOU_BETA))
    sol = nash_flow_closed_form(blocks, np.array([20.0, 20.0]), np.zeros(2))
    assert sol.flow == pytest.approx(blocks.c, rel=1e-15, abs=0.0)
    assert sol.flow == pytest.approx([6.25e-14, 9.375e-13], rel=1e-12, abs=0.0)
    assert is_feasible_flow(data, sol.flow)


def test_closed_form_dimension_checks():
    blocks = pigou_blocks()
    with pytest.raises(ValueError):
        nash_flow_closed_form(blocks, np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        nash_flow_closed_form(blocks, np.zeros(2), np.zeros(1))


@pytest.mark.parametrize("alpha, tau, name", [
    ([np.inf, 0.0], [0.0, 0.0], "alpha"),
    ([-np.inf, 0.0], [0.0, 0.0], "alpha"),
    ([np.nan, 0.0], [0.0, 0.0], "alpha"),
    ([20.0, 30.0], [0.0, np.inf], "tau"),
])
def test_non_finite_costs_are_refused_by_name(alpha, tau, name):
    # An infinite cost made the closed form's flow (-inf, inf) and its
    # latency inf, and kept the potential solver stepping on NaNs until
    # its budget ran out.
    blocks = pigou_blocks()
    alpha, tau = np.array(alpha), np.array(tau)
    for solve in (lambda: nash_flow_closed_form(blocks, alpha, tau),
                  lambda: nash_flow_potential(blocks.inc, blocks.lat, alpha, tau),
                  lambda: equilibrium_latency_g(blocks, alpha, tau)):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            solve()


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
    # Raising the cost of Braess's outer roads takes the dual Newton method
    # two steps; a budget of one stops it with a typed error.
    data = incidence(braess())
    lat = LatencyModel(np.linspace(1.0, 1.5, 5))
    alpha = np.array([5.0, 0.0, 0.0, 5.0, 0.0])
    nash_flow_potential(data, lat, alpha, np.zeros(5))
    monkeypatch.setattr(optim, "_DUAL_STEPS", 1)
    with pytest.raises(ConvergenceError, match="did not converge") as info:
        nash_flow_potential(data, lat, alpha, np.zeros(5))
    assert info.value.iterations == 1
    assert 0.0 < info.value.residual < np.inf


@pytest.mark.parametrize("net, alpha, mislead, message", [
    # All of Pigou's demand on the dear road, at its cost of 1.5 * 100 + 30,
    # balances and is stationary, but leaves the cheap road pinned with a
    # negative multiplier (20 - 180).
    (pigou(), [20.0, 30.0], lambda flow, potentials: ([0.0, 100.0], [180.0]),
     "1 pinned edges fails the KKT check: its duality gap"),
    # Pinning Braess's edges into the destination leaves a face that
    # never reaches it, so no flow on it balances.
    (braess(), [0.0] * 5, lambda flow, potentials: (flow * [1, 1, 0, 0, 1], potentials),
     "2 pinned edges fails the KKT check: its balance residual"),
], ids=["negative-multiplier", "singular"])
def test_potential_solver_refuses_a_wrong_face(monkeypatch, net, alpha, mislead, message):
    # The certificate judges the face the dual solve returns; an answer
    # that points at the wrong one raises, naming the term that fails.
    solve = optim._dual_newton

    def misleading(*args):
        flow, potentials, steps = solve(*args)
        flow, potentials = mislead(flow, potentials)
        return np.array(flow, dtype=float), np.array(potentials, dtype=float), steps

    monkeypatch.setattr(optim, "_dual_newton", misleading)
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
            tails, heads = data.tails, data.heads
            touched = np.zeros(data.matrix.shape[0] + 1, dtype=bool)
            touched[tails[~pinned]] = touched[heads[~pinned]] = True
            untouched += int((~touched).sum())
    assert untouched > 0


def _six_decade_equilibria(seed, count=150):
    """Random and layered DAGs with slopes log-uniform over six decades.

    Even instances are layered DAGs with 20 to 119 edges, odd ones small
    random DAGs.  Constant costs reach about ``median(beta) * demand``
    (or a hundredth of it), and on half the instances a third of the
    edges are shifted by that much again, which pins many of them.
    """
    rng = np.random.default_rng(seed)
    for index in range(count):
        if index % 2 == 0:
            m = int(rng.integers(20, 120))
            net = layered_dag_network(rng, max(3, 2 * m // 5), m, 10.0 * m)
        else:
            net = random_dag_network(rng)
        m = net.num_edges
        beta = 10.0 ** rng.uniform(-3.0, 3.0, m)
        scale = float(np.median(beta)) * net.demand
        alpha = rng.uniform(0.0, 1.0, m) * scale * rng.choice([0.01, 1.0])
        if rng.random() < 0.5:
            hit = rng.choice(m, max(1, m // 3), replace=False)
            alpha[hit] += scale * rng.uniform(0.5, 1.5, hit.size)
        yield index, net, beta, alpha


def _assert_wardrop_certificate(data, lat, alpha, sol):
    """Balance, and used edges costing their potential drop with the rest no cheaper."""
    assert float(np.abs(data.matrix @ sol.flow - data.injections).max()) \
        <= 1e-8 * float(data.injections.max())
    assert float(sol.flow.min()) >= 0.0
    cost = lat.beta * sol.flow + alpha
    multipliers = cost - data.matrix.T @ sol.node_potentials
    scale = float(np.abs(cost).max())
    assert float(np.abs(multipliers[sol.flow > 0.0]).max(initial=0.0)) <= 1e-8 * scale
    assert float(multipliers.min()) >= -1e-8 * scale


def test_potential_solver_certifies_equilibria_across_six_decades():
    # Every answer is KKT-certified or a typed ConvergenceError.  The
    # interior-point solve with its crossover picked a wrong face on 15
    # of these 450 instances; the dual Newton method raises on none.
    raised = []
    for seed in (6000, 6001, 6002):
        for index, net, beta, alpha in _six_decade_equilibria(seed):
            data = incidence(net)
            lat = LatencyModel(beta)
            try:
                sol = nash_flow_potential(data, lat, alpha, np.zeros(net.num_edges))
            except ConvergenceError:
                raised.append((seed, index))
                continue
            _assert_wardrop_certificate(data, lat, alpha, sol)
    assert raised == []


def test_potential_solver_finds_the_face_of_six_decade_instance_25():
    # Seed 6000, instance 25 (a random DAG with 13 edges): the crossover
    # pinned 7 edges and failed its KKT check (residual 1.261e-2).  The
    # equilibrium pins 6, as the active-set reference does.
    for index, net, beta, alpha in _six_decade_equilibria(6000, 26):
        if index == 25:
            break
    data = incidence(net)
    lat = LatencyModel(beta)
    tau = np.zeros(net.num_edges)
    sol = nash_flow_potential(data, lat, alpha, tau)
    _assert_wardrop_certificate(data, lat, alpha, sol)
    reference = _active_set_reference(data, lat, alpha, tau)
    assert int((sol.flow == 0.0).sum()) == 6
    assert np.array_equal(sol.flow == 0.0, reference == 0.0)
    assert float(np.abs(sol.flow - reference).max()) <= 1e-9 * float(reference.max())


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


@pytest.mark.parametrize("seed, index, kind", [
    (11, 33, "calm"), (12, 2, "calm"), (11, 5, "stormy"), (13, 480, "stormy"),
])
def test_refined_face_balance_certifies_twelve_decade_equilibria(seed, index, kind):
    # One solve on the face balanced these to 1.2e-8 to 2.1e-8 of the
    # demand, just past the certificate's 1e-8, on slopes spanning twelve
    # decades.  Refining that solve on the same face block balances them,
    # and the dense products agree: balance within _KKT_TOL of the demand,
    # used edges costing their potential drop and the rest no cheaper.
    net, beta, mean, stormy = twelve_decade_family(seed)[index]
    data = incidence(net)
    lat = LatencyModel(beta)
    alpha = mean if kind == "calm" else stormy
    sol = nash_flow_potential(data, lat, alpha, np.zeros(net.num_edges))
    assert float(np.abs(data.matrix @ sol.flow - data.injections).max()) \
        <= optim._KKT_TOL * net.demand
    _assert_wardrop_certificate(data, lat, alpha, sol)
