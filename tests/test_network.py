"""Tests for network construction, validation, incidence, and file loading."""

import dataclasses
import json

import numpy as np
import pytest

from randnets import enumerate_paths, layered_dag_network, random_dag_network, random_instance
from robusttolls.exceptions import FileFormatError, InvalidNetworkError
from robusttolls.network import (
    Edge,
    Network,
    _drop,
    _laplacian,
    _net_outflow,
    incidence,
    is_feasible_flow,
    load_network,
    validate_network,
)


def pigou() -> Network:
    return Network(num_nodes=2,
                   edges=(Edge("e1", 0, 1), Edge("e2", 0, 1)),
                   demand=100.0,
                   node_ids=("s", "d"))


def braess() -> Network:
    # The classic four-node diamond with the crossing edge.
    return Network(num_nodes=4,
                   edges=(Edge("a", 0, 1), Edge("b", 0, 2), Edge("c", 1, 3),
                          Edge("d", 2, 3), Edge("x", 1, 2)),
                   demand=1.0)


def test_network_basic_properties():
    net = pigou()
    assert net.num_edges == 2
    assert net.edge_ids() == ("e1", "e2")
    assert net.node_ids == ("s", "d")


def test_network_defaults_node_ids_to_indices():
    net = braess()
    assert net.node_ids == ("0", "1", "2", "3")


def test_network_rejects_bad_indices():
    with pytest.raises(ValueError):
        Network(num_nodes=2, edges=(Edge("e1", 0, 5),), demand=1.0)
    with pytest.raises(ValueError):
        Network(num_nodes=2, edges=(Edge("e1", -1, 1),), demand=1.0)
    with pytest.raises(ValueError):
        Network(num_nodes=0, edges=(), demand=1.0)
    with pytest.raises(ValueError):
        Network(num_nodes=2, edges=(Edge("e1", 0, 1),), demand=1.0,
                node_ids=("only-one",))


def test_validate_good_networks():
    assert validate_network(pigou()).ok
    assert validate_network(braess()).ok
    report = validate_network(braess())
    assert report.problems == ()


def test_validate_rejects_nonpositive_demand():
    net = Network(num_nodes=2, edges=(Edge("e1", 0, 1),), demand=0.0)
    report = validate_network(net)
    assert not report.ok
    assert any("demand" in p for p in report.problems)
    for demand in (np.inf, -np.inf, np.nan):
        report = validate_network(Network(num_nodes=2, edges=(Edge("e1", 0, 1),), demand=demand))
        assert report.problems == (f"demand must be a finite number, got {demand:g}",)


def test_validate_rejects_a_one_node_network():
    report = validate_network(Network(num_nodes=1, edges=(), demand=1.0))
    assert report.problems == ("need at least two nodes for a source and a destination",)


def test_validate_self_loop_is_cycle():
    net = Network(num_nodes=3,
                  edges=(Edge("e1", 0, 1), Edge("loop", 1, 1), Edge("e2", 1, 2)),
                  demand=1.0)
    report = validate_network(net)
    assert not report.ok
    assert "directed cycle found: loop" in report.problems


def test_validate_reports_cycle_with_witness():
    net = Network(num_nodes=4,
                  edges=(Edge("e1", 0, 1), Edge("e2", 1, 2), Edge("back", 2, 1),
                         Edge("e3", 2, 3)),
                  demand=1.0)
    report = validate_network(net)
    assert not report.ok
    cycle_problems = [p for p in report.problems if "cycle" in p]
    assert cycle_problems
    # The witness spells out the offending edges in walk order.
    assert "e2 -> back" in cycle_problems[0] or "back -> e2" in cycle_problems[0]


def test_validate_second_source_and_sink():
    # Node 1 has no incoming edge (second source), node 2 no outgoing
    # (second sink).
    net = Network(num_nodes=4,
                  edges=(Edge("e1", 0, 2), Edge("e2", 1, 3), Edge("e3", 0, 3)),
                  demand=1.0)
    report = validate_network(net)
    assert not report.ok
    assert any("no incoming" in p for p in report.problems)
    assert any("no outgoing" in p for p in report.problems)


def test_validate_source_without_outgoing():
    net = Network(num_nodes=2, edges=(Edge("e1", 1, 0),), demand=1.0)
    report = validate_network(net)
    assert not report.ok
    assert any("source" in p and "outgoing" in p for p in report.problems)
    assert any("destination" in p and "incoming" in p for p in report.problems)


def test_validate_collects_multiple_problems():
    net = Network(num_nodes=3, edges=(Edge("e1", 1, 1),), demand=-2.0)
    report = validate_network(net)
    assert not report.ok
    assert len(report.problems) >= 3  # demand, cycle, disconnection at least


def test_validation_findings_match_a_transitive_closure():
    # Small random digraphs with self-loops, parallel edges, extra sources
    # and sinks and bad demand, judged by the boolean transitive closure
    # from powers of the adjacency matrix: reach[u, v] when a walk of
    # length 0..n leads from u to v.
    rng = np.random.default_rng(16)
    cyclic = 0
    for _ in range(2000):
        n, m = int(rng.integers(2, 9)), int(rng.integers(0, 16))
        tails, heads = rng.integers(0, n, m), rng.integers(0, n, m)
        net = Network(num_nodes=n, edges=tuple(Edge(f"e{j}", int(tails[j]), int(heads[j]))
                                               for j in range(m)),
                      demand=float(rng.choice([1.0, 0.0, -1.0, np.nan])))
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[tails, heads] = True
        reach = np.eye(n, dtype=bool)
        for _ in range(n):
            reach |= (reach.astype(int) @ adjacency) > 0
        on_cycle = ((adjacency.astype(int) @ reach) > 0).diagonal()
        problems = validate_network(net).problems
        witnesses = [p.removeprefix("directed cycle found: ") for p in problems if "cycle" in p]
        assert len(witnesses) == int(on_cycle.any())
        for witness in witnesses:
            cycle = [int(name[1:]) for name in witness.split(" -> ")]
            assert len(set(cycle)) == len(cycle)
            assert all(heads[a] == tails[b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            cyclic += 1
        dest = n - 1
        assert ("destination is unreachable from the source" in problems) == (not reach[0, dest])
        for j in range(m):
            dead = not (reach[0, tails[j]] and reach[heads[j], dest])
            assert (f"edge e{j} lies on no source-destination path" in problems) == dead
    assert cyclic > 1000


def test_incidence_pigou():
    data = incidence(pigou())
    assert data.matrix == pytest.approx(np.array([[1.0, 1.0]]))
    assert data.injections == pytest.approx(np.array([100.0]))


def test_incidence_braess():
    data = incidence(braess())
    expected = np.array([
        [1.0, 1.0, 0.0, 0.0, 0.0],    # node 0: a, b leave
        [-1.0, 0.0, 1.0, 0.0, 1.0],   # node 1: a enters; c, x leave
        [0.0, -1.0, 0.0, 1.0, -1.0],  # node 2: b, x enter; d leaves
    ])
    assert data.matrix == pytest.approx(expected)
    assert data.injections == pytest.approx(np.array([1.0, 0.0, 0.0]))
    # Edge ends as node indices; the destination is node 3, the dropped row.
    assert data.tails.tolist() == [0, 0, 1, 2, 1]
    assert data.heads.tolist() == [1, 2, 3, 3, 2]
    assert np.issubdtype(data.tails.dtype, np.integer)
    assert np.issubdtype(data.heads.dtype, np.integer)


def test_incidence_rejects_invalid_network():
    net = Network(num_nodes=2, edges=(Edge("e1", 0, 1),), demand=-1.0)
    with pytest.raises(InvalidNetworkError) as info:
        incidence(net)
    assert info.value.problems


def test_incidence_arrays_are_read_only():
    data = incidence(pigou())
    with pytest.raises(ValueError):
        data.matrix[0, 0] = 7.0
    with pytest.raises(ValueError):
        data.injections[0] = 7.0
    with pytest.raises(ValueError):
        data.tails[0] = 1
    with pytest.raises(ValueError):
        data.heads[0] = 0


def test_max_min_flow_matches_the_flow_form_lp():
    # t*, the least entry of the max-min flow, is the optimum of max t
    # s.t. R f = eta, f >= t.  HiGHS's tolerances are absolute, so it
    # solves the LP with the injections divided by the demand, which keeps
    # its numbers near 1 for demands from 1e-6 to 1e6.
    hypothesis = pytest.importorskip("hypothesis")
    strategies = pytest.importorskip("hypothesis.strategies")
    optimize = pytest.importorskip("scipy.optimize")

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @hypothesis.given(seed=strategies.integers(0, 2**32 - 1), layered=strategies.booleans(),
                      decades=strategies.floats(-6.0, 6.0))
    def check(seed, layered, decades):
        rng = np.random.default_rng(seed)
        if layered:
            n = int(rng.choice([6, 8, 10, 12]))
            net = layered_dag_network(rng, n, 2 * n, 1.0)
        else:
            net = random_dag_network(rng, 10, 20)
        demand = 10.0 ** decades
        inc = incidence(dataclasses.replace(net, demand=demand))
        k, m = inc.matrix.shape
        lp = optimize.linprog(np.r_[np.zeros(m), -1.0],
                              A_ub=np.hstack([-np.eye(m), np.ones((m, 1))]), b_ub=np.zeros(m),
                              A_eq=np.hstack([inc.matrix, np.zeros((k, 1))]),
                              b_eq=inc.injections / demand, bounds=(None, None), method="highs")
        assert lp.status == 0, lp.message
        assert float(inc.max_min_flow.min()) == pytest.approx(-lp.fun * demand, rel=1e-9)

    check()


# The path oracle in randnets, checked here because two tests lean on it.
def test_enumerate_paths_braess_lexicographic():
    paths = enumerate_paths(braess())
    # Edge indices: a=0, b=1, c=2, d=3, x=4.
    assert paths == [(0, 2), (0, 4, 3), (1, 3)]


def test_enumerate_paths_pigou():
    assert enumerate_paths(pigou()) == [(0,), (1,)]


def test_is_feasible_flow():
    data = incidence(braess())
    assert is_feasible_flow(data, np.array([0.5, 0.5, 0.5, 0.5, 0.0]))
    assert is_feasible_flow(data, np.array([1.0, 0.0, 0.0, 1.0, 1.0]))
    assert not is_feasible_flow(data, np.array([1.0, 0.0, 1.0, 1.0, 0.0]))
    assert not is_feasible_flow(data, np.array([-0.5, 1.5, -0.5, 1.5, 0.0]))
    with pytest.raises(ValueError):
        is_feasible_flow(data, np.zeros(3))


def _edge_list_nets():
    """Parallel edges (also into the destination), Braess, a one-route chain, random instances."""
    yield "parallel", Network(num_nodes=3, demand=4.0, edges=(
        Edge("a", 0, 1), Edge("b", 0, 1), Edge("c", 1, 2), Edge("d", 1, 2), Edge("e", 0, 2),
        Edge("f", 0, 2)))
    yield "braess", braess()
    yield "chain", Network(num_nodes=4, demand=2.0,
                           edges=(Edge("a", 0, 1), Edge("b", 1, 2), Edge("c", 2, 3)))
    rng = np.random.default_rng(1100)
    for i in range(12):
        yield f"random-{i}", random_instance(rng)[0]


@pytest.mark.parametrize("net", [pytest.param(net, id=name) for name, net in _edge_list_nets()])
def test_edge_list_products_match_the_dense_incidence(net):
    # With dyadic weights and vectors every product and sum is exact, so
    # the scatter and gather forms must equal the dense products bit for
    # bit, also on a face whose zero weights leave a node's row all zero.
    rng = np.random.default_rng(net.num_edges)
    data = incidence(net)
    r = data.matrix
    k, m = r.shape
    x, v = rng.integers(-64, 65, k) / 8.0, rng.integers(-64, 65, m) / 16.0
    assert np.array_equal(_drop(data, x), r.T @ x)
    assert np.array_equal(_net_outflow(data, v), r @ v)
    weights = rng.integers(1, 256, m) / 32.0
    node = int(rng.integers(0, k))
    face = np.where((data.tails == node) | (data.heads == node), 0.0, weights)
    for w in (weights, face):
        assert np.array_equal(_laplacian(data, w), (r * w) @ r.T)
    zeroed = _laplacian(data, face)
    assert not zeroed[node].any() and not zeroed[:, node].any()


def test_random_networks_validate_and_route():
    rng = np.random.default_rng(5150)
    for _ in range(40):
        net = random_dag_network(rng)
        data = incidence(net)
        paths = enumerate_paths(net)
        assert paths
        # Routing all demand down any single path balances the network.
        flow = np.zeros(net.num_edges)
        flow[list(paths[0])] = net.demand
        assert is_feasible_flow(data, flow)


def write_net(tmp_path, payload) -> str:
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload))
    return str(path)


def good_payload():
    return {
        "nodes": ["s", "mid", "d"],
        "edges": [
            {"id": "e1", "from": "s", "to": "mid", "beta": 1.0},
            {"id": "e2", "from": "mid", "to": "d", "beta": 2.0},
            {"id": "e3", "from": "s", "to": "d", "beta": 3.0},
        ],
        "source": "s",
        "destination": "d",
        "demand": 10.0,
    }


def test_load_network_roundtrip(tmp_path):
    net, betas = load_network(write_net(tmp_path, good_payload()))
    assert net.node_ids == ("s", "mid", "d")
    assert net.demand == 10.0
    assert net.edge_ids() == ("e1", "e2", "e3")
    assert betas == pytest.approx([1.0, 2.0, 3.0])
    assert validate_network(net).ok


def test_load_network_orders_source_first_destination_last(tmp_path):
    payload = good_payload()
    payload["nodes"] = ["mid", "d", "s"]  # scrambled on disk
    net, _ = load_network(write_net(tmp_path, payload))
    assert net.node_ids[0] == "s"
    assert net.node_ids[-1] == "d"
    assert net.node_ids == ("s", "mid", "d")


def test_load_network_missing_key(tmp_path):
    payload = good_payload()
    del payload["demand"]
    with pytest.raises(FileFormatError):
        load_network(write_net(tmp_path, payload))


def test_load_network_schema_errors_name_the_file_once(tmp_path):
    payload = good_payload()
    payload["demand"] = "ten"
    path = write_net(tmp_path, payload)
    with pytest.raises(FileFormatError) as info:
        load_network(path)
    assert str(info.value).count(path) == 1 and "'demand'" in str(info.value)
    # The reader's own messages already carry the path; it is not added again.
    (tmp_path / "net.json").write_text("{not json")
    with pytest.raises(FileFormatError) as info:
        load_network(path)
    assert str(info.value).count(path) == 1


def test_load_network_bad_json(tmp_path):
    path = tmp_path / "net.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_network(str(path))


def test_load_network_missing_file(tmp_path):
    with pytest.raises(FileFormatError):
        load_network(str(tmp_path / "absent.json"))


def test_load_network_duplicate_edge_id(tmp_path):
    payload = good_payload()
    payload["edges"][1]["id"] = "e1"
    with pytest.raises(FileFormatError) as info:
        load_network(write_net(tmp_path, payload))
    assert "e1" in str(info.value)


def test_load_network_duplicate_node_id(tmp_path):
    payload = good_payload()
    payload["nodes"] = ["s", "s", "d"]
    with pytest.raises(FileFormatError):
        load_network(write_net(tmp_path, payload))


def test_load_network_unknown_endpoint(tmp_path):
    payload = good_payload()
    payload["edges"][0]["from"] = "ghost"
    with pytest.raises(FileFormatError) as info:
        load_network(write_net(tmp_path, payload))
    assert "ghost" in str(info.value)


def test_load_network_source_equals_destination(tmp_path):
    payload = good_payload()
    payload["destination"] = "s"
    with pytest.raises(FileFormatError):
        load_network(write_net(tmp_path, payload))


def test_load_network_rejects_non_numeric_fields(tmp_path):
    payload = good_payload()
    payload["edges"][0]["beta"] = "fast"
    with pytest.raises(FileFormatError):
        load_network(write_net(tmp_path, payload))
    payload = good_payload()
    payload["demand"] = True  # bool is not an accepted number
    with pytest.raises(FileFormatError):
        load_network(write_net(tmp_path, payload))



def write_net_with_raw_number(tmp_path, where: str, text: str) -> str:
    """A good network file whose first beta or whose demand reads ``text`` verbatim."""
    payload = good_payload()
    if where == "beta":
        payload["edges"][0]["beta"] = 4321.5
    else:
        payload["demand"] = 4321.5
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload).replace("4321.5", text))
    return str(path)


@pytest.mark.parametrize("where, token", [
    ("beta", "Infinity"), ("beta", "NaN"), ("demand", "-Infinity"), ("demand", "NaN"),
])
def test_load_network_rejects_non_finite_tokens(tmp_path, where, token):
    # Python's json module reads these tokens as floats; the loader turns
    # them away at the file boundary and says which file held them.
    path = write_net_with_raw_number(tmp_path, where, token)
    with pytest.raises(FileFormatError) as info:
        load_network(path)
    assert path in str(info.value) and token in str(info.value)


@pytest.mark.parametrize("value", ["1e999", "-1e999", "1" + "0" * 400],
                         ids=["1e999", "-1e999", "10**400"])
@pytest.mark.parametrize("where", ["beta", "demand"])
def test_load_network_rejects_numbers_beyond_float_range(tmp_path, where, value):
    with pytest.raises(FileFormatError) as info:
        load_network(write_net_with_raw_number(tmp_path, where, value))
    assert "finite" in str(info.value)

def test_load_network_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "net.json"
    path.write_bytes(b'{"nodes": ["\xff"]}')
    with pytest.raises(FileFormatError) as info:
        load_network(str(path))
    assert str(path) in str(info.value)
