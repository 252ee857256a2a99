"""Tests for network construction, validation, incidence, and file loading."""

import json

import numpy as np
import pytest

from randnets import enumerate_paths, random_dag_network
from robusttolls.exceptions import FileFormatError, InvalidNetworkError
from robusttolls.network import (
    Edge,
    Network,
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


def test_validate_self_loop_is_cycle():
    net = Network(num_nodes=3,
                  edges=(Edge("e1", 0, 1), Edge("loop", 1, 1), Edge("e2", 1, 2)),
                  demand=1.0)
    report = validate_network(net)
    assert not report.ok
    assert any("cycle" in p for p in report.problems)


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
