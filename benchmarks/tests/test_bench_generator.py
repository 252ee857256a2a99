"""The seeded generator hits the exact size and yields valid program inputs."""

import json
import os

import numpy as np
import pytest

import netgen
import oracle
from robusttolls.design import epsilon_max
from robusttolls.equilibrium import kkt_blocks
from robusttolls.harness import load_scenario
from robusttolls.network import Edge, Network, incidence, validate_network


@pytest.mark.parametrize("m", [12, 24, 100, 150, 250, 450])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_layered_dag_exact_size_and_valid(m, seed):
    n = netgen.nodes_for_edges(m)
    edges = netgen.layered_dag(np.random.default_rng(seed), n, m)
    assert len(edges) == m
    assert len(set(edges)) == m
    assert {v for e in edges for v in e} == set(range(n))
    net = Network(num_nodes=n, edges=tuple(Edge(f"e{j}", t, h) for j, (t, h) in enumerate(edges)),
                  demand=1.0)
    assert validate_network(net).ok
    assert incidence(net).matrix.shape == (n - 1, m)


def test_layered_dag_rejects_impossible_sizes():
    with pytest.raises(ValueError):
        netgen.layered_dag(np.random.default_rng(0), 10, 5)
    with pytest.raises(ValueError):
        netgen.layered_dag(np.random.default_rng(0), 4, 50)


def test_dag_scenario_loads_with_exact_size_and_repeats(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = netgen.dag_scenario(np.random.default_rng(7), 24, str(tmp_path / "a"), "x")
    second = netgen.dag_scenario(np.random.default_rng(7), 24, str(tmp_path / "b"), "x")
    scenario = load_scenario(first["scenario"])
    assert (scenario.network.num_nodes, scenario.network.num_edges) == (first["n"], 24)
    for key in ("network", "scenario"):
        with open(first[key], "rb") as a, open(second[key], "rb") as b:
            assert a.read() == b.read()
    blocks = kkt_blocks(incidence(scenario.network), scenario.lat)
    ceiling, _ = epsilon_max(blocks, scenario.model)
    assert ceiling > 1.0


def test_pigou_scenarios_match_closed_form_ceiling(tmp_path):
    made = netgen.pigou_scenarios(np.random.default_rng(3), str(tmp_path), draws=100, records=500)
    assert [m["name"] for m in made] == ["inline", "samples"]
    with open(made[1]["samples"], encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == 501
    for entry in made:
        scenario = load_scenario(entry["scenario"])
        blocks = kkt_blocks(incidence(scenario.network), scenario.lat)
        ceiling, _ = epsilon_max(blocks, scenario.model)
        beta = tuple(scenario.lat.beta)
        assert ceiling == pytest.approx(netgen.pigou_ceiling(beta, 100.0, 0.2), rel=1e-12)
        with open(entry["scenario"], encoding="utf-8") as handle:
            grid = json.load(handle)["grid"]
        assert len(grid) == 6 and max(grid) <= 0.9 * ceiling


def test_oracle_reproduces_the_published_pigou_ceiling():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    path = os.path.join(root, "src", "robusttolls", "data", "pigou_scenario.json")
    ceiling, _ = oracle.load_instance(path).ceiling()
    assert ceiling == pytest.approx(39.8, rel=1e-9)
