"""Tests for scenario loading and the Monte Carlo experiment grid."""

import json
import pathlib

import numpy as np
import pytest

import robusttolls
from robusttolls.design import solve_dro_tolls
from robusttolls.equilibrium import kkt_blocks, latency_decomposition
from robusttolls.exceptions import FileFormatError, InfeasibleError
from robusttolls.harness import ExperimentGrid, Scenario, load_scenario, run_experiment
from robusttolls.network import incidence

DATA = pathlib.Path(robusttolls.__file__).parent / "data"
BUNDLED_SCENARIO = str(DATA / "pigou_scenario.json")


def small_scenario(base: Scenario, grid=(0.0, 10.0), mc_samples=2000, seed=42) -> Scenario:
    return Scenario(network=base.network, lat=base.lat, model=base.model,
                    grid=tuple(float(g) for g in grid), mc_samples=mc_samples, seed=seed)


def test_load_bundled_scenario():
    scenario = load_scenario(BUNDLED_SCENARIO)
    assert scenario.network.demand == 100.0
    assert scenario.network.edge_ids() == ("e1", "e2")
    assert scenario.grid == (0.0, 10.0, 20.0, 30.0)
    assert scenario.mc_samples == 10_000
    assert scenario.seed == 42
    assert scenario.model.mean == pytest.approx([20.0, 30.0])
    assert scenario.model.support_radius == 0.2


def test_load_scenario_seed_override():
    scenario = load_scenario(BUNDLED_SCENARIO, seed_override=7)
    assert scenario.seed == 7


def write_scenario(tmp_path, payload, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def two_road_payload():
    return {
        "network": "net.json",
        "disturbance": {"mean": [20.0, 30.0], "cov": [[0.01, 0.0], [0.0, 0.01]],
                        "delta": 0.2},
        "grid": [0.0, 10.0],
        "mc_samples": 500,
        "seed": 1,
    }


def write_two_road_network(tmp_path):
    (tmp_path / "net.json").write_text(json.dumps({
        "nodes": ["s", "d"],
        "edges": [
            {"id": "e1", "from": "s", "to": "d", "beta": 1.5},
            {"id": "e2", "from": "s", "to": "d", "beta": 0.1},
        ],
        "source": "s",
        "destination": "d",
        "demand": 100.0,
    }))


def test_load_scenario_resolves_relative_network(tmp_path):
    write_two_road_network(tmp_path)
    scenario = load_scenario(write_scenario(tmp_path, two_road_payload()))
    assert scenario.network.num_edges == 2
    assert scenario.grid == (0.0, 10.0)


def test_load_scenario_estimates_from_samples(tmp_path):
    write_two_road_network(tmp_path)
    (tmp_path / "records.csv").write_text(
        "f_e1,f_e2,l_e1,l_e2\n"
        "10.0,90.0,34.9,39.1\n"
        "10.0,90.0,35.1,38.9\n")
    payload = two_road_payload()
    payload["disturbance"] = {"samples": "records.csv", "delta": 0.2}
    scenario = load_scenario(write_scenario(tmp_path, payload))
    assert scenario.model.mean == pytest.approx([20.0, 30.0], abs=1e-12)
    assert scenario.model.cov == pytest.approx(
        np.array([[0.01, -0.01], [-0.01, 0.01]]), abs=1e-12)


def test_load_scenario_schema_errors(tmp_path):
    write_two_road_network(tmp_path)
    for mutate in (
        lambda p: p.pop("grid"),
        lambda p: p.update(grid=[]),
        lambda p: p.update(grid=[0.0, "ten"]),
        lambda p: p.update(mc_samples=0),
        lambda p: p.update(mc_samples=True),
        lambda p: p.update(seed="forty-two"),
        lambda p: p.update(disturbance={"delta": 0.2}),
        lambda p: p.update(disturbance={"mean": [1.0], "cov": [[1.0]], "delta": 0.2}),
        lambda p: p.update(network=17),
    ):
        payload = two_road_payload()
        mutate(payload)
        with pytest.raises(FileFormatError):
            load_scenario(write_scenario(tmp_path, payload))


def test_load_scenario_bad_file(tmp_path):
    with pytest.raises(FileFormatError):
        load_scenario(str(tmp_path / "absent.json"))
    path = tmp_path / "broken.json"
    path.write_text("{")
    with pytest.raises(FileFormatError):
        load_scenario(str(path))


def test_run_experiment_shapes_and_indexing():
    scenario = small_scenario(load_scenario(BUNDLED_SCENARIO))
    grid = run_experiment(scenario)
    assert isinstance(grid, ExperimentGrid)
    assert grid.grid == (0.0, 10.0)
    assert len(grid.cells) == 4
    assert grid.edge_ids == ("e1", "e2")
    assert grid.cell(1, 0).eps == 10.0
    assert grid.cell(1, 0).eps_hat == 0.0
    # All cells in one column share the design for that anticipated radius.
    assert grid.cell(0, 1).tau_star == pytest.approx(grid.cell(1, 1).tau_star, abs=0.0)


def test_run_experiment_expectations_match_design_formula():
    scenario = small_scenario(load_scenario(BUNDLED_SCENARIO))
    blocks = kkt_blocks(incidence(scenario.network), scenario.lat)
    grid = run_experiment(scenario)
    for i, eps in enumerate(grid.grid):
        for j, eps_hat in enumerate(grid.grid):
            cell = grid.cell(i, j)
            q, q0 = latency_decomposition(blocks, cell.tau_star)
            expected = eps * float(np.linalg.norm(q)) + float(q @ scenario.model.mean) + q0
            assert cell.expectation == pytest.approx(expected, abs=1e-9)
    # Diagonal cells reproduce the designed worst case.
    for j, eps_hat in enumerate(grid.grid):
        designed = solve_dro_tolls(blocks, scenario.model, eps_hat)
        assert grid.cell(j, j).expectation == pytest.approx(designed.worst_case_latency, abs=1e-6)


def test_run_experiment_estimates_near_expectations():
    scenario = small_scenario(load_scenario(BUNDLED_SCENARIO), mc_samples=4000)
    grid = run_experiment(scenario)
    for cell in grid.cells:
        assert cell.stderr > 0.0
        assert abs(cell.estimate - cell.expectation) <= 6.0 * cell.stderr


def test_run_experiment_deterministic_and_seed_sensitive():
    base = load_scenario(BUNDLED_SCENARIO)
    first = run_experiment(small_scenario(base, mc_samples=800))
    second = run_experiment(small_scenario(base, mc_samples=800))
    assert all(a.estimate == b.estimate for a, b in zip(first.cells, second.cells))
    other = run_experiment(small_scenario(base, mc_samples=800, seed=43))
    assert any(a.estimate != b.estimate for a, b in zip(first.cells, other.cells))
    # Designs and expectations do not depend on the Monte Carlo seed.
    assert all(a.expectation == b.expectation for a, b in zip(first.cells, other.cells))


def test_run_experiment_rejects_bad_grids():
    base = load_scenario(BUNDLED_SCENARIO)
    with pytest.raises(ValueError):
        run_experiment(small_scenario(base, grid=(0.0, -1.0)))
    with pytest.raises(InfeasibleError) as info:
        run_experiment(small_scenario(base, grid=(0.0, 45.0)))
    assert "45" in str(info.value)


@pytest.mark.parametrize("field, token", [("mean", "NaN"), ("cov", "Infinity"),
                                          ("delta", "-Infinity")])
def test_load_scenario_rejects_non_finite_tokens(tmp_path, field, token):
    write_two_road_network(tmp_path)
    payload = two_road_payload()
    if field == "mean":
        payload["disturbance"]["mean"][0] = 4321.5
    elif field == "cov":
        payload["disturbance"]["cov"][1][1] = 4321.5
    else:
        payload["disturbance"]["delta"] = 4321.5
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload).replace("4321.5", token))
    with pytest.raises(FileFormatError) as info:
        load_scenario(str(path))
    assert str(path) in str(info.value) and token in str(info.value)


@pytest.mark.parametrize("cov", [
    "[[0.01, 0.0, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]]",  # 3x3 on two edges
    "[0.01, 0.01]",  # flat list
    "[[0.01, 0.0], [0.0]]",  # ragged
    '[[0.01, 0.0], [0.0, "x"]]',  # a non-numeric entry
    "[[0.01, 0.0], [0.0, 1e999]]",  # overflows to infinity
    "[[0.01, 0.0], [0.0, 1" + "0" * 400 + "]]",  # an integer beyond the float range
], ids=["3x3", "flat", "ragged", "non-numeric", "1e999", "10**400"])
def test_load_scenario_requires_an_m_by_m_cov(tmp_path, cov):
    write_two_road_network(tmp_path)
    payload = two_road_payload()
    payload["disturbance"]["cov"] = "COV"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload).replace('"COV"', cov))
    with pytest.raises(FileFormatError) as info:
        load_scenario(str(path))
    assert "'cov'" in str(info.value)
