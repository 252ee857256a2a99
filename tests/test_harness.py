"""Tests for scenario loading and the Monte Carlo experiment grid."""

import json
import pathlib
import threading

import numpy as np
import pytest
from randnets import layered_dag_network, random_instance

import robusttolls
from robusttolls import equilibrium, harness, network, uncertainty
from robusttolls.cli import _experiment_csv
from robusttolls.design import epsilon_max, solve_dro_tolls
from robusttolls.equilibrium import LatencyModel, kkt_blocks, latency_decomposition
from robusttolls.exceptions import FileFormatError, InfeasibleError, OutOfRegimeError
from robusttolls.harness import ExperimentGrid, Scenario, load_scenario, run_experiment
from robusttolls.network import incidence
from robusttolls.uncertainty import DisturbanceModel, sample_uniform_ball, worst_case_mean

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
    # Each cell is read off its design, so a diagonal cell is the designed
    # worst case itself, here and on a layered network.
    for case in (scenario, layered_scenario(10)):
        blocks = kkt_blocks(incidence(case.network), case.lat)
        grid = run_experiment(case)
        for j, eps_hat in enumerate(grid.grid):
            designed = solve_dro_tolls(blocks, case.model, eps_hat)
            assert grid.cell(j, j).expectation == designed.worst_case_latency


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


def layered_scenario(mc_samples: int, seed: int = 2026) -> Scenario:
    """A layered DAG with 6 nodes and 12 edges, gridded at 0 and half its ceiling."""
    rng = np.random.default_rng(seed)
    net = layered_dag_network(rng, 6, 12, 120.0)
    lat = LatencyModel(rng.uniform(0.5, 2.0, 12))
    model = DisturbanceModel(mean=rng.uniform(10.0, 30.0, 12), cov=np.zeros((12, 12)),
                             support_radius=0.2)
    ceiling, _ = epsilon_max(kkt_blocks(incidence(net), lat), model)
    return Scenario(network=net, lat=lat, model=model, grid=(0.0, 0.5 * ceiling),
                    mc_samples=mc_samples, seed=seed)


@pytest.mark.parametrize("mc_samples, layered", [
    *(pytest.param(count, False, id=str(count)) for count in (1, 2, 4096, 4097, 10_000)),
    # Twelve edges: the row norms go through np.linalg.norm (from eight
    # coordinates on) and the projection through a matrix-vector product.
    pytest.param(4097, True, id="m12-4097"),
])
def test_run_experiment_cells_are_moments_of_the_sampler_draws(mc_samples, layered):
    # The streamed moments equal the two-pass ones over the whole draw array.
    if layered:
        scenario = layered_scenario(mc_samples)
    else:
        scenario = small_scenario(load_scenario(BUNDLED_SCENARIO), mc_samples=mc_samples)
    blocks = kkt_blocks(incidence(scenario.network), scenario.lat)
    grid = run_experiment(scenario)
    for i, eps in enumerate(grid.grid):
        for j in range(len(grid.grid)):
            cell = grid.cell(i, j)
            q, q0 = latency_decomposition(blocks, cell.tau_star)
            center = worst_case_mean(blocks, cell.tau_star, scenario.model, eps)
            draws = sample_uniform_ball(center, scenario.model.support_radius, mc_samples,
                                        seed=(scenario.seed, i, j))
            values = draws @ q + q0
            stderr = values.std(ddof=1) / np.sqrt(mc_samples) if mc_samples > 1 else 0.0
            assert cell.estimate == pytest.approx(values.mean(), rel=1e-12, abs=0.0)
            assert cell.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)


def test_run_experiment_does_not_depend_on_the_cpu_count(monkeypatch):
    scenario = small_scenario(load_scenario(BUNDLED_SCENARIO), grid=(0.0, 10.0, 20.0),
                              mc_samples=5000)
    cell_moments = harness._cell_moments
    threads = []

    def spy(*job):
        threads.append(threading.current_thread())
        return cell_moments(*job)

    monkeypatch.setattr(harness, "_cell_moments", spy)
    grids = []
    for cpus in (1, 4):
        monkeypatch.setattr(harness, "_usable_cpus", lambda cpus=cpus: cpus)
        grids.append(run_experiment(scenario))
    # One CPU: all nine cells on one pool thread, never the calling one;
    # four: none of them there either.
    assert len(threads) == 18
    assert len(set(threads[:9])) == 1 and threads[0] is not threading.main_thread()
    assert not any(thread is threading.main_thread() for thread in threads[9:])
    one, four = grids
    assert _experiment_csv(one) == _experiment_csv(four)
    assert (one.grid, one.edge_ids, one.mc_samples, one.seed) == \
        (four.grid, four.edge_ids, four.mc_samples, four.seed)
    for a, b in zip(one.cells, four.cells, strict=True):
        assert (a.eps, a.eps_hat, a.estimate, a.stderr, a.expectation) == \
            (b.eps, b.eps_hat, b.estimate, b.stderr, b.expectation)
        assert np.array_equal(a.tau_star, b.tau_star)


def test_run_experiment_computes_the_max_min_flow_once(monkeypatch):
    # The ceiling check and each column's design share the network's
    # max-min flow and null basis: one computation each per grid.
    counts = {"flow": 0, "basis": 0}
    max_min_flow, null_basis = network._max_min_flow, network._null_basis

    def flow_spy(inc):
        counts["flow"] += 1
        return max_min_flow(inc)

    def basis_spy(matrix):
        counts["basis"] += 1
        return null_basis(matrix)

    monkeypatch.setattr(network, "_max_min_flow", flow_spy)
    monkeypatch.setattr(network, "_null_basis", basis_spy)
    scenario = small_scenario(load_scenario(BUNDLED_SCENARIO),
                              grid=(0.0, 5.0, 10.0, 15.0, 20.0, 30.0), mc_samples=10)
    run_experiment(scenario)
    assert counts == {"flow": 1, "basis": 1}


def test_run_experiment_computes_one_latency_slope_per_design(monkeypatch):
    # Each design computes its slope once, off its circulation, and every
    # cell of its column reads the slope, the worst case and the mean shift
    # off the design: the grid never evaluates a toll through gamma again.
    calls = []

    def slope_spy(blocks, tau):
        calls.append(tau)
        return latency_decomposition(blocks, tau)

    monkeypatch.setattr(equilibrium, "latency_decomposition", slope_spy)
    monkeypatch.setattr(uncertainty, "latency_decomposition", slope_spy)
    scenario = load_scenario(BUNDLED_SCENARIO)
    assert len(scenario.grid) == 4
    run_experiment(small_scenario(scenario, grid=scenario.grid, mc_samples=10))
    assert calls == []


@pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_an_affinity_mask(monkeypatch, count, usable):
    # Where the OS has no affinity call, the CPU count stands in, and one
    # CPU when even that is unknown.
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: count)
    assert harness._usable_cpus() == usable


def test_run_experiment_reraises_a_worker_exception(monkeypatch):
    scenario = small_scenario(load_scenario(BUNDLED_SCENARIO), mc_samples=10)
    ball_blocks = harness._ball_blocks

    def failing(n, count, seed):
        if seed[1:] == (1, 0):
            raise ArithmeticError("cell (1, 0) failed")
        return ball_blocks(n, count, seed)

    monkeypatch.setattr(harness, "_ball_blocks", failing)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 4)
    with pytest.raises(ArithmeticError, match=r"cell \(1, 0\) failed"):
        run_experiment(scenario)


def test_run_experiment_refuses_cells_that_leave_the_regime(monkeypatch):
    net, lat, blocks, model, ceiling = random_instance(np.random.default_rng(15))
    grid = (0.0, 0.5 * ceiling, 0.9 * ceiling)
    scenario = Scenario(network=net, lat=lat, model=model, grid=grid, mc_samples=100, seed=1)

    def no_sampling(*job):
        raise AssertionError("a cell was sampled before the regime check")

    monkeypatch.setattr(harness, "_cell_moments", no_sampling)
    with pytest.raises(OutOfRegimeError) as info:
        run_experiment(scenario)
    # The lowest flow sits in cell (2, 2), and a point of its support ball
    # attains it: the closed form there is genuinely out of regime.
    tau = solve_dro_tolls(blocks, model, grid[2]).tau_star
    center = worst_case_mean(blocks, tau, model, grid[2])
    rows = np.linalg.norm(blocks.gamma, axis=1)
    edge = int(np.argmin(blocks.c - blocks.gamma @ (center + tau) - model.support_radius * rows))
    worst = center + model.support_radius * blocks.gamma[edge] / rows[edge]
    flow = blocks.c - blocks.gamma @ (worst + tau)
    assert info.value.min_flow == pytest.approx(flow[edge], rel=1e-9)
    assert info.value.min_flow == pytest.approx(-0.0147, abs=5e-5)
    # The message names that cell and its flow, and offers no solver to
    # switch to: an experiment has none.
    message = str(info.value)
    assert f"eps={grid[2]:g}, eps_hat={grid[2]:g}" in message
    assert f"{info.value.min_flow:.6g}" in message
    assert "solver" not in message


def test_run_experiment_rejects_bad_grids():
    base = load_scenario(BUNDLED_SCENARIO)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="grid radius must be finite and nonnegative"):
            run_experiment(small_scenario(base, grid=(0.0, bad)))
    with pytest.raises(InfeasibleError) as info:
        run_experiment(small_scenario(base, grid=(0.0, 45.0)))
    assert "45" in str(info.value)


def test_run_experiment_refuses_an_empty_grid():
    # An empty grid reached the thread pool, which refused zero workers
    # with its own message; it is refused with the other input checks.
    with pytest.raises(ValueError, match="the grid needs at least one radius"):
        run_experiment(small_scenario(load_scenario(BUNDLED_SCENARIO), grid=()))


@pytest.mark.parametrize("field, value", [("mc_samples", 0), ("mc_samples", -5),
                                          ("mc_samples", 2.5), ("seed", -3)])
def test_run_experiment_checks_the_sample_count_and_seed_first(monkeypatch, field, value):
    def no_design(*args):
        raise AssertionError(f"a design was solved before {field} was checked")

    monkeypatch.setattr(harness, "solve_dro_tolls", no_design)
    scenario = small_scenario(load_scenario(BUNDLED_SCENARIO), **{field: value})
    kind = "positive" if field == "mc_samples" else "nonnegative"
    with pytest.raises(ValueError, match=f"{field} must be a {kind} integer, got {value}"):
        run_experiment(scenario)


def test_load_scenario_rejects_negative_seeds(tmp_path):
    write_two_road_network(tmp_path)
    payload = two_road_payload()
    payload["seed"] = -3
    path = write_scenario(tmp_path, payload)
    with pytest.raises(FileFormatError) as info:
        load_scenario(path)
    assert path in str(info.value) and "'seed' must be a nonnegative integer" in str(info.value)


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


@pytest.mark.parametrize("disturbance, reason", [
    ({"mean": [20.0, 30.0], "cov": [[1.0, 2.0], [0.0, 1.0]], "delta": 0.2}, "symmetric"),
    ({"mean": [20.0, 30.0], "cov": [[1.0, 0.0], [0.0, -1.0]], "delta": 0.2},
     "not positive semidefinite"),
    ({"mean": [20.0, 30.0], "cov": [[1.0, 0.0], [0.0, 1.0]], "delta": -0.2},
     "support_radius must be finite and nonnegative"),
    ({"samples": "records.csv", "delta": -0.2}, "support_radius must be finite and nonnegative"),
], ids=["asymmetric", "indefinite", "negative-delta", "samples-negative-delta"])
def test_load_scenario_names_the_file_of_a_bad_disturbance(tmp_path, disturbance, reason):
    # The disturbance model's own checks name no file, so load_scenario
    # adds the scenario file and its field; they stay ValueErrors (exit 1).
    write_two_road_network(tmp_path)
    (tmp_path / "records.csv").write_text("f_e1,f_e2,l_e1,l_e2\n10,90,35,39\n10,90,35,39.2\n")
    payload = two_road_payload()
    payload["disturbance"] = disturbance
    path = write_scenario(tmp_path, payload)
    with pytest.raises(ValueError) as info:
        load_scenario(path)
    message = str(info.value)
    assert f"scenario file {path}" in message and "'disturbance'" in message and reason in message
