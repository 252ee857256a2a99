"""Tests for the command-line interface: outputs, formats, and exit codes."""

import json
import pathlib

import numpy as np
import pytest

import robusttolls
from robusttolls.cli import main

DATA = pathlib.Path(robusttolls.__file__).parent / "data"
NETWORK = str(DATA / "pigou_network.json")
SCENARIO = str(DATA / "pigou_scenario.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_scenario_file(tmp_path, grid=(0.0, 10.0), mc_samples=400, seed=42) -> str:
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
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "network": "net.json",
        "disturbance": {"mean": [20.0, 30.0], "cov": [[0.01, 0.0], [0.0, 0.01]],
                        "delta": 0.2},
        "grid": list(grid),
        "mc_samples": mc_samples,
        "seed": seed,
    }))
    return str(path)


def test_no_command_prints_help(capsys):
    code, _, err = run(capsys, )
    assert code == 2
    assert "usage" in err


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["made-up-command"])
    assert info.value.code == 2


def test_validate_ok_text(capsys):
    code, out, _ = run(capsys, "validate", "--network", NETWORK)
    assert code == 0
    assert "network ok" in out


def test_validate_reports_problems(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "nodes": ["s", "m", "d"],
        "edges": [{"id": "e1", "from": "s", "to": "d", "beta": 1.0},
                  {"id": "e2", "from": "m", "to": "d", "beta": 1.0}],
        "source": "s",
        "destination": "d",
        "demand": 1.0,
    }))
    code, out, _ = run(capsys, "validate", "--network", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"]
    assert payload["problems"]


def test_validate_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", "--network", "/nonexistent/net.json")
    assert code == 2
    assert "error" in err
    assert err.count("/nonexistent/net.json") == 1


def test_validate_missing_flag_exits_two(capsys):
    code, _, err = run(capsys, "validate")
    assert code == 2
    assert "--network" in err


def test_equilibrium_both_methods_json(capsys):
    code, out, _ = run(capsys, "equilibrium", "--network", NETWORK,
                       "--alpha", "20,30", "--tau", "5,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"]["flow"] == pytest.approx([9.375, 90.625], abs=1e-8)
    assert payload["potential"]["flow"] == pytest.approx([9.375, 90.625], abs=1e-6)
    assert payload["max_flow_difference"] <= 1e-6
    # Potentials decrease by the common trip cost from source to sink.
    cost = 1.5 * 9.375 + 20.0 + 5.0
    assert payload["closed"]["node_potentials"] == pytest.approx([cost], abs=1e-8)
    assert payload["closed"]["system_latency"] == pytest.approx(
        9.375 * (1.5 * 9.375 + 20.0) + 90.625 * (0.1 * 90.625 + 30.0), abs=1e-8)


def test_equilibrium_alpha_from_file(tmp_path, capsys):
    vec = tmp_path / "alpha.json"
    vec.write_text("[20.0, 30.0]")
    code, out, _ = run(capsys, "equilibrium", "--network", NETWORK,
                       "--alpha", str(vec), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "closed" in payload and "potential" in payload


def test_equilibrium_both_reports_out_of_regime_note(capsys):
    # Closed form fails off the boundary; the iterative answer still comes
    # back along with the reason.
    code, out, _ = run(capsys, "equilibrium", "--network", NETWORK,
                       "--alpha", "0,200", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "closed" not in payload
    assert payload["potential"]["flow"] == pytest.approx([100.0, 0.0], abs=1e-6)
    assert "closed_note" in payload


def test_equilibrium_closed_only_out_of_regime_fails(capsys):
    code, _, err = run(capsys, "equilibrium", "--network", NETWORK,
                       "--alpha", "0,200", "--method", "closed")
    assert code == 1
    assert "potential-based solver" in err


def test_equilibrium_wrong_vector_length(capsys):
    code, _, err = run(capsys, "equilibrium", "--network", NETWORK,
                       "--alpha", "1,2,3")
    assert code == 2
    assert "entries" in err


def test_equilibrium_bad_vector_argument(capsys):
    code, _, err = run(capsys, "equilibrium", "--network", NETWORK,
                       "--alpha", "not-a-file-or-vector")
    assert code == 2


def test_epsmax_text_and_json(capsys, tmp_path):
    code, out, _ = run(capsys, "epsmax", "--scenario", SCENARIO)
    assert code == 0
    assert out.startswith("epsilon_max: 39.8")
    out_file = tmp_path / "eps.json"
    code, _, _ = run(capsys, "epsmax", "--scenario", SCENARIO,
                     "--format", "json", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["finite"]
    assert payload["epsilon_max"] == pytest.approx(39.8, abs=1e-6)
    certificate = np.array(payload["certificate"])
    assert certificate.shape == (2,)
    assert float(certificate.min()) >= -1e-9


def test_epsmax_single_route_unbounded(tmp_path, capsys):
    (tmp_path / "net.json").write_text(json.dumps({
        "nodes": ["s", "d"],
        "edges": [{"id": "only", "from": "s", "to": "d", "beta": 2.0}],
        "source": "s",
        "destination": "d",
        "demand": 5.0,
    }))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "network": "net.json",
        "disturbance": {"mean": [1.0], "cov": [[0.0]], "delta": 0.1},
        "grid": [0.0],
        "mc_samples": 10,
        "seed": 0,
    }))
    code, out, _ = run(capsys, "epsmax", "--scenario", str(scenario), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon_max"] is None
    assert not payload["finite"]
    assert payload["certificate"] is None


def test_design_json(capsys):
    code, out, _ = run(capsys, "design", "--scenario", SCENARIO,
                       "--eps", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_star"] == pytest.approx([9.2752266, 0.0], abs=2e-5)
    assert payload["worst_case_latency"] == pytest.approx(4758.5404376, abs=2e-4)
    assert payload["edge_ids"] == ["e1", "e2"]


def test_design_radius_above_ceiling_exits_one(capsys):
    code, _, err = run(capsys, "design", "--scenario", SCENARIO, "--eps", "45")
    assert code == 1
    assert "39.8" in err


def test_design_rejects_csv_format(capsys):
    code, _, err = run(capsys, "design", "--scenario", SCENARIO,
                       "--eps", "10", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_design_requires_eps(capsys):
    with pytest.raises(SystemExit) as info:
        main(["design", "--scenario", SCENARIO])
    assert info.value.code == 2


def test_estimate_json(tmp_path, capsys):
    samples = tmp_path / "records.csv"
    samples.write_text("f_e1,f_e2,l_e1,l_e2\n"
                       "10.0,90.0,34.9,39.1\n"
                       "10.0,90.0,35.1,38.9\n")
    code, out, _ = run(capsys, "estimate", "--network", NETWORK,
                       "--samples", str(samples), "--delta", "0.2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mean"] == pytest.approx([20.0, 30.0], abs=1e-9)
    assert payload["cov"][0] == pytest.approx([0.01, -0.01], abs=1e-9)
    assert payload["records"] == 2
    assert payload["support_radius"] == 0.2


def test_estimate_missing_samples_flag(capsys):
    code, _, err = run(capsys, "estimate", "--network", NETWORK, "--delta", "0.2")
    assert code == 2
    assert "--samples" in err


def test_experiment_csv_deterministic(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run(capsys, "experiment", "--scenario", scenario,
               "--format", "csv", "--out", str(first))[0] == 0
    assert run(capsys, "experiment", "--scenario", scenario,
               "--format", "csv", "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().split("\n")
    assert lines[0] == "eps,eps_hat,g_bar,stderr,expectation,tau_e1,tau_e2"
    assert len(lines) == 1 + 4  # header + 2x2 grid


def test_experiment_seed_override_changes_estimates(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    code, base, _ = run(capsys, "experiment", "--scenario", scenario, "--format", "csv")
    assert code == 0
    code, other, _ = run(capsys, "experiment", "--scenario", scenario,
                         "--format", "csv", "--seed", "7")
    assert code == 0
    assert base != other
    # Expectations are seed-independent even though estimates move.
    base_rows = [line.split(",") for line in base.strip().split("\n")[1:]]
    other_rows = [line.split(",") for line in other.strip().split("\n")[1:]]
    for a, b in zip(base_rows, other_rows):
        assert a[4] == b[4]
        assert a[2] != b[2]


def test_experiment_json_structure(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    code, out, _ = run(capsys, "experiment", "--scenario", scenario, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["grid"] == [0.0, 10.0]
    assert len(payload["cells"]) == 4
    cell = payload["cells"][0]
    assert set(cell) == {"eps", "eps_hat", "g_bar", "stderr", "expectation", "tau_star"}


def test_experiment_text_table(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    code, out, _ = run(capsys, "experiment", "--scenario", scenario)
    assert code == 0
    assert "Monte Carlo estimates" in out
    assert "closed-form expectations" in out
    assert "designed tolls" in out


def test_experiment_infeasible_grid_exits_one(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path, grid=(0.0, 45.0))
    code, _, err = run(capsys, "experiment", "--scenario", scenario)
    assert code == 1
    assert "45" in err


def test_experiment_missing_scenario_exits_two(capsys):
    code, _, err = run(capsys, "experiment", "--scenario", "/nonexistent/scenario.json")
    assert code == 2


def replace_in(path, old, new):
    path.write_text(path.read_text().replace(old, new))


@pytest.mark.parametrize("command", [["epsmax"], ["design", "--eps", "1"]])
def test_non_finite_scenario_mean_exits_two(tmp_path, capsys, command):
    scenario = small_scenario_file(tmp_path)
    replace_in(tmp_path / "scenario.json", "20.0", "NaN")
    code, _, err = run(capsys, *command, "--scenario", scenario)
    assert code == 2
    assert scenario in err and "NaN" in err


def test_non_finite_scenario_cov_exits_two(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    replace_in(tmp_path / "scenario.json", "[0.0, 0.01]", "[0.0, Infinity]")
    code, _, err = run(capsys, "epsmax", "--scenario", scenario)
    assert code == 2
    assert scenario in err and "Infinity" in err


def test_scenario_cov_of_the_wrong_shape_exits_two(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    replace_in(tmp_path / "scenario.json", "[[0.01, 0.0], [0.0, 0.01]]", "[0.01, 0.01]")
    code, _, err = run(capsys, "epsmax", "--scenario", scenario)
    assert code == 2
    assert "2x2" in err


def test_scenario_schema_error_names_the_file(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path, grid=())
    code, out, err = run(capsys, "experiment", "--scenario", scenario)
    assert code == 2
    assert out == "" and err.count(scenario) == 1 and "'grid'" in err


def test_non_finite_sample_cell_exits_two(tmp_path, capsys):
    samples = tmp_path / "records.csv"
    samples.write_text("f_e1,f_e2,l_e1,l_e2\n"
                       "10.0,90.0,34.9,39.1\n"
                       "10.0,90.0,nan,38.9\n")
    code, out, err = run(capsys, "estimate", "--network", NETWORK,
                         "--samples", str(samples), "--delta", "0.2")
    assert code == 2
    assert out == "" and str(samples) in err


@pytest.mark.parametrize("command", [["validate"], ["equilibrium", "--alpha", "20,30"]])
def test_non_finite_beta_exits_two(tmp_path, capsys, command):
    network = tmp_path / "net.json"
    network.write_text(pathlib.Path(NETWORK).read_text().replace("1.5", "Infinity"))
    assert "Infinity" in network.read_text()
    code, out, err = run(capsys, *command, "--network", str(network))
    assert code == 2
    assert out == "" and str(network) in err


@pytest.mark.parametrize("alpha", ["nan,30", "20,inf", "1e999,30"])
def test_non_finite_vector_exits_two(capsys, alpha):
    code, _, err = run(capsys, "equilibrium", "--network", NETWORK, "--alpha", alpha)
    assert code == 2
    assert "finite" in err


def test_non_finite_vector_file_exits_two(tmp_path, capsys):
    vec = tmp_path / "alpha.json"
    vec.write_text("[20.0, NaN]")
    code, _, err = run(capsys, "equilibrium", "--network", NETWORK, "--alpha", str(vec))
    assert code == 2
    assert str(vec) in err
