"""Tests for the command-line interface: outputs, formats, and exit codes."""

import json
import os
import pathlib
import stat

import numpy as np
import pytest
from randnets import random_instance
from test_design import _twelve_decade_design

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
    code, out, _ = run(capsys, "validate", "--network", str(path), "--format", "text")
    assert code == 1
    assert out.splitlines() == ["network invalid:"] + [f"  - {p}" for p in payload["problems"]]


def test_validate_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "validate", "--network", "/nonexistent/net.json")
    assert code == 2
    assert "error" in err
    assert err.count("/nonexistent/net.json") == 1


def test_validate_missing_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["validate"])
    assert info.value.code == 2
    assert "--network" in capsys.readouterr().err


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


def test_equilibrium_both_methods_text(capsys):
    code, out, _ = run(capsys, "equilibrium", "--network", NETWORK,
                       "--alpha", "20,30", "--tau", "5,0", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert "closed equilibrium" in lines and "potential equilibrium" in lines
    assert lines[-1].startswith("max flow difference: ")
    assert float(lines[-1].split(": ")[1]) <= 1e-6


def test_equilibrium_both_text_notes_the_missing_closed_form(capsys):
    code, out, _ = run(capsys, "equilibrium", "--network", NETWORK,
                       "--alpha", "0,200", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "potential equilibrium" and "closed equilibrium" not in lines
    assert lines[-1].startswith("closed form unavailable: closed-form equilibrium leaves")
    assert "max flow difference" not in out


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


def two_hop_equilibrium(tmp_path, capsys, demand):
    """``equilibrium --method potential`` on nodes s, m, d: edges a, b s->m, c m->d, e s->d."""
    (tmp_path / "net.json").write_text(json.dumps({
        "nodes": ["s", "m", "d"],
        "edges": [{"id": "a", "from": "s", "to": "m", "beta": 1},
                  {"id": "b", "from": "s", "to": "m", "beta": 2},
                  {"id": "c", "from": "m", "to": "d", "beta": 1},
                  {"id": "e", "from": "s", "to": "d", "beta": 3}],
        "source": "s", "destination": "d", "demand": demand}))
    return run(capsys, "equilibrium", "--network", str(tmp_path / "net.json"),
               "--alpha", "0,5,0,1", "--method", "potential")


@pytest.mark.parametrize("demand", [1e-200, 1e-300])
def test_equilibrium_at_a_vanishing_demand_exits_zero_or_three(tmp_path, capsys, demand):
    # The potential solver either certifies or fails typed (exit 3); a
    # demand whose square underflows is no reason for a traceback.
    code, _, err = two_hop_equilibrium(tmp_path, capsys, demand)
    assert code in (0, 3)
    assert code == 0 or "solver failure" in err


def test_equilibrium_whose_system_latency_overflows_exits_three(tmp_path, capsys):
    # At demand 1e200 the equilibrium certifies, with flows near 1e200, but
    # its system latency, about 1e400, is beyond the float range: a
    # numerical failure, not a printed inf, and no solver failed.
    code, out, err = two_hop_equilibrium(tmp_path, capsys, 1e200)
    assert code == 3
    assert err.startswith("numerical failure: ")
    assert "system latency of flows up to 6.429e+199 overflows the float range" in err
    assert out == ""


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


def test_unwritable_out_file_exits_two_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "validate", "--network", NETWORK, "--out", str(missing))
    assert code == 2 and out == ""
    assert err == f"error: cannot write output file {missing}: No such file or directory\n"


def test_out_file_is_overwritten_in_place_with_no_stale_tail(tmp_path, capsys):
    scenario = small_scenario_file(tmp_path)
    out_file = tmp_path / "grid.out"
    link = tmp_path / "grid.link"
    code, _, _ = run(capsys, "experiment", "--scenario", scenario, "--format", "json",
                     "--out", str(out_file))
    assert code == 0
    link.hardlink_to(out_file)
    inode = out_file.stat().st_ino
    code, _, _ = run(capsys, "experiment", "--scenario", scenario, "--format", "csv",
                     "--out", str(out_file))
    assert code == 0
    code, csv, _ = run(capsys, "experiment", "--scenario", scenario, "--format", "csv")
    assert code == 0
    # The CSV is shorter than the JSON it replaces; none of the JSON remains.
    assert out_file.read_bytes() == csv.encode()
    assert out_file.stat().st_ino == inode
    assert link.read_bytes() == csv.encode()


def test_out_file_opens_without_truncation(tmp_path, capsys, monkeypatch):
    flags, os_open = [], os.open

    def recording_open(path, flag, *rest):
        flags.append(flag)
        return os_open(path, flag, *rest)

    monkeypatch.setattr(robusttolls.cli.os, "open", recording_open)
    code, _, _ = run(capsys, "validate", "--network", NETWORK, "--out", str(tmp_path / "v.txt"))
    monkeypatch.undo()
    assert code == 0
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert (tmp_path / "v.txt").read_text().startswith("network ok")


def test_out_file_may_be_a_device(capsys):
    code, out, err = run(capsys, "validate", "--network", NETWORK, "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


def test_out_file_that_is_a_directory_exits_two_with_one_line(tmp_path, capsys):
    code, out, err = run(capsys, "validate", "--network", NETWORK, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: cannot write output file {tmp_path}: Is a directory\n"


def test_new_out_file_gets_the_umask_default_mode(tmp_path, capsys):
    umask = os.umask(0o027)
    try:
        code, _, _ = run(capsys, "validate", "--network", NETWORK,
                         "--out", str(tmp_path / "v.txt"))
    finally:
        os.umask(umask)
    assert code == 0
    assert stat.S_IMODE((tmp_path / "v.txt").stat().st_mode) == 0o640


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
    code, out, _ = run(capsys, "epsmax", "--scenario", str(scenario), "--format", "text")
    assert code == 0
    assert out == "epsilon_max: inf\nevery radius is admissible (single-route network)\n"


def test_design_json(capsys):
    code, out, _ = run(capsys, "design", "--scenario", SCENARIO,
                       "--eps", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_star"] == pytest.approx([9.2752266, 0.0], abs=2e-5)
    assert payload["worst_case_latency"] == pytest.approx(4758.5404376, abs=2e-4)
    assert payload["edge_ids"] == ["e1", "e2"]


def test_design_text(capsys):
    code, out, _ = run(capsys, "design", "--scenario", SCENARIO, "--eps", "10", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "designed tolls (eps=10): e1=9.27523 e2=0"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "objective", "worst-case expected latency", "solver"]
    assert lines[2] == "worst-case expected latency: 4758.540438"


def test_design_radius_above_ceiling_exits_one(capsys):
    code, _, err = run(capsys, "design", "--scenario", SCENARIO, "--eps", "45")
    assert code == 1
    assert "39.8" in err


def test_design_exits_three_on_a_singular_newton_system(tmp_path, capsys):
    # Instance 275 of the seed-11 twelve-decade designs at 0.9 of its
    # ceiling: the kernel's Newton system is singular, a typed solver
    # failure (exit 3).
    net, blocks, _, eps = _twelve_decade_design(11, 275, 0.9)
    m = net.num_edges
    (tmp_path / "net.json").write_text(json.dumps({
        "nodes": list(net.node_ids),
        "edges": [{"id": e.id, "from": net.node_ids[e.tail], "to": net.node_ids[e.head],
                   "beta": float(b)} for e, b in zip(net.edges, blocks.lat.beta)],
        "source": net.node_ids[0], "destination": net.node_ids[-1], "demand": net.demand}))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "network": "net.json",
        "disturbance": {"mean": [0.0] * m, "cov": np.zeros((m, m)).tolist(), "delta": 0.0},
        "grid": [0.0], "mc_samples": 10, "seed": 1}))
    code, _, err = run(capsys, "design", "--scenario", str(scenario), "--eps", repr(eps))
    assert code == 3
    assert "singular" in err


def test_design_exits_three_when_the_start_has_no_interior(tmp_path, capsys):
    # Two equal roads at a support radius of t*/||gamma|| = 25: the
    # ceiling is zero up to rounding and the projected start keeps no
    # slack, a typed numerical failure (exit 3) before any solver runs.
    (tmp_path / "net.json").write_text(json.dumps({
        "nodes": ["s", "d"],
        "edges": [{"id": "e1", "from": "s", "to": "d", "beta": 0.5},
                  {"id": "e2", "from": "s", "to": "d", "beta": 0.5}],
        "source": "s", "destination": "d", "demand": 100.0}))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "network": "net.json",
        "disturbance": {"mean": [20.0, 30.0], "cov": [[0.0, 0.0], [0.0, 0.0]], "delta": 25.0},
        "grid": [0.0], "mc_samples": 10, "seed": 1}))
    code, out, err = run(capsys, "design", "--scenario", str(scenario), "--eps", "0")
    assert code == 3 and out == ""
    assert err.startswith("numerical failure: ") and "least slack" in err


@pytest.mark.parametrize("eps", ["nan", "inf", "ten"])
def test_design_non_finite_radius_exits_two(capsys, eps):
    # A radius that is not a number is unusable input, not a radius past
    # the robustness ceiling.
    with pytest.raises(SystemExit) as info:
        main(["design", "--scenario", SCENARIO, "--eps", eps])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--eps: must be a finite number, got {eps!r}" in err
    assert "ceiling" not in err


def test_design_rejects_csv_format(capsys):
    with pytest.raises(SystemExit) as info:
        main(["design", "--scenario", SCENARIO, "--eps", "10", "--format", "csv"])
    assert info.value.code == 2
    assert "csv" in capsys.readouterr().err


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


def test_estimate_text(tmp_path, capsys):
    samples = tmp_path / "records.csv"
    samples.write_text("f_e1,f_e2,l_e1,l_e2\n40,60,80,36\n50,50,95,35\n45,55,88,35.5\n")
    code, out, _ = run(capsys, "estimate", "--network", NETWORK,
                       "--samples", str(samples), "--delta", "0.2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "estimated from 3 records"
    assert lines[1].startswith("mean: e1=") and " e2=" in lines[1]
    assert lines[2] == "cov:" and len(lines[3].split()) == len(lines[4].split()) == 2
    assert lines[5] == "support radius: 0.2"


def test_estimate_missing_samples_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["estimate", "--network", NETWORK, "--delta", "0.2"])
    assert info.value.code == 2
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["nan", "inf", "0.2x"])
def test_estimate_non_finite_delta_exits_two(capsys, delta):
    with pytest.raises(SystemExit) as info:
        main(["estimate", "--network", NETWORK, "--samples", "records.csv", "--delta", delta])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"--delta: must be a finite number, got {delta!r}" in err


# Each command with the options it needs, and every option it does not read.
UNREAD_OPTIONS = [
    (["validate", "--network", NETWORK], ["--scenario", "--seed"]),
    (["equilibrium", "--network", NETWORK, "--alpha", "20,30"], ["--scenario", "--seed"]),
    (["epsmax", "--scenario", SCENARIO], ["--network", "--seed"]),
    (["design", "--scenario", SCENARIO, "--eps", "10"], ["--network", "--seed"]),
    (["estimate", "--network", NETWORK, "--samples", "records.csv", "--delta", "0.2"],
     ["--scenario", "--seed"]),
    (["experiment", "--scenario", SCENARIO], ["--network"]),
]
VALUES = {"--network": NETWORK, "--scenario": SCENARIO, "--seed": "3"}


@pytest.mark.parametrize("argv, option", [(argv, option) for argv, unread in UNREAD_OPTIONS
                                          for option in unread],
                         ids=lambda value: value[0] if isinstance(value, list) else value)
def test_options_a_command_does_not_read_exit_two(capsys, argv, option):
    with pytest.raises(SystemExit) as info:
        main(argv + [option, VALUES[option]])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {option}" in err


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


def test_experiment_refuses_negative_seeds(tmp_path, capsys):
    # A negative seed in the file is a schema error naming the file (exit 2).
    scenario = small_scenario_file(tmp_path, seed=-3)
    code, out, err = run(capsys, "experiment", "--scenario", scenario, "--format", "csv")
    assert (code, out) == (2, "")
    assert scenario in err and "'seed' must be a nonnegative integer" in err
    # A negative override is a bad argument naming the seed (exit 1).
    scenario = small_scenario_file(tmp_path)
    code, out, err = run(capsys, "experiment", "--scenario", scenario, "--seed", "-1")
    assert (code, out) == (1, "")
    assert "seed must be a nonnegative integer, got -1" in err


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


def test_experiment_out_of_regime_grid_exits_one_naming_the_cell(tmp_path, capsys):
    # The grid of this instance leaves the closed-form regime lowest in
    # cell (2, 2) (see the harness's regime test).
    net, lat, _, model, ceiling = random_instance(np.random.default_rng(15))
    grid = [0.0, 0.5 * ceiling, 0.9 * ceiling]
    names = [str(v) for v in range(net.num_nodes)]
    (tmp_path / "net.json").write_text(json.dumps({
        "nodes": names,
        "edges": [{"id": e.id, "from": names[e.tail], "to": names[e.head], "beta": float(b)}
                  for e, b in zip(net.edges, lat.beta)],
        "source": names[0], "destination": names[-1], "demand": net.demand,
    }))
    (tmp_path / "scenario.json").write_text(json.dumps({
        "network": "net.json",
        "disturbance": {"mean": model.mean.tolist(), "cov": model.cov.tolist(),
                        "delta": model.support_radius},
        "grid": grid, "mc_samples": 100, "seed": 1,
    }))
    code, out, err = run(capsys, "experiment", "--scenario", str(tmp_path / "scenario.json"))
    assert code == 1
    assert out == ""
    assert f"eps={grid[2]:g}, eps_hat={grid[2]:g}" in err
    assert "solver" not in err


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


@pytest.mark.parametrize("text", ['{"alpha": [20.0, 30.0]}', '["20", "30"]', '[true, 30.0]'],
                         ids=["object", "strings", "bool"])
def test_vector_file_without_a_numeric_array_exits_two(tmp_path, capsys, text):
    vec = tmp_path / "alpha.json"
    vec.write_text(text)
    code, out, err = run(capsys, "equilibrium", "--network", NETWORK, "--alpha", str(vec))
    assert code == 2 and out == ""
    assert f"alpha file {vec} must hold a JSON array of finite numbers" in err
