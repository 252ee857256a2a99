"""Tampered outputs and raised exceptions count as failed ops."""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

import checks
import oracle
import robusttolls
import run
import workloads
from robusttolls.cli import main as cli_main
from robusttolls.design import solve_dro_tolls, toll_polytope
from robusttolls.equilibrium import kkt_blocks
from robusttolls.exceptions import ConvergenceError
from robusttolls.harness import load_scenario
from robusttolls.network import incidence

DATA = os.path.join(os.path.dirname(robusttolls.__file__), "data")
BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _design_op(shift: float) -> workloads.Op:
    path = os.path.join(DATA, "pigou_scenario.json")
    scenario = load_scenario(path)
    blocks = kkt_blocks(incidence(scenario.network), scenario.lat)
    inst = oracle.load_instance(path)
    ceiling, cert = inst.ceiling()
    eps = 0.5 * ceiling
    ref = {"epsilon_max": ceiling, "designs": {repr(eps): inst.design(eps, inst.gamma @ cert)}}
    polytope = toll_polytope(blocks, scenario.model, 0.0)

    def call():
        result = solve_dro_tolls(blocks, scenario.model, eps)
        return dataclasses.replace(result, tau_star=result.tau_star + np.array([shift, 0.0]))

    return workloads.Op("design.m2", call, lambda r: checks.design(r, eps, polytope, ref))


def test_design_toll_inside_the_polytope_passes():
    outcome = run.run_op(_design_op(0.0), 0, None)
    assert outcome.error is None and not outcome.wrong


def test_design_toll_moved_outside_the_polytope_fails():
    outcome = run.run_op(_design_op(1e4), 0, None)
    assert outcome.wrong
    assert "outside the admissible polytope" in outcome.error


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("experiment")
    scenario = tmp / "scenario.json"
    grid = [0.0, 10.0, 20.0]
    with open(os.path.join(DATA, "pigou_scenario.json"), encoding="utf-8") as handle:
        payload = json.load(handle)
    payload.update(network=os.path.join(DATA, "pigou_network.json"), grid=grid, mc_samples=4000)
    scenario.write_text(json.dumps(payload))
    out = tmp / "grid.csv"
    assert cli_main(["experiment", "--scenario", str(scenario), "--format", "csv",
                     "--out", str(out)]) == 0
    cells = oracle.reference({"p": {"path": str(scenario), "grid": grid}})["p"]["cells"]
    return out.read_text(), cells


def _perturb(text: str, row: int, column: str, factor: float) -> str:
    lines = text.splitlines(keepends=True)
    header = lines[0].strip().split(",")
    fields = lines[row + 1].rstrip("\n").split(",")
    k = header.index(column)
    fields[k] = repr(float(fields[k]) * factor)
    lines[row + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def test_experiment_csv_passes_unchanged(experiment):
    text, cells = experiment
    checks.experiment_csv(text, text, cells)


def test_perturbed_csv_cell_fails_byte_identity(experiment):
    text, cells = experiment
    changed = _perturb(text, 4, "expectation", 1.0 + 1e-12)
    op = workloads.Op("experiment.m2", lambda: changed,
                      lambda out: checks.experiment_csv(out, text, cells))
    outcome = run.run_op(op, 0, None)
    assert outcome.wrong and "differs" in outcome.error


@pytest.mark.parametrize("column, factor, message", [("expectation", 1.001, "reference"),
                                                     ("g_bar", 1.01, "standard errors")])
def test_perturbed_csv_cell_fails_its_reference(experiment, column, factor, message):
    text, cells = experiment
    changed = _perturb(text, 4, column, factor)
    op = workloads.Op("experiment.m2", lambda: changed,
                      lambda out: checks.experiment_csv(out, out, cells))
    outcome = run.run_op(op, 0, None)
    assert outcome.wrong and message in outcome.error


def test_raised_exception_counts_as_failed_not_skipped():
    def call():
        raise ConvergenceError("robustness ceiling program hit its iteration cap", 10_000, 1.0)

    outcome = run.run_op(workloads.Op("ceiling.m450", call, lambda out: None), 0, None)
    assert outcome.error.startswith("ConvergenceError") and not outcome.wrong


def test_ceiling_above_the_reference_fails():
    op = workloads.Op("ceiling.m50", lambda: (23.465, None),
                      lambda out: checks.ceiling(out, {"epsilon_max": 22.370}))
    outcome = run.run_op(op, 0, None)
    assert outcome.wrong and "epsilon_max" in outcome.error


def test_measure_spreads_probes_and_leaves_their_time_out():
    log = []

    def step():
        time.sleep(0.01)
        log.append("op")

    def probe():
        time.sleep(0.1)
        log.append("probe")

    ops = [workloads.Op("a.m1", step, lambda out: None)] * 2
    plain, _ = run.measure(ops, 0.04, probe=probe, probes=2)
    assert log.count("probe") == 2 and log[0] == "probe"
    assert len(plain) >= 2 and log.count("op") == 2 * len(plain)


def test_measure_completes_the_first_pass_and_cuts_a_later_one_at_the_window():
    calls = []
    ops = [workloads.Op("a.m1", lambda: calls.append(1), lambda out: None)] * 3
    plain, traced = run.measure(ops, 0.0)
    assert len(plain) == 1 and traced == [] and len(calls) == 3

    slow = [workloads.Op("a.m1", lambda: time.sleep(0.1), lambda out: None)] * 3
    plain, _ = run.measure(slow, 0.35)
    assert [len(results) for results in plain] == [3, 1]
    assert run.typical_pass(plain) >= 0.3


def test_program_refuses_a_checkout_without_sources(tmp_path):
    with pytest.raises(ImportError):
        workloads.program(str(tmp_path))


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
