"""The tracer wraps every bound name, restores them all and skips missing ones."""

import os

import numpy as np

import robusttolls
import robusttolls.design as design
import robusttolls.optim as optim
import run
import tracing
import workloads
from robusttolls.equilibrium import kkt_blocks
from robusttolls.harness import load_scenario
from robusttolls.network import incidence

PIGOU = os.path.join(os.path.dirname(robusttolls.__file__), "data", "pigou_scenario.json")


def _pigou():
    scenario = load_scenario(PIGOU)
    return scenario, kkt_blocks(incidence(scenario.network), scenario.lat)


def test_wrapper_replaces_every_bound_name_and_restores_them():
    originals = {
        (optim, "active_set_qp"): optim.active_set_qp,
        (design, "active_set_qp"): design.active_set_qp,
        (design, "solve_dro_tolls"): design.solve_dro_tolls,
        (robusttolls, "solve_dro_tolls"): robusttolls.solve_dro_tolls,
    }
    tracer = tracing.Tracer(targets=("optim.active_set_qp", "design.solve_dro_tolls"))
    with tracer:
        assert optim.active_set_qp is design.active_set_qp
        assert optim.active_set_qp is not originals[(optim, "active_set_qp")]
        assert robusttolls.solve_dro_tolls is design.solve_dro_tolls
        scenario, blocks = _pigou()
        with tracer.op(0, "design.m2"):
            design.solve_dro_tolls(blocks, scenario.model, 10.0)
    for (module, name), func in originals.items():
        assert getattr(module, name) is func

    names = [s.name for s in tracer.spans]
    assert names[0] == "op.design.m2"
    assert names.count("design.solve_dro_tolls") == 1
    assert names.count("optim.active_set_qp") >= 1
    assert tracing.calls_under(tracer.spans, "optim.active_set_qp", "design.solve_dro_tolls") \
        == names.count("optim.active_set_qp")
    assert all(s.op == 0 for s in tracer.spans)
    solve = tracer.spans[names.index("design.solve_dro_tolls")]
    assert solve.count > 0


def test_missing_names_are_skipped():
    tracer = tracing.Tracer(targets=("optim.phase_one_point", "optim.no_such_function",
                                     "nosuchmodule.fn"))
    with tracer:
        assert optim.phase_one_point.__name__ == "phase_one_point"
    assert tracer.skipped == ["optim.no_such_function", "nosuchmodule.fn"]


def test_failed_calls_are_marked_and_restored():
    tracer = tracing.Tracer(targets=("design.epsilon_max",))
    scenario, blocks = _pigou()
    bad = type(scenario.model)(mean=np.zeros(3), cov=np.eye(3), support_radius=0.0)
    original = design.epsilon_max
    with tracer:
        try:
            design.epsilon_max(blocks, bad)
        except ValueError:
            pass
    assert design.epsilon_max is original
    assert [s.ok for s in tracer.spans] == [False]
    assert tracing.summarize(tracer.spans)["design.epsilon_max"]["fail"] == 1


def test_self_time_subtracts_direct_children():
    spans = [tracing.Span("a", 0.0, 10.0, -1, 0), tracing.Span("b", 1.0, 4.0, 0, 0),
             tracing.Span("c", 2.0, 3.0, 1, 0), tracing.Span("b", 5.0, 6.0, 0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    rows = tracing.summarize(spans)
    assert rows["b"]["calls"] == 2 and rows["b"]["busy_s"] == 4.0 and rows["b"]["self_s"] == 3.0


def test_paired_measure_traces_one_of_the_two_copies_of_each_op():
    scenario, blocks = _pigou()
    original = design.epsilon_max
    ops = [workloads.Op("ceiling.m2", lambda: design.epsilon_max(blocks, scenario.model),
                        lambda value: None)]
    tracer = tracing.Tracer(targets=("design.epsilon_max",))
    plain, traced = run.measure(ops, 0.0, tracer)
    assert len(plain) == len(traced) == 1
    assert [s.name for s in tracer.spans] == ["op.ceiling.m2", "design.epsilon_max"]
    assert design.epsilon_max is original
