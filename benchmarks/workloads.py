"""The benchmark's workloads: inputs, set-up and the fixed op list of a pass.

A workload has three parts.  ``generate`` writes its input files from the
seeded generator and says which reference values ``oracle.py`` must
compute.  ``load_all`` is the set-up every workload shares (load and
validate each scenario, then ``incidence`` and ``kkt_blocks``).  ``ops``
turns the loaded state into the op list; an op is one closed-loop call
into the program plus the check of its output.  Run as a script, the
module writes one workload's inputs (see :func:`write_inputs`).

Calls go through module attributes (``rt.design.solve_dro_tolls``) at
call time, so a tracer that swaps those attributes sees them.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import netgen
from tracing import MODULES

# (edges, instances) per design rung; instance i is solved at EPS_HAT[i % 3]
# of its ceiling, so every pass covers all three radii on every rung.
# Solve times differ from instance to instance by about 20%, and one pass
# is about all a run has time for, so the rungs hold many instances.
DESIGN_RUNGS = ((12, 15), (24, 5))
EPS_HAT = (0.0, 0.5, 0.9)
# (edges, instances) per network rung of the analysis workload.
NETWORK_RUNGS = ((50, 12), (100, 6), (150, 6), (250, 4))
# Rungs on which the analysis workload also times the ceiling LP.  From m=100 up
# it returns wrong optima on some instances (1 in ~65 at m=150, 5 in 62
# at m=250) and at m~450 it mostly hits its iteration cap; see NOTES.md.
CEILING_EDGES = (50,)
EXPERIMENT_DRAWS = 200_000
EXPERIMENT_RECORDS = 50_000


@dataclass
class Op:
    """One call into the program; ``label`` is ``<kind>.<rung>``."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


def program(root: str) -> types.SimpleNamespace:
    """Import the program from ``<root>/src`` and return its modules by short name.

    Refuses a ``robusttolls`` found anywhere else, so a run never
    measures an installed copy instead of the checkout.
    """
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    package = importlib.import_module("robusttolls")
    where = os.path.dirname(os.path.abspath(package.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise ImportError(f"robusttolls was imported from {where}, not from {src}")
    return types.SimpleNamespace(**{name: importlib.import_module(f"robusttolls.{name}")
                                    for name in MODULES})


def load_all(rt: types.SimpleNamespace, inputs: dict) -> dict:
    """Set-up: load every scenario, validate it, build incidence and blocks."""
    state = {}
    for inst in inputs["instances"]:
        scenario = rt.harness.load_scenario(inst["scenario"])
        inc = rt.network.incidence(scenario.network)
        state[inst["name"]] = (scenario, inc, rt.equilibrium.kkt_blocks(inc, scenario.lat))
    return state


def _dag_instances(rng: np.random.Generator, workdir: str, rungs, prefix: str) -> list[dict]:
    out = []
    for m, count in rungs:
        for i in range(count):
            inst = netgen.dag_scenario(rng, m, workdir, f"{prefix}{m}_{i}")
            inst["index"] = i
            out.append(inst)
    return out


# ---------------------------------------------------------------- design

def design_inputs(rng: np.random.Generator, workdir: str) -> dict:
    instances = _dag_instances(rng, workdir, DESIGN_RUNGS, "d")
    for inst in instances:
        inst["eps_hat"] = EPS_HAT[inst["index"] % len(EPS_HAT)]
    oracle = {i["name"]: {"path": i["scenario"], "eps_hat": [i["eps_hat"]]} for i in instances}
    return {"instances": instances, "oracle": oracle}


def design_ops(rt, state: dict, inputs: dict, refs: dict, workdir: str) -> list[Op]:
    ops = []
    for inst in inputs["instances"]:
        scenario, _, blocks = state[inst["name"]]
        ref = refs[inst["name"]]
        eps_hat = inst["eps_hat"] * ref["epsilon_max"]
        polytope = rt.design.toll_polytope(blocks, scenario.model, 0.0)
        ops.append(Op(
            f"design.m{inst['m']}",
            lambda b=blocks, s=scenario, e=eps_hat: rt.design.solve_dro_tolls(b, s.model, e),
            lambda result, e=eps_hat, p=polytope, r=ref: checks.design(result, e, p, r)))
    return ops


# ------------------------------------------------------------ experiment

def experiment_inputs(rng: np.random.Generator, workdir: str) -> dict:
    instances = netgen.pigou_scenarios(rng, workdir, EXPERIMENT_DRAWS, EXPERIMENT_RECORDS)
    oracle = {}
    for inst in instances:
        with open(inst["scenario"], encoding="utf-8") as handle:
            grid = json.load(handle)["grid"]
        oracle[inst["name"]] = {"path": inst["scenario"], "grid": grid}
    return {"instances": instances, "oracle": oracle}


def experiment_ops(rt, state: dict, inputs: dict, refs: dict, workdir: str) -> list[Op]:
    ops = []
    first: dict[str, str] = {}
    for inst in inputs["instances"]:
        out = os.path.join(workdir, f"experiment_{inst['name']}.csv")
        argv = ["experiment", "--scenario", inst["scenario"], "--format", "csv", "--out", out]

        def check(code, name=inst["name"], out=out, cells=refs[inst["name"]]["cells"]):
            if code != 0:
                raise checks.CheckFailed(f"experiment exited with code {code}")
            with open(out, encoding="utf-8", newline="") as handle:
                text = handle.read()
            checks.experiment_csv(text, first.setdefault(name, text), cells)

        ops.append(Op("experiment.m2", lambda argv=argv: rt.cli.main(argv), check))
    return ops


# ------------------------------------------------------ network rungs

def network_inputs(rng: np.random.Generator, workdir: str) -> dict:
    """Layered DAGs per rung, each with a calm and a stormy disturbance.

    Calm is the scenario mean.  Stormy adds, on a random third of the
    edges, a shift of about a tenth of the demand, which is far above any
    route's latency and pins most of those edges at zero flow.
    """
    instances = _dag_instances(rng, workdir, NETWORK_RUNGS, "n")
    for inst in instances:
        m = inst["m"]
        with open(inst["scenario"], encoding="utf-8") as handle:
            mean = np.array(json.load(handle)["disturbance"]["mean"])
        stormy = mean.copy()
        hit = rng.choice(m, m // 3, replace=False)
        stormy[hit] += m * rng.uniform(0.5, 1.5, hit.size)
        inst["alphas"] = {"calm": mean.tolist(), "stormy": stormy.tolist()}
    oracle = {i["name"]: {"path": i["scenario"], "eps_hat": []} for i in instances}
    return {"instances": instances, "oracle": oracle}


def network_ops(rt, state: dict, inputs: dict, refs: dict, workdir: str) -> list[Op]:
    ops = []
    for inst in inputs["instances"]:
        scenario, inc, blocks = state[inst["name"]]
        ref = refs[inst["name"]]
        rung = f"m{inst['m']}"
        beta = scenario.lat.beta
        zero = np.zeros(beta.size)
        mean = scenario.model.mean
        cert = np.array(ref["certificate"])
        if inst["m"] in CEILING_EDGES:
            ops.append(Op(f"ceiling.{rung}",
                          lambda b=blocks, s=scenario: rt.design.epsilon_max(b, s.model),
                          lambda value, r=ref: checks.ceiling(value, r)))
        for spread in ("calm", "stormy"):
            alpha = np.array(inst["alphas"][spread])
            ops.append(Op(
                f"equilibrium.{rung}",
                lambda i=inc, s=scenario, a=alpha, z=zero:
                    rt.equilibrium.nash_flow_potential(i, s.lat, a, z),
                lambda sol, i=inc, b=beta, a=alpha, z=zero:
                    checks.equilibrium(sol, i, b, a, z, rt.network.is_feasible_flow)))
        ref_flow = np.array(ref["certificate_flow"])

        def check_closed(sol, i=inc, b=beta, a=mean, t=cert, f=ref_flow):
            checks.equilibrium(sol, i, b, a, t, rt.network.is_feasible_flow)
            checks.flow(sol.flow, f)

        ops.append(Op(f"closed.{rung}",
                      lambda b=blocks, a=mean, t=cert: rt.equilibrium.nash_flow_closed_form(b, a, t),
                      check_closed))
        ops.append(Op(f"latency.{rung}",
                      lambda b=blocks, a=mean, t=cert: rt.equilibrium.equilibrium_latency_g(b, a, t),
                      lambda value, b=beta, a=mean, f=ref_flow: checks.system_latency(value, f, b, a)))
    return ops


# -------------------------------------------------------------- analysis

def analysis_inputs(rng: np.random.Generator, workdir: str) -> dict:
    """The experiment's two-road scenarios, then the layered DAGs of every network rung."""
    experiment = experiment_inputs(rng, workdir)
    network = network_inputs(rng, workdir)
    return {"instances": experiment["instances"] + network["instances"],
            "experiment": experiment, "network": network,
            "oracle": {**experiment["oracle"], **network["oracle"]}}


def analysis_ops(rt, state: dict, inputs: dict, refs: dict, workdir: str) -> list[Op]:
    """The two experiment invocations first, then the network rungs' ops."""
    return (experiment_ops(rt, state, inputs["experiment"], refs, workdir)
            + network_ops(rt, state, inputs["network"], refs, workdir))


@dataclass(frozen=True)
class Workload:
    generate: Callable[[np.random.Generator, str], dict]
    ops: Callable[..., list[Op]]


WORKLOADS = {
    "design": Workload(design_inputs, design_ops),
    "analysis": Workload(analysis_inputs, analysis_ops),
}


def write_inputs(name: str, seed: int, workdir: str) -> None:
    """Write workload ``name``'s inputs for ``seed`` into ``workdir``.

    Besides the scenario files this writes ``inputs.json`` (what the
    runner loads) and ``oracle_request.json`` (what ``oracle.py`` answers).
    """
    inputs = WORKLOADS[name].generate(np.random.default_rng(seed), workdir)
    netgen.write_json(os.path.join(workdir, "inputs.json"), inputs)
    netgen.write_json(os.path.join(workdir, "oracle_request.json"), inputs["oracle"])


if __name__ == "__main__":
    # python3 benchmarks/workloads.py WORKLOAD SEED WORKDIR: the runner calls
    # this in a child process, so generating never adds to its peak memory.
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
