"""Benchmark runner for robusttolls.

    python3 benchmarks/run.py --workload design --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The runner builds its inputs from the
seed and computes reference values with scipy, each in a child process,
then repeats the workload's fixed op list (one caller, the next call
when the previous returns) until ``--seconds`` have elapsed, always
completing the first pass.  Fresh-process set-ups are timed in between
ops, spread over the whole run.
Every output is checked outside the timed region; a raised exception or
a failed check counts the op as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
op twice in a row, untraced and with spans around the program's public
functions, and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is the JSON result.  Files go to
``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads, here and in every child process
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 120

# Per-call timings reported with the per-layer metrics: name -> op label.
OP_TIMINGS = {
    "design_s.m12": "design.m12",
    "design_s.m24": "design.m24",
    "experiment_s": "experiment.m2",
    "equilibrium_s.m250": "equilibrium.m250",
    **{f"ceiling_s.m{m}": f"ceiling.m{m}" for m in workloads.CEILING_EDGES},
}
# Busy seconds per pass of one function on one rung's ops.
RUNG_BUSY = (tuple(f"equilibrium.nash_flow_potential.busy_s.m{m}"
                   for m, _ in workloads.NETWORK_RUNGS)
             + tuple(f"design.epsilon_max.busy_s.m{m}" for m in workloads.CEILING_EDGES))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for target in tracing.TARGETS:
        units.update({f"{target}.calls": "count", f"{target}.busy_s": "s",
                      f"{target}.self_s": "s", f"{target}.fail": "count"})
    units.update({f"{module}.self_s": "s" for module in tracing.MODULES})
    units.update({
        "design.solve_dro_tolls.iterations": "count",
        "optim.active_set_qp.calls_per_solve": "count",
        "equilibrium.nash_flow_potential.pinned": "count",
        "uncertainty.sample_uniform_ball.draws": "count",
        "uncertainty.draws_per_s": "1/s",
        "uncertainty.load_samples.records": "count",
    })
    units.update({name: "s" for name in RUNG_BUSY})
    units.update({name: "s" for name in OP_TIMINGS})
    units.update({"fail_ratio": "1", "trace.spans": "count", "trace.pass_s": "s",
                  "trace.untraced_pass_s": "s", "trace.overhead_s": "s"})
    return units


END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


@dataclass
class OpResult:
    label: str
    seconds: float
    error: str | None = None
    wrong: bool = False


def run_op(op: workloads.Op, op_id: int, tracer: tracing.Tracer | None) -> OpResult:
    """Time one call, then check its output outside the timed region."""
    with tracer.op(op_id, op.label) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as err:  # any exception fails this op, not the run
            return OpResult(op.label, time.perf_counter() - start, f"{type(err).__name__}: {err}")
        seconds = time.perf_counter() - start
    try:
        op.check(out)
    except checks.CheckFailed as err:
        return OpResult(op.label, seconds, f"check failed: {err}", wrong=True)
    return OpResult(op.label, seconds)


def measure(ops: list[workloads.Op], seconds: float, tracer: tracing.Tracer | None = None,
            probe: Callable[[], None] | None = None, probes: int = 0
            ) -> tuple[list[list[OpResult]], list[list[OpResult]]]:
    """Passes over ``ops`` until ``seconds`` have elapsed.

    The first pass always completes; a later one stops at the first op
    due after the window has closed, so a run measures for ``seconds``
    even when a pass takes a large part of it.  Returns the untraced and
    the traced passes; the last of each may be partial.  With a tracer
    every op runs twice in a row, untraced and traced, in an order that
    alternates from op to op, so that drift in machine speed and the
    advantage of going second cancel out of the tracing overhead.

    ``probe`` is called ``probes`` times between ops, at evenly spaced
    points of the window, so that it meets the same drift in machine
    speed as the ops do.  Its time is left out of the window.  Calls not
    yet due when the last pass ends are made then.
    """
    plain: list[list[OpResult]] = []
    traced: list[list[OpResult]] = []
    made = 0
    paused = 0.0
    start = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - start - paused

    def probe_due(final: bool = False) -> None:
        nonlocal made, paused
        while made < probes and (final or elapsed() >= made * seconds / probes):
            began = time.perf_counter()
            probe()
            made += 1
            paused += time.perf_counter() - began

    while not plain or elapsed() < seconds:
        base = len(plain) * len(ops)
        plain.append([])
        if tracer is not None:
            traced.append([])
        for i, op in enumerate(ops):
            if len(plain) > 1 and elapsed() >= seconds:
                break
            probe_due()
            if tracer is None:
                plain[-1].append(run_op(op, base + i, None))
                continue
            for traced_run in ((False, True) if (base + i) % 2 == 0 else (True, False)):
                if traced_run:
                    with tracer:
                        traced[-1].append(run_op(op, base + i, tracer))
                else:
                    plain[-1].append(run_op(op, base + i, None))
    probe_due(final=True)
    if not plain[-1]:
        del plain[-1:], traced[-1:]
    return plain, traced


def typical_pass(passes: list[list[OpResult]]) -> float:
    """One pass's seconds, each op taken at its median over the passes that reached it."""
    return sum(statistics.median(p[i].seconds for p in passes if len(p) > i)
               for i in range(len(passes[0])))


def per_call(passes: list[list[OpResult]], label: str) -> float:
    """Median over passes of the mean seconds per call of ``label`` ops (0 if none)."""
    means = []
    for results in passes:
        times = [r.seconds for r in results if r.label == label]
        if times:
            means.append(sum(times) / len(times))
    return statistics.median(means) if means else 0.0


def layer_metrics(tracer: tracing.Tracer, ops: list[workloads.Op], traced: list[list[OpResult]],
                  untraced: list[list[OpResult]]) -> dict[str, float]:
    """Per-layer figures: traced set-up once plus one average complete traced pass."""
    spans = tracer.spans
    n = sum(1 for results in traced if len(results) == len(ops))
    setup = tracing.summarize(spans, ops={-1})
    run = tracing.summarize(spans, ops=set(range(n * len(ops))))
    values: dict[str, float] = {}
    for target in tracing.TARGETS:
        a = setup.get(target, {})
        b = run.get(target, {})
        for key in ("calls", "busy_s", "self_s", "fail"):
            values[f"{target}.{key}"] = a.get(key, 0) + b.get(key, 0) / n
    for module in tracing.MODULES:
        values[f"{module}.self_s"] = sum(values[f"{t}.self_s"] for t in tracing.TARGETS
                                         if t.startswith(module + "."))

    def per_call_count(target: str) -> float:
        row = run.get(target)
        return row["count"] / row["calls"] if row else 0.0

    solves = run.get("design.solve_dro_tolls", {}).get("calls", 0)
    under = tracing.calls_under(spans, "optim.active_set_qp", "design.solve_dro_tolls")
    draws = run.get("uncertainty.sample_uniform_ball")
    values.update({
        "design.solve_dro_tolls.iterations": per_call_count("design.solve_dro_tolls"),
        "optim.active_set_qp.calls_per_solve": under / solves if solves else 0.0,
        "equilibrium.nash_flow_potential.pinned": per_call_count("equilibrium.nash_flow_potential"),
        "uncertainty.sample_uniform_ball.draws": per_call_count("uncertainty.sample_uniform_ball"),
        "uncertainty.draws_per_s": draws["count"] / draws["busy_s"] if draws else 0.0,
        "uncertainty.load_samples.records": per_call_count("uncertainty.load_samples"),
    })
    for name in RUNG_BUSY:
        target, rung = name.rsplit(".busy_s.", 1)
        ids = {k for k in range(n * len(ops)) if ops[k % len(ops)].label.endswith("." + rung)}
        values[name] = tracing.summarize(spans, ops=ids).get(target, {}).get("busy_s", 0.0) / n
    for name, label in OP_TIMINGS.items():
        values[name] = per_call(untraced, label)
    traced_pass = typical_pass(traced)
    untraced_pass = typical_pass(untraced)
    values.update({"trace.spans": sum(1 for s in spans if 0 <= s.op < n * len(ops)) / n,
                   "trace.pass_s": traced_pass, "trace.untraced_pass_s": untraced_pass,
                   "trace.overhead_s": traced_pass - untraced_pass})
    return values


def _git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "commit": _git_commit(ROOT),
    }


def _child(args: list[str]) -> str:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{os.path.basename(args[0])} failed:\n{done.stderr}")
    return done.stdout


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        rt = workloads.program(ROOT)
    except ImportError as err:
        print(f"error: cannot import the program from this checkout: {err}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    inputs_path = os.path.join(workdir, "inputs.json")
    refs_path = os.path.join(workdir, "reference.json")
    probes: list[float] = []

    def probe() -> None:
        probes.append(float(_child([os.path.join(HERE, "setup_probe.py"), inputs_path])))

    try:
        _child([os.path.join(HERE, "workloads.py"), args.workload, str(args.seed), workdir])
        _child([os.path.join(HERE, "oracle.py"), os.path.join(workdir, "oracle_request.json"),
                refs_path])
        with open(inputs_path, encoding="utf-8") as handle:
            inputs = json.load(handle)
        with open(refs_path, encoding="utf-8") as handle:
            refs = json.load(handle)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            with tracer:
                state = workloads.load_all(rt, inputs)
        else:
            state = workloads.load_all(rt, inputs)
        ops = workload.ops(rt, state, inputs, refs, workdir)
        untraced, traced = measure(ops, args.seconds, tracer, probe,
                                   0 if args.trace else SETUP_PROBES)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    results = untraced + traced
    if tracer is not None:
        tracer.write(os.path.join(workdir, "trace.jsonl"))
        values = layer_metrics(tracer, ops, traced, untraced)
    else:
        values = {
            "setup_s": statistics.median(probes),
            "pass_s": typical_pass(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    flat = [r for pass_results in results for r in pass_results]
    attempted = len(flat)
    failures = [r for r in flat if r.error is not None]
    if tracer is not None:
        values["fail_ratio"] = len(failures) / attempted
    units = per_layer_units() if tracer is not None else END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    env = environment(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)}  ops/pass {len(ops)}")
    for label in sorted({op.label for op in ops}):
        times = [r.seconds for r in flat if r.label == label]
        bad = sum(1 for r in flat if r.label == label and r.error is not None)
        print(f"  op {label:<18} calls {len(times):>4}  median {statistics.median(times):.6f} s"
              f"  failed {bad}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.6g} "
          "(failed ops / attempted ops)")
    for r in failures[:10]:
        print(f"failed op {r.label}: {r.error}", file=sys.stderr)
    print("environment " + json.dumps(env))

    result = {"correct": not any(r.wrong for r in flat), "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"environment": env, "probes_s": probes, "result": result}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
