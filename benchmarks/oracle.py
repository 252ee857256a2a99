"""Reference values for the benchmark's output checks, computed with scipy.

Run as a separate process before any timed work, so scipy never loads
into the measured process and never sits on the timed path::

    python3 benchmarks/oracle.py REQUEST.json REFERENCE.json

Every value is built from the input files alone, without the program:
the network JSON gives the incidence matrix, the flow response comes
from a QR factorization, the robustness ceiling from HiGHS
(``scipy.optimize.linprog``) and robust designs from SLSQP on the
equivalent problem in circulation space,

    min_y  eps ||y + c|| + sum_e beta_e y_e^2 + mean @ y
    s.t.   R y = 0,  y <= rhs(0),

whose optimum equals the design objective because tolls reach it only
through ``y = gamma @ tau``.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
from scipy import linalg, optimize


class Instance:
    """Flow-response data of one network and disturbance, built independently."""

    def __init__(self, network: dict, mean: np.ndarray, delta: float) -> None:
        names = network["nodes"]
        dest = network["destination"]
        rows = {v: i for i, v in enumerate(v for v in names if v != dest)}
        edges = network["edges"]
        self.matrix = np.zeros((len(rows), len(edges)))
        for j, e in enumerate(edges):
            if e["from"] in rows:
                self.matrix[rows[e["from"]], j] += 1.0
            if e["to"] in rows:
                self.matrix[rows[e["to"]], j] -= 1.0
        self.eta = np.zeros(len(rows))
        self.eta[rows[network["source"]]] = float(network["demand"])
        self.beta = np.array([float(e["beta"]) for e in edges])
        self.mean = np.asarray(mean, dtype=float)
        self.delta = float(delta)

        root = 1.0 / np.sqrt(self.beta)
        q, _ = np.linalg.qr((self.matrix * root).T)
        self.gamma = root[:, None] * (np.eye(len(edges)) - q @ q.T) * root[None, :]
        self.gamma_norm = float(np.linalg.eigvalsh(self.gamma)[-1])
        normal = (self.matrix / self.beta) @ self.matrix.T
        potentials = linalg.solve(normal, self.eta, assume_a="pos")
        self.c = (self.matrix.T @ potentials) / self.beta
        self.demand_term = float(self.eta @ potentials)
        self.rhs = -self.gamma_norm * self.delta - self.gamma @ self.mean + self.c

    def ceiling(self) -> tuple[float, np.ndarray]:
        """``max eps`` over ``tau, eps >= 0`` with ``gamma tau + ||gamma|| eps <= rhs``."""
        m = self.beta.size
        cost = np.zeros(m + 1)
        cost[m] = -1.0
        rows = np.hstack([self.gamma, np.full((m, 1), self.gamma_norm)])
        res = optimize.linprog(cost, A_ub=rows, b_ub=self.rhs, bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"reference ceiling LP failed: {res.message}")
        return float(res.x[m]), res.x[:m]

    def design(self, eps: float, start: np.ndarray) -> dict:
        """Optimal worst-case latency at radius ``eps`` from a feasible circulation."""
        basis = linalg.null_space(self.matrix)
        weight = basis.T * self.beta @ basis

        def parts(z):
            y = basis @ z
            flow = y + self.c
            norm = float(np.linalg.norm(flow))
            return y, flow, norm

        def value(z):
            y, _, norm = parts(z)
            return eps * norm + float(z @ weight @ z) + float(self.mean @ y)

        def grad(z):
            _, flow, norm = parts(z)
            return eps * basis.T @ flow / norm + 2.0 * weight @ z + basis.T @ self.mean

        res = optimize.minimize(
            value, basis.T @ start, jac=grad, method="SLSQP",
            constraints=[{"type": "ineq", "fun": lambda z: self.rhs - basis @ z,
                          "jac": lambda z: -basis}],
            options={"ftol": 1e-15, "maxiter": 2000})
        y, flow, norm = parts(res.x)
        if float((y - self.rhs).max()) > 1e-7 * max(1.0, float(np.abs(self.rhs).max())):
            raise RuntimeError(f"reference design left the polytope: {res.message}")
        q0 = float(y @ (self.beta * y)) + self.demand_term
        return {"q": flow.tolist(), "q0": q0,
                "worst_case_latency": eps * norm + float(flow @ self.mean) + q0}


def load_instance(scenario_path: str) -> Instance:
    """Read a scenario and its network (and sample CSV, if named) from disk."""
    base = os.path.dirname(os.path.abspath(scenario_path))
    with open(scenario_path, encoding="utf-8") as handle:
        scenario = json.load(handle)
    with open(os.path.join(base, scenario["network"]), encoding="utf-8") as handle:
        network = json.load(handle)
    dist = scenario["disturbance"]
    if "samples" in dist:
        data = np.loadtxt(os.path.join(base, dist["samples"]), delimiter=",", skiprows=1)
        m = len(network["edges"])
        beta = np.array([float(e["beta"]) for e in network["edges"]])
        mean = (data[:, m:] - beta * data[:, :m]).mean(axis=0)
    else:
        mean = np.array(dist["mean"], dtype=float)
    return Instance(network, mean, dist["delta"])


def reference(request: dict) -> dict:
    """Reference values for every scenario in ``request``.

    ``request`` maps a scenario key to ``{"path": ..., "eps_hat": [...]}``
    (fractions of the ceiling) or ``{"path": ..., "grid": [...]}``
    (absolute radii, crossed as in the experiment).  The answer holds the
    ceiling, its certificate toll, the equilibrium flow at the mean under
    that toll, a design per anticipated radius and, for grids, the
    closed-form expectation of every cell, row-major.
    """
    out = {}
    for key, spec in request.items():
        inst = load_instance(spec["path"])
        ceiling, cert = inst.ceiling()
        start = inst.gamma @ cert
        flow = inst.c - inst.gamma @ (inst.mean + cert)
        entry = {"epsilon_max": ceiling, "certificate": cert.tolist(),
                 "certificate_flow": flow.tolist(), "designs": {}}
        radii = spec.get("grid") or [f * ceiling for f in spec.get("eps_hat", [])]
        designs = [inst.design(r, start) for r in radii]
        entry["designs"] = {repr(r): d for r, d in zip(radii, designs)}
        if "grid" in spec:
            entry["cells"] = [eps * float(np.linalg.norm(d["q"])) + float(np.dot(d["q"], inst.mean))
                              + d["q0"] for eps in radii for d in designs]
        out[key] = entry
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: oracle.py REQUEST.json REFERENCE.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        request = json.load(handle)
    answer = reference(request)
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(answer, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
