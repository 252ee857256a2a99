"""Seeded inputs for the benchmark: layered DAGs, scenarios and sample CSVs.

Everything here is a pure function of a ``numpy.random.Generator`` (or
plain numbers), so one benchmark seed always yields the same files.  The
files are written in the formats the program's own loaders read
(``load_network``, ``load_scenario``, ``load_samples``); nothing here
imports the program.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def nodes_for_edges(m: int) -> int:
    """Node count used for an ``m``-edge instance.

    About 2.5 edges per node from 50 edges up, two below that so small
    instances keep room for the spine and some cross edges.
    """
    return max(2, (2 * m) // 5 if m >= 50 else m // 2)


def layered_dag(rng: np.random.Generator, n: int, m: int) -> list[tuple[int, int]]:
    """Exactly ``m`` distinct edges on ``n`` nodes forming a layered single-OD DAG.

    Node 0 is the source and node ``n - 1`` the destination; the interior
    nodes are split into about ``sqrt(n - 2)`` layers in index order.  A
    spine gives every interior node one edge in from the previous layer
    and every node without one an edge out to the next layer, so each
    edge lies on a source-destination path.  The rest of the budget goes
    to random forward edges, nine in ten of them between adjacent layers.
    Raises ``ValueError`` when ``m`` is below the spine size or above the
    number of forward node pairs.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    interior = list(range(1, n - 1))
    count = max(1, round(math.sqrt(len(interior)))) if interior else 0
    layers: list[list[int]] = [[0]]
    for chunk in np.array_split(np.array(interior, dtype=int), count) if interior else []:
        layers.append([int(v) for v in chunk])
    layers.append([n - 1])

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def add(tail: int, head: int) -> None:
        if (tail, head) not in seen:
            seen.add((tail, head))
            edges.append((tail, head))

    for depth in range(1, len(layers) - 1):
        for v in layers[depth]:
            add(int(rng.choice(layers[depth - 1])), v)
    for depth in range(len(layers) - 1):
        tails = {t for t, _ in edges}
        for u in layers[depth]:
            if u not in tails:
                add(u, int(rng.choice(layers[depth + 1])))
    if len(edges) > m:
        raise ValueError(f"{m} edges cannot connect {n} nodes in layers (spine needs {len(edges)})")

    spans = [(a, b) for a in range(len(layers)) for b in range(a + 1, len(layers))]
    room = sum(len(layers[a]) * len(layers[b]) for a, b in spans)
    if m > room:
        raise ValueError(f"{n} nodes hold at most {room} layered edges, asked for {m}")
    weights = np.array([len(layers[a]) * len(layers[b]) * 0.1 ** (b - a - 1) for a, b in spans])
    weights /= weights.sum()
    while len(edges) < m:
        a, b = spans[int(rng.choice(len(spans), p=weights))]
        add(int(rng.choice(layers[a])), int(rng.choice(layers[b])))
    return edges


def network_payload(edges: list[tuple[int, int]], n: int, betas: np.ndarray,
                    demand: float) -> dict:
    """The network JSON object ``load_network`` expects."""
    names = [f"v{i}" for i in range(n)]
    return {
        "nodes": names,
        "edges": [{"id": f"e{j}", "from": names[t], "to": names[h], "beta": float(b)}
                  for j, ((t, h), b) in enumerate(zip(edges, betas))],
        "source": names[0],
        "destination": names[-1],
        "demand": float(demand),
    }


def write_json(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def dag_scenario(rng: np.random.Generator, m: int, directory: str, name: str) -> dict:
    """Write an ``m``-edge layered network and an inline-moment scenario.

    Slopes are uniform on [0.5, 2], demand is ``10 m`` so edge flows stay
    of order ten at every size, the disturbance mean is uniform on
    [0, 10] and the covariance a small random PSD matrix.  The support
    radius is small next to any edge flow, so the robustness ceiling is
    comfortably positive.  Returns the scenario description, file paths
    included.
    """
    n = nodes_for_edges(m)
    edges = layered_dag(rng, n, m)
    betas = rng.uniform(0.5, 2.0, m)
    root = rng.normal(size=(m, 4)) * 0.1
    cov = root @ root.T + 0.01 * np.eye(m)
    mean = rng.uniform(0.0, 10.0, m)
    net_path = os.path.join(directory, f"{name}_network.json")
    scen_path = os.path.join(directory, f"{name}_scenario.json")
    write_json(net_path, network_payload(edges, n, betas, 10.0 * m))
    write_json(scen_path, {
        "network": os.path.basename(net_path),
        "disturbance": {"mean": mean.tolist(), "cov": cov.tolist(), "delta": 0.05},
        "grid": [0.0],
        "mc_samples": 1,
        "seed": int(rng.integers(2**31)),
    })
    return {"name": name, "m": m, "n": n, "network": net_path, "scenario": scen_path}


def pigou_ceiling(beta: tuple[float, float], demand: float, delta: float) -> float:
    """Closed-form robustness ceiling of a two-road network.

    The flow response of two parallel roads is ``g [[1, -1], [-1, 1]]``
    with ``g = b1 b2 / (b1 + b2)`` for ``b = 1 / beta``, so its norm is
    ``2 g``; the largest minimum edge flow is half the demand.
    """
    b1, b2 = 1.0 / beta[0], 1.0 / beta[1]
    return 0.5 * demand / (2.0 * b1 * b2 / (b1 + b2)) - delta


def pigou_scenarios(rng: np.random.Generator, directory: str, draws: int,
                    records: int) -> list[dict]:
    """Write the two two-road experiment scenarios.

    Both share one network: slopes near the classic 1.5 / 0.1, demand
    100.  ``inline`` states its moments; ``samples`` names a CSV of
    ``records`` flow/latency observations whose disturbance is Gaussian
    around the same mean.  Each grid is six radii spread evenly up to 0.9
    of the ceiling, rounded down to four decimals.
    """
    beta = (float(rng.uniform(1.3, 1.7)), float(rng.uniform(0.08, 0.12)))
    demand, delta = 100.0, 0.2
    mean = np.array([rng.uniform(15.0, 25.0), rng.uniform(25.0, 35.0)])
    cov = 0.01 * np.eye(2)
    ceiling = pigou_ceiling(beta, demand, delta)
    grid = [math.floor(0.9 * ceiling * i / 5 * 1e4) / 1e4 for i in range(6)]
    net_path = os.path.join(directory, "pigou_network.json")
    write_json(net_path, {
        "nodes": ["s", "d"],
        "edges": [{"id": "e1", "from": "s", "to": "d", "beta": beta[0]},
                  {"id": "e2", "from": "s", "to": "d", "beta": beta[1]}],
        "source": "s", "destination": "d", "demand": demand,
    })

    flows = rng.uniform(0.0, demand, records)
    flows = np.stack([flows, demand - flows], axis=1)
    noise = mean + rng.normal(size=(records, 2)) * 0.1
    lats = flows * np.array(beta) + noise
    csv_path = os.path.join(directory, "pigou_samples.csv")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write("f_e1,f_e2,l_e1,l_e2\n")
        for row in np.hstack([flows, lats]).tolist():
            handle.write(",".join(map(repr, row)) + "\n")

    out = []
    for name, dist in (("inline", {"mean": mean.tolist(), "cov": cov.tolist(), "delta": delta}),
                       ("samples", {"samples": os.path.basename(csv_path), "delta": delta})):
        path = os.path.join(directory, f"pigou_{name}_scenario.json")
        write_json(path, {"network": os.path.basename(net_path), "disturbance": dist,
                          "grid": grid, "mc_samples": draws, "seed": int(rng.integers(2**31))})
        out.append({"name": name, "m": 2, "network": net_path, "scenario": path,
                    "samples": csv_path if name == "samples" else None})
    return out
