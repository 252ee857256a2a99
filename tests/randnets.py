"""Random instance generators and brute-force oracles shared by the tests.

The generators only use numpy's Generator API with caller-provided seeds,
so every test run sees the same instances.  The oracles are deliberately
dumb: path listing for route-level checks, active-subset enumeration
for quadratic programs, golden-section search for one-dimensional design
problems.  Slow but independent of the
code under test.  ``active_set_qp`` is a primal active-set QP solver that
the package used to ship; the tests keep it as a reference solver.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from robusttolls.design import epsilon_max, toll_polytope
from robusttolls.equilibrium import LatencyModel, kkt_blocks
from robusttolls.network import Edge, Network, incidence, validate_network
from robusttolls.uncertainty import DisturbanceModel, sample_uniform_ball

# Statuses of the reference solver ``active_set_qp``.
STATUS_OPTIMAL = "optimal"
STATUS_ITERATION_CAP = "iteration_cap"


def random_dag_network(rng: np.random.Generator, max_nodes: int = 8,
                       max_edges: int = 14) -> Network:
    """A random valid single-source single-sink DAG.

    Nodes are created in topological order (0 is the source, the last is
    the destination), every non-source node gets an incoming edge from an
    earlier node, every non-destination node an outgoing edge to a later
    one, and the remaining budget goes to random forward edges.  By
    construction every edge lies on a source-destination path.
    """
    n = int(rng.integers(2, max_nodes + 1))
    edges: list[tuple[int, int]] = []
    for i in range(1, n):
        edges.append((int(rng.integers(0, i)), i))
    for i in range(n - 1):
        if not any(t == i for t, _ in edges):
            edges.append((i, int(rng.integers(i + 1, n))))
    while len(edges) < max_edges and rng.random() < 0.6:
        tail = int(rng.integers(0, n - 1))
        head = int(rng.integers(tail + 1, n))
        edges.append((tail, head))
    net = Network(num_nodes=n,
                  edges=tuple(Edge(f"e{k + 1}", t, h) for k, (t, h) in enumerate(edges)),
                  demand=float(rng.uniform(5.0, 80.0)))
    assert validate_network(net).ok
    return net


def random_instance(rng: np.random.Generator, max_nodes: int = 8, max_edges: int = 14):
    """A network with latency model, equilibrium blocks, and a disturbance
    model under which full utilization is achievable with margin.

    Returns ``(net, lat, blocks, model, ceiling)``.  Rejection-samples the
    disturbance scale until the robustness ceiling is comfortably
    positive, which mirrors how these designs are used: if no toll can
    keep the network utilized there is nothing to test.
    """
    while True:
        net = random_dag_network(rng, max_nodes, max_edges)
        m = net.num_edges
        lat = LatencyModel(rng.uniform(0.1, 5.0, m))
        blocks = kkt_blocks(incidence(net), lat)
        scale = float(net.demand * lat.beta.min())
        for shrink in (1.0, 0.25, 0.05):
            mean = rng.uniform(0.0, 0.5 * scale * shrink, m)
            delta = float(rng.uniform(0.0, 0.02 * scale * shrink))
            cov_root = rng.normal(size=(m, m)) * 0.01 * scale
            model = DisturbanceModel(mean=mean, cov=cov_root @ cov_root.T, support_radius=delta)
            try:
                ceiling, _ = epsilon_max(blocks, model)
            except Exception:
                continue
            if ceiling > 1e-3 * scale:
                return net, lat, blocks, model, ceiling


def layered_dag_network(rng: np.random.Generator, n: int, m: int, demand: float) -> Network:
    """A valid single-OD DAG on ``n >= 3`` nodes with exactly ``m`` distinct edges.

    Interior nodes are split into about ``sqrt(n - 2)`` layers in index
    order.  A spine gives every interior node an edge in from the layer
    before it and every node still without one an edge out to the layer
    after it; the remaining edges join random nodes of random layers,
    nine in ten of them adjacent.  ``m`` must lie between the spine's
    size and the number of forward layer pairs.
    """
    count = max(1, round(float(np.sqrt(n - 2))))
    layers = [[0]] + [c.tolist() for c in np.array_split(np.arange(1, n - 1), count)] + [[n - 1]]
    edges: list[tuple[int, int]] = []

    def add(tail: int, head: int) -> None:
        if (tail, head) not in edges:
            edges.append((tail, head))

    for depth in range(1, len(layers) - 1):
        for v in layers[depth]:
            add(int(rng.choice(layers[depth - 1])), v)
    for depth in range(len(layers) - 1):
        for u in layers[depth]:
            if all(t != u for t, _ in edges):
                add(u, int(rng.choice(layers[depth + 1])))
    room = sum(len(a) * len(b) for i, a in enumerate(layers) for b in layers[i + 1:])
    assert len(edges) <= m <= room, f"{m} edges do not fit these layers"
    while len(edges) < m:
        a = int(rng.integers(0, len(layers) - 1))
        b = a + 1 if rng.random() < 0.9 else int(rng.integers(a + 1, len(layers)))
        add(int(rng.choice(layers[a])), int(rng.choice(layers[b])))
    net = Network(num_nodes=n, edges=tuple(Edge(f"e{k}", t, h) for k, (t, h) in enumerate(edges)),
                  demand=demand)
    assert validate_network(net).ok
    return net


def twelve_decade_networks(count, seed=11):
    """Seeded random and layered DAGs with slopes log-uniform on [1e-6, 1e6]."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        if index % 2:
            net = random_dag_network(rng, 10, 20)
        else:
            n = int(rng.choice([6, 8, 10, 12]))
            net = layered_dag_network(rng, n, 2 * n, 50.0)
        yield net, 10.0 ** rng.uniform(-6.0, 6.0, net.num_edges)


@lru_cache(maxsize=None)
def twelve_decade_family(seed):
    """Seed ``seed``'s 600 twelve-decade networks, each with its mean and stormy costs.

    The mean is U[10, 30] from ``default_rng(seed + 100)``; the stormy
    costs add 100 to it on a random third of the edges, drawn next.
    """
    rng = np.random.default_rng(seed + 100)
    family = []
    for net, beta in twelve_decade_networks(600, seed):
        m = net.num_edges
        mean = rng.uniform(10.0, 30.0, m)
        stormy = mean.copy()
        stormy[rng.choice(m, m // 3, replace=False)] += 100.0
        family.append((net, beta, mean, stormy))
    return tuple(family)


def sample_strict_toll(rng: np.random.Generator, blocks, model, eps: float) -> np.ndarray:
    """A random toll strictly inside the radius-``eps`` admissible set.

    Starts from the robustness ceiling's certificate, the deepest point
    (its flow is the max-min flow, so every row keeps a slack of at least
    ``||gamma|| (epsilon_max - eps)``), steps along a random nonnegative
    direction up to 0.9 of the room the slacks leave, and mixes in the
    row-space directions the flow response cannot see; every move keeps
    the toll nonnegative and every slack positive.
    """
    poly = toll_polytope(blocks, model, eps)
    m = poly.gamma.shape[1]
    if blocks.gamma_norm <= 1e-9:
        return rng.uniform(0.0, 1.0, m)
    _, tau = epsilon_max(blocks, model)
    slack = poly.rhs - poly.gamma @ tau
    assert float(slack.min()) > 0.0, "no strict interior at this radius"

    direction = rng.uniform(0.0, 1.0, m)
    gain = poly.gamma @ direction
    growing = gain > 0.0
    room = float((slack[growing] / gain[growing]).min()) if growing.any() else 1.0
    tau = tau + rng.uniform(0.0, 0.9) * room * direction

    shift = blocks.inc.matrix.T @ rng.normal(size=blocks.inc.matrix.shape[0])
    negative = shift < -1e-12
    if negative.any():
        room = float((tau[negative] / -shift[negative]).min())
    else:
        room = 1.0
    tau = tau + rng.uniform(0.0, 0.9) * room * shift
    assert float(tau.min()) >= 0.0 and float((poly.rhs - poly.gamma @ tau).min()) > 0.0, \
        "strict toll sampler produced an outside point"
    return tau


def disturbance_within(rng: np.random.Generator, model: DisturbanceModel,
                       eps: float) -> np.ndarray:
    """A disturbance from a mean shifted at most ``eps``, within support."""
    n = model.mean.shape[0]
    shifted = model.mean + sample_uniform_ball(np.zeros(n), eps,
                                               1, seed=int(rng.integers(2**32)))[0]
    return shifted + sample_uniform_ball(np.zeros(n), model.support_radius, 1,
                                         seed=int(rng.integers(2**32)))[0]


def enumerate_paths(net: Network) -> list[tuple[int, ...]]:
    """Every source-destination path of an acyclic network, as edge indices.

    Paths come out in lexicographic edge-index order.  Their number grows
    exponentially in general, so this is for small test networks only.
    """
    dest = net.num_nodes - 1

    def extend(node: int, prefix: tuple[int, ...]):
        if node == dest:
            yield prefix
            return
        for j, edge in enumerate(net.edges):
            if edge.tail == node:
                yield from extend(edge.head, prefix + (j,))

    return list(extend(0, ()))


def golden_section(fn, lo: float, hi: float, iters: int = 240) -> tuple[float, float]:
    """Minimize a unimodal function on [lo, hi] to machine precision."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - ratio * (b - a)
    x2 = a + ratio * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = fn(x2)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def brute_force_qp(hess: np.ndarray, grad: np.ndarray, rows: np.ndarray,
                   rhs: np.ndarray) -> np.ndarray:
    """Minimize a strictly convex QP by enumerating active subsets."""
    n = hess.shape[0]
    m = rows.shape[0]
    best = None
    best_val = np.inf
    for size in range(0, min(m, n) + 1):
        for subset in itertools.combinations(range(m), size):
            act = rows[list(subset)]
            kkt = np.zeros((n + size, n + size))
            kkt[:n, :n] = hess
            kkt[:n, n:] = act.T
            kkt[n:, :n] = act
            target = np.concatenate([-grad, rhs[list(subset)]])
            try:
                sol = np.linalg.solve(kkt, target)
            except np.linalg.LinAlgError:
                continue
            x, lam = sol[:n], sol[n:]
            if float(np.max(rows @ x - rhs, initial=-np.inf)) > 1e-8:
                continue
            if size and float(lam.min()) < -1e-8:
                continue
            value = float(0.5 * x @ hess @ x + grad @ x)
            if value < best_val - 1e-12:
                best_val = value
                best = x
    assert best is not None, "brute-force QP found no KKT point"
    return best


def active_set_qp(hess: np.ndarray, grad: np.ndarray, rows: np.ndarray, rhs: np.ndarray,
                  start: np.ndarray, max_iter: int = 0,
                  tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray, int, float, str]:
    """Minimize ``0.5 x'Hx + g'x`` s.t. ``rows @ x <= rhs`` from a feasible start.

    Primal active-set iteration for positive definite ``hess``: solve the
    equality problem on the working set, step to the nearest blocking
    constraint, and drop the constraint with the most negative multiplier
    when stationary.  Subproblems go through ``lstsq`` so redundant active
    constraints cannot derail the solve.

    Returns ``(x, multipliers, iterations, kkt_residual, status)``.
    """
    x = np.asarray(start, dtype=float).copy()
    n = x.shape[0]
    m = rows.shape[0]
    if max_iter <= 0:
        max_iter = 20 * (n + m) + 20
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    if m and float(np.max(rows @ x - rhs)) > 1e-9 * scale:
        raise ValueError("active-set start point violates the constraints")
    working = [int(i) for i in np.flatnonzero(rows @ x >= rhs - tol * scale)]
    lam = np.zeros(m)

    status = STATUS_ITERATION_CAP
    it = 0
    for it in range(1, max_iter + 1):
        act = rows[working]
        k = len(working)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = hess
        if k:
            kkt[:n, n:] = act.T
            kkt[n:, :n] = act
        target = np.concatenate([-grad, rhs[working]])
        sol = np.linalg.lstsq(kkt, target, rcond=None)[0]
        direction = sol[:n] - x
        if float(np.linalg.norm(direction)) <= tol * (1.0 + float(np.linalg.norm(x))):
            lam = np.zeros(m)
            lam[working] = sol[n:]
            worst = min(working, key=lambda i: lam[i], default=-1)
            if worst < 0 or lam[worst] >= -tol * (1.0 + float(np.abs(lam).max(initial=0.0))):
                status = STATUS_OPTIMAL
                break
            working.remove(worst)
            continue
        gain = rows @ direction
        step = 1.0
        blocker = -1
        for i in range(m):
            if i not in working and gain[i] > tol:
                t = (rhs[i] - float(rows[i] @ x)) / gain[i]
                if t < step - 1e-14:
                    step = t
                    blocker = i
        x = x + max(step, 0.0) * direction
        if blocker >= 0:
            working.append(blocker)
            working.sort()

    clamped = np.clip(lam, 0.0, None)
    stationarity = float(np.abs(hess @ x + grad + rows.T @ clamped).max(initial=0.0))
    violation = float(np.max(rows @ x - rhs, initial=0.0))
    comple = float(np.abs(clamped * (rows @ x - rhs)).max(initial=0.0))
    residual = max(stationarity, violation, comple, 0.0)
    return x, clamped, it, residual, status
