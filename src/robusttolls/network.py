"""Single-commodity network model: types, validation, incidence algebra.

The design machinery downstream assumes a directed acyclic network with
exactly one source, exactly one sink, finite positive demand, and no
edge that misses every source-to-destination path.  Those rules live in
:func:`validate_network`, which reports every violation it finds instead
of stopping at the first, so a broken input file produces one complete
diagnosis.  :func:`incidence` turns a valid network into the reduced
node-edge incidence matrix (destination row dropped) and the nodal
injection vector that the equilibrium layer consumes, and
:func:`_max_min_flow` the feasible flow whose smallest edge flow is
largest: the design's robustness ceiling and the equilibrium solver's
start point.  Nothing here lists paths: everything downstream works on
the incidence matrix, so the number of source-destination paths,
exponential in general, never enters.
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .exceptions import FileFormatError, InvalidNetworkError, NumericalDegeneracyError


@dataclass(frozen=True)
class Edge:
    """A directed edge identified by name, with dense endpoint indices."""

    id: str
    tail: int
    head: int


@dataclass(frozen=True)
class Network:
    """Directed network shipping one commodity from node 0 to the last node.

    By convention the source is index 0 and the destination is index
    ``num_nodes - 1``; interior nodes keep whatever order the caller (or
    the file loader) gave them.  ``demand`` is the total flow injected at
    the source.  Construction only checks local sanity so that malformed
    inputs can still be loaded and handed to :func:`validate_network` for
    a full report.

    Attributes:
        num_nodes: number of nodes, at least 1.
        edges: the directed edges in column order used everywhere else.
        demand: total source-to-destination flow (any real; validation
            insists on positive).
        node_ids: display label per node; defaults to the index as text.
    """

    num_nodes: int
    edges: tuple[Edge, ...]
    demand: float
    node_ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("a network needs at least one node")
        for e in self.edges:
            if not (0 <= e.tail < self.num_nodes and 0 <= e.head < self.num_nodes):
                raise ValueError(f"edge {e.id} references a node index outside 0..{self.num_nodes - 1}")
        if not self.node_ids:
            object.__setattr__(self, "node_ids", tuple(str(i) for i in range(self.num_nodes)))
        elif len(self.node_ids) != self.num_nodes:
            raise ValueError("node_ids length must match num_nodes")

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_network`: ``ok`` plus every finding."""

    ok: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class IncidenceData:
    """Reduced incidence matrix and nodal injections of a valid network.

    ``matrix`` has one row per node except the destination (row index
    equals node index) and one column per edge: +1 where the edge leaves
    the node, -1 where it enters.  ``injections`` puts the demand on the
    source row and zero elsewhere.  Arrays are write-locked; treat them
    as shared immutable state.
    """

    matrix: np.ndarray
    injections: np.ndarray


def _degrees(net: Network) -> tuple[np.ndarray, np.ndarray]:
    indeg = np.zeros(net.num_nodes, dtype=int)
    outdeg = np.zeros(net.num_nodes, dtype=int)
    for e in net.edges:
        outdeg[e.tail] += 1
        indeg[e.head] += 1
    return indeg, outdeg


def _reachable(net: Network, start: int, forward: bool) -> np.ndarray:
    adj: list[list[int]] = [[] for _ in range(net.num_nodes)]
    for e in net.edges:
        if forward:
            adj[e.tail].append(e.head)
        else:
            adj[e.head].append(e.tail)
    seen = np.zeros(net.num_nodes, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def _find_cycle(net: Network) -> list[int] | None:
    """Return edge indices of one directed cycle, or None if acyclic."""
    out_edges: list[list[int]] = [[] for _ in range(net.num_nodes)]
    for j, e in enumerate(net.edges):
        out_edges[e.tail].append(j)
    color = [0] * net.num_nodes  # 0 unseen, 1 on stack, 2 done
    via: dict[int, int] = {}  # node -> edge index used to enter it

    for root in range(net.num_nodes):
        if color[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            node, cursor = stack[-1]
            if cursor < len(out_edges[node]):
                stack[-1] = (node, cursor + 1)
                j = out_edges[node][cursor]
                nxt = net.edges[j].head
                if color[nxt] == 0:
                    color[nxt] = 1
                    via[nxt] = j
                    stack.append((nxt, 0))
                elif color[nxt] == 1:
                    # Walk the recorded entry edges back from the current
                    # node to the repeated one to spell out the cycle.
                    cycle = [j]
                    walk = node
                    while walk != nxt:
                        back = via[walk]
                        cycle.append(back)
                        walk = net.edges[back].tail
                    cycle.reverse()
                    return cycle
            else:
                color[node] = 2
                stack.pop()
    return None


def validate_network(net: Network) -> ValidationReport:
    """Check the structural rules and report every violation.

    The rules: at least two nodes, finite positive demand, node 0 the unique
    source (no incoming edges anywhere else lack them), the last node the
    unique sink, no directed cycle (a witness cycle is spelled out by
    edge ids), and every edge on some source-to-destination path.
    """
    problems: list[str] = []
    n = net.num_nodes
    labels = net.node_ids

    if n < 2:
        problems.append("need at least two nodes for a source and a destination")
    if not math.isfinite(net.demand):
        problems.append(f"demand must be a finite number, got {net.demand:g}")
    elif not net.demand > 0.0:
        problems.append(f"demand must be positive, got {net.demand:g}")

    if n >= 2:
        indeg, outdeg = _degrees(net)
        dest = n - 1
        for i in range(n):
            if indeg[i] == 0 and i != 0:
                problems.append(f"node {labels[i]} is a second source (no incoming edge)"
                                if i != dest else f"destination node {labels[i]} has no incoming edge")
            if outdeg[i] == 0 and i != dest:
                problems.append(f"node {labels[i]} is a second sink (no outgoing edge)"
                                if i != 0 else f"source node {labels[i]} has no outgoing edge")
        if indeg[0] > 0:
            problems.append(f"source node {labels[0]} has an incoming edge")
        if outdeg[dest] > 0:
            problems.append(f"destination node {labels[dest]} has an outgoing edge")

        cycle = _find_cycle(net)
        if cycle is not None:
            names = " -> ".join(net.edges[j].id for j in cycle)
            problems.append(f"directed cycle found: {names}")

        reach_fwd = _reachable(net, 0, forward=True)
        reach_bwd = _reachable(net, dest, forward=False)
        if not reach_fwd[dest]:
            problems.append("destination is unreachable from the source")
        for e in net.edges:
            if not (reach_fwd[e.tail] and reach_bwd[e.head]):
                problems.append(f"edge {e.id} lies on no source-destination path")

    return ValidationReport(ok=not problems, problems=tuple(problems))


def incidence(net: Network) -> IncidenceData:
    """Build the reduced incidence matrix and injection vector.

    Raises :class:`InvalidNetworkError` (carrying the full validation
    report) for structurally broken networks and
    :class:`NumericalDegeneracyError` in the should-be-impossible case of
    a rank-deficient reduced incidence matrix.
    """
    report = validate_network(net)
    if not report.ok:
        raise InvalidNetworkError(report.problems)

    n, m = net.num_nodes, net.num_edges
    matrix = np.zeros((n - 1, m))
    for j, e in enumerate(net.edges):
        if e.tail < n - 1:
            matrix[e.tail, j] += 1.0
        if e.head < n - 1:
            matrix[e.head, j] -= 1.0
    injections = np.zeros(n - 1)
    injections[0] = net.demand

    if np.linalg.matrix_rank(matrix) < n - 1:
        raise NumericalDegeneracyError("reduced incidence matrix is rank deficient")
    matrix.setflags(write=False)
    injections.setflags(write=False)
    return IncidenceData(matrix=matrix, injections=injections)


def is_feasible_flow(inc: IncidenceData, flow: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether ``flow`` is nonnegative and balances the nodal injections.

    The balance test is relative to the injection scale; nonnegativity
    allows the same absolute slack below zero.
    """
    flow = np.asarray(flow, dtype=float)
    if flow.shape != (inc.matrix.shape[1],):
        raise ValueError(f"flow must have length {inc.matrix.shape[1]}, got {flow.shape}")
    scale = max(1.0, float(np.abs(inc.injections).max(initial=0.0)))
    balanced = float(np.abs(inc.matrix @ flow - inc.injections).max(initial=0.0)) <= tol * scale
    return bool(balanced and float(flow.min(initial=0.0)) >= -tol * scale)


def _endpoints(inc: IncidenceData) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head node of every edge; the destination is node ``k``, the dropped row."""
    matrix = inc.matrix
    heads = np.where((matrix < -0.5).any(axis=0), np.argmax(matrix < -0.5, axis=0), matrix.shape[0])
    return np.argmax(matrix > 0.5, axis=0), heads


def _max_min_flow(inc: IncidenceData) -> np.ndarray:
    """The feasible flow whose smallest edge flow is largest.

    Scaling turns ``max t`` over feasible flows with ``f >= t`` into the
    minimum flow with a lower bound of 1 on every edge (Ahuja, Magnanti &
    Orlin, *Network Flows*, 1993, ch. 6): if ``g`` is such a flow of
    least value ``v``, then ``(demand / v) g`` is the max-min flow and
    ``demand / v`` its smallest entry.  ``g`` starts as one unit along a
    source-edge-destination path for every edge and is cancelled back by
    breadth-first augmenting paths from the destination to the source, on
    which edge ``e`` can give back ``g_e - 1`` units and take any number
    more.  Every step is integral, so ``g`` is exact.
    """
    tails, heads = (ends.tolist() for ends in _endpoints(inc))
    k, m = inc.matrix.shape
    leaving: list[list[int]] = [[] for _ in range(k + 1)]
    entering: list[list[int]] = [[] for _ in range(k + 1)]
    for e in range(m):
        leaving[tails[e]].append(e)
        entering[heads[e]].append(e)

    def search(root: int, along: bool, against) -> dict[int, int]:
        # Breadth-first tree: each reached node maps to the edge that
        # reached it, moving tail to head along every edge if ``along``
        # and head to tail against the edges where ``against(e)``.
        via = {root: -1}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            steps = [(e, heads[e]) for e in leaving[x]] if along else []
            steps += [(e, tails[e]) for e in entering[x] if against(e)]
            for e, y in steps:
                if y not in via:
                    via[y] = e
                    queue.append(y)
        return via

    source, dest = 0, k
    into = search(source, True, lambda e: False)
    out = search(dest, False, lambda e: True)
    g = [1] * m
    for e in range(m):
        u, v = tails[e], heads[e]
        while u != source:
            g[into[u]] += 1
            u = tails[into[u]]
        while v != dest:
            g[out[v]] += 1
            v = heads[out[v]]
    while True:
        via = search(dest, True, lambda e: g[e] > 1)
        if source not in via:
            break
        path = []
        x = source
        while x != dest:
            e = via[x]
            along = heads[e] == x
            path.append((e, along))
            x = tails[e] if along else heads[e]
        # The first step out of the destination cancels, so this is finite.
        give = min(g[e] - 1 for e, along in path if not along)
        for e, along in path:
            g[e] += give if along else -give
    value = sum(g[e] for e in leaving[source])
    return (float(inc.injections[0]) / value) * np.array(g, dtype=float)


def _require(condition: bool, where: str, message: str) -> None:
    """Raise a schema error naming its file (``where``, e.g. "network file x.json")."""
    if not condition:
        raise FileFormatError(f"{where}: {message}")


def _number(value: object) -> bool:
    """Whether a decoded JSON value is a finite float or an int in float range, not a bool."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


def _read_json(path: str, what: str) -> object:
    """Decode a JSON file; unreadable files, bad JSON and NaN/Infinity raise FileFormatError."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_reject_constant)
    except OSError as err:
        # The OS error's own text repeats the path; its strerror does not.
        raise FileFormatError(f"cannot read {what} file {path}: {err.strerror}") from err
    except ValueError as err:
        raise FileFormatError(f"{what} file {path} is not valid JSON: {err}") from err


def load_network(path: str) -> tuple[Network, np.ndarray]:
    """Load a network JSON file; returns the network and per-edge slopes.

    Expected shape::

        {"nodes": ["s", "a", "d"],
         "edges": [{"id": "e1", "from": "s", "to": "a", "beta": 1.5}, ...],
         "source": "s", "destination": "d", "demand": 100.0}

    The loader reorders nodes so the source lands at index 0 and the
    destination last; edge order (and therefore vector layout) follows
    the file.  Schema problems raise :class:`FileFormatError` naming the
    file; structural problems (cycles, extra sources, bad demand) survive
    loading so that validation can report them all.
    """
    raw = _read_json(path, "network")
    where = f"network file {path}"
    _require(isinstance(raw, dict), where, "must hold a JSON object")
    for key in ("nodes", "edges", "source", "destination", "demand"):
        _require(key in raw, where, f"missing the '{key}' field")
    nodes = raw["nodes"]
    _require(isinstance(nodes, list) and all(isinstance(v, str) for v in nodes), where,
             "'nodes' must be a list of string ids")
    _require(len(set(nodes)) == len(nodes), where, "node ids must be unique")
    source, destination = raw["source"], raw["destination"]
    _require(source in nodes and destination in nodes, where,
             "source and destination must appear in 'nodes'")
    _require(source != destination, where, "source and destination must be distinct nodes")
    _require(_number(raw["demand"]), where, "'demand' must be a finite number")

    ordered = [source] + [v for v in nodes if v not in (source, destination)] + [destination]
    index = {v: i for i, v in enumerate(ordered)}

    _require(isinstance(raw["edges"], list), where, "'edges' must be a list")
    edges: list[Edge] = []
    betas: list[float] = []
    seen_ids: set[str] = set()
    for item in raw["edges"]:
        _require(isinstance(item, dict), where, "each edge must be a JSON object")
        for key in ("id", "from", "to", "beta"):
            _require(key in item, where, f"edge entry is missing '{key}'")
        _require(isinstance(item["id"], str), where, "edge 'id' must be a string")
        _require(item["id"] not in seen_ids, where, f"duplicate edge id '{item['id']}'")
        seen_ids.add(item["id"])
        for endpoint in (item["from"], item["to"]):
            _require(endpoint in index, where,
                     f"edge {item['id']} references an unknown node '{endpoint}'")
        _require(_number(item["beta"]), where, f"edge {item['id']} needs a finite numeric 'beta'")
        edges.append(Edge(id=item["id"], tail=index[item["from"]], head=index[item["to"]]))
        betas.append(float(item["beta"]))

    net = Network(num_nodes=len(ordered), edges=tuple(edges), demand=float(raw["demand"]),
                  node_ids=tuple(ordered))
    return net, np.array(betas)
