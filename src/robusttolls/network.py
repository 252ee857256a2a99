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
largest, the design's robustness ceiling.  Validation and the max-min
flow share one edge-list form and one breadth-first search; a cycle
witness comes from the standard library's topological sort
(``graphlib``).  The module owns the incidence algebra: ``R' x``,
``R v`` and the weighted Laplacian ``R diag(w) R'`` act on the stored
edge ends (:func:`_drop`, :func:`_net_outflow`, :func:`_laplacian`).
Nothing here lists paths: everything downstream works on the incidence,
so the number of source-destination paths, exponential in general,
never enters.
"""

from __future__ import annotations

import graphlib
import json
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import FileFormatError, InvalidNetworkError

_EPS = float(np.finfo(float).eps)


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
    """Reduced incidence matrix, nodal injections and edge ends of a valid network.

    ``matrix`` has one row per node except the destination (row index
    equals node index) and one column per edge: +1 where the edge leaves
    the node, -1 where it enters.  ``injections`` puts the demand on the
    source row and zero elsewhere.  ``tails`` and ``heads`` are each
    edge's end nodes as integer indices, the destination being node ``k``.
    Arrays are write-locked; treat them as shared immutable state.

    The max-min flow, the orthonormal null basis of ``matrix`` and the
    Laplacian's scatter positions are the per-network work every solve on
    the network shares; each is computed on first use and kept,
    write-locked, on the object.
    """

    matrix: np.ndarray
    injections: np.ndarray
    tails: np.ndarray
    heads: np.ndarray

    @cached_property
    def max_min_flow(self) -> np.ndarray:
        """The feasible flow whose smallest edge flow is largest (:func:`_max_min_flow`)."""
        return _locked(_max_min_flow(self))

    @cached_property
    def null_basis(self) -> np.ndarray:
        """An orthonormal basis, as columns, of the null space of ``matrix``."""
        return _locked(_null_basis(self.matrix))

    @cached_property
    def _laplacian_index(self) -> np.ndarray:
        """Each edge's four positions in the flattened node Laplacian (:func:`_laplacian`)."""
        n, tails, heads = self.injections.shape[0] + 1, self.tails, self.heads
        return _locked(np.concatenate([tails * (n + 1), heads * (n + 1), tails * n + heads,
                                       heads * n + tails]))


def _locked(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _frozen(value) -> np.ndarray:
    """A write-locked, C-contiguous float copy of ``value``; the caller's array stays writable."""
    return _locked(np.array(value, dtype=float, order="C"))


def _vector(value, length: int, name: str) -> np.ndarray:
    """``value`` as a float array, which must be a vector of ``length`` entries."""
    value = np.asarray(value, dtype=float)
    if value.shape != (length,):
        raise ValueError(f"{name} must have length {length}, got {value.shape}")
    return value


def _adjacency(count: int, tails: list[int], heads: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """The edges leaving and the edges entering each of ``count`` nodes, in edge order."""
    leaving: list[list[int]] = [[] for _ in range(count)]
    entering: list[list[int]] = [[] for _ in range(count)]
    for e, (tail, head) in enumerate(zip(tails, heads)):
        leaving[tail].append(e)
        entering[head].append(e)
    return leaving, entering


def _breadth_first(tails: list[int], heads: list[int], leaving: list[list[int]],
                   entering: list[list[int]]):
    """The breadth-first search over one edge list, with the lists bound once."""

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

    return search


def _find_cycle(tails: list[int], heads: list[int]) -> list[int] | None:
    """Edge indices of one directed cycle, in the order it runs, or None if acyclic.

    ``graphlib`` reports a cycle as nodes, each the tail of an edge to the
    next, the first repeated last (a self-loop is ``[n, n]``).
    """
    sorter = graphlib.TopologicalSorter()
    for tail, head in zip(tails, heads):
        sorter.add(head, tail)
    try:
        sorter.prepare()
    except graphlib.CycleError as err:
        edge = {pair: e for e, pair in enumerate(zip(tails, heads))}
        nodes = err.args[1]
        return [edge[pair] for pair in zip(nodes, nodes[1:])]
    return None


def validate_network(net: Network) -> ValidationReport:
    """Check the structural rules and report every violation.

    The rules: at least two nodes, finite positive demand, node 0 the unique
    source (it has no incoming edge and every other node has one), the last
    node the unique sink (it has no outgoing edge and every other node has
    one), no directed cycle (a witness cycle is spelled out by edge ids),
    and every edge on some source-to-destination path.
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
        tails, heads = [e.tail for e in net.edges], [e.head for e in net.edges]
        leaving, entering = _adjacency(n, tails, heads)
        dest = n - 1
        for i in range(n):
            if not entering[i] and i != 0:
                problems.append(f"node {labels[i]} is a second source (no incoming edge)"
                                if i != dest else f"destination node {labels[i]} has no incoming edge")
            if not leaving[i] and i != dest:
                problems.append(f"node {labels[i]} is a second sink (no outgoing edge)"
                                if i != 0 else f"source node {labels[i]} has no outgoing edge")
        if entering[0]:
            problems.append(f"source node {labels[0]} has an incoming edge")
        if leaving[dest]:
            problems.append(f"destination node {labels[dest]} has an outgoing edge")

        cycle = _find_cycle(tails, heads)
        if cycle is not None:
            names = " -> ".join(net.edges[j].id for j in cycle)
            problems.append(f"directed cycle found: {names}")

        search = _breadth_first(tails, heads, leaving, entering)
        reach_fwd = search(0, True, lambda e: False)
        reach_bwd = search(dest, False, lambda e: True)
        if dest not in reach_fwd:
            problems.append("destination is unreachable from the source")
        for e in net.edges:
            if not (e.tail in reach_fwd and e.head in reach_bwd):
                problems.append(f"edge {e.id} lies on no source-destination path")

    return ValidationReport(ok=not problems, problems=tuple(problems))


def incidence(net: Network) -> IncidenceData:
    """Build the reduced incidence matrix and injection vector.

    Raises :class:`InvalidNetworkError` (carrying the full validation
    report) for structurally broken networks.  A valid network's reduced
    matrix has full row rank: every node but the destination has an
    out-edge and the graph is acyclic, so following out-edges from any
    node ends at the destination, and one out-edge per node forms a
    spanning tree into it.  The edge ends the matrix is filled from are kept.
    """
    report = validate_network(net)
    if not report.ok:
        raise InvalidNetworkError(report.problems)

    k, m = net.num_nodes - 1, net.num_edges
    tails = np.array([e.tail for e in net.edges], dtype=np.intp)
    heads = np.array([e.head for e in net.edges], dtype=np.intp)
    # The destination, node k, has no row; validation leaves it no out-edge.
    cols, inner = np.arange(m), heads < k
    matrix = np.zeros((k, m))
    matrix[tails, cols] = 1.0
    matrix[heads[inner], cols[inner]] = -1.0
    injections = np.zeros(k)
    injections[0] = net.demand
    return IncidenceData(matrix=_locked(matrix), injections=_locked(injections),
                         tails=_locked(tails), heads=_locked(heads))


def _null_basis(balance: np.ndarray) -> np.ndarray:
    """An orthonormal basis, as columns, of the null space of ``balance``.

    ``balance`` must have full row rank; the basis is the trailing
    columns of the complete QR factor of ``balance'``.
    """
    return np.linalg.qr(balance.T, mode="complete")[0][:, balance.shape[0]:]


def _drop(inc: IncidenceData, x: np.ndarray) -> np.ndarray:
    """``R' x``, the drop of ``x`` along each edge, gathered with the destination at 0."""
    full = np.zeros(x.shape[0] + 1)
    full[:-1] = x
    return full[inc.tails] - full[inc.heads]


def _net_outflow(inc: IncidenceData, v: np.ndarray) -> np.ndarray:
    """``R v``, each non-destination node's outflow less its inflow, by scatters."""
    n = inc.injections.shape[0] + 1
    return (np.bincount(inc.tails, v, n) - np.bincount(inc.heads, v, n))[:-1]


def _laplacian(inc: IncidenceData, weights: np.ndarray) -> np.ndarray:
    """The weighted Laplacian ``R diag(weights) R'`` (k x k), by one scatter.

    Each edge adds its weight at (tail, tail) and (head, head) of the full
    node Laplacian and subtracts it at (tail, head) and (head, tail), at
    positions computed once per network; the destination's row and column
    are dropped (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 11).
    """
    n, negated = inc.injections.shape[0] + 1, -weights
    signed = np.concatenate([weights, weights, negated, negated])
    return np.bincount(inc._laplacian_index, signed, n * n).reshape(n, n)[:-1, :-1]


def is_feasible_flow(inc: IncidenceData, flow: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether ``flow`` is nonnegative and balances the nodal injections.

    Both tests are relative to the demand, however small: the balance
    residual and the most negative flow may each reach ``tol`` times it.
    """
    flow = _vector(flow, inc.tails.shape[0], "flow")
    scale = float(np.abs(inc.injections).max(initial=0.0))
    residual = float(np.abs(_net_outflow(inc, flow) - inc.injections).max(initial=0.0))
    balanced = residual <= tol * scale
    return bool(balanced and float(flow.min(initial=0.0)) >= -tol * scale)


def _reduced_costs(inc: IncidenceData, cost: np.ndarray) -> np.ndarray:
    """The reduced costs ``cost + R' pi`` under the least potentials keeping them nonnegative.

    Those are the longest paths to the destination (node ``k``, at 0) with
    edge weights ``-cost``; acyclic, validated networks need at most one
    relaxation sweep per node from ``-inf``.  The out-edge that set a
    node's potential, and any edge below round-off (``m`` machine
    epsilons of ``max|pi| + max|cost|``), reduces to exactly ``0.0``.
    """
    k, m = inc.matrix.shape
    pi = np.append(np.full(k, -np.inf), 0.0)
    for _ in range(k + 1):
        relaxed = pi.copy()
        np.maximum.at(relaxed, inc.tails, pi[inc.heads] - cost)
        if np.array_equal(relaxed, pi):
            break
        pi = relaxed
    reduced = pi[inc.tails] - (pi[inc.heads] - cost)
    roundoff = m * _EPS * (float(np.abs(pi).max()) + float(np.abs(cost).max(initial=0.0)))
    return np.where(reduced < roundoff, 0.0, reduced)


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
    more, on the edge ends ``inc`` stores.  Every step is integral, so
    ``g`` is exact.
    """
    tails, heads = inc.tails.tolist(), inc.heads.tolist()
    k, m = inc.matrix.shape
    leaving, entering = _adjacency(k + 1, tails, heads)
    search = _breadth_first(tails, heads, leaving, entering)

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
