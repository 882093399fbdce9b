"""Graph representation, file ingestion, and bucketed index matrices.

Graphs are undirected with categorical node and edge types. The virtual
node, when attached, sits at index 0, is implicitly connected to every
other node through reserved buckets, and never participates in shortest
paths. Pairwise structure is reduced to two integer index matrices:

* topology buckets: 0..L exact shortest-path distance, then FAR (> L),
  UNREACHABLE, and VN, in that order;
* edge buckets: 0..E-1 edge type, then NO_EDGE, SELF, and VN.

These matrices are the only structural inputs the attention layers see.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import GraphParseError

UNREACHABLE = -1  # DistanceMatrix sentinel for pairs in different components


# Bucket layout helpers. Topology tables have L + 4 rows, edge tables E + 3.

def topo_bucket_count(max_distance: int) -> int:
    return max_distance + 4


def topo_far(max_distance: int) -> int:
    return max_distance + 1


def topo_unreachable(max_distance: int) -> int:
    return max_distance + 2


def topo_vn(max_distance: int) -> int:
    return max_distance + 3


def edge_bucket_count(num_edge_types: int) -> int:
    return num_edge_types + 3


def edge_no_edge(num_edge_types: int) -> int:
    return num_edge_types


def edge_self(num_edge_types: int) -> int:
    return num_edge_types + 1


def edge_vn(num_edge_types: int) -> int:
    return num_edge_types + 2


@dataclass(frozen=True)
class Graph:
    """Typed nodes plus typed undirected edges.

    ``edges`` holds only real edges as ``(i, j, type)`` with ``i < j``;
    virtual-node connectivity is implied by ``has_virtual_node`` and uses
    reserved buckets, so it never appears in the edge list. When the
    virtual node is present its ``node_types`` entry is a placeholder 0
    (the embedding layer substitutes the reserved row).
    """

    node_types: tuple
    edges: tuple
    num_edge_types: int
    has_virtual_node: bool = False

    def __post_init__(self):
        object.__setattr__(self, "node_types", tuple(int(t) for t in self.node_types))
        n = len(self.node_types)
        if n == 0:
            raise ValueError("graph must have at least one node")
        if any(t < 0 for t in self.node_types):
            raise ValueError("node types must be non-negative")
        norm = []
        seen = set()
        for e in self.edges:
            i, j, t = (int(v) for v in e)
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge endpoint out of range: ({i}, {j}) with {n} nodes")
            if not (0 <= t < self.num_edge_types):
                raise ValueError(f"edge type {t} outside [0, {self.num_edge_types})")
            if self.has_virtual_node and (i == 0 or j == 0):
                raise ValueError("explicit edges to the virtual node are not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge between {key[0]} and {key[1]}")
            seen.add(key)
            norm.append((key[0], key[1], t))
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def num_nodes(self) -> int:
        return len(self.node_types)

    @property
    def num_real_nodes(self) -> int:
        return len(self.node_types) - (1 if self.has_virtual_node else 0)

    def real_indices(self):
        return range(1, self.num_nodes) if self.has_virtual_node else range(self.num_nodes)

    def neighbors(self):
        """Adjacency lists over real edges only (VN has none)."""
        adj = [[] for _ in range(self.num_nodes)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def degrees(self):
        """Real-edge degree per node; the virtual node counts as 0."""
        deg = [0] * self.num_nodes
        for i, j, _ in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg


@dataclass
class GraphSample:
    """A graph paired with exactly one of: scalar target, per-node labels."""

    graph: Graph
    target: float | None = None
    node_labels: list | None = None

    def __post_init__(self):
        if (self.target is None) == (self.node_labels is None):
            raise ValueError("sample needs exactly one of target / node_labels")
        if self.node_labels is not None:
            self.node_labels = [int(v) for v in self.node_labels]
            if len(self.node_labels) != self.graph.num_real_nodes:
                raise ValueError("node_labels length must equal the number of real nodes")
            if any(v < 0 for v in self.node_labels):
                raise ValueError("node labels must be non-negative")
        if self.target is not None:
            self.target = float(self.target)

    @property
    def is_node_task(self) -> bool:
        return self.node_labels is not None


# ---------------------------------------------------------------------------
# file format: one JSON object per line
# ---------------------------------------------------------------------------

def _record_to_sample(rec, lineno: int) -> GraphSample:
    if not isinstance(rec, dict):
        raise GraphParseError(f"line {lineno}: record must be an object")
    allowed = {"nodes", "edges", "target", "node_labels"}
    extra = set(rec) - allowed
    if extra:
        raise GraphParseError(f"line {lineno}: unknown fields {sorted(extra)}")
    for key in ("nodes", "edges"):
        if key not in rec:
            raise GraphParseError(f"line {lineno}: missing field '{key}'")
    nodes = rec["nodes"]
    if (not isinstance(nodes, list) or not nodes
            or any(not isinstance(v, int) or v < 0 for v in nodes)):
        raise GraphParseError(f"line {lineno}: 'nodes' must be a non-empty list of non-negative ints")
    edges = rec["edges"]
    if not isinstance(edges, list):
        raise GraphParseError(f"line {lineno}: 'edges' must be a list")
    for e in edges:
        if (not isinstance(e, list) or len(e) != 3
                or any(not isinstance(v, int) for v in e)):
            raise GraphParseError(f"line {lineno}: each edge must be [i, j, type] ints")
    has_target = "target" in rec
    has_labels = "node_labels" in rec
    if has_target == has_labels:
        raise GraphParseError(f"line {lineno}: need exactly one of 'target' / 'node_labels'")
    if has_target and not isinstance(rec["target"], (int, float)):
        raise GraphParseError(f"line {lineno}: 'target' must be a number")
    if has_labels and (not isinstance(rec["node_labels"], list)
                       or any(not isinstance(v, int) for v in rec["node_labels"])):
        raise GraphParseError(f"line {lineno}: 'node_labels' must be a list of ints")

    local_max = max((e[2] for e in edges), default=-1)
    try:
        graph = Graph(node_types=nodes, edges=[tuple(e) for e in edges],
                      num_edge_types=local_max + 1)
        return GraphSample(graph=graph,
                           target=rec.get("target"),
                           node_labels=rec.get("node_labels"))
    except ValueError as exc:
        raise GraphParseError(f"line {lineno}: {exc}") from None


def parse_graphs(path) -> list:
    """Read a graph file; malformed lines are rejected with their line number.

    All returned graphs share one ``num_edge_types``, the file-wide maximum
    edge type plus one (0 for an edgeless file).
    """
    samples = []
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise GraphParseError(f"line {lineno}: invalid JSON ({exc.msg})") from None
                samples.append(_record_to_sample(rec, lineno))
        except UnicodeDecodeError as exc:
            raise GraphParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    file_e = max((s.graph.num_edge_types for s in samples), default=0)
    return [restamp_edge_types(s, file_e) for s in samples]


def restamp_edge_types(sample: GraphSample, num_edge_types: int) -> GraphSample:
    """The sample with its graph in another edge-type universe; the sample
    itself when the universe is already that one."""
    g = sample.graph
    if num_edge_types == g.num_edge_types:
        return sample
    if num_edge_types < g.num_edge_types and any(t >= num_edge_types for _, _, t in g.edges):
        raise ValueError(f"edge type outside [0, {num_edge_types})")
    return GraphSample(graph=_checked_graph(g.node_types, g.edges, num_edge_types,
                                            g.has_virtual_node),
                       target=sample.target,
                       node_labels=list(sample.node_labels) if sample.node_labels else None)


def _checked_graph(node_types: tuple, edges: tuple, num_edge_types: int,
                   has_virtual_node: bool) -> Graph:
    """A Graph from fields already in the normalized form that
    ``Graph.__post_init__`` checks and produces; skips its per-edge checks."""
    g = object.__new__(Graph)
    for name, value in (("node_types", node_types), ("edges", edges),
                        ("num_edge_types", num_edge_types),
                        ("has_virtual_node", has_virtual_node)):
        object.__setattr__(g, name, value)
    return g


def sample_to_record(sample: GraphSample) -> str:
    """Canonical single-line serialization (edges sorted by endpoints)."""
    g = sample.graph
    if g.has_virtual_node:
        raise ValueError("serialize graphs before attaching the virtual node")
    rec = {
        "nodes": list(g.node_types),
        "edges": [[i, j, t] for i, j, t in sorted(g.edges)],
    }
    if sample.target is not None:
        rec["target"] = sample.target
    else:
        rec["node_labels"] = list(sample.node_labels)
    return json.dumps(rec, separators=(",", ":"))


def write_graphs(samples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(sample_to_record(s) + "\n")


# ---------------------------------------------------------------------------
# virtual node
# ---------------------------------------------------------------------------

def attach_virtual_node(g: Graph) -> Graph:
    """Insert the virtual node at index 0, shifting original indices by +1.

    The new node connects to every other node through the reserved VN
    buckets only; shortest-path structure among the original nodes is
    untouched because the VN is excluded from traversal.
    """
    if g.has_virtual_node:
        raise ValueError("virtual node already attached")
    # Shifting both ends of valid edges keeps them valid and off node 0.
    return _checked_graph((0,) + g.node_types,
                          tuple((i + 1, j + 1, t) for i, j, t in g.edges),
                          g.num_edge_types, True)


# ---------------------------------------------------------------------------
# all-pairs shortest paths: exact BFS per source (the reference) and the
# distance pass bounded by L that ``Model.prepare`` runs
# ---------------------------------------------------------------------------

def bfs_all_pairs(g: Graph) -> np.ndarray:
    """Exact unweighted shortest-path distances over real nodes.

    Returns an N x N int matrix with UNREACHABLE across components. The
    virtual node (if present) is skipped: its off-diagonal entries stay
    UNREACHABLE and are overridden by the VN bucket downstream.
    """
    n = g.num_nodes
    d = np.full((n, n), UNREACHABLE, dtype=np.int64)
    np.fill_diagonal(d, 0)
    adj = g.neighbors()
    for src in g.real_indices():
        row = d[src]
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = row[u]
            for w in adj[u]:
                if row[w] == UNREACHABLE:
                    row[w] = du + 1
                    queue.append(w)
    return d


def bounded_distances(g: Graph, max_distance: int) -> np.ndarray:
    """Shortest-path distances clipped at ``max_distance + 1``, the FAR bucket.

    Equals ``bfs_all_pairs(g)`` with every reachable distance above
    ``max_distance`` replaced by ``max_distance + 1``, which is all that
    ``topology_indices`` reads. All sources advance together: step k is one
    matrix product of the frontier with the adjacency, so at most
    ``max_distance`` products run. Pairs still unreached after them are FAR
    within a connected component and UNREACHABLE across components.
    """
    n = g.num_nodes
    # float32 products count paths exactly (at most n per entry) and run at
    # BLAS speed, which boolean matmul does not.
    adj = np.zeros((n, n), dtype=np.float32)
    for i, j, _ in g.edges:
        adj[i, j] = adj[j, i] = 1.0
    d = np.full((n, n), max_distance + 1, dtype=np.int64)
    np.fill_diagonal(d, 0)
    reached = np.eye(n, dtype=bool)
    frontier = reached
    for step in range(1, max_distance + 1):
        frontier = (frontier.astype(np.float32) @ adj > 0) & ~reached
        if not frontier.any():
            d[~reached] = UNREACHABLE  # every component is fully explored
            return d
        d[frontier] = step
        reached |= frontier
    comp = _component_labels(g)
    d[comp[:, None] != comp[None, :]] = UNREACHABLE
    return d


def _component_labels(g: Graph) -> np.ndarray:
    """Smallest node index of each node's connected component (union-find)."""
    parent = list(range(g.num_nodes))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in g.edges:
        ri, rj = root(i), root(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return np.array([root(a) for a in range(g.num_nodes)], dtype=np.int64)


# ---------------------------------------------------------------------------
# bucketed index matrices
# ---------------------------------------------------------------------------

def topology_indices(distances, max_distance: int, has_virtual_node: bool = False) -> np.ndarray:
    """Bucket a distance matrix into topology-table row indices."""
    if max_distance < 1:
        raise ValueError("max_distance must be >= 1")
    d = np.asarray(distances, dtype=np.int64)
    t = np.empty_like(d)
    reachable = d != UNREACHABLE
    t[reachable] = np.minimum(d[reachable], max_distance + 1)  # FAR = L + 1
    t[~reachable] = topo_unreachable(max_distance)
    if has_virtual_node:
        t[0, :] = topo_vn(max_distance)
        t[:, 0] = topo_vn(max_distance)
        t[0, 0] = 0
    return t


def edge_indices(g: Graph) -> np.ndarray:
    """Bucket pairwise edge relations into edge-table row indices."""
    n = g.num_nodes
    e_cnt = g.num_edge_types
    m = np.full((n, n), edge_no_edge(e_cnt), dtype=np.int64)
    for i, j, t in g.edges:
        m[i, j] = t
        m[j, i] = t
    if g.has_virtual_node:
        m[0, :] = edge_vn(e_cnt)
        m[:, 0] = edge_vn(e_cnt)
    np.fill_diagonal(m, edge_self(e_cnt))
    return m


# ---------------------------------------------------------------------------
# permutation (equivariance testing)
# ---------------------------------------------------------------------------

def permute_graph(g: Graph, perm) -> Graph:
    """Relabel nodes so old index i becomes ``perm[i]``.

    ``perm`` must be a bijection on all node indices, fixing index 0 when
    the virtual node is present.
    """
    p = [int(v) for v in perm]
    if sorted(p) != list(range(g.num_nodes)):
        raise ValueError("perm is not a bijection over node indices")
    if g.has_virtual_node and p[0] != 0:
        raise ValueError("perm must fix the virtual node at index 0")
    new_types = [0] * g.num_nodes
    for old, new in enumerate(p):
        new_types[new] = g.node_types[old]
    new_edges = [(p[i], p[j], t) for i, j, t in g.edges]
    return Graph(node_types=new_types, edges=new_edges,
                 num_edge_types=g.num_edge_types,
                 has_virtual_node=g.has_virtual_node)


def permute_sample(sample: GraphSample, perm) -> GraphSample:
    """Permute a (virtual-node-free) sample, relabeling node labels too."""
    if sample.graph.has_virtual_node:
        raise ValueError("permute samples before attaching the virtual node")
    g = permute_graph(sample.graph, perm)
    labels = None
    if sample.node_labels is not None:
        labels = [0] * len(sample.node_labels)
        for old, new in enumerate(perm):
            labels[new] = sample.node_labels[old]
    return GraphSample(graph=g, target=sample.target, node_labels=labels)
