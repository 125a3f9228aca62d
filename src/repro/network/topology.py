"""Network topologies for multi-router MMR studies (paper §6 outlook).

The paper's evaluation uses a single router; its conclusions call for the
study to "be further extended to a network composed of several MMRs".
This module provides the topologies that extension runs on: regular
meshes/rings and arbitrary graphs (backed by networkx when richer
analysis is wanted), plus deterministic shortest-path routing tables —
the MMR uses source-routed pipelined circuit switching, so per-connection
paths are computed once at setup.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

__all__ = [
    "Topology",
    "mesh",
    "ring",
    "torus",
    "fat_tree",
    "fat_tree_edge_routers",
    "from_edges",
]


@dataclass(frozen=True)
class Topology:
    """A directed router-to-router connectivity graph.

    Nodes are router ids ``0..num_routers-1``.  Each directed edge is one
    physical link; ``port_map[(u, v)]`` gives the output port of ``u``
    that reaches ``v`` (and the input port of ``v`` it lands on — the MMR
    testbed wires link ``k`` of a router to link ``k`` of its peer, so
    the indices match by construction).
    """

    num_routers: int
    edges: tuple[tuple[int, int], ...]
    port_map: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        out: list[list[int]] = [[] for _ in range(self.num_routers)]
        for u, v in self.edges:
            if not (0 <= u < self.num_routers and 0 <= v < self.num_routers):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError("self-loop links are not allowed")
            out[u].append(v)
        # Adjacency precomputed once: degree() runs per router per cycle.
        # A plain attribute, not a dataclass field, so equality, hashing
        # and serialisation still see only the three fields above.
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(n)) for n in out))

    def graph(self) -> nx.DiGraph:
        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_routers))
        g.add_edges_from(self.edges)
        return g

    def neighbors(self, router: int) -> list[int]:
        return list(self._neighbors[router])

    def degree(self, router: int) -> int:
        """Number of inter-router links leaving a router."""
        return len(self._neighbors[router])

    def max_degree(self) -> int:
        return max(map(len, self._neighbors), default=0)

    def shortest_path(
        self,
        src: int,
        dst: int,
        avoid_routers: set[int] | frozenset[int] | tuple[int, ...] = (),
        avoid_links: set[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
    ) -> list[int]:
        """Deterministic shortest router path (lowest-id tie-break).

        ``avoid_routers`` / ``avoid_links`` exclude failed elements from
        the search (fault recovery: reroute around a dead router or a
        dead directed link).  Raises ``ValueError`` when no path survives
        the exclusions.
        """
        avoid = set(avoid_routers)
        if src in avoid or dst in avoid:
            raise ValueError(
                f"no path from router {src} to {dst}: endpoint is down"
            )
        if src == dst:
            return [src]
        g = self.graph()
        g.remove_nodes_from(avoid & set(g.nodes))
        for u, v in avoid_links:
            if g.has_edge(u, v):
                g.remove_edge(u, v)
        try:
            # networkx BFS follows adjacency insertion order; re-sorting
            # neighbours makes the choice deterministic and id-ordered.
            paths = nx.all_shortest_paths(g, src, dst)
            return min(paths)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            raise ValueError(f"no path from router {src} to {dst}") from None

    def port_toward(self, u: int, v: int) -> int:
        """Output port of ``u`` on the direct link to ``v``."""
        try:
            return self.port_map[(u, v)]
        except KeyError:
            raise ValueError(f"no direct link {u} -> {v}") from None


def _bidirectional(pairs: list[tuple[int, int]], num_routers: int) -> Topology:
    """Assign port indices per router in edge-insertion order."""
    port_map: dict[tuple[int, int], int] = {}
    next_port = [0] * num_routers
    edges: list[tuple[int, int]] = []
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            edges.append((a, b))
            port_map[(a, b)] = next_port[a]
            next_port[a] += 1
    return Topology(num_routers, tuple(edges), port_map)


def mesh(rows: int, cols: int) -> Topology:
    """2-D mesh with bidirectional links."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    pairs = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                pairs.append((node, node + 1))
            if r + 1 < rows:
                pairs.append((node, node + cols))
    return _bidirectional(pairs, rows * cols)


def ring(n: int) -> Topology:
    """Bidirectional ring of n routers."""
    if n < 2:
        raise ValueError("a ring needs at least 2 routers")
    pairs = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    return _bidirectional(pairs, n)


def torus(rows: int, cols: int) -> Topology:
    """2-D torus: a mesh with wrap-around links on every row and column.

    Wrap links are only added along a dimension of size > 2 — with two
    routers per row (or column) the wrap edge would duplicate the mesh
    edge and corrupt the per-router port assignment.  ``torus(1, n)``
    therefore degenerates to ``ring(n)`` and ``torus(2, 2)`` to
    ``mesh(2, 2)``, matching the usual k-ary n-cube definition.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    pairs = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                pairs.append((node, node + 1))
            if r + 1 < rows:
                pairs.append((node, node + cols))
    if cols > 2:
        for r in range(rows):
            pairs.append((r * cols + cols - 1, r * cols))
    if rows > 2:
        for c in range(cols):
            pairs.append(((rows - 1) * cols + c, c))
    return _bidirectional(pairs, rows * cols)


def fat_tree(k: int) -> Topology:
    """Three-stage k-ary fat-tree (k even): (k/2)^2 cores, k pods.

    Router numbering is deterministic: cores first (``0 .. (k/2)^2-1``),
    then per pod ``p`` the ``k/2`` aggregation routers followed by the
    ``k/2`` edge routers.  Aggregation router ``i`` of every pod uplinks
    to core group ``i`` (cores ``i*k/2 .. i*k/2 + k/2 - 1``); every edge
    router connects to all aggregation routers of its pod.  Hosts attach
    to the edge routers (see :func:`fat_tree_edge_routers`).
    """
    if k < 2 or k % 2:
        raise ValueError("fat-tree arity k must be an even integer >= 2")
    half = k // 2
    num_cores = half * half
    pairs = []
    for pod in range(k):
        base = num_cores + pod * k
        for agg in range(half):
            for core in range(half):
                pairs.append((agg * half + core, base + agg))
        for edge in range(half):
            for agg in range(half):
                pairs.append((base + agg, base + half + edge))
    return _bidirectional(pairs, num_cores + k * k)


def fat_tree_edge_routers(k: int) -> tuple[int, ...]:
    """Router ids of the edge (host-facing) stage of ``fat_tree(k)``."""
    if k < 2 or k % 2:
        raise ValueError("fat-tree arity k must be an even integer >= 2")
    half = k // 2
    num_cores = half * half
    return tuple(
        num_cores + pod * k + half + edge
        for pod in range(k)
        for edge in range(half)
    )


def from_edges(num_routers: int, pairs: list[tuple[int, int]]) -> Topology:
    """Arbitrary topology from undirected router pairs."""
    return _bidirectional(pairs, num_routers)
