"""Weighted undirected interaction graphs and random-walk structure metrics.

The communication structure of a group is summarized by three quantities
of the random walk on its interaction graph, where a walker at node i steps
to neighbour j with probability w_ij / s_i (s_i is the strength of i):

* determinism: average certainty of a walker's next step, i.e. how
  specific each member's connections are;
* degeneracy: how concentrated the walk's average target distribution is
  on a few members;
* effective information: determinism minus degeneracy.

All three are measured in bits, computed over the n non-isolated nodes
only, and have a maximum of log2(n), so normalized variants divide by
log2(n). They are computed in O(E) from the edge list, never from an n×n
matrix: the entropy of node i's step is log2 s_i − Σ_j w_ij log2 w_ij / s_i,
and the mean step distribution accumulates w_ij / (n·s_i) per edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

__all__ = [
    "SelfLoopError",
    "WeightedGraph",
    "StructureMetrics",
    "effective_information",
    "write_edge_list",
    "read_edge_list",
]


class SelfLoopError(ValueError):
    """Raised when an interaction between a node and itself is recorded."""


def _edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class WeightedGraph:
    """Undirected graph over opaque node identifiers with integer edge weights.

    Weights count interactions between node pairs and are therefore positive
    integers; an absent pair means weight zero. Self-loops are rejected.
    Construction (``add_interaction`` / ``add_node``) is single-writer; all
    other methods are pure reads and safe to call concurrently.
    """

    __slots__ = ("_nodes", "_edges")

    def __init__(self) -> None:
        self._nodes: set[str] = set()
        self._edges: dict[tuple[str, str], int] = {}

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str, int]],
        nodes: Iterable[str] = (),
    ) -> "WeightedGraph":
        """Build a graph from ``(u, v, weight)`` triples plus extra (isolated) nodes."""
        g = cls()
        for u, v, w in edges:
            if u == v:
                raise SelfLoopError(f"self-loop on node {u!r}")
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"edge weight must be a positive integer, got {w!r}")
            key = _edge_key(u, v)
            g._edges[key] = g._edges.get(key, 0) + w
            g._nodes.add(u)
            g._nodes.add(v)
        for n in nodes:
            g._nodes.add(n)
        return g

    def add_node(self, v: str) -> "WeightedGraph":
        """Ensure ``v`` is present (possibly isolated)."""
        self._nodes.add(v)
        return self

    def add_interaction(self, u: str, v: str) -> "WeightedGraph":
        """Record one interaction between ``u`` and ``v``, incrementing their weight.

        Raises:
            SelfLoopError: if ``u == v``.
        """
        if u == v:
            raise SelfLoopError(f"self-loop on node {u!r}")
        key = _edge_key(u, v)
        self._edges[key] = self._edges.get(key, 0) + 1
        self._nodes.add(u)
        self._nodes.add(v)
        return self

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """Yield ``(u, v, weight)`` with ``u <= v``, in sorted order."""
        for (u, v) in sorted(self._edges):
            yield u, v, self._edges[(u, v)]

    def edge_count(self) -> int:
        return len(self._edges)

    def total_weight(self) -> int:
        """Sum of all edge weights (one unit per recorded interaction)."""
        return sum(self._edges.values())

    def weight(self, u: str, v: str) -> int:
        return self._edges.get(_edge_key(u, v), 0)

    def node_strength(self, v: str) -> int:
        """Sum of weights of edges incident to ``v``; 0 for an isolated node.

        Raises:
            KeyError: if ``v`` is not a node of the graph.
        """
        if v not in self._nodes:
            raise KeyError(f"unknown node {v!r}")
        return sum(w for (a, b), w in self._edges.items() if a == v or b == v)

    def active_nodes(self) -> frozenset[str]:
        """Nodes incident to at least one edge."""
        active: set[str] = set()
        for (u, v) in self._edges:
            active.add(u)
            active.add(v)
        return frozenset(active)

    def average_strength(self) -> float:
        """Mean node strength over non-isolated nodes.

        Raises:
            ValueError: if the graph has no non-isolated node.
        """
        strengths: dict[str, int] = {}
        for (u, v), w in self._edges.items():
            strengths[u] = strengths.get(u, 0) + w
            strengths[v] = strengths.get(v, 0) + w
        if not strengths:
            raise ValueError("graph has no non-isolated node")
        return sum(strengths.values()) / len(strengths)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __repr__(self) -> str:
        return f"WeightedGraph(nodes={len(self._nodes)}, edges={len(self._edges)})"


@dataclass(frozen=True)
class StructureMetrics:
    """Bit-valued and normalized walk-structure metrics of one graph."""

    determinism_bits: float
    degeneracy_bits: float
    effective_information_bits: float
    determinism_norm: float
    degeneracy_norm: float
    effective_information_norm: float
    active_n: int


def effective_information(g: WeightedGraph) -> StructureMetrics:
    """All six structure metrics of ``g`` (bit values and log2(n)-normalized).

    Raises:
        ValueError: if fewer than 2 nodes are non-isolated.
    """
    # Sorted edges make the floating-point sums independent of insertion order.
    edges = sorted(g._edges.items())
    index: dict[str, int] = {}
    ends_u: list[int] = []
    ends_v: list[int] = []
    for (u, v), _ in edges:
        ends_u.append(index.setdefault(u, len(index)))
        ends_v.append(index.setdefault(v, len(index)))
    n_active = len(index)
    if n_active < 2:
        raise ValueError(
            f"effective_information requires at least 2 non-isolated nodes, got {n_active}"
        )
    # Each undirected edge is one entry in the row of either endpoint.
    rows = np.array(ends_u + ends_v, dtype=np.intp)
    cols = np.array(ends_v + ends_u, dtype=np.intp)
    weights = np.array([w for _, w in edges] * 2, dtype=float)
    strength = np.bincount(rows, weights=weights, minlength=n_active)
    w_log_w = np.bincount(rows, weights=weights * np.log2(weights), minlength=n_active)
    row_entropy = np.log2(strength) - w_log_w / strength
    # Every active node is some row's target, so no mean-row entry is zero.
    mean_row = np.bincount(
        cols, weights=weights / (n_active * strength[rows]), minlength=n_active
    )
    log_n = math.log2(n_active)
    det = log_n - float(row_entropy.mean())
    deg = log_n + float((mean_row * np.log2(mean_row)).sum())
    ei = det - deg
    return StructureMetrics(
        determinism_bits=det,
        degeneracy_bits=deg,
        effective_information_bits=ei,
        determinism_norm=det / log_n,
        degeneracy_norm=deg / log_n,
        effective_information_norm=ei / log_n,
        active_n=n_active,
    )


def write_edge_list(g: WeightedGraph, out: IO[str]) -> None:
    """Serialize ``g`` as tab-separated lines: edges ``u\\tv\\tw``, isolated nodes ``v\\t0``."""
    for name in g.nodes:
        if "\t" in name or "\n" in name:
            raise ValueError(f"node name not serializable in edge-list format: {name!r}")
    for u, v, w in g.edges():
        out.write(f"{u}\t{v}\t{w}\n")
    for v in sorted(g.nodes - g.active_nodes()):
        out.write(f"{v}\t0\n")


def read_edge_list(source: IO[str]) -> WeightedGraph:
    """Parse the edge-list format written by :func:`write_edge_list`."""
    g = WeightedGraph()
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) == 3:
            u, v, w = parts
            weight = int(w)
            if weight < 1:
                raise ValueError(f"line {lineno}: edge weight must be >= 1, got {w}")
            if u == v:
                raise SelfLoopError(f"line {lineno}: self-loop on {u!r}")
            key = _edge_key(u, v)
            g._edges[key] = g._edges.get(key, 0) + weight
            g._nodes.add(u)
            g._nodes.add(v)
        elif len(parts) == 2 and parts[1] == "0":
            g._nodes.add(parts[0])
        else:
            raise ValueError(f"line {lineno}: malformed edge-list line: {line!r}")
    return g
