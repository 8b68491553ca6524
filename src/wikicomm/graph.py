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
and the mean step distribution accumulates w_ij / (n·s_i) per edge. The
same pass gives the average strength, the mean of s_i over those n nodes.
numpy is imported on the first call of :func:`effective_information`, so
the stages that only build or read graphs never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

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


class WeightedGraph:
    """Undirected graph over opaque node identifiers with integer edge weights.

    Weights count interactions between node pairs and are therefore positive
    integers; an absent pair means weight zero. Self-loops are rejected.
    A graph is built once, by :meth:`from_edges`, and never changes after;
    every other method is a pure read and safe to call concurrently.
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
            key = (u, v) if u <= v else (v, u)
            g._edges[key] = g._edges.get(key, 0) + w
            g._nodes.add(u)
            g._nodes.add(v)
        g._nodes.update(nodes)
        return g

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """Yield ``(u, v, weight)`` with ``u <= v``, in sorted order."""
        for (u, v) in sorted(self._edges):
            yield u, v, self._edges[(u, v)]

    def active_nodes(self) -> frozenset[str]:
        """Nodes incident to at least one edge."""
        return frozenset(node for edge in self._edges for node in edge)

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
    average_strength: float


def effective_information(g: WeightedGraph) -> StructureMetrics:
    """The six walk metrics of ``g`` (bit values and log2(n)-normalized) and its
    mean node strength, all over the non-isolated nodes.

    Raises:
        ValueError: if fewer than 2 nodes are non-isolated.
    """
    import numpy as np

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
        average_strength=float(strength.mean()),
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
    edges: list[tuple[str, str, int]] = []
    isolated: list[str] = []
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) == 3:
            u, v, w = parts
            try:
                weight = int(w)
            except ValueError:
                raise ValueError(f"line {lineno}: malformed edge-list line: {line!r}") from None
            if weight < 1:
                raise ValueError(f"line {lineno}: edge weight must be >= 1, got {w}")
            if u == v:
                raise SelfLoopError(f"line {lineno}: self-loop on {u!r}")
            edges.append((u, v, weight))
        elif len(parts) == 2 and parts[1] == "0":
            isolated.append(parts[0])
        else:
            raise ValueError(f"line {lineno}: malformed edge-list line: {line!r}")
    return WeightedGraph.from_edges(edges, isolated)
