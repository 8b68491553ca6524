"""Random-walk structure metrics of weighted undirected interaction networks.

A network is its edge rows: ``(u, v, w)`` triples, where the integer weight
w >= 1 counts the interactions between nodes u and v. The network stage
yields them summed, sorted and with ``u < v``; :func:`effective_information`
also takes them in any order and direction, and sums repeated pairs.
Members without an edge are isolated and take no part in the metrics.

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
the stages that only build or read networks never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Collection, Iterable

__all__ = [
    "SelfLoopError",
    "StructureMetrics",
    "effective_information",
    "write_edge_list",
    "read_edge_list",
]


class SelfLoopError(ValueError):
    """Raised when an interaction between a node and itself is recorded."""


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


def effective_information(edges: Iterable[tuple[str, str, int]]) -> StructureMetrics:
    """The six walk metrics of the network of ``(u, v, weight)`` edges (bit
    values and log2(n)-normalized) and its mean node strength, all over the
    nodes of its edges.

    Repeated pairs, in either direction, add up.

    Raises:
        SelfLoopError: if an edge joins a node to itself.
        ValueError: if a weight is not a positive integer, or if the edges
            join fewer than 2 nodes.
    """
    import numpy as np

    summed: dict[tuple[str, str], int] = {}
    for u, v, w in edges:
        if u == v:
            raise SelfLoopError(f"self-loop on node {u!r}")
        if not isinstance(w, int) or w < 1:
            raise ValueError(f"edge weight must be a positive integer, got {w!r}")
        key = (u, v) if u <= v else (v, u)
        summed[key] = summed.get(key, 0) + w
    # Sorted pairs make the floating-point sums independent of input order.
    pairs = sorted(summed.items())
    index: dict[str, int] = {}
    ends_u: list[int] = []
    ends_v: list[int] = []
    for (u, v), _ in pairs:
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
    weights = np.array([w for _, w in pairs] * 2, dtype=float)
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


def write_edge_list(
    edges: Collection[tuple[str, str, int]], members: Iterable[str], out: IO[str]
) -> None:
    """Serialize a network as tab-separated lines: each edge row ``u\\tv\\tw``
    in the given order, then each member in no edge, sorted, as ``name\\t0``."""
    members = set(members)
    active = {name for u, v, _ in edges for name in (u, v)}
    for name in members | active:
        # A reader in text mode also ends a line at "\r".
        if "\t" in name or "\n" in name or "\r" in name:
            raise ValueError(f"node name not serializable in edge-list format: {name!r}")
    for u, v, w in edges:
        out.write(f"{u}\t{v}\t{w}\n")
    for name in sorted(members - active):
        out.write(f"{name}\t0\n")


def read_edge_list(source: IO[str]) -> list[tuple[str, str, int]]:
    """The edge rows of the format written by :func:`write_edge_list`.

    Each isolated-node line ``name\\t0`` is checked and skipped.
    """
    edges: list[tuple[str, str, int]] = []
    for lineno, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) == 3:
            u, v, w = parts
            if not (w.isascii() and w.isdigit()):
                raise ValueError(f"line {lineno}: malformed edge-list line: {line!r}")
            weight = int(w)
            if weight < 1:
                raise ValueError(f"line {lineno}: edge weight must be >= 1, got {w}")
            if u == v:
                raise SelfLoopError(f"line {lineno}: self-loop on {u!r}")
            edges.append((u, v, weight))
        elif len(parts) != 2 or parts[1] != "0":
            raise ValueError(f"line {lineno}: malformed edge-list line: {line!r}")
    return edges
