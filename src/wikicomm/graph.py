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
It is plain Python: each node's sums run in the order of the sorted pairs,
and the means over nodes are ``math.fsum`` sums, so the result does not
depend on the order of the rows, and only libm's ``log2`` can differ
between hosts.
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
    strength: dict[str, int] = {}
    for (u, v), w in pairs:
        strength[u] = strength.get(u, 0) + w
        strength[v] = strength.get(v, 0) + w
    n_active = len(strength)
    if n_active < 2:
        raise ValueError(
            f"effective_information requires at least 2 non-isolated nodes, got {n_active}"
        )
    # Per node: Σ_j w_ij log2 w_ij, and its entry of the mean step
    # distribution, Σ_i w_ij / (n·s_i). Every active node is some row's
    # target, so no mean-row entry is zero.
    w_log_w = dict.fromkeys(strength, 0.0)
    mean_row = dict.fromkeys(strength, 0.0)
    for (u, v), w in pairs:
        term = w * math.log2(w)
        w_log_w[u] += term
        w_log_w[v] += term
        mean_row[v] += w / (n_active * strength[u])
        mean_row[u] += w / (n_active * strength[v])
    log_n = math.log2(n_active)
    row_entropy = (math.log2(s) - w_log_w[node] / s for node, s in strength.items())
    det = log_n - math.fsum(row_entropy) / n_active
    # log2 n minus an entropy over n nodes is never negative; on a regular
    # network rounding can leave -4e-16, which would print as -0.000000.
    deg = max(0.0, log_n + math.fsum(p * math.log2(p) for p in mean_row.values()))
    ei = det - deg
    return StructureMetrics(
        determinism_bits=det,
        degeneracy_bits=deg,
        effective_information_bits=ei,
        determinism_norm=det / log_n,
        degeneracy_norm=deg / log_n,
        effective_information_norm=ei / log_n,
        active_n=n_active,
        average_strength=sum(strength.values()) / n_active,
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
