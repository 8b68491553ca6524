"""Per-project communication networks: built from interaction counts, written
and read as edge lists, and measured by the random walk on them.

A post by editor A on the talk page of editor B counts as one undirected
interaction A–B when both are members of the project under construction and
A is not B; self-posts and posts that involve a non-member never count. The
input is ``(A, B, count)`` triples, as the parse stage writes them to
``interactions.tsv``; mass-message threads are filtered out there, before
the posts are counted.

A network is its edge rows: ``(u, v, w)`` triples, where the integer weight
w >= 1 counts the interactions between nodes u and v. :func:`build_networks`
yields them summed, sorted and with ``u < v``, together with the sorted
members in no row, which are isolated and take no part in the metrics.
:func:`effective_information` takes the rows in that one form, and
:func:`read_edge_list` checks that a file holds them so.

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
It is plain Python: each node's sums run in the order of the sorted rows,
and the means over nodes are ``math.fsum`` sums, so only libm's ``log2``
can differ between hosts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import IO, AbstractSet, Collection, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "SelfLoopError",
    "StructureMetrics",
    "build_networks",
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


def build_networks(
    interactions: Iterable[tuple[str, str, int]],
    members_by_project: Mapping[str, AbstractSet[str]],
) -> Iterator[tuple[str, list[tuple[str, str, int]], list[str]]]:
    """Yield ``(project, rows, isolated)`` per project, in sorted project order.

    The networks come from one pass over ``(author, page_owner, count)``
    triples. A triple stands for ``count`` posts; repeated pairs, in either
    direction, add up. A project's ``rows`` are its summed member pairs
    ``(u, v, weight)`` with ``u < v``, sorted, and ``isolated`` are its
    members in no row, sorted: together, what its edge list holds.

    The counts are summed once into a neighbour index that holds each pair
    under its smaller endpoint, so the cost of a project scales with its
    members' degrees, not with the corpus. Each project's network is built
    only when it is asked for, so a caller that lets go of it before the next
    holds one network at a time.
    """
    neighbours: dict[str, dict[str, int]] = {}
    for author, owner, count in interactions:
        if author == owner:
            continue
        u, v = (author, owner) if author < owner else (owner, author)
        row = neighbours.get(u)
        if row is None:
            row = neighbours[u] = {}
        row[v] = row.get(v, 0) + count
    for project in sorted(members_by_project):
        members = members_by_project[project]
        rows = sorted(
            (u, v, w)
            for u in members
            for v, w in neighbours.get(u, {}).items()
            if v in members
        )
        active = {name for u, v, _ in rows for name in (u, v)}
        yield project, rows, sorted(members - active)


def effective_information(edges: Sequence[tuple[str, str, int]]) -> StructureMetrics:
    """The six walk metrics of the network of ``(u, v, weight)`` edges (bit
    values and log2(n)-normalized) and its mean node strength, all over the
    nodes of its edges.

    The edges are rows as :func:`build_networks` yields them and
    :func:`read_edge_list` returns them: each pair once, with ``u < v`` and
    a positive integer weight, sorted.

    Raises:
        ValueError: if the edges join fewer than 2 nodes.
    """
    strength: dict[str, int] = {}
    for u, v, w in edges:
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
    for u, v, w in edges:
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
    rows: Collection[tuple[str, str, int]], isolated: Collection[str], out: IO[str]
) -> None:
    """Serialize a network as tab-separated lines, in the given order: each
    edge row as ``u\\tv\\tw``, then each isolated member as ``name\\t0``.

    Raises:
        ValueError: before anything is written, if a name holds a tab or a
            line break.
    """
    row_names = (name for u, v, _ in rows for name in (u, v))
    for name in itertools.chain(row_names, isolated):
        # A reader in text mode also ends a line at "\r".
        if "\t" in name or "\n" in name or "\r" in name:
            raise ValueError(f"node name not serializable in edge-list format: {name!r}")
    for u, v, w in rows:
        out.write(f"{u}\t{v}\t{w}\n")
    for name in isolated:
        out.write(f"{name}\t0\n")


def read_edge_list(source: IO[str]) -> list[tuple[str, str, int]]:
    """The edge rows of the format written by :func:`write_edge_list`.

    The rows must be sorted, each pair once and with ``u < v``, the form
    that :func:`effective_information` takes. Each isolated-node line
    ``name\\t0`` is checked and skipped.
    """
    edges: list[tuple[str, str, int]] = []
    previous = ("", "")  # before every pair with u < v
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
            if u > v:
                raise ValueError(f"line {lineno}: edge row has u > v: {line!r}")
            if (u, v) <= previous:
                raise ValueError(f"line {lineno}: edge row not after the one before: {line!r}")
            previous = (u, v)
            edges.append((u, v, weight))
        elif len(parts) != 2 or parts[1] != "0":
            raise ValueError(f"line {lineno}: malformed edge-list line: {line!r}")
    return edges
