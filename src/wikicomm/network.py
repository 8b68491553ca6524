"""Aggregation of interaction counts into per-project communication networks.

A post by editor A on the talk page of editor B counts as one undirected
interaction A–B when both are members of the project under construction and
A is not B. The input is ``(A, B, count)`` triples, as the parse stage
writes them to ``interactions.tsv``; mass-message threads are filtered out
there, before the posts are counted.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .graph import WeightedGraph

__all__ = ["build_networks", "summary_row"]


def build_networks(
    interactions: Iterable[tuple[str, str, int]],
    members_by_project: Mapping[str, Iterable[str]],
) -> Iterator[tuple[str, WeightedGraph]]:
    """Yield ``(project, network)`` per project, in sorted project order.

    The networks come from one pass over ``(author, page_owner, count)``
    triples. A triple stands for ``count`` posts; repeated pairs, in either
    direction, add up. Self-posts never count, and an interaction counts only
    when both endpoints are members. Every member is a node of its project's
    network, isolated when it exchanged no counted message.

    The counts are summed once into a neighbour index that holds each pair
    under its smaller endpoint, so the cost of a project scales with its
    members' degrees, not with the corpus. Each network is built only when it
    is asked for, so a caller that lets go of one before the next holds one
    network at a time.
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
        member_set = set(members_by_project[project])
        edges = [
            (u, v, w)
            for u in member_set
            for v, w in neighbours.get(u, {}).items()
            if v in member_set
        ]
        yield project, WeightedGraph.from_edges(edges, nodes=member_set)


def summary_row(
    project: str, members: Iterable[str], network: WeightedGraph
) -> tuple[str, int, int, str]:
    """The ``projects.csv`` row of a project.

    The row is ``(project, member_count, active_nodes, fraction_in_network)``,
    the fraction printed to six decimals.

    Raises:
        ValueError: if the member set is empty.
    """
    member_set = frozenset(members)
    if not member_set:
        raise ValueError(f"project {project!r} has an empty member set")
    active = network.active_nodes()
    fraction = len(active) / len(member_set)
    return project, len(member_set), len(active), f"{fraction:.6f}"
