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
    require_both_members: bool = True,
) -> Iterator[tuple[str, WeightedGraph]]:
    """Yield ``(project, network)`` per project, in sorted project order.

    The networks come from one pass over ``(author, page_owner, count)``
    triples. A triple stands for ``count`` posts; repeated pairs, in either
    direction, add up. Self-posts never count. Every member is a node of its
    project's network, isolated when it exchanged no counted message. With
    ``require_both_members`` (the default) an interaction counts only when
    both endpoints are members; the alternative keeps interactions with at
    least one member endpoint, in which case the network is no longer a
    subgraph of the member set.

    The counts are summed once into a per-user neighbour index, so the cost
    of a project scales with its members' degrees, not with the corpus. Each
    network is built only when it is asked for, so a caller that lets go of
    one before the next holds one network at a time.
    """
    neighbours: dict[str, dict[str, int]] = {}
    for author, owner, count in interactions:
        if author == owner:
            continue
        by_author = neighbours.get(author)
        if by_author is None:
            by_author = neighbours[author] = {}
        by_author[owner] = by_author.get(owner, 0) + count
        by_owner = neighbours.get(owner)
        if by_owner is None:
            by_owner = neighbours[owner] = {}
        by_owner[author] = by_owner.get(author, 0) + count
    for project in sorted(members_by_project):
        member_set = set(members_by_project[project])
        edges = []
        for u in member_set:
            adjacent = neighbours.get(u)
            if adjacent is None:
                continue
            for v, w in adjacent.items():
                if v in member_set:
                    if u < v:
                        edges.append((u, v, w))
                elif not require_both_members:
                    edges.append((u, v, w))
        yield project, WeightedGraph.from_edges(edges, nodes=member_set)


def summary_row(
    project: str, members: Iterable[str], network: WeightedGraph
) -> tuple[str, int, int, str]:
    """The ``projects.csv`` row of a project.

    The row is ``(project, member_count, active_nodes, fraction_in_network)``,
    the fraction printed to six decimals.

    The fraction counts only members: a non-member endpoint (kept when
    interactions need just one member) is in the network but not in the
    numerator.

    Raises:
        ValueError: if the member set is empty.
    """
    member_set = frozenset(members)
    if not member_set:
        raise ValueError(f"project {project!r} has an empty member set")
    active = network.active_nodes()
    fraction = len(active & member_set) / len(member_set)
    return project, len(member_set), len(active), f"{fraction:.6f}"
