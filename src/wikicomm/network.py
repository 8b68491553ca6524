"""Aggregation of interaction counts into per-project communication networks.

A post by editor A on the talk page of editor B counts as one undirected
interaction A–B when both are members of the project under construction and
A is not B. The input is ``(A, B, count)`` triples, as the parse stage
writes them to ``interactions.tsv``; mass-message threads are filtered out
there, before the posts are counted. A network is its sorted edge rows
``(u, v, w)`` with ``u < v``, the form :mod:`wikicomm.graph` reads and writes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

__all__ = ["build_networks", "summary_row"]


def build_networks(
    interactions: Iterable[tuple[str, str, int]],
    members_by_project: Mapping[str, Iterable[str]],
) -> Iterator[tuple[str, list[tuple[str, str, int]]]]:
    """Yield ``(project, rows)`` per project, in sorted project order.

    The networks come from one pass over ``(author, page_owner, count)``
    triples. A triple stands for ``count`` posts; repeated pairs, in either
    direction, add up. Self-posts never count, and an interaction counts only
    when both endpoints are members. A project's rows are its summed member
    pairs ``(u, v, weight)`` with ``u < v``, sorted; a member in no row is
    isolated.

    The counts are summed once into a neighbour index that holds each pair
    under its smaller endpoint, so the cost of a project scales with its
    members' degrees, not with the corpus. Each project's rows are built only
    when they are asked for, so a caller that lets go of them before the next
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
        member_set = set(members_by_project[project])
        yield project, sorted(
            (u, v, w)
            for u in member_set
            for v, w in neighbours.get(u, {}).items()
            if v in member_set
        )


def summary_row(
    project: str, members: Iterable[str], rows: Iterable[tuple[str, str, int]]
) -> tuple[str, int, int, str]:
    """The ``projects.csv`` row of a project with network ``rows``.

    The row is ``(project, member_count, active_nodes, fraction_in_network)``,
    the fraction printed to six decimals.

    Raises:
        ValueError: if the member set is empty.
    """
    member_set = frozenset(members)
    if not member_set:
        raise ValueError(f"project {project!r} has an empty member set")
    active = {name for u, v, _ in rows for name in (u, v)}
    fraction = len(active) / len(member_set)
    return project, len(member_set), len(active), f"{fraction:.6f}"
