"""Aggregation of interaction counts into per-project communication networks.

A post by editor A on the talk page of editor B counts as one undirected
interaction A–B when both are members of the project under construction and
A is not B. The input is ``(A, B, count)`` triples, as the parse stage
writes them to ``interactions.tsv``; mass-message threads are filtered out
there, before the posts are counted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Iterable, Mapping, Sequence

from .graph import WeightedGraph

__all__ = [
    "ProjectRecord",
    "build_networks",
    "project_record",
    "filter_projects",
    "write_project_summary",
]


@dataclass(frozen=True)
class ProjectRecord:
    """One Wikiproject: its communication network and coverage stats."""

    project: str
    network: WeightedGraph
    member_count: int
    active_count: int
    fraction_in_network: float


def build_networks(
    interactions: Iterable[tuple[str, str, int]],
    members_by_project: Mapping[str, Iterable[str]],
    require_both_members: bool = True,
) -> dict[str, WeightedGraph]:
    """Each project's network from one pass over ``(author, page_owner, count)`` triples.

    A triple stands for ``count`` posts; repeated pairs, in either
    direction, add up. Self-posts never count. Every member is a node of its
    project's network, isolated when it exchanged no counted message. With
    ``require_both_members`` (the default) an interaction counts only when
    both endpoints are members; the alternative keeps interactions with at
    least one member endpoint, in which case the network is no longer a
    subgraph of the member set.

    The counts are summed once into a per-user neighbour index, so the cost
    of a project scales with its members' degrees, not with the corpus.
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
    networks = {}
    for project, members in members_by_project.items():
        member_set = set(members)
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
        networks[project] = WeightedGraph.from_edges(edges, nodes=member_set)
    return networks


def project_record(
    project: str,
    members: Iterable[str],
    network: WeightedGraph,
) -> ProjectRecord:
    """Assemble a :class:`ProjectRecord`, computing the member fraction in-network.

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
    return ProjectRecord(
        project=project,
        network=network,
        member_count=len(member_set),
        active_count=len(active),
        fraction_in_network=len(active & member_set) / len(member_set),
    )


def filter_projects(
    records: Sequence[ProjectRecord],
    quality: Mapping[str, int],
    min_active_nodes: int = 5,
) -> list[ProjectRecord]:
    """Keep projects with enough network participants and at least one quality page.

    Structural metrics are not meaningful on very small networks, and
    projects with no quality output form a different population, so records
    are kept only when ``active_count >= min_active_nodes`` and the project
    has a positive quality-page count. Input order is preserved; the
    operation is idempotent.

    Args:
        records: project records to filter.
        quality: per-project count of quality pages (FA+GA).
        min_active_nodes: minimum non-isolated network nodes.

    Raises:
        KeyError: if a record's project is missing from ``quality``.
    """
    kept = []
    for record in records:
        if record.project not in quality:
            raise KeyError(f"no quality-page count for project {record.project!r}")
        if record.active_count >= min_active_nodes and quality[record.project] >= 1:
            kept.append(record)
    return kept


def write_project_summary(records: Iterable[ProjectRecord], out: IO[str]) -> None:
    """Write the per-project coverage CSV."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["project", "member_count", "active_nodes", "fraction_in_network"])
    for record in records:
        writer.writerow(
            [
                record.project,
                record.member_count,
                record.active_count,
                f"{record.fraction_in_network:.6f}",
            ]
        )
