import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicomm.graph import WeightedGraph
from wikicomm.network import (
    ProjectRecord,
    build_networks,
    filter_projects,
    project_record,
    write_project_summary,
)

from oracles import direct_networks

MEMBERS = {"A", "B", "C"}


def project_network(interactions, members, require_both_members=True) -> WeightedGraph:
    """One project's network through the multi-project builder."""
    return build_networks(interactions, {"P": members}, require_both_members)["P"]


def weights(g: WeightedGraph) -> dict[tuple[str, str], int]:
    return {(u, v): w for u, v, w in g.edges()}


class TestBuildNetwork:
    def test_counts_every_message(self):
        posts = [("A", "B", 1), ("A", "B", 1), ("B", "A", 1)]
        g = project_network(posts, MEMBERS)
        assert weights(g)[("A", "B")] == 3

    def test_self_posts_never_count(self):
        g = project_network([("A", "A", 1)], MEMBERS)
        assert weights(g) == {}

    def test_non_member_page_owner_excluded(self):
        g = project_network([("A", "Z", 1)], MEMBERS)
        assert weights(g) == {}
        assert "Z" not in g.nodes

    def test_non_member_author_excluded(self):
        g = project_network([("Z", "A", 1)], MEMBERS)
        assert weights(g) == {}

    def test_switch_keeps_single_member_edges(self):
        g = project_network([("A", "Z", 1)], MEMBERS, require_both_members=False)
        assert weights(g)[("A", "Z")] == 1

    def test_total_weight_equals_counted_posts(self):
        posts = [("A", "B", 1), ("B", "C", 1), ("C", "A", 1), ("A", "Z", 1), ("A", "A", 1)]
        g = project_network(posts, MEMBERS)
        assert sum(weights(g).values()) == 3


@given(
    st.lists(
        st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF"), st.just(1)),
        max_size=40,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_post_order_is_irrelevant(posts, rng):
    members = set("ABCDE")
    reference = project_network(posts, members)
    shuffled = list(posts)
    rng.shuffle(shuffled)
    assert project_network(shuffled, members) == reference


@given(
    st.lists(
        st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE"), st.just(1)), max_size=30
    ),
    st.lists(
        st.tuples(st.sampled_from("ABCDE"), st.sampled_from("ABCDE"), st.just(1)), max_size=10
    ),
)
@settings(max_examples=100, deadline=None)
def test_adding_posts_is_monotone(posts, extra):
    members = set("ABCDE")
    before = project_network(posts, members)
    after = project_network(posts + extra, members)
    after_weights = weights(after)
    for u, v, w in before.edges():
        assert after_weights.get((u, v), 0) >= w


@st.composite
def interactions_and_projects(draw):
    users = "ABCDEFGH"
    # Few users and many draws give repeated pairs, both directions and self-pairs.
    interactions = draw(
        st.lists(
            st.tuples(
                st.sampled_from(users), st.sampled_from(users), st.integers(1, 4)
            ),
            max_size=60,
        )
    )
    projects = draw(
        st.dictionaries(
            st.sampled_from(["P1", "P2", "P3", "P4"]),
            st.sets(st.sampled_from(users), min_size=1, max_size=6),
            min_size=1,
        )
    )
    return interactions, projects


@given(interactions_and_projects(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_one_pass_builder_matches_per_project_rescan(case, require_both_members):
    interactions, projects = case
    networks = build_networks(iter(interactions), projects, require_both_members)
    # The oracle rescans one (author, owner) post per counted message.
    posts = [(author, owner) for author, owner, count in interactions for _ in range(count)]
    expected = direct_networks(posts, projects, require_both_members)
    assert set(networks) == set(expected)
    for project, (nodes, edges) in expected.items():
        g = networks[project]
        assert g.nodes == nodes
        assert weights(g) == edges


def test_repeated_pairs_in_both_directions_add_up():
    interactions = [("A", "B", 2), ("B", "A", 3), ("A", "B", 1), ("A", "A", 5), ("C", "Z", 4)]
    networks = build_networks(interactions, {"P": MEMBERS, "Q": {"C"}}, False)
    assert list(networks["P"].edges()) == [("A", "B", 6), ("C", "Z", 4)]
    assert list(networks["Q"].edges()) == [("C", "Z", 4)]


class TestProjectRecord:
    def test_fraction(self):
        g = project_network([("A", "B", 1), ("B", "C", 1), ("C", "D", 1), ("D", "E", 1)],
                          set("ABCDEFGHIJ"))
        record = project_record("P", set("ABCDEFGHIJ"), g)
        assert record.member_count == 10
        assert record.active_count == 5
        assert record.fraction_in_network == pytest.approx(0.5)

    def test_all_isolated(self):
        record = project_record("P", {"A", "B"}, WeightedGraph())
        assert record.fraction_in_network == 0.0

    def test_fraction_counts_only_members(self):
        g = project_network([("A", "Z", 1), ("A", "Y", 1)], MEMBERS, require_both_members=False)
        record = project_record("P", MEMBERS, g)
        assert record.active_count == 3
        assert record.fraction_in_network == pytest.approx(1 / 3)

    def test_empty_member_set_errors(self):
        with pytest.raises(ValueError):
            project_record("P", set(), WeightedGraph())


def make_record(name: str, active: int) -> ProjectRecord:
    edges = [(f"u{i}", "hub", 1) for i in range(active - 1)]
    g = WeightedGraph.from_edges(edges) if edges else WeightedGraph()
    members = set(g.nodes) | {"spectator"}
    return project_record(name, members, g)


class TestFilterProjects:
    def test_below_threshold_dropped(self):
        records = [make_record("small", 4)]
        assert filter_projects(records, {"small": 3}) == []

    def test_at_threshold_kept(self):
        records = [make_record("ok", 5)]
        kept = filter_projects(records, {"ok": 2})
        assert [r.project for r in kept] == ["ok"]

    def test_no_quality_pages_dropped(self):
        records = [make_record("busy", 8)]
        assert filter_projects(records, {"busy": 0}) == []

    def test_missing_quality_entry_names_project(self):
        records = [make_record("orphan", 6)]
        with pytest.raises(KeyError, match="orphan"):
            filter_projects(records, {})

    def test_order_preserved_and_idempotent(self):
        records = [make_record(f"p{i}", n) for i, n in enumerate([7, 4, 9, 5, 6])]
        quality = {r.project: 1 for r in records}
        kept = filter_projects(records, quality)
        assert [r.project for r in kept] == ["p0", "p2", "p3", "p4"]
        assert filter_projects(kept, quality) == kept

    def test_custom_threshold(self):
        records = [make_record("p", 3)]
        assert filter_projects(records, {"p": 1}, min_active_nodes=3) == records


def test_summary_csv_format():
    record = project_record(
        "Storms", {"A", "B", "C", "D"}, project_network([("A", "B", 1)], {"A", "B"})
    )
    out = io.StringIO()
    write_project_summary([record], out)
    assert out.getvalue() == (
        "project,member_count,active_nodes,fraction_in_network\n"
        "Storms,4,2,0.500000\n"
    )
