from hypothesis import given, settings
from hypothesis import strategies as st

from wikicomm.graph import build_networks

from oracles import direct_networks

MEMBERS = {"A", "B", "C"}


def project_network(interactions, members) -> list[tuple[str, str, int]]:
    """One project's rows through the multi-project builder."""
    [(_, rows, _)] = build_networks(interactions, {"P": members})
    return rows


def weights(rows) -> dict[tuple[str, str], int]:
    return {(u, v): w for u, v, w in rows}


class TestBuildNetwork:
    def test_counts_every_message(self):
        posts = [("A", "B", 1), ("A", "B", 1), ("B", "A", 1)]
        rows = project_network(posts, MEMBERS)
        assert weights(rows)[("A", "B")] == 3

    def test_self_posts_never_count(self):
        rows = project_network([("A", "A", 1)], MEMBERS)
        assert weights(rows) == {}

    def test_non_member_page_owner_excluded(self):
        assert project_network([("A", "Z", 1)], MEMBERS) == []

    def test_non_member_author_excluded(self):
        rows = project_network([("Z", "A", 1)], MEMBERS)
        assert weights(rows) == {}

    def test_total_weight_equals_counted_posts(self):
        posts = [("A", "B", 1), ("B", "C", 1), ("C", "A", 1), ("A", "Z", 1), ("A", "A", 1)]
        rows = project_network(posts, MEMBERS)
        assert sum(weights(rows).values()) == 3


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
    for u, v, w in before:
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


@given(interactions_and_projects())
@settings(max_examples=200, deadline=None)
def test_one_pass_builder_matches_per_project_rescan(case):
    interactions, projects = case
    networks = {project: (rows, isolated)
                for project, rows, isolated in build_networks(iter(interactions), projects)}
    # The oracle rescans one (author, owner) post per counted message.
    posts = [(author, owner) for author, owner, count in interactions for _ in range(count)]
    expected = direct_networks(posts, projects)
    assert list(networks) == sorted(expected)
    for project, (members, edges) in expected.items():
        rows, isolated = networks[project]
        assert rows == sorted(rows)
        assert all(u < v for u, v, _ in rows)
        assert weights(rows) == edges
        row_nodes = {name for u, v, _ in rows for name in (u, v)}
        assert row_nodes.isdisjoint(isolated)
        assert row_nodes | set(isolated) == members
        assert isolated == sorted(isolated)


def test_repeated_pairs_in_both_directions_add_up():
    # B-A and C-B come larger endpoint first; C-B is never seen the other way.
    interactions = [
        ("B", "A", 3), ("A", "B", 2), ("A", "B", 1), ("A", "A", 5), ("C", "Z", 4), ("C", "B", 7)
    ]
    networks = list(build_networks(interactions, {"Q": {"B", "C", "Z", "Y"}, "P": MEMBERS}))
    assert networks == [
        ("P", [("A", "B", 6), ("B", "C", 7)], []),
        ("Q", [("B", "C", 7), ("C", "Z", 4)], ["Y"]),
    ]
