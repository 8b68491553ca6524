import io
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicomm.graph import (
    SelfLoopError,
    WeightedGraph,
    effective_information,
    read_edge_list,
    write_edge_list,
)

from oracles import direct_structure_metrics

LOG2_3 = math.log2(3)


def star(n: int) -> WeightedGraph:
    return WeightedGraph.from_edges([("hub", f"leaf{i}", 1) for i in range(n - 1)])


def ring(n: int) -> WeightedGraph:
    return WeightedGraph.from_edges(
        [(f"n{i}", f"n{(i + 1) % n}", 1) for i in range(n)]
    )


def complete(n: int) -> WeightedGraph:
    names = [f"n{i}" for i in range(n)]
    return WeightedGraph.from_edges(
        [(u, v, 1) for i, u in enumerate(names) for v in names[i + 1 :]]
    )


def weights(g: WeightedGraph) -> dict[tuple[str, str], int]:
    return {(u, v): w for u, v, w in g.edges()}


class TestAddInteraction:
    def test_base_case(self):
        g = WeightedGraph.from_edges([("a", "b", 1)])
        assert weights(g) == {("a", "b"): 1}
        assert g.nodes == {"a", "b"}

    def test_unordered_key_symmetry(self):
        g = WeightedGraph.from_edges([("a", "b", 3), ("b", "a", 1)])
        assert weights(g) == {("a", "b"): 4}

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            WeightedGraph.from_edges([("a", "a", 1)])

    def test_weights_are_positive_integers(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges([("a", "b", 0)])
        with pytest.raises(ValueError):
            WeightedGraph.from_edges([("a", "b", 1.5)])


class TestAverageStrength:
    def test_single_edge(self):
        g = WeightedGraph.from_edges([("a", "b", 17)])
        assert effective_information(g).average_strength == 17.0

    def test_star(self):
        assert effective_information(star(4)).average_strength == pytest.approx(1.5)

    def test_complete_graph_regularity(self):
        assert effective_information(complete(4)).average_strength == pytest.approx(3.0)

    def test_isolated_nodes_excluded(self):
        g = WeightedGraph.from_edges(star(4).edges(), nodes=["watcher"])
        assert effective_information(g).average_strength == pytest.approx(1.5)

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError):
            effective_information(WeightedGraph()).average_strength
        with pytest.raises(ValueError):
            effective_information(WeightedGraph.from_edges([], nodes=["a"])).average_strength


class TestDeterminism:
    def test_two_node(self):
        g = WeightedGraph.from_edges([("a", "b", 1)])
        assert effective_information(g).determinism_bits == pytest.approx(1.0, abs=1e-15)

    def test_complete_k4(self):
        assert effective_information(complete(4)).determinism_bits == pytest.approx(
            2 - LOG2_3, abs=1e-12
        )

    def test_star_s4(self):
        # Frozen from the direct-from-definition oracle.
        assert effective_information(star(4)).determinism_bits == pytest.approx(
            1.603759374819711, abs=1e-12
        )

    def test_too_few_active_nodes(self):
        with pytest.raises(ValueError):
            effective_information(WeightedGraph.from_edges([], nodes=["a", "b"])).determinism_bits


class TestDegeneracy:
    def test_complete_k4_is_zero(self):
        assert abs(effective_information(complete(4)).degeneracy_bits) <= 1e-12

    def test_ring_c4_is_zero(self):
        assert abs(effective_information(ring(4)).degeneracy_bits) <= 1e-12

    def test_star_s4(self):
        # Frozen from the oracle: 2 - H(3/4, 1/12, 1/12, 1/12).
        assert effective_information(star(4)).degeneracy_bits == pytest.approx(
            0.792481250360578, abs=1e-12
        )

    def test_too_few_active_nodes(self):
        with pytest.raises(ValueError):
            effective_information(WeightedGraph()).degeneracy_bits


class TestEffectiveInformation:
    def test_two_node(self):
        m = effective_information(WeightedGraph.from_edges([("a", "b", 1)]))
        assert m.effective_information_bits == pytest.approx(1.0, abs=1e-15)
        assert m.effective_information_norm == pytest.approx(1.0, abs=1e-15)
        assert m.active_n == 2

    def test_k4(self):
        m = effective_information(complete(4))
        assert m.effective_information_bits == pytest.approx(2 - LOG2_3, abs=1e-12)

    def test_star_s4_difference_of_oracles(self):
        m = effective_information(star(4))
        assert m.effective_information_bits == pytest.approx(0.811278124459133, abs=1e-12)

    def test_identity_holds_exactly(self):
        g = WeightedGraph.from_edges([("a", "b", 2), ("b", "c", 7), ("a", "d", 1)])
        m = effective_information(g)
        assert m.effective_information_bits == m.determinism_bits - m.degeneracy_bits
        assert m.determinism_norm == pytest.approx(m.determinism_bits / math.log2(m.active_n))

    def test_bounds(self):
        for g in (star(6), ring(7), complete(5)):
            m = effective_information(g)
            log_n = math.log2(m.active_n)
            assert -1e-12 <= m.determinism_bits <= log_n + 1e-12
            assert -1e-12 <= m.degeneracy_bits <= log_n + 1e-12


class TestScale:
    """Closed forms on 3000 active nodes plus 100 isolated members, in bounded memory."""

    N = 3000
    ISOLATED = [f"idle{i}" for i in range(100)]

    def metrics_and_peak_bytes(self, g: WeightedGraph):
        g = WeightedGraph.from_edges(g.edges(), nodes=self.ISOLATED)
        tracemalloc.start()
        try:
            m = effective_information(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.active_n == self.N
        return m, peak

    def test_ring(self):
        m, peak = self.metrics_and_peak_bytes(ring(self.N))
        assert abs(m.determinism_bits - (math.log2(self.N) - 1)) <= 1e-9
        assert abs(m.degeneracy_bits) <= 1e-9
        assert peak < 20 * 2**20

    def test_star(self):
        n = self.N
        m, peak = self.metrics_and_peak_bytes(star(n))
        assert abs(m.determinism_bits - (math.log2(n) - math.log2(n - 1) / n)) <= 1e-9
        assert peak < 20 * 2**20


# -- property tests ----------------------------------------------------------


@st.composite
def random_graphs(draw, max_nodes=12, max_weight=10):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    names = [f"v{i}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    edges = [
        (u, v, draw(st.integers(min_value=1, max_value=max_weight))) for u, v in chosen
    ]
    return WeightedGraph.from_edges(edges)


@given(random_graphs())
@settings(max_examples=150, deadline=None)
def test_matches_direct_definition_oracle(g):
    edges = weights(g)
    det_expected, deg_expected, n_expected = direct_structure_metrics(edges)
    m = effective_information(g)
    assert m.active_n == n_expected
    assert abs(m.determinism_bits - det_expected) < 1e-9
    assert abs(m.degeneracy_bits - deg_expected) < 1e-9
    # Det and Deg each live in [0, log2(n)]; their order is not constrained.
    log_n = math.log2(m.active_n)
    assert -1e-12 <= m.determinism_bits <= log_n + 1e-12
    assert -1e-12 <= m.degeneracy_bits <= log_n + 1e-12


@given(random_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_node_relabeling_invariance(g, rng):
    names = sorted(g.nodes)
    shuffled = list(names)
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))
    relabeled = WeightedGraph.from_edges(
        [(mapping[u], mapping[v], w) for u, v, w in g.edges()],
        nodes=[mapping[v] for v in g.nodes],
    )
    a = effective_information(g)
    b = effective_information(relabeled)
    assert abs(a.determinism_bits - b.determinism_bits) < 1e-12
    assert abs(a.degeneracy_bits - b.degeneracy_bits) < 1e-12
    assert abs(a.effective_information_bits - b.effective_information_bits) < 1e-12


@given(random_graphs(max_weight=5), st.integers(min_value=2, max_value=9))
@settings(max_examples=80, deadline=None)
def test_uniform_weight_scaling_invariance(g, k):
    scaled = WeightedGraph.from_edges([(u, v, w * k) for u, v, w in g.edges()])
    a = effective_information(g)
    b = effective_information(scaled)
    assert abs(a.determinism_bits - b.determinism_bits) < 1e-12
    assert abs(a.degeneracy_bits - b.degeneracy_bits) < 1e-12
    assert abs(a.effective_information_bits - b.effective_information_bits) < 1e-12


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_isolated_node_changes_nothing(g):
    before = effective_information(g)
    watched = WeightedGraph.from_edges(list(g.edges()), nodes=["lurker_xyz"])
    after = effective_information(watched)
    assert after.active_n == before.active_n
    assert abs(after.determinism_bits - before.determinism_bits) < 1e-12
    assert abs(after.degeneracy_bits - before.degeneracy_bits) < 1e-12
    assert abs(
        after.effective_information_bits - before.effective_information_bits
    ) < 1e-12


@given(st.integers(min_value=3, max_value=40))
@settings(max_examples=40, deadline=None)
def test_vertex_transitive_graphs_have_zero_degeneracy(n):
    assert abs(effective_information(ring(n)).degeneracy_bits) <= 1e-12
    assert abs(effective_information(complete(n)).degeneracy_bits) <= 1e-12


@given(st.integers(min_value=4, max_value=64))
@settings(max_examples=61, deadline=None)
def test_ring_beats_star_on_effective_information(n):
    ring_m = effective_information(ring(n))
    star_m = effective_information(star(n))
    assert ring_m.effective_information_bits > star_m.effective_information_bits
    assert star_m.degeneracy_bits > ring_m.degeneracy_bits


# -- serialization -----------------------------------------------------------


class TestEdgeListFormat:
    def test_round_trip_with_isolated_nodes(self):
        g = WeightedGraph.from_edges(
            [("Alice B", "Carol", 3), ("Carol", "Dan", 1)], nodes=["Eve", "Frank"]
        )
        buffer = io.StringIO()
        write_edge_list(g, buffer)
        restored = read_edge_list(io.StringIO(buffer.getvalue()))
        assert restored == g

    def test_format_shape(self):
        g = WeightedGraph.from_edges([("a", "b", 2)], nodes=["c"])
        buffer = io.StringIO()
        write_edge_list(g, buffer)
        assert buffer.getvalue() == "a\tb\t2\nc\t0\n"

    def test_rejects_unserializable_names(self):
        g = WeightedGraph.from_edges([("a\tb", "c", 1)])
        with pytest.raises(ValueError):
            write_edge_list(g, io.StringIO())

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO("a\tb\n"))
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO("a\tb\t0\n"))

    def test_self_loop_line_is_named(self):
        with pytest.raises(SelfLoopError, match="^line 2: self-loop on 'c'$"):
            read_edge_list(io.StringIO("a\tb\t1\nc\tc\t2\n"))

    def test_zero_weight_line_is_named(self):
        with pytest.raises(ValueError, match="^line 3: edge weight must be >= 1, got 0$"):
            read_edge_list(io.StringIO("a\tb\t1\n\nc\td\t0\n"))

    def test_non_numeric_weight_line_is_named(self):
        with pytest.raises(ValueError, match=r"^line 2: malformed edge-list line: 'c\\td\\tx'$"):
            read_edge_list(io.StringIO("a\tb\t1\nc\td\tx\n"))

    def test_blank_line_is_skipped(self):
        g = read_edge_list(io.StringIO("a\tb\t2\n\nb\ta\t1\nc\t0\n"))
        assert g == WeightedGraph.from_edges([("a", "b", 3)], nodes=["c"])

    @given(random_graphs(), st.lists(st.integers(0, 50), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, g, extra):
        g = WeightedGraph.from_edges(g.edges(), nodes=[f"iso{i}" for i in extra])
        buffer = io.StringIO()
        write_edge_list(g, buffer)
        assert read_edge_list(io.StringIO(buffer.getvalue())) == g
