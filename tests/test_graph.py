import io
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikicomm.graph import (
    SelfLoopError,
    effective_information,
    read_edge_list,
    write_edge_list,
)

from oracles import direct_structure_metrics, summed_rows

LOG2_3 = math.log2(3)

Edges = list[tuple[str, str, int]]


def star(n: int) -> Edges:
    return summed_rows(("hub", f"leaf{i}", 1) for i in range(n - 1))


def ring(n: int) -> Edges:
    return summed_rows((f"n{i}", f"n{(i + 1) % n}", 1) for i in range(n))


def complete(n: int) -> Edges:
    names = [f"n{i}" for i in range(n)]
    return summed_rows((u, v, 1) for i, u in enumerate(names) for v in names[i + 1 :])


def nodes(edges: Edges) -> set[str]:
    return {name for u, v, _ in edges for name in (u, v)}


def round_trip(edges: Edges, isolated) -> Edges:
    """``edges`` written as an edge list with ``isolated`` members and read back."""
    buffer = io.StringIO()
    write_edge_list(edges, isolated, buffer)
    return read_edge_list(io.StringIO(buffer.getvalue()))


class TestAddInteraction:
    """The edge rows ``effective_information`` accepts."""

    def test_base_case(self):
        m = effective_information([("a", "b", 1)])
        assert m.active_n == 2
        assert m.average_strength == 1.0


class TestAverageStrength:
    def test_single_edge(self):
        assert effective_information([("a", "b", 17)]).average_strength == 17.0

    def test_star(self):
        assert effective_information(star(4)).average_strength == pytest.approx(1.5)

    def test_complete_graph_regularity(self):
        assert effective_information(complete(4)).average_strength == pytest.approx(3.0)

    def test_isolated_nodes_excluded(self):
        edges = round_trip(star(4), ["watcher"])
        assert effective_information(edges).average_strength == pytest.approx(1.5)

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError):
            effective_information([]).average_strength


class TestDeterminism:
    def test_two_node(self):
        assert effective_information([("a", "b", 1)]).determinism_bits == pytest.approx(1.0, abs=1e-15)

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
        # Two members, both isolated: the edge list holds no edge.
        edges = read_edge_list(io.StringIO("a\t0\nb\t0\n"))
        with pytest.raises(ValueError, match="at least 2 non-isolated nodes, got 0"):
            effective_information(edges).determinism_bits


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
            effective_information([]).degeneracy_bits


class TestEffectiveInformation:
    def test_two_node(self):
        m = effective_information([("a", "b", 1)])
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
        m = effective_information([("a", "b", 2), ("a", "d", 1), ("b", "c", 7)])
        assert m.effective_information_bits == m.determinism_bits - m.degeneracy_bits
        assert m.determinism_norm == pytest.approx(m.determinism_bits / math.log2(m.active_n))

    def test_bounds(self):
        for edges in (star(6), ring(7), complete(5)):
            m = effective_information(edges)
            log_n = math.log2(m.active_n)
            assert -1e-12 <= m.determinism_bits <= log_n + 1e-12
            assert -1e-12 <= m.degeneracy_bits <= log_n + 1e-12


class TestScale:
    """Closed forms on 3000 active nodes, in bounded memory."""

    N = 3000

    def metrics_and_peak_bytes(self, edges: Edges):
        tracemalloc.start()
        try:
            m = effective_information(edges)
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
    return summed_rows(
        (u, v, draw(st.integers(min_value=1, max_value=max_weight))) for u, v in chosen
    )


@given(random_graphs())
@settings(max_examples=150, deadline=None)
def test_matches_direct_definition_oracle(edges):
    det_expected, deg_expected, n_expected = direct_structure_metrics(
        {(u, v): w for u, v, w in edges}
    )
    m = effective_information(edges)
    assert m.active_n == n_expected
    assert abs(m.determinism_bits - det_expected) < 1e-9
    assert abs(m.degeneracy_bits - deg_expected) < 1e-9
    # Det and Deg each live in [0, log2(n)]; their order is not constrained.
    log_n = math.log2(m.active_n)
    assert -1e-12 <= m.determinism_bits <= log_n + 1e-12
    assert -1e-12 <= m.degeneracy_bits <= log_n + 1e-12


@given(random_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_node_relabeling_invariance(edges, rng):
    names = sorted(nodes(edges))
    shuffled = list(names)
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))
    relabeled = summed_rows((mapping[u], mapping[v], w) for u, v, w in edges)
    a = effective_information(edges)
    b = effective_information(relabeled)
    assert abs(a.determinism_bits - b.determinism_bits) < 1e-12
    assert abs(a.degeneracy_bits - b.degeneracy_bits) < 1e-12
    assert abs(a.effective_information_bits - b.effective_information_bits) < 1e-12


@given(random_graphs(max_weight=5), st.integers(min_value=2, max_value=9))
@settings(max_examples=80, deadline=None)
def test_uniform_weight_scaling_invariance(edges, k):
    scaled = [(u, v, w * k) for u, v, w in edges]
    a = effective_information(edges)
    b = effective_information(scaled)
    assert abs(a.determinism_bits - b.determinism_bits) < 1e-12
    assert abs(a.degeneracy_bits - b.degeneracy_bits) < 1e-12
    assert abs(a.effective_information_bits - b.effective_information_bits) < 1e-12


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_isolated_node_changes_nothing(edges):
    # An isolated member is a "name\t0" line of the edge list, skipped on reading.
    watched = round_trip(edges, ["lurker_xyz"])
    assert effective_information(watched) == effective_information(edges)


@given(random_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_row_order_direction_and_splitting_change_nothing(edges, rng):
    # Shuffled rows, some pairs reversed, and weights split across repeated
    # rows: summed and sorted, they are the same rows, so every float is the
    # same too. Unless they are already in that form, reading them fails.
    rows = []
    for u, v, w in edges:
        parts = [w] if w == 1 else [k := rng.randint(1, w - 1), w - k]
        rows += [(v, u, part) if rng.random() < 0.5 else (u, v, part) for part in parts]
    rng.shuffle(rows)
    assert effective_information(summed_rows(rows)) == effective_information(edges)
    if rows != edges:
        with pytest.raises(ValueError, match="^line [0-9]+: edge row "):
            round_trip(rows, [])


@given(st.integers(min_value=3, max_value=40))
@settings(max_examples=40, deadline=None)
def test_vertex_transitive_graphs_have_zero_degeneracy(n):
    assert abs(effective_information(ring(n)).degeneracy_bits) <= 1e-12
    assert abs(effective_information(complete(n)).degeneracy_bits) <= 1e-12


def test_regular_networks_have_exactly_zero_degeneracy():
    # log2 n minus an entropy over n nodes: rounding once left -4.4e-16 on
    # these two, which the metrics stage wrote as -0.000000.
    for edges in (ring(11), complete(9)):
        m = effective_information(edges)
        assert m.degeneracy_bits == 0.0
        assert f"{m.degeneracy_norm:.6f}" == "0.000000"


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
        edges = [("Alice B", "Carol", 3), ("Carol", "Dan", 1)]
        assert round_trip(edges, ["Eve", "Frank"]) == edges

    def test_format_shape(self):
        buffer = io.StringIO()
        write_edge_list([("a", "b", 2), ("b", "d", 1)], ["c", "e"], buffer)
        assert buffer.getvalue() == "a\tb\t2\nb\td\t1\nc\t0\ne\t0\n"

    def test_rejects_unserializable_names(self):
        for name in ["a\tb", "a\nb", "a\rb"]:
            for rows, isolated in [([(name, "c", 1)], []), ([("c", name, 1)], []), ([], [name])]:
                # Nothing is written before the check: one later bad name
                # leaves the output empty.
                buffer = io.StringIO()
                with pytest.raises(ValueError, match="not serializable"):
                    write_edge_list([("c", "d", 1)] + rows, ["e"] + isolated, buffer)
                assert buffer.getvalue() == ""

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO("a\tb\n"))
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO("a\tb\t0\n"))
        # An isolated-node line is checked although it is skipped.
        with pytest.raises(ValueError) as excinfo:
            read_edge_list(io.StringIO("a\tb\t1\nc\t00\n"))
        assert str(excinfo.value) == "line 2: malformed edge-list line: 'c\\t00'"

    def test_self_loop_line_is_named(self):
        with pytest.raises(SelfLoopError, match="^line 2: self-loop on 'c'$"):
            read_edge_list(io.StringIO("a\tb\t1\nc\tc\t2\n"))

    def test_zero_weight_line_is_named(self):
        with pytest.raises(ValueError, match="^line 3: edge weight must be >= 1, got 0$"):
            read_edge_list(io.StringIO("a\tb\t1\n\nc\td\t0\n"))

    def test_non_numeric_weight_line_is_named(self):
        # int() reads each of these but "x"; a weight is ASCII digits only.
        for weight in ["x", "1_0", "+2", " 3", "3 ", "-1", "\u0664"]:
            line = f"c\td\t{weight}"
            with pytest.raises(ValueError) as excinfo:
                read_edge_list(io.StringIO(f"a\tb\t1\n{line}\n"))
            assert str(excinfo.value) == f"line 2: malformed edge-list line: {line!r}"

    @pytest.mark.parametrize("text, message", [
        ("a\tb\t1\nb\ta\t1\n", "line 2: edge row has u > v: 'b\\ta\\t1'"),
        ("a\tc\t1\na\tb\t1\n", "line 2: edge row not after the one before: 'a\\tb\\t1'"),
        ("a\tb\t1\n\na\tb\t2\n", "line 3: edge row not after the one before: 'a\\tb\\t2'"),
    ], ids=["reversed", "out_of_order", "repeated_pair"])
    def test_non_canonical_row_is_named(self, text, message):
        # A hand-edited edge list must still hold each pair once, u < v, sorted.
        with pytest.raises(ValueError) as excinfo:
            read_edge_list(io.StringIO(text))
        assert str(excinfo.value) == message

    def test_blank_line_is_skipped(self):
        edges = read_edge_list(io.StringIO("a\tb\t2\n\nb\tc\t1\nc\t0\n"))
        assert edges == [("a", "b", 2), ("b", "c", 1)]

    @given(random_graphs(), st.lists(st.integers(0, 50), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, edges, extra):
        assert round_trip(edges, [f"iso{i}" for i in extra]) == edges
