import bisect
import re
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from fga import engine
from fga.engine import HIGH_PRECISION, compute_fga, compute_fga_many
from fga.generators import generate_random_graph
from fga.graph import FlatEdges, InvariantViolationError, RatingScale, Wsn, overlay_union, splice

WEIGHTS = st.floats(min_value=-1, max_value=1, allow_nan=False)


def pair_graph(weight=0.5):
    g = Wsn()
    g.add_node("a")
    g.add_node("b")
    g.add_edge(0, 1, weight)
    return g


class TestAddEdge:
    def test_degrees_update(self):
        g = pair_graph(0.5)
        assert g.indeg(1) == 1
        assert g.indeg(0) == 0
        assert g.flat().outdeg.tolist() == [1.0, 0.0]
        assert g.weight(0, 1) == 0.5

    def test_rejects_out_of_range_weight(self):
        g = Wsn()
        g.add_node()
        g.add_node()
        with pytest.raises(ValueError, match="outside"):
            g.add_edge(0, 1, 1.2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1.0000001)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, float("nan"))

    def test_rejects_self_loop(self):
        g = Wsn()
        g.add_node()
        with pytest.raises(ValueError, match="self-loop"):
            g.add_edge(0, 0, 0.1)

    def test_rejects_duplicate(self):
        g = pair_graph()
        with pytest.raises(ValueError, match="already present"):
            g.add_edge(0, 1, 0.3)

    def test_unknown_node(self):
        g = Wsn()
        g.add_node()
        with pytest.raises(KeyError):
            g.add_edge(0, 5, 0.1)

    def test_endpoint_weights_allowed(self):
        g = Wsn()
        for _ in range(3):
            g.add_node()
        g.add_edge(0, 1, 1.0)
        g.add_edge(0, 2, -1.0)
        g.validate()


class TestRate:
    def test_replaces_weight(self):
        g = pair_graph(1.0)
        assert g.rate(0, 1, -1.0) == "weight-update"
        assert g.weight(0, 1) == -1.0
        assert g.edge_count == 1

    def test_missing_edge(self):
        g = pair_graph()
        with pytest.raises(KeyError, match=r"edge \(1, 0\) does not exist"):
            g.weight(1, 0)
        assert g.rate(1, 0, 0.2) == "edge-addition"
        assert g.weight(1, 0) == 0.2
        assert g.edge_count == 2

    def test_same_weight_is_identity(self):
        g = pair_graph(0.25)
        before = g.copy()
        assert g.rate(0, 1, 0.25) == "weight-update"
        assert g == before

    @pytest.mark.parametrize(
        "u, v, weight, error, message",
        [
            (0, 5, 2.0, KeyError, "unknown node 5"),
            (-1, 1, 0.5, KeyError, "unknown node -1"),
            (0, 1.0, 0.5, TypeError, "node id must be an integer, not 1.0"),
            (1, 1, 2.0, ValueError, r"self-loop \(1, 1\) not allowed"),
            (0, 1, 1.5, ValueError, r"weight 1.5 outside \[-1, 1\]"),
            (1, 0, float("nan"), ValueError, r"weight nan outside \[-1, 1\]"),
        ],
        ids=["unknown", "negative", "float-id", "self-loop", "update-weight", "add-weight"],
    )
    def test_rejects_what_add_edge_rejects_and_leaves_the_store(self, u, v, weight, error, message):
        g = pair_graph()
        flat = g.flat()
        with pytest.raises(error, match=message):
            g.rate(u, v, weight)
        assert g.flat() is flat


class TestNeighbourhood:
    def test_isolated_node(self):
        g = Wsn()
        g.add_node()
        assert list(g.edges()) == []
        assert g.indeg(0) == 0 and g.flat().outdeg.tolist() == [0.0]

    def test_pair(self):
        g = pair_graph()
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)
        assert list(g.edges()) == [(0, 1, 0.5)]

    def test_triangle(self):
        g = Wsn()
        for _ in range(3):
            g.add_node()
        g.add_edge(0, 1, 0.1)
        g.add_edge(1, 2, 0.2)
        g.add_edge(2, 0, 0.3)
        for v in range(3):
            assert g.indeg(v) == 1
        assert g.flat().outdeg.tolist() == [1.0, 1.0, 1.0]

    def test_unknown_node(self):
        g = pair_graph()
        for query in (g.indeg, lambda node: g.has_edge(0, node), lambda node: g.weight(node, 1)):
            for node in (2, -1):
                with pytest.raises(KeyError):
                    query(node)
            with pytest.raises(TypeError):
                query(1.0)  # not an integer, so not a node id at all

    def test_queries_share_the_cached_flat(self):
        g = pair_graph()
        flat = g.flat()
        assert g.indeg(1) == 1 and g.has_edge(0, 1) and g.weight(0, 1) == 0.5
        assert g.flat() is flat
        assert all(type(x) is int for edge in g.edges() for x in edge[:2])


class TestNodeIds:
    """Any integer type names a node; bools and non-integers are type errors."""

    @pytest.mark.parametrize("node", [1, np.int64(1), np.int32(1), np.uint8(1)])
    def test_integer_types_accepted(self, node):
        from fga.engine import compute_fga, predict_weight

        g = pair_graph(0.5)
        assert g.indeg(node) == 1
        assert g.weight(0, node) == 0.5
        assert g.has_edge(0, node) and not g.has_edge(node, 0)
        scores = compute_fga(g)
        assert predict_weight(scores, 0, node) == predict_weight(scores, 0, 1)
        view = g.flat().with_rating(node, 0, -1.0)
        assert view.has_edge(1, 0) and view.w.tolist() == [0.5, -1.0]

    @pytest.mark.parametrize("node", [True, np.True_, 1.0, np.float64(1.0), "1", None])
    def test_non_integers_rejected_by_name(self, node):
        from fga.engine import compute_fga, predict_weight

        g = pair_graph(0.5)
        scores = compute_fga(g)
        flat = g.flat()
        for query in (
            lambda: g.indeg(node),
            lambda: g.weight(0, node),
            lambda: predict_weight(scores, 0, node),
            lambda: flat.with_rating(node, 0, -1.0),
        ):
            with pytest.raises(TypeError, match=re.escape(f"not {node!r}")):
                query()

    def test_out_of_range_integers_are_unknown(self):
        from fga.engine import compute_fga, predict_weight

        g = pair_graph(0.5)
        scores = compute_fga(g)
        for node in (2, np.int64(-1)):
            for query in (
                lambda: g.indeg(node),
                lambda: g.weight(0, node),
                lambda: predict_weight(scores, 0, node),
                lambda: g.flat().with_rating(node, 0, -1.0),
            ):
                with pytest.raises(KeyError, match="unknown node"):
                    query()

    def test_stored_ids_are_plain_ints(self):
        g = pair_graph(0.5)
        g.add_node()
        g.add_edge(np.int64(2), np.int64(0), 1.0)
        assert list(g.edges()) == [(0, 1, 0.5), (2, 0, 1.0)]
        assert all(type(x) is int for edge in g.edges() for x in edge[:2])
        assert type(g.indeg(np.int64(0))) is int and g.indeg(np.int64(0)) == 1
        assert type(g.weight(np.int64(2), np.uint8(0))) is float


class TestNormalizeRating:
    def test_endpoints(self):
        scale = RatingScale(10)
        assert scale.normalize(10) == 1.0
        assert scale.normalize(-10) == -1.0

    def test_linearity(self):
        assert RatingScale(10).normalize(3) == pytest.approx(0.3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            RatingScale(10).normalize(11)

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            RatingScale(0)
        with pytest.raises(ValueError):
            RatingScale(-3)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    def test_odd_function(self, raw):
        scale = RatingScale(10)
        assert scale.normalize(-raw) == -scale.normalize(raw)


@st.composite
def edge_lists(draw):
    """A node count and distinct weighted edges, in drawn (not canonical) order."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if not pairs:
        return n, []
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=min(20, len(pairs))))
    return n, [(u, v, draw(WEIGHTS)) for u, v in chosen]


@st.composite
def small_graphs(draw):
    """A graph grown edge by edge, through the overlays."""
    n, edges = draw(edge_lists())
    g = Wsn()
    for _ in range(n):
        g.add_node()
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_weights_in_range_and_degree_sums(self, g):
        g.validate()
        weights = [w for _, _, w in g.edges()]
        assert all(-1.0 <= w <= 1.0 for w in weights)
        assert sum(g.indeg(v) for v in g.nodes()) == g.edge_count
        assert g.flat().outdeg.sum() == g.edge_count
        edges = list(g.edges())
        for v in g.nodes():
            assert g.indeg(v) == len({u for u, x, _ in edges if x == v})

    def test_rate_dispatches(self):
        g = pair_graph(0.5)
        assert g.rate(0, 1, -0.5) == "weight-update"
        assert g.rate(1, 0, 0.7) == "edge-addition"
        assert g.weight(0, 1) == -0.5
        assert g.weight(1, 0) == 0.7


class TestLabels:
    def test_bijection(self):
        g = Wsn()
        a = g.add_node("alice")
        b = g.add_node("bob")
        assert g.id_of("alice") == a
        assert g.label_of(b) == "bob"
        with pytest.raises(ValueError, match="duplicate"):
            g.add_node("alice")
        with pytest.raises(KeyError):
            g.id_of("carol")

    def test_default_labels(self):
        g = Wsn()
        assert g.add_node() == 0
        assert g.label_of(0) == "0"

    def test_default_names_are_implied_not_stored(self):
        g = Wsn()
        for _ in range(3):
            g.add_node()
        assert g._ids is None and g._labels is None
        assert g.labels() == ["0", "1", "2"]
        assert [g.id_of(label) for label in ("0", "1", "2")] == [0, 1, 2]
        with pytest.raises(ValueError, match="duplicate node label '2'"):
            g.add_node("2")
        assert g.node_count == 3
        for other in ("00", "+1", " 1", "3", "\u0661", "x"):  # not the name of a node
            with pytest.raises(KeyError):
                g.id_of(other)
        g.validate()

    def test_a_long_decimal_label_is_unknown_not_an_int_conversion_error(self):
        # int() refuses strings over 4300 digits, so this used to raise ValueError
        g = generate_random_graph(5, 1.0, seed=1)
        for label in ("1" * 5000, "1" * 2, "0" * 5000):
            with pytest.raises(KeyError, match="unknown node label"):
                g.id_of(label)
        assert g.id_of("4") == 4

    def test_default_and_explicit_names_never_collide(self):
        g = Wsn()
        g.add_node()  # "0"
        with pytest.raises(ValueError, match="duplicate node label '0'"):
            g.add_node("0")
        assert g._labels is None  # a rejected name stores nothing
        g.add_node("2")  # node 1, explicitly named like node 2's default
        assert g._labels == ["0", "2"]  # the first explicit name stores every name
        with pytest.raises(ValueError, match="duplicate node label '2'"):
            g.add_node()
        assert g.labels() == ["0", "2"] and g.id_of("2") == 1
        assert g.add_node("3") == 2 and g.label_of(2) == "3" and g.id_of("3") == 2
        g.validate()

    def test_equality_compares_names_not_storage(self):
        implied, named = Wsn(), Wsn()
        for node in range(2):
            implied.add_node()
            named.add_node(str(node))
        assert implied == named
        named.add_node("x")
        implied.add_node()
        assert implied != named


class TestCopy:
    def test_copy_is_independent(self):
        g = pair_graph(0.5)
        dup = g.copy()
        dup.rate(0, 1, -1.0)
        dup.add_node("c")
        assert g.weight(0, 1) == 0.5
        assert g.node_count == 2

    @pytest.mark.parametrize("edited", ["copy", "original"])
    def test_copy_shares_labels_and_store_and_neither_side_sees_the_others_node(self, edited):
        g = pair_graph()
        dup = g.copy()
        assert dup._labels is g._labels and dup._ids is g._ids and dup._edges is g._edges
        changed, other = (dup, g) if edited == "copy" else (g, dup)
        assert changed.add_node("x") == 2
        assert changed.labels() == ["a", "b", "x"] and changed.id_of("x") == 2
        assert other.labels() == ["a", "b"] and other.node_count == 2
        with pytest.raises(KeyError):
            other.id_of("x")
        other.validate()
        changed.validate()

    def test_validate_catches_corruption(self):
        g = pair_graph()
        raw_store(g, [(0, 1, 5.0)])  # bypass the API on purpose
        with pytest.raises(InvariantViolationError):
            g.validate()


def raw_store(g, edges, n=None):
    """Give ``g`` an edge store built by the raw constructor, past every check."""
    n = g.node_count if n is None else n
    src = np.array([u for u, _, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v, _ in edges], dtype=np.int64)
    g._edges = FlatEdges(
        n,
        src,
        dst,
        np.array([w for _, _, w in edges], dtype=np.float64),
        np.bincount(dst, minlength=n).astype(np.float64),
        np.bincount(src, minlength=n).astype(np.float64),
    )


class TestValidate:
    """One corruption per remaining check, each written past the API on purpose."""

    def test_clean_graph_passes(self):
        triangle_graph().validate()

    def test_self_loop(self):
        g = triangle_graph()
        raw_store(g, [(0, 1, 0.5), (1, 2, -0.25), (2, 2, 0.5)])
        with pytest.raises(InvariantViolationError, match="self-loop at 2"):
            g.validate()

    @pytest.mark.parametrize("weight", [1.5, -1.0000001, float("nan"), float("inf")])
    def test_weight_out_of_range(self, weight):
        g = triangle_graph()
        raw_store(g, [(0, 1, 0.5), (1, 2, weight)])
        with pytest.raises(InvariantViolationError, match=r"on \(1, 2\) outside \[-1, 1\]"):
            g.validate()

    def test_store_of_another_node_count(self):
        g = triangle_graph()  # labelled, so its names cover 3 nodes
        raw_store(g, [(0, 1, 0.5), (1, 2, -0.25)], n=4)
        with pytest.raises(InvariantViolationError, match="3 names for the edge store's 4 nodes"):
            g.validate()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda g: g._ids.__setitem__("a", 1),
            lambda g: g._ids.pop("c"),
            lambda g: g._ids.__setitem__("z", 0),
            lambda g: g._labels.__setitem__(2, "z"),
            lambda g: g._labels.__setitem__(0, None),
        ],
        ids=["wrong-id", "missing-label", "extra-label", "renamed-node", "unnamed-node"],
    )
    def test_broken_label_map(self, corrupt):
        g = triangle_graph()
        corrupt(g)
        with pytest.raises(InvariantViolationError, match="label index is not a bijection"):
            g.validate()


FLAT_ARRAYS = ("src", "dst", "w", "indeg", "outdeg")


def triangle_graph():
    g = Wsn()
    for label in ("a", "b", "c"):
        g.add_node(label)
    g.add_edge(0, 1, 0.5)
    g.add_edge(1, 2, -0.25)
    return g


def bulk(n, edges):
    """The independent reference: ``edges`` built in one ``from_arrays`` call."""
    return FlatEdges.from_arrays(
        n, [u for u, _, _ in edges], [v for _, v, _ in edges], [w for _, _, w in edges]
    )


def assert_same_store(flat, reference):
    assert flat.n == reference.n
    for name in FLAT_ARRAYS:
        have, want = getattr(flat, name), getattr(reference, name)
        assert have.dtype == want.dtype and np.array_equal(have, want), name


class TestCachedFlat:
    """``flat()`` is the graph's one edge store; every edit replaces it with an overlay."""

    def test_flat_is_canonical_and_cached(self):
        g = Wsn()
        for label in "abcd":
            g.add_node(label)
        for u, v, w in ((3, 0, 0.1), (0, 2, 0.2), (0, 1, -0.3), (2, 3, 1.0)):
            g.add_edge(u, v, w)
        flat = g.flat()
        assert g.flat() is flat
        assert flat.src.tolist() == [0, 0, 2, 3]
        assert flat.dst.tolist() == [1, 2, 3, 0]
        assert flat.w.tolist() == [-0.3, 0.2, 1.0, 0.1]
        assert flat.indeg.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert flat.outdeg.tolist() == [2.0, 0.0, 1.0, 1.0]
        assert not any(getattr(flat, name).flags.writeable for name in FLAT_ARRAYS)

    @settings(max_examples=60, deadline=None)
    @given(edge_lists())
    def test_flat_matches_edge_iteration(self, drawn):
        n, drawn_edges = drawn
        g = Wsn()
        for _ in range(n):
            g.add_node()
        for u, v, w in drawn_edges:
            g.add_edge(u, v, w)
        edges = sorted(drawn_edges)
        flat = g.flat()
        assert flat is FlatEdges.from_graph(g)
        assert list(g.edges()) == edges
        assert flat.src.tolist() == [u for u, _, _ in edges]
        assert flat.dst.tolist() == [v for _, v, _ in edges]
        assert flat.w.tolist() == [w for _, _, w in edges]
        assert flat.indeg.tolist() == [sum(v == x for _, x, _ in edges) for v in range(n)]
        assert flat.outdeg.tolist() == [sum(u == x for x, _, _ in edges) for u in range(n)]
        assert_same_store(flat, bulk(n, drawn_edges))

    @pytest.mark.parametrize(
        "mutate, n, edges",
        [
            (lambda g: g.add_node("d"), 4, [(0, 1, 0.5), (1, 2, -0.25)]),
            (lambda g: g.add_edge(2, 0, 1.0), 3, [(0, 1, 0.5), (1, 2, -0.25), (2, 0, 1.0)]),
            (lambda g: g.rate(0, 1, -1.0), 3, [(0, 1, -1.0), (1, 2, -0.25)]),
            (lambda g: g.rate(0, 2, 0.75), 3, [(0, 1, 0.5), (0, 2, 0.75), (1, 2, -0.25)]),
        ],
        ids=["add_node", "add_edge", "rate-update", "rate"],
    )
    def test_every_mutator_clears_the_cache(self, mutate, n, edges):
        g = triangle_graph()
        stale = g.flat()
        snapshot = {name: getattr(stale, name).copy() for name in FLAT_ARRAYS}
        mutate(g)
        fresh = g.flat()
        assert fresh is not stale
        assert_same_store(fresh, bulk(n, edges))
        for name in FLAT_ARRAYS:  # the replaced store is never written
            assert np.array_equal(getattr(stale, name), snapshot[name])

    def test_copy_shares_until_either_side_mutates(self):
        g = triangle_graph()
        flat = g.flat()
        dup = g.copy()
        assert dup.flat() is flat
        dup.add_edge(2, 0, 1.0)
        assert dup.flat() is not flat
        assert g.flat() is flat
        assert len(flat.src) == 2

    def test_add_node_shares_the_edge_arrays(self):
        g = triangle_graph()
        flat = g.flat()
        g.add_node()
        grown = g.flat()
        assert grown.src is flat.src and grown.dst is flat.dst and grown.w is flat.w
        assert_same_store(grown, bulk(4, [(0, 1, 0.5), (1, 2, -0.25)]))


def assert_own_index_arrays(flat):
    """``src`` and ``dst`` are read-only views of the store's own writeable index arrays."""
    for public, own in ((flat.src, flat._src), (flat.dst, flat._dst)):
        assert not public.flags.writeable and own.flags.writeable
        # same start and length; a view of no elements shares no memory, only its start
        assert public.ctypes.data == own.ctypes.data and len(public) == len(own)
        assert np.shares_memory(public, own) or not len(own)


class TestIndexArrays:
    """Every way a store is made publishes read-only views of its own writeable index arrays,
    which an overlay that keeps the edges shares, views included, and no other store holds."""

    EDGES = [(0, 1, 0.5), (1, 2, -0.25), (2, 0, 1.0)]

    @pytest.mark.parametrize("n, edges", [(0, []), (3, []), (3, EDGES)],
                             ids=["no-nodes", "no-edges", "edges"])  # no nodes: ``Wsn()``'s store
    def test_from_arrays(self, n, edges):
        assert_own_index_arrays(bulk(n, edges))

    @pytest.mark.parametrize("edit", ["with_node", "update"])
    def test_an_overlay_that_keeps_the_edges_shares_them(self, edit):
        flat = bulk(3, self.EDGES)
        over = flat.with_node() if edit == "with_node" else flat.with_rating(0, 1, -1.0)
        assert over._src is flat._src and over._dst is flat._dst
        assert over.src is flat.src and over.dst is flat.dst
        assert_own_index_arrays(over)

    def test_an_insert_makes_fresh_arrays(self):
        flat = bulk(3, self.EDGES)
        over = flat.with_rating(0, 2, -1.0)
        assert_own_index_arrays(over)
        assert not np.shares_memory(over._src, flat._src)
        assert not np.shares_memory(over._dst, flat._dst)

    @pytest.mark.parametrize("groups", [[[(0, 1, -1.0)]] * 2, [[(0, 2, 0.5)], [(1, 0, -0.5)]]],
                             ids=["updates", "inserts"])
    def test_overlay_union(self, groups):
        flat = bulk(3, self.EDGES)
        union = overlay_union(flat, flat.src * flat.n + flat.dst, groups)
        assert_own_index_arrays(union)
        assert not np.shares_memory(union._src, flat._src)

    def test_engine_union(self):
        flat = bulk(3, self.EDGES)
        union = engine._union([(flat.n, [(flat._src, flat._dst, flat.w)])] * 2)
        assert_own_index_arrays(union)
        assert not np.shares_memory(union._src, flat._src)


class TestFromArrays:
    """The bulk constructor sorts once and rejects what ``add_edge`` rejects."""

    def test_sorts_any_input_order(self):
        edges = [(3, 0, 0.1), (0, 2, 0.2), (0, 1, -0.3), (2, 3, 1.0)]
        flat = bulk(4, edges)
        assert flat.src.tolist() == [0, 0, 2, 3] and flat.dst.tolist() == [1, 2, 3, 0]
        assert flat.w.tolist() == [-0.3, 0.2, 1.0, 0.1]
        assert not any(getattr(flat, name).flags.writeable for name in FLAT_ARRAYS)
        assert_same_store(flat, bulk(4, edges[::-1]))

    def test_ids_of_any_integer_dtype(self):
        reference = bulk(3, [(0, 1, 0.5), (1, 2, -0.5)])
        for ids in (np.array([0, 1], dtype=object), np.array([0, 1], dtype=np.uint8)):
            assert_same_store(FlatEdges.from_arrays(3, ids, [1, 2], [0.5, -0.5]), reference)

    def test_empty(self):
        for n in (0, 3):
            flat = bulk(n, [])
            assert flat.n == n and len(flat.src) == len(flat.dst) == 0
            assert flat.indeg.tolist() == flat.outdeg.tolist() == [0.0] * n

    @pytest.mark.parametrize(
        "edges, error, message",
        [
            ([(0, 1, 0.5), (0, 5, 0.1)], KeyError, "unknown node 5"),
            ([(-1, 1, 0.5)], KeyError, "unknown node -1"),
            ([(0, 1, 0.5), (2, 2, 0.1)], ValueError, r"self-loop \(2, 2\) not allowed"),
            ([(0, 1, 1.2)], ValueError, r"weight 1.2 outside \[-1, 1\]"),
            ([(0, 1, float("nan"))], ValueError, r"weight nan outside \[-1, 1\]"),
            ([(0, 1, 0.5), (1, 2, 0.1), (0, 1, 0.3)], ValueError,
             r"edge \(0, 1\) already present; use rate"),
            ([(0, 1.0, 0.5)], TypeError, "node id must be an integer, not 1.0"),
            ([(True, 1, 0.5)], TypeError, "node id must be an integer, not True"),
        ],
        ids=["unknown", "negative", "self-loop", "weight", "nan", "duplicate", "float-id", "bool"],
    )
    def test_rejects_what_add_edge_rejects(self, edges, error, message):
        with pytest.raises(error, match=message):
            bulk(3, edges)
        g = Wsn()
        for _ in range(3):
            g.add_node()
        with pytest.raises(error, match=message):
            for u, v, w in edges:
                g.add_edge(u, v, w)

    def test_first_repeat_in_input_order_is_named(self):
        with pytest.raises(ValueError, match=r"edge \(2, 0\)"):
            bulk(3, [(2, 0, 0.1), (0, 1, 0.5), (2, 0, 0.2), (0, 1, 0.3)])

    def test_wsn_labels(self):
        g = Wsn.from_arrays(3, [0], [2], [0.5], labels=["a", "1", "0"])
        assert g.labels() == ["a", "1", "0"] and g.id_of("0") == 2 and g.weight(0, 2) == 0.5
        g.validate()
        assert Wsn.from_arrays(2, [], [], []).labels() == ["0", "1"]
        for labels in (["a", "a", "b"], ["a", "b"], ["a", "b", "c", "d"]):
            with pytest.raises(ValueError, match="labels must name the 3 nodes"):
                Wsn.from_arrays(3, [], [], [], labels=labels)


class TestLocate:
    """``locate`` finds an edge, or where it would go, from u's run of ``src`` and ``dst``."""

    @pytest.mark.ci_profile
    @settings(deadline=None)
    @given(edge_lists(), st.data())
    def test_locate_and_overlays_match_a_dict_of_edges(self, drawn, data):
        n, edges = drawn
        reference = {(u, v): w for u, v, w in edges}
        ranked = sorted(reference)
        flat = bulk(n, edges)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for u, v in pairs:
            # a present edge's rank among the sorted edges, an absent one's insertion rank
            want = bisect.bisect_left(ranked, (u, v)), (u, v) in reference
            assert flat.locate(u, v) == want, (u, v)
            assert flat.has_edge(u, v) is want[1]
        edit = st.tuples(st.sampled_from(pairs), WEIGHTS)
        edits = data.draw(st.lists(edit, max_size=6)) if pairs else []
        edited = dict(reference)
        overlay = flat
        for (u, v), w in edits:  # one overlay per edit, then all edits in one
            edited[u, v] = w
            overlay = overlay.with_rating(u, v, w)
            assert_same_store(overlay, bulk(n, [(a, b, x) for (a, b), x in edited.items()]))
        assert_same_store(flat.with_ratings((u, v, w) for (u, v), w in edits), overlay)


@pytest.mark.ci_profile
@settings(deadline=None)
@given(
    dtype=st.sampled_from([np.int64, np.float64]),
    size=st.integers(0, 12),
    data=st.data(),
)
def test_splice_equals_np_insert(dtype, size, data):
    """Ascending positions, repeats and both ends included, insert as ``np.insert`` does."""
    array = np.arange(size, dtype=dtype) * 3 - 7
    at = sorted(data.draw(st.lists(st.integers(0, size), max_size=6)))
    if data.draw(st.booleans()):  # both ends, each twice
        at = [0, 0, *at, size, size]
    values = data.draw(st.lists(st.integers(-50, 50), min_size=len(at), max_size=len(at)))
    values = [dtype(v) / 4 if dtype is np.float64 else v for v in values]
    got = splice(array, at, values)
    assert got.dtype == array.dtype
    assert np.array_equal(got, np.insert(array, np.asarray(at, dtype=np.intp), values))


class EditPathMachine(RuleBasedStateMachine):
    """Random edits applied to a ``Wsn`` and to a plain dict model of its edges.

    After every step the graph's store must equal ``from_arrays`` of the
    model's edge list, array for array, and its scores must be bit-identical
    to the scores of that independent build.
    """

    def __init__(self):
        super().__init__()
        self.graph = Wsn()
        self.n = 0
        self.model: dict[tuple[int, int], float] = {}

    def pair(self, data):
        u = data.draw(st.integers(0, self.n - 1), label="u")
        v = data.draw(st.integers(0, self.n - 2), label="v")
        return u, v + (v >= u)  # any node but u

    @rule()
    def add_node(self):
        assert self.graph.add_node() == self.n
        self.n += 1

    @precondition(lambda self: self.n >= 2)
    @rule(data=st.data(), w=WEIGHTS)
    def add_edge(self, data, w):
        u, v = self.pair(data)
        if (u, v) in self.model:
            with pytest.raises(ValueError, match="already present"):
                self.graph.add_edge(u, v, w)
        else:
            self.graph.add_edge(u, v, w)
            self.model[u, v] = w

    @precondition(lambda self: self.model)
    @rule(data=st.data(), w=WEIGHTS)
    def re_rate(self, data, w):
        u, v = data.draw(st.sampled_from(sorted(self.model)), label="edge")
        assert self.graph.rate(u, v, w) == "weight-update"
        self.model[u, v] = w

    @precondition(lambda self: self.n >= 2)
    @rule(data=st.data(), w=WEIGHTS)
    def rate(self, data, w):
        u, v = self.pair(data)
        kind = "weight-update" if (u, v) in self.model else "edge-addition"
        assert self.graph.rate(u, v, w) == kind
        self.model[u, v] = w

    @invariant()
    def matches_the_bulk_build(self):
        edges = [(u, v, w) for (u, v), w in self.model.items()]
        reference = bulk(self.n, edges)
        assert_same_store(self.graph.flat(), reference)
        assert list(self.graph.edges()) == sorted(edges)
        self.graph.validate()
        have = compute_fga(self.graph, HIGH_PRECISION)
        (want,) = compute_fga_many([reference], config=HIGH_PRECISION)
        assert np.array_equal(have.fairness, want.fairness)
        assert np.array_equal(have.goodness, want.goodness)
        assert have.iterations_run == want.iterations_run


TestEditPath = EditPathMachine.TestCase
TestEditPath.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
