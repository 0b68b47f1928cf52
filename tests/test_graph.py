import re
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from fga.engine import HIGH_PRECISION, compute_fga, compute_fga_many
from fga.graph import FlatEdges, InvariantViolationError, RatingScale, Wsn

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
        assert g.outdeg(0) == 1
        assert g.indeg(0) == 0
        assert g.outdeg(1) == 0
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


class TestUpdateWeight:
    def test_replaces_weight(self):
        g = pair_graph(1.0)
        g.update_weight(0, 1, -1.0)
        assert g.weight(0, 1) == -1.0
        assert g.edge_count == 1

    def test_missing_edge(self):
        g = pair_graph()
        with pytest.raises(KeyError, match="does not exist"):
            g.update_weight(1, 0, 0.2)

    def test_same_weight_is_identity(self):
        g = pair_graph(0.25)
        before = g.copy()
        g.update_weight(0, 1, 0.25)
        assert g == before


class TestNeighbourhood:
    def test_isolated_node(self):
        g = Wsn()
        g.add_node()
        assert g.pred(0) == set() and g.succ(0) == set()
        assert g.indeg(0) == 0 and g.outdeg(0) == 0

    def test_pair(self):
        g = pair_graph()
        assert g.pred(1) == {0}
        assert g.succ(0) == {1}

    def test_triangle(self):
        g = Wsn()
        for _ in range(3):
            g.add_node()
        g.add_edge(0, 1, 0.1)
        g.add_edge(1, 2, 0.2)
        g.add_edge(2, 0, 0.3)
        for v in range(3):
            assert g.indeg(v) == 1
            assert g.outdeg(v) == 1

    def test_unknown_node(self):
        g = pair_graph()
        for query in (g.pred, g.succ, g.indeg, g.outdeg):
            for node in (2, -1):
                with pytest.raises(KeyError):
                    query(node)
            with pytest.raises(TypeError):
                query(1.0)  # not an integer, so not a node id at all

    def test_queries_share_the_cached_flat(self):
        g = pair_graph()
        flat = g.flat()
        assert g.indeg(1) == 1 and g.pred(1) == {0}
        assert g.flat() is flat
        assert all(type(u) is int for u in g.pred(1))


class TestNodeIds:
    """Any integer type names a node; bools and non-integers are type errors."""

    @pytest.mark.parametrize("node", [1, np.int64(1), np.int32(1), np.uint8(1)])
    def test_integer_types_accepted(self, node):
        from fga.engine import compute_fga, predict_weight

        g = pair_graph(0.5)
        assert g.indeg(node) == 1
        assert g.weight(0, node) == 0.5
        assert g.pred(node) == {0}
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
        assert all(type(v) is int for v in g.succ(2))
        assert g.edges().__next__() == (0, 1, 0.5)


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
        assert sum(g.outdeg(v) for v in g.nodes()) == g.edge_count
        edges = list(g.edges())
        for v in g.nodes():
            sources = {u for u, x, _ in edges if x == v}
            assert g.pred(v) == sources
            assert g.indeg(v) == len(sources)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(), st.floats(min_value=-1, max_value=1, allow_nan=False))
    def test_add_then_remove_is_identity(self, g, w):
        free = [
            (u, v)
            for u in g.nodes()
            for v in g.nodes()
            if u != v and not g.has_edge(u, v)
        ]
        if not free:
            return
        before = g.copy()
        u, v = free[0]
        sources = g.pred(v)
        g.add_edge(u, v, w)
        assert g.pred(v) == sources | {u}
        assert g.indeg(v) == len(sources) + 1
        g.remove_edge(u, v)
        assert g.pred(v) == sources
        assert g.indeg(v) == len(sources)
        assert g == before

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

    def test_ensure_node(self):
        g = Wsn()
        a = g.ensure_node("x")
        assert g.ensure_node("x") == a
        assert g.node_count == 1

    def test_default_labels(self):
        g = Wsn()
        assert g.add_node() == 0
        assert g.label_of(0) == "0"

    def test_default_names_are_implied_not_stored(self):
        g = Wsn()
        for _ in range(3):
            g.add_node()
        assert g._ids == {} and g._labels == [None, None, None]
        assert g.labels() == ["0", "1", "2"]
        assert [g.id_of(label) for label in ("0", "1", "2")] == [0, 1, 2]
        assert g.ensure_node("2") == 2 and g.node_count == 3
        for other in ("00", "+1", " 1", "3", "\u0661", "x"):  # not the name of a node
            with pytest.raises(KeyError):
                g.id_of(other)
        g.validate()

    def test_default_and_explicit_names_never_collide(self):
        g = Wsn()
        g.add_node()  # "0"
        with pytest.raises(ValueError, match="duplicate node label '0'"):
            g.add_node("0")
        g.add_node("2")  # node 1, explicitly named like node 2's default
        with pytest.raises(ValueError, match="duplicate node label '2'"):
            g.add_node()
        assert g.labels() == ["0", "2"] and g.id_of("2") == 1
        assert g.ensure_node("3") == 2 and g.label_of(2) == "3"
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
        dup.update_weight(0, 1, -1.0)
        dup.add_node("c")
        assert g.weight(0, 1) == 0.5
        assert g.node_count == 2

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
        src * n + dst,
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
        g = triangle_graph()
        raw_store(g, [(0, 1, 0.5), (1, 2, -0.25)], n=4)
        with pytest.raises(InvariantViolationError, match="covers 4 nodes, the graph 3"):
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


FLAT_ARRAYS = ("src", "dst", "w", "key", "indeg", "outdeg")


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
        assert flat.key.tolist() == [1, 2, 11, 12]
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
        assert flat.key.tolist() == [u * n + v for u, v, _ in edges]
        assert flat.indeg.tolist() == [sum(v == x for _, x, _ in edges) for v in range(n)]
        assert flat.outdeg.tolist() == [sum(u == x for x, _, _ in edges) for u in range(n)]
        for u in range(n):
            assert g.succ(u) == {v for x, v, _ in edges if x == u}
            assert g.outdeg(u) == len(g.succ(u))
        assert_same_store(flat, bulk(n, drawn_edges))

    @pytest.mark.parametrize(
        "mutate, n, edges",
        [
            (lambda g: g.add_node("d"), 4, [(0, 1, 0.5), (1, 2, -0.25)]),
            (lambda g: g.ensure_node("d"), 4, [(0, 1, 0.5), (1, 2, -0.25)]),
            (lambda g: g.add_edge(2, 0, 1.0), 3, [(0, 1, 0.5), (1, 2, -0.25), (2, 0, 1.0)]),
            (lambda g: g.update_weight(0, 1, -1.0), 3, [(0, 1, -1.0), (1, 2, -0.25)]),
            (lambda g: g.remove_edge(1, 2), 3, [(0, 1, 0.5)]),
            (lambda g: g.rate(0, 2, 0.75), 3, [(0, 1, 0.5), (0, 2, 0.75), (1, 2, -0.25)]),
        ],
        ids=["add_node", "ensure_node", "add_edge", "update_weight", "remove_edge", "rate"],
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


class TestFromArrays:
    """The bulk constructor sorts once and rejects what ``add_edge`` rejects."""

    def test_sorts_any_input_order(self):
        edges = [(3, 0, 0.1), (0, 2, 0.2), (0, 1, -0.3), (2, 3, 1.0)]
        flat = bulk(4, edges)
        assert flat.key.tolist() == [1, 2, 11, 12]
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
            assert flat.n == n and len(flat.key) == 0
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
             r"edge \(0, 1\) already present; use update_weight"),
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

    @precondition(lambda self: self.n >= 2)
    @rule(data=st.data(), w=WEIGHTS)
    def update_weight(self, data, w):
        u, v = self.pair(data)
        if (u, v) in self.model:
            self.graph.update_weight(u, v, w)
            self.model[u, v] = w
        else:
            with pytest.raises(KeyError, match="does not exist"):
                self.graph.update_weight(u, v, w)

    @precondition(lambda self: self.n >= 2)
    @rule(data=st.data(), w=WEIGHTS)
    def rate(self, data, w):
        u, v = self.pair(data)
        kind = "weight-update" if (u, v) in self.model else "edge-addition"
        assert self.graph.rate(u, v, w) == kind
        self.model[u, v] = w

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove_edge(self, data):
        u, v = data.draw(st.sampled_from(sorted(self.model)), label="edge")
        self.graph.remove_edge(u, v)
        del self.model[u, v]

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
