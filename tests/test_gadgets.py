"""The block builder of ``fga.gadgets`` against an edge-by-edge reference.

The reference below adds one node and one edge at a time, as the gadgets are
described: a pinned rater's sinks come one after another, then the m pinners
they share, and then each pinner rates each sink. Only the numbers of the
construction (sink count, pinner count, sink weight) come from
``fga.gadgets``; the nodes, edges and their canonical order are worked out
here. ``TestSharedPinners`` solves the gadgets and checks every pinned score
against its closed form.
"""

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from fga import gadgets
from fga.engine import FgaConfig, compute_fga
from fga.gadgets import GadgetError


class _EdgeByEdge:
    def __init__(self) -> None:
        self.n = 0
        self.edges: list[tuple[int, int, float]] = []

    def add_node(self) -> int:
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int, w: float) -> None:
        self.edges.append((u, v, w))

    def ballast(self, rater: int, fairness: float, errors: list[float]) -> None:
        w, count, m = gadgets._ballast_plan(fairness, errors)
        sinks = [self.add_node() for _ in range(count)]
        pinners = [self.add_node() for _ in range(m)]
        for sink in sinks:
            self.add_edge(rater, sink, w)
        for pinner in pinners:
            for sink in sinks:
                self.add_edge(pinner, sink, 1.0)


def reference_stabilised_star(k, l, fairness):
    fairness = float(fairness)
    centre_goodness = (2.0 * k * fairness + l) / (2.0 * k + l)
    ref = _EdgeByEdge()
    centre = ref.add_node()
    influencers = []
    for _ in range(k):
        rater = ref.add_node()
        ref.add_edge(rater, centre, 1.0)
        ref.ballast(rater, fairness, [1.0 - centre_goodness])
        influencers.append(rater)
    stabilisers = []
    for _ in range(l):
        stabilisers.append(ref.add_node())
        ref.add_edge(stabilisers[-1], centre, 1.0)
    return ref, (centre, influencers, stabilisers)


def reference_goodness_star(groups):
    centre_goodness = sum(size * f0 * omega for size, f0, omega in groups) / sum(
        size for size, _, _ in groups
    )
    ref = _EdgeByEdge()
    centre = ref.add_node()
    rater_groups = []
    for size, f0, omega in groups:
        raters = []
        for _ in range(size):
            rater = ref.add_node()
            ref.add_edge(rater, centre, omega)
            ref.ballast(rater, f0, [abs(omega - centre_goodness)])
            raters.append(rater)
        rater_groups.append(raters)
    return ref, (centre, rater_groups)


def reference_fairness_fan(errors):
    fairness = 1.0 - sum(errors) / (2.0 * len(errors))
    ref = _EdgeByEdge()
    rater = ref.add_node()
    rated_ids = []
    for d in errors:
        m = gadgets._pinner_count(d, fairness)
        rated = ref.add_node()
        ref.add_edge(rater, rated, gadgets._sink_weight(d, fairness, m))
        for _ in range(m):
            ref.add_edge(ref.add_node(), rated, 1.0)
        rated_ids.append(rated)
    return ref, (rater, rated_ids)


def assert_built_as_reference(build, reference, *args):
    """``build(*args)`` and ``reference(*args)`` raise alike, or give the same ids and store."""
    try:
        graph, *ids = build(*args)
    except GadgetError:
        with pytest.raises(GadgetError):
            reference(*args)
        return
    ref, ref_ids = reference(*args)
    assert tuple(ids) == ref_ids
    flat = graph.flat()
    src, dst, w = zip(*sorted(ref.edges))  # canonical order: by source, then target
    assert flat.n == ref.n
    assert np.array_equal(flat.src, src) and np.array_equal(flat.dst, dst)
    assert np.array_equal(flat.w, w)


FAIRNESS = st.floats(0.05, 1.0, exclude_min=True)


@pytest.mark.ci_profile
class TestBlockBuilder:
    @settings(deadline=None)
    @given(k=st.integers(1, 5), l=st.integers(0, 200), fairness=FAIRNESS)
    @example(k=3, l=4, fairness=1.0)  # no sinks: every ballast plan has count 0
    def test_stabilised_star_matches_an_edge_by_edge_build(self, k, l, fairness):
        assert_built_as_reference(
            gadgets.stabilised_star, reference_stabilised_star, k, l, fairness
        )

    @settings(deadline=None)
    @given(
        groups=st.lists(
            st.tuples(st.integers(1, 5), FAIRNESS, st.floats(-1.0, 1.0)), min_size=1, max_size=3
        )
    )
    @example(groups=[(2, 1.0, 1.0), (3, 1.0, 1.0)])  # no sinks
    def test_goodness_star_matches_an_edge_by_edge_build(self, groups):
        assert_built_as_reference(gadgets.goodness_star, reference_goodness_star, groups)

    @settings(deadline=None)
    @given(errors=st.lists(st.floats(0.0, 2.0, exclude_max=True), min_size=1, max_size=6))
    def test_fairness_fan_matches_an_edge_by_edge_build(self, errors):
        assert_built_as_reference(gadgets.fairness_fan, reference_fairness_fan, errors)


#: Fairness down to the stabiliser's floor, where one rater needs 19 sinks.
PINNED_FAIRNESS = st.floats(0.05, 1.0)

#: Stopped at HIGH_PRECISION's residual of 1e-12, a solve's own error reaches 9.9e-13 on
#: these gadgets; stopped at 1e-14, it stays below 1e-13, so the 1e-12 checked measures the
#: construction, not the stopping rule.
TIGHT = FgaConfig(max_iterations=400, residual_tolerance=1e-14)


class _ClosedForm:
    """A gadget's scores, solved and checked node by node against the closed form; also
    counts the nodes the checked parts account for, against the graph's."""

    def __init__(self, graph) -> None:
        self.flat = graph.flat()
        self.scores = compute_fga(graph, TIGHT)
        assert self.scores.max_residual < TIGHT.residual_tolerance
        self.nodes = 0

    def score(self, kind: str, node: int, wanted: float) -> None:
        got = float(getattr(self.scores, kind)[node])
        assert abs(got - wanted) <= 1e-12, (kind, node, got, wanted)

    def plain(self, node: int, kind: str, wanted: float) -> None:
        self.nodes += 1
        self.score(kind, node, wanted)

    def pinned(self, rater: int, first: int, fairness: float, plan) -> None:
        """``rater``, of ``fairness``, rates sinks ``first``..; the m pinners they share follow.

        Each sink has goodness (2 f w + m) / (m + 2), and each pinner fairness (1 + g) / 2.
        """
        w, count, m = plan
        sinks, pinners = np.arange(first, first + count), np.arange(first + count, first + count + m)
        self.nodes += count + m
        into_sinks = np.isin(self.flat.dst, sinks)
        # no edge is repeated, so these are rater -> sink and pinner -> sink for every pair
        assert set(self.flat.src[into_sinks].tolist()) <= {rater, *pinners.tolist()}
        assert into_sinks.sum() == count * (m + 1)
        sink_goodness = (2.0 * fairness * w + m) / (m + 2.0)
        for sink in sinks:
            self.score("goodness", sink, sink_goodness)
        for pinner in pinners:
            self.score("fairness", pinner, (1.0 + sink_goodness) / 2.0)

    def pinned_rater(self, rater: int, fairness: float, error: float) -> None:
        self.plain(rater, "fairness", fairness)
        self.pinned(rater, rater + 1, fairness, gadgets._ballast_plan(fairness, [error]))

    def done(self) -> None:
        assert self.flat.n == self.nodes


@pytest.mark.ci_profile
class TestSharedPinners:
    """Every pinned score is within 1e-12 of its closed form, and each pinned rater adds
    exactly sinks + m nodes: one set of m pinners rates all of its sinks."""

    @settings(deadline=None)
    @given(k=st.integers(1, 5), l=st.integers(0, 200), fairness=PINNED_FAIRNESS)
    @example(k=1, l=0, fairness=0.05)  # 19 sinks share 42 pinners
    def test_stabilised_star(self, k, l, fairness):
        graph, centre, influencers, stabilisers = gadgets.stabilised_star(k, l, fairness)
        centre_goodness = (2.0 * k * fairness + l) / (2.0 * k + l)
        form = _ClosedForm(graph)
        form.plain(centre, "goodness", centre_goodness)
        for rater in influencers:
            form.pinned_rater(rater, fairness, 1.0 - centre_goodness)
        for stabiliser in stabilisers:
            form.plain(stabiliser, "fairness", (1.0 + centre_goodness) / 2.0)
        form.done()

    @settings(deadline=None)
    @given(
        groups=st.lists(
            st.tuples(st.integers(1, 4), PINNED_FAIRNESS, st.floats(-1.0, 1.0)),
            min_size=1, max_size=3,
        )
    )
    @example(groups=[(2, 0.05, 1.0), (1, 0.9, -0.5)])
    def test_goodness_star(self, groups):
        try:
            graph, centre, rater_groups = gadgets.goodness_star(groups)
        except GadgetError:
            reject()
        total = sum(size for size, _, _ in groups)
        centre_goodness = sum(size * f0 * omega for size, f0, omega in groups) / total
        form = _ClosedForm(graph)
        form.plain(centre, "goodness", centre_goodness)
        for (_, f0, omega), raters in zip(groups, rater_groups):
            for rater in raters:
                form.pinned_rater(rater, f0, abs(omega - centre_goodness))
        form.done()

    @settings(deadline=None)
    @given(errors=st.lists(st.floats(0.0, 2.0, exclude_max=True), min_size=1, max_size=6))
    def test_fairness_fan(self, errors):
        try:
            graph, rater, rated = gadgets.fairness_fan(errors)
        except GadgetError:
            reject()
        fairness = 1.0 - sum(errors) / (2.0 * len(errors))
        form = _ClosedForm(graph)
        form.plain(rater, "fairness", fairness)
        for sink, d in zip(rated, errors):  # each rated node is one sink with m pinners
            m = gadgets._pinner_count(d, fairness)
            form.pinned(rater, sink, fairness, (gadgets._sink_weight(d, fairness, m), 1, m))
        form.done()
