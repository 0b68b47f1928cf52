"""The block builder of ``fga.gadgets`` against an edge-by-edge reference.

The reference below adds one node and one edge at a time, as the gadgets are
described: a pinned rater's sinks come one after another, each followed by
its pinners. Only the numbers of the construction (sink count, pinners per
sink, sink weight) come from ``fga.gadgets``; the nodes, edges and their
canonical order are worked out here.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fga import gadgets
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
        w, sinks, m = gadgets._ballast_plan(fairness, errors)
        for _ in range(sinks):
            sink = self.add_node()
            self.add_edge(rater, sink, w)
            for _ in range(m):
                self.add_edge(self.add_node(), sink, 1.0)


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
