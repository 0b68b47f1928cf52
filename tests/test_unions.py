"""The engine's two batch paths against one graph at a time, bit for bit.

``engine._solve_edge_blocks`` solves gadgets handed in unbuilt, and a batch
of them is sorted once; ``engine._solve_overlays`` builds a batch of edit
groups of one store as one union (``graph.overlay_union``). Each result must
equal the graph's own solve in every array, its sweep count and its residual,
with one graph per batch, a few per batch, or the default batch size.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fga import engine, gadgets
from fga.engine import HIGH_PRECISION, FgaConfig, compute_fga, recompute_flat
from fga.generators import generate_random_graph
from fga.graph import overlay_union

#: ``_BATCH_ITEMS``: one graph per batch, a few graphs per batch, and the default.
BATCH_ITEMS = [1, 400, None]

#: A converged solve, and one stopped at its sweep ceiling.
CONFIGS = st.sampled_from([HIGH_PRECISION, FgaConfig(max_iterations=5)])

FAIRNESS = st.floats(0.05, 1.0, exclude_min=True)

GADGETS = st.one_of(
    st.tuples(
        st.just("goodness_star"),
        st.tuples(st.lists(st.tuples(st.integers(1, 4), FAIRNESS, st.floats(-1.0, 1.0)),
                           min_size=1, max_size=3)),
    ),
    st.tuples(
        st.just("fairness_fan"),
        st.tuples(st.lists(st.floats(0.0, 2.0, exclude_max=True), min_size=1, max_size=4)),
    ),
    st.tuples(
        st.just("stabilised_star"), st.tuples(st.integers(1, 3), st.integers(0, 30), FAIRNESS)
    ),
)

WEIGHTS = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0])


def batch_items(items):
    """Patch the engine's batch size, or leave it at its default for None."""
    if items is None:
        return contextlib.nullcontext()
    return mock.patch.object(engine, "_BATCH_ITEMS", items)


def assert_same_scores(got, want):
    assert got.iterations_run == want.iterations_run
    assert got.max_residual == want.max_residual
    assert got.fairness.tobytes() == want.fairness.tobytes()
    assert got.goodness.tobytes() == want.goodness.tobytes()


def shuffled_graph(n: int, seed: int):
    """A random graph's node count and its edges as one block, in a shuffled order."""
    flat = generate_random_graph(n, 2.0, seed=seed).flat()
    order = np.random.default_rng(seed).permutation(len(flat.src))
    return flat, (flat.n, [(flat.src[order], flat.dst[order], flat.w[order])])


@pytest.mark.ci_profile
class TestGadgetUnions:
    @pytest.mark.parametrize("items", BATCH_ITEMS)
    @settings(deadline=None)  # examples: the hypothesis profile's (tests/conftest.py)
    @given(specs=st.lists(GADGETS, min_size=1, max_size=6), config=CONFIGS,
           graphs=st.lists(st.tuples(st.integers(1, 12), st.integers(0, 99)), max_size=2))
    def test_each_gadget_equals_its_own_solve(self, items, specs, config, graphs):
        unbuilt, want = [], []
        for name, args in specs:
            try:
                edges = getattr(gadgets, f"_{name}")(*args)[0]
            except gadgets.GadgetError:
                continue
            unbuilt.append((edges.n, edges.blocks))
            want.append(compute_fga(getattr(gadgets, name)(*args)[0], config))
        for n, seed in graphs:  # a built store's edges, in any order, are a block too
            flat, graph = shuffled_graph(n, seed)
            unbuilt.append(graph)
            want.append(next(engine.compute_fga_many([flat], None, config)))
        with batch_items(items):
            got = list(engine._solve_edge_blocks(unbuilt, config))
        assert len(got) == len(want)
        for one, solo in zip(got, want):
            assert_same_scores(one, solo)


def draw_groups(data, n: int) -> list[tuple[tuple[int, int, float], ...]]:
    """Groups of one to three edits of distinct edges, additions and updates alike."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    groups = []
    for _ in range(data.draw(st.integers(1, 8), label="groups")):
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True),
                          label="edges")
        groups.append(tuple((u, v, data.draw(WEIGHTS, label="w")) for u, v in edges))
    return groups


def assert_overlays(flat, warm, groups, items, config=HIGH_PRECISION):
    """The union's components are the groups' ``with_ratings`` stores, and its solves are
    their ``recompute_flat`` solves."""
    union = overlay_union(flat, flat.src * flat.n + flat.dst, groups)
    assert union.n == flat.n * len(groups)
    edge = 0
    for b, group in enumerate(groups):
        want = flat.with_ratings(group)
        m = len(want.src)
        for name in ("src", "dst"):
            assert np.array_equal(getattr(union, name)[edge:edge + m] - b * flat.n,
                                  getattr(want, name)), (b, name)
        assert union.w[edge:edge + m].tobytes() == want.w.tobytes(), b
        for name in ("indeg", "outdeg"):
            nodes = getattr(union, name)[b * flat.n:(b + 1) * flat.n]
            assert nodes.tobytes() == getattr(want, name).tobytes(), (b, name)
        edge += m
    assert edge == len(union.src)
    with batch_items(items):
        solved = list(engine._solve_overlays(flat, groups, warm, config))
    assert [group for group, _ in solved] == groups
    for group, (_, scores) in zip(groups, solved):
        assert_same_scores(scores, recompute_flat(flat.with_ratings(group), warm, config))


@pytest.mark.ci_profile
class TestOverlayUnions:
    @pytest.mark.parametrize("items", BATCH_ITEMS)
    @settings(deadline=None)  # examples: the hypothesis profile's (tests/conftest.py)
    @given(data=st.data())
    def test_overlays_equal_their_own_stores_and_solves(self, items, data):
        n = data.draw(st.integers(2, 9), label="n")
        graph = generate_random_graph(n, 2.0, seed=data.draw(st.integers(0, 99), label="seed"))
        warm = compute_fga(graph, HIGH_PRECISION)
        flat = graph.flat()
        for _ in range(data.draw(st.integers(0, 2), label="grown")):
            flat = flat.with_node()  # the added nodes start at 1, as _start starts them
        config = data.draw(CONFIGS, label="config")
        assert_overlays(flat, warm, draw_groups(data, flat.n), items, config)

    @pytest.mark.parametrize("items", BATCH_ITEMS)
    def test_edits_at_either_end_of_the_store(self, items):
        graph = generate_random_graph(8, 2.0, seed=3)
        flat = graph.flat()
        first = (int(flat.src[0]), int(flat.dst[0]))
        last = (int(flat.src[-1]), int(flat.dst[-1]))
        assert first != (0, 1) and last != (7, 6)  # so the additions below go at 0 and at m
        groups = [
            ((0, 1, 1.0),),  # an addition at position 0
            ((7, 6, -1.0),),  # an addition at position m
            ((*first, 0.25),),  # an update at position 0
            ((*last, -0.5),),  # an update at position m - 1
            ((0, 1, -0.5), (7, 6, 0.0), (*first, 1.0)),
        ]
        assert flat.locate(0, 1) == (0, False) and flat.locate(7, 6) == (len(flat.src), False)
        assert_overlays(flat, compute_fga(graph, HIGH_PRECISION), groups, items)
        grown = flat.with_node()  # the fake rater of the Sybil harnesses
        sybil = [((8, r, w),) for r in (0, 3, 7) for w in (-1.0, 1.0)]
        assert_overlays(grown, compute_fga(graph, HIGH_PRECISION), sybil, items)
