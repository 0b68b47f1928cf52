"""The sweep kernel and the random generators against reference forms, bit for bit.

The reference sweep is the recurrences as written: every mean clipped into
range, and each gap halved on its edge. The engine clips nothing and halves
in the divisor; its module docstring proves that no bit moves while every
score is in range and no gap is an odd multiple of 2^-1074, and that such a
gap changes a result only through a run of rounding ties over at least 18
out-edges of one node, more than these graphs have. The reference generators
draw one value per call; the generators draw in bulk from the same stream.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fga.engine import (
    DEFAULT_CONFIG,
    HIGH_PRECISION,
    FgaConfig,
    FgaScores,
    WarmEdits,
    compute_fga,
    compute_fga_many,
)
from fga.generators import generate_min_k_neighbour, generate_random_graph
from fga.graph import Wsn

CONFIGS = [HIGH_PRECISION, DEFAULT_CONFIG, FgaConfig(max_iterations=3)]


def reference_sweeps(flat, f, g):
    """Sweep ``flat`` from (f, g) without end, yielding each sweep's (f, g, residual)."""
    indeg, outdeg = np.maximum(flat.indeg, 1.0), np.maximum(flat.outdeg, 1.0)
    while True:
        terms = f[flat.src] * flat.w
        g_new = np.bincount(flat.dst, terms, flat.n) / indeg
        g_new = np.maximum(np.minimum(g_new, 1.0), -1.0)
        g_new[flat.indeg == 0] = 1.0
        gaps = np.abs(flat.w - g_new[flat.dst])
        gaps *= 0.5
        f_new = 1.0 - np.bincount(flat.src, gaps, flat.n) / outdeg
        f_new = np.maximum(np.minimum(f_new, 1.0), 0.0)
        f_new[flat.outdeg == 0] = 1.0
        residual = max(np.abs(f_new - f).max(), np.abs(g_new - g).max())
        f, g = f_new, g_new
        yield f, g, float(residual)


def assert_sweep_equals(got_f, got_g, got_residual, want):
    f, g, residual = want
    assert got_f.tobytes() == f.tobytes()
    assert got_g.tobytes() == g.tobytes()
    assert got_residual == residual


def draw_graph(data, max_nodes: int = 8) -> Wsn:
    """Any edge set on 1 to ``max_nodes`` nodes, weights anywhere in [-1, 1]."""
    n = data.draw(st.integers(min_value=1, max_value=max_nodes), label="n")
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
    weights = data.draw(
        st.lists(st.floats(-1.0, 1.0), min_size=len(chosen), max_size=len(chosen)), label="w"
    )
    return Wsn.from_arrays(n, [u for u, _ in chosen], [v for _, v in chosen], weights)


def draw_start(data, n: int) -> FgaScores | None:
    """None (cold), or any in-range scores, not converged for any graph."""
    if not data.draw(st.booleans(), label="warm"):
        return None
    fairness = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n), label="f0")
    goodness = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), label="g0")
    return FgaScores(np.array(fairness), np.array(goodness), 0, np.inf)


@pytest.mark.ci_profile
@settings(deadline=None)  # examples: the hypothesis profile's (tests/conftest.py)
@given(st.data())
def test_dense_sweeps_equal_the_reference(data):
    g = draw_graph(data)
    warm = draw_start(data, g.node_count)
    config = data.draw(st.sampled_from(CONFIGS), label="config")
    flat = g.flat()
    start = (np.ones(flat.n), np.ones(flat.n)) if warm is None else (warm.fairness, warm.goodness)
    want = reference_sweeps(flat, *start)
    (final,) = compute_fga_many([flat], warm, config)
    for t in range(1, final.iterations_run + 1):
        (got,) = compute_fga_many([flat], warm, dataclasses.replace(config, max_iterations=t))
        assert got.iterations_run == t
        assert_sweep_equals(got.fairness, got.goodness, got.max_residual, next(want))


@pytest.mark.ci_profile
@settings(deadline=None)
@given(st.data())
def test_frontier_sweeps_equal_the_reference(data):
    g = draw_graph(data)
    g.add_node()  # at least two nodes, one of them isolated
    nodes = g.nodes()
    warm_sweeps = data.draw(st.sampled_from([1, 2, 400]), label="warm sweeps")
    warm = compute_fga(g, dataclasses.replace(HIGH_PRECISION, max_iterations=warm_sweeps))
    a, r = data.draw(st.sampled_from([(u, v) for u in nodes for v in nodes if u != v]), "edit")
    weight = data.draw(st.floats(-1.0, 1.0), label="weight")
    config = data.draw(st.sampled_from(CONFIGS), label="config")
    want = reference_sweeps(g.flat().with_rating(a, r, weight), warm.fairness, warm.goodness)
    solve = WarmEdits(g.flat(), warm, config).solve(a, r, weight)
    while not solve.stopped:
        solve.advance()  # sweeps 1 and 2 on the frontier, then dense sweeps of the overlay
        assert_sweep_equals(solve.fairness, solve.goodness, solve.residual, next(want))


def reference_random_graph(n, avg_out_degree, seed, positive_fraction):
    target_edges = min(int(round(n * avg_out_degree)), n * (n - 1))
    rng = np.random.default_rng([seed, n])
    chosen = set()
    while len(chosen) < target_edges:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            chosen.add((u, v))
    pairs = sorted(chosen)
    weights = []
    for _ in pairs:
        magnitude = float(rng.uniform(0.05, 1.0))
        sign = 1.0 if rng.random() < positive_fraction else -1.0
        weights.append(sign * magnitude)
    return Wsn.from_arrays(n, [u for u, _ in pairs], [v for _, v in pairs], weights)


def reference_min_k_neighbour(n, k, seed):
    rng = np.random.default_rng([seed, n, k])
    edges = [(u, (u + shift) % n) for shift in range(1, k + 1) for u in range(n)]
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.integers(0, len(edges), size=2)
        if i == j:
            continue
        (u1, v1), (u2, v2) = edges[i], edges[j]
        if u1 == v2 or u2 == v1 or (u1, v2) in present or (u2, v1) in present:
            continue
        present -= {(u1, v1), (u2, v2)}
        present |= {(u1, v2), (u2, v1)}
        edges[i], edges[j] = (u1, v2), (u2, v1)
    src, dst = zip(*sorted(present))
    return Wsn.from_arrays(n, src, dst, [float(rng.uniform(-1.0, 1.0)) for _ in src])


def assert_same_arrays(got: Wsn, want: Wsn):
    assert got.node_count == want.node_count
    for name in ("src", "dst", "w"):
        got_array, want_array = getattr(got.flat(), name), getattr(want.flat(), name)
        assert got_array.dtype == want_array.dtype
        assert got_array.tobytes() == want_array.tobytes(), name


@pytest.mark.ci_profile
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
@pytest.mark.parametrize("avg_out_degree", [0.0, 0.5, 2.0, 4.0, 8.0, 12.5])  # 4.0 up saturate n <= 5
@pytest.mark.parametrize("positive_fraction", [0.0, 0.5, 0.9, 1.0])
def test_random_graph_equals_the_reference(n, avg_out_degree, positive_fraction):
    for seed in range(3):
        assert_same_arrays(
            generate_random_graph(n, avg_out_degree, seed, positive_fraction),
            reference_random_graph(n, avg_out_degree, seed, positive_fraction),
        )


@pytest.mark.ci_profile
def test_otc_size_random_graph_equals_the_reference():
    """The seed-1 bitcoin-otc-sized draw (6,000 nodes, 36,000 edges) of the benchmark."""
    assert_same_arrays(
        generate_random_graph(6000, 6.0, 1, 0.89), reference_random_graph(6000, 6.0, 1, 0.89)
    )


@pytest.mark.ci_profile
@pytest.mark.parametrize("n, k", [(2, 1), (5, 4), (9, 2), (12, 1), (30, 3)])
def test_min_k_neighbour_equals_the_reference(n, k):
    for seed in range(8):
        assert_same_arrays(generate_min_k_neighbour(n, k, seed), reference_min_k_neighbour(n, k, seed))
