"""Synthetic network generators: dense-minimum-degree digraphs, complete and random graphs.

Stabilised stars come from ``gadgets.stabilised_star``. Random draws are made
in bulk: ``Generator.integers``, ``uniform`` and ``random`` fill an array from
the same stream as one scalar call per value, so every graph equals the one
drawn value by value, in the order each docstring gives.
"""

from __future__ import annotations

import numpy as np

from .graph import Wsn, as_count


def generate_min_k_neighbour(n: int, k: int, seed: int = 0) -> Wsn:
    """Random digraph where every node has exactly k in- and out-edges.

    Each node's k incoming edges carry an absolute-weight mass of at most
    k, so the minimum-k-neighbour certificate holds by construction. Starts
    from k cyclic shifts, tries 10 * n * k degree-preserving swaps of two
    drawn edges, then draws one weight per edge in canonical order.
    """
    n, k, seed = as_count(n, "n"), as_count(k, "k", 1), as_count(seed, "seed")
    if n < k + 1:
        raise ValueError(f"infeasible: need n >= k + 1, got n={n}, k={k}")

    rng = np.random.default_rng([seed, n, k])
    edges = [(u, (u + shift) % n) for shift in range(1, k + 1) for u in range(n)]
    present = set(edges)
    for i, j in rng.integers(0, len(edges), size=(10 * len(edges), 2)).tolist():
        if i == j:
            continue
        (u1, v1), (u2, v2) = edges[i], edges[j]
        if u1 == v2 or u2 == v1:
            continue
        if (u1, v2) in present or (u2, v1) in present:
            continue
        present.discard((u1, v1))
        present.discard((u2, v2))
        present.add((u1, v2))
        present.add((u2, v1))
        edges[i] = (u1, v2)
        edges[j] = (u2, v1)

    src, dst = zip(*sorted(present))
    return Wsn.from_arrays(n, src, dst, rng.uniform(-1.0, 1.0, size=len(src)))


def generate_complete_positive(n: int) -> Wsn:
    """Every ordered pair rated with the maximum weight 1.0."""
    n = as_count(n, "n", 1)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    return Wsn.from_arrays(n, src, dst, np.ones(len(src)))


def generate_random_graph(
    n: int,
    avg_out_degree: float = 3.0,
    seed: int = 0,
    positive_fraction: float = 0.9,
) -> Wsn:
    """Sparse random digraph with rating-like weights.

    Edges are the first round(n * avg_out_degree) distinct pairs (u, v), u !=
    v, of a stream of draws of u then v (capped at every pair). Then each
    edge, in canonical order, draws a magnitude in [0.05, 1) and a sign:
    ``positive_fraction`` of the edges are positive; trust networks are
    predominantly positive.
    """
    n, seed = as_count(n, "n", 1), as_count(seed, "seed")
    if not 0.0 <= positive_fraction <= 1.0:
        raise ValueError("positive_fraction must be in [0, 1]")
    if not 0.0 <= avg_out_degree < np.inf:
        raise ValueError(f"avg_out_degree must be finite and >= 0, got {avg_out_degree}")
    target_edges = min(int(round(n * avg_out_degree)), n * (n - 1))
    rng = np.random.default_rng([seed, n])
    codes = np.sort(_distinct_pairs(rng, n, target_edges))
    draws = rng.random(2 * len(codes))  # per edge: uniform(0.05, 1.0), then random()
    magnitude = 0.05 + (1.0 - 0.05) * draws[0::2]
    weights = np.where(draws[1::2] < positive_fraction, magnitude, -magnitude)
    return Wsn.from_arrays(n, codes // n, codes % n, weights)


def _distinct_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """The first ``count`` distinct pairs u != v, as codes u * n + v, of draws of u then v.

    Draws in batches, then rewinds ``rng`` and replays exactly the draws
    used, so the stream ends where one scalar draw per value would leave it.
    """
    if not count:
        return np.empty(0, dtype=np.int64)
    state = rng.bit_generator.state
    pairs = np.empty((0, 2), dtype=np.int64)
    while True:
        more = rng.integers(0, n, size=(max(len(pairs), count + count // 4 + 16), 2))
        pairs = np.concatenate([pairs, more])
        codes = pairs[:, 0] * n + pairs[:, 1]
        codes[pairs[:, 0] == pairs[:, 1]] = -1  # a self-loop is drawn, then skipped
        _, first = np.unique(codes, return_index=True)  # each code's first draw
        first = np.sort(first[codes[first] >= 0])
        if len(first) >= count:
            break
    rng.bit_generator.state = state
    rng.integers(0, n, size=(first[count - 1] + 1, 2))
    return codes[first[:count]]
