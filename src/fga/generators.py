"""Synthetic network generators: dense-minimum-degree digraphs, complete and random graphs.

Stabilised stars come from ``gadgets.stabilised_star``.
"""

from __future__ import annotations

import numpy as np

from .graph import Wsn


def generate_min_k_neighbour(n: int, k: int, seed: int = 0) -> Wsn:
    """Random digraph where every node has exactly k in- and out-edges.

    Each node's k incoming edges carry an absolute-weight mass of at most
    k, so the minimum-k-neighbour certificate holds by construction. Starts
    from k cyclic shifts and randomizes with degree-preserving edge swaps.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k + 1:
        raise ValueError(f"infeasible: need n >= k + 1, got n={n}, k={k}")

    rng = np.random.default_rng([seed, n, k])
    edges = [(u, (u + shift) % n) for shift in range(1, k + 1) for u in range(n)]
    present = set(edges)
    swaps = 10 * len(edges)
    for _ in range(swaps):
        i, j = rng.integers(0, len(edges), size=2)
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
    return Wsn.from_arrays(n, src, dst, [float(rng.uniform(-1.0, 1.0)) for _ in src])


def generate_complete_positive(n: int) -> Wsn:
    """Every ordered pair rated with the maximum weight 1.0."""
    if n < 1:
        raise ValueError("n must be >= 1")
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    return Wsn.from_arrays(n, src, dst, np.ones(len(src)))


def generate_random_graph(
    n: int,
    avg_out_degree: float = 3.0,
    seed: int = 0,
    positive_fraction: float = 0.9,
) -> Wsn:
    """Sparse random digraph with rating-like weights.

    ``positive_fraction`` of the edges get weights in (0, 1], the rest in
    [-1, 0); trust networks are predominantly positive.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= positive_fraction <= 1.0:
        raise ValueError("positive_fraction must be in [0, 1]")
    if not 0.0 <= avg_out_degree < np.inf:
        raise ValueError(f"avg_out_degree must be finite and >= 0, got {avg_out_degree}")
    target_edges = min(int(round(n * avg_out_degree)), n * (n - 1))
    rng = np.random.default_rng([seed, n])
    chosen: set[tuple[int, int]] = set()
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
