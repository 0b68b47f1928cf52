"""Fairness/goodness fixed-point engine.

Each node carries two mutually recursive scores. Goodness g(v) in [-1, 1] is
the fairness-weighted mean of the ratings v receives:

    g(v) = (1 / indeg(v)) * sum_{u in Pred(v)} f(u) * w(u, v)

Fairness f(u) in [0, 1] penalizes rating error, half the mean absolute gap
between what u says and what the rated node deserves:

    f(u) = 1 - (1 / outdeg(u)) * sum_{v in Succ(u)} |w(u, v) - g(v)| / 2

Unrated nodes have g = 1 and non-rating nodes have f = 1; these baselines are
part of the definition and are re-applied on every sweep. Iteration starts
from f = g = 1 and alternates a full goodness sweep (using the previous
fairness) with a full fairness sweep (using the fresh goodness).

Both sweeps are nonexpansive in the max norm: the goodness sweep is
1-Lipschitz in f because |w| <= 1, the fairness sweep is 1/2-Lipschitz in g,
and the clips and fixed baselines keep both properties. So the fairness step
d_t = max|f_t - f_{t-1}| obeys d_{t+1} <= d_t / 2, and every later iterate T,
the converged one included, has |g_T - g_t| <= d_t + d_t/2 + ... < 2 * d_t at
every node. The residual reported after sweep t is at least d_t. From the
all-ones start d_1 <= 1, so roughly 27 sweeps reach 1e-8.

The greedy attack scan uses that bound through ``_screened_recompute``: a
candidate's warm re-solve stops as soon as the watched goodness provably
cannot end below a floor, g_t - 3 * residual - 1e-12 >= floor. The third
residual and the absolute slack leave room for rounding in the sweep sums.

Every solve sweeps a ``FlatEdges``: ``compute_fga`` and ``recompute_after``
read the graph's cached one, and ``recompute_flat`` takes an edited view
from ``FlatEdges.with_ratings`` directly, so a warm re-solve after k edits
never re-flattens the graph.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .graph import FlatEdges, Wsn


@dataclass(frozen=True)
class FgaConfig:
    """Stopping rule: max-norm residual below tolerance, or the sweep ceiling."""

    max_iterations: int = 100
    residual_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.residual_tolerance > 0:
            raise ValueError("residual_tolerance must be > 0")

    @staticmethod
    def for_epsilon(epsilon: float) -> "FgaConfig":
        """Sweep budget sized by the halving rate: error < 1/2^(t-1) after t sweeps."""
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        sweeps = math.ceil(math.log2(1.0 / epsilon)) + 1
        return FgaConfig(max_iterations=max(2 * sweeps, 16), residual_tolerance=epsilon)


#: Default settings sized for the 1/2^t convergence rate.
DEFAULT_CONFIG = FgaConfig()

#: Tight settings for measurements that are asserted at 1e-9.
HIGH_PRECISION = FgaConfig(max_iterations=400, residual_tolerance=1e-12)


@dataclass
class FgaScores:
    """Converged per-node scores plus how the iteration went."""

    fairness: np.ndarray
    goodness: np.ndarray
    iterations_run: int
    max_residual: float

    @property
    def node_count(self) -> int:
        return len(self.fairness)

    def copy(self) -> "FgaScores":
        return FgaScores(
            fairness=self.fairness.copy(),
            goodness=self.goodness.copy(),
            iterations_run=self.iterations_run,
            max_residual=self.max_residual,
        )


def _iterate_flat(
    flat: FlatEdges,
    fairness: np.ndarray,
    goodness: np.ndarray,
    config: FgaConfig,
    watch: int | None = None,
    floor: float = math.inf,
) -> FgaScores | None:
    """Sweep to the stopping rule; None if g[watch] provably stays >= floor first."""
    n = flat.n
    src, dst, w = flat.src, flat.dst, flat.w
    indeg_safe = np.maximum(flat.indeg, 1.0)
    outdeg_safe = np.maximum(flat.outdeg, 1.0)
    rated = flat.indeg > 0
    rating = flat.outdeg > 0

    f = fairness
    g = goodness
    residual = 0.0
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        g_new = np.where(rated, np.bincount(dst, weights=f[src] * w, minlength=n) / indeg_safe, 1.0)
        np.clip(g_new, -1.0, 1.0, out=g_new)
        err = np.abs(w - g_new[dst]) * 0.5
        f_new = np.where(rating, 1.0 - np.bincount(src, weights=err, minlength=n) / outdeg_safe, 1.0)
        np.clip(f_new, 0.0, 1.0, out=f_new)
        if n:
            residual = max(
                float(np.max(np.abs(f_new - f))),
                float(np.max(np.abs(g_new - g))),
            )
        else:
            residual = 0.0
        f = f_new
        g = g_new
        if residual < config.residual_tolerance:
            break
        # Every later g[watch] lies within 2 * residual of this one (module docstring).
        if watch is not None and g[watch] - 3.0 * residual - 1e-12 >= floor:
            return None
    return FgaScores(fairness=f, goodness=g, iterations_run=iterations, max_residual=residual)


def recompute_flat(flat: FlatEdges, warm: FgaScores, config: FgaConfig | None = None) -> FgaScores:
    """Warm-started iteration on a flat edge view over an unchanged node set."""
    config = config or DEFAULT_CONFIG
    if warm.node_count != flat.n:
        raise ValueError(f"warm scores cover {warm.node_count} nodes, view has {flat.n}")
    return _iterate_flat(flat, warm.fairness.copy(), warm.goodness.copy(), config)


def _screened_recompute(
    flat: FlatEdges, warm: FgaScores, config: FgaConfig, node: int, floor: float
) -> FgaScores | None:
    """``recompute_flat``, abandoned (None) once goodness[node] provably ends >= floor.

    Until it stops, it runs exactly the sweeps of ``recompute_flat``, so a
    solve that is not abandoned returns the same scores bit for bit. Only the
    greedy candidate scan calls it; an abandoned solve is not a result.
    """
    return _iterate_flat(flat, warm.fairness.copy(), warm.goodness.copy(), config, node, floor)


def compute_fga(graph: Wsn, config: FgaConfig | None = None) -> FgaScores:
    """Run the fixed-point iteration from the all-ones start.

    Always returns; failure to converge within the sweep budget shows up as
    ``max_residual >= residual_tolerance`` on the result.
    """
    config = config or DEFAULT_CONFIG
    n = graph.node_count
    return _iterate_flat(graph.flat(), np.ones(n), np.ones(n), config)


def recompute_after(graph: Wsn, warm: FgaScores, config: FgaConfig | None = None) -> FgaScores:
    """Re-converge after edge additions or weight updates, starting from warm scores.

    Nodes added since ``warm`` (fresh fake identities included) start from the
    baselines f = g = 1. The fixed point is unique, so the result matches a
    cold ``compute_fga`` within the residual tolerance, usually in far fewer
    sweeps. Shrinking the node set is not supported.
    """
    config = config or DEFAULT_CONFIG
    n = graph.node_count
    n_old = warm.node_count
    if n < n_old:
        raise ValueError(f"graph has {n} nodes but warm scores cover {n_old}")
    f = np.ones(n)
    g = np.ones(n)
    f[:n_old] = warm.fairness
    g[:n_old] = warm.goodness
    return _iterate_flat(graph.flat(), f, g, config)


def predict_weight(scores: FgaScores, u: int, v: int) -> float:
    """Predicted rating of v by u: the product f(u) * g(v)."""
    n = scores.node_count
    for node in (u, v):
        if not (isinstance(node, int) and 0 <= node < n):
            raise KeyError(f"unknown node {node}")
    return float(scores.fairness[u] * scores.goodness[v])


def export_scores_csv(graph: Wsn, scores: FgaScores, path_or_file) -> None:
    """Write ``node_label,fairness,goodness`` rows with 12 significant digits."""
    if scores.node_count != graph.node_count:
        raise ValueError("scores do not match graph")

    def _write(fh) -> None:
        fh.write("node_label,fairness,goodness\n")
        for node in graph.nodes():
            fh.write(
                f"{graph.label_of(node)},{scores.fairness[node]:.12g},{scores.goodness[node]:.12g}\n"
            )

    if isinstance(path_or_file, io.IOBase) or hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write(fh)
