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

Every solve sweeps a ``FlatEdges``: the graph's own edge store
(``compute_fga``, ``recompute_after``) or an overlay of it from
``FlatEdges.with_ratings`` (``recompute_flat``), so no solve copies a graph.

``compute_fga_many`` solves many graphs at once, for the thousands of tiny
gadgets and move sets where per-call numpy overhead, not arithmetic, is the
cost. It concatenates their arrays with node offsets into one disjoint
union (still in canonical order) and sweeps it as one graph. The
recurrences never couple two components, so each keeps its own fixed point,
and each stops on its own rule: its residual is the maximum over its own
nodes, and once that drops below the tolerance (or the sweep ceiling is
hit) the component's scores, sweep count and residual are recorded, and
what later sweeps do to it is ignored. Stopped components are cut out of the
union once they hold half its nodes, so at most half of any sweep is spent
on them and each cut at least halves the union. Every result is
bit-identical to the component's solo solve: a sweep is elementwise except
for ``bincount``, which adds each node's terms in array order, and that
order within the union is the component's own canonical order; maxima are
exact. Unions are cut at ``_BATCH_ITEMS`` nodes plus edges, so memory stays
bounded. A single solve is a batch of one through the same loop.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import FlatEdges, Wsn, node_index


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


#: Nodes plus edges of one batched union; larger inputs are cut into batches.
_BATCH_ITEMS = 1 << 15


def _iterate_flat(
    flats: list[FlatEdges],
    starts: list[tuple[np.ndarray, np.ndarray]],
    config: FgaConfig,
    watch: int | None = None,
    floor: float = math.inf,
) -> list[FgaScores] | None:
    """The one sweep loop: solve the disjoint union of non-empty ``flats``.

    Each component stops on its own rule and keeps the scores, sweep count
    and residual of that sweep. None if g[watch] of a batch of one provably
    stays >= floor before it stops.
    """
    if len(flats) == 1:
        (flat,) = flats
        src, dst, w = flat.src, flat.dst, flat.w
        indeg, outdeg = flat.indeg, flat.outdeg
        f, g = starts[0]
        sizes = np.array([flat.n])
        edge_sizes = np.array([len(src)])
    else:
        sizes = np.array([flat.n for flat in flats])
        edge_sizes = np.array([len(flat.src) for flat in flats])
        shift = np.repeat(np.cumsum(sizes) - sizes, edge_sizes)
        src = np.concatenate([flat.src for flat in flats]) + shift
        dst = np.concatenate([flat.dst for flat in flats]) + shift
        w = np.concatenate([flat.w for flat in flats])
        indeg = np.concatenate([flat.indeg for flat in flats])
        outdeg = np.concatenate([flat.outdeg for flat in flats])
        f = np.concatenate([f for f, _ in starts])
        g = np.concatenate([g for _, g in starts])
    indeg_safe = np.maximum(indeg, 1.0)
    outdeg_safe = np.maximum(outdeg, 1.0)
    unrated = indeg == 0
    silent = outdeg == 0
    offsets = np.cumsum(sizes) - sizes
    active = np.arange(len(flats))
    stopped = np.zeros(len(flats), dtype=bool)
    results: list[FgaScores | None] = [None] * len(flats)
    tolerance = config.residual_tolerance
    edge_buf = np.empty(len(src))
    node_buf = np.empty(len(f))
    node_buf2 = np.empty(len(f))
    for iterations in range(1, config.max_iterations + 1):
        n = len(f)
        # clip mode: every index is in range, and it skips the copy of out that raise mode makes
        f.take(src, out=edge_buf, mode="clip")
        edge_buf *= w
        # bincount of no edges gives int zeros, which the in-place divide rejects
        g_new = np.bincount(dst, weights=edge_buf, minlength=n) if len(w) else np.zeros(n)
        g_new /= indeg_safe
        np.copyto(g_new, 1.0, where=unrated)
        np.minimum(g_new, 1.0, out=g_new)
        np.maximum(g_new, -1.0, out=g_new)
        g_new.take(dst, out=edge_buf, mode="clip")
        np.subtract(w, edge_buf, out=edge_buf)
        np.abs(edge_buf, out=edge_buf)
        edge_buf *= 0.5
        f_new = np.bincount(src, weights=edge_buf, minlength=n) if len(w) else np.zeros(n)
        f_new /= outdeg_safe
        np.subtract(1.0, f_new, out=f_new)
        np.copyto(f_new, 1.0, where=silent)
        np.minimum(f_new, 1.0, out=f_new)
        np.maximum(f_new, 0.0, out=f_new)
        # residual: max |change| of fairness and goodness over each component
        delta = np.subtract(f_new, f, out=node_buf)
        np.abs(delta, out=delta)
        g_delta = np.subtract(g_new, g, out=node_buf2)
        np.abs(g_delta, out=g_delta)
        np.maximum(delta, g_delta, out=delta)
        residuals = np.maximum.reduceat(delta, offsets)
        f, g = f_new, g_new
        done = residuals < tolerance
        # Every later g[watch] lies within 2 * residual of this one (module docstring).
        if watch is not None and not done[0] and g[watch] - 3.0 * residuals[0] - 1e-12 >= floor:
            return None
        if iterations == config.max_iterations:
            done[:] = True
        done &= ~stopped
        if not done.any():
            continue
        if len(active) == 1:
            results[active[0]] = FgaScores(f, g, iterations, float(residuals[0]))
            break
        for i in np.flatnonzero(done).tolist():
            lo, hi = offsets[i], offsets[i] + sizes[i]
            results[active[i]] = FgaScores(
                f[lo:hi].copy(), g[lo:hi].copy(), iterations, float(residuals[i])
            )
        stopped |= done
        if stopped.all():
            break
        if 2 * int(sizes[stopped].sum()) < len(f):
            continue  # sweeping the stopped ones costs less than rebuilding the union
        # Drop the stopped components; the rest keep their order and offsets shift down.
        keep = ~stopped
        node_keep = np.repeat(keep, sizes)
        edge_keep = np.repeat(keep, edge_sizes)
        removed = np.where(stopped, sizes, 0)
        shift = np.repeat((np.cumsum(removed) - removed)[keep], edge_sizes[keep])
        src = src[edge_keep] - shift
        dst = dst[edge_keep] - shift
        w = w[edge_keep]
        indeg_safe, outdeg_safe = indeg_safe[node_keep], outdeg_safe[node_keep]
        unrated, silent = unrated[node_keep], silent[node_keep]
        f, g = f[node_keep], g[node_keep]
        sizes, edge_sizes, active = sizes[keep], edge_sizes[keep], active[keep]
        offsets = np.cumsum(sizes) - sizes
        stopped = np.zeros(len(active), dtype=bool)
        edge_buf = np.empty(len(src))
        node_buf = np.empty(len(f))
        node_buf2 = np.empty(len(f))
    return results


def _start(flat: FlatEdges, warm: FgaScores | None) -> tuple[np.ndarray, np.ndarray]:
    """Start scores: the warm ones, with f = g = 1 for nodes added since."""
    if warm is None:
        return np.ones(flat.n), np.ones(flat.n)
    n_old = warm.node_count
    if n_old == flat.n:
        return warm.fairness, warm.goodness
    if flat.n < n_old:
        raise ValueError(f"graph has {flat.n} nodes but warm scores cover {n_old}")
    f = np.ones(flat.n)
    g = np.ones(flat.n)
    f[:n_old] = warm.fairness
    g[:n_old] = warm.goodness
    return f, g


def compute_fga_many(
    flats: Sequence[FlatEdges],
    warm: Sequence[FgaScores | None] | None = None,
    config: FgaConfig | None = None,
) -> list[FgaScores]:
    """Solve many graphs as one block-diagonal union, in input order.

    ``warm[i]``, if given and not None, warm-starts ``flats[i]`` as in
    ``recompute_after``; otherwise it starts cold. Every result is
    bit-identical to the graph's own ``compute_fga`` or ``recompute_after``
    (module docstring).
    """
    config = config or DEFAULT_CONFIG
    warm = [None] * len(flats) if warm is None else list(warm)
    if len(warm) != len(flats):
        raise ValueError(f"{len(warm)} warm starts for {len(flats)} graphs")
    starts = [_start(flat, scores) for flat, scores in zip(flats, warm)]
    results: list[FgaScores | None] = [None] * len(flats)
    batches: list[list[int]] = [[]]
    items = 0
    for index, flat in enumerate(flats):
        if flat.n == 0:
            # one sweep over no nodes: residual 0, so it stops at once
            results[index] = FgaScores(np.ones(0), np.ones(0), 1, 0.0)
            continue
        size = flat.n + len(flat.src)
        if batches[-1] and items + size > _BATCH_ITEMS:
            batches.append([])
            items = 0
        batches[-1].append(index)
        items += size
    for batch in batches:
        if batch:
            solved = _iterate_flat([flats[i] for i in batch], [starts[i] for i in batch], config)
            for index, scores in zip(batch, solved):
                results[index] = scores
    return results


def recompute_flat(flat: FlatEdges, warm: FgaScores, config: FgaConfig | None = None) -> FgaScores:
    """Warm-started iteration on a flat edge view over an unchanged node set."""
    if warm.node_count != flat.n:
        raise ValueError(f"warm scores cover {warm.node_count} nodes, view has {flat.n}")
    return compute_fga_many([flat], [warm], config)[0]


def _screened_recompute(
    flat: FlatEdges, warm: FgaScores, config: FgaConfig, node: int, floor: float
) -> FgaScores | None:
    """``recompute_flat``, abandoned (None) once goodness[node] provably ends >= floor.

    Until it stops, it runs exactly the sweeps of ``recompute_flat``, so a
    solve that is not abandoned returns the same scores bit for bit. Only the
    greedy candidate scan calls it; an abandoned solve is not a result.
    """
    solved = _iterate_flat([flat], [(warm.fairness, warm.goodness)], config, node, floor)
    return None if solved is None else solved[0]


def compute_fga(graph: Wsn, config: FgaConfig | None = None) -> FgaScores:
    """Run the fixed-point iteration from the all-ones start.

    Always returns; failure to converge within the sweep budget shows up as
    ``max_residual >= residual_tolerance`` on the result.
    """
    return compute_fga_many([graph.flat()], None, config)[0]


def recompute_after(graph: Wsn, warm: FgaScores, config: FgaConfig | None = None) -> FgaScores:
    """Re-converge after edge additions or weight updates, starting from warm scores.

    Nodes added since ``warm`` (fresh fake identities included) start from the
    baselines f = g = 1. The fixed point is unique, so the result matches a
    cold ``compute_fga`` within the residual tolerance, usually in far fewer
    sweeps. Shrinking the node set is not supported.
    """
    return compute_fga_many([graph.flat()], [warm], config)[0]


def predict_weight(scores: FgaScores, u: int, v: int) -> float:
    """Predicted rating of v by u: the product f(u) * g(v)."""
    u, v = node_index(u, scores.node_count), node_index(v, scores.node_count)
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
