"""Fairness/goodness fixed-point engine.

Each node carries two mutually recursive scores. Goodness g(v) in [-1, 1] is
the fairness-weighted mean of the ratings v receives:

    g(v) = (1 / indeg(v)) * sum_{u in Pred(v)} f(u) * w(u, v)

Fairness f(u) in [0, 1] penalizes rating error, half the mean absolute gap
between what u says and what the rated node deserves:

    f(u) = 1 - (1 / outdeg(u)) * sum_{v in Succ(u)} |w(u, v) - g(v)| / 2

Unrated nodes have g = 1 and non-rating nodes have f = 1; these baselines are
part of the definition. Every sweep re-applies the goodness one; a
non-rating node's empty sum gives f = 1 - 0 = 1 by itself. Iteration starts
from f = g = 1 and alternates a full goodness sweep (using the previous
fairness) with a full fairness sweep (using the fresh goodness).

No sweep clips a value, and none halves a gap on its edge. Start scores lie
in range (f in [0, 1], g in [-1, 1]; ``_check_warm`` checks warm ones once
per solve stream), and then so do every sweep's: a term f(u) * w(u, v) rounds
into [-1, 1] and a gap |w(u, v) - g(v)| into [0, 2], because rounding is
monotone and the bounds are doubles, and for the same reason a node's sum of
k of them rounds into [-k, k] (or [0, 2k]), k being exact. So each mean is in
range, and so is 1 minus half of one. The halving is a divisor of 2 * outdeg,
on the nodes. It gives the bits of halving each gap whenever every gap is a
multiple of 2^-1073: each half is then exact, a sum of halves rounds to half
the rounded sum of the gaps (scaling by 2 commutes with rounding down to
2^-1022, and below that both sums are exact), and dividing by k or by 2 * k
then rounds the same number. A gap that is an odd multiple of 2^-1074 needs
a weight or goodness that is nonzero and below 2^-1021 in magnitude, which no
rating scale gives. Halving it would drop its last bit. Two sums that differ
stay apart when a term t is added only if one is at least half an ulp of t,
so each out-edge lifts the difference at most about 2^54-fold, from below
2^-966, where it can start, to above 2^-53, where 1 - v first reads it: that
takes a crafted run of rounding ties over at least 18 out-edges of one node.

Both sweeps are nonexpansive in the max norm: the goodness sweep G is
1-Lipschitz in f because |w| <= 1, the fairness sweep F is 1/2-Lipschitz in
g, and the fixed baselines keep both properties. Let d_t =
max|f_t - f_{t-1}| be the fairness step of sweep t. Each sweep reads only
the scores of the sweep before, so g_{s+1} = G(f_s) for s >= 0 and f_s =
F(g_s) for s >= 1, whatever the start scores (f_0, g_0) are. Hence
|g_{s+1} - g_s| <= d_s and d_{s+1} <= d_s / 2 for s >= 1, and every later
iterate T, the converged one included, has |g_T - g_t| <= d_t + d_t/2 + ...
< 2 * d_t at every node from sweep t = 1 on. Nothing ties the start scores
to the graph, so this holds for a warm start from another graph's scores
too. The residual reported after sweep t, the larger of the fairness and
goodness steps, is at least d_t; from sweep 2 on, f_{t-1} = F(g_{t-1}), so
2 * d_t <= max|g_t - g_{t-1}| <= residual. From the all-ones start d_1 <= 1,
so roughly 27 sweeps reach 1e-8.

So after sweep t the converged goodness of every node lies in the two-sided
interval [g_t - 2 * d_t - 1e-12, g_t + 2 * d_t + 1e-12]: the absolute slack
leaves room for rounding in the sweep sums. ``EditSolve.bounds`` gives it,
and the greedy attack scan decides its candidates on it.

An ``EditSolve`` is the warm re-solve of one one-edit overlay (attacker a
sets its rating of r), resumable sweep by sweep. ``WarmEdits`` runs two
dense sweeps of the unedited store from the warm start once, and every
``EditSolve`` made from it recomputes its sweeps 1 and 2 on a frontier only,
whose plans for both sweeps are built when the frontier is made:

- sweep 1: goodness at r (its in-edges changed), then fairness at r's
  raters (the goodness they are measured against changed), a among them;
- sweep 2: goodness at r and at every node that sweep 1's fairness
  frontier rates, then fairness at every rater of those nodes.

Each frontier value is summed over the node's edges in canonical order,
with the edited edge spliced in at its canonical position, by the dense
sweep's own kernels, so it is the dense sweep's value bit for bit
(``bincount`` adds a node's terms in array order). Off the frontier a
node's value comes from the same edges and the same inputs as in the
unedited store's sweep. Goodness at v reads the previous fairness of v's
raters only; that fairness differs from the unedited store's only on the
previous fairness frontier (at sweep 1 on no node, since both start from
the warm scores), and every node those raters rate is in the goodness
frontier. Fairness at u reads the fresh goodness of u's successors only,
and every rater of the goodness frontier is in the fairness frontier. Sweep
1's frontiers lie inside sweep 2's, so off sweep 2's both the value and the
previous value are the unedited store's, and so is the step. A frontier
sweep reads the steps off its frontier only when the store's fairness step
or residual, as the sweep loop reported them, could exceed the frontier's;
it then takes the maxima of |fairness - f| and |goodness - g| over its own
whole arrays. Maxima are exact, so scores, fairness step, residual and stop
decision equal the dense sweeps' exactly, and no overlay is built before
sweep 3. From sweep 3 on the solve sweeps the overlay through the one sweep
loop, so it ends bit-identical to ``recompute_flat``.

Every solve sweeps a ``FlatEdges``: the graph's own edge store
(``compute_fga``, ``recompute_after``) or an overlay of it from
``FlatEdges.with_ratings`` (``recompute_flat``), so no solve copies a graph.

``compute_fga_many`` solves many graphs at once, for the thousands of tiny
gadgets and move sets where per-call numpy overhead, not arithmetic, is the
cost. It reads its graphs as a stream and cuts it into batches of at most
``_BATCH_ITEMS`` nodes plus edges (a larger graph is a batch of its own), so
memory stays bounded however many graphs come; only the engine sizes
batches (``_batches``, for every kind of input). Each batch is one disjoint
union, a store whose components are the graphs, node ids offset in order
and each graph's edges in its own canonical order, and it is swept as one
graph. A batch of one is the graph's own store, with nothing copied: the
sweep reads each store's own index arrays, which are writeable (``take``
and ``bincount`` copy a read-only index on every call), not the read-only
views the store publishes, so no index array is copied either. Two
private paths build the union of a batch at once, for inputs that are
cheaper to build together than one by one: ``_solve_edge_blocks`` takes
gadgets unbuilt, as their node counts and edge blocks in any order, and
sorts a batch's blocks once; ``_solve_overlays`` takes groups of edits of
one store and builds a batch's overlays in a few vectorised calls
(``graph.overlay_union``). The recurrences never couple two components, so
each keeps its own fixed point, and each stops on its own rule: its residual
is the maximum over its own nodes, and once that drops below the tolerance
(or the sweep ceiling is hit) the component's scores, sweep count and
residual are copied out, and what later sweeps of the batch do to it is
ignored. Every result is bit-identical to the component's solo solve: a
sweep is elementwise except for ``bincount``, which adds each node's terms
in array order, and that order within the union is the component's own
canonical order; maxima are exact. Results are yielded in input order,
batch by batch. A single solve is a batch of one through the same loop, and
so is an ``EditSolve`` from sweep 3 on: the loop (``_Sweeps``) runs one
sweep per call and can start at any sweep count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .graph import FlatEdges, Wsn, _check_edge, as_count, node_index, overlay_union, splice

_T = TypeVar("_T")

#: A group of (u, v, weight) edits of one store, on distinct edges.
Edits = Sequence[tuple[int, int, float]]


@dataclass(frozen=True)
class FgaConfig:
    """Stopping rule: max-norm residual below tolerance, or the sweep ceiling."""

    max_iterations: int = 100
    residual_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        sweeps = as_count(self.max_iterations, "max_iterations", 1)
        object.__setattr__(self, "max_iterations", sweeps)
        tolerance = self.residual_tolerance  # an infinite one would stop every solve at sweep 1
        if isinstance(tolerance, (bool, np.bool_)) or not 0 < tolerance < math.inf:  # nan fails
            raise ValueError(f"residual_tolerance must be finite and > 0, got {tolerance}")

    def stops(self, residual, sweeps: int):
        """Whether a solve stops with ``residual`` after ``sweeps`` sweeps; elementwise on arrays."""
        return (residual < self.residual_tolerance) | (sweeps >= self.max_iterations)


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


def _goodness(terms: np.ndarray, nodes: np.ndarray, indeg: np.ndarray) -> np.ndarray:
    """Each node's mean in-edge term f(u) * w(u, v), in [-1, 1]; both sweeps call it."""
    # bincount of no edges gives int zeros, which the in-place divide rejects
    values = np.bincount(nodes, terms, len(indeg)) if len(terms) else np.zeros(len(indeg))
    values /= indeg
    return values


def _fairness(gaps: np.ndarray, nodes: np.ndarray, twice_outdeg: np.ndarray) -> np.ndarray:
    """Each node's 1 - mean |gap| / 2 over its out-edges' w(u, v) - g(v), in [0, 1].

    The halving is in the divisor ``twice_outdeg``; the module docstring says why
    neither function needs a clip.
    """
    np.abs(gaps, out=gaps)
    n = len(twice_outdeg)
    values = np.bincount(nodes, gaps, n) if len(gaps) else np.zeros(n)
    values /= twice_outdeg
    np.subtract(1.0, values, out=values)
    return values


class _Sweeps:
    """The one sweep loop, resumable: a disjoint union of non-empty components.

    ``union`` is one built store whose nodes are its components' nodes in
    order, ``sizes`` their node counts, and each component's edges its own
    canonical order (the store's order is then canonical too). Each
    ``advance`` runs one sweep of the whole union from the current scores. A
    component stops on its own rule and keeps the scores, sweep count and
    residual of that sweep in ``results``; it is swept on with the rest, but
    what it does is ignored. ``iterations`` counts sweeps already run on the
    start scores, so a solve can resume from a later sweep. ``residuals``
    holds each component's residual in the last sweep, and
    ``fairness_steps()`` its largest fairness step, reduced only on request.
    ``start`` holds the union's start scores, or is None for the cold start
    f = g = 1. The sweeps read the union's own index arrays, ``_src`` and
    ``_dst``, as gather and bin indices and never write them; whether the
    union is one store, an overlay or a batch, no index array is copied.
    """

    def __init__(
        self,
        union: FlatEdges,
        sizes,
        start: tuple[np.ndarray, np.ndarray] | None,
        config: FgaConfig,
        iterations: int = 0,
    ) -> None:
        sizes = np.asarray(sizes)
        offsets = np.cumsum(sizes) - sizes
        n = union.n
        f, g = (np.ones(n), np.ones(n)) if start is None else start
        self.f, self.g = f, g
        self.iterations = iterations
        self.residuals = np.full(len(sizes), math.inf)
        self.results: list[FgaScores | None] = [None] * len(sizes)
        self._edges = union._src, union._dst, union.w
        self._sizes, self._offsets = sizes, offsets
        self._indeg_safe = np.maximum(union.indeg, 1.0)
        self._twice_outdeg = 2.0 * np.maximum(union.outdeg, 1.0)
        self._unrated = np.flatnonzero(union.indeg == 0)
        self._stopped = np.zeros(len(sizes), dtype=bool)
        self._running = len(sizes)
        self._config = config
        self._edge_buf = np.empty(len(union.w))
        self._node_bufs = np.empty(n), np.empty(n)

    def advance(self) -> bool:
        """Run one sweep; True once every component has stopped."""
        src, dst, w = self._edges
        f, g = self.f, self.g
        edge_buf = self._edge_buf
        # clip mode: every index is in range, and it skips the copy of out that raise mode makes
        f.take(src, out=edge_buf, mode="clip")
        edge_buf *= w
        g_new = _goodness(edge_buf, dst, self._indeg_safe)
        g_new[self._unrated] = 1.0
        g_new.take(dst, out=edge_buf, mode="clip")
        np.subtract(w, edge_buf, out=edge_buf)
        f_new = _fairness(edge_buf, src, self._twice_outdeg)
        # the steps: max |change| of fairness and of goodness over each component
        f_delta, g_delta = self._node_bufs
        np.subtract(f_new, f, out=f_delta)
        np.abs(f_delta, out=f_delta)
        np.subtract(g_new, g, out=g_delta)
        np.abs(g_delta, out=g_delta)
        # the residual is the larger step; f_delta is kept for fairness_steps
        np.maximum(f_delta, g_delta, out=g_delta)
        self.residuals = residuals = np.maximum.reduceat(g_delta, self._offsets)
        self.f, self.g = f_new, g_new
        self.iterations += 1
        # the components that stop on this sweep: the rule holds, and they had not stopped
        newly = self._config.stops(residuals, self.iterations) > self._stopped
        if newly.any():
            for i in np.flatnonzero(newly).tolist():
                lo, hi = self._offsets[i], self._offsets[i] + self._sizes[i]
                self.results[i] = FgaScores(
                    f_new[lo:hi].copy(), g_new[lo:hi].copy(), self.iterations, float(residuals[i])
                )
                self._running -= 1
            self._stopped |= newly
        return not self._running

    def fairness_steps(self) -> np.ndarray:
        """Each component's largest fairness step d_t in the last sweep."""
        return np.maximum.reduceat(self._node_bufs[0], self._offsets)


def _batches(items: Iterable[_T], size: Callable[[_T], int]) -> Iterator[list[_T]]:
    """``items`` cut into runs of at most ``_BATCH_ITEMS`` nodes plus edges, read a run at a time.

    ``size(item)`` is the item's nodes plus edges, or a bound on them. A larger item is a run
    of its own, and so is a graph of no nodes, which a union cannot hold (``_solve``).
    """
    batch: list[_T] = []
    items_in = 0
    for item in items:
        items_of = size(item)
        if batch and (items_in + items_of > _BATCH_ITEMS or not items_in or not items_of):
            yield batch
            batch, items_in = [], 0
        batch.append(item)
        items_in += items_of
    if batch:
        yield batch


def _solve(
    union: FlatEdges, sizes, start: tuple[np.ndarray, np.ndarray] | None, config: FgaConfig
) -> list[FgaScores]:
    """Solve a union of components of ``sizes`` nodes until every one stops."""
    if not union.n:  # one sweep over no nodes: residual 0, so it stops at once
        return [FgaScores(np.ones(0), np.ones(0), 1, 0.0)]
    sweeps = _Sweeps(union, sizes, start, config)
    while not sweeps.advance():
        pass
    return sweeps.results


def _check_warm(warm: FgaScores) -> None:
    """Refuse warm scores out of range (NaN included), naming the first node; the sweeps
    rely on f in [0, 1] and g in [-1, 1] (module docstring)."""
    for name, scores, low in (("fairness", warm.fairness, 0.0), ("goodness", warm.goodness, -1.0)):
        bad = ~((scores >= low) & (scores <= 1.0))
        if bad.any():
            node = int(bad.argmax())
            raise ValueError(f"warm {name} of node {node} is {scores[node]}, outside [{low:g}, 1]")


def _start(flat: FlatEdges, warm: FgaScores) -> tuple[np.ndarray, np.ndarray]:
    """Warm start scores, with f = g = 1 for nodes added since.

    The one check of warm scores against a store: a store with fewer nodes is refused.
    """
    n_old = warm.node_count
    if n_old == flat.n:
        return warm.fairness, warm.goodness
    if flat.n < n_old:
        raise ValueError(f"graph has {flat.n} nodes but warm scores cover {n_old}")
    added = np.ones(flat.n - n_old)
    return np.concatenate([warm.fairness, added]), np.concatenate([warm.goodness, added])


def compute_fga_many(
    flats: Iterable[FlatEdges],
    warm: FgaScores | None = None,
    config: FgaConfig | None = None,
) -> Iterator[FgaScores]:
    """Solve many graphs as block-diagonal unions, yielding results in input order.

    ``flats`` is read one batch at a time: the first result comes once a
    batch of at most ``_BATCH_ITEMS`` nodes plus edges is full or the graphs
    run out. One warm start serves the whole stream: ``warm``, if not None,
    is checked once, before the first graph is read, and warm-starts every
    graph as in ``recompute_after``; otherwise all start cold. Every result
    is bit-identical to the graph's own ``compute_fga`` or
    ``recompute_after`` (module docstring).
    """
    config = config or DEFAULT_CONFIG
    if warm is not None:
        _check_warm(warm)
    for batch in _batches(flats, lambda flat: flat.n + len(flat.src)):
        start = None if warm is None else tuple(
            np.concatenate(scores) for scores in zip(*(_start(flat, warm) for flat in batch))
        )
        union = batch[0] if len(batch) == 1 else _union(
            [(flat.n, [(flat.src, flat.dst, flat.w)]) for flat in batch]
        )
        yield from _solve(union, [flat.n for flat in batch], start, config)


#: One block of a graph's edges: (src, dst, w) arrays, in any order.
Block = tuple[np.ndarray, np.ndarray, np.ndarray]


def _union(graphs: list[tuple[int, list[Block]]]) -> FlatEdges:
    """The disjoint union of graphs given as node counts and edge blocks in any order.

    The blocks are offset, concatenated and sorted once (``FlatEdges.from_arrays``), so the
    union's order is each graph's own canonical order, one graph after another.
    """
    sizes = [n for n, _ in graphs]
    blocks = [block for _, graph_blocks in graphs for block in graph_blocks]
    block_shift = np.repeat(np.cumsum(sizes) - sizes, [len(graph[1]) for graph in graphs])
    shift = np.repeat(block_shift, [len(src) for src, _, _ in blocks])
    src, dst, w = (np.concatenate(column) for column in zip(*blocks))
    src += shift  # in place, and the shift freed, to keep a batch's peak memory low
    dst += shift
    del shift
    return FlatEdges.from_arrays(sum(sizes), src, dst, w)


def _solve_edge_blocks(
    graphs: Iterable[tuple[int, list[Block]]], config: FgaConfig
) -> Iterator[FgaScores]:
    """Cold solves of graphs handed in unbuilt, each as its node count and edge blocks.

    Every graph has at least one block, and each result is bit-identical to ``compute_fga``
    of the graph built alone.
    """
    for batch in _batches(graphs, lambda graph: graph[0] + sum(len(b[0]) for b in graph[1])):
        yield from _solve(_union(batch), [n for n, _ in batch], None, config)


def _solve_overlays(
    flat: FlatEdges, groups: Iterable[Edits], warm: FgaScores, config: FgaConfig
) -> Iterator[tuple[Edits, FgaScores]]:
    """Warm re-solves of overlays of one store: each group of edits, with its scores, in order.

    A group's scores are bit-identical to ``recompute_flat(flat.with_ratings(group), warm,
    config)``. Its edits are on distinct edges, each checked as ``_check_edge`` checks it.
    A batch's overlays are built at once, as one union (``graph.overlay_union``), and each
    component starts from ``warm`` as ``_start`` starts ``flat``.
    """
    _check_warm(warm)
    f, g = _start(flat, warm)
    key = flat.src * flat.n + flat.dst
    for batch in _batches(groups, lambda group: flat.n + len(flat.src) + len(group)):
        count = len(batch)
        union, start = overlay_union(flat, key, batch), (np.tile(f, count), np.tile(g, count))
        yield from zip(batch, _solve(union, [flat.n] * count, start, config))


def recompute_flat(flat: FlatEdges, warm: FgaScores, config: FgaConfig | None = None) -> FgaScores:
    """Warm-started iteration on a flat edge view, started as ``recompute_after`` starts."""
    return next(compute_fga_many([flat], warm, config))


class WarmEdits:
    """Warm re-solves of one-edit overlays of one store, sharing its first two sweeps.

    Made from a store and warm scores, it starts as ``recompute_after`` does
    and runs two dense sweeps of the unedited store at once. ``solve(a, r,
    w)`` then starts the re-solve of ``flat.with_rating(a, r, w)``, whose
    sweeps 1-2 recompute only the nodes the edit can reach and take every
    other value from these two sweeps (module docstring).
    """

    def __init__(self, flat: FlatEdges, warm: FgaScores, config: FgaConfig | None = None) -> None:
        self.flat = flat
        self.config = config or DEFAULT_CONFIG
        _check_warm(warm)
        f, g = _start(flat, warm)
        base = _Sweeps(flat, (flat.n,), (f, g), self.config)
        self._f, self._g = [f], [g]
        self._steps = [(math.inf, math.inf)]  # per sweep, the residual and largest fairness step
        for _ in (1, 2):
            base.advance()
            self._f.append(base.f)
            self._g.append(base.g)
            self._steps.append((float(base.residuals[0]), float(base.fairness_steps()[0])))
        self._frontier: _Frontier | None = None

    def solve(self, attacker: int, rated: int, weight: float) -> "EditSolve":
        """The warm re-solve of the store with (attacker, rated) set to ``weight``, not yet swept."""
        a, r, weight = _check_edge(attacker, rated, weight, self.flat.n)
        # the frontier does not depend on the weight, so a run of edits of one edge shares it
        if self._frontier is None or self._frontier.edge != (a, r):
            self._frontier = _Frontier(self.flat, a, r)
        return EditSolve(self, self._frontier, weight)


class _Side(NamedTuple):
    """One half of a frontier sweep: the nodes it recomputes and their edges, in canonical order.

    Edge i adds a term to node ``nodes[bins[i]]`` that reads the value of node
    ``ends[i]`` and weight ``w[i]``; the edited edge is edge ``at``, whose weight each
    solve puts in (if absent, ``graph.splice`` inserts it, as ``FlatEdges.with_ratings``
    does). ``divisor`` holds the nodes' degrees after the edit, doubled on a fairness side
    (the halving, module docstring). Every node has an edge, so no baseline value applies
    and every degree is at least 1.
    """

    nodes: np.ndarray
    ends: np.ndarray
    bins: np.ndarray
    w: np.ndarray
    at: int
    divisor: np.ndarray


class _Frontier:
    """The nodes and edges that sweeps 1 and 2 of an edit of (a, r) recompute, at any weight.

    Sweep t recomputes goodness at r and, at sweep 2, at every node the
    sweep-1 fairness frontier rates, then fairness at every rater of those.
    Both sweeps' sides are built when the frontier is made: ``sides[t - 1]``
    holds sweep t's goodness and fairness sides, each spliced as the overlay is.
    """

    def __init__(self, flat: FlatEdges, a: int, r: int) -> None:
        self.flat, self.edge = flat, (a, r)
        self.at, self.present = flat.locate(a, r)  # the edited edge's canonical position
        rated = np.zeros(flat.n, dtype=bool)  # the goodness frontier
        rated[r] = True
        self.sides: list[tuple[_Side, _Side]] = []
        for t in (1, 2):
            nodes = rated.nonzero()[0]
            # in-edges are scattered over the arrays; at sweep 1 they are r's alone
            edges = ((flat.dst == r) if t == 1 else rated[flat.dst]).nonzero()[0]
            local = np.empty(flat.n, dtype=np.intp)
            local[nodes] = np.arange(len(nodes))
            into = self._side(nodes, edges, local[flat.dst[edges]], flat.src, flat.indeg, 1.0, r, a)
            raters = np.zeros(flat.n, dtype=bool)
            raters[into.ends] = True
            nodes = raters.nonzero()[0]
            # node u's out-edges are the run of outdeg[u] positions from src.searchsorted(u)
            starts, counts = flat.src.searchsorted(nodes), flat.outdeg[nodes].astype(np.intp)
            offsets = np.cumsum(counts) - counts
            edges = np.arange(offsets[-1] + counts[-1])
            edges += np.repeat(starts - offsets, counts)
            bins = np.repeat(np.arange(len(nodes)), counts)
            out = self._side(nodes, edges, bins, flat.dst, flat.outdeg, 2.0, a, r)
            self.sides.append((into, out))
            rated[out.ends] = True  # sweep 2's goodness frontier: r is among them, as a rates it

    def _side(self, nodes, edges, bins, ends, degrees, scale, own, end) -> _Side:
        """The side over ``edges`` (ascending), with the edited edge (own's, to ``end``) spliced
        in; its divisor is ``scale`` times the degrees."""
        ends, w = ends[edges], self.flat.w[edges]
        at = int(edges.searchsorted(self.at))
        divisor = scale * degrees[nodes]
        if not self.present:
            own_bin = int(nodes.searchsorted(own))
            ends, bins, w = (splice(ends, (at,), (end,)), splice(bins, (at,), (own_bin,)),
                             splice(w, (at,), (0.0,)))
            divisor[own_bin] += scale
        return _Side(nodes, ends, bins, w, at, divisor)


class EditSolve:
    """The warm re-solve of one one-edit overlay, advanced one sweep at a time.

    Its sweeps, scores, residual and stop are exactly those of
    ``recompute_flat(flat.with_rating(*edit), warm, config)``, and
    ``fairness_step`` is the last sweep's largest fairness step d_t;
    ``bounds`` says where the converged goodness of a node can still lie.
    """

    def __init__(self, base: WarmEdits, frontier: _Frontier, weight: float) -> None:
        self.edit = (*frontier.edge, weight)
        self.iterations = 0
        self.residual = self.fairness_step = math.inf
        self.stopped = False
        self.fairness, self.goodness = base._f[0], base._g[0]
        # both dropped, with the sweep buffers, once the solve stops
        self._base: WarmEdits | None = base
        self._frontier: _Frontier | None = frontier
        self._flat = base.flat
        self._view: FlatEdges | None = None
        self._sweeps: _Sweeps | None = None
        self._result: FgaScores | None = None

    @property
    def view(self) -> FlatEdges:
        """The edited store, built on first use (the dense sweeps from 3 on read it)."""
        if self._view is None:
            self._view = self._flat.with_rating(*self.edit)
        return self._view

    def bounds(self, node: int) -> tuple[float, float]:
        """An interval that holds the converged goodness[node]; exact once stopped."""
        if not self.iterations:
            return -math.inf, math.inf
        value = float(self.goodness[node])
        if self.stopped:
            return value, value
        slack = 2.0 * self.fairness_step
        return value - slack - 1e-12, value + slack + 1e-12

    def advance(self) -> None:
        """Run the next sweep."""
        if self.stopped:
            raise RuntimeError("the solve has stopped")
        if self.iterations < 2:
            self._frontier_sweep()
            return
        if self._sweeps is None:
            start = (self.fairness, self.goodness)
            config = self._base.config
            self._sweeps = _Sweeps(self.view, (self.view.n,), start, config, self.iterations)
            self._frontier = None
        sweeps = self._sweeps
        sweeps.advance()
        self.fairness, self.goodness = sweeps.f, sweeps.g
        self.iterations = sweeps.iterations
        self.residual = float(sweeps.residuals[0])
        self.fairness_step = float(sweeps.fairness_steps()[0])
        if sweeps.results[0] is not None:
            self._stop(sweeps.results[0])

    def finish(self) -> FgaScores:
        """Sweep on until the solve stops; its scores."""
        while not self.stopped:
            self.advance()
        return self._result

    def _stop(self, result: FgaScores) -> None:
        self._result, self.stopped = result, True
        self._base = self._frontier = self._sweeps = None

    def _frontier_sweep(self) -> None:
        """Sweep 1 or 2 on the frontier only: each value as the dense sweep sums it, bit for bit."""
        base = self._base
        a, r, weight = self.edit
        t = self.iterations + 1
        into, out = self._frontier.sides[t - 1]
        f, g = self.fairness, self.goodness
        terms = f[into.ends]
        terms *= into.w
        terms[into.at] = f[a] * weight
        values = _goodness(terms, into.bins, into.divisor)
        g_step = float(np.abs(values - g[into.nodes]).max())
        goodness = base._g[t].copy()
        goodness[into.nodes] = values
        terms = goodness[out.ends]
        np.subtract(out.w, terms, out=terms)
        terms[out.at] = weight - goodness[r]
        values = _fairness(terms, out.bins, out.divisor)
        f_step = float(np.abs(values - f[out.nodes]).max())
        fairness = base._f[t].copy()
        fairness[out.nodes] = values
        # off the frontier every step is the unedited store's, so the whole arrays
        # are read only when the store's step could exceed the frontier's
        store_residual, store_f_step = base._steps[t]
        if store_f_step > f_step:
            f_step = float(np.abs(fairness - f).max())
        residual = max(f_step, g_step)
        if store_residual > residual:
            residual = max(residual, float(np.abs(goodness - g).max()))
        self.fairness, self.goodness = fairness, goodness
        self.iterations, self.residual, self.fairness_step = t, residual, f_step
        if base.config.stops(residual, t):
            self._stop(FgaScores(fairness, goodness, t, residual))


def compute_fga(graph: Wsn, config: FgaConfig | None = None) -> FgaScores:
    """Run the fixed-point iteration from the all-ones start.

    Always returns; failure to converge within the sweep budget shows up as
    ``max_residual >= residual_tolerance`` on the result.
    """
    return next(compute_fga_many([graph.flat()], None, config))


def recompute_after(graph: Wsn, warm: FgaScores, config: FgaConfig | None = None) -> FgaScores:
    """Re-converge after edge additions or weight updates, starting from warm scores.

    Nodes added since ``warm`` (fresh fake identities included) start from the
    baselines f = g = 1. The fixed point is unique, so the result matches a
    cold ``compute_fga`` within the residual tolerance, usually in far fewer
    sweeps. Shrinking the node set is not supported.
    """
    return next(compute_fga_many([graph.flat()], warm, config))


def predict_weight(scores: FgaScores, u: int, v: int) -> float:
    """Predicted rating of v by u: the product f(u) * g(v)."""
    u, v = node_index(u, scores.node_count), node_index(v, scores.node_count)
    return float(scores.fairness[u] * scores.goodness[v])

