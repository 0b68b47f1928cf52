"""Closed-form limits on how far single attacks can move goodness, with harnesses.

In a network where every node has at least k in- and out-neighbours and every
node's incoming absolute-weight mass is at most k, one fake identity rating
an intermediary i shifts any other node's goodness by at most
2 / ((indeg(i) + 1) * k): the indirect route is at least k times weaker than
rating the victim directly, which itself is capped at 2 / indeg(t). Flipping
the sign of a positive target directly needs strictly more than
ceil(2 * g(t) * indeg(t)) attackers of fairness >= 1/2.

The harnesses check the caps empirically. A Sybil harness solves its graph
once, then all its trials' one-rater overlays of the graph's store, grown by
the fake rater, as one warm-started stream whose batches of overlays are
built at once (``engine._solve_overlays``), each result bit-identical to the
trial's own ``recompute_after``; the stabiliser hands its grid of stars to
the engine unbuilt (``engine._solve_edge_blocks``), and each batch of them
is sorted once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import gadgets
from .engine import HIGH_PRECISION, FgaScores, _solve_edge_blocks, _solve_overlays, compute_fga
from .engine import recompute_after  # noqa: F401  bench/tracing.py wraps it by this name
from .graph import Wsn, as_count

#: Absolute slack on bound comparisons, absorbing fixed-point residual.
BOUND_TOLERANCE = 1e-9

#: Sybil rating weights swept by the empirical harnesses.
WEIGHT_SWEEP = (-1.0, -0.5, 0.5, 1.0)

#: Fairness the stabiliser harness pins its influencers at when 1 - delta is lower.
STABILISER_MIN_FAIRNESS = 0.05


@dataclass
class MinKNeighbourCert:
    """Whether every node clears the degree and incoming-weight-mass conditions."""

    k: int
    violations: list[tuple[int, str]]

    @property
    def holds(self) -> bool:
        return not self.violations


@dataclass(slots=True)
class BoundReport:
    """One trial: the analytic cap versus the observed goodness shift."""

    bound_value: float
    observed_delta: float
    context: dict

    @property
    def satisfied(self) -> bool:
        return abs(self.observed_delta) <= self.bound_value + BOUND_TOLERANCE


def check_min_k_neighbour(graph: Wsn, k: int) -> MinKNeighbourCert:
    """List every node violating indeg >= k, outdeg >= k, or sum |w_in| <= k."""
    k = as_count(k, "k", 1)
    flat = graph.flat()
    mass = np.bincount(flat.dst, weights=np.abs(flat.w), minlength=flat.n)
    failed = np.stack([flat.indeg < k, flat.outdeg < k, mass > k + 1e-12], axis=1)
    # row-major: ascending node, then the conditions in the order named here
    violations = [
        (int(v), ("indeg", "outdeg", "weight-mass")[c]) for v, c in zip(*np.nonzero(failed))
    ]
    return MinKNeighbourCert(k=k, violations=violations)


def indirect_sybil_bound(graph: Wsn, intermediary: int, k: int) -> float:
    """Cap on |goodness shift| of any node when one fake rater hits the intermediary."""
    cert = check_min_k_neighbour(graph, k)
    if not cert.holds:
        raise ValueError(
            f"minimum-{k}-neighbour certificate fails for {len(cert.violations)} nodes"
        )
    return _indirect_cap(graph, intermediary, k)


def _indirect_cap(graph: Wsn, intermediary: int, k: int) -> float:
    """The indirect Sybil cap itself, for a graph already certified minimum-k-neighbour."""
    return 2.0 / ((graph.indeg(intermediary) + 1) * k)


def direct_sybil_bound(graph: Wsn, target: int) -> float:
    """Cap on |goodness shift| of the target when one fake rater hits it directly."""
    indeg = graph.indeg(target)
    if indeg < 1:
        raise ValueError("target has no raters; a first rating sets goodness outright")
    return 2.0 / indeg


def direct_flip_budget(scores: FgaScores, graph: Wsn, target: int) -> int:
    """Attacker count above which trusted raters can force the target's sign negative.

    Strictly more than this many attackers, each with fairness at least 1/2
    after the attack, suffice when they all rate the target -1.
    """
    g = float(scores.goodness[target])
    if g <= 0.0:
        raise ValueError(f"target goodness {g} is not positive; nothing to flip")
    raw = 2.0 * g * graph.indeg(target)
    nearest = round(raw)
    if nearest >= 1 and abs(raw - nearest) < 1e-9:
        return int(nearest)  # snap: the analytic value is an integer up to residual
    return math.ceil(raw)


def stabiliser_lower_bound(k: int, l: int, delta: float) -> float:
    """Floor on the goodness of a node rated 1.0 by k shaken raters and l steady ones.

    If the k influencing raters lose at most ``delta`` fairness, goodness
    stays at or above 1 - 2 * delta * k / (k + l).
    """
    k, l = as_count(k, "k"), as_count(l, "l")
    if k + l < 1:
        raise ValueError("need k, l >= 0 with k + l >= 1")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    return 1.0 - 2.0 * delta * k / (k + l)


# -- empirical harnesses -----------------------------------------------------


def _sybil_trials(
    graph: Wsn, trials: int, rng: np.random.Generator, draw: Callable[[], tuple]
) -> list[BoundReport]:
    """Solve the base once, then every trial's one-rater overlay in one stream.

    ``draw()`` picks a trial's (rated, watched, cap, context) from ``rng``;
    the weight is drawn after it and closes the context.
    """
    trials = as_count(trials, "trials", 1)
    base = compute_fga(graph, HIGH_PRECISION)
    drawn = []
    for trial in range(trials):
        rated, watched, cap, context = draw()
        weight = float(WEIGHT_SWEEP[rng.integers(0, len(WEIGHT_SWEEP))])
        drawn.append((rated, weight, watched, cap, {"trial": trial, **context, "weight": weight}))
    # node n is the fake rater, added to the store once
    edits = [((graph.node_count, rated, weight),) for rated, weight, *_ in drawn]
    solved = _solve_overlays(graph.flat().with_node(), edits, base, HIGH_PRECISION)
    return [
        BoundReport(cap, float(after.goodness[watched] - base.goodness[watched]), context)
        for (*_, watched, cap, context), (_, after) in zip(drawn, solved)
    ]


def verify_direct_sybil(graph: Wsn, trials: int, seed: int = 0) -> list[BoundReport]:
    """Inject one fake rater straight at random targets; compare |shift| to 2/indeg."""
    seed = as_count(seed, "seed")
    eligible = [v for v in graph.nodes() if graph.indeg(v) >= 1]
    if not eligible:
        raise ValueError("no node has an incoming edge")
    rng = np.random.default_rng([seed, 8])

    def draw():
        target = int(eligible[rng.integers(0, len(eligible))])
        return target, target, direct_sybil_bound(graph, target), {"target": target}

    return _sybil_trials(graph, trials, rng, draw)


def verify_indirect_sybil(graph: Wsn, k: int, trials: int, seed: int = 0) -> list[BoundReport]:
    """Inject one fake rater at an intermediary; check the shift of a distinct target."""
    seed = as_count(seed, "seed")
    cert = check_min_k_neighbour(graph, k)
    if not cert.holds:
        raise ValueError(f"graph is not a minimum-{k}-neighbour network")
    if graph.node_count < 2:
        raise ValueError("need at least two nodes")
    rng = np.random.default_rng([seed, 9])

    def draw():
        intermediary = int(rng.integers(0, graph.node_count))
        target = int(rng.integers(0, graph.node_count))
        while target == intermediary:
            target = int(rng.integers(0, graph.node_count))
        context = {"target": target, "intermediary": intermediary, "k": k}
        return intermediary, target, _indirect_cap(graph, intermediary, k), context

    return _sybil_trials(graph, trials, rng, draw)


def verify_stabiliser(
    k_values: Iterable[int] = (1, 2, 3, 4, 5),
    l_values: Iterable[int] = (0, 5, 50, 200),
    deltas: Iterable[float] = (0.1, 0.5, 1.0),
) -> list[BoundReport]:
    """Build stabilised stars whose influencers really lose fairness; check the floor.

    Fairness exactly 0 is unattainable, so for large deltas the influencers
    are pinned at ``STABILISER_MIN_FAIRNESS``; the realized drop is then below
    delta and the floor must hold a fortiori.
    """
    grid = [
        (k, l, delta, max(1.0 - delta, STABILISER_MIN_FAIRNESS))
        for k, l, delta in itertools.product(k_values, l_values, deltas)
    ]
    stars = (gadgets._stabilised_star(k, l, fairness)[0] for k, l, _, fairness in grid)
    solved = _solve_edge_blocks(((star.n, star.blocks) for star in stars), HIGH_PRECISION)
    return [
        BoundReport(
            1.0 - stabiliser_lower_bound(k, l, delta),
            1.0 - float(scores.goodness[0]),  # a stabilised star's centre is node 0
            {"k": k, "l": l, "delta": delta, "influencer_fairness": fairness},
        )
        for (k, l, delta, fairness), scores in zip(grid, solved)
    ]
