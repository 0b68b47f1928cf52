"""Closed-form limits on how far single attacks can move goodness, with harnesses.

In a network where every node has at least k in- and out-neighbours and every
node's incoming absolute-weight mass is at most k, one fake identity rating
an intermediary i shifts any other node's goodness by at most
2 / ((indeg(i) + 1) * k): the indirect route is at least k times weaker than
rating the victim directly, which itself is capped at 2 / indeg(t). Flipping
the sign of a positive target directly needs strictly more than
ceil(2 * g(t) * indeg(t)) attackers of fairness >= 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import gadgets
from .attacks import ATTACK_CONFIG, inject_sybil
from .engine import FgaConfig, FgaScores, compute_fga, recompute_after
from .graph import Wsn

#: Absolute slack on bound comparisons, absorbing fixed-point residual.
BOUND_TOLERANCE = 1e-9

#: Sybil rating weights swept by the empirical harnesses.
WEIGHT_SWEEP = (-1.0, -0.5, 0.5, 1.0)


@dataclass
class MinKNeighbourCert:
    """Whether every node clears the degree and incoming-weight-mass conditions."""

    k: int
    holds: bool
    violations: list[tuple[int, str]]


@dataclass(slots=True)
class BoundReport:
    """One trial: the analytic cap versus the observed goodness shift."""

    bound_value: float
    observed_delta: float
    satisfied: bool
    context: dict

    @staticmethod
    def from_trial(bound_value: float, observed_delta: float, context: dict) -> "BoundReport":
        return BoundReport(
            bound_value=bound_value,
            observed_delta=observed_delta,
            satisfied=abs(observed_delta) <= bound_value + BOUND_TOLERANCE,
            context=context,
        )


def check_min_k_neighbour(graph: Wsn, k: int) -> MinKNeighbourCert:
    """List every node violating indeg >= k, outdeg >= k, or sum |w_in| <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    flat = graph.flat()
    mass = np.bincount(flat.dst, weights=np.abs(flat.w), minlength=flat.n)
    failed = np.stack([flat.indeg < k, flat.outdeg < k, mass > k + 1e-12], axis=1)
    # row-major: ascending node, then the conditions in the order named here
    violations = [
        (int(v), ("indeg", "outdeg", "weight-mass")[c]) for v, c in zip(*np.nonzero(failed))
    ]
    return MinKNeighbourCert(k=k, holds=not violations, violations=violations)


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
    if k < 0 or l < 0 or k + l < 1:
        raise ValueError("need k, l >= 0 with k + l >= 1")
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    return 1.0 - 2.0 * delta * k / (k + l)


# -- empirical harnesses -----------------------------------------------------


def verify_direct_sybil(
    graph: Wsn, trials: int, seed: int = 0, config: FgaConfig | None = None
) -> list[BoundReport]:
    """Inject one fake rater straight at random targets; compare |shift| to 2/indeg."""
    config = config or ATTACK_CONFIG
    base = compute_fga(graph, config)
    eligible = [v for v in graph.nodes() if graph.indeg(v) >= 1]
    if not eligible:
        raise ValueError("no node has an incoming edge")
    rng = np.random.default_rng([seed, 8])
    reports = []
    for trial in range(trials):
        target = int(eligible[rng.integers(0, len(eligible))])
        weight = float(WEIGHT_SWEEP[rng.integers(0, len(WEIGHT_SWEEP))])
        bound = direct_sybil_bound(graph, target)
        attacked, _ = inject_sybil(graph, target, weight)
        after = recompute_after(attacked, base, config)
        delta = float(after.goodness[target] - base.goodness[target])
        reports.append(
            BoundReport.from_trial(bound, delta, {"trial": trial, "target": target, "weight": weight})
        )
    return reports


def verify_indirect_sybil(
    graph: Wsn, k: int, trials: int, seed: int = 0, config: FgaConfig | None = None
) -> list[BoundReport]:
    """Inject one fake rater at an intermediary; check the shift of a distinct target."""
    config = config or ATTACK_CONFIG
    cert = check_min_k_neighbour(graph, k)
    if not cert.holds:
        raise ValueError(f"graph is not a minimum-{k}-neighbour network")
    if graph.node_count < 2:
        raise ValueError("need at least two nodes")
    base = compute_fga(graph, config)
    rng = np.random.default_rng([seed, 9])
    reports = []
    for trial in range(trials):
        intermediary = int(rng.integers(0, graph.node_count))
        target = int(rng.integers(0, graph.node_count))
        while target == intermediary:
            target = int(rng.integers(0, graph.node_count))
        weight = float(WEIGHT_SWEEP[rng.integers(0, len(WEIGHT_SWEEP))])
        bound = _indirect_cap(graph, intermediary, k)
        attacked, _ = inject_sybil(graph, intermediary, weight)
        after = recompute_after(attacked, base, config)
        delta = float(after.goodness[target] - base.goodness[target])
        reports.append(
            BoundReport.from_trial(
                bound,
                delta,
                {
                    "trial": trial,
                    "target": target,
                    "intermediary": intermediary,
                    "k": k,
                    "weight": weight,
                },
            )
        )
    return reports


def verify_stabiliser(
    k_values: Iterable[int] = (1, 2, 3, 4, 5),
    l_values: Iterable[int] = (0, 5, 50, 200),
    deltas: Iterable[float] = (0.1, 0.5, 1.0),
    min_fairness: float = 0.05,
    config: FgaConfig | None = None,
) -> list[BoundReport]:
    """Build stabilised stars whose influencers really lose fairness; check the floor.

    Fairness exactly 0 is unattainable, so for large deltas the influencers
    are pinned at ``min_fairness``; the realized drop is then below delta and
    the floor must hold a fortiori.
    """
    config = config or ATTACK_CONFIG
    reports = []
    for k in k_values:
        for l in l_values:
            for delta in deltas:
                fairness = max(1.0 - delta, min_fairness)
                graph, centre, _, _ = gadgets.stabilised_star(k, l, influencer_fairness=fairness)
                scores = compute_fga(graph, config)
                drop = 1.0 - float(scores.goodness[centre])
                cap = 1.0 - stabiliser_lower_bound(k, l, delta)
                reports.append(
                    BoundReport.from_trial(
                        cap, drop, {"k": k, "l": l, "delta": delta, "influencer_fairness": fairness}
                    )
                )
    return reports


def verify_bound_empirically(
    scenario: str,
    graph: Wsn | None = None,
    trials: int = 100,
    seed: int = 0,
    k: int = 3,
    config: FgaConfig | None = None,
) -> list[BoundReport]:
    """Dispatch one of the bound scenarios: direct-sybil, indirect-sybil, stabiliser."""
    if scenario == "direct-sybil":
        if graph is None:
            raise ValueError("direct-sybil needs a graph")
        return verify_direct_sybil(graph, trials, seed, config)
    if scenario == "indirect-sybil":
        if graph is None:
            raise ValueError("indirect-sybil needs a graph")
        return verify_indirect_sybil(graph, k, trials, seed, config)
    if scenario == "stabiliser":
        return verify_stabiliser(config=config)
    raise ValueError(f"unknown scenario {scenario!r}")
