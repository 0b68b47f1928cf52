"""Constructed graphs whose converged scores hit requested values exactly.

The basic trick: a rater's fairness is pinned by attaching auxiliary sink
nodes it rates with a controlled error. Each sink is also rated 1.0 by m
fresh "pinner" nodes, which makes the sink's goodness solvable in closed
form, so the whole little fixed point is worked out analytically before any
node is created. Exact fairness 0 (or a rating error of exactly 2) cannot
occur in any finite graph, because it would need every incoming term of some
node to sit at an endpoint the rater itself contradicts; requests outside
the realizable range raise GadgetError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graph import Wsn


class _EdgeList:
    """Unlabelled nodes and edges, grown like a ``Wsn`` and then built in one call."""

    def __init__(self) -> None:
        self.n = 0
        self.edges: list[tuple[int, int, float]] = []

    def add_node(self) -> int:
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int, weight: float) -> None:
        self.edges.append((u, v, weight))

    def build(self) -> Wsn:
        src, dst, w = zip(*self.edges)  # every gadget has an edge
        return Wsn.from_arrays(self.n, src, dst, w)


class GadgetError(ValueError):
    """The requested score configuration cannot be realized by a finite graph."""


@dataclass(frozen=True)
class BallastSpec:
    """What was attached to pin one rater's fairness."""

    sinks: int
    pinners_per_sink: int
    sink_weight: float
    sink_error: float
    sink_goodness: float


def _pinner_count(error: float, rater_fairness: float, max_pinners: int) -> int:
    # Feasibility of the sink weight needs error <= (2m + 2 - 2f) / (m + 2).
    if error >= 2.0:
        raise GadgetError(f"rating error {error} is unrealizable (must be < 2)")
    m = max(4, math.ceil((2.0 * error + 2.0 * rater_fairness - 2.0) / (2.0 - error)) + 2)
    if m > max_pinners:
        raise GadgetError(f"error {error} at fairness {rater_fairness} needs {m} pinners")
    return m


def _sink_weight(error: float, rater_fairness: float, m: int) -> float:
    # Solves |w - g_sink| = error for a sink rated by the rater (weight w)
    # and m pinners (weight 1), where g_sink = (2 f w + m) / (m + 2).
    w = (m - error * (m + 2)) / (m + 2 - 2.0 * rater_fairness)
    if w < -1.0 - 1e-12 or w > 1.0 + 1e-12:
        raise GadgetError(f"sink weight {w} out of range for error {error}")
    return min(1.0, max(-1.0, w))


def attach_fairness_ballast(
    graph: Wsn | _EdgeList,
    rater: int,
    target_fairness: float,
    existing_errors: Sequence[float] = (),
    max_sinks: int = 512,
    max_pinners: int = 4096,
) -> BallastSpec | None:
    """Attach sink structure so the rater's converged fairness equals ``target_fairness``.

    ``existing_errors`` are the rating errors the rater's current out-edges
    will carry at the intended fixed point; the ballast absorbs whatever error
    budget they leave over. Returns None when no ballast is needed.
    """
    f0 = float(target_fairness)
    if not 0.0 < f0 <= 1.0:
        raise GadgetError(f"fairness {f0} not realizable (must be in (0, 1])")
    errors = [float(d) for d in existing_errors]
    if any(d < 0 or d > 2 for d in errors):
        raise GadgetError("existing errors must lie in [0, 2]")
    count = len(errors)
    total = sum(errors)

    if f0 == 1.0:
        if total > 1e-12:
            raise GadgetError("fairness 1 is incompatible with nonzero rating error")
        return None

    # Want f0 = 1 - (total + sinks * d) / (2 (count + sinks)); solve for the
    # per-sink error d given an integer sink count. The per-sink error floors
    # at 2 (1 - f0) as the sink count grows; allowing it up to midway between
    # that floor and the hard limit of 2 keeps the pinner count modest.
    leftover = 2.0 * count * (1.0 - f0) - total
    if leftover >= 0.0:
        sinks = 1
        d = 2.0 * (1.0 - f0) + leftover
        d_allow = 2.0 * (1.0 - f0) + f0  # floor + (2 - floor) / 2
        if d > d_allow:
            sinks = math.ceil(leftover / f0)
    else:
        sinks = max(1, math.ceil(-leftover / (2.0 * (1.0 - f0))))
    if sinks > max_sinks:
        raise GadgetError(f"pinning fairness {f0} would need {sinks} sinks")
    d = (2.0 * (count + sinks) * (1.0 - f0) - total) / sinks
    d = max(0.0, d)

    m = _pinner_count(d, f0, max_pinners)
    w = _sink_weight(d, f0, m)
    for _ in range(sinks):
        sink = graph.add_node()
        graph.add_edge(rater, sink, w)
        for _ in range(m):
            pinner = graph.add_node()
            graph.add_edge(pinner, sink, 1.0)
    return BallastSpec(
        sinks=sinks,
        pinners_per_sink=m,
        sink_weight=w,
        sink_error=d,
        sink_goodness=(2.0 * f0 * w + m) / (m + 2),
    )


def goodness_star(groups: Sequence[tuple[int, float, float]]) -> tuple[Wsn, int, list[list[int]]]:
    """Star whose centre is rated by homogeneous groups of pinned raters.

    ``groups`` is a sequence of (size, fairness, rating weight) triples. The
    centre's converged goodness is the size-weighted mean of fairness * weight
    over the groups, and every rater's converged fairness equals its group's
    requested value.
    """
    if not groups:
        raise ValueError("at least one rater group is required")
    for size, f0, omega in groups:
        if size < 1:
            raise ValueError(f"group size {size} must be >= 1")
        if not -1.0 <= omega <= 1.0:
            raise ValueError(f"rating {omega} outside [-1, 1]")
        if not 0.0 < f0 <= 1.0:
            raise GadgetError(f"fairness {f0} not realizable")
    total = sum(size for size, _, _ in groups)
    centre_goodness = sum(size * f0 * omega for size, f0, omega in groups) / total

    graph = _EdgeList()
    centre = graph.add_node()
    rater_groups: list[list[int]] = []
    for size, f0, omega in groups:
        raters = []
        for _ in range(size):
            rater = graph.add_node()
            graph.add_edge(rater, centre, omega)
            attach_fairness_ballast(
                graph, rater, f0, existing_errors=[abs(omega - centre_goodness)]
            )
            raters.append(rater)
        rater_groups.append(raters)
    return graph.build(), centre, rater_groups


def fairness_fan(errors: Sequence[float]) -> tuple[Wsn, int, list[int]]:
    """One rater rating len(errors) pinned nodes with exactly the given errors.

    The rater's converged fairness is 1 - mean(errors) / 2.
    """
    errors = [float(d) for d in errors]
    if not errors:
        raise ValueError("at least one rated node is required")
    for d in errors:
        if d < 0.0 or d >= 2.0:
            raise GadgetError(f"rating error {d} not realizable (must be in [0, 2))")
    rater_fairness = 1.0 - sum(errors) / (2.0 * len(errors))

    graph = _EdgeList()
    rater = graph.add_node()
    rated_ids = []
    for d in errors:
        m = _pinner_count(d, rater_fairness, max_pinners=4096)
        w = _sink_weight(d, rater_fairness, m)
        rated = graph.add_node()
        graph.add_edge(rater, rated, w)
        for _ in range(m):
            pinner = graph.add_node()
            graph.add_edge(pinner, rated, 1.0)
        rated_ids.append(rated)
    return graph.build(), rater, rated_ids


def stabilised_star(
    k: int, l: int, influencer_fairness: float = 1.0
) -> tuple[Wsn, int, list[int], list[int]]:
    """Centre rated 1.0 by k pinned influencers and l plain stabilisers.

    With influencers pinned at fairness f0, the centre's converged goodness is
    (2 k f0 + l) / (2 k + l).
    """
    if k < 1:
        raise ValueError("at least one influencer is required")
    if l < 0:
        raise ValueError("stabiliser count must be >= 0")
    f0 = float(influencer_fairness)
    if not 0.0 < f0 <= 1.0:
        raise GadgetError(f"fairness {f0} not realizable")
    centre_goodness = (2.0 * k * f0 + l) / (2.0 * k + l)

    graph = _EdgeList()
    centre = graph.add_node()
    influencers = []
    for _ in range(k):
        rater = graph.add_node()
        graph.add_edge(rater, centre, 1.0)
        attach_fairness_ballast(
            graph, rater, f0, existing_errors=[1.0 - centre_goodness]
        )
        influencers.append(rater)
    stabilisers = []
    for _ in range(l):
        s = graph.add_node()
        graph.add_edge(s, centre, 1.0)
        stabilisers.append(s)
    return graph.build(), centre, influencers, stabilisers
