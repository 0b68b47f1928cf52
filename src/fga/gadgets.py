"""Constructed graphs whose converged scores hit requested values exactly.

The basic trick: a rater's fairness is pinned by attaching auxiliary sink
nodes it rates with a controlled error. The sinks are also rated 1.0 by m
"pinner" nodes, which makes a sink's goodness solvable in closed form, so the
whole little fixed point is worked out analytically before any node is
created. Exact fairness 0 (or a rating error of exactly 2) cannot occur in
any finite graph, because it would need every incoming term of some node to
sit at an endpoint the rater itself contradicts; requests outside the
realizable range raise GadgetError.

One set of m pinners rates all of a rater's sinks, so a pinned rater costs
sinks + m nodes, not sinks * (m + 1), and the closed form is the one for m
pinners of each sink's own. The rater, of fairness f, rates every sink with
the same weight w, and the same m pinners rate every sink, so at the (unique)
fixed point every sink has the same goodness g, and every pinner the fairness
1 - (1 - g) / 2 = (1 + g) / 2 of a pinner that rates one sink. Then
g = (f w + m (1 + g) / 2) / (m + 1), so g = (2 f w + m) / (m + 2) at each sink.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .graph import Wsn, as_count


class _EdgeList:
    """Unlabelled nodes and edges, grown in numpy blocks and then built in one call."""

    def __init__(self) -> None:
        self.n = 0
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def add_nodes(self, count: int) -> range:
        self.n += count
        return range(self.n - count, self.n)

    def rate(self, raters: Sequence[int], target: int, weight: float) -> None:
        """Each of ``raters`` rates ``target`` with ``weight``."""
        src = np.asarray(raters, dtype=np.int64)
        self.blocks.append((src, np.full(len(src), target), np.full(len(src), weight)))

    def pinned_raters(self, size: int, fairness: float, error: float) -> list[int]:
        """``size`` new raters, each pinned at ``fairness`` beside one rating of ``error``.

        Rater i is numbered first, then its sinks, then the m pinners they share, and one
        block holds the whole group. Fairness 1 needs no sinks, so its raters have no edge.
        """
        weight, count, m = _ballast_plan(fairness, [error])
        stride = 1 + count + m
        raters = self.add_nodes(size * stride)[::stride]
        if count:
            # rater i's edges, numbered from it: it and then each pinner rate every sink
            shape = (size, m + 1, count)
            first = np.arange(raters.start, raters.stop, stride)[:, None, None]
            src = np.empty(shape, dtype=np.int64)
            src[:] = np.arange(count, count + m + 1)[:, None]
            src[:, 0] = 0
            src += first
            dst = np.empty(shape, dtype=np.int64)
            dst[:] = np.arange(1, count + 1)
            dst += first
            w = np.ones(shape)
            w[:, 0] = weight
            self.blocks.append((src.reshape(-1), dst.reshape(-1), w.reshape(-1)))
        return list(raters)

    def pinned_sinks(
        self, rater: int, weights: Sequence[float], pinners: Sequence[int]
    ) -> list[int]:
        """One sink per weight, rated it by ``rater`` and 1.0 by pinners of its own, as many
        as ``pinners`` gives; each sink is numbered before its pinners."""
        sizes = np.add(pinners, 1)  # each sink and its pinners
        nodes = self.add_nodes(int(sizes.sum()))
        ids = np.arange(nodes.start, nodes.stop)
        sink = np.repeat(ids[np.cumsum(sizes) - sizes], sizes)  # the sink each node is or rates
        rated = sink == ids  # the sinks, which the rater rates
        w = np.where(rated, np.repeat(weights, sizes), 1.0)
        self.blocks.append((np.where(rated, rater, ids), sink, w))
        return sink[rated].tolist()

    def build(self) -> Wsn:
        # every gadget has an edge; from_arrays sorts them into canonical order
        src, dst, w = (np.concatenate(column) for column in zip(*self.blocks))
        return Wsn.from_arrays(self.n, src, dst, w)


#: Most sinks, and most pinners shared by them, one pinned rater may need.
MAX_SINKS = 512
MAX_PINNERS = 4096


class GadgetError(ValueError):
    """The requested score configuration cannot be realized by a finite graph."""


def _pinner_count(error: float, rater_fairness: float) -> int:
    # Feasibility of the sink weight needs error <= (2m + 2 - 2f) / (m + 2).
    if error >= 2.0:
        raise GadgetError(f"rating error {error} is unrealizable (must be < 2)")
    m = max(4, math.ceil((2.0 * error + 2.0 * rater_fairness - 2.0) / (2.0 - error)) + 2)
    if m > MAX_PINNERS:
        raise GadgetError(f"error {error} at fairness {rater_fairness} needs {m} pinners")
    return m


def _sink_weight(error: float, rater_fairness: float, m: int) -> float:
    # Solves |w - g_sink| = error for a sink rated by the rater (weight w)
    # and m pinners (weight 1), where g_sink = (2 f w + m) / (m + 2).
    w = (m - error * (m + 2)) / (m + 2 - 2.0 * rater_fairness)
    if w < -1.0 - 1e-12 or w > 1.0 + 1e-12:
        raise GadgetError(f"sink weight {w} out of range for error {error}")
    return min(1.0, max(-1.0, w))


def _ballast_plan(
    target_fairness: float, existing_errors: Sequence[float]
) -> tuple[float, int, int]:
    """The sink weight, sink count and pinner count that pin a rater's fairness at
    ``target_fairness``.

    ``existing_errors`` are the errors its other out-edges carry at the fixed point;
    the sinks absorb the error budget they leave. Fairness 1 needs no sinks: count 0.
    """
    f0 = float(target_fairness)
    if not 0.0 < f0 <= 1.0:
        raise GadgetError(f"fairness {f0} not realizable")
    errors = [float(d) for d in existing_errors]
    if any(d < 0 or d > 2 for d in errors):
        raise GadgetError("existing errors must lie in [0, 2]")
    count = len(errors)
    total = sum(errors)

    if f0 == 1.0:
        if total > 1e-12:
            raise GadgetError("fairness 1 is incompatible with nonzero rating error")
        return 1.0, 0, 0

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
    if sinks > MAX_SINKS:
        raise GadgetError(f"pinning fairness {f0} would need {sinks} sinks")
    d = (2.0 * (count + sinks) * (1.0 - f0) - total) / sinks
    d = max(0.0, d)

    m = _pinner_count(d, f0)
    return _sink_weight(d, f0, m), sinks, m


def goodness_star(groups: Sequence[tuple[int, float, float]]) -> tuple[Wsn, int, list[list[int]]]:
    """Star whose centre is rated by homogeneous groups of pinned raters.

    ``groups`` is a sequence of (size, fairness, rating weight) triples. The
    centre's converged goodness is the size-weighted mean of fairness * weight
    over the groups, and every rater's converged fairness equals its group's
    requested value. A fairness outside (0, 1] is a ``GadgetError``.
    """
    graph, centre, rater_groups = _goodness_star(groups)
    return graph.build(), centre, rater_groups


def _goodness_star(
    groups: Sequence[tuple[int, float, float]]
) -> tuple[_EdgeList, int, list[list[int]]]:
    """``goodness_star`` unbuilt: its ``_EdgeList`` in place of the ``Wsn``."""
    if not groups:
        raise ValueError("at least one rater group is required")
    groups = [(as_count(size, "group size", 1), f0, omega) for size, f0, omega in groups]
    for _, _, omega in groups:
        if not -1.0 <= omega <= 1.0:
            raise ValueError(f"rating {omega} outside [-1, 1]")
    total = sum(size for size, _, _ in groups)
    centre_goodness = sum(size * f0 * omega for size, f0, omega in groups) / total

    graph = _EdgeList()
    centre = graph.add_nodes(1)[0]
    rater_groups: list[list[int]] = []
    for size, f0, omega in groups:
        raters = graph.pinned_raters(size, f0, abs(omega - centre_goodness))
        graph.rate(raters, centre, omega)
        rater_groups.append(raters)
    return graph, centre, rater_groups


def fairness_fan(errors: Sequence[float]) -> tuple[Wsn, int, list[int]]:
    """One rater rating len(errors) pinned nodes with exactly the given errors.

    The rater's converged fairness is 1 - mean(errors) / 2.
    """
    graph, rater, rated_ids = _fairness_fan(errors)
    return graph.build(), rater, rated_ids


def _fairness_fan(errors: Sequence[float]) -> tuple[_EdgeList, int, list[int]]:
    """``fairness_fan`` unbuilt: its ``_EdgeList`` in place of the ``Wsn``."""
    errors = [float(d) for d in errors]
    if not errors:
        raise ValueError("at least one rated node is required")
    for d in errors:
        if not 0.0 <= d < 2.0:  # NaN fails too
            raise GadgetError(f"rating error {d} not realizable (must be in [0, 2))")
    rater_fairness = 1.0 - sum(errors) / (2.0 * len(errors))

    pinners = [_pinner_count(d, rater_fairness) for d in errors]
    weights = [_sink_weight(d, rater_fairness, m) for d, m in zip(errors, pinners)]
    graph = _EdgeList()
    rater = graph.add_nodes(1)[0]
    return graph, rater, graph.pinned_sinks(rater, weights, pinners)


def stabilised_star(
    k: int, l: int, influencer_fairness: float = 1.0
) -> tuple[Wsn, int, list[int], list[int]]:
    """Centre rated 1.0 by k pinned influencers and l plain stabilisers.

    With influencers pinned at fairness f0, the centre's converged goodness is
    (2 k f0 + l) / (2 k + l). The centre is node 0.
    """
    graph, centre, influencers, stabilisers = _stabilised_star(k, l, influencer_fairness)
    return graph.build(), centre, influencers, stabilisers


def _stabilised_star(
    k: int, l: int, influencer_fairness: float = 1.0
) -> tuple[_EdgeList, int, list[int], list[int]]:
    """``stabilised_star`` unbuilt: its ``_EdgeList`` in place of the ``Wsn``."""
    k, l = as_count(k, "k", 1), as_count(l, "l")
    f0 = float(influencer_fairness)
    centre_goodness = (2.0 * k * f0 + l) / (2.0 * k + l)

    graph = _EdgeList()
    centre = graph.add_nodes(1)[0]
    influencers = graph.pinned_raters(k, f0, 1.0 - centre_goodness)
    stabilisers = list(graph.add_nodes(l))
    graph.rate(influencers + stabilisers, centre, 1.0)
    return graph, centre, influencers, stabilisers
