"""Attack algorithms against the goodness score, plus an exhaustive tiny-scale solver.

The move model: an attacker either adds an edge it does not have yet or
updates the weight of one it does, always within [-1, 1]. Direct attacks rate
the target itself with -1. Indirect attacks rate successors of the target's
predecessors, corrupting predecessor fairness; the greedy variants commit,
per step, whichever candidate edge lowers the target's recomputed goodness
the most. Candidate scores within 1e-9 count as tied (fixed-point residual
noise) and resolve to the smallest successor id, positive weight first, so
runs are deterministic.

The greedy scan solves only its winners to the end. Each candidate is an
``EditSolve`` (``fga.engine``): a warm re-solve of its one-edit overlay that
starts from two sweeps of the step's store, shared by all the step's
candidates, and recomputes its own sweeps 1 and 2 on the edit's frontier
only. After sweep t its converged goodness lies in [g_t - 2 * d_t - 1e-12,
g_t + 2 * d_t + 1e-12], d_t the largest fairness step of sweep t (the
sweeps are nonexpansive and fairness steps halve, so from sweep 1 on
goodness moves by less than 2 * d_t), and the interval collapses to the
exact value once the solve stops. Scanning in order, a challenger replaces
the incumbent when hi_c < lo_b - 1e-9, since then its exact value beats the
incumbent's by more than the tie tolerance, and is dropped when lo_c >=
hi_b - 1e-9, since then it cannot. Otherwise
the wider of the two unfinished solves runs one more sweep; two stopped
solves always decide. So every comparison ends as the sequential rule on
exact values would. A loser runs to the end only when its value is too
close to the incumbent's to tell apart sooner, as in an exact tie. A
winner whose scores the scan uses is finished with the same sweeps, scores
and residual as ``recompute_flat``; a scaled batch re-solves instead.

Attacks never edit the attacked graph. They score overlays of its edge store
(``FlatEdges.with_ratings``), and an outcome's ``graph_after`` is the graph's
labels plus the final overlay. The exhaustive oracle builds a batch of move
sets' overlays at once, as one union (``engine._solve_overlays``).
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .engine import HIGH_PRECISION, FgaConfig, FgaScores, FlatEdges, compute_fga, recompute_flat
from .engine import EditSolve, WarmEdits, _solve_overlays
from .engine import recompute_after  # noqa: F401  bench/tracing.py wraps it by this name
from .graph import KIND_ADD, KIND_UPDATE, Wsn, as_count, node_index

#: Measurement-grade settings; attack deltas are asserted at 1e-9 downstream.
ATTACK_CONFIG = HIGH_PRECISION

#: ``indirect_attack_scaled``'s batch defaults: min(scale * indeg, max_edges) edges a pick.
SCALE, MAX_EDGES = 5, 10

#: The attacker pools of ``qualifying_attackers``, each with its rule in ``SelectionCriteria``.
ATTACKER_CLASSES = ("established", "fresh")

#: Candidate scores closer than this are treated as equal when ranking moves.
TIE_TOLERANCE = 1e-9

#: ``solve_exhaustive`` refuses instances with more candidate move sets than this.
MAX_MOVE_SETS = 1_000_000


class InsufficientCandidatesError(RuntimeError):
    """Fewer qualifying nodes than requested."""


class InstanceTooLargeError(RuntimeError):
    """The exhaustive solver refuses instances beyond its enumeration guard."""


@dataclass(frozen=True)
class AttackMove:
    kind: str
    attacker: int
    rated: int
    weight: float


@dataclass
class AttackOutcome:
    """Before/after scores and the committed move log of one attack on ``target``.

    A mixed attack's first k1 moves are its direct ones, and ``delta_direct`` is the
    target's goodness shift after those alone; its indirect part is
    ``delta - delta_direct``. Other attacks leave it None.
    """

    moves: list[AttackMove]
    scores_before: FgaScores
    scores_after: FgaScores
    target: int
    exhausted: bool = False
    delta_direct: float | None = None
    graph_after: Wsn = field(kw_only=True, repr=False, compare=False)

    @property
    def delta(self) -> float:
        """The target's goodness shift."""
        after, before = self.scores_after.goodness, self.scores_before.goodness
        return float(after[self.target] - before[self.target])


@dataclass(frozen=True)
class SelectionCriteria:
    """Node filters used to sample targets and attacker pools.

    Targets: 0 < indeg < target_max_indeg and goodness >= target_min_goodness.
    Established attackers: outdeg > established_min_outdeg and fairness >
    established_min_fairness. Fresh attackers: 0 < indeg < fresh_max_indeg
    and outdeg == 0.
    """

    target_max_indeg: int = 10
    target_min_goodness: float = 0.5
    established_min_outdeg: int = 5
    established_min_fairness: float = 0.7
    fresh_max_indeg: int = 10

    def __post_init__(self) -> None:
        for name in ("target_max_indeg", "established_min_outdeg", "fresh_max_indeg"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        # a NaN threshold, or one outside the score's range, would let the filter admit
        # every node or none without an error
        for name, low in (("target_min_goodness", -1.0), ("established_min_fairness", 0.0)):
            value = getattr(self, name)
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (number and low <= value <= 1.0):  # np.bool_ is no Real; NaN is in no range
                raise ValueError(f"{name} must be a number in [{low:g}, 1], got {value!r}")


@dataclass
class AttackProblem:
    """A budgeted threshold-reaching instance over node targets or unlinked pairs."""

    graph: Wsn
    attackers: tuple[int, ...]
    intermediaries: tuple[int, ...]
    budget: int
    threshold: float
    direction: str = "decrease"
    targets: tuple[int, ...] | None = None
    target_pairs: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("decrease", "increase"):
            raise ValueError(f"direction must be decrease or increase, got {self.direction!r}")
        self.budget = as_count(self.budget, "budget")
        if not -1.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [-1, 1]")
        if (self.targets is None) == (self.target_pairs is None):
            raise ValueError("exactly one of targets / target_pairs must be given")
        n = self.graph.node_count
        self.attackers = tuple(node_index(v, n) for v in self.attackers)
        self.intermediaries = tuple(node_index(v, n) for v in self.intermediaries)
        attackers = set(self.attackers)
        if self.targets is not None:
            self.targets = tuple(node_index(v, n) for v in self.targets)
            if not self.targets:
                raise ValueError("target set must be non-empty")
            if attackers & set(self.targets):
                raise ValueError("attackers and targets must be disjoint")
        if self.target_pairs is not None:
            if not self.target_pairs:
                raise ValueError("target pair set must be non-empty")
            pairs = self.target_pairs
            self.target_pairs = tuple((node_index(u, n), node_index(v, n)) for u, v in pairs)
            for u, v in self.target_pairs:
                if u == v:
                    raise ValueError(f"degenerate pair ({u}, {v})")
                if u in attackers or v in attackers:
                    raise ValueError("pair members must not be attackers")
                if self.graph.has_edge(u, v) or self.graph.has_edge(v, u):
                    raise ValueError(f"pair ({u}, {v}) is already linked")


@dataclass
class ExhaustiveSearchResult:
    feasible: bool
    objective_value: float
    moves: tuple[AttackMove, ...]
    sets_enumerated: int


# -- shared internals ------------------------------------------------------


def _by_descending_fairness(attackers: set[int], scores: FgaScores) -> list[int]:
    return sorted(attackers, key=lambda a: (-scores.fairness[a], a))


def _moves(flat: FlatEdges, edits) -> list[AttackMove]:
    """Moves for one group of edits on distinct edges, classified against ``flat``."""
    return [
        AttackMove(KIND_UPDATE if flat.has_edge(a, r) else KIND_ADD, a, r, w) for a, r, w in edits
    ]


def _rate_all(
    flat: FlatEdges, scores: FgaScores, edits, config: FgaConfig
) -> tuple[FlatEdges, FgaScores, list[AttackMove]]:
    """Apply one group of edits to the view and re-solve warm from ``scores``."""
    moves = _moves(flat, edits)
    if not moves:
        return flat, scores, moves
    view = flat.with_ratings(edits)
    return view, recompute_flat(view, scores, config), moves


def _indirect_candidates(flat: FlatEdges, target: int, attacker: int) -> list[int]:
    """Successors of the target's raters, ascending, without the target and attacker."""
    raters = np.zeros(flat.n, dtype=bool)
    raters[flat.src[flat.dst == target]] = True
    rated = np.zeros(flat.n, dtype=bool)
    rated[flat.dst[raters[flat.src]]] = True
    rated[[target, attacker]] = False
    return np.flatnonzero(rated).tolist()


def _best_candidate(
    flat: FlatEdges, scores: FgaScores, attacker: int, target: int, config: FgaConfig
) -> EditSolve | None:
    """The winning (successor, +-1) candidate's solve, maybe unfinished, or None.

    Iteration runs in ascending id with +1 before -1, and a replacement must
    beat the incumbent by more than TIE_TOLERANCE, which implements the
    deterministic tie-break. Each candidate is one ``EditSolve`` from the
    step's shared first sweeps, and each comparison is decided on the two
    solves' intervals (module docstring), sweeping the wider unfinished one
    until they decide it. The caller finishes the winner's solve if it needs
    the scores.
    """
    candidates = _indirect_candidates(flat, target, attacker)
    if not candidates:
        return None
    edits = WarmEdits(flat, scores, config)
    best = None
    for rated in candidates:
        for weight in (1.0, -1.0):
            challenger = edits.solve(attacker, rated, weight)
            if best is None:
                best = challenger
                continue
            while True:
                best_lo, best_hi = best.bounds(target)
                lo, hi = challenger.bounds(target)
                if hi < best_lo - TIE_TOLERANCE:
                    best = challenger  # it ends below the incumbent by more than the tolerance
                    break
                if lo >= best_hi - TIE_TOLERANCE:
                    break  # it cannot end below the incumbent by more than the tolerance
                if best.stopped or (not challenger.stopped and hi - lo >= best_hi - best_lo):
                    challenger.advance()
                else:
                    best.advance()
    return best


def _indirect_scan(
    flat: FlatEdges,
    scores: FgaScores,
    ordered: list[int],
    target: int,
    config: FgaConfig,
    scale: int,
    max_edges: int,
) -> tuple[FlatEdges, FgaScores, list[AttackMove], bool]:
    """Greedy picks for the attackers in order; returns (view, scores, moves, exhausted).

    Each pick, scanned for the attacker at the cursor, is rated by the next
    min(scale * indeg(rated), max_edges, attackers left) attackers; scale and
    max_edges of 1 give one edge per attacker.
    """
    moves: list[AttackMove] = []
    i = 0
    while i < len(ordered):
        best = _best_candidate(flat, scores, ordered[i], target, config)
        if best is None:
            return flat, scores, moves, True
        _, rated, weight = best.edit
        size = min(scale * int(flat.indeg[rated]), max_edges, len(ordered) - i)
        edits = [(a, rated, weight) for a in ordered[i : i + size] if a != rated]
        if len(edits) == 1:  # exactly the scanned candidate, whose solve is finished here
            moves += _moves(flat, edits)
            flat, scores = best.view, best.finish()
        else:
            flat, scores, batch = _rate_all(flat, scores, edits, config)
            moves += batch
        i += size
    return flat, scores, moves, False


# -- attack algorithms -------------------------------------------------------
# ``before`` is the converged scores of ``graph`` under ``config``; when it is
# omitted, the attack solves for them itself, after checking its arguments.


def _prologue(
    graph: Wsn, attackers, target: int, config: FgaConfig | None, before: FgaScores | None,
    needed: int = 0,
) -> tuple[set[int], int, FgaConfig, FgaScores]:
    """The attackers, read once into a set, the target, the config and the scores before.

    Raises KeyError for a node not in the graph, and ValueError if the target is
    among the attackers or fewer than ``needed`` attackers are distinct, before any solve.
    """
    config = config or ATTACK_CONFIG
    target = node_index(target, graph.node_count)
    pool = {node_index(attacker, graph.node_count) for attacker in attackers}
    if target in pool:
        raise ValueError("the target cannot attack itself")
    if needed > len(pool):
        raise ValueError(f"need {needed} distinct attackers, have {len(pool)}")
    if before is None:
        before = compute_fga(graph, config)
    return pool, target, config, before


def direct_attack(
    graph: Wsn,
    attackers,
    target: int,
    config: FgaConfig | None = None,
    before: FgaScores | None = None,
) -> AttackOutcome:
    """Every attacker rates the target with the worst possible weight -1.

    An attacker that already rates the target degrades its move to a weight
    update; either way one budget unit is spent per attacker.
    """
    pool, target, config, before = _prologue(graph, attackers, target, config, before)
    edits = [(attacker, target, -1.0) for attacker in sorted(pool)]
    view, after, moves = _rate_all(graph.flat(), before, edits, config)
    return AttackOutcome(moves, before, after, target, graph_after=graph.with_edges(view))


def indirect_attack_greedy(
    graph: Wsn,
    attackers,
    target: int,
    config: FgaConfig | None = None,
    before: FgaScores | None = None,
) -> AttackOutcome:
    """One edge per attacker, highest-fairness attackers first.

    Each attacker rates the successor of one of the target's predecessors with
    whichever of +1 / -1 lowers the target's recomputed goodness the most.
    Running out of eligible successors reports exhaustion, not failure.
    """
    return indirect_attack_scaled(
        graph, attackers, target, scale=1, max_edges=1, config=config, before=before
    )


def indirect_attack_scaled(
    graph: Wsn,
    attackers,
    target: int,
    scale: int = SCALE,
    max_edges: int = MAX_EDGES,
    config: FgaConfig | None = None,
    before: FgaScores | None = None,
) -> AttackOutcome:
    """Greedy pick as above, but each pick is amplified into a batch of edges.

    The batch size is min(scale * indeg(rated), max_edges, attackers left),
    drawn from the fairness-sorted attacker list at the running cursor; all
    batch members rate the picked node with the picked weight.
    """
    scale, max_edges = as_count(scale, "scale", 1), as_count(max_edges, "max_edges", 1)
    pool, target, config, before = _prologue(graph, attackers, target, config, before)
    ordered = _by_descending_fairness(pool, before)
    view, after, moves, exhausted = _indirect_scan(
        graph.flat(), before, ordered, target, config, scale, max_edges
    )
    graph_after = graph.with_edges(view)
    return AttackOutcome(moves, before, after, target, exhausted, graph_after=graph_after)


def mixed_attack(
    graph: Wsn,
    attackers,
    target: int,
    k1: int,
    k2: int,
    config: FgaConfig | None = None,
    before: FgaScores | None = None,
) -> AttackOutcome:
    """k1 attackers rate the target directly, then k2 run the greedy indirect attack.

    The attacker pool is split disjointly in descending-fairness order, so no
    attacker is assigned twice. The outcome's first k1 moves are the direct
    ones, and it sets ``delta_direct``; ``exhausted`` is the indirect scan's.
    """
    k1, k2 = as_count(k1, "k1"), as_count(k2, "k2")
    pool, target, config, before = _prologue(graph, attackers, target, config, before, k1 + k2)
    ordered = _by_descending_fairness(pool, before)
    edits = [(attacker, target, -1.0) for attacker in ordered[:k1]]
    flat, mid, direct_moves = _rate_all(graph.flat(), before, edits, config)
    delta_direct = float(mid.goodness[target] - before.goodness[target])
    view, after, indirect_moves, exhausted = _indirect_scan(
        flat, mid, ordered[k1 : k1 + k2], target, config, scale=1, max_edges=1
    )
    return AttackOutcome(
        direct_moves + indirect_moves, before, after, target, exhausted, delta_direct,
        graph_after=graph.with_edges(view),
    )


# -- exhaustive oracle -------------------------------------------------------


def _objective(problem: AttackProblem, scores: FgaScores) -> float:
    f = scores.fairness
    g = scores.goodness
    if problem.targets is not None:
        values = [float(g[t]) for t in problem.targets]
        return max(values) if problem.direction == "decrease" else min(values)
    assert problem.target_pairs is not None
    per_pair = []
    for u, v in problem.target_pairs:
        predictions = (float(f[u] * g[v]), float(f[v] * g[u]))
        # Either direction of the potential link may satisfy the goal.
        per_pair.append(min(predictions) if problem.direction == "decrease" else max(predictions))
    return max(per_pair) if problem.direction == "decrease" else min(per_pair)


def solve_exhaustive(
    problem: AttackProblem, weight_grid: tuple[float, ...] = (-1.0, 1.0)
) -> ExhaustiveSearchResult:
    """Enumerate every move set within budget and return the extremal one.

    Feasible means some enumerated set pushes every target (or one prediction
    per pair) past the threshold. The returned moves are the best set found
    by the objective whether or not it is feasible. Instances whose move-set
    count exceeds ``MAX_MOVE_SETS`` are rejected outright.
    """
    grid = [float(weight) for weight in weight_grid]
    if not all(-1.0 <= w <= 1.0 for w in grid) or len(set(grid)) < len(grid):  # nan fails
        raise ValueError(f"weight_grid must hold distinct weights in [-1, 1], got {weight_grid!r}")
    graph = problem.graph
    pool: list[tuple[int, int, float]] = []
    for attacker in sorted(set(problem.attackers)):
        for rated in sorted(set(problem.intermediaries)):
            if attacker == rated:
                continue
            existing = graph.weight(attacker, rated) if graph.has_edge(attacker, rated) else None
            for weight in grid:
                if existing is not None and existing == weight:
                    continue  # updating to the same value is a null move
                pool.append((attacker, rated, weight))

    total_sets = sum(math.comb(len(pool), size) for size in range(0, problem.budget + 1))
    if total_sets > MAX_MOVE_SETS:
        raise InstanceTooLargeError(
            f"{total_sets} candidate move sets exceed the {MAX_MOVE_SETS} limit"
        )

    base = compute_fga(graph, ATTACK_CONFIG)
    flat = graph.flat()
    best_value = _objective(problem, base)
    best_combo: tuple[tuple[int, int, float], ...] = ()
    enumerated = 1
    minimize = problem.direction == "decrease"
    # two moves on one edge collapse to the later one, so such sets are skipped
    combos = (
        combo
        for size in range(1, problem.budget + 1)
        for combo in itertools.combinations(pool, size)
        if len({(a, v) for a, v, _ in combo}) == size
    )
    for combo, scores in _solve_overlays(flat, combos, base, ATTACK_CONFIG):
        value = _objective(problem, scores)
        enumerated += 1
        if (value < best_value) if minimize else (value > best_value):
            best_value = value
            best_combo = combo

    threshold = problem.threshold
    return ExhaustiveSearchResult(
        feasible=best_value <= threshold if minimize else best_value >= threshold,
        objective_value=best_value,
        moves=tuple(_moves(flat, best_combo)),
        sets_enumerated=enumerated,
    )


# -- target / attacker selection ----------------------------------------------


def qualifying_targets(graph: Wsn, scores: FgaScores, criteria: SelectionCriteria) -> list[int]:
    indeg = graph.flat().indeg
    return np.flatnonzero(
        (indeg > 0)
        & (indeg < criteria.target_max_indeg)
        & (scores.goodness >= criteria.target_min_goodness)
    ).tolist()


def qualifying_attackers(
    graph: Wsn, scores: FgaScores, criteria: SelectionCriteria, attacker_class: str
) -> list[int]:
    if attacker_class not in ATTACKER_CLASSES:
        raise ValueError(f"unknown attacker class {attacker_class!r}")
    flat = graph.flat()
    if attacker_class == "established":
        mask = (flat.outdeg > criteria.established_min_outdeg) & (
            scores.fairness > criteria.established_min_fairness
        )
    else:
        mask = (flat.indeg > 0) & (flat.indeg < criteria.fresh_max_indeg) & (flat.outdeg == 0)
    return np.flatnonzero(mask).tolist()


def _sample(pool: list[int], count: int, rng: np.random.Generator, what: str) -> list[int]:
    count = as_count(count, "count")
    if len(pool) < count:
        raise InsufficientCandidatesError(
            f"requested {count} {what} but only {len(pool)} qualify"
        )
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in picks]


def select_targets(
    graph: Wsn,
    scores: FgaScores,
    criteria: SelectionCriteria,
    count: int,
    rng: np.random.Generator,
) -> list[int]:
    """Seeded uniform sample from the nodes matching the target rule."""
    return _sample(qualifying_targets(graph, scores, criteria), count, rng, "targets")


def select_attackers(
    graph: Wsn,
    scores: FgaScores,
    criteria: SelectionCriteria,
    count: int,
    rng: np.random.Generator,
    attacker_class: str = "established",
    exclude=(),
) -> list[int]:
    """Seeded uniform sample from the requested attacker pool."""
    excluded = set(exclude)
    pool = [v for v in qualifying_attackers(graph, scores, criteria, attacker_class) if v not in excluded]
    return _sample(pool, count, rng, f"{attacker_class} attackers")
