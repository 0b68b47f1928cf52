"""Executable property checks for the score functions, run on constructed gadgets.

Every check measures converged scores on real graphs built by the gadget
module and compares them against what the property demands. The closed forms
g = fairness * rating for a homogeneous unanimous rater set and
f = 1 - error / 2 for a constant-error rater act as the independent oracles
throughout.

A ``Check`` is the gadgets a property needs plus its gap as a function of
their measured values; ``gap`` solves one, and 0 means the property holds
exactly. The suite is one table, ``_DRAWS``, from each axiom's name to its
draw of one sampled check. ``run_axiom_suite`` gives every axiom its own
seeded stream, draws all of its samples, solves all of their gadgets and
scores each draw against ``TOLERANCE``. A probe hands the engine its gadget
unbuilt, as a node count and edge blocks (``gadgets._EdgeList``), so no
``Wsn`` is made and each batch of gadgets is sorted once
(``engine._solve_edge_blocks``); each result is bit-identical to the solve
of the gadget built alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generators
from .engine import HIGH_PRECISION, Block, FgaScores, _solve_edge_blocks
from .engine import compute_fga  # noqa: F401  bench/tracing.py wraps it by this name
from .gadgets import GadgetError, _fairness_fan, _goodness_star
from .gadgets import fairness_fan, goodness_star  # noqa: F401  bench/tracing.py wraps them
from .graph import as_count

TOLERANCE = 1e-9

#: Ordering ties below this are treated as exact (fixed-point residual noise).
_EPS = 1e-12


def closed_form_fairness(error: float) -> float:
    """Fairness of a node whose every rating misses by exactly ``error``."""
    return 1.0 - error / 2.0


@dataclass
class AxiomVerdict:
    name: str
    samples: int
    failures: int
    worst_error: float

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "axiom": self.name,
            "samples": self.samples,
            "failures": self.failures,
            "worst_error": self.worst_error,
            "passed": self.passed,
        }


# -- measurement helpers -------------------------------------------------

#: A gadget, unbuilt (its node count and edge blocks), and what to read off its scores.
Probe = tuple[tuple[int, list[Block]], Callable[[FgaScores], float]]
#: The probes of one check and its gap as a function of their measured values.
Check = tuple[list[Probe], Callable[[list[float]], float]]


def _goodness_probe(groups: list[tuple[int, float, float]]) -> Probe:
    graph, centre, _ = _goodness_star(groups)
    return (graph.n, graph.blocks), lambda scores: float(scores.goodness[centre])


def _fairness_probe(errors: list[float]) -> Probe:
    graph, rater, _ = _fairness_fan(errors)
    return (graph.n, graph.blocks), lambda scores: float(scores.fairness[rater])


def _measure(probes: list[Probe]) -> list[float]:
    """Solve every probe's gadget in batches and read each one's value."""
    solved = _solve_edge_blocks([graph for graph, _ in probes], HIGH_PRECISION)
    return [read(scores) for (_, read), scores in zip(probes, solved)]


def gap(check: Check) -> float:
    """Solve a check's gadgets and return its gap (0 means the property holds exactly)."""
    probes, gap_of = check
    return gap_of(_measure(probes))


# -- checks ----------------------------------------------------------------


def smooth_goodness(f0: float, delta: float, omega0: float, num_raters: int = 2) -> Check:
    """Goodness is additive in the raters' shared fairness."""
    probes = [_goodness_probe([(num_raters, f, omega0)]) for f in (f0 + delta, f0, delta)]
    return probes, lambda v: abs(v[0] - (v[1] + v[2]))


def increase_weight(f0: float, omega0: float, delta: float, num_raters: int = 2) -> Check:
    """Goodness is additive in the raters' shared rating."""
    probes = [_goodness_probe([(num_raters, f0, w)]) for w in (omega0 + delta, omega0, delta)]
    return probes, lambda v: abs(v[0] - (v[1] + v[2]))


def _mean_gap(sizes: list[int]) -> Callable[[list[float]], float]:
    """The gap between v[0] and the ``sizes``-weighted mean of v[1:], as a function of v."""
    total = sum(sizes)
    return lambda v: abs(v[0] - sum(size * value for size, value in zip(sizes, v[1:])) / total)


def groups_goodness(partition: list[tuple[int, float, float]]) -> Check:
    """Goodness of a node rated by homogeneous groups is their size-weighted mean."""
    if not partition:
        raise ValueError("partition must be non-empty")
    probes = [_goodness_probe(partition)]
    probes += [_goodness_probe([(size, f0, omega)]) for size, f0, omega in partition]
    return probes, _mean_gap([size for size, _, _ in partition])


def smooth_fairness(d: float, big_d: float, set_size: int = 2) -> Check:
    """Fairness at the mean of two constant errors is the mean of their fairness."""
    errors = ((d + big_d) / 2.0, d, big_d)
    probes = [_fairness_probe([error] * set_size) for error in errors]
    return probes, lambda v: abs(v[0] - (v[1] + v[2]) / 2.0)


def groups_fairness(partition: list[tuple[int, float]]) -> Check:
    """A rater's fairness over constant-error groups is their size-weighted mean."""
    if not partition:
        raise ValueError("partition must be non-empty")
    errors: list[float] = []
    for size, d in partition:
        errors.extend([d] * size)
    probes = [_fairness_probe(errors)]
    probes += [_fairness_probe([d] * size) for size, d in partition]
    return probes, _mean_gap([size for size, _ in partition])


# -- sampled draws ---------------------------------------------------------


def _draw_fairness(rng, lo: float = 0.1, hi: float = 0.95) -> float:
    return float(rng.uniform(lo, hi))


def _draw_smooth_goodness(rng, _: int) -> Check:
    f0 = float(rng.uniform(0.1, 0.8))
    delta = float(rng.uniform(0.1, 1.0 - f0))
    omega = float(rng.uniform(-1.0, 1.0))
    raters = int(rng.integers(1, 4))
    return smooth_goodness(f0, delta, omega, raters)


def _draw_increase_weight(rng, _: int) -> Check:
    f0 = _draw_fairness(rng, 0.1, 1.0)
    while True:
        omega = float(rng.uniform(-1.0, 1.0))
        omega_after = float(rng.uniform(-1.0, 1.0))
        delta = omega_after - omega
        if abs(delta) <= 1.0:
            break
    raters = int(rng.integers(1, 4))
    return increase_weight(f0, omega, delta, raters)


def _draw_monotonicity_goodness(rng, _: int) -> Check:
    """Higher shared rating, or higher shared fairness, never lowers goodness.

    For negative ratings the literal ordering in fairness reverses (the closed
    form is fairness * rating), so there the magnitude |g| is compared instead.
    """
    raters = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        f0 = _draw_fairness(rng)
        w_hi, w_lo = sorted(rng.uniform(-1.0, 1.0, size=2))[::-1]
        probes = [_goodness_probe([(raters, f0, float(w))]) for w in (w_hi, w_lo)]
        return probes, lambda v: max(0.0, v[1] - v[0] - _EPS)
    omega = float(rng.uniform(-1.0, 1.0))
    f_hi, f_lo = sorted((_draw_fairness(rng), _draw_fairness(rng)))[::-1]
    probes = [_goodness_probe([(raters, f, omega)]) for f in (f_hi, f_lo)]
    if omega >= 0.0:
        return probes, lambda v: max(0.0, v[1] - v[0] - _EPS)
    return probes, lambda v: max(0.0, abs(v[1]) - abs(v[0]) - _EPS)


def _draw_maximal_trust(rng, _: int) -> Check:
    size = int(rng.integers(1, 9))
    return [_goodness_probe([(size, 1.0, 1.0)])], lambda v: abs(v[0] - 1.0)


def _draw_groups_goodness(rng, _: int) -> Check:
    k = int(rng.integers(2, 5))
    partition = [
        (int(rng.integers(1, 4)), _draw_fairness(rng, 0.2, 0.9), float(rng.uniform(-1.0, 1.0)))
        for _ in range(k)
    ]
    return groups_goodness(partition)


def _baseline_check(rng, scores_of: str, degree_of: str) -> Check:
    """A random graph plus one isolated node: nodes of degree 0 must score exactly 1."""
    graph = generators.generate_random_graph(
        int(rng.integers(3, 25)), seed=int(rng.integers(0, 2**31)), positive_fraction=0.7
    )
    graph.add_node()
    flat = graph.flat()
    baseline = np.flatnonzero(getattr(flat, degree_of) == 0)
    probe = (flat.n, [(flat.src, flat.dst, flat.w)])
    return [(probe, lambda s: np.abs(getattr(s, scores_of)[baseline] - 1.0).max())], lambda v: v[0]


def _draw_smooth_fairness(rng, _: int) -> Check:
    size = int(rng.integers(1, 4))
    d, big_d = (float(x) for x in rng.uniform(0.0, 1.8, size=2))
    return smooth_fairness(d, big_d, size)


def _draw_monotonicity_fairness(rng, _: int) -> Check:
    size = int(rng.integers(1, 4))
    d_lo, d_hi = sorted(float(x) for x in rng.uniform(0.0, 1.8, size=2))
    probes = [_fairness_probe([d] * size) for d in (d_hi, d_lo)]
    return probes, lambda v: max(0.0, v[0] - v[1] - _EPS)


def _draw_obvious_fairness(rng, index: int) -> Check:
    # Zero error must give exactly fairness 1. The other endpoint (error 2,
    # fairness 0) is not attainable by any finite graph, so it is checked
    # against the closed form while sampled gadgets confirm agreement with
    # 1 - error / 2 across the realizable range.
    size = int(rng.integers(1, 4))
    d = 0.0 if index == 0 else float(rng.uniform(0.0, 1.8))
    return [_fairness_probe([d] * size)], lambda v: abs(v[0] - closed_form_fairness(d))


def _draw_groups_fairness(rng, _: int) -> Check:
    k = int(rng.integers(2, 4))
    partition = [(int(rng.integers(1, 4)), float(rng.uniform(0.0, 1.8))) for _ in range(k)]
    return groups_fairness(partition)


#: Draws one sampled check from ``(rng, sample index)``.
Draw = Callable[[np.random.Generator, int], Check]

#: Each axiom's draw, in suite order.
_DRAWS: dict[str, Draw] = {
    "smooth_goodness": _draw_smooth_goodness,
    "increase_weight": _draw_increase_weight,
    "monotonicity_goodness": _draw_monotonicity_goodness,
    "maximal_trust": _draw_maximal_trust,
    "groups_goodness": _draw_groups_goodness,
    "baseline_goodness": lambda rng, _: _baseline_check(rng, "goodness", "indeg"),
    "smooth_fairness": _draw_smooth_fairness,
    "monotonicity_fairness": _draw_monotonicity_fairness,
    "obvious_fairness": _draw_obvious_fairness,
    "groups_fairness": _draw_groups_fairness,
    "baseline_fairness": lambda rng, _: _baseline_check(rng, "fairness", "outdeg"),
}

AXIOM_NAMES = tuple(_DRAWS)


def _verdict(name: str, draw: Draw, samples: int, rng) -> AxiomVerdict:
    """Draw every sample's check, solve all their gadgets in batches, then score."""
    checks: list[Check] = []
    for index in range(samples):
        for _ in range(50):
            try:
                checks.append(draw(rng, index))
                break
            except GadgetError:
                continue
        else:
            raise GadgetError(f"{name}: could not draw a realizable instance")
    values = iter(_measure([probe for probes, _ in checks for probe in probes]))
    failures = 0
    worst = 0.0
    for probes, gap_of in checks:
        error = gap_of([next(values) for _ in probes])
        worst = max(worst, error)
        if error > TOLERANCE:
            failures += 1
    return AxiomVerdict(name=name, samples=samples, failures=failures, worst_error=worst)


def run_axiom_suite(samples: int = 1000, seed: int = 0) -> list[AxiomVerdict]:
    """Run all eleven property checks over seeded random draws."""
    samples, seed = as_count(samples, "samples", 1), as_count(seed, "seed")
    return [
        _verdict(name, draw, samples, np.random.default_rng([seed, row]))
        for row, (name, draw) in enumerate(_DRAWS.items())
    ]
