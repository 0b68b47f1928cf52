"""Executable property checks for the score functions, run on constructed gadgets.

Every check measures converged scores on real graphs built by the gadget
module and compares them against what the property demands. The closed forms
g = fairness * rating for a homogeneous unanimous rater set and
f = 1 - error / 2 for a constant-error rater act as the independent oracles
throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generators
from .engine import HIGH_PRECISION, FgaScores, FlatEdges, compute_fga, compute_fga_many
from .gadgets import GadgetError, fairness_fan, goodness_star

TOLERANCE = 1e-9

#: Ordering ties below this are treated as exact (fixed-point residual noise).
_EPS = 1e-12

AXIOM_NAMES = (
    "smooth_goodness",
    "increase_weight",
    "monotonicity_goodness",
    "maximal_trust",
    "groups_goodness",
    "baseline_goodness",
    "smooth_fairness",
    "monotonicity_fairness",
    "obvious_fairness",
    "groups_fairness",
    "baseline_fairness",
)


def closed_form_goodness(fairness: float, rating: float) -> float:
    """Goodness of a node rated ``rating`` by unanimous raters of equal fairness."""
    return fairness * rating


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

#: A gadget's flat edges and what to read off its converged scores.
Probe = tuple[FlatEdges, Callable[[FgaScores], float]]
#: The probes of one check and its gap as a function of their measured values.
Check = tuple[list[Probe], Callable[[list[float]], float]]


def _goodness_probe(groups: list[tuple[int, float, float]]) -> Probe:
    graph, centre, _ = goodness_star(groups)
    return graph.flat(), lambda scores: float(scores.goodness[centre])


def _fairness_probe(errors: list[float]) -> Probe:
    graph, rater, _ = fairness_fan(errors)
    return graph.flat(), lambda scores: float(scores.fairness[rater])


def _measure(probes: list[Probe]) -> list[float]:
    """Solve every probe's gadget in one batch and read each one's value."""
    solved = compute_fga_many([flat for flat, _ in probes], config=HIGH_PRECISION)
    return [read(scores) for (_, read), scores in zip(probes, solved)]


def _gap(check: Check) -> float:
    probes, gap = check
    return gap(_measure(probes))


def measured_goodness(num_raters: int, fairness: float, rating: float) -> float:
    return _measure([_goodness_probe([(num_raters, fairness, rating)])])[0]


def measured_fairness(errors: list[float]) -> float:
    return _measure([_fairness_probe(errors)])[0]


# -- single checks (gap = absolute discrepancy, 0 means exact) ------------


def _smooth_goodness(f0: float, delta: float, omega0: float, num_raters: int) -> Check:
    probes = [_goodness_probe([(num_raters, f, omega0)]) for f in (f0 + delta, f0, delta)]
    return probes, lambda v: abs(v[0] - (v[1] + v[2]))


def smooth_goodness_gap(f0: float, delta: float, omega0: float, num_raters: int = 2) -> float:
    return _gap(_smooth_goodness(f0, delta, omega0, num_raters))


def check_smooth_goodness(f0: float, delta: float, omega0: float, num_raters: int = 2) -> bool:
    """Goodness is additive in the raters' shared fairness."""
    return smooth_goodness_gap(f0, delta, omega0, num_raters) <= TOLERANCE


def _increase_weight(f0: float, omega0: float, delta: float, num_raters: int) -> Check:
    probes = [_goodness_probe([(num_raters, f0, w)]) for w in (omega0 + delta, omega0, delta)]
    return probes, lambda v: abs(v[0] - (v[1] + v[2]))


def increase_weight_gap(f0: float, omega0: float, delta: float, num_raters: int = 2) -> float:
    return _gap(_increase_weight(f0, omega0, delta, num_raters))


def check_increase_weight(f0: float, omega0: float, delta: float, num_raters: int = 2) -> bool:
    """Goodness is additive in the raters' shared rating."""
    return increase_weight_gap(f0, omega0, delta, num_raters) <= TOLERANCE


def _groups_goodness(partition: list[tuple[int, float, float]]) -> Check:
    if not partition:
        raise ValueError("partition must be non-empty")
    probes = [_goodness_probe(partition)]
    probes += [_goodness_probe([(size, f0, omega)]) for size, f0, omega in partition]
    total = sum(size for size, _, _ in partition)

    def gap(v: list[float]) -> float:
        expected = sum(size * value for (size, _, _), value in zip(partition, v[1:])) / total
        return abs(v[0] - expected)

    return probes, gap


def groups_goodness_gap(partition: list[tuple[int, float, float]]) -> float:
    return _gap(_groups_goodness(partition))


def check_groups_goodness(partition: list[tuple[int, float, float]]) -> bool:
    """Goodness of a node rated by homogeneous groups is their size-weighted mean."""
    return groups_goodness_gap(partition) <= TOLERANCE


def _smooth_fairness(d: float, big_d: float, set_size: int) -> Check:
    errors = ((d + big_d) / 2.0, d, big_d)
    probes = [_fairness_probe([error] * set_size) for error in errors]
    return probes, lambda v: abs(v[0] - (v[1] + v[2]) / 2.0)


def smooth_fairness_gap(d: float, big_d: float, set_size: int = 2) -> float:
    return _gap(_smooth_fairness(d, big_d, set_size))


def _groups_fairness(partition: list[tuple[int, float]]) -> Check:
    if not partition:
        raise ValueError("partition must be non-empty")
    errors: list[float] = []
    for size, d in partition:
        errors.extend([d] * size)
    probes = [_fairness_probe(errors)]
    probes += [_fairness_probe([d] * size) for size, d in partition]
    total = sum(size for size, _ in partition)

    def gap(v: list[float]) -> float:
        expected = sum(size * value for (size, _), value in zip(partition, v[1:])) / total
        return abs(v[0] - expected)

    return probes, gap


def groups_fairness_gap(partition: list[tuple[int, float]]) -> float:
    return _gap(_groups_fairness(partition))


def check_fairness_axioms(samples: int = 200, seed: int = 0) -> list[AxiomVerdict]:
    """Run the four fairness properties (smoothness, monotonicity, endpoints, groups)."""
    rng = np.random.default_rng([seed, 7])
    return [
        _run_smooth_fairness(rng, samples),
        _run_monotonicity_fairness(rng, samples),
        _run_obvious_fairness(rng, samples),
        _run_groups_fairness(rng, samples),
    ]


def check_maximal_trust_and_baselines() -> bool:
    """All-ones star gives goodness 1; unrated nodes g = 1; non-rating nodes f = 1."""
    graph, centre, _ = goodness_star([(5, 1.0, 1.0)])
    lone = graph.add_node()
    scores = compute_fga(graph, HIGH_PRECISION)
    if abs(scores.goodness[centre] - 1.0) > TOLERANCE:
        return False
    if scores.goodness[lone] != 1.0 or scores.fairness[lone] != 1.0:
        return False
    # Raters of the centre have no incoming edges and the centre rates no one.
    return scores.goodness[centre + 1] == 1.0 and scores.fairness[centre] == 1.0


def check_monotonicity_goodness(samples: int = 200, seed: int = 0) -> AxiomVerdict:
    """Higher shared rating, or higher shared fairness, never lowers goodness.

    For negative ratings the literal ordering in fairness reverses (the closed
    form is fairness * rating), so there the magnitude |g| is compared instead.
    """
    rng = np.random.default_rng([seed, 3])
    return _run_monotonicity_goodness(rng, samples)


# -- suite runners ---------------------------------------------------------


def _draw_fairness(rng, lo: float = 0.1, hi: float = 0.95) -> float:
    return float(rng.uniform(lo, hi))


def _run_samples(name: str, samples: int, draw) -> AxiomVerdict:
    """Draw every sample's check, solve all their gadgets in one batch, then score."""
    checks: list[Check] = []
    for index in range(samples):
        for _ in range(50):
            try:
                checks.append(draw(index))
                break
            except GadgetError:
                continue
        else:
            raise GadgetError(f"{name}: could not draw a realizable instance")
    values = iter(_measure([probe for probes, _ in checks for probe in probes]))
    failures = 0
    worst = 0.0
    for probes, gap_of in checks:
        gap = gap_of([next(values) for _ in probes])
        worst = max(worst, gap)
        if gap > TOLERANCE:
            failures += 1
    return AxiomVerdict(name=name, samples=samples, failures=failures, worst_error=worst)


def _run_smooth_goodness(rng, samples: int) -> AxiomVerdict:
    def draw(_: int) -> Check:
        f0 = float(rng.uniform(0.1, 0.8))
        delta = float(rng.uniform(0.1, 1.0 - f0))
        omega = float(rng.uniform(-1.0, 1.0))
        raters = int(rng.integers(1, 4))
        return _smooth_goodness(f0, delta, omega, raters)

    return _run_samples("smooth_goodness", samples, draw)


def _run_increase_weight(rng, samples: int) -> AxiomVerdict:
    def draw(_: int) -> Check:
        f0 = _draw_fairness(rng, 0.1, 1.0)
        while True:
            omega = float(rng.uniform(-1.0, 1.0))
            omega_after = float(rng.uniform(-1.0, 1.0))
            delta = omega_after - omega
            if abs(delta) <= 1.0:
                break
        raters = int(rng.integers(1, 4))
        return _increase_weight(f0, omega, delta, raters)

    return _run_samples("increase_weight", samples, draw)


def _run_monotonicity_goodness(rng, samples: int) -> AxiomVerdict:
    def draw(_: int) -> Check:
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

    return _run_samples("monotonicity_goodness", samples, draw)


def _run_maximal_trust(rng, samples: int) -> AxiomVerdict:
    def draw(_: int) -> Check:
        size = int(rng.integers(1, 9))
        return [_goodness_probe([(size, 1.0, 1.0)])], lambda v: abs(v[0] - 1.0)

    return _run_samples("maximal_trust", samples, draw)


def _run_groups_goodness(rng, samples: int) -> AxiomVerdict:
    def draw(_: int) -> Check:
        k = int(rng.integers(2, 5))
        partition = [
            (int(rng.integers(1, 4)), _draw_fairness(rng, 0.2, 0.9), float(rng.uniform(-1.0, 1.0)))
            for _ in range(k)
        ]
        return _groups_goodness(partition)

    return _run_samples("groups_goodness", samples, draw)


def _baseline_check(rng, scores_of: str, degree_of: str) -> Check:
    """A random graph plus one isolated node: nodes of degree 0 must score exactly 1."""
    graph = generators.generate_random_graph(
        int(rng.integers(3, 25)), seed=int(rng.integers(0, 2**31)), positive_fraction=0.7
    )
    graph.add_node()
    flat = graph.flat()
    baseline = np.flatnonzero(getattr(flat, degree_of) == 0)
    return [(flat, lambda s: np.abs(getattr(s, scores_of)[baseline] - 1.0).max())], lambda v: v[0]


def _run_baseline_goodness(rng, samples: int) -> AxiomVerdict:
    return _run_samples(
        "baseline_goodness", samples, lambda _: _baseline_check(rng, "goodness", "indeg")
    )


def _run_baseline_fairness(rng, samples: int) -> AxiomVerdict:
    return _run_samples(
        "baseline_fairness", samples, lambda _: _baseline_check(rng, "fairness", "outdeg")
    )


def _run_smooth_fairness(rng, samples: int) -> AxiomVerdict:
    def draw(_: int) -> Check:
        size = int(rng.integers(1, 4))
        d, big_d = (float(x) for x in rng.uniform(0.0, 1.8, size=2))
        return _smooth_fairness(d, big_d, size)

    return _run_samples("smooth_fairness", samples, draw)


def _run_monotonicity_fairness(rng, samples: int) -> AxiomVerdict:
    def draw(_: int) -> Check:
        size = int(rng.integers(1, 4))
        d_lo, d_hi = sorted(float(x) for x in rng.uniform(0.0, 1.8, size=2))
        probes = [_fairness_probe([d] * size) for d in (d_hi, d_lo)]
        return probes, lambda v: max(0.0, v[0] - v[1] - _EPS)

    return _run_samples("monotonicity_fairness", samples, draw)


def _run_obvious_fairness(rng, samples: int) -> AxiomVerdict:
    # Zero error must give exactly fairness 1. The other endpoint (error 2,
    # fairness 0) is not attainable by any finite graph, so it is checked
    # against the closed form while sampled gadgets confirm agreement with
    # 1 - error / 2 across the realizable range.
    if closed_form_fairness(2.0) != 0.0 or closed_form_fairness(0.0) != 1.0:
        raise AssertionError("closed-form endpoints broken")

    def draw(index: int) -> Check:
        size = int(rng.integers(1, 4))
        d = 0.0 if index == 0 else float(rng.uniform(0.0, 1.8))
        return [_fairness_probe([d] * size)], lambda v: abs(v[0] - closed_form_fairness(d))

    return _run_samples("obvious_fairness", samples, draw)


def _run_groups_fairness(rng, samples: int) -> AxiomVerdict:
    def draw(_: int) -> Check:
        k = int(rng.integers(2, 4))
        partition = [
            (int(rng.integers(1, 4)), float(rng.uniform(0.0, 1.8))) for _ in range(k)
        ]
        return _groups_fairness(partition)

    return _run_samples("groups_fairness", samples, draw)


_RUNNERS = {
    "smooth_goodness": _run_smooth_goodness,
    "increase_weight": _run_increase_weight,
    "monotonicity_goodness": _run_monotonicity_goodness,
    "maximal_trust": _run_maximal_trust,
    "groups_goodness": _run_groups_goodness,
    "baseline_goodness": _run_baseline_goodness,
    "smooth_fairness": _run_smooth_fairness,
    "monotonicity_fairness": _run_monotonicity_fairness,
    "obvious_fairness": _run_obvious_fairness,
    "groups_fairness": _run_groups_fairness,
    "baseline_fairness": _run_baseline_fairness,
}


def run_axiom_suite(samples: int = 1000, seed: int = 0) -> list[AxiomVerdict]:
    """Run all eleven property checks over seeded random draws."""
    verdicts = []
    for row, name in enumerate(AXIOM_NAMES):
        rng = np.random.default_rng([seed, row])
        verdicts.append(_RUNNERS[name](rng, samples))
    return verdicts
