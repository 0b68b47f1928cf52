import numpy as np
import pytest

from fga.axioms import (
    AXIOM_NAMES,
    closed_form_fairness,
    gap,
    groups_fairness,
    groups_goodness,
    increase_weight,
    run_axiom_suite,
    smooth_fairness,
    smooth_goodness,
)
from fga.engine import HIGH_PRECISION, compute_fga
from fga.gadgets import GadgetError, _ballast_plan, _EdgeList, fairness_fan, goodness_star
from fga.gadgets import stabilised_star

TOL = 1e-9


def star_goodness(raters: int, fairness: float, rating: float) -> float:
    """The centre's goodness when ``raters`` raters of equal fairness all rate it ``rating``."""
    graph, centre, _ = goodness_star([(raters, fairness, rating)])
    return float(compute_fga(graph, HIGH_PRECISION).goodness[centre])


def fan_fairness(errors: list[float]) -> float:
    """The fairness of a rater whose ratings miss by ``errors``."""
    graph, rater, _ = fairness_fan(errors)
    return float(compute_fga(graph, HIGH_PRECISION).fairness[rater])


class TestGadgetRealization:
    """The pinning construction must hit requested scores exactly."""

    @pytest.mark.parametrize(
        "f0,omega", [(0.4, 1.0), (0.3, -0.8), (0.9, 0.1), (1.0, 1.0), (0.12, 0.5)]
    )
    def test_goodness_star_realizes_fairness_and_product(self, f0, omega):
        graph, centre, groups = goodness_star([(3, f0, omega)])
        scores = compute_fga(graph, HIGH_PRECISION)
        assert scores.goodness[centre] == pytest.approx(f0 * omega, abs=TOL)
        for rater in groups[0]:
            assert scores.fairness[rater] == pytest.approx(f0, abs=TOL)

    @pytest.mark.parametrize("errors", [[0.0], [0.5, 0.5], [1.8], [0.2, 1.6, 0.9]])
    def test_fairness_fan_realizes_errors(self, errors):
        graph, rater, rated = fairness_fan(errors)
        scores = compute_fga(graph, HIGH_PRECISION)
        for node, wanted in zip(rated, errors):
            realized = abs(graph.weight(rater, node) - scores.goodness[node])
            assert realized == pytest.approx(wanted, abs=TOL)
        expected = 1.0 - sum(errors) / (2 * len(errors))
        assert scores.fairness[rater] == pytest.approx(expected, abs=TOL)

    def test_unrealizable_requests_raise(self):
        with pytest.raises(GadgetError):
            goodness_star([(2, 0.0, 1.0)])  # fairness 0 needs an exact error of 2
        with pytest.raises(GadgetError):
            fairness_fan([2.0])  # error 2 unattainable in any finite graph
        with pytest.raises(GadgetError):
            fairness_fan([-0.1])
        with pytest.raises(GadgetError):
            # fairness 1 cannot coexist with a pre-existing nonzero error
            _ballast_plan(1.0, [0.5])

    def test_ballast_is_noop_for_perfect_rater(self):
        graph = _EdgeList()
        graph.add_nodes(1)
        weight, count, m = _ballast_plan(1.0, [])
        assert count == 0
        assert graph.pinned_raters(2, 1.0, 0.0) == [1, 2]  # raters with no sinks
        assert graph.n == 3 and graph.blocks == []

    @pytest.mark.parametrize("errors", [[np.nan], [0.5, np.nan], [np.nan, 0.5]])
    def test_nan_error_is_a_gadget_error(self, errors):
        # NaN passed the range check and failed in _pinner_count, with a ValueError that
        # named nothing: "cannot convert float NaN to integer"
        with pytest.raises(GadgetError, match="rating error nan not realizable"):
            fairness_fan(errors)

    def test_ballast_validates_inputs(self):
        with pytest.raises(GadgetError, match="existing errors"):
            _ballast_plan(0.5, [2.5])
        with pytest.raises(GadgetError, match="not realizable"):
            _ballast_plan(1.2, [])

    def test_fan_mixes_large_and_zero_errors_exactly(self):
        # near-maximal errors diluted by zero-error edges still realize exactly
        graph, rater, _ = fairness_fan([1.7, 1.7, 0.0, 0.0, 0.0, 0.0, 0.0])
        scores = compute_fga(graph, HIGH_PRECISION)
        expected = 1.0 - (2 * 1.7) / (2 * 7)
        assert scores.fairness[rater] == pytest.approx(expected, abs=TOL)


class TestSmoothGoodness:
    def test_additivity_with_unit_rating(self):
        # fairness 0.4 plus a 0.3 bump, rating 1: goodness 0.7 = 0.4 + 0.3
        assert star_goodness(2, 0.7, 1.0) == pytest.approx(0.7, abs=TOL)
        assert star_goodness(2, 0.4, 1.0) == pytest.approx(0.4, abs=TOL)
        assert star_goodness(2, 0.3, 1.0) == pytest.approx(0.3, abs=TOL)
        assert gap(smooth_goodness(0.4, 0.3, 1.0)) <= TOL

    def test_additivity_with_negative_rating(self):
        # -0.6 = -0.4 + -0.2 at rating -0.8
        assert star_goodness(2, 0.75, -0.8) == pytest.approx(-0.6, abs=TOL)
        assert gap(smooth_goodness(0.5, 0.25, -0.8)) <= TOL


class TestIncreaseWeight:
    def test_additivity_at_full_fairness(self):
        assert star_goodness(2, 1.0, 0.7) == pytest.approx(0.7, abs=TOL)
        assert gap(increase_weight(1.0, 0.2, 0.5)) <= TOL

    def test_additivity_cancels_to_zero(self):
        assert star_goodness(2, 0.5, 0.0) == pytest.approx(0.0, abs=TOL)
        assert gap(increase_weight(0.5, -0.4, 0.4)) <= TOL


class TestMonotonicityGoodness:
    def test_weight_ordering(self):
        assert star_goodness(1, 1.0, 0.9) >= star_goodness(1, 1.0, 0.1) - 1e-12

    def test_fairness_ordering_positive_rating(self):
        assert star_goodness(1, 0.8, 1.0) >= star_goodness(1, 0.3, 1.0) - 1e-12

    def test_fairness_ordering_flips_for_negative_rating(self):
        # at rating -1 the raw ordering reverses; magnitude ordering holds
        hi = star_goodness(1, 0.8, -1.0)
        lo = star_goodness(1, 0.3, -1.0)
        assert hi <= lo
        assert abs(hi) >= abs(lo)


class TestMaximalTrustAndBaselines:
    def test_all(self):
        graph, centre, groups = goodness_star([(5, 1.0, 1.0)])
        lone = graph.add_node()
        scores = compute_fga(graph, HIGH_PRECISION)
        assert scores.goodness[centre] == pytest.approx(1.0, abs=TOL)
        # unrated nodes have goodness exactly 1, and nodes that rate no one fairness 1
        assert scores.goodness[lone] == scores.fairness[lone] == 1.0
        assert scores.fairness[centre] == 1.0
        assert all(scores.goodness[rater] == 1.0 for rater in groups[0])

    def test_star_of_five(self):
        graph, centre, _ = goodness_star([(5, 1.0, 1.0)])
        scores = compute_fga(graph, HIGH_PRECISION)
        assert scores.goodness[centre] == pytest.approx(1.0, abs=TOL)


class TestGroupsGoodness:
    def test_symmetric_average(self):
        # opposite-rating groups of equal size and fairness: centre lands at 0.
        # Fairness exactly 1 cannot coexist with the nonzero error these raters
        # carry in the combined graph, so the gadget runs at fairness 0.9.
        partition = [(1, 0.9, 1.0), (1, 0.9, -1.0)]
        assert gap(groups_goodness(partition)) <= TOL
        graph, centre, _ = goodness_star(partition)
        scores = compute_fga(graph, HIGH_PRECISION)
        assert scores.goodness[centre] == pytest.approx(0.0, abs=TOL)

    def test_weighted_mean(self):
        # sizes (3, 1) with group products 0.8 and 0.0 average to 0.6
        partition = [(3, 0.8, 1.0), (1, 0.5, 0.0)]
        assert gap(groups_goodness(partition)) <= TOL
        graph, centre, _ = goodness_star(partition)
        scores = compute_fga(graph, HIGH_PRECISION)
        assert scores.goodness[centre] == pytest.approx(0.6, abs=TOL)

    def test_empty_partition(self):
        with pytest.raises(ValueError):
            groups_goodness([])


class TestFairnessAxioms:
    def test_endpoints(self):
        assert fan_fairness([0.0, 0.0]) == pytest.approx(1.0, abs=TOL)
        assert closed_form_fairness(2.0) == 0.0
        assert closed_form_fairness(0.0) == 1.0

    def test_midpoint_between_extremes(self):
        # error-1 fairness must equal the average of the error-0 and error-2 extremes
        f_mid = fan_fairness([1.0, 1.0])
        assert f_mid == pytest.approx(
            (closed_form_fairness(0.0) + closed_form_fairness(2.0)) / 2, abs=TOL
        )

    def test_smooth_fairness_gap(self):
        assert gap(smooth_fairness(0.2, 1.4, set_size=2)) <= TOL

    def test_monotonicity(self):
        assert fan_fairness([1.5]) <= fan_fairness([0.2]) + 1e-12

    def test_groups_weighted_mean(self):
        # sizes (2, 3) with errors 0.4 and 1.0: fairness (2*0.8 + 3*0.5) / 5 = 0.62
        assert gap(groups_fairness([(2, 0.4), (3, 1.0)])) <= TOL
        errors = [0.4] * 2 + [1.0] * 3
        assert fan_fairness(errors) == pytest.approx(0.62, abs=TOL)


class TestStabilisedStarGadget:
    def test_centre_goodness_closed_form(self):
        graph, centre, influencers, stabilisers = stabilised_star(2, 5, influencer_fairness=0.6)
        scores = compute_fga(graph, HIGH_PRECISION)
        assert scores.goodness[centre] == pytest.approx((2 * 2 * 0.6 + 5) / (2 * 2 + 5), abs=TOL)
        assert graph.indeg(centre) == 7
        for rater in influencers:
            assert scores.fairness[rater] == pytest.approx(0.6, abs=TOL)


class TestSuiteRunner:
    def test_small_run_all_pass(self):
        verdicts = run_axiom_suite(samples=15, seed=11)
        assert [v.name for v in verdicts] == list(AXIOM_NAMES)
        assert len(verdicts) == 11
        for verdict in verdicts:
            assert verdict.passed, f"{verdict.name}: worst error {verdict.worst_error}"
            assert verdict.samples == 15

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_is_rejected(self, samples):
        # all eleven verdicts would pass vacuously, having checked nothing
        with pytest.raises(ValueError, match="samples must be >= 1"):
            run_axiom_suite(samples=samples)

    def test_verdicts_pinned(self):
        # worst_error of each axiom, as the unbatched per-draw solves gave it
        pinned = {
            "smooth_goodness": 1.878941446875615e-12,
            "increase_weight": 3.7481129311345285e-13,
            "monotonicity_goodness": 0.0,
            "maximal_trust": 0.0,
            "groups_goodness": 4.2521541843143495e-13,
            "baseline_goodness": 0.0,
            "smooth_fairness": 1.5210055437364645e-13,
            "monotonicity_fairness": 0.0,
            "obvious_fairness": 4.5441428397907657e-13,
            "groups_fairness": 2.2215562722749382e-13,
            "baseline_fairness": 0.0,
        }
        verdicts = run_axiom_suite(samples=20, seed=1)
        assert {v.name: v.worst_error for v in verdicts} == pinned
        assert all(v.samples == 20 and v.failures == 0 for v in verdicts)

    def test_public_gaps_match_the_batched_suite(self):
        # a one-draw suite measures the same gadgets as the public check builder
        rng = np.random.default_rng([5, 0])
        f0 = float(rng.uniform(0.1, 0.8))
        delta = float(rng.uniform(0.1, 1.0 - f0))
        omega = float(rng.uniform(-1.0, 1.0))
        raters = int(rng.integers(1, 4))
        verdict = run_axiom_suite(samples=1, seed=5)[0]
        assert verdict.worst_error == max(0.0, gap(smooth_goodness(f0, delta, omega, raters)))

    def test_verdict_serialization(self):
        verdict = run_axiom_suite(samples=2, seed=0)[0]
        payload = verdict.to_dict()
        assert payload["axiom"] == "smooth_goodness"
        assert payload["passed"] is True
