import pytest

from fga.bounds import (
    BoundReport,
    check_min_k_neighbour,
    direct_flip_budget,
    direct_sybil_bound,
    indirect_sybil_bound,
    stabiliser_lower_bound,
    verify_bound_empirically,
    verify_direct_sybil,
    verify_indirect_sybil,
    verify_stabiliser,
)
from fga.engine import HIGH_PRECISION, compute_fga
from fga.generators import (
    generate_complete_positive,
    generate_min_k_neighbour,
    generate_random_graph,
)
from fga.graph import Wsn


class TestMinKNeighbourCert:
    def test_complete_positive_four_holds_for_k3(self):
        g = generate_complete_positive(4)
        cert = check_min_k_neighbour(g, 3)
        assert cert.holds
        assert cert.violations == []

    def test_complete_four_fails_degrees_at_k4(self):
        g = generate_complete_positive(4)
        cert = check_min_k_neighbour(g, 4)
        assert not cert.holds
        reasons = {reason for _, reason in cert.violations}
        assert "indeg" in reasons and "outdeg" in reasons

    def test_complete_four_fails_weight_mass_at_k2(self):
        # every node receives absolute mass 3 > 2 while degrees are fine
        g = generate_complete_positive(4)
        cert = check_min_k_neighbour(g, 2)
        assert not cert.holds
        assert {reason for _, reason in cert.violations} == {"weight-mass"}
        assert len(cert.violations) == 4

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            check_min_k_neighbour(generate_complete_positive(3), 0)

    @pytest.mark.parametrize(
        "graph",
        [
            generate_complete_positive(4),
            generate_min_k_neighbour(30, 3, seed=1),
            generate_random_graph(40, seed=2),
            generate_random_graph(25, avg_out_degree=5.0, seed=3, positive_fraction=0.5),
            Wsn(),
        ],
        ids=["complete-4", "min-k-30", "erdos-40", "erdos-25-mixed", "empty"],
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_per_node_count_from_edges(self, graph, k):
        indeg = [0] * graph.node_count
        outdeg = [0] * graph.node_count
        mass = [0.0] * graph.node_count
        for u, v, w in graph.edges():
            indeg[v] += 1
            outdeg[u] += 1
            mass[v] += abs(w)
        expected = []
        for v in graph.nodes():
            expected += [(v, "indeg")] if indeg[v] < k else []
            expected += [(v, "outdeg")] if outdeg[v] < k else []
            expected += [(v, "weight-mass")] if mass[v] > k + 1e-12 else []
        cert = check_min_k_neighbour(graph, k)
        assert cert.violations == expected
        assert cert.holds == (not expected)
        assert all(type(v) is int for v, _ in cert.violations)


class TestBoundFormulas:
    def test_indirect_bound_values(self):
        g = generate_complete_positive(4)  # indeg 3 everywhere, cert holds at k=3
        assert indirect_sybil_bound(g, 0, 3) == pytest.approx(2 / 12, abs=1e-12)
        g2 = generate_min_k_neighbour(30, 5, seed=4)
        # construction gives indeg exactly 5; formula 2 / ((5+1) * 5)
        assert indirect_sybil_bound(g2, 7, 5) == pytest.approx(2 / 30, abs=1e-12)

    def test_indirect_bound_formula_case(self):
        # indeg(i) = 9, k = 5 gives 2 / 50 = 0.04
        g = generate_min_k_neighbour(40, 9, seed=2, weight_range=(-0.5, 0.5))
        cert = check_min_k_neighbour(g, 5)
        if cert.holds:  # indeg 9 >= 5 and |w| <= 0.5 keeps mass under 5
            assert indirect_sybil_bound(g, 3, 5) == pytest.approx(0.04, abs=1e-12)

    def test_indirect_bound_requires_certificate(self):
        g = generate_complete_positive(4)
        with pytest.raises(ValueError, match="certificate"):
            indirect_sybil_bound(g, 0, 2)

    def test_indirect_bound_monotone_decreasing(self):
        values = []
        for n, k in ((10, 3), (20, 5), (40, 8)):
            g = generate_min_k_neighbour(n, k, seed=1)
            values.append(indirect_sybil_bound(g, 0, k))
        assert values[0] > values[1] > values[2]

    def test_direct_bound_values(self):
        g = Wsn()
        target = g.add_node()
        for i in range(10):
            r = g.add_node()
            g.add_edge(r, target, 1.0)
        assert direct_sybil_bound(g, target) == pytest.approx(0.2, abs=1e-12)

        g4 = generate_complete_positive(5)  # indeg 4 everywhere
        assert direct_sybil_bound(g4, 0) == pytest.approx(0.5, abs=1e-12)

    def test_direct_bound_vacuous_at_indeg_one(self):
        g = Wsn()
        g.add_node()
        g.add_node()
        g.add_edge(1, 0, 1.0)
        assert direct_sybil_bound(g, 0) == 2.0

    def test_direct_bound_rejects_unrated_target(self):
        g = Wsn()
        g.add_node()
        with pytest.raises(ValueError, match="no raters"):
            direct_sybil_bound(g, 0)

    def test_indirect_weaker_than_direct_by_factor_k(self):
        # with indeg(i) + 1 >= indeg(t), the indirect cap is at most direct / k
        for k in (3, 5):
            g = generate_min_k_neighbour(30, k, seed=6)
            for intermediary in range(5):
                for target in range(5, 10):
                    if g.indeg(intermediary) + 1 >= g.indeg(target):
                        assert (
                            indirect_sybil_bound(g, intermediary, k)
                            <= direct_sybil_bound(g, target) / k + 1e-12
                        )


class TestFlipBudget:
    def scored_star(self, goodness_value, indeg):
        g = Wsn()
        target = g.add_node()
        for _ in range(indeg):
            r = g.add_node()
            g.add_edge(r, target, goodness_value)
        scores = compute_fga(g, HIGH_PRECISION)
        return g, target, scores

    def test_full_goodness_two_raters(self):
        g, target, scores = self.scored_star(1.0, 2)
        assert direct_flip_budget(scores, g, target) == 4

    def test_half_goodness_three_raters(self):
        g, target, scores = self.scored_star(0.5, 3)
        # 2 * 0.5 * 3 = 3 exactly
        assert direct_flip_budget(scores, g, target) == 3

    def test_tiny_goodness_gives_budget_one(self):
        g, target, scores = self.scored_star(1e-6, 1)
        assert direct_flip_budget(scores, g, target) == 1

    def test_rejects_nonpositive_goodness(self):
        g, target, scores = self.scored_star(-0.5, 2)
        with pytest.raises(ValueError, match="not positive"):
            direct_flip_budget(scores, g, target)


class TestStabiliserBound:
    def test_vacuous_floor(self):
        assert stabiliser_lower_bound(2, 0, 1.0) == -1.0

    def test_nine_stabilisers(self):
        assert stabiliser_lower_bound(1, 9, 0.5) == pytest.approx(0.9, abs=1e-12)

    def test_zero_perturbation(self):
        assert stabiliser_lower_bound(3, 7, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            stabiliser_lower_bound(0, 0, 0.5)
        with pytest.raises(ValueError):
            stabiliser_lower_bound(1, 1, 1.5)


class TestEmpiricalHarnesses:
    def test_direct_sybil_reports(self):
        g = generate_random_graph(40, seed=23, positive_fraction=0.7)
        reports = verify_direct_sybil(g, trials=25, seed=5)
        assert len(reports) == 25
        assert all(r.satisfied for r in reports)
        for r in reports:
            assert r.bound_value == pytest.approx(2 / g.indeg(r.context["target"]), abs=1e-12)

    def test_indirect_sybil_reports(self):
        g = generate_min_k_neighbour(30, 3, seed=11)
        reports = verify_indirect_sybil(g, k=3, trials=25, seed=7)
        assert len(reports) == 25
        assert all(r.satisfied for r in reports)

    def test_indirect_requires_certificate(self):
        g = generate_random_graph(20, seed=1)
        with pytest.raises(ValueError, match="minimum-3"):
            verify_indirect_sybil(g, k=3, trials=5)

    def test_stabiliser_grid(self):
        reports = verify_stabiliser(k_values=(1, 2), l_values=(0, 5), deltas=(0.1, 0.5))
        assert len(reports) == 8
        assert all(r.satisfied for r in reports)

    def test_dispatcher(self):
        g = generate_random_graph(20, seed=3, positive_fraction=0.8)
        assert verify_bound_empirically("direct-sybil", graph=g, trials=5, seed=1)
        with pytest.raises(ValueError, match="unknown scenario"):
            verify_bound_empirically("nope", graph=g)
        with pytest.raises(ValueError, match="needs a graph"):
            verify_bound_empirically("direct-sybil")

    def test_report_satisfaction_rule(self):
        report = BoundReport.from_trial(0.5, -0.4, {})
        assert report.satisfied
        report = BoundReport.from_trial(0.5, 0.5 + 5e-10, {})
        assert report.satisfied  # inside the 1e-9 slack
        report = BoundReport.from_trial(0.5, 0.51, {})
        assert not report.satisfied
