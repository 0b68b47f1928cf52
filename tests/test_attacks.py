import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fga import attacks, engine
from fga.attacks import (
    ATTACK_CONFIG,
    AttackProblem,
    InstanceTooLargeError,
    InsufficientCandidatesError,
    SelectionCriteria,
    direct_attack,
    indirect_attack_greedy,
    indirect_attack_scaled,
    inject_sybil,
    mixed_attack,
    qualifying_attackers,
    qualifying_targets,
    select_attackers,
    select_targets,
    solve_exhaustive,
)
from fga.bounds import direct_flip_budget
from fga.campaign import ExperimentConfig, report, run_campaign
from fga.engine import HIGH_PRECISION, compute_fga, predict_weight
from fga.generators import generate_random_graph
from fga.graph import Wsn

TOL = 1e-9


def two_rater_chain():
    """Nodes 1..4 labelled as printed: 2->1, 3->1, 2->4, all weight 1."""
    g = Wsn()
    for label in ("1", "2", "3", "4"):
        g.add_node(label)
    g.add_edge(1, 0, 1.0)
    g.add_edge(2, 0, 1.0)
    g.add_edge(1, 3, 1.0)
    return g


class TestBenchmarkNetworkValues:
    """Benchmark network and its two attack variants with exact rational scores."""

    def test_benchmark_all_perfect(self):
        scores = compute_fga(two_rater_chain(), HIGH_PRECISION)
        assert np.allclose(scores.fairness, 1.0, atol=TOL)
        assert np.allclose(scores.goodness, 1.0, atol=TOL)

    def test_direct_attack_table_values(self):
        g = two_rater_chain()
        attacker = g.add_node("5")
        outcome = direct_attack(g, [attacker], 0)
        after = outcome.scores_after
        assert after.goodness[0] == pytest.approx(0.4, abs=TOL)
        assert after.fairness[1] == pytest.approx(0.8, abs=TOL)
        assert after.fairness[2] == pytest.approx(0.7, abs=TOL)
        assert after.goodness[3] == pytest.approx(0.8, abs=TOL)
        assert after.fairness[attacker] == pytest.approx(0.3, abs=TOL)
        assert outcome.delta_goodness[0] == pytest.approx(0.4 - 1.0, abs=TOL)

    def test_indirect_attack_via_co_rated_node(self):
        # the attacker rates node 4 (already rated by 2), dragging 2's fairness
        # from 1 to 3/4 and the target's goodness from 1 to 5/6
        g = two_rater_chain()
        attacker = g.add_node("5")
        outcome = indirect_attack_greedy(g, [attacker], 0)
        assert len(outcome.moves) == 1
        move = outcome.moves[0]
        assert (move.rated, move.weight) == (3, -1.0)
        after = outcome.scores_after
        assert after.goodness[0] == pytest.approx(5 / 6, abs=TOL)
        assert after.fairness[1] == pytest.approx(3 / 4, abs=TOL)
        assert after.fairness[2] == pytest.approx(11 / 12, abs=TOL)
        assert after.goodness[3] == pytest.approx(1 / 6, abs=TOL)
        assert after.fairness[attacker] == pytest.approx(5 / 12, abs=TOL)
        assert after.goodness[0] < 1.0


class TestDirectAttack:
    def test_empty_attacker_set(self):
        g = two_rater_chain()
        outcome = direct_attack(g, [], 0)
        assert outcome.moves == []
        assert outcome.delta_goodness[0] == 0.0

    def test_target_cannot_attack_itself(self):
        g = two_rater_chain()
        with pytest.raises(ValueError):
            direct_attack(g, [0, 1], 0)

    def test_existing_edge_degrades_to_update(self):
        g = two_rater_chain()
        outcome = direct_attack(g, [1], 0)  # node 2 already rates node 1
        assert len(outcome.moves) == 1
        assert outcome.moves[0].kind == "weight-update"
        assert outcome.graph_after.weight(1, 0) == -1.0
        assert g.weight(1, 0) == 1.0  # input untouched

    def test_never_increases_goodness(self):
        for seed in range(5):
            g = generate_random_graph(30, seed=seed, positive_fraction=0.8)
            scores = compute_fga(g, ATTACK_CONFIG)
            targets = [v for v in g.nodes() if g.indeg(v) > 0 and scores.goodness[v] > 0]
            target = targets[0]
            fresh = [g.copy() for _ in range(1)]
            work = g.copy()
            a1 = work.add_node("atk1")
            one = direct_attack(work, [a1], target)
            a2 = one.graph_after.add_node("atk2")
            two = direct_attack(one.graph_after, [a2], target)
            assert two.scores_after.goodness[target] <= one.scores_after.goodness[target] + TOL

    def test_flip_with_budget_from_formula(self):
        for seed in (1, 4, 9):
            g = generate_random_graph(40, seed=seed, positive_fraction=0.9)
            scores = compute_fga(g, ATTACK_CONFIG)
            candidates = [
                v for v in g.nodes() if g.indeg(v) >= 1 and 0 < scores.goodness[v] <= 1
            ]
            target = candidates[0]
            budget = direct_flip_budget(scores, g, target)
            work = g.copy()
            attackers = [work.add_node(f"atk{i}") for i in range(budget + 1)]
            outcome = direct_attack(work, attackers, target)
            post_fairness = [outcome.scores_after.fairness[a] for a in attackers]
            assert all(f >= 0.5 for f in post_fairness)
            assert outcome.scores_after.goodness[target] < 0.0


def greedy_scan_oracle(graph, attackers, target):
    """Per-step exhaustive scan with cold recomputation and the same tie rule."""
    base = compute_fga(graph, ATTACK_CONFIG)
    ordered = sorted(set(attackers), key=lambda a: (-base.fairness[a], a))
    work = graph.copy()
    moves = []
    for attacker in ordered:
        candidates = set()
        for n1 in work.pred(target):
            candidates |= work.succ(n1)
        candidates -= {target, attacker}
        best = None
        for rated in sorted(candidates):
            for weight in (1.0, -1.0):
                trial = work.copy()
                trial.rate(attacker, rated, weight)
                value = compute_fga(trial, ATTACK_CONFIG).goodness[target]
                if best is None or value < best[2] - 1e-9:
                    best = (rated, weight, value)
        if best is None:
            break
        work.rate(attacker, best[0], best[1])
        moves.append((attacker, best[0], best[1]))
    return moves, work


class TestIndirectCandidates:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_successors_of_the_targets_raters(self, data):
        n = data.draw(st.integers(min_value=2, max_value=9), label="n")
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")
        g = Wsn.from_arrays(n, [u for u, _ in edges], [v for _, v in edges], [1.0] * len(edges))
        target, attacker = data.draw(st.sampled_from(pairs), label="target, attacker")
        raters = {u for u, v, _ in g.edges() if v == target}
        want = sorted({v for u, v, _ in g.edges() if u in raters} - {target, attacker})
        got = attacks._indirect_candidates(g.flat(), target, attacker)
        assert got == want
        assert all(type(v) is int for v in got)


class TestIndirectGreedy:
    def test_no_candidates_means_exhausted(self):
        g = Wsn()
        for _ in range(3):
            g.add_node()
        g.add_edge(1, 0, 1.0)  # the only predecessor rates nothing else
        g.add_node()
        outcome = indirect_attack_greedy(g, [3], 0)
        assert outcome.moves == []
        assert outcomed_exhausted(outcome)

    @pytest.mark.parametrize(
        "n, seed, degree", [(30, 17, 3.0), (20, 5, 2.5), (45, 29, 3.5), (60, 3, 4.0)]
    )
    def test_matches_per_step_scan(self, n, seed, degree, monkeypatch):
        g = generate_random_graph(n, avg_out_degree=degree, seed=seed, positive_fraction=0.8)
        scores = compute_fga(g, ATTACK_CONFIG)
        target = max(
            (v for v in g.nodes() if g.indeg(v) > 0),
            key=lambda v: (scores.goodness[v], -v),
        )
        attackers = [v for v in g.nodes() if v != target][:3]
        full, solves = [], []
        solve, start = attacks.recompute_flat, engine.WarmEdits.solve
        monkeypatch.setattr(attacks, "recompute_flat", lambda *a: full.append(1) or solve(*a))
        monkeypatch.setattr(
            engine.WarmEdits, "solve", lambda self, *a: solves.append(start(self, *a)) or solves[-1]
        )
        outcome = indirect_attack_greedy(g, attackers, target, before=scores)
        oracle_moves, oracle_graph = greedy_scan_oracle(g, attackers, target)
        moves = [(m.attacker, m.rated, m.weight) for m in outcome.moves]
        assert moves == oracle_moves
        assert outcome.graph_after == oracle_graph
        # one converged solve per step, the winner's; every loser was decided unconverged
        assert not full
        assert [s.edit for s in solves if s.stopped] == moves
        assert len(solves) > len(moves)

    @staticmethod
    def tie_gadget(weights):
        """Rater p of target t also rates successors 0..len(weights)-1; two fresh attackers."""
        g = Wsn()
        for i in range(len(weights)):
            g.add_node(f"s{i}")
        t, p = g.add_node("t"), g.add_node("p")
        for s, w in enumerate(weights):
            g.add_edge(p, s, w)
        g.add_edge(p, t, 1.0)
        return g, t, [g.add_node("x1"), g.add_node("x2")]

    @pytest.mark.parametrize(
        "weights, tied",
        [
            # twin successors: (0, -1) and (1, -1) tie bit for bit; the smaller id wins
            ((1.0, 1.0), ((0, -1.0), (1, -1.0))),
            # a successor rated 0: rating it +1 or -1 mirrors exactly; +1 wins
            ((0.0,), ((0, 1.0), (0, -1.0))),
        ],
    )
    def test_exact_ties_follow_the_tie_rule(self, weights, tied):
        g, t, attackers = self.tie_gadget(weights)
        values = set()
        for rated, weight in tied:
            work = g.copy()
            work.rate(attackers[0], rated, weight)
            values.add(compute_fga(work, ATTACK_CONFIG).goodness[t])
        assert len(values) == 1
        outcome = indirect_attack_greedy(g, attackers, t)
        oracle_moves, _ = greedy_scan_oracle(g, attackers, t)
        assert [(m.attacker, m.rated, m.weight) for m in outcome.moves] == oracle_moves
        assert (outcome.moves[0].rated, outcome.moves[0].weight) == tied[0]

    @settings(deadline=None)  # examples: the hypothesis profile's (tests/conftest.py)
    @given(
        base=st.floats(min_value=-0.9, max_value=0.9),
        offsets=st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=4),
        extra=st.sampled_from([None, -1.0, 0.3, 1.0]),
    )
    def test_near_ties_follow_the_sequential_rule(self, base, offsets, extra):
        # a successor weight moves g(t) by about 0.04 of its change, so weights up to 100 tau
        # apart put candidate values up to a few tau apart, where the intervals decide late
        g, t, attackers = self.tie_gadget([base + k * attacks.TIE_TOLERANCE for k in offsets])
        if extra is not None:  # a second rater of the target, which rates successor 0 too
            q = g.add_node("q")
            g.add_edge(q, t, extra)
            g.add_edge(q, 0, 1.0)
        outcome = indirect_attack_greedy(g, attackers, t)
        oracle_moves, oracle_graph = greedy_scan_oracle(g, attackers, t)
        assert [(m.attacker, m.rated, m.weight) for m in outcome.moves] == oracle_moves
        assert outcome.graph_after == oracle_graph

    @pytest.mark.parametrize("miss", [-3e-12, -1e-13, 1e-13, 3e-12])
    def test_comparisons_at_the_tie_tolerance(self, miss, monkeypatch):
        # (1, -1) ends `miss` away from beating the incumbent (0, -1) by exactly the tolerance,
        # closer than the intervals' slack, so only the two converged values can decide
        def gap(delta):
            g, t, attackers = self.tie_gadget((0.3, 0.3 + delta))
            values = []
            for rated in (0, 1):
                work = g.copy()
                work.rate(attackers[0], rated, -1.0)
                values.append(compute_fga(work, ATTACK_CONFIG).goodness[t])
            return values[1] - values[0] + attacks.TIE_TOLERANCE

        slope = (gap(25e-9) - gap(0.0)) / 25e-9
        delta = (miss - gap(0.0)) / slope
        delta += (miss - gap(delta)) / slope  # one more secant step lands within 1e-15
        assert gap(delta) == pytest.approx(miss, abs=1e-14)
        g, t, attackers = self.tie_gadget((0.3, 0.3 + delta))
        solves = []
        start = engine.WarmEdits.solve
        monkeypatch.setattr(
            engine.WarmEdits, "solve", lambda self, *a: solves.append(start(self, *a)) or solves[-1]
        )
        outcome = indirect_attack_greedy(g, attackers[:1], t)
        oracle_moves, _ = greedy_scan_oracle(g, attackers[:1], t)
        assert [(m.attacker, m.rated, m.weight) for m in outcome.moves] == oracle_moves
        assert oracle_moves[0][1] == (1 if miss < 0 else 0)
        assert [s.edit[1:] for s in solves if s.stopped] == [(0, -1.0), (1, -1.0)]

    def test_budget_respected_and_step_optimality(self):
        g = generate_random_graph(25, avg_out_degree=3.0, seed=31, positive_fraction=0.8)
        attackers = [1, 2, 3]
        target = next(v for v in g.nodes() if g.indeg(v) > 1 and v not in attackers)
        outcome = indirect_attack_greedy(g, attackers, target)
        assert len(outcome.moves) <= len(attackers)
        # re-verify each committed move was a minimizer of its scan
        work = g.copy()
        base = compute_fga(g, ATTACK_CONFIG)
        ordered = sorted(set(attackers), key=lambda a: (-base.fairness[a], a))
        for move, attacker in zip(outcome.moves, ordered):
            assert move.attacker == attacker
            candidates = set()
            for n1 in work.pred(target):
                candidates |= work.succ(n1)
            candidates -= {target, attacker}
            committed_value = None
            best_value = None
            for rated in sorted(candidates):
                for weight in (1.0, -1.0):
                    trial = work.copy()
                    trial.rate(attacker, rated, weight)
                    value = compute_fga(trial, ATTACK_CONFIG).goodness[target]
                    if rated == move.rated and weight == move.weight:
                        committed_value = value
                    if best_value is None or value < best_value:
                        best_value = value
            assert committed_value is not None
            assert committed_value <= best_value + 1e-9
            work.rate(move.attacker, move.rated, move.weight)


def test_indirect_campaign_reports_are_pinned(tmp_path):
    """A 200-sample greedy campaign writes the reports of the sequential screened scan.

    The digests were taken from the scan that solved every candidate it kept
    to convergence, one candidate at a time.
    """
    g = generate_random_graph(300, avg_out_degree=4.0, seed=11, positive_fraction=0.85)
    config = ExperimentConfig(mode="indirect", k_values=(2,), samples=200, seed=2024)
    result = run_campaign(g, config)
    assert len(result.records) == 200 and not result.errors
    report(result, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("records.csv", "summary.csv")
    }
    assert digests == {
        "records.csv": "6e8ae7c8c04d875b17c9ff0c3f7c23566d70fd30aaa34299c147a8e98b3cfcfa",
        "summary.csv": "75ca60f92baf46ecba463a39a0c1110c2da4cd28e2debd6dc2fe6f4399e698b2",
    }


def outcomed_exhausted(outcome):
    return outcome.exhausted


class TestIndirectScaled:
    def build_batch_graph(self, extra_raters_of_n2=0):
        """Target rated by p; p also rates n2; n2 optionally rated by extras."""
        g = Wsn()
        target = g.add_node("t")
        p = g.add_node("p")
        n2 = g.add_node("n2")
        g.add_edge(p, target, 1.0)
        g.add_edge(p, n2, 1.0)
        for i in range(extra_raters_of_n2):
            extra = g.add_node(f"extra{i}")
            g.add_edge(extra, n2, 1.0)
        return g, target, n2

    def test_batch_size_scale_times_indeg(self):
        g, target, n2 = self.build_batch_graph()
        attackers = [g.add_node(f"a{i}") for i in range(20)]
        outcome = indirect_attack_scaled(g, attackers, target, scale=5, max_edges=10)
        # indeg(n2) == 1, so the first batch is min(5, 10, 20) = 5 edges
        first_batch = [m for m in outcome.moves[:5]]
        assert len(first_batch) == 5
        assert all(m.rated == n2 for m in first_batch)

    def test_batch_capped_by_max_edges(self):
        g, target, n2 = self.build_batch_graph(extra_raters_of_n2=3)
        attackers = [g.add_node(f"a{i}") for i in range(20)]
        outcome = indirect_attack_scaled(g, attackers, target, scale=5, max_edges=10)
        # indeg(n2) == 4 so scale * indeg = 20 clamps at max_edges = 10
        assert all(m.rated == n2 for m in outcome.moves[:10])
        assert len([m for m in outcome.moves if m.rated == n2]) >= 10

    def test_batch_clamped_by_remaining_attackers(self):
        g, target, n2 = self.build_batch_graph()
        attackers = [g.add_node(f"a{i}") for i in range(2)]
        outcome = indirect_attack_scaled(g, attackers, target, scale=5, max_edges=10)
        assert len(outcome.moves) == 2

    def test_budget_never_exceeded(self):
        g = generate_random_graph(30, seed=3, positive_fraction=0.8)
        target = next(v for v in g.nodes() if g.indeg(v) > 0)
        attackers = [v for v in g.nodes() if v != target][:12]
        outcome = indirect_attack_scaled(g, attackers, target)
        assert len(outcome.moves) <= len(attackers)


class TestMixedAttack:
    def test_zero_direct_component(self):
        g = generate_random_graph(40, seed=8, positive_fraction=0.85)
        target = next(v for v in g.nodes() if g.indeg(v) > 0)
        attackers = [v for v in g.nodes() if v != target][:4]
        outcome = mixed_attack(g, attackers, target, k1=0, k2=2)
        assert outcome.delta_direct == 0.0
        assert outcome.delta_total == pytest.approx(outcome.delta_indirect, abs=1e-15)

    def test_zero_indirect_component(self):
        g = generate_random_graph(40, seed=8, positive_fraction=0.85)
        target = next(v for v in g.nodes() if g.indeg(v) > 0)
        attackers = [v for v in g.nodes() if v != target][:4]
        outcome = mixed_attack(g, attackers, target, k1=2, k2=0)
        assert outcome.indirect_moves == []
        assert outcome.delta_indirect == pytest.approx(0.0, abs=1e-15)
        assert outcome.delta_total == pytest.approx(outcome.delta_direct, abs=1e-15)

    def test_decomposition_matches_full_recompute(self):
        g = generate_random_graph(40, seed=15, positive_fraction=0.85)
        scores = compute_fga(g, ATTACK_CONFIG)
        target = max(
            (v for v in g.nodes() if g.indeg(v) > 0), key=lambda v: scores.goodness[v]
        )
        attackers = [v for v in g.nodes() if v != target][:4]
        outcome = mixed_attack(g, attackers, target, k1=2, k2=2)
        # identity by construction
        assert outcome.delta_direct + outcome.delta_indirect == pytest.approx(
            outcome.delta_total, abs=1e-15
        )
        # total equals an independent cold recomputation on the final graph
        cold = compute_fga(outcome.graph_after, HIGH_PRECISION)
        assert outcome.delta_total == pytest.approx(
            float(cold.goodness[target] - scores.goodness[target]), abs=TOL
        )

    def test_overlapping_assignment_rejected(self):
        g = generate_random_graph(20, seed=2)
        with pytest.raises(ValueError, match="distinct attackers"):
            mixed_attack(g, [1, 2], 0, k1=2, k2=1)


class TestInjectSybil:
    def test_sole_rater_sets_goodness(self):
        g = Wsn()
        g.add_node("v")
        attacked, sybil = inject_sybil(g, 0, -1.0)
        scores = compute_fga(attacked, HIGH_PRECISION)
        assert scores.goodness[0] == pytest.approx(-1.0, abs=TOL)
        assert scores.fairness[sybil] == pytest.approx(1.0, abs=TOL)
        assert attacked.outdeg(sybil) == 1 and attacked.indeg(sybil) == 0
        assert g.node_count == 1  # input untouched

    def test_injections_commute(self):
        g = generate_random_graph(15, seed=6)
        one_a, _ = inject_sybil(g, 3, -1.0, label="s1")
        one_ab, _ = inject_sybil(one_a, 5, 0.5, label="s2")
        two_b, _ = inject_sybil(g, 5, 0.5, label="s2x")
        two_ba, _ = inject_sybil(two_b, 3, -1.0, label="s1x")
        s1 = compute_fga(one_ab, HIGH_PRECISION)
        s2 = compute_fga(two_ba, HIGH_PRECISION)
        # node ids differ for the injected pair, but original nodes agree
        assert np.allclose(s1.fairness[:15], s2.fairness[:15], atol=1e-12)
        assert np.allclose(s1.goodness[:15], s2.goodness[:15], atol=1e-12)

    def test_label_uniquified(self):
        g = Wsn()
        g.add_node("v")
        g.add_node(f"sybil1")
        attacked, sybil = inject_sybil(g, 0, 0.5)
        assert attacked.label_of(sybil) not in ("v", "sybil1")

    @pytest.mark.parametrize(
        "labels, expected",
        [(("v", "sybil2"), "sybil2_1"), (("v", "sybil3", "sybil3_1"), "sybil3_2")],
    )
    def test_label_suffix_probe(self, labels, expected):
        g = Wsn()
        for label in labels:
            g.add_node(label)
        attacked, sybil = inject_sybil(g, 0, 0.5)
        assert attacked.label_of(sybil) == expected
        assert attacked.node_count == len(labels) + 1 and g.node_count == len(labels)
        attacked.validate()

    def test_default_and_explicit_labels(self):
        g = Wsn()
        g.add_node("v")
        assert inject_sybil(g, 0, 0.5)[0].labels() == ["v", "sybil1"]
        assert inject_sybil(g, 0, 0.5, label="s")[0].labels() == ["v", "s"]
        with pytest.raises(ValueError, match="duplicate"):
            inject_sybil(g, 0, 0.5, label="v")


class TestAttackProblemValidation:
    def test_attacker_target_overlap(self):
        g = generate_random_graph(10, seed=0)
        with pytest.raises(ValueError, match="disjoint"):
            AttackProblem(
                graph=g, attackers=(1,), intermediaries=(2,), budget=1,
                threshold=0.0, targets=(1,),
            )

    def test_linked_pair_rejected(self):
        g = Wsn()
        for _ in range(3):
            g.add_node()
        g.add_edge(0, 1, 0.5)
        with pytest.raises(ValueError, match="linked"):
            AttackProblem(
                graph=g, attackers=(2,), intermediaries=(0,), budget=1,
                threshold=0.0, target_pairs=((0, 1),),
            )

    def test_exactly_one_target_kind(self):
        g = generate_random_graph(5, seed=0)
        with pytest.raises(ValueError, match="exactly one"):
            AttackProblem(
                graph=g, attackers=(0,), intermediaries=(1,), budget=1, threshold=0.0,
            )


def oracle_problems(seed):
    """The four oracle instances of round 0 of the tiny-suite benchmark at ``seed``."""
    rng = np.random.default_rng([seed, 0, 8])
    for n, budget in ((6, 2), (8, 2), (12, 1), (9, 1)):
        while True:
            graph = generate_random_graph(
                n, avg_out_degree=2.0, seed=int(rng.integers(0, 2**31)), positive_fraction=0.8
            )
            scores = compute_fga(graph, ATTACK_CONFIG)
            targets = [v for v in graph.nodes() if graph.indeg(v) >= 1 and scores.goodness[v] > 0]
            if targets:
                break
        target = int(targets[rng.integers(0, len(targets))])
        pool = [v for v in graph.nodes() if v != target]
        attackers = tuple(int(pool[i]) for i in rng.choice(len(pool), size=budget, replace=False))
        yield AttackProblem(
            graph=graph, attackers=attackers,
            intermediaries=tuple(v for v in graph.nodes() if v != target),
            budget=budget, threshold=0.0, direction="decrease", targets=(target,),
        )


#: (seed, objective, moves as (attacker, rated, weight), sets enumerated, feasible),
#: as the unbatched oracle found them.
PINNED_ORACLE = [
    (1, 0.5192465814770022, ((1, 2, 1.0), (3, 2, 1.0)), 129, False),
    (1, 0.35316179439233875, ((3, 1, -1.0), (7, 4, -1.0)), 289, False),
    (1, 0.5539400467418463, ((10, 1, 1.0),), 21, False),
    (1, -0.009011230970316239, ((7, 4, -1.0),), 15, True),
    (2, 0.15050392429150397, ((3, 4, -1.0), (4, 3, -1.0)), 129, False),
    (2, 0.3182806027382896, ((0, 4, 1.0), (1, 2, -1.0)), 289, False),
    (2, 0.2379570584515524, ((5, 0, 1.0),), 21, False),
    (2, 0.3661819718383664, ((5, 3, -1.0),), 15, False),
    (3, 0.5117425470196492, ((0, 1, -1.0), (0, 3, -1.0)), 129, False),
    (3, 0.0028825723169650487, ((5, 6, -1.0), (5, 7, -1.0)), 289, False),
    (3, 0.7189117205146319, ((9, 1, -1.0),), 21, False),
    (3, 0.2817059924770126, (), 15, False),
]


class TestSolveExhaustive:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pinned_tiny_suite_instances(self, seed):
        pinned = [row[1:] for row in PINNED_ORACLE if row[0] == seed]
        found = []
        for problem in oracle_problems(seed):
            result = solve_exhaustive(problem, weight_grid=(-1.0, 1.0))
            moves = tuple((m.attacker, m.rated, m.weight) for m in result.moves)
            found.append((result.objective_value, moves, result.sets_enumerated, result.feasible))
        assert found == pinned

    def test_batched_solves_match_one_at_a_time(self, monkeypatch):
        from fga import engine

        problem = list(oracle_problems(1))[1]
        whole = solve_exhaustive(problem, weight_grid=(-1.0, 1.0))
        monkeypatch.setattr(engine, "_BATCH_ITEMS", 1)  # one overlay per solve
        single = solve_exhaustive(problem, weight_grid=(-1.0, 1.0))
        assert single.objective_value == whole.objective_value
        assert single.moves == whole.moves
        assert single.sets_enumerated == whole.sets_enumerated == 289

    def test_zero_budget_infeasible(self):
        g = two_rater_chain()
        attacker = g.add_node("5")
        problem = AttackProblem(
            graph=g, attackers=(attacker,), intermediaries=(0, 1, 2, 3), budget=0,
            threshold=0.0, direction="decrease", targets=(0,),
        )
        result = solve_exhaustive(problem)
        assert not result.feasible
        assert result.moves == ()
        assert result.sets_enumerated == 1

    def test_single_direct_edge_flips_sign(self):
        g = Wsn()
        g.add_node("t")
        g.add_node("p")
        g.add_edge(1, 0, 0.4)
        attacker = g.add_node("a")
        problem = AttackProblem(
            graph=g, attackers=(attacker,), intermediaries=(0,), budget=1,
            threshold=0.0, direction="decrease", targets=(0,),
        )
        result = solve_exhaustive(problem)
        assert result.feasible
        assert len(result.moves) == 1
        assert result.moves[0].rated == 0 and result.moves[0].weight == -1.0
        # certificate confirmed by an independent recomputation
        confirm = g.copy()
        for move in result.moves:
            confirm.rate(move.attacker, move.rated, move.weight)
        assert compute_fga(confirm, HIGH_PRECISION).goodness[0] <= 0.0

    def test_increase_direction(self):
        g = Wsn()
        g.add_node("t")
        g.add_node("p")
        g.add_edge(1, 0, -0.5)
        attacker = g.add_node("a")
        problem = AttackProblem(
            graph=g, attackers=(attacker,), intermediaries=(0,), budget=1,
            threshold=0.05, direction="increase", targets=(0,),
        )
        result = solve_exhaustive(problem)
        assert result.feasible
        # a +1 edge next to the -0.5 rater lands at exactly g = 0.1:
        # f_p = 1 - (0.5 + g)/2, f_a = (1 + g)/2, g = (f_a - 0.5 f_p)/2
        assert result.objective_value == pytest.approx(0.1, abs=TOL)

    def test_pair_problem_uses_either_direction(self):
        g = Wsn()
        for label in ("u", "v", "r"):
            g.add_node(label)
        g.add_edge(2, 0, 0.8)  # r rates u, pair (u, v) disconnected
        attacker = g.add_node("a")
        problem = AttackProblem(
            graph=g, attackers=(attacker,), intermediaries=(0, 1), budget=1,
            threshold=-0.5, direction="decrease", target_pairs=((0, 1),),
        )
        result = solve_exhaustive(problem)
        assert result.feasible
        attacked = g.copy()
        for move in result.moves:
            attacked.rate(move.attacker, move.rated, move.weight)
        final = compute_fga(attacked, HIGH_PRECISION)
        predictions = (
            predict_weight(final, 0, 1),
            predict_weight(final, 1, 0),
        )
        assert min(predictions) <= -0.5 + TOL

    def test_greedy_never_beats_oracle_small(self):
        g = generate_random_graph(10, avg_out_degree=2.0, seed=3, positive_fraction=0.8)
        scores = compute_fga(g, ATTACK_CONFIG)
        target = max((v for v in g.nodes() if g.indeg(v) > 0), key=lambda v: scores.goodness[v])
        attackers = tuple(v for v in g.nodes() if v != target)[:2]
        greedy = indirect_attack_greedy(g, attackers, target)
        problem = AttackProblem(
            graph=g, attackers=attackers,
            intermediaries=tuple(v for v in g.nodes() if v != target),
            budget=2, threshold=-1.0, direction="decrease", targets=(target,),
        )
        oracle = solve_exhaustive(problem)
        assert oracle.objective_value <= greedy.scores_after.goodness[target] + TOL

    def test_conflicting_moves_on_one_edge_are_skipped(self):
        # pool holds (a, t, +1) and (a, t, -1); the size-2 set touches the
        # same edge twice and must be skipped, leaving 1 + 2 evaluated sets
        g = Wsn()
        g.add_node("t")
        g.add_node("p")
        g.add_edge(1, 0, 0.4)
        attacker = g.add_node("a")
        problem = AttackProblem(
            graph=g, attackers=(attacker,), intermediaries=(0,), budget=2,
            threshold=0.0, direction="decrease", targets=(0,),
        )
        result = solve_exhaustive(problem)
        assert result.sets_enumerated == 3
        assert result.feasible
        assert len(result.moves) == 1

    def test_instance_guard(self):
        g = generate_random_graph(60, seed=1)
        attackers = tuple(range(20))
        intermediaries = tuple(range(20, 60))
        problem = AttackProblem(
            graph=g, attackers=attackers, intermediaries=intermediaries, budget=3,
            threshold=0.0, direction="decrease", targets=(59,),
        )
        with pytest.raises(InstanceTooLargeError):
            solve_exhaustive(problem)


class TestSelection:
    def make_scored_graph(self):
        g = generate_random_graph(60, avg_out_degree=4.0, seed=19, positive_fraction=0.95)
        scores = compute_fga(g, ATTACK_CONFIG)
        return g, scores

    def test_targets_satisfy_filter(self):
        g, scores = self.make_scored_graph()
        criteria = SelectionCriteria()
        rng = np.random.default_rng(0)
        picked = select_targets(g, scores, criteria, 5, rng)
        for v in picked:
            assert 0 < g.indeg(v) < criteria.target_max_indeg
            assert scores.goodness[v] >= criteria.target_min_goodness

    def test_insufficient_targets(self):
        g = Wsn()
        g.add_node()
        scores = compute_fga(g)
        with pytest.raises(InsufficientCandidatesError):
            select_targets(g, scores, SelectionCriteria(), 1, np.random.default_rng(0))

    def test_all_qualify_returns_all(self):
        g, scores = self.make_scored_graph()
        criteria = SelectionCriteria()
        pool = qualifying_targets(g, scores, criteria)
        rng = np.random.default_rng(1)
        picked = select_targets(g, scores, criteria, len(pool), rng)
        assert sorted(picked) == sorted(pool)

    def test_attacker_classes(self):
        g, scores = self.make_scored_graph()
        criteria = SelectionCriteria()
        for v in qualifying_attackers(g, scores, criteria, "established"):
            assert g.outdeg(v) > criteria.established_min_outdeg
            assert scores.fairness[v] > criteria.established_min_fairness
        for v in qualifying_attackers(g, scores, criteria, "fresh"):
            assert 0 < g.indeg(v) < criteria.fresh_max_indeg
            assert g.outdeg(v) == 0
        with pytest.raises(ValueError):
            qualifying_attackers(g, scores, criteria, "nope")

    def test_pools_match_per_node_scan(self):
        g, scores = self.make_scored_graph()
        criteria = SelectionCriteria(target_max_indeg=4, fresh_max_indeg=3)
        assert qualifying_targets(g, scores, criteria) == [
            v for v in g.nodes()
            if 0 < g.indeg(v) < criteria.target_max_indeg
            and scores.goodness[v] >= criteria.target_min_goodness
        ]
        assert qualifying_attackers(g, scores, criteria, "established") == [
            v for v in g.nodes()
            if g.outdeg(v) > criteria.established_min_outdeg
            and scores.fairness[v] > criteria.established_min_fairness
        ]
        assert qualifying_attackers(g, scores, criteria, "fresh") == [
            v for v in g.nodes()
            if 0 < g.indeg(v) < criteria.fresh_max_indeg and g.outdeg(v) == 0
        ]

    def test_seeded_determinism_and_exclusion(self):
        g, scores = self.make_scored_graph()
        criteria = SelectionCriteria()
        a = select_attackers(g, scores, criteria, 3, np.random.default_rng(42), "established")
        b = select_attackers(g, scores, criteria, 3, np.random.default_rng(42), "established")
        assert a == b
        excluded = select_attackers(
            g, scores, criteria, 3, np.random.default_rng(42), "established", exclude=set(a)
        )
        assert not (set(excluded) & set(a))


class TestFlatCore:
    """Attacks edit overlays of the graph's cached flat edges, never the base."""

    ARRAYS = ("src", "dst", "w", "key", "indeg", "outdeg")

    def run_every_attack(self, g, target, attackers, before):
        return [
            direct_attack(g, attackers, target, before=before),
            indirect_attack_greedy(g, attackers, target, before=before),
            indirect_attack_scaled(g, attackers, target, scale=2, max_edges=3, before=before),
            mixed_attack(g, attackers, target, 1, 2, before=before),
        ]

    def scored_instance(self):
        g = generate_random_graph(40, avg_out_degree=4.0, seed=23, positive_fraction=0.85)
        scores = compute_fga(g, ATTACK_CONFIG)
        target = qualifying_targets(g, scores, SelectionCriteria())[0]
        attackers = [v for v in g.nodes() if v != target and g.has_edge(v, target)][:1]
        attackers += [v for v in g.nodes() if v != target and v not in attackers][:3]
        return g, scores, target, attackers

    def test_base_flat_is_never_written(self):
        g, scores, target, attackers = self.scored_instance()
        base = g.flat()
        snapshot = {name: getattr(base, name).copy() for name in self.ARRAYS}
        self.run_every_attack(g, target, attackers, scores)
        problem = AttackProblem(
            graph=g, attackers=tuple(attackers[:2]), intermediaries=(target, 0, 1),
            budget=2, threshold=0.0, targets=(target,),
        )
        solve_exhaustive(problem)
        assert g.flat() is base
        for name in self.ARRAYS:
            array = getattr(base, name)
            assert not array.flags.writeable
            assert np.array_equal(array, snapshot[name]), name

    def test_given_before_skips_the_cold_solve_and_changes_nothing(self, monkeypatch):
        g, scores, target, attackers = self.scored_instance()
        expected = self.run_every_attack(g, target, attackers, None)

        def no_cold_solve(*args, **kwargs):
            raise AssertionError("cold solve despite before=")

        monkeypatch.setattr(attacks, "compute_fga", no_cold_solve)
        got = self.run_every_attack(g, target, attackers, scores)
        for want, have in zip(expected, got):
            assert np.array_equal(want.scores_after.goodness, have.scores_after.goodness)
            assert want.graph_after == have.graph_after
        for want, have in zip(expected[:3], got[:3]):
            assert want.moves == have.moves
        assert expected[3].direct_moves + expected[3].indirect_moves == (
            got[3].direct_moves + got[3].indirect_moves
        )


class TestGraphAfter:
    """``graph_after`` is built from the attacked graph and the move log on first read."""

    @staticmethod
    def attacked():
        """A graph and the outcomes of every attack on it, none of them read yet."""
        core = TestFlatCore()
        g, scores, target, attackers = core.scored_instance()
        return g, core.run_every_attack(g, target, attackers, scores)

    @staticmethod
    def eager(g, moves):
        work = g.copy()
        for move in moves:
            work.rate(move.attacker, move.rated, move.weight)
        return work

    @staticmethod
    def all_moves(outcome):
        if isinstance(outcome, attacks.MixedAttackOutcome):
            return outcome.direct_moves + outcome.indirect_moves
        return outcome.moves

    def test_unread_graph_after_is_never_built(self, monkeypatch):
        copies = []
        original = Wsn.copy
        monkeypatch.setattr(Wsn, "copy", lambda self: copies.append(1) or original(self))
        _, outcomes = self.attacked()
        assert copies == []
        outcomes[0].graph_after
        assert copies == [1]

    def test_graph_after_equals_the_eager_build(self):
        g, outcomes = self.attacked()
        for outcome in outcomes:
            built = outcome.graph_after
            assert built == self.eager(g, self.all_moves(outcome))
            assert built != g
            assert outcome.graph_after is built

    def test_read_after_the_attacked_graph_changed_raises(self):
        g, (read_early, *outcomes) = self.attacked()
        built = read_early.graph_after
        u, v, _ = next(iter(g.edges()))
        g.update_weight(u, v, 0.25)
        assert read_early.graph_after is built
        for outcome in outcomes:
            with pytest.raises(RuntimeError, match="changed"):
                outcome.graph_after
