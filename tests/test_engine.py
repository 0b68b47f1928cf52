import dataclasses
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fga_oracle
from fga.engine import (
    DEFAULT_CONFIG,
    HIGH_PRECISION,
    FgaConfig,
    FgaScores,
    WarmEdits,
    compute_fga,
    compute_fga_many,
    export_scores_csv,
    predict_weight,
    recompute_after,
    recompute_flat,
)
from fga.generators import generate_random_graph
from fga.graph import Wsn

TOL = 1e-9


def draw_graph(data, min_nodes: int, max_nodes: int) -> Wsn:
    """A hypothesis-drawn graph: any edge set, weights anywhere in [-1, 1]."""
    n = data.draw(st.integers(min_value=min_nodes, max_value=max_nodes), label="n")
    g = Wsn()
    for _ in range(n):
        g.add_node()
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    if pairs:
        chosen = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)),
            label="edges",
        )
        for u, v in chosen:
            w = data.draw(st.floats(min_value=-1, max_value=1, allow_nan=False), label="w")
            g.add_edge(u, v, w)
    return g


def draw_warm_edit(data):
    """A drawn graph's store, its converged scores and one edit, as the greedy scan sees."""
    g = draw_graph(data, 2, 8)
    warm = compute_fga(g, HIGH_PRECISION)
    u, v = data.draw(
        st.sampled_from([(u, v) for u in g.nodes() for v in g.nodes() if u != v]), label="edit"
    )
    w = data.draw(st.sampled_from([-1.0, 1.0, 0.0, 0.5]), label="edit weight")
    return g.flat(), warm, (u, v, w)


def assert_tracks_the_dense_solve(flat, warm, edit, config):
    """An ``EditSolve`` equals the dense solve of the overlay bit for bit at every sweep."""
    view = flat.with_rating(*edit)
    final = recompute_flat(view, warm, config)
    solve = WarmEdits(flat, warm, config).solve(*edit)
    assert solve.bounds(0) == (-np.inf, np.inf)
    previous = warm.fairness  # f_0: every solve starts from the warm scores
    while not solve.stopped:
        solve.advance()
        t = solve.iterations
        dense = recompute_flat(view, warm, dataclasses.replace(config, max_iterations=t))
        assert dense.iterations_run == t
        assert solve.fairness.tobytes() == dense.fairness.tobytes(), t
        assert solve.goodness.tobytes() == dense.goodness.tobytes(), t
        assert solve.residual == dense.max_residual, t
        assert solve.stopped == (t == final.iterations_run), t
        # the interval the scan decides on is 2 d_t wide either side of the dense iterate,
        # d_t its fairness step from the dense iterate before, and it holds the final value
        slack = 2.0 * float(np.abs(dense.fairness - previous).max())
        previous = dense.fairness
        for node, (g, g_final) in enumerate(zip(dense.goodness, final.goodness)):
            lo, hi = solve.bounds(node)
            assert (lo, hi) == ((g, g) if solve.stopped else (g - slack - 1e-12, g + slack + 1e-12))
            assert lo <= g_final <= hi
    assert_same_scores(solve.finish(), final)
    assert solve.view.key.tobytes() == view.key.tobytes()
    assert solve.view.w.tobytes() == view.w.tobytes()


def rebuilt(g: Wsn, edits) -> Wsn:
    """The independent reference: g's edges with ``edits`` applied to a dict, built in bulk."""
    edges = {(u, v): w for u, v, w in g.edges()}
    for u, v, w in edits:
        edges[u, v] = w
    items = list(edges.items())[::-1]  # not canonical order; from_arrays sorts
    return Wsn.from_arrays(
        g.node_count, [u for (u, _), _ in items], [v for (_, v), _ in items], [w for _, w in items]
    )


def antisymmetric_pair():
    g = Wsn()
    for label in ("v", "a", "b"):
        g.add_node(label)
    g.add_edge(1, 0, 1.0)
    g.add_edge(2, 0, -1.0)
    return g


class TestClosedForms:
    def test_isolated_node(self):
        g = Wsn()
        g.add_node()
        s = compute_fga(g)
        assert s.fairness[0] == 1.0
        assert s.goodness[0] == 1.0

    @pytest.mark.parametrize("w", [-1.0, -0.7, 0.0, 0.37, 1.0])
    def test_single_edge_pair(self, w):
        g = Wsn()
        g.add_node("u")
        g.add_node("v")
        g.add_edge(0, 1, w)
        s = compute_fga(g, HIGH_PRECISION)
        assert s.fairness[0] == pytest.approx(1.0, abs=TOL)
        assert s.goodness[1] == pytest.approx(w, abs=TOL)

    def test_antisymmetric_pair(self):
        s = compute_fga(antisymmetric_pair(), HIGH_PRECISION)
        assert s.goodness[0] == pytest.approx(0.0, abs=TOL)
        assert s.fairness[1] == pytest.approx(0.5, abs=TOL)
        assert s.fairness[2] == pytest.approx(0.5, abs=TOL)

    def test_empty_graph(self):
        s = compute_fga(Wsn())
        assert s.node_count == 0
        assert s.max_residual == 0.0


class TestAgainstOracle:
    def test_seeded_graph_matches_long_run_oracle(self):
        g = generate_random_graph(8, avg_out_degree=2.5, seed=42, positive_fraction=0.7)
        assert g.node_count == 8 and g.edge_count == 20
        s = compute_fga(g, HIGH_PRECISION)
        oracle_f, oracle_g = fga_oracle.fixed_point(g, sweeps=10_000)
        for v in range(8):
            assert s.fairness[v] == pytest.approx(oracle_f[v], abs=TOL)
            assert s.goodness[v] == pytest.approx(oracle_g[v], abs=TOL)
        # frozen oracle spot values guard against generator drift
        assert oracle_f[0] == pytest.approx(0.853333123146749, abs=1e-12)
        assert oracle_g[5] == pytest.approx(0.6184532462837499, abs=1e-12)

    def test_oracle_agreement_on_mixed_sign_graphs(self):
        for seed in (1, 7, 23):
            g = generate_random_graph(25, avg_out_degree=3.0, seed=seed, positive_fraction=0.5)
            s = compute_fga(g, HIGH_PRECISION)
            oracle_f, oracle_g = fga_oracle.fixed_point(g, sweeps=600)
            for v in g.nodes():
                assert s.fairness[v] == pytest.approx(oracle_f[v], abs=TOL)
                assert s.goodness[v] == pytest.approx(oracle_g[v], abs=TOL)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_oracle_agreement_on_arbitrary_graphs(self, data):
        g = draw_graph(data, 1, 7)
        s = compute_fga(g, HIGH_PRECISION)
        oracle_f, oracle_g = fga_oracle.fixed_point(g, sweeps=500)
        for v in g.nodes():
            assert s.fairness[v] == pytest.approx(oracle_f[v], abs=TOL)
            assert s.goodness[v] == pytest.approx(oracle_g[v], abs=TOL)


class TestConvergenceRate:
    def test_error_halves_each_sweep(self):
        # against a 200-sweep reference: |f_ref - f_t| < 1/2^t, |g_ref - g_t| < 1/2^(t-1)
        run_all = FgaConfig(max_iterations=200, residual_tolerance=1e-300)
        for seed in (3, 11):
            g = generate_random_graph(40, avg_out_degree=3.0, seed=seed, positive_fraction=0.6)
            ref = compute_fga(g, run_all)
            for t in (1, 2, 5, 10, 20, 40):
                partial = compute_fga(g, FgaConfig(max_iterations=t, residual_tolerance=1e-300))
                f_gap = float(np.max(np.abs(ref.fairness - partial.fairness)))
                g_gap = float(np.max(np.abs(ref.goodness - partial.goodness)))
                assert f_gap < 0.5**t
                assert g_gap < 0.5 ** (t - 1)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_later_goodness_within_twice_the_residual(self, data):
        # the contraction bound the scan's intervals rely on, at every sweep of a warm solve
        flat, warm, edit = draw_warm_edit(data)
        view = flat.with_rating(*edit)
        final = recompute_flat(view, warm, HIGH_PRECISION)
        for t in range(1, final.iterations_run + 1):
            capped = FgaConfig(max_iterations=t, residual_tolerance=HIGH_PRECISION.residual_tolerance)
            partial = recompute_flat(view, warm, capped)
            gap = np.abs(final.goodness - partial.goodness)
            assert np.all(gap <= 2.0 * partial.max_residual + 1e-12), t

    @settings(deadline=None)  # examples: the hypothesis profile's (tests/conftest.py)
    @given(st.data())
    def test_later_goodness_within_twice_the_fairness_step(self, data):
        # the bound the scan's intervals use: |g_T - g_t| <= 2 d_t from sweep 1 of a warm solve,
        # d_t = max|f_t - f_(t-1)|, whatever the warm scores, since g_1 is a sweep of the edit
        flat, warm, edit = draw_warm_edit(data)
        if data.draw(st.booleans(), label="arbitrary warm scores"):
            f = data.draw(st.lists(st.floats(0, 1), min_size=flat.n, max_size=flat.n), label="f")
            g = data.draw(st.lists(st.floats(-1, 1), min_size=flat.n, max_size=flat.n), label="g")
            warm = FgaScores(np.array(f), np.array(g), 0, np.inf)
        view = flat.with_rating(*edit)
        final = recompute_flat(view, warm, HIGH_PRECISION)
        previous = warm.fairness
        for t in range(1, final.iterations_run + 1):
            capped = FgaConfig(max_iterations=t, residual_tolerance=HIGH_PRECISION.residual_tolerance)
            partial = recompute_flat(view, warm, capped)
            step = float(np.abs(partial.fairness - previous).max())
            previous = partial.fairness
            gap = np.abs(final.goodness - partial.goodness)
            assert np.all(gap <= 2.0 * step + 1e-12), t


class TestEditSolve:
    @settings(deadline=None)  # examples: the hypothesis profile's (tests/conftest.py)
    @given(st.data())
    def test_frontier_sweeps_equal_the_dense_sweeps(self, data):
        g = draw_graph(data, 2, 8)
        for _ in range(data.draw(st.integers(min_value=0, max_value=2), label="isolated")):
            g.add_node()
        # the warm start need not be converged
        warm_sweeps = data.draw(st.sampled_from([None, 1, 2, 3]), label="warm sweeps")
        warm = compute_fga(
            g,
            HIGH_PRECISION
            if warm_sweeps is None
            else dataclasses.replace(HIGH_PRECISION, max_iterations=warm_sweeps),
        )
        edges = [(u, v) for u, v, _ in g.edges()]
        absent = [(u, v) for u in g.nodes() for v in g.nodes() if u != v and (u, v) not in edges]
        update = data.draw(st.booleans(), label="update") if edges and absent else not absent
        a, r = data.draw(st.sampled_from(edges if update else absent), label="edge")
        weight = data.draw(st.sampled_from([-1.0, 1.0, 0.0, 0.5]), label="weight")
        config = data.draw(
            st.sampled_from(
                [HIGH_PRECISION, DEFAULT_CONFIG, FgaConfig(max_iterations=1),
                 FgaConfig(max_iterations=2), FgaConfig(max_iterations=3)]
            ),
            label="config",
        )
        assert_tracks_the_dense_solve(g.flat(), warm, (a, r, weight), config)

    @pytest.mark.parametrize(
        "edit",
        [
            (0, 5, -1.0),  # r unrated before the edit
            (6, 1, 1.0),  # a silent before it
            (6, 7, 0.5),  # both: an edge between two isolated nodes
            (0, 1, -1.0),  # an update
            (3, 0, 1.0),  # r rated by two nodes that rate three others
        ],
    )
    def test_frontier_cases(self, edit):
        g = generate_random_graph(5, avg_out_degree=2.0, seed=3, positive_fraction=0.6)
        for _ in range(3):
            g.add_node()  # 5, 6 and 7 are isolated
        g.add_edge(5, 2, 1.0)
        assert g.indeg(5) == 0 and g.outdeg(6) == 0 and g.indeg(7) == g.outdeg(7) == 0
        assert g.has_edge(*edit[:2]) == (edit[:2] == (0, 1))
        g.add_edge(5, 3, -0.5)
        for warm_sweeps in (None, 1):
            config = dataclasses.replace(HIGH_PRECISION, max_iterations=warm_sweeps or 400)
            warm = compute_fga(g, config)
            assert_tracks_the_dense_solve(g.flat(), warm, edit, HIGH_PRECISION)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_decides_only_what_the_final_value_allows(self, data):
        flat, warm, edit = draw_warm_edit(data)
        full = recompute_flat(flat.with_rating(*edit), warm, HIGH_PRECISION)
        node = data.draw(st.integers(min_value=0, max_value=flat.n - 1), label="node")
        final = float(full.goodness[node])
        offset = data.draw(st.sampled_from([-0.5, -1e-3, -1e-6, -1e-9, 0.0]), label="offset")
        # the smallest floor above the final value must never be ruled out
        floors = (final + offset, float(np.nextafter(final, np.inf)))
        solve = WarmEdits(flat, warm, HIGH_PRECISION).solve(*edit)
        while not solve.stopped:
            solve.advance()
            lo, hi = solve.bounds(node)
            for floor in floors:
                assert final >= floor or lo < floor
                assert final < floor or hi >= floor
        assert_same_scores(solve.finish(), full)

    def test_twice_the_fairness_step_is_needed(self):
        # v's two raters disagree (f = 1/2, g(v) = 0) until a's rating of v turns to -1; then
        # their fairness climbs to 1 in halving steps d_t = 2^-(t+1) while g(v) walks down to -1,
        # 2 d_t (1 - 2^(t-T)) beyond g_t, so an interval of 1.5 d_t misses the final value
        g = antisymmetric_pair()
        warm = compute_fga(g, HIGH_PRECISION)
        view = g.flat().with_rating(1, 0, -1.0)
        final = recompute_flat(view, warm, HIGH_PRECISION).goodness[0]
        solve = WarmEdits(g.flat(), warm, HIGH_PRECISION).solve(1, 0, -1.0)
        previous = warm.fairness
        for t in range(1, 6):
            solve.advance()
            dense = recompute_flat(view, warm, dataclasses.replace(HIGH_PRECISION, max_iterations=t))
            step = float(np.abs(dense.fairness - previous).max())
            previous = dense.fairness
            assert abs(final - dense.goodness[0]) > 1.9 * step, t
            lo, hi = solve.bounds(0)
            assert lo <= final <= hi, t

    def test_decides_a_clearly_losing_solve_early(self):
        g = generate_random_graph(40, avg_out_degree=3.0, seed=5, positive_fraction=0.7)
        warm = compute_fga(g, HIGH_PRECISION)
        full = recompute_flat(g.flat().with_rating(0, 1, -1.0), warm, HIGH_PRECISION)
        assert full.iterations_run > 3
        solve = WarmEdits(g.flat(), warm, HIGH_PRECISION).solve(0, 1, -1.0)
        while solve.bounds(1)[0] < full.goodness[1] - 0.5:
            solve.advance()
        assert solve.iterations <= 2 and not solve.stopped

    def test_misuse_is_refused(self):
        g = generate_random_graph(6, avg_out_degree=2.0, seed=1)
        warm = compute_fga(g, HIGH_PRECISION)
        with pytest.raises(ValueError, match="warm scores cover"):
            WarmEdits(g.flat().with_node(), warm)
        edits = WarmEdits(g.flat(), warm, HIGH_PRECISION)
        with pytest.raises(ValueError, match="self-loop"):
            edits.solve(2, 2, 1.0)
        with pytest.raises(ValueError, match="outside"):
            edits.solve(2, 3, 1.5)
        solve = edits.solve(2, 3, 1.0)
        solve.finish()
        with pytest.raises(RuntimeError, match="stopped"):
            solve.advance()


class TestIterationBehaviour:
    def test_non_convergence_is_signalled_not_raised(self):
        g = antisymmetric_pair()
        s = compute_fga(g, FgaConfig(max_iterations=1, residual_tolerance=1e-12))
        assert s.iterations_run == 1
        assert s.max_residual > 1e-12

    def test_reports_iterations(self):
        g = generate_random_graph(30, seed=5)
        s = compute_fga(g)
        assert 1 <= s.iterations_run <= DEFAULT_CONFIG.max_iterations
        assert s.max_residual < DEFAULT_CONFIG.residual_tolerance

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FgaConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FgaConfig(residual_tolerance=0.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_range_preservation(self, seed):
        g = generate_random_graph(20, avg_out_degree=2.0, seed=seed, positive_fraction=0.5)
        s = compute_fga(g)
        assert np.all(s.fairness >= 0.0) and np.all(s.fairness <= 1.0)
        assert np.all(s.goodness >= -1.0) and np.all(s.goodness <= 1.0)
        for v in g.nodes():
            if g.indeg(v) == 0:
                assert s.goodness[v] == 1.0
            if g.outdeg(v) == 0:
                assert s.fairness[v] == 1.0

    def test_determinism_across_edge_insertion_order(self):
        edges = [(0, 1, 0.5), (2, 1, -0.3), (1, 3, 0.9), (3, 0, -0.2), (2, 3, 0.7)]
        g1 = Wsn()
        g2 = Wsn()
        for _ in range(4):
            g1.add_node()
            g2.add_node()
        for u, v, w in edges:
            g1.add_edge(u, v, w)
        for u, v, w in reversed(edges):
            g2.add_edge(u, v, w)
        s1 = compute_fga(g1)
        s2 = compute_fga(g2)
        assert np.array_equal(s1.fairness, s2.fairness)
        assert np.array_equal(s1.goodness, s2.goodness)


class TestWarmStart:
    def test_noop_recompute_returns_same_scores(self):
        g = generate_random_graph(30, seed=9)
        warm = compute_fga(g, HIGH_PRECISION)
        again = recompute_after(g, warm, HIGH_PRECISION)
        assert again.iterations_run >= 1
        assert np.max(np.abs(again.fairness - warm.fairness)) < 1e-9
        assert np.max(np.abs(again.goodness - warm.goodness)) < 1e-9

    def test_single_update_matches_cold(self):
        g = generate_random_graph(50, avg_out_degree=3.0, seed=12)
        warm = compute_fga(g, HIGH_PRECISION)
        u, v, _ = next(iter(g.edges()))
        g2 = g.copy()
        g2.update_weight(u, v, -1.0)
        warm_result = recompute_after(g2, warm, HIGH_PRECISION)
        cold_result = compute_fga(g2, HIGH_PRECISION)
        assert np.max(np.abs(warm_result.fairness - cold_result.fairness)) < TOL
        assert np.max(np.abs(warm_result.goodness - cold_result.goodness)) < TOL

    def test_added_node_matches_cold(self):
        g = generate_random_graph(50, avg_out_degree=3.0, seed=13)
        warm = compute_fga(g, HIGH_PRECISION)
        g2 = g.copy()
        s = g2.add_node("sybil")
        g2.add_edge(s, 4, -1.0)
        warm_result = recompute_after(g2, warm, HIGH_PRECISION)
        cold_result = compute_fga(g2, HIGH_PRECISION)
        assert np.max(np.abs(warm_result.fairness - cold_result.fairness)) < TOL
        assert np.max(np.abs(warm_result.goodness - cold_result.goodness)) < TOL

    def test_random_edit_sequences_match_cold(self):
        rng = np.random.default_rng(77)
        g = generate_random_graph(40, avg_out_degree=2.5, seed=21)
        scores = compute_fga(g, HIGH_PRECISION)
        for _ in range(12):
            u = int(rng.integers(0, g.node_count))
            v = int(rng.integers(0, g.node_count))
            if u == v:
                continue
            g.rate(u, v, float(rng.uniform(-1, 1)))
            scores = recompute_after(g, scores, HIGH_PRECISION)
            cold = compute_fga(g, HIGH_PRECISION)
            assert np.max(np.abs(scores.fairness - cold.fairness)) < TOL
            assert np.max(np.abs(scores.goodness - cold.goodness)) < TOL

    def test_node_set_shrink_rejected(self):
        g = generate_random_graph(10, seed=1)
        warm = compute_fga(g)
        smaller = generate_random_graph(5, seed=1)
        with pytest.raises(ValueError, match="nodes"):
            recompute_after(smaller, warm)


def assert_same_scores(got, want):
    """Bit-for-bit equality of every field."""
    assert got.iterations_run == want.iterations_run
    assert got.max_residual == want.max_residual
    assert got.fairness.tobytes() == want.fairness.tobytes()
    assert got.goodness.tobytes() == want.goodness.tobytes()


class TestComputeFgaMany:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_each_result_equals_its_own_solve(self, data):
        config = data.draw(
            st.sampled_from([DEFAULT_CONFIG, HIGH_PRECISION, FgaConfig(max_iterations=4)]),
            label="config",
        )
        graphs, warm, want = [], [], []
        for _ in range(data.draw(st.integers(min_value=1, max_value=6), label="graphs")):
            g = draw_graph(data, 0, 7)
            for _ in range(data.draw(st.integers(min_value=0, max_value=2), label="isolated")):
                g.add_node()
            if g.node_count and data.draw(st.booleans(), label="warm"):
                start = compute_fga(g, config)
                v = g.add_node()  # a node added since the warm scores start at 1
                g.add_edge(v, 0, data.draw(st.sampled_from([-1.0, 0.25, 1.0]), label="w"))
                warm.append(start)
                want.append(recompute_after(g, start, config))
            else:
                warm.append(None)
                want.append(compute_fga(g, config))
            graphs.append(g)
        got = list(compute_fga_many([g.flat() for g in graphs], warm, config))
        assert len(got) == len(want)
        for one, solo in zip(got, want):
            assert_same_scores(one, solo)

    def test_each_component_stops_on_its_own(self):
        capped = FgaConfig(max_iterations=10, residual_tolerance=1e-12)
        slow = generate_random_graph(30, avg_out_degree=3.0, seed=4)
        edgeless = Wsn()
        edgeless.add_node()
        edgeless.add_node()
        half = Wsn()
        half.add_node()
        half.add_node()
        half.add_edge(0, 1, 0.5)  # g = 0.5 after sweep 1, unchanged after sweep 2
        # the quick ones stop after a sweep or two; the union sweeps on until both slow ones stop
        graphs = [edgeless, slow] + [half, edgeless] * 20 + [Wsn(), slow]
        got = list(compute_fga_many([g.flat() for g in graphs], None, capped))
        assert [s.iterations_run for s in got] == [1, 10] + [2, 1] * 20 + [1, 10]
        assert got[1].max_residual >= capped.residual_tolerance
        assert all(s.max_residual == 0.0 for s in got[2:-1])
        for one, g in zip(got, graphs):
            assert_same_scores(one, compute_fga(g, capped))
            assert one.fairness.base is None and one.goodness.base is None  # owns its arrays

    def test_more_graphs_than_one_batch_holds(self, monkeypatch):
        from fga import engine

        graphs = [
            generate_random_graph(n, avg_out_degree=2.0, seed=n, positive_fraction=0.7)
            for n in range(2, 30)
        ]
        whole = list(compute_fga_many([g.flat() for g in graphs], None, HIGH_PRECISION))
        monkeypatch.setattr(engine, "_BATCH_ITEMS", 40)  # a few graphs per batch
        cut = list(compute_fga_many([g.flat() for g in graphs], None, HIGH_PRECISION))
        for a, b, g in zip(whole, cut, graphs):
            assert_same_scores(a, b)
            assert_same_scores(a, compute_fga(g, HIGH_PRECISION))

    def test_warm_start_validation(self):
        g = generate_random_graph(10, seed=1)
        warm = compute_fga(g)
        smaller = generate_random_graph(5, seed=1)
        with pytest.raises(ValueError, match="nodes"):
            list(compute_fga_many([smaller.flat()], [warm]))
        with pytest.raises(ValueError, match="warm starts"):
            list(compute_fga_many([g.flat(), g.flat()], [warm]))
        assert list(compute_fga_many([])) == []

    def test_reads_its_graphs_one_batch_at_a_time(self, monkeypatch):
        from fga import engine

        g = generate_random_graph(8, seed=1)
        monkeypatch.setattr(engine, "_BATCH_ITEMS", 3 * (g.node_count + g.edge_count))
        handed = 0

        def stream():
            nonlocal handed
            for _ in range(12):
                handed += 1
                yield g.flat()

        warm = compute_fga(g, DEFAULT_CONFIG)
        want = recompute_after(g, warm)
        solved = compute_fga_many(stream(), itertools.repeat(warm))
        assert handed == 0
        assert_same_scores(next(solved), want)
        assert handed <= 3 + 1  # one batch, plus the graph that did not fit in it
        rest = list(solved)
        assert handed == 12 and len(rest) == 11
        for got in rest:
            assert_same_scores(got, want)


class TestFlatEdgeViews:
    def test_update_view_matches_mutated_graph(self):
        from fga.engine import recompute_flat

        g = generate_random_graph(20, seed=44, positive_fraction=0.7)
        warm = compute_fga(g, HIGH_PRECISION)
        u, v, _ = next(iter(g.edges()))
        view = g.flat().with_rating(u, v, -0.9)
        from_view = recompute_flat(view, warm, HIGH_PRECISION)
        cold = compute_fga(rebuilt(g, [(u, v, -0.9)]), HIGH_PRECISION)
        assert np.max(np.abs(from_view.fairness - cold.fairness)) < TOL
        assert np.max(np.abs(from_view.goodness - cold.goodness)) < TOL

    def test_append_view_matches_mutated_graph(self):
        from fga.engine import recompute_flat

        g = generate_random_graph(20, seed=45, positive_fraction=0.7)
        warm = compute_fga(g, HIGH_PRECISION)
        free = next(
            (u, v)
            for u in g.nodes()
            for v in g.nodes()
            if u != v and not g.has_edge(u, v)
        )
        view = g.flat().with_rating(free[0], free[1], 0.3)
        from_view = recompute_flat(view, warm, HIGH_PRECISION)
        cold = compute_fga(rebuilt(g, [free + (0.3,)]), HIGH_PRECISION)
        assert np.max(np.abs(from_view.fairness - cold.fairness)) < TOL
        assert np.max(np.abs(from_view.goodness - cold.goodness)) < TOL

    @staticmethod
    def assert_same_flat(a, b):
        for name in ("src", "dst", "w", "key", "indeg", "outdeg"):
            have, want = getattr(a, name), getattr(b, name)
            assert have.dtype == want.dtype and np.array_equal(have, want), name

    @pytest.mark.parametrize("where", ["update", "front", "middle", "end"])
    def test_view_scores_equal_rebuilt_graph_exactly(self, where):
        from fga.engine import recompute_flat

        g = generate_random_graph(40, avg_out_degree=3.0, seed=47, positive_fraction=0.7)
        base = g.flat()
        n, m = g.node_count, g.edge_count
        if where == "update":
            u, v = int(base.src[m // 2]), int(base.dst[m // 2])
        else:
            missing = [
                (u, v) for u in g.nodes() for v in g.nodes() if u != v and not g.has_edge(u, v)
            ]
            at = np.searchsorted(base.key, [u * n + v for u, v in missing])
            wanted = {"front": at == 0, "end": at == m, "middle": (at > 0) & (at < m)}[where]
            u, v = missing[int(np.flatnonzero(wanted)[len(np.flatnonzero(wanted)) // 2])]
        warm = compute_fga(g, HIGH_PRECISION)
        view = base.with_rating(u, v, -0.4)
        reference = rebuilt(g, [(u, v, -0.4)])
        self.assert_same_flat(view, reference.flat())
        from_view = recompute_flat(view, warm, HIGH_PRECISION)
        from_graph = recompute_after(reference, warm, HIGH_PRECISION)
        assert np.array_equal(from_view.fairness, from_graph.fairness)
        assert np.array_equal(from_view.goodness, from_graph.goodness)
        assert from_view.iterations_run == from_graph.iterations_run

    def test_multi_edit_overlay_equals_sequential_rates(self):
        from fga.engine import recompute_flat

        g = generate_random_graph(40, avg_out_degree=3.0, seed=48, positive_fraction=0.7)
        base = g.flat()
        u0, v0 = int(base.src[5]), int(base.dst[5])
        free = [(u, v) for u in g.nodes() for v in g.nodes() if u != v and not g.has_edge(u, v)]
        # an update, inserts at both ends and in the middle, two inserts into
        # one gap, and an edge edited twice (the later edit wins)
        edits = [
            (u0, v0, 0.9),
            free[-1] + (-1.0,),
            free[0] + (0.25,),
            free[len(free) // 2] + (1.0,),
            free[len(free) // 2 + 1] + (-0.5,),
            free[0] + (-0.75,),
        ]
        view = base.with_ratings(edits)
        reference = rebuilt(g, edits)
        self.assert_same_flat(view, reference.flat())
        warm = compute_fga(g, HIGH_PRECISION)
        from_view = recompute_flat(view, warm, HIGH_PRECISION)
        from_graph = recompute_after(reference, warm, HIGH_PRECISION)
        assert np.array_equal(from_view.goodness, from_graph.goodness)
        assert np.array_equal(from_view.fairness, from_graph.fairness)
        assert g.flat() is base and len(base.src) == g.edge_count

    def test_overlay_rejects_invalid_edits(self):
        flat = generate_random_graph(10, seed=49).flat()
        with pytest.raises(KeyError, match="unknown node"):
            flat.with_rating(0, 10, 0.5)
        with pytest.raises(ValueError, match="self-loop"):
            flat.with_rating(3, 3, 0.5)
        with pytest.raises(ValueError, match="outside"):
            flat.with_rating(0, 1, 1.5)

    def test_view_node_count_mismatch(self):
        from fga.engine import recompute_flat

        g = generate_random_graph(10, seed=46)
        warm = compute_fga(generate_random_graph(5, seed=46))
        with pytest.raises(ValueError, match="warm scores cover"):
            recompute_flat(g.flat(), warm)


class TestPrediction:
    def test_product(self):
        g = Wsn()
        g.add_node("u")
        g.add_node("v")
        g.add_edge(0, 1, 0.4)
        s = compute_fga(g, HIGH_PRECISION)
        assert predict_weight(s, 0, 1) == pytest.approx(0.4, abs=TOL)

    def test_baseline_pair_prediction(self):
        g = Wsn()
        g.add_node("u")
        g.add_node("v")
        g.add_edge(0, 1, -0.7)
        s = compute_fga(g, HIGH_PRECISION)
        # v rates no one and u is unrated, so the reverse prediction is 1 * 1
        assert predict_weight(s, 1, 0) == pytest.approx(1.0, abs=TOL)

    def test_zero_fairness_annihilates(self):
        s = compute_fga(antisymmetric_pair(), HIGH_PRECISION)
        assert predict_weight(s, 1, 0) == pytest.approx(0.5 * 0.0, abs=TOL)

    def test_unknown_node(self):
        g = Wsn()
        g.add_node()
        s = compute_fga(g)
        with pytest.raises(KeyError):
            predict_weight(s, 0, 3)


class TestScoresExport:
    def test_csv_shape_and_precision(self):
        g = Wsn()
        g.add_node("alice")
        g.add_node("bob")
        g.add_edge(0, 1, 1 / 3)
        s = compute_fga(g, HIGH_PRECISION)
        buffer = io.StringIO()
        export_scores_csv(g, s, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "node_label,fairness,goodness"
        assert lines[1].startswith("alice,")
        goodness_text = lines[2].split(",")[2]
        assert len(goodness_text.replace(".", "").replace("-", "").lstrip("0")) >= 11
        assert float(goodness_text) == pytest.approx(1 / 3, abs=1e-11)
