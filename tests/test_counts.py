"""Every count the library takes goes through ``graph.as_count``: any integer type but bool,
stored as a plain int, and anything else a ``ValueError`` naming the count before work starts."""

import json
import re

import numpy as np
import pytest

from fga import attacks, axioms, bounds, campaign
from fga.attacks import AttackProblem, SelectionCriteria, indirect_attack_scaled, mixed_attack
from fga.attacks import select_attackers, select_targets, solve_exhaustive
from fga.axioms import run_axiom_suite
from fga.bounds import check_min_k_neighbour, stabiliser_lower_bound
from fga.bounds import verify_direct_sybil, verify_indirect_sybil
from fga.campaign import ExperimentConfig, report, run_campaign
from fga.engine import FgaConfig, FgaScores
from fga.gadgets import goodness_star, stabilised_star
from fga.generators import generate_complete_positive, generate_min_k_neighbour
from fga.generators import generate_random_graph
from fga.graph import as_count, node_index

GRAPH = generate_random_graph(20, seed=2)
MIN_K = generate_min_k_neighbour(12, 3, seed=1)
#: Scores and a rule under which every rated node is a target and every rater an attacker;
#: building them solves nothing.
SCORES = FgaScores(np.ones(20), np.ones(20), 0, 0.0)
CRITERIA = SelectionCriteria(established_min_outdeg=0)


def _problem(budget):
    return AttackProblem(
        graph=GRAPH, attackers=(1,), intermediaries=(2,), budget=budget, threshold=0.0,
        targets=(0,),
    )


#: The entry points that take a seed: numpy seeds no stream from a negative one.
SEEDS = {
    "run_axiom_suite.seed": ("seed", 0, lambda v, rng: run_axiom_suite(samples=1, seed=v)),
    "verify_direct_sybil.seed": ("seed", 0, lambda v, rng: verify_direct_sybil(GRAPH, 1, v)),
    "verify_indirect_sybil.seed": (
        "seed", 0, lambda v, rng: verify_indirect_sybil(MIN_K, 3, 1, v)),
    "generate_min_k_neighbour.seed": (
        "seed", 0, lambda v, rng: generate_min_k_neighbour(5, 2, seed=v)),
    "generate_random_graph.seed": ("seed", 0, lambda v, rng: generate_random_graph(10, seed=v)),
}

#: (count's name, a valid value, a call of an entry point with the count and a random stream)
ENTRY_POINTS = {
    "FgaConfig.max_iterations": ("max_iterations", 3, lambda v, rng: FgaConfig(max_iterations=v)),
    "ExperimentConfig.jobs": ("jobs", 1, lambda v, rng: ExperimentConfig(jobs=v)),
    "ExperimentConfig.samples": ("samples", 1, lambda v, rng: ExperimentConfig(samples=v)),
    "ExperimentConfig.scale": (
        "scale", 1, lambda v, rng: ExperimentConfig(mode="indirect-scaled", scale=v)),
    "ExperimentConfig.max_edges": ("max_edges", 1, lambda v, rng: ExperimentConfig(max_edges=v)),
    "ExperimentConfig.seed": ("seed", 0, lambda v, rng: ExperimentConfig(seed=v)),
    "ExperimentConfig.k_values": ("k_values", 1, lambda v, rng: ExperimentConfig(k_values=(0, v))),
    "ExperimentConfig.k1_values": (
        "k1_values", 1, lambda v, rng: ExperimentConfig(mode="mixed", k1_values=(v,))),
    "ExperimentConfig.k2_values": (
        "k2_values", 1, lambda v, rng: ExperimentConfig(mode="mixed", k2_values=(v,))),
    "AttackProblem.budget": ("budget", 1, lambda v, rng: solve_exhaustive(_problem(v))),
    "indirect_attack_scaled.scale": (
        "scale", 1, lambda v, rng: indirect_attack_scaled(GRAPH, [1, 2], 0, scale=v)),
    "indirect_attack_scaled.max_edges": (
        "max_edges", 1, lambda v, rng: indirect_attack_scaled(GRAPH, [1, 2], 0, max_edges=v)),
    "mixed_attack.k1": ("k1", 1, lambda v, rng: mixed_attack(GRAPH, [1, 2], 0, k1=v, k2=1)),
    "mixed_attack.k2": ("k2", 1, lambda v, rng: mixed_attack(GRAPH, [1, 2], 0, k1=1, k2=v)),
    "select_targets": (
        "count", 1, lambda v, rng: select_targets(GRAPH, SCORES, CRITERIA, v, rng)),
    "select_attackers": (
        "count", 1, lambda v, rng: select_attackers(GRAPH, SCORES, CRITERIA, v, rng)),
    "run_axiom_suite": ("samples", 1, lambda v, rng: run_axiom_suite(samples=v)),
    "check_min_k_neighbour": ("k", 3, lambda v, rng: check_min_k_neighbour(MIN_K, v)),
    "stabiliser_lower_bound.k": ("k", 1, lambda v, rng: stabiliser_lower_bound(v, 1, 0.5)),
    "stabiliser_lower_bound.l": ("l", 1, lambda v, rng: stabiliser_lower_bound(1, v, 0.5)),
    "verify_direct_sybil": ("trials", 1, lambda v, rng: verify_direct_sybil(GRAPH, trials=v)),
    "verify_indirect_sybil": (
        "trials", 1, lambda v, rng: verify_indirect_sybil(MIN_K, 3, trials=v)),
    "goodness_star": (
        "group size", 1, lambda v, rng: goodness_star([(1, 0.5, 0.5), (v, 0.5, 0.5)])),
    "stabilised_star.k": ("k", 1, lambda v, rng: stabilised_star(v, 1)),
    "stabilised_star.l": ("l", 1, lambda v, rng: stabilised_star(1, v)),
    "generate_min_k_neighbour.n": ("n", 5, lambda v, rng: generate_min_k_neighbour(v, 2)),
    "generate_min_k_neighbour.k": ("k", 2, lambda v, rng: generate_min_k_neighbour(5, v)),
    "generate_complete_positive": ("n", 3, lambda v, rng: generate_complete_positive(v)),
    "generate_random_graph": ("n", 10, lambda v, rng: generate_random_graph(v)),
    "SelectionCriteria.target_max_indeg": (
        "target_max_indeg", 10, lambda v, rng: SelectionCriteria(target_max_indeg=v)),
    "SelectionCriteria.established_min_outdeg": (
        "established_min_outdeg", 0, lambda v, rng: SelectionCriteria(established_min_outdeg=v)),
    "SelectionCriteria.fresh_max_indeg": (
        "fresh_max_indeg", 10, lambda v, rng: SelectionCriteria(fresh_max_indeg=v)),
    **SEEDS,
}


#: The solves and the thread pool that the entry points start their work with.
WORK = [
    (attacks, "compute_fga"), (attacks, "_solve_overlays"), (axioms, "_solve_edge_blocks"),
    (bounds, "compute_fga"), (bounds, "_solve_overlays"), (bounds, "_solve_edge_blocks"),
    (campaign, "compute_fga"), (campaign, "ThreadPoolExecutor"),
]


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the counts were checked")


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError("a sample was drawn before the counts were checked")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [2.5, True, np.float64(2.0)], ids=["float", "bool", "np.float64"])
def test_a_non_integer_count_fails_where_it_enters(entry, value, monkeypatch):
    # before a solve, a sample, a thread or a file: each raised numpy's or range's TypeError
    # mid-run, or ran with a wrong label, or (a bool) ran as 1
    for module, work in WORK:
        monkeypatch.setattr(module, work, _refuse)
    name, _, call = ENTRY_POINTS[entry]
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value, _NoDraws())


@pytest.mark.parametrize("entry", SEEDS)
def test_a_negative_seed_fails_where_it_enters(entry, monkeypatch):
    # numpy's "expected non-negative integer" named no parameter
    for module, work in WORK:
        monkeypatch.setattr(module, work, _refuse)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        SEEDS[entry][2](-1, _NoDraws())


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_numpy_integer_count_is_accepted(entry):
    _, valid, call = ENTRY_POINTS[entry]
    call(np.int64(valid), np.random.default_rng(0))


def test_configs_and_problems_store_plain_ints():
    config = ExperimentConfig(
        mode="mixed", k1_values=tuple(np.arange(0, 2)), k2_values=(np.int32(1),),
        samples=np.int64(2), seed=np.uint8(3), jobs=np.int64(2), scale=np.int16(2),
        max_edges=np.int64(4),
    )
    for name in ("k_values", "k1_values", "k2_values"):
        assert all(type(k) is int for k in getattr(config, name))
    for name in ("samples", "seed", "jobs", "scale", "max_edges"):
        assert type(getattr(config, name)) is int
    assert config.k1_values == (0, 1)
    assert type(_problem(np.int64(1)).budget) is int
    assert type(FgaConfig(max_iterations=np.int64(3)).max_iterations) is int


def test_numpy_integer_campaign_writes_every_report_file(tmp_path):
    # config.json was the last file written, and json cannot encode an np.int64
    g = generate_random_graph(70, avg_out_degree=5.0, seed=30, positive_fraction=0.95)
    numpy_config = ExperimentConfig(k_values=tuple(np.arange(1, 3)), samples=np.int64(2))
    written = report(run_campaign(g, numpy_config), tmp_path / "numpy")
    plain = report(run_campaign(g, ExperimentConfig(k_values=(1, 2), samples=2)), tmp_path / "int")
    assert [path.name for path in written] == ["records.csv", "summary.csv", "config.json"]
    assert [path.read_bytes() for path in written] == [path.read_bytes() for path in plain]
    assert json.loads(written[2].read_text())["samples"] == 2


@pytest.mark.parametrize("value, least, message", [
    (-1, 0, "seed must be >= 0, got -1"),
    (np.int64(0), 1, "seed must be >= 1, got 0"),
    (True, 0, "seed must be an integer, got True"),
    ("3", 0, "seed must be an integer, got '3'"),
    (None, 0, "seed must be an integer, got None"),
])
def test_as_count_messages(value, least, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        as_count(value, "seed", least)


def test_as_count_and_node_index_accept_the_same_types():
    for value in (3, np.int8(3), np.uint64(3), np.int64(3)):
        assert type(as_count(value, "n")) is int and as_count(value, "n") == 3
        assert type(node_index(value, 4)) is int and node_index(value, 4) == 3
    for value in (3.0, True, np.bool_(True), np.float32(3.0), "3"):
        with pytest.raises(ValueError):
            as_count(value, "n")
        with pytest.raises(TypeError):
            node_index(value, 4)
