"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own work: it runs before or outside every
timed phase, and the same seed always gives the same inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fga import attacks, engine, generators

#: bitcoin-otc size (SNAP: 5,881 nodes, 35,592 edges, about 89% positive).
OTC_NODES = 6000
OTC_OUT_DEGREE = 6.0
OTC_POSITIVE = 0.89
#: Raw rating scale of the dumps: integers in [-10, 10], never 0.
OTC_R_MAX = 10.0
#: Share of edges that get an earlier rating which a later row supersedes.
RERATING_SHARE = 0.02
#: Timestamps start where the bitcoin-otc dump starts (Nov 2010).
FIRST_TIMESTAMP = 1289241911


@dataclass(frozen=True)
class CsvInput:
    """A written rating CSV plus what loading it must give back."""

    path: Path
    rows: int
    rerating_rows: int
    bytes: int
    edges: int
    #: Sum of the final raw integer ratings, one per edge.
    rating_sum: int

    def to_dict(self) -> dict:
        return {
            "path": str(self.path),
            "rows": self.rows,
            "rerating_rows": self.rerating_rows,
            "bytes": self.bytes,
            "edges": self.edges,
            "rating_sum": self.rating_sum,
        }


def _raw_rating(weight: float) -> int:
    magnitude = max(1, min(10, int(round(abs(weight) * OTC_R_MAX))))
    return magnitude if weight > 0 else -magnitude


def write_otc_csv(path: Path, seed: int) -> CsvInput:
    """Write a bitcoin-otc-shaped ``source,target,rating,timestamp`` CSV.

    The graph is ``generators.generate_random_graph`` at otc size. Rows come
    in timestamp order, as in the dumps. A few edges are rated twice: the
    earlier row carries another rating and is superseded by the later one,
    so loading exercises the dedup path.
    """
    graph = generators.generate_random_graph(
        OTC_NODES, avg_out_degree=OTC_OUT_DEGREE, seed=seed, positive_fraction=OTC_POSITIVE
    )
    rng = np.random.default_rng([seed, 0xC5F])
    edges = [(u, v, _raw_rating(w)) for u, v, w in graph.edges()]
    rows: list[tuple[int, int, int]] = []  # (source, target, rating)
    superseded: list[int] = []  # row index of each rating a later row replaces
    for u, v, rating in edges:
        if rng.random() < RERATING_SHARE:
            earlier = int(rng.integers(1, 11)) * (1 if rng.random() < 0.5 else -1)
            if earlier == rating:
                earlier = -rating
            superseded.append(len(rows))
            rows.append((u, v, earlier))
        rows.append((u, v, rating))
    # Shuffle into chronological order, keeping each superseded rating
    # before the row that replaces it.
    keys = rng.permutation(len(rows))
    for i in superseded:
        if keys[i] > keys[i + 1]:
            keys[i], keys[i + 1] = keys[i + 1], keys[i]
    rows = [rows[i] for i in np.argsort(keys)]
    gaps = rng.integers(1, 600, size=len(rows))
    stamps = FIRST_TIMESTAMP + np.cumsum(gaps)
    lines = ["source,target,rating,timestamp\n"]
    lines.extend(
        f"{u + 1},{v + 1},{rating},{int(stamp)}\n" for (u, v, rating), stamp in zip(rows, stamps)
    )
    text = "".join(lines)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return CsvInput(
        path=path,
        rows=len(rows),
        rerating_rows=len(rows) - len(edges),
        bytes=len(text.encode("utf-8")),
        edges=len(edges),
        rating_sum=sum(rating for _, _, rating in edges),
    )


def loaded_rating_sum(graph) -> int:
    """Sum of raw integer ratings of a graph loaded from an otc CSV."""
    return sum(int(round(w * OTC_R_MAX)) for _, _, w in graph.edges())


# -- tiny-suite inputs ----------------------------------------------------------

#: (node count, attacker budget) of the oracle instances in one round. The
#: shapes are fixed so every round does the same amount of enumeration;
#: the seed picks the graphs, targets and attackers.
ORACLE_SHAPES = ((6, 2), (8, 2), (12, 1), (9, 1))


@dataclass(frozen=True)
class OracleInstance:
    graph: object
    target: int
    attackers: tuple[int, ...]
    budget: int


def oracle_instances(seed: int, round_index: int) -> list[OracleInstance]:
    """Tiny instances in the style of acceptance criterion 8."""
    rng = np.random.default_rng([seed, round_index, 8])
    instances = []
    for n, budget in ORACLE_SHAPES:
        while True:
            graph = generators.generate_random_graph(
                n, avg_out_degree=2.0, seed=int(rng.integers(0, 2**31)), positive_fraction=0.8
            )
            scores = engine.compute_fga(graph, attacks.ATTACK_CONFIG)
            targets = [v for v in graph.nodes() if graph.indeg(v) >= 1 and scores.goodness[v] > 0]
            if targets:
                break
        target = int(targets[rng.integers(0, len(targets))])
        pool = [v for v in graph.nodes() if v != target]
        attackers = tuple(int(pool[i]) for i in rng.choice(len(pool), size=budget, replace=False))
        instances.append(OracleInstance(graph, target, attackers, budget))
    return instances


def min_k_graph(seed: int, round_index: int, n: int = 30, k: int = 3):
    """Seeded minimum-k-neighbour graph for the indirect fake-rater bound."""
    return generators.generate_min_k_neighbour(n, k, seed=seed * 1009 + round_index)
