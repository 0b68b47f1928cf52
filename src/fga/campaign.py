"""Simulation campaigns: seeded attack grids with per-cell summary statistics."""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from . import dataio
from .attacks import (
    ATTACK_CONFIG,
    ATTACKER_CLASSES,
    MAX_EDGES,
    SCALE,
    AttackOutcome,
    InsufficientCandidatesError,
    SelectionCriteria,
    direct_attack,
    indirect_attack_greedy,
    indirect_attack_scaled,
    mixed_attack,
    select_attackers,
    select_targets,
)
from .engine import FgaScores, compute_fga
from .graph import Wsn, as_count

MODES = ("direct", "indirect", "indirect-scaled", "mixed")


def run_attack(
    mode: str, graph: Wsn, attackers, target: int, *,
    k1: int = 0, scale: int = SCALE, max_edges: int = MAX_EDGES, before: FgaScores | None = None,
) -> AttackOutcome:
    """Run the attack of one of ``MODES`` under ``ATTACK_CONFIG``.

    Only indirect-scaled reads ``scale`` and ``max_edges``. Only mixed reads ``k1``:
    k1 of ``attackers`` rate the target directly, and the rest run the greedy attack.
    """
    # the attacks are called by this module's names, which bench/tracing.py wraps
    if mode == "direct":
        return direct_attack(graph, attackers, target, before=before)
    if mode == "indirect":
        return indirect_attack_greedy(graph, attackers, target, before=before)
    if mode == "indirect-scaled":
        return indirect_attack_scaled(
            graph, attackers, target, scale=scale, max_edges=max_edges, before=before
        )
    if mode == "mixed":
        return mixed_attack(graph, attackers, target, k1, len(attackers) - k1, before=before)
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class DatasetDefaults:
    """A dataset's weak-target rule and per-cell sample counts: ``samples`` for direct and
    indirect, ``mixed_samples`` for the mixed grid; indirect-scaled runs ``scaled_samples``
    samples of one cell of ``scaled_edges`` attackers."""

    criteria: SelectionCriteria
    samples: int
    mixed_samples: int
    scaled_samples: int
    scaled_edges: int


DATASET_DEFAULTS: dict[str, DatasetDefaults] = {
    "bitcoin-otc": DatasetDefaults(
        SelectionCriteria(target_max_indeg=10, target_min_goodness=0.8),
        samples=21, mixed_samples=26, scaled_samples=20, scaled_edges=20),
    "bitcoin-alpha": DatasetDefaults(
        SelectionCriteria(target_max_indeg=13, target_min_goodness=0.5),
        samples=24, mixed_samples=12, scaled_samples=30, scaled_edges=20),
    "rfa": DatasetDefaults(
        SelectionCriteria(target_max_indeg=10, target_min_goodness=0.5),
        samples=25, mixed_samples=17, scaled_samples=27, scaled_edges=20),
}


@dataclass
class ExperimentConfig:
    """Everything needed to rerun a campaign bit-for-bit."""

    mode: str = "direct"
    k_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    k1_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    k2_values: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    samples: int = 10
    attacker_class: str = "established"
    criteria: SelectionCriteria = field(default_factory=SelectionCriteria)
    seed: int = 0
    scale: int = SCALE
    max_edges: int = MAX_EDGES
    cold: bool = False
    jobs: int = 1
    dataset: str | None = None
    generator: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.attacker_class not in ATTACKER_CLASSES:
            raise ValueError(f"unknown attacker class {self.attacker_class!r}")
        # plain ints, as config.json holds them; numpy seeds no stream from a negative seed
        for name, least in (("jobs", 1), ("samples", 1), ("scale", 1), ("max_edges", 1), ("seed", 0)):
            setattr(self, name, as_count(getattr(self, name), name, least))
        for name in ("k_values", "k1_values", "k2_values"):
            setattr(self, name, tuple(as_count(k, name) for k in getattr(self, name)))
        cells = _cells(self)
        if not cells:
            raise ValueError(f"a {self.mode} campaign needs a non-empty grid of counts >= 0")
        if len(set(cells)) < len(cells):
            raise ValueError(f"a {self.mode} campaign's grid repeats a cell")

    @staticmethod
    def for_dataset(dataset: str, mode: str = "direct", **overrides) -> "ExperimentConfig":
        """The campaign of ``DATASET_DEFAULTS[dataset]``, with ``overrides`` on top."""
        table = DATASET_DEFAULTS[dataset]
        defaults: dict[str, Any] = {
            "mode": mode,
            "samples": table.mixed_samples if mode == "mixed" else table.samples,
            "criteria": table.criteria,
            "dataset": dataset,
        }
        if mode == "indirect-scaled":
            defaults.update(k_values=(table.scaled_edges,), samples=table.scaled_samples)
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    def to_dict(self) -> dict:
        """Every field but ``jobs``, which changes no result, with tuples as lists."""
        fields = dataclasses.asdict(self)
        del fields["jobs"]
        return {name: list(v) if isinstance(v, tuple) else v for name, v in fields.items()}


@dataclass
class CampaignResult:
    config: dict
    records: list[dict]
    summaries: list[dict]
    errors: list[dict]


def _cells(config: ExperimentConfig) -> list[tuple]:
    if config.mode == "mixed":
        return [(k1, k2) for k1 in config.k1_values for k2 in config.k2_values]
    return [(k,) for k in config.k_values]


def _cell_label(cell: tuple) -> str:
    if len(cell) == 2:
        return f"k1={cell[0]},k2={cell[1]}"
    return f"k={cell[0]}"


def _run_sample(
    graph: Wsn,
    base_scores: FgaScores,
    config: ExperimentConfig,
    cell: tuple,
    cell_index: int,
    sample_index: int,
) -> dict:
    rng = np.random.default_rng([config.seed, cell_index, sample_index])
    target = select_targets(graph, base_scores, config.criteria, 1, rng)[0]
    needed = sum(cell)  # k, or k1 + k2
    attackers = select_attackers(
        graph,
        base_scores,
        config.criteria,
        needed,
        rng,
        attacker_class=config.attacker_class,
        exclude={target},
    )
    record: dict[str, Any] = {
        "cell": _cell_label(cell),
        "sample": sample_index,
        "target": graph.label_of(target),
        "attackers": [graph.label_of(a) for a in attackers],
    }
    outcome = run_attack(
        config.mode, graph, attackers, target,
        k1=cell[0], scale=config.scale, max_edges=config.max_edges, before=base_scores,
    )
    record["delta"] = outcome.delta
    if config.mode in ("indirect", "indirect-scaled"):
        record["moves"] = len(outcome.moves)
    if outcome.delta_direct is not None:
        record["delta_direct"] = outcome.delta_direct
        record["delta_indirect"] = record["delta"] - outcome.delta_direct
    if config.cold:
        # Re-measure against a from-scratch recomputation instead of the
        # warm-started scores the attack used internally.
        cold_after = compute_fga(outcome.graph_after, ATTACK_CONFIG)
        record["delta"] = float(cold_after.goodness[target] - base_scores.goodness[target])
    record["abs_delta"] = abs(record["delta"])
    return record


def run_campaign(graph: Wsn, config: ExperimentConfig) -> CampaignResult:
    """Sample targets and attackers per cell, run the attack, summarize the shifts.

    Samples run, and are reported, in order of their cells' counts. Each draws
    its random stream from (seed, cell's grid index, sample index), so serial
    and parallel execution produce identical records. Cells that cannot field
    enough qualifying nodes are reported in ``errors``, not raised.
    """
    base_scores = compute_fga(graph, ATTACK_CONFIG)
    cells = sorted(enumerate(_cells(config)), key=lambda item: item[1])
    tasks = [
        (cell, cell_index, sample_index)
        for cell_index, cell in cells
        for sample_index in range(config.samples)
    ]

    def run(task):
        cell, cell_index, sample_index = task
        try:
            return _run_sample(graph, base_scores, config, cell, cell_index, sample_index), None
        except InsufficientCandidatesError as exc:
            return None, {
                "cell": _cell_label(cell),
                "sample": sample_index,
                "reason": str(exc),
            }

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(task) for task in tasks]

    records = [record for record, _ in results if record is not None]
    errors = [error for _, error in results if error is not None]
    return CampaignResult(
        config=config.to_dict(),
        records=records,
        summaries=summarize(records),
        errors=errors,
    )


def summarize(records: list[dict]) -> list[dict]:
    """Per-cell statistics over |goodness shift|, recomputable from the records.

    Rows follow the order of the caller's records, one per cell where it first
    appears. The 95% interval half-width uses the normal approximation
    1.96 * sd / sqrt(n); with fewer than two samples it is null.
    """
    rows = []
    for cell in dict.fromkeys(r["cell"] for r in records):
        cell_records = [r for r in records if r["cell"] == cell]
        for key in ("delta", "delta_direct", "delta_indirect"):
            values = [abs(r[key]) for r in cell_records if key in r]
            if not values:
                continue
            data = np.asarray(values)
            n = len(data)
            sd = float(np.std(data, ddof=1)) if n > 1 else 0.0
            rows.append(
                {
                    "cell": cell,
                    "metric": "abs_" + key,
                    "n": n,
                    "mean": float(np.mean(data)),
                    "sd": sd if n > 1 else None,
                    "min": float(np.min(data)),
                    "max": float(np.max(data)),
                    "median": float(np.median(data)),
                    "q75": float(np.quantile(data, 0.75)),
                    "ci95_half_width": (1.96 * sd / np.sqrt(n)) if n > 1 else None,
                }
            )
    return rows


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return ";".join(str(item) for item in value)
    return str(value)


def _write_csv(rows: list[dict], path: Path) -> Path:
    columns = list(dict.fromkeys(key for row in rows for key in row))
    cells = [[_format_value(row.get(col)) for col in columns] for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        dataio.write_csv(fh, [columns, *cells])
    return path


def _write_json(payload, path: Path) -> Path:
    path.write_text(dataio.json_text(payload), encoding="utf-8")
    return path


def report(result: CampaignResult, out_dir, fmt: str = "csv") -> list[Path]:
    """Write records and summaries; reruns with the same seed are byte-identical.

    ``csv`` writes records.csv, summary.csv and config.json, and ``json`` writes every
    field of ``result`` to campaign.json.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        return [_write_json(dataclasses.asdict(result), out / "campaign.json")]
    return [
        _write_csv(result.records, out / "records.csv"),
        _write_csv(result.summaries, out / "summary.csv"),
        _write_json(result.config, out / "config.json"),
    ]
