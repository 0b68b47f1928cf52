"""Simulation campaigns: seeded attack grids with per-cell summary statistics."""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .attacks import (
    ATTACK_CONFIG,
    InsufficientCandidatesError,
    SelectionCriteria,
    direct_attack,
    indirect_attack_greedy,
    indirect_attack_scaled,
    mixed_attack,
    select_attackers,
    select_targets,
)
from .engine import FgaConfig, FgaScores, compute_fga
from .graph import Wsn

MODES = ("direct", "indirect", "indirect-scaled", "mixed")

#: Per-dataset rules for picking weak targets, and how many samples / edges to use.
@dataclass(frozen=True)
class TargetSearchParams:
    max_indeg: int
    min_goodness: float
    samples: int
    edges: int


DATASET_TARGET_PARAMS: dict[str, TargetSearchParams] = {
    "bitcoin-otc": TargetSearchParams(max_indeg=10, min_goodness=0.8, samples=20, edges=20),
    "bitcoin-alpha": TargetSearchParams(max_indeg=13, min_goodness=0.5, samples=30, edges=20),
    "rfa": TargetSearchParams(max_indeg=10, min_goodness=0.5, samples=27, edges=20),
}

#: Per-k sample-count floors for the direct/indirect sweeps and the mixed grid.
DATASET_SAMPLES: dict[str, int] = {"bitcoin-otc": 21, "bitcoin-alpha": 24, "rfa": 25}
MIXED_SAMPLES: dict[str, int] = {"bitcoin-otc": 26, "bitcoin-alpha": 12, "rfa": 17}


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
    scale: int = 5
    max_edges: int = 10
    cold: bool = False
    jobs: int = 1
    dataset: str | None = None
    generator: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.samples < 0:
            raise ValueError("samples must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")

    @staticmethod
    def for_dataset(dataset: str, mode: str = "direct", **overrides) -> "ExperimentConfig":
        """Defaults replicating the per-dataset target-search parameter block."""
        params = DATASET_TARGET_PARAMS[dataset]
        samples = MIXED_SAMPLES[dataset] if mode == "mixed" else DATASET_SAMPLES[dataset]
        criteria = SelectionCriteria(
            target_max_indeg=params.max_indeg, target_min_goodness=params.min_goodness
        )
        defaults: dict[str, Any] = {
            "mode": mode,
            "samples": samples,
            "criteria": criteria,
            "dataset": dataset,
        }
        if mode == "indirect-scaled":
            # amplified attacks get the full per-dataset edge budget, and the
            # weak-target search uses its dedicated sample count
            defaults["k_values"] = (params.edges,)
            defaults["samples"] = params.samples
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


def _cell_sort_key(label: str) -> tuple:
    # numeric ordering, so k=10 sorts after k=2
    return tuple(int(part.split("=")[1]) for part in label.split(","))


def _run_sample(
    graph: Wsn,
    base_scores: FgaScores,
    config: ExperimentConfig,
    cell: tuple,
    cell_index: int,
    sample_index: int,
    attack_config: FgaConfig,
) -> dict:
    rng = np.random.default_rng([config.seed, cell_index, sample_index])
    target = select_targets(graph, base_scores, config.criteria, 1, rng)[0]
    needed = cell[0] + cell[1] if config.mode == "mixed" else cell[0]
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
    common = {"config": attack_config, "before": base_scores}
    if config.mode == "direct":
        outcome = direct_attack(graph, attackers, target, **common)
        record["delta"] = outcome.delta_goodness[target]
    elif config.mode == "indirect":
        outcome = indirect_attack_greedy(graph, attackers, target, **common)
        record["delta"] = outcome.delta_goodness[target]
        record["moves"] = len(outcome.moves)
    elif config.mode == "indirect-scaled":
        outcome = indirect_attack_scaled(
            graph, attackers, target, scale=config.scale, max_edges=config.max_edges, **common
        )
        record["delta"] = outcome.delta_goodness[target]
        record["moves"] = len(outcome.moves)
    else:
        outcome = mixed_attack(graph, attackers, target, cell[0], cell[1], **common)
        record["delta"] = outcome.delta_total
        record["delta_direct"] = outcome.delta_direct
        record["delta_indirect"] = outcome.delta_indirect
    if config.cold:
        # Re-measure against a from-scratch recomputation instead of the
        # warm-started scores the attack used internally.
        cold_after = compute_fga(outcome.graph_after, attack_config)
        record["delta"] = float(cold_after.goodness[target] - base_scores.goodness[target])
    record["abs_delta"] = abs(record["delta"])
    return record


def run_campaign(graph: Wsn, config: ExperimentConfig) -> CampaignResult:
    """Sample targets and attackers per cell, run the attack, summarize the shifts.

    Every sample draws its random stream from (seed, cell, sample index), so
    serial and parallel execution produce identical records. Cells that cannot
    field enough qualifying nodes are reported in ``errors``, not raised.
    """
    attack_config = ATTACK_CONFIG
    base_scores = compute_fga(graph, attack_config)
    cells = _cells(config)
    tasks = [
        (cell, cell_index, sample_index)
        for cell_index, cell in enumerate(cells)
        for sample_index in range(config.samples)
    ]

    def run(task):
        cell, cell_index, sample_index = task
        try:
            return _run_sample(
                graph, base_scores, config, cell, cell_index, sample_index, attack_config
            ), None
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
    records.sort(key=lambda r: (_cell_sort_key(r["cell"]), r["sample"]))
    errors.sort(key=lambda e: (_cell_sort_key(e["cell"]), e["sample"]))
    return CampaignResult(
        config=config.to_dict(),
        records=records,
        summaries=summarize(records),
        errors=errors,
    )


_SUMMARY_METRICS = {
    "abs_delta": lambda r: abs(r["delta"]),
    "abs_delta_direct": lambda r: abs(r["delta_direct"]) if "delta_direct" in r else None,
    "abs_delta_indirect": lambda r: abs(r["delta_indirect"]) if "delta_indirect" in r else None,
}


def summarize(records: list[dict]) -> list[dict]:
    """Per-cell statistics over |goodness shift|, recomputable from the records.

    The 95% interval half-width uses the normal approximation
    1.96 * sd / sqrt(n); with fewer than two samples it is null.
    """
    cells = sorted({r["cell"] for r in records}, key=_cell_sort_key)
    rows = []
    for cell in cells:
        cell_records = [r for r in records if r["cell"] == cell]
        for metric, extract in _SUMMARY_METRICS.items():
            values = [extract(r) for r in cell_records]
            values = [v for v in values if v is not None]
            if not values:
                continue
            data = np.asarray(values)
            n = len(data)
            sd = float(np.std(data, ddof=1)) if n > 1 else 0.0
            rows.append(
                {
                    "cell": cell,
                    "metric": metric,
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


def _write_csv(rows: list[dict], path: Path) -> None:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_value(row.get(col)) for col in columns) + "\n")


def report(result: CampaignResult, out_dir, fmt: str = "csv") -> list[Path]:
    """Write records and summaries; reruns with the same seed are byte-identical."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt == "json":
        payload = {
            "config": result.config,
            "records": result.records,
            "summaries": result.summaries,
            "errors": result.errors,
        }
        path = out / "campaign.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
    else:
        records_path = out / "records.csv"
        summary_path = out / "summary.csv"
        _write_csv(result.records, records_path)
        _write_csv(result.summaries, summary_path)
        meta_path = out / "config.json"
        meta_path.write_text(
            json.dumps(result.config, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        written.extend([records_path, summary_path, meta_path])
    return written
