"""Rating-CSV ingestion, graph export, and dataset statistics."""

from __future__ import annotations

import csv
import dataclasses
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .engine import FgaScores
from .graph import RatingScale, Wsn

#: Environment variable pointing at a directory with the public rating dumps.
DATA_DIR_ENV = "FGA_DATA_DIR"

#: filename and raw-scale half-width for each known dataset.
DATASETS: dict[str, tuple[str, float]] = {
    "bitcoin-otc": ("soc-sign-bitcoinotc.csv", 10.0),
    "bitcoin-alpha": ("soc-sign-bitcoinalpha.csv", 10.0),
    "rfa": ("rfa-net.csv", 1.0),
}


class DatasetMissingError(FileNotFoundError):
    """A known dataset file is absent from the data directory."""


def load_rating_csv(path, scale: RatingScale) -> Wsn:
    """Load ``source,target,rating[,timestamp]`` rows into a normalized graph.

    A header row is auto-detected. Duplicate (source, target) rows collapse to
    the chronologically last rating, falling back to file order when
    timestamps are missing or tied; a re-rating is a weight update, never a
    second edge. Node ids follow first appearance in the file.
    """
    ids: dict[str, int] = {}
    # (timestamp, line_no) orders duplicates; raw ratings are normalized late
    # so an out-of-scale row still reports its line number.
    latest: dict[tuple[int, int], tuple[tuple[float, int], float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) not in (3, 4):
                raise ValueError(f"{path}: line {line_no}: expected 3 or 4 columns, got {len(row)}")
            source_label, target_label = row[0].strip(), row[1].strip()
            try:
                raw = float(row[2])
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise ValueError(f"{path}: line {line_no}: rating {row[2]!r} is not a number") from None
            timestamp = 0.0
            if len(row) == 4 and row[3].strip():
                try:
                    timestamp = float(row[3])
                except ValueError:
                    raise ValueError(
                        f"{path}: line {line_no}: timestamp {row[3]!r} is not a number"
                    ) from None
            if not math.isfinite(timestamp):
                raise ValueError(f"{path}: line {line_no}: timestamp {row[3]!r} is not finite")
            if source_label == target_label:
                raise ValueError(f"{path}: line {line_no}: self-rating {source_label!r}")
            if not abs(raw) <= scale.r_max:  # also rejects nan
                raise ValueError(
                    f"{path}: line {line_no}: rating {raw} outside [-{scale.r_max}, {scale.r_max}]"
                )
            key = (ids.setdefault(source_label, len(ids)), ids.setdefault(target_label, len(ids)))
            stamp = (timestamp, line_no)
            if key not in latest or stamp >= latest[key][0]:
                latest[key] = (stamp, raw)
    return Wsn.from_arrays(
        len(ids),
        [u for u, _ in latest],
        [v for _, v in latest],
        [scale.normalize(raw) for _, raw in latest.values()],
        labels=list(ids),
    )


def export_rating_csv(graph: Wsn, path, scale: RatingScale) -> None:
    """Headerless ``source,target,rating`` rows; raw ratings keep 12 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for u, v, w in graph.edges():
            fh.write(f"{graph.label_of(u)},{graph.label_of(v)},{scale.denormalize(w):.12g}\n")


def data_dir(explicit: str | os.PathLike | None = None) -> Path | None:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(DATA_DIR_ENV)
    return Path(env) if env else None


def dataset_path(name: str, directory: str | os.PathLike | None = None) -> Path:
    if name not in DATASETS:
        raise ValueError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    base = data_dir(directory)
    if base is None:
        raise DatasetMissingError(
            f"no data directory; set {DATA_DIR_ENV} or pass --data-dir to locate {name}"
        )
    path = base / DATASETS[name][0]
    if not path.exists():
        raise DatasetMissingError(f"dataset file {path} not found")
    return path


def dataset_scale(name: str) -> RatingScale:
    return RatingScale(DATASETS[name][1])


def load_dataset(name: str, directory: str | os.PathLike | None = None) -> Wsn:
    return load_rating_csv(dataset_path(name, directory), dataset_scale(name))


@dataclass
class DatasetStats:
    """Headline numbers for a loaded network and its converged scores.

    ``small_indegree_fraction`` is the fraction of nodes with indeg < 10.
    Fractions on an empty graph are defined as 0.
    """

    node_count: int
    edge_count: int
    positive_edge_fraction: float
    small_indegree_fraction: float
    fairness_ge: dict[float, float]
    goodness_ge: dict[float, float]
    goodness_le: dict[float, float]

    def to_dict(self) -> dict:
        """Every field, with the threshold keys of the fraction maps as strings."""
        fields = dataclasses.asdict(self)
        return {name: {str(t): v for t, v in value.items()} if isinstance(value, dict) else value
                for name, value in fields.items()}


def compute_stats(
    graph: Wsn,
    scores: FgaScores,
    fairness_thresholds: tuple[float, ...] = (0.95, 0.7),
    goodness_ge_thresholds: tuple[float, ...] = (0.0, 0.5),
    goodness_le_thresholds: tuple[float, ...] = (-0.3,),
    small_indegree_cutoff: int = 10,
) -> DatasetStats:
    if scores.node_count != graph.node_count:
        raise ValueError("scores do not match graph")
    n = graph.node_count
    m = graph.edge_count
    flat = graph.flat()
    positive = int((flat.w > 0).sum())
    small = int((flat.indeg < small_indegree_cutoff).sum())

    def node_fraction(count: int) -> float:
        return count / n if n else 0.0

    return DatasetStats(
        node_count=n,
        edge_count=m,
        positive_edge_fraction=positive / m if m else 0.0,
        small_indegree_fraction=node_fraction(small),
        fairness_ge={
            t: node_fraction(int((scores.fairness >= t).sum())) for t in fairness_thresholds
        },
        goodness_ge={
            t: node_fraction(int((scores.goodness >= t).sum())) for t in goodness_ge_thresholds
        },
        goodness_le={
            t: node_fraction(int((scores.goodness <= t).sum())) for t in goodness_le_thresholds
        },
    )
