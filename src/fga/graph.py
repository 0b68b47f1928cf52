"""Weighted signed network data model: dense-id directed graphs with weights in [-1, 1].

A ``Wsn`` holds labels, validation and the successor dicts that loaders and
generators grow edge by edge; the dicts are its only edge store. Scoring,
attacks and every in-degree or predecessor query read its ``FlatEdges``:
edge arrays in canonical order, built on first use and cached on the graph
until the next mutation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

NodeId = int


class InvariantViolationError(RuntimeError):
    """A structural invariant of the network no longer holds."""


@dataclass(frozen=True)
class RatingScale:
    """Half-width of a raw rating scale, e.g. 10.0 for integer ratings in [-10, 10]."""

    r_max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError(f"r_max must be a positive finite number, got {self.r_max}")

    def normalize(self, raw: float) -> float:
        """Map a raw rating linearly onto [-1, 1]."""
        if not math.isfinite(raw) or abs(raw) > self.r_max:
            raise ValueError(f"raw rating {raw} outside [-{self.r_max}, {self.r_max}]")
        return raw / self.r_max

    def denormalize(self, weight: float) -> float:
        return weight * self.r_max


class Wsn:
    """Directed weighted signed network.

    Every weight lies in [-1, 1], there is at most one edge per ordered pair,
    and self-loops are rejected. Node ids are dense non-negative integers
    assigned at creation; external string labels map bijectively to ids.

    The successor dicts are the only edge store. ``succ`` and ``outdeg``
    read them; ``indeg`` and ``pred`` read the cached ``FlatEdges``, so the
    first such query after a mutation flattens the graph in O(m). Fill the
    cache (``flat()`` or any solve) before threads share the graph.

    A graph handed out for reading must not be mutated concurrently; mutation
    belongs to whoever holds the only handle. ``copy()`` is cheap and the copy
    is fully independent.
    """

    __slots__ = ("_succ", "_labels", "_ids", "_flat")

    def __init__(self) -> None:
        self._succ: list[dict[int, float]] = []
        self._labels: list[str] = []
        self._ids: dict[str, int] = {}
        self._flat: FlatEdges | None = None

    # -- nodes ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._succ))

    def add_node(self, label: str | None = None) -> int:
        node = len(self._succ)
        if label is None:
            label = str(node)
        if label in self._ids:
            raise ValueError(f"duplicate node label {label!r}")
        self._flat = None
        self._succ.append({})
        self._labels.append(label)
        self._ids[label] = node
        return node

    def ensure_node(self, label: str) -> int:
        """Return the id for ``label``, creating the node on first sight."""
        existing = self._ids.get(label)
        if existing is not None:
            return existing
        return self.add_node(label)

    def has_node(self, node: int) -> bool:
        return 0 <= node < len(self._succ)

    def id_of(self, label: str) -> int:
        try:
            return self._ids[label]
        except KeyError:
            raise KeyError(f"unknown node label {label!r}") from None

    def label_of(self, node: int) -> str:
        self._check_node(node)
        return self._labels[node]

    def labels(self) -> list[str]:
        return list(self._labels)

    def nodes(self) -> range:
        return range(len(self._succ))

    def _check_node(self, node: int) -> None:
        if not (isinstance(node, int) and 0 <= node < len(self._succ)):
            raise KeyError(f"unknown node {node}")

    # -- edges ---------------------------------------------------------

    @staticmethod
    def _check_weight(weight: float) -> float:
        weight = float(weight)
        if not math.isfinite(weight) or weight < -1.0 or weight > 1.0:
            raise ValueError(f"weight {weight} outside [-1, 1]")
        return weight

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add the edge (u, v). Rejects duplicates; re-rating goes through update_weight."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        weight = self._check_weight(weight)
        if v in self._succ[u]:
            raise ValueError(f"edge ({u}, {v}) already present; use update_weight")
        self._flat = None
        self._succ[u][v] = weight

    def update_weight(self, u: int, v: int, weight: float) -> None:
        self._check_node(u)
        self._check_node(v)
        weight = self._check_weight(weight)
        if v not in self._succ[u]:
            raise KeyError(f"edge ({u}, {v}) does not exist")
        self._flat = None
        self._succ[u][v] = weight

    def rate(self, u: int, v: int, weight: float) -> str:
        """Add-or-update semantics used by loaders and attack moves.

        Returns "edge-addition" or "weight-update" describing what happened.
        """
        if self.has_edge(u, v):
            self.update_weight(u, v, weight)
            return "weight-update"
        self.add_edge(u, v, weight)
        return "edge-addition"

    def remove_edge(self, u: int, v: int) -> None:
        """Delete the edge (u, v); edge deletion is not part of the attack move model."""
        self._check_node(u)
        self._check_node(v)
        if v not in self._succ[u]:
            raise KeyError(f"edge ({u}, {v}) does not exist")
        self._flat = None
        del self._succ[u][v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._succ[u]

    def weight(self, u: int, v: int) -> float:
        self._check_node(u)
        self._check_node(v)
        try:
            return self._succ[u][v]
        except KeyError:
            raise KeyError(f"edge ({u}, {v}) does not exist") from None

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (u, v, weight) in ascending (u, v) order."""
        for u, targets in enumerate(self._succ):
            for v in sorted(targets):
                yield u, v, targets[v]

    def flat(self) -> "FlatEdges":
        """The graph's edges as canonical-order arrays, cached until the next mutation.

        Fill the cache (any solve does) before sharing the graph between
        threads; afterwards readers only read it.
        """
        if self._flat is None:
            self._flat = FlatEdges.from_graph(self)
        return self._flat

    # -- neighbourhood queries ------------------------------------------

    def pred(self, v: int) -> set[int]:
        self._check_node(v)
        flat = self.flat()
        return set(flat.src[flat.dst == v].tolist())

    def succ(self, u: int) -> set[int]:
        self._check_node(u)
        return set(self._succ[u])

    def indeg(self, v: int) -> int:
        self._check_node(v)
        return int(self.flat().indeg[v])

    def outdeg(self, u: int) -> int:
        self._check_node(u)
        return len(self._succ[u])

    # -- whole-graph operations ------------------------------------------

    def copy(self) -> "Wsn":
        dup = Wsn.__new__(Wsn)
        dup._succ = [dict(targets) for targets in self._succ]
        dup._labels = list(self._labels)
        dup._ids = dict(self._ids)
        dup._flat = self._flat  # never written, so safe to share
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wsn):
            return NotImplemented
        return self._labels == other._labels and self._succ == other._succ

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("Wsn is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Wsn(nodes={self.node_count}, edges={self.edge_count})"

    def validate(self) -> None:
        """Full-scan check of the structural invariants; raises on any violation."""
        problems: list[str] = []
        for u, targets in enumerate(self._succ):
            for v, w in targets.items():
                if u == v:
                    problems.append(f"self-loop at {u}")
                if not (math.isfinite(w) and -1.0 <= w <= 1.0):
                    problems.append(f"weight {w} on ({u}, {v}) outside [-1, 1]")
        if len(self._ids) != len(self._labels) or any(
            self._ids.get(label) != node for node, label in enumerate(self._labels)
        ):
            problems.append("label index is not a bijection")
        if problems:
            raise InvariantViolationError("; ".join(problems))


class FlatEdges:
    """Edge arrays in canonical (src, dst) order plus degree vectors.

    The one representation that the engine sweeps and the attacks edit.
    ``key`` is the sorted int64 ``src * n + dst``, which locates an edge by
    binary search. An edit never writes an existing array: ``with_ratings``
    returns a view that shares every array it does not change, copies ``w``
    for weight updates and inserts new edges at their canonical position.
    The view therefore holds exactly the arrays that flattening the edited
    graph would give, and its scores are bit-identical to the rebuilt
    graph's, because float accumulation follows the array order. All arrays
    are read-only.
    """

    __slots__ = ("n", "src", "dst", "w", "key", "indeg", "outdeg")

    def __init__(self, n, src, dst, w, key, indeg, outdeg):
        for array in (src, dst, w, key, indeg, outdeg):
            array.flags.writeable = False
        self.n = n
        self.src = src
        self.dst = dst
        self.w = w
        self.key = key
        self.indeg = indeg
        self.outdeg = outdeg

    @classmethod
    def from_graph(cls, graph: Wsn) -> "FlatEdges":
        n, succ = graph.node_count, graph._succ
        outdeg = np.fromiter(map(len, succ), dtype=np.int64, count=n)
        m = int(outdeg.sum())
        src = np.repeat(np.arange(n, dtype=np.int64), outdeg)
        key = np.fromiter(itertools.chain.from_iterable(succ), dtype=np.int64, count=m)
        key += src * n
        # src is already ascending, so the sort only orders each source's targets
        order = np.argsort(key, kind="stable")
        key = key[order]
        w = np.fromiter(
            itertools.chain.from_iterable(t.values() for t in succ), dtype=np.float64, count=m
        )[order]
        dst = key % n if n else key
        indeg = np.bincount(dst, minlength=n).astype(np.float64)
        return cls(n, src, dst, w, key, indeg, outdeg.astype(np.float64))

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insertion positions of ``keys`` and whether each edge is already present."""
        pos = np.searchsorted(self.key, keys)
        present = pos < len(self.key)
        present[present] = self.key[pos[present]] == keys[present]
        return pos, present

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._find(np.array([u * self.n + v]))[1][0])

    def with_rating(self, u: int, v: int, weight: float) -> "FlatEdges":
        """View with (u, v) set to ``weight``, inserting the edge if absent."""
        return self.with_ratings(((u, v, weight),))

    def with_ratings(self, edits: Iterable[tuple[int, int, float]]) -> "FlatEdges":
        """View with every (u, v, weight) edit applied; a later edit of one edge wins."""
        n = self.n
        pending: dict[int, float] = {}
        for u, v, weight in edits:
            for node in (u, v):
                if not 0 <= node < n:
                    raise KeyError(f"unknown node {node}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            pending[int(u) * n + int(v)] = Wsn._check_weight(weight)
        keys = np.array(sorted(pending), dtype=np.int64)
        values = np.array([pending[k] for k in keys.tolist()], dtype=np.float64)
        pos, present = self._find(keys)
        w = self.w
        if present.any():
            w = w.copy()
            w[pos[present]] = values[present]
        if present.all():
            return FlatEdges(n, self.src, self.dst, w, self.key, self.indeg, self.outdeg)
        new = ~present
        at, new_keys = pos[new], keys[new]
        new_src, new_dst = np.divmod(new_keys, n)
        return FlatEdges(
            n,
            np.insert(self.src, at, new_src),
            np.insert(self.dst, at, new_dst),
            np.insert(w, at, values[new]),
            np.insert(self.key, at, new_keys),
            self.indeg + np.bincount(new_dst, minlength=n),
            self.outdeg + np.bincount(new_src, minlength=n),
        )
