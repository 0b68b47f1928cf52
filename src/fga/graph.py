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
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

NodeId = int


def node_index(node, n: int) -> int:
    """``node`` as a plain int below ``n``; any integer type but bool is accepted."""
    index = node
    if type(node) is not int:
        if isinstance(node, (bool, np.bool_)):
            raise TypeError(f"node id must be an integer, not {node!r}")
        try:
            index = operator.index(node)
        except TypeError:
            raise TypeError(f"node id must be an integer, not {node!r}") from None
    if not 0 <= index < n:
        raise KeyError(f"unknown node {node}")
    return index


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
    assigned at creation; external string labels map bijectively to ids. A
    node added without a label is named str(id), and only explicit labels
    are stored, so generated graphs and gadgets keep no label strings.

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
        self._labels: list[str | None] = []  # None: the node is named str(id)
        self._ids: dict[str, int] = {}  # explicit labels only
        self._flat: FlatEdges | None = None

    # -- nodes ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._succ))

    def add_node(self, label: str | None = None) -> int:
        """Add a node named ``label``, or str(id) when None; a name is used only once."""
        name = str(len(self._succ)) if label is None else label
        if name in self._ids or (label is not None and self._implied(label) is not None):
            raise ValueError(f"duplicate node label {name!r}")
        return self._append(label)

    def ensure_node(self, label: str) -> int:
        """Return the id for ``label``, creating the node on first sight."""
        node = self._ids.get(label)
        if node is None:
            node = self._implied(label)
            if node is None:
                return self._append(label)
        return node

    def _append(self, label: str | None) -> int:
        node = len(self._succ)
        self._flat = None
        self._succ.append({})
        self._labels.append(label)
        if label is not None:
            self._ids[label] = node
        return node

    def _implied(self, label) -> int | None:
        """The unlabelled node whose name str(id) is ``label``, if any."""
        if not (isinstance(label, str) and label.isascii() and label.isdecimal()):
            return None
        node = int(label)
        if node < len(self._labels) and self._labels[node] is None and str(node) == label:
            return node
        return None

    def has_node(self, node: int) -> bool:
        return 0 <= node < len(self._succ)

    def id_of(self, label: str) -> int:
        node = self._ids.get(label)
        if node is None:
            node = self._implied(label)
            if node is None:
                raise KeyError(f"unknown node label {label!r}")
        return node

    def label_of(self, node: int) -> str:
        node = self._check_node(node)
        label = self._labels[node]
        return str(node) if label is None else label

    def labels(self) -> list[str]:
        return [str(node) if label is None else label for node, label in enumerate(self._labels)]

    def nodes(self) -> range:
        return range(len(self._succ))

    def _check_node(self, node: int) -> int:
        if type(node) is int and 0 <= node < len(self._succ):
            return node  # the common case, without the call
        return node_index(node, len(self._succ))

    # -- edges ---------------------------------------------------------

    @staticmethod
    def _check_weight(weight: float) -> float:
        weight = float(weight)
        if not math.isfinite(weight) or weight < -1.0 or weight > 1.0:
            raise ValueError(f"weight {weight} outside [-1, 1]")
        return weight

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add the edge (u, v). Rejects duplicates; re-rating goes through update_weight."""
        u, v = self._check_node(u), self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        weight = self._check_weight(weight)
        if v in self._succ[u]:
            raise ValueError(f"edge ({u}, {v}) already present; use update_weight")
        self._flat = None
        self._succ[u][v] = weight

    def update_weight(self, u: int, v: int, weight: float) -> None:
        u, v = self._check_node(u), self._check_node(v)
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
        u, v = self._check_node(u), self._check_node(v)
        if v not in self._succ[u]:
            raise KeyError(f"edge ({u}, {v}) does not exist")
        self._flat = None
        del self._succ[u][v]

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._check_node(u), self._check_node(v)
        return v in self._succ[u]

    def weight(self, u: int, v: int) -> float:
        u, v = self._check_node(u), self._check_node(v)
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
        v = self._check_node(v)
        flat = self.flat()
        return set(flat.src[flat.dst == v].tolist())

    def succ(self, u: int) -> set[int]:
        return set(self._succ[self._check_node(u)])

    def indeg(self, v: int) -> int:
        v = self._check_node(v)
        return int(self.flat().indeg[v])

    def outdeg(self, u: int) -> int:
        return len(self._succ[self._check_node(u)])

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
        return self._succ == other._succ and self.labels() == other.labels()

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
        explicit = [(node, label) for node, label in enumerate(self._labels) if label is not None]
        if len(self._ids) != len(explicit) or any(
            self._ids.get(label) != node or self._implied(label) is not None
            for node, label in explicit
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
            array.setflags(write=False)
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

    def has_edge(self, u: int, v: int) -> bool:
        key = u * self.n + v
        at = int(self.key.searchsorted(key))
        return at < len(self.key) and bool(self.key[at] == key)

    def with_rating(self, u: int, v: int, weight: float) -> "FlatEdges":
        """View with (u, v) set to ``weight``, inserting the edge if absent."""
        return self.with_ratings(((u, v, weight),))

    def with_ratings(self, edits: Iterable[tuple[int, int, float]]) -> "FlatEdges":
        """View with every (u, v, weight) edit applied; a later edit of one edge wins."""
        n = self.n
        pending: dict[int, float] = {}
        for u, v, weight in edits:
            u, v = node_index(u, n), node_index(v, n)
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            pending[u * n + v] = Wsn._check_weight(weight)
        keys = sorted(pending)
        m = len(self.key)
        w = self.w
        inserts: list[tuple[int, int]] = []  # (position, key) of each absent edge
        for key, at in zip(keys, self.key.searchsorted(keys).tolist()):
            if at < m and self.key[at] == key:
                if w is self.w:
                    w = w.copy()
                w[at] = pending[key]
            else:
                inserts.append((at, key))
        if not inserts:
            return FlatEdges(n, self.src, self.dst, w, self.key, self.indeg, self.outdeg)
        # Splice each array in one pass: old run i moves up by i, new edge i lands after it.
        cuts = [0, *(at for at, _ in inserts), m]

        def spliced(old: np.ndarray, new: list) -> np.ndarray:
            out = np.empty(m + len(new), dtype=old.dtype)
            for i, value in enumerate(new):
                out[cuts[i] + i : cuts[i + 1] + i] = old[cuts[i] : cuts[i + 1]]
                out[cuts[i + 1] + i] = value
            out[cuts[-2] + len(new) :] = old[cuts[-2] :]
            return out

        new_key = [key for _, key in inserts]
        new_src, new_dst = zip(*(divmod(key, n) for key in new_key))
        indeg, outdeg = self.indeg.copy(), self.outdeg.copy()
        for u, v in zip(new_src, new_dst):
            outdeg[u] += 1.0
            indeg[v] += 1.0
        return FlatEdges(
            n,
            spliced(self.src, new_src),
            spliced(self.dst, new_dst),
            spliced(w, [pending[key] for key in new_key]),
            spliced(self.key, new_key),
            indeg,
            outdeg,
        )
