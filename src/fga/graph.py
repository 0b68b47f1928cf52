"""Weighted signed network data model: dense-id directed graphs with weights in [-1, 1].

A ``Wsn`` is its node labels plus one read-only ``FlatEdges``, its only edge
store. Loaders, generators and gadgets build that store in one ``from_arrays``
call, and every edit replaces it with an overlay. It holds no edge key:
``FlatEdges.locate`` finds an edge by binary search in the sorted arrays.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

NodeId = int

KIND_ADD = "edge-addition"  # the two kinds of move ``Wsn.rate`` makes
KIND_UPDATE = "weight-update"


def _integer(value) -> int | None:
    """``value`` as a plain int if it has an integer type other than bool, else None."""
    try:
        return None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        return None


def node_index(node, n: int) -> int:
    """``node`` as a plain int below ``n``; any integer type but bool is accepted."""
    index = node if type(node) is int else _integer(node)
    if index is None:
        raise TypeError(f"node id must be an integer, not {node!r}")
    if not 0 <= index < n:
        raise KeyError(f"unknown node {node}")
    return index


def as_count(value, name: str, least: int = 0) -> int:
    """``value``, a count the library takes, as a plain int >= ``least``, or a ``ValueError``
    naming it; any integer type but bool is accepted, so a numpy integer becomes an int."""
    count = value if type(value) is int else _integer(value)
    if count is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def _check_edge(u, v, weight, n: int) -> tuple[int, int, float]:
    """(u, v, weight) checked as ``Wsn.add_edge`` checks a new edge, except for duplicates."""
    u, v = node_index(u, n), node_index(v, n)
    if u == v:
        raise ValueError(f"self-loop ({u}, {v}) not allowed")
    weight = float(weight)
    if not math.isfinite(weight) or weight < -1.0 or weight > 1.0:
        raise ValueError(f"weight {weight} outside [-1, 1]")
    return u, v, weight


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


class Wsn:
    """Directed weighted signed network.

    Every weight lies in [-1, 1], there is at most one edge per ordered pair,
    and self-loops are rejected. Node ids are dense non-negative integers
    assigned at creation, and the edge store holds the node count; external
    string labels map bijectively to ids. A node added without a label is
    named str(id). Names are stored only once some node has an explicit
    label, and then every node's is, so generated graphs and gadgets keep no
    label strings.

    The edges live in one read-only ``FlatEdges``, returned by ``flat()``.
    Every query reads it. Every edit (``add_node``, ``add_edge``, ``rate``)
    replaces it with an overlay, so a ``FlatEdges`` handed out earlier, to a
    solve, an attack or another thread, still describes the graph as it
    was. An edit costs O(m); build a graph of many edges in one call with
    ``from_arrays``.

    ``add_node`` replaces the labels too, so ``copy()`` shares them and the
    store, and the copy is fully independent. Do not edit a graph while
    another thread reads it.
    """

    __slots__ = ("_labels", "_ids", "_edges")

    def __init__(self) -> None:
        self._labels: list[str] | None = None  # every node's name, once one is explicit
        self._ids: dict[str, int] | None = None
        self._edges = _NO_EDGES

    @classmethod
    def from_arrays(cls, n: int, src, dst, w, labels=None) -> "Wsn":
        """An n-node graph with edges (src[i], dst[i], w[i]), checked as ``add_edge`` checks.

        ``labels``, if given, holds a distinct name for every node; otherwise
        node i is named str(i).
        """
        graph = cls()
        graph._edges = FlatEdges.from_arrays(n, src, dst, w)
        if labels is not None:
            graph._labels = list(labels)
            graph._ids = {label: node for node, label in enumerate(graph._labels)}
            if not len(graph._labels) == len(graph._ids) == n:
                raise ValueError(f"labels must name the {n} nodes, each with its own name")
        return graph

    # -- nodes ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._edges.n

    @property
    def edge_count(self) -> int:
        return len(self._edges.src)

    def add_node(self, label: str | None = None) -> int:
        """Add a node named ``label``, or str(id) when None; a name is used only once."""
        node = self._edges.n
        name = str(node) if label is None else label
        labels, ids = self._labels, self._ids
        if labels is None and label is not None:  # the first explicit name: store them all
            labels = [str(other) for other in range(node)]
            ids = dict(zip(labels, range(node)))
        if ids is not None and name in ids:
            raise ValueError(f"duplicate node label {name!r}")
        self._edges = self._edges.with_node()
        if labels is not None:
            self._labels, self._ids = [*labels, name], {**ids, name: node}
        return node

    def id_of(self, label: str) -> int:
        if self._ids is not None:
            node = self._ids.get(label, -1)
        else:  # node i is named str(i), a canonical ASCII decimal no longer than str(n)
            short = isinstance(label, str) and len(label) <= len(str(self._edges.n))
            decimal = short and label.isascii() and label.isdecimal()
            node = int(label) if decimal and str(int(label)) == label else -1
        if not 0 <= node < self._edges.n:
            raise KeyError(f"unknown node label {label!r}")
        return node

    def label_of(self, node: int) -> str:
        node = node_index(node, self._edges.n)
        return str(node) if self._labels is None else self._labels[node]

    def labels(self) -> list[str]:
        return [str(node) for node in self.nodes()] if self._labels is None else list(self._labels)

    def nodes(self) -> range:
        return range(self._edges.n)

    # -- edges ---------------------------------------------------------

    def add_edge(self, u: int, v: int, weight: float) -> None:
        """Add the edge (u, v). Rejects duplicates; re-rating goes through ``rate``."""
        u, v, weight = _check_edge(u, v, weight, self._edges.n)
        if self._edges.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present; use rate")
        self._edges = self._edges.with_rating(u, v, weight)

    def rate(self, u: int, v: int, weight: float) -> str:
        """Add or update the edge (u, v); returns ``KIND_ADD`` or ``KIND_UPDATE``."""
        kind = KIND_UPDATE if self.has_edge(u, v) else KIND_ADD
        self._edges = self._edges.with_rating(u, v, weight)  # checks the edge as add_edge does
        return kind

    def has_edge(self, u: int, v: int) -> bool:
        return self._edges.has_edge(node_index(u, self._edges.n), node_index(v, self._edges.n))

    def weight(self, u: int, v: int) -> float:
        u, v = node_index(u, self._edges.n), node_index(v, self._edges.n)
        at, present = self._edges.locate(u, v)
        if not present:
            raise KeyError(f"edge ({u}, {v}) does not exist")
        return float(self._edges.w[at])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield (u, v, weight) in ascending (u, v) order."""
        flat = self._edges
        return zip(flat.src.tolist(), flat.dst.tolist(), flat.w.tolist())

    def flat(self) -> "FlatEdges":
        """The graph's edge store: canonical-order arrays, read-only, replaced by every edit."""
        return self._edges

    def indeg(self, v: int) -> int:
        return int(self._edges.indeg[node_index(v, self._edges.n)])

    # -- whole-graph operations ------------------------------------------

    def copy(self) -> "Wsn":
        return self.with_edges(self._edges)

    def with_edges(self, flat: "FlatEdges") -> "Wsn":
        """A copy whose edge store is ``flat``, an overlay over the same nodes; labels are shared."""
        dup = Wsn.__new__(Wsn)
        dup._labels, dup._ids, dup._edges = self._labels, self._ids, flat
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Wsn):
            return NotImplemented
        mine, theirs = self._edges, other._edges
        return (
            self.labels() == other.labels()
            and np.array_equal(mine.src, theirs.src)
            and np.array_equal(mine.dst, theirs.dst)
            and np.array_equal(mine.w, theirs.w)
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("Wsn is mutable and unhashable")

    def __repr__(self) -> str:
        return f"Wsn(nodes={self.node_count}, edges={self.edge_count})"

    def validate(self) -> None:
        """Full-scan check of the structural invariants; raises on any violation."""
        flat = self._edges
        problems: list[str] = []
        problems += [f"self-loop at {u}" for u in flat.src[flat.src == flat.dst].tolist()]
        bad = ~((flat.w >= -1.0) & (flat.w <= 1.0))  # nan fails both
        problems += [
            f"weight {w} on ({u}, {v}) outside [-1, 1]"
            for u, v, w in zip(flat.src[bad].tolist(), flat.dst[bad].tolist(), flat.w[bad].tolist())
        ]
        if self._labels is not None:
            names, ids = self._labels, self._ids
            if len(names) != flat.n:
                problems.append(f"{len(names)} names for the edge store's {flat.n} nodes")
            if len(ids) != len(names) or ids != {name: node for node, name in enumerate(names)}:
                problems.append("label index is not a bijection")
        if problems:
            raise InvariantViolationError("; ".join(problems))


class FlatEdges:
    """Edge arrays in canonical (src, dst) order plus degree vectors.

    The one edge store: a ``Wsn`` holds one, the engine sweeps it and the
    attacks edit it. It keeps no edge key: u's out-edges are the ``outdeg[u]``
    positions from ``src.searchsorted(u)``, sorted by ``dst``, and ``locate``
    searches both. ``from_arrays`` builds one from edges in any order. An
    edit never writes an existing array: ``with_ratings`` returns an overlay
    that shares every array it does not change, copies ``w`` for weight
    updates and inserts new edges at their canonical position, and
    ``with_node`` adds an isolated node. An overlay therefore holds exactly
    the arrays that ``from_arrays`` gives for the edited edge list, and its
    scores are bit-identical to the rebuilt graph's, because float
    accumulation follows the array order. Every public array is read-only:
    ``src`` and ``dst`` are read-only views of the store's own index arrays
    ``_src`` and ``_dst``, which stay writeable because ``take`` and
    ``bincount`` copy a read-only index on every call. Only the engine's
    sweep reads those, and nothing writes them. They are fresh arrays that
    no caller holds or, in an overlay that keeps the edges (``with_node``, a
    weight update), the base store's, passed on with their ``views``.
    """

    __slots__ = ("n", "src", "dst", "w", "indeg", "outdeg", "_src", "_dst")

    def __init__(self, n, src, dst, w, indeg, outdeg, views=None):
        self._src, self._dst = src, dst
        self.src, self.dst = views or (src.view(), dst.view())
        for array in (self.src, self.dst, w, indeg, outdeg):
            array.setflags(write=False)
        self.n, self.w, self.indeg, self.outdeg = n, w, indeg, outdeg

    @classmethod
    def from_arrays(cls, n: int, src, dst, w) -> "FlatEdges":
        """The edges (src[i], dst[i], w[i]) of an n-node graph, sorted once.

        Raises the error that adding them in order with ``Wsn.add_edge`` would
        raise first.
        """
        src, dst, w = np.asarray(src), np.asarray(dst), np.asarray(w, dtype=np.float64)
        if not len(src) == len(dst) == len(w):
            raise ValueError(f"{len(src)} sources, {len(dst)} targets and {len(w)} weights")
        if not len(src):
            src = dst = np.zeros(0, dtype=np.int64)
        fine = src.dtype.kind in "iu" and dst.dtype.kind in "iu"
        if fine:
            src, dst = src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False)
            # as unsigned, a negative id is huge, so one comparison finds every id out of range
            fine = (
                (np.maximum(src.view(np.uint64), dst.view(np.uint64)) < n).all()
                and not (src == dst).any()
                and np.abs(w).max(initial=0.0) <= 1.0  # false for nan
            )
        if fine:
            key = src * n + dst
            order = np.argsort(key, kind="stable")
            key = key[order]
            fine = not (key[1:] == key[:-1]).any()
            del key  # before the sorted copies are made
        if not fine:  # replay add_edge's checks edge by edge to raise its error
            seen = set()
            for edge in zip(src.tolist(), dst.tolist(), w.tolist()):
                u, v, _ = _check_edge(*edge, n)
                if (u, v) in seen:
                    raise ValueError(f"edge ({u}, {v}) already present; use rate")
                seen.add((u, v))
            # every edge passed, so the ids are integers held in another dtype
            return cls.from_arrays(n, src.astype(np.int64), dst.astype(np.int64), w)
        src, dst = src[order], dst[order]
        indeg = np.bincount(dst, minlength=n).astype(np.float64)
        outdeg = np.bincount(src, minlength=n).astype(np.float64)
        return cls(n, src, dst, w[order], indeg, outdeg)

    @classmethod
    def from_graph(cls, graph: Wsn) -> "FlatEdges":
        """The graph's own edge store; nothing is built."""
        return graph.flat()

    def locate(self, u: int, v: int) -> tuple[int, bool]:
        """The edge (u, v)'s position, or where it would be inserted, and whether it is present."""
        lo = int(self.src.searchsorted(u))
        hi = lo + int(self.outdeg[u])
        at = lo + int(self.dst[lo:hi].searchsorted(v))
        return at, at < hi and int(self.dst[at]) == v

    def has_edge(self, u: int, v: int) -> bool:
        return self.locate(u, v)[1]

    def with_node(self) -> "FlatEdges":
        """Overlay with one more node, isolated; src, dst and w, and their views, are shared."""
        indeg, outdeg = np.append(self.indeg, 0.0), np.append(self.outdeg, 0.0)
        views = self.src, self.dst
        return FlatEdges(self.n + 1, self._src, self._dst, self.w, indeg, outdeg, views)

    def with_rating(self, u: int, v: int, weight: float) -> "FlatEdges":
        """Overlay with (u, v) set to ``weight``, inserting the edge if absent."""
        return self.with_ratings(((u, v, weight),))

    def with_ratings(self, edits: Iterable[tuple[int, int, float]]) -> "FlatEdges":
        """Overlay with every (u, v, weight) edit applied; a later edit of one edge wins."""
        n = self.n
        pending: dict[tuple[int, int], float] = {}
        for edit in edits:
            u, v, weight = _check_edge(*edit, n)
            pending[u, v] = weight
        w = self.w
        inserts: list[tuple[int, int, int]] = []  # (position, u, v) of each absent edge
        for u, v in sorted(pending):
            at, present = self.locate(u, v)
            if present:
                if w is self.w:
                    w = w.copy()
                w[at] = pending[u, v]
            else:
                inserts.append((at, u, v))
        if not inserts:
            views = self.src, self.dst
            return FlatEdges(n, self._src, self._dst, w, self.indeg, self.outdeg, views)
        at, new_src, new_dst = zip(*inserts)
        return FlatEdges(
            n,
            splice(self.src, at, new_src),
            splice(self.dst, at, new_dst),
            splice(w, at, [pending[u, v] for _, u, v in inserts]),
            self.indeg + np.bincount(new_dst, minlength=n),
            self.outdeg + np.bincount(new_src, minlength=n),
        )


def overlay_union(flat: FlatEdges, key: np.ndarray, groups: list) -> FlatEdges:
    """The disjoint union of ``flat.with_ratings(group)`` over ``groups``, built at once.

    ``key`` is the store's ascending ``src * n + dst``. Overlay b holds nodes
    b * n to b * n + n - 1, and its arrays are ``with_ratings(group)``'s: the
    store's arrays tiled, each update scattered into the tiled weights, and each
    addition spliced in at its canonical position. A group's edits must be on
    distinct edges, each checked as ``_check_edge`` checks it.
    """
    n, m, count = flat.n, len(key), len(groups)
    edits = np.array([edit for group in groups for edit in group], dtype=np.float64).reshape(-1, 3)
    owner = np.repeat(np.arange(count), [len(group) for group in groups])
    u, v, weight = edits[:, 0].astype(np.int64), edits[:, 1].astype(np.int64), edits[:, 2]
    edit_key = u * n + v
    at = key.searchsorted(edit_key)
    present = key.searchsorted(edit_key, side="right") > at
    w = np.tile(flat.w, count)
    w[owner[present] * m + at[present]] = weight[present]
    shift = np.arange(count) * n
    src, dst = ((ends + shift[:, None]).reshape(-1) for ends in (flat.src, flat.dst))
    indeg, outdeg = np.tile(flat.indeg, count), np.tile(flat.outdeg, count)
    added = np.flatnonzero(~present)
    if len(added):
        added = added[np.lexsort((edit_key[added], owner[added]))]  # canonical order in each group
        owner = owner[added]
        # one np.insert per array and batch: its fixed cost, too high for one value
        # (``splice``), is paid once for all of a batch's additions
        at = owner * m + at[added]
        new = u[added] + shift[owner], v[added] + shift[owner], weight[added]
        src, dst, w = (np.insert(old, at, values) for old, values in zip((src, dst, w), new))
        indeg += np.bincount(new[1], minlength=count * n)
        outdeg += np.bincount(new[0], minlength=count * n)
    return FlatEdges(count * n, src, dst, w, indeg, outdeg)


def splice(array: np.ndarray, at, values) -> np.ndarray:
    """``np.insert(array, at, values)`` for ascending ``at``, in one pass and far cheaper."""
    out = np.empty(len(array) + len(values), dtype=array.dtype)
    cut = i = 0  # old run i moves up by i, and value i lands after it
    for end, value in zip(at, values):
        out[cut + i : end + i] = array[cut:end]
        out[end + i] = value
        cut, i = end, i + 1
    out[cut + i :] = array[cut:]
    return out


#: The edge store of a graph with no nodes; shared, since nothing writes it.
_NO_EDGES = FlatEdges.from_arrays(0, (), (), ())
