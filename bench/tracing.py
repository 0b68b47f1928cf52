"""Spans around the calls into each fga layer, for the traced run only.

``install`` replaces the names that the calling modules bound at import
(``fga.attacks.recompute_flat``, ``fga.campaign.direct_attack``, ...) and two
class attributes (``FlatEdges.from_graph``, ``Wsn.copy``) with wrappers that
record one span per call: name, start, end, parent span, op id and thread,
plus a few facts read off the call's arguments and result (sweeps, residual,
moves, enumerated sets). Spans stay in memory until ``write``.

Nothing in ``src/`` changes; the untraced run never imports this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

from fga import attacks, axioms, bounds, campaign, dataio, engine, gadgets, graph


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: str | None
    thread: int
    phase: str
    chunk: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "op": self.op,
            "thread": self.thread,
            "phase": self.phase,
            "chunk": self.chunk,
            **self.info,
        }


class Tracer:
    """Collects spans while ``phase`` is set; records nothing while it is None.

    The benchmark sets ``phase`` ("setup", "measure") and ``chunk``
    around its own calls.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase: str | None = None
        self.chunk: int | None = None
        self.op: str | None = None
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, describe=None, op_root: bool = False):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``describe(args, kwargs, result)`` returns extra facts for the span.
        An ``op_root`` call starts a new op id on its thread (one campaign
        sample per attack call).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            if op_root or not stack:
                op = f"{self.chunk}.{next(self._ops)}" if op_root else self.op
            else:
                op = stack[-1][1]
            span_id = next(self._ids)
            stack.append((span_id, op))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = describe(args, kwargs, result) if describe else {}
            self.spans.append(
                Span(span_id, parent, name, start, end, op, threading.get_ident(), phase,
                     self.chunk, info)
            )
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), separators=(",", ":")) + "\n")


# -- what each span records ------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _solve_info(warm: bool):
    """Facts for a solve span: sweeps, graph size, and whether it converged."""

    def describe(args, kwargs, result):
        config = _arg(args, kwargs, 2 if warm else 1, "config") or engine.DEFAULT_CONFIG
        subject = args[0] if args else kwargs.get("graph", kwargs.get("flat"))
        if isinstance(subject, engine.FlatEdges):
            n, m = subject.n, len(subject.src)
        else:
            n, m = subject.node_count, subject.edge_count
        return {
            "sweeps": result.iterations_run,
            "n": n,
            "m": m,
            "nonconverged": result.max_residual >= config.residual_tolerance,
        }

    return describe


def _attack_info(args, kwargs, result):
    return {"moves": len(result.moves)}


def _exhaustive_info(args, kwargs, result):
    return {"sets": result.sets_enumerated}


def _suite_info(args, kwargs, result):
    return {"draws": sum(v.samples for v in result), "failures": sum(v.failures for v in result)}


def _bounds_info(args, kwargs, result):
    return {"trials": len(result), "violations": sum(not r.satisfied for r in result)}


def _campaign_info(args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    return {"jobs": config.jobs}


#: Attack algorithms the workloads call; the greedy one scans candidates.
ATTACK_NAMES = ("direct_attack", "indirect_attack_greedy")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross, at the names callers use."""

    def put(owner, attr, name, describe=None, op_root=False):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), describe, op_root))

    put(dataio, "load_rating_csv", "dataio.load_rating_csv")
    put(graph.Wsn, "validate", "graph.Wsn.validate")
    put(graph.Wsn, "copy", "graph.Wsn.copy")

    from_graph = engine.FlatEdges.from_graph.__func__
    engine.FlatEdges.from_graph = classmethod(
        tracer.wrap("engine.FlatEdges.from_graph", from_graph)
    )

    for module in (engine, attacks, campaign, axioms, bounds):
        put(module, "compute_fga", "engine.compute_fga", _solve_info(warm=False))
    for module in (engine, attacks, bounds):
        put(module, "recompute_after", "engine.recompute_after", _solve_info(warm=True))
    for module in (engine, attacks):
        put(module, "recompute_flat", "engine.recompute_flat", _solve_info(warm=True))

    for attack in ATTACK_NAMES:
        put(campaign, attack, f"attacks.{attack}", _attack_info, op_root=True)
        put(attacks, attack, f"attacks.{attack}", _attack_info)
    put(attacks, "solve_exhaustive", "attacks.solve_exhaustive", _exhaustive_info)

    put(campaign, "run_campaign", "campaign.run_campaign", _campaign_info)
    put(campaign, "report", "campaign.report")

    for module in (gadgets, axioms):
        for gadget in ("goodness_star", "fairness_fan"):
            put(module, gadget, f"gadgets.{gadget}")
    put(gadgets, "stabilised_star", "gadgets.stabilised_star")

    put(axioms, "run_axiom_suite", "axioms.run_axiom_suite", _suite_info)
    for harness in ("verify_stabiliser", "verify_indirect_sybil"):
        put(bounds, harness, f"bounds.{harness}", _bounds_info)


# -- per-layer metrics ------------------------------------------------------------

#: Graphs at least this large count for ``engine.sweep_us`` and ``sweep_bytes``.
LARGE_GRAPH_NODES = 1000

#: Computed memory traffic of one sweep of ``engine._iterate_flat``, as
#: 8-byte passes over edge-length and node-length arrays (each read or write
#: of a whole array is one pass; gathers count as one pass). Per sweep:
#: f[src], *w, bincount; g[dst], w-, abs, *0.5, bincount = 20 edge passes;
#: the two divide/where/clip chains and the two residual maxima = 32 node
#: passes. A model from array sizes, not a hardware measurement.
EDGE_PASSES = 20
NODE_PASSES = 32

COLD = "engine.compute_fga"
WARM = ("engine.recompute_after", "engine.recompute_flat")
CANDIDATE = "engine.recompute_flat"
ATTACKS = tuple(f"attacks.{name}" for name in ATTACK_NAMES)
SCANNING = "attacks.indirect_attack_greedy"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


def sweep_bytes(n: int, m: int) -> int:
    return 8 * (EDGE_PASSES * m + NODE_PASSES * n)


def counts(spans: list[Span]) -> dict[str, int]:
    """Exact counts of one fixed piece of work; they repeat for a given seed."""
    solves = [s for s in spans if s.name == COLD or s.name in WARM]
    return {
        "cold_solves": sum(s.name == COLD for s in solves),
        "warm_solves": sum(s.name in WARM for s in solves),
        "sweeps": sum(s.info["sweeps"] for s in solves),
        "nonconverged": sum(s.info["nonconverged"] for s in solves),
        "candidates": sum(s.name == CANDIDATE for s in spans),
        "moves": sum(s.info["moves"] for s in spans if s.name == SCANNING),
        "exhaustive_sets": sum(s.info["sets"] for s in spans if s.name == "attacks.solve_exhaustive"),
    }


def chunk0_counts(spans: list[Span]) -> dict[str, int]:
    """Exact counts of chunk 0 of the measured phase, for the exact-count check."""
    return counts([s for s in spans if s.phase == "measure" and s.chunk == 0])


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Counts cover chunk 0 of the measured phase, a fixed piece of work, so
    they repeat exactly for a given seed. Times are medians over every call
    in the measured phase, in seconds unless the name says otherwise.
    """
    measured = [s for s in spans if s.phase == "measure"]
    window = [s for s in measured if s.chunk == 0]
    by_name: dict[str, list[Span]] = {}
    for span in measured:
        by_name.setdefault(span.name, []).append(span)

    def durations(*names):
        return [s.duration for name in names for s in by_name.get(name, ())]

    def window_count(*names):
        return sum(s.name in names for s in window)

    exact = counts(window)
    solves = exact["cold_solves"] + exact["warm_solves"]
    self_time = _self_times(measured)
    large = [
        s for s in measured
        if (s.name == COLD or s.name in WARM) and s.info["n"] >= LARGE_GRAPH_NODES
        and s.info["sweeps"]
    ]
    large_window = [s for s in large if s.chunk == 0]
    large_sweeps = sum(s.info["sweeps"] for s in large_window)

    gadget_names = ("gadgets.goodness_star", "gadgets.fairness_fan", "gadgets.stabilised_star")
    bound_names = tuple(n for n in by_name if n.startswith("bounds.verify_"))
    suites = [s for s in window if s.name == "axioms.run_axiom_suite"]
    draws = sum(s.info["draws"] for s in suites)
    suite_ids = {s.id for s in suites}
    parent_of = {s.id: s.parent for s in window}

    def under_suite(span: Span) -> bool:
        node = span.parent
        while node is not None:
            if node in suite_ids:
                return True
            node = parent_of.get(node)
        return False

    runs = by_name.get("campaign.run_campaign", [])
    run_ids = {s.id for s in runs}
    attack_busy = sum(s.duration for name in ATTACKS for s in by_name.get(name, ())
                      if s.parent in run_ids)
    capacity = sum(s.info["jobs"] * s.duration for s in runs)
    bound_window = [s for s in window if s.name in bound_names]

    return {
        "graph.copy_calls": window_count("graph.Wsn.copy"),
        "graph.copy_s": _median(durations("graph.Wsn.copy")),
        "engine.flatten_calls": window_count("engine.FlatEdges.from_graph"),
        "engine.flatten_s": _median(durations("engine.FlatEdges.from_graph")),
        "engine.cold_solves": exact["cold_solves"],
        "engine.cold_solve_s": _median(durations(COLD)),
        "engine.warm_solves": exact["warm_solves"],
        "engine.warm_solve_s": _median(durations(*WARM)),
        "engine.sweeps": exact["sweeps"],
        "engine.sweeps_per_solve": exact["sweeps"] / solves if solves else 0.0,
        "engine.sweep_us": _median(self_time[s.id] / s.info["sweeps"] * 1e6 for s in large),
        "engine.sweep_bytes": (
            sum(s.info["sweeps"] * sweep_bytes(s.info["n"], s.info["m"]) for s in large_window)
            / large_sweeps if large_sweeps else 0.0
        ),
        "engine.nonconverged": exact["nonconverged"],
        "attacks.calls": window_count(*ATTACKS),
        "attacks.call_p50_s": _median(durations(*ATTACKS)),
        "attacks.candidates": exact["candidates"],
        "attacks.moves": exact["moves"],
        "attacks.move_yield": exact["moves"] / exact["candidates"] if exact["candidates"] else 0.0,
        "attacks.exhaustive_sets": exact["exhaustive_sets"],
        "attacks.exhaustive_s": _median(durations("attacks.solve_exhaustive")),
        "campaign.run_s": _median(durations("campaign.run_campaign")),
        "campaign.report_s": _median(durations("campaign.report")),
        "campaign.busy_ratio": attack_busy / capacity if capacity else 0.0,
        "gadgets.builds": window_count(*gadget_names),
        "gadgets.build_s": _median(durations(*gadget_names)),
        "axioms.draws": draws,
        "axioms.solves_per_draw": (
            sum(s.name == COLD and under_suite(s) for s in window) / draws if draws else 0.0
        ),
        "axioms.suite_s": _median(durations("axioms.run_axiom_suite")),
        "bounds.trials": sum(s.info["trials"] for s in bound_window),
        "bounds.violations": sum(s.info["violations"] for s in bound_window),
        "bounds.verify_s": _median(durations(*bound_names)),
    }
