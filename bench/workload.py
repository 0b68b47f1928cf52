"""Run one benchmark workload in this (fresh) interpreter and write its result.

Started by run.py, once per setup sample and once per measured run:

    python3 bench/workload.py --workload otc-greedy --seed 1 --seconds 25 \
        --trace 0 --phase full --input .bench_out/inputs/otc-seed1.csv \
        --result .bench_out/tmp/result.json

Set-up (``import fga`` and, on the otc workloads, loading and validating the
rating CSV) ends at the ``setup_done`` timestamp, read on the system-wide
monotonic clock so run.py can subtract its own spawn time. ``--phase setup``
stops there. ``--phase full`` then measures chunks of ops until their summed
time reaches ``--seconds``, and checks the outputs after the clock stops.
``--phase rerun`` (traced only) runs chunk 0 once and reports its exact
counts, which run.py compares with those of the measured traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

OTC_WORKLOADS = ("otc-greedy", "otc-direct")
WORKLOADS = OTC_WORKLOADS + ("tiny-suite",)

#: Campaign chunk per workload: the paper's indirect k=3 cell and its direct
#: sweep k=1..7, both run serially. With jobs=2 on two vCPUs, the pool threads
#: share the interpreter lock and stall together whenever the host steals
#: either vCPU: otc-direct then ran slower than serial and five seeds spread
#: 0.37 against the 0.25 bound. A greedy sample's cost grows
#: with its target's in-degree (0.4-3 s over in-degrees 1-9), so otc-greedy
#: targets nodes with a single rater: a 25 s run then holds about 30 samples
#: of similar cost (0.6-1.2 s) instead of about 12 of widely varying cost.
#: otc-direct keeps the default target rule (in-degree below 10).
CAMPAIGNS = {
    "otc-greedy": {
        "mode": "indirect", "k_values": (3,), "samples": 1, "jobs": 1, "target_max_indeg": 2,
    },
    "otc-direct": {
        "mode": "direct", "k_values": (1, 2, 3, 4, 5, 6, 7), "samples": 2, "jobs": 1,
        "target_max_indeg": 10,
    },
}

#: One tiny-suite round, in fixed proportions: draws per axiom, fake-rater
#: trials on a min-k graph (n=30, k=3); plus the 60-cell stabiliser grid and
#: the oracle instances of ``inputs.ORACLE_SHAPES``.
AXIOM_DRAWS = 20
SYBIL_TRIALS = 60
SYBIL_K = 3

#: Re-measured deltas and oracle objectives must agree this closely.
CHECK_TOLERANCE = 1e-9
#: Goodness the oracle instances try to push their target to, as in criterion 8.
ORACLE_THRESHOLD = 0.0


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "full", "rerun"), default="full")
    parser.add_argument("--input", help="rating CSV of the otc workloads")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--work-dir", help="scratch directory for campaign reports")
    parser.add_argument("--spans", help="where the traced run writes its spans (JSON lines)")
    args = parser.parse_args(argv)
    if args.phase == "rerun" and not args.trace:
        parser.error("--phase rerun needs --trace 1")
    return args


def calibration_ms() -> float:
    """Median time of a fixed numpy kernel shaped like one otc sweep, times 20.

    A diagnostic of machine speed recorded next to every result; no metric
    is divided by it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    src = rng.integers(0, 6000, size=36000)
    w = rng.random(36000)
    f = rng.random(6000)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(20):
            np.bincount(src, weights=f[src] * w, minlength=6000)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _steal_s() -> float:
    """Seconds the hypervisor ran other guests on this machine's CPUs (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Measurement:
    """Chunks of ops timed back to back; only the chunks themselves are timed."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.busy_s = 0.0
        self.chunks = 0
        self.ops = 0
        self.failed = 0
        self.chunk_s: list[float] = []  # diagnostics: time of each chunk
        self.chunk_cpu_s: list[float] = []
        self.chunk_steal_s: list[float] = []

    def run(self, workload, seconds: float) -> None:
        while self.busy_s < seconds:
            self.step(workload)

    def step(self, workload) -> None:
        """Prepare and time the next chunk."""
        prepared = workload.prepare(self.chunks)
        self._enter("measure")
        steal = _steal_s()
        cpu = time.process_time()
        start = time.perf_counter()
        ops, failed = workload.run_chunk(self.chunks, prepared)
        elapsed = time.perf_counter() - start
        self.chunk_cpu_s.append(time.process_time() - cpu)
        self.chunk_steal_s.append(_steal_s() - steal)
        self._leave()
        self.busy_s += elapsed
        self.chunk_s.append(elapsed)
        self.ops += ops
        self.failed += failed
        self.chunks += 1

    def _enter(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.chunk = self.chunks

    def _leave(self) -> None:
        if self.tracer is not None:
            self.tracer.phase = None


# -- otc workloads -------------------------------------------------------------


class OtcCampaign:
    """Chunk i is one seeded ``run_campaign`` plus ``report``; one op is one sample."""

    def __init__(self, name: str, graph, seed: int, work_dir: Path, tracer) -> None:
        from fga import attacks, campaign

        self.attacks, self.campaign = attacks, campaign
        self.spec = CAMPAIGNS[name]
        self.graph = graph
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.first = None  # chunk 0's CampaignResult, kept for the checks

    def config(self, index: int, jobs: int):
        return self.campaign.ExperimentConfig(
            mode=self.spec["mode"],
            k_values=self.spec["k_values"],
            samples=self.spec["samples"],
            criteria=self.attacks.SelectionCriteria(target_max_indeg=self.spec["target_max_indeg"]),
            seed=self.seed * 100_003 + index,
            jobs=jobs,
        )

    def prepare(self, index: int):
        return self.config(index, self.spec["jobs"])

    def run_chunk(self, index: int, config) -> tuple[int, int]:
        result = self.campaign.run_campaign(self.graph, config)
        self.campaign.report(result, self.work_dir / ("chunk0" if index == 0 else "chunk"))
        if index == 0:
            self.first = result
        return len(result.records) + len(result.errors), len(result.errors)

    def check(self) -> dict:
        """Serial rerun of chunk 0 must give byte-identical reports; replayed
        samples must match a cold recomputation on ``graph_after``."""
        from fga import attacks, engine

        rerun = self.campaign.run_campaign(self.graph, self.config(0, jobs=1))
        self.campaign.report(rerun, self.work_dir / "rerun0")
        identical = all(
            (self.work_dir / "chunk0" / name).read_bytes()
            == (self.work_dir / "rerun0" / name).read_bytes()
            for name in ("records.csv", "summary.csv")
        )

        base = engine.compute_fga(self.graph, attacks.ATTACK_CONFIG)
        replayed, mismatched = 0, []
        seen_cells = set()
        for record in self.first.records:
            if record["cell"] in seen_cells:
                continue  # replay the first sample of every cell
            seen_cells.add(record["cell"])
            target = self.graph.id_of(record["target"])
            attackers = [self.graph.id_of(label) for label in record["attackers"]]
            if self.spec["mode"] == "direct":
                outcome = attacks.direct_attack(self.graph, attackers, target, attacks.ATTACK_CONFIG)
            else:
                outcome = attacks.indirect_attack_greedy(
                    self.graph, attackers, target, attacks.ATTACK_CONFIG
                )
            cold = engine.compute_fga(outcome.graph_after, attacks.ATTACK_CONFIG)
            delta = float(cold.goodness[target] - base.goodness[target])
            moves_ok = record.get("moves", len(outcome.moves)) == len(outcome.moves)
            replayed += 1
            if abs(delta - record["delta"]) > CHECK_TOLERANCE or not moves_ok:
                mismatched.append((record["cell"], record["sample"]))

        chunk0_ops = len(self.first.records) + len(self.first.errors)
        failed = chunk0_ops if not identical else len(mismatched)
        return {
            "reports_identical": identical,
            "replayed_samples": replayed,
            "replay_mismatches": mismatched,
            "failed": failed,
        }


# -- tiny suite ----------------------------------------------------------------


class TinySuite:
    """Round i: axiom suite, two bound harnesses, and oracle instances.

    One op is one check: an axiom draw, a bound trial, or an oracle instance.
    """

    def __init__(self, seed: int, tracer) -> None:
        from fga import attacks, axioms, bounds

        self.attacks, self.axioms, self.bounds = attacks, axioms, bounds
        self.seed = seed
        self.tracer = tracer
        self.verdicts = []  # AxiomVerdict of every suite run
        self.reports = []  # BoundReport of every harness trial
        self.oracle_runs = []  # (instance, greedy final goodness, ExhaustiveSearchResult)

    def prepare(self, index: int):
        import inputs

        return inputs.min_k_graph(self.seed, index), inputs.oracle_instances(self.seed, index)

    def _op(self, index: int, name: str) -> None:
        if self.tracer is not None:
            self.tracer.op = f"{index}.{name}"

    def run_chunk(self, index: int, prepared) -> tuple[int, int]:
        min_k, instances = prepared
        self._op(index, "axioms")
        verdicts = self.axioms.run_axiom_suite(samples=AXIOM_DRAWS, seed=self.seed * 1000 + index)
        self._op(index, "stabiliser")
        reports = self.bounds.verify_stabiliser()
        self._op(index, "indirect-sybil")
        reports = reports + self.bounds.verify_indirect_sybil(
            min_k, k=SYBIL_K, trials=SYBIL_TRIALS, seed=index
        )
        for number, inst in enumerate(instances):
            self._op(index, f"oracle{number}")
            greedy = self.attacks.indirect_attack_greedy(inst.graph, inst.attackers, inst.target)
            problem = self.attacks.AttackProblem(
                graph=inst.graph,
                attackers=inst.attackers,
                intermediaries=tuple(v for v in inst.graph.nodes() if v != inst.target),
                budget=inst.budget,
                threshold=ORACLE_THRESHOLD,
                direction="decrease",
                targets=(inst.target,),
            )
            result = self.attacks.solve_exhaustive(problem, weight_grid=(-1.0, 1.0))
            self.oracle_runs.append((inst, float(greedy.scores_after.goodness[inst.target]), result))
        self.verdicts.extend(verdicts)
        self.reports.extend(reports)
        return sum(v.samples for v in verdicts) + len(reports) + len(instances), 0

    def check(self) -> dict:
        """Every axiom draw holds at 1e-9, every bound report is satisfied, and
        every oracle objective is at most greedy + 1e-9 and matches a cold
        recomputation of its own move set."""
        from fga import engine

        axiom_failures = sum(v.failures for v in self.verdicts)
        bound_violations = sum(not r.satisfied for r in self.reports)
        bad_oracle = 0
        for inst, greedy_final, result in self.oracle_runs:
            confirm = inst.graph.copy()
            for move in result.moves:
                confirm.rate(move.attacker, move.rated, move.weight)
            confirmed = float(engine.compute_fga(confirm, engine.HIGH_PRECISION).goodness[inst.target])
            if (
                result.objective_value > greedy_final + CHECK_TOLERANCE
                or abs(confirmed - result.objective_value) > CHECK_TOLERANCE
                or result.feasible != (confirmed <= ORACLE_THRESHOLD + 1e-12)
            ):
                bad_oracle += 1
        return {
            "axiom_draw_failures": axiom_failures,
            "bound_violations": bound_violations,
            "oracle_instances": len(self.oracle_runs),
            "oracle_failures": bad_oracle,
            "failed": axiom_failures + bound_violations + bad_oracle,
        }


# -- main ----------------------------------------------------------------------


def _peak_rss_kb() -> int:
    """Peak resident memory of this process, or of a waited-for child if higher.

    ``ru_maxrss`` of this process would also count the starting process's
    memory at spawn, which Linux carries across exec; ``VmHWM`` covers only
    this program.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration, ValueError):
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def main(argv=None) -> int:
    args = _parse_args(argv)
    otc = args.workload in OTC_WORKLOADS
    tracer = None

    # -- set-up: everything up to setup_done counts towards setup_s --------
    import fga  # noqa: F401

    if otc:
        from fga import campaign, dataio  # noqa: F401
    else:
        from fga import axioms  # noqa: F401
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.phase = "setup"
    graph = None
    if otc:
        from fga.graph import RatingScale

        graph = dataio.load_rating_csv(args.input, RatingScale(10.0))
        graph.validate()
    setup_done = time.monotonic()
    if tracer is not None:
        tracer.phase = None

    result: dict = {"workload": args.workload, "seed": args.seed, "setup_done": setup_done}
    if tracer is not None:
        result["setup_spans"] = {
            name: [s.duration for s in tracer.spans if s.name == name]
            for name in ("dataio.load_rating_csv", "graph.Wsn.validate")
        }
    if args.phase == "setup":
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    # -- inputs and checks of the input (not timed) ------------------------
    import inputs

    if otc:
        result["loaded"] = {
            "nodes": graph.node_count,
            "edges": graph.edge_count,
            "rating_sum": inputs.loaded_rating_sum(graph),
        }
        work_dir = Path(args.work_dir)
        shutil.rmtree(work_dir, ignore_errors=True)
        workload = OtcCampaign(args.workload, graph, args.seed, work_dir, tracer)
    else:
        workload = TinySuite(args.seed, tracer)

    if args.phase == "rerun":
        Measurement(tracer).step(workload)
        result["chunk0_counts"] = tracing.chunk0_counts(tracer.spans)
        if otc:
            shutil.rmtree(work_dir, ignore_errors=True)
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    # -- measured phase ------------------------------------------------------
    calibration_before = calibration_ms()
    measurement = Measurement(tracer)
    measurement.run(workload, args.seconds)
    calibration_after = calibration_ms()

    # -- output checks (not timed) -------------------------------------------
    checks = workload.check()
    failed = min(measurement.ops, measurement.failed + checks["failed"])
    result.update(
        {
            "ops": measurement.ops,
            "failed": failed,
            "chunks": measurement.chunks,
            "chunk_s": measurement.chunk_s,
            "chunk_cpu_s": measurement.chunk_cpu_s,
            "chunk_steal_s": measurement.chunk_steal_s,
            "busy_s": measurement.busy_s,
            "ops_per_s": measurement.ops / measurement.busy_s,
            "peak_rss_kb": _peak_rss_kb(),
            "calibration_ms": [calibration_before, calibration_after],
            "checks": checks,
        }
    )
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["chunk0_counts"] = tracing.chunk0_counts(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    if otc:
        shutil.rmtree(work_dir, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
