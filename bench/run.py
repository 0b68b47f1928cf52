"""fga benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --seed 1                    # every workload, tracing off
    python3 bench/run.py --workload otc-greedy --seed 1 --trace 1

Each workload runs in fresh interpreters (bench/workload.py): one that sets
up, measures for ``--seconds`` and checks its outputs, with untraced ones
that only set up before and after it, for the median ``setup_s``.
``--trace 1`` adds a traced run of the same workload, plus a second traced
interpreter that reruns its first chunk for the exact-count check, and
reports per-layer metrics and the tracing overhead instead of the
end-to-end metrics. The last line of standard output is one JSON object;
results with run metadata are written under ``.bench_out/results``.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("otc-greedy", "otc-direct", "tiny-suite")
#: Set-up-only interpreters started before and again after the measuring
#: one; spreading them over the run samples more of the machine's drift.
SETUP_ONLY_RUNS = 5
#: Wall-clock budget of one workload, set-up, traced run and checks included.
WORKLOAD_BUDGET_S = 175.0
#: Measured seconds per run: ``run_seconds`` of BENCHMARK.json by default.
#: A traced run measures twice (untraced and traced), so longer runs would
#: not fit in WORKLOAD_BUDGET_S.
DEFAULT_SECONDS = 25
MAX_SECONDS = 45
#: Hash seeds of the two traced interpreters, so that the exact-count check
#: compares runs that differ in hash order.
HASH_SEEDS = ("1", "2")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "fail_ratio": "ratio", "peak_rss_mb": "MB"}

LAYERS = {
    "dataio.load_s": "s",
    "dataio.rows": "count",
    "graph.validate_s": "s",
    "graph.copy_calls": "count",
    "graph.copy_s": "s",
    "engine.flatten_calls": "count",
    "engine.flatten_s": "s",
    "engine.cold_solves": "count",
    "engine.cold_solve_s": "s",
    "engine.warm_solves": "count",
    "engine.warm_solve_s": "s",
    "engine.sweeps": "count",
    "engine.sweeps_per_solve": "sweeps/solve",
    "engine.sweep_us": "us",
    "engine.sweep_bytes": "B/sweep-computed",
    "engine.nonconverged": "count",
    "attacks.calls": "count",
    "attacks.call_p50_s": "s",
    "attacks.candidates": "count",
    "attacks.moves": "count",
    "attacks.move_yield": "moves/candidate",
    "attacks.exhaustive_sets": "count",
    "attacks.exhaustive_s": "s",
    "campaign.run_s": "s",
    "campaign.report_s": "s",
    "campaign.busy_ratio": "ratio",
    "gadgets.builds": "count",
    "gadgets.build_s": "s",
    "axioms.draws": "count",
    "axioms.solves_per_draw": "solves/draw",
    "axioms.suite_s": "s",
    "bounds.trials": "count",
    "bounds.violations": "count",
    "bounds.verify_s": "s",
    "trace.overhead": "ratio",
}


class WorkloadError(RuntimeError):
    """A workload interpreter failed or ran out of time."""


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="fga benchmark", formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (inputs derive from it)")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help=f"measured seconds per run, 1 to {MAX_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics and tracing overhead")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be from 1 to {MAX_SECONDS}")
    return args


# -- run metadata ----------------------------------------------------------------


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def run_metadata(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "src_lines": _src_lines(),
        "seed": seed,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- workload interpreters ---------------------------------------------------------


def _spawn(args: list[str], result: Path, deadline: float, hash_seed: str | None = None) -> dict:
    """Run bench/workload.py in a fresh interpreter; return its result plus spawn time."""
    result.unlink(missing_ok=True)
    env = None if hash_seed is None else {**os.environ, "PYTHONHASHSEED": hash_seed}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workload.py"), *args, "--result", str(result)],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"workload interpreter ran past the budget: {args}") from None
    if proc.returncode != 0:
        raise WorkloadError(f"workload interpreter exited with {proc.returncode}: {args}")
    data = json.loads(result.read_text(encoding="utf-8"))
    data["setup_s"] = data["setup_done"] - spawned
    return data


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    tmp = OUT / "tmp" / f"{name}-seed{seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    csv = None
    if name.startswith("otc-"):
        import inputs

        csv = inputs.write_otc_csv(OUT / "inputs" / f"otc-seed{seed}.csv", seed)
        common += ["--input", str(csv.path), "--work-dir", str(tmp / "reports")]
    result_file = tmp / "result.json"

    def setup_only():
        return [
            _spawn(common + ["--phase", "setup", "--trace", "0"], result_file, deadline)
            for _ in range(SETUP_ONLY_RUNS)
        ]

    setups = setup_only()
    plain = _spawn(common + ["--trace", "0"], result_file, deadline)
    traced = rerun = None
    spans_file = None
    if trace:
        spans_file = OUT / "results" / f"{name}-seed{seed}-spans.jsonl"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        traced = _spawn(common + ["--trace", "1", "--spans", str(spans_file)], result_file,
                        deadline, HASH_SEEDS[0])
        rerun = _spawn(common + ["--trace", "1", "--phase", "rerun"], result_file, deadline,
                       HASH_SEEDS[1])
    setups += setup_only()
    result_file.unlink(missing_ok=True)
    tmp.rmdir()

    input_ok = True
    if csv is not None:
        loaded = plain["loaded"]
        input_ok = loaded["edges"] == csv.edges and loaded["rating_sum"] == csv.rating_sum
    counted = traced or plain
    failed = counted["failed"] + (0 if input_ok else 1)
    summary = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "metadata": run_metadata(seed),
        "calibration_ms": plain["calibration_ms"],
        "input": csv.to_dict() if csv else None,
        "input_ok": input_ok,
        "attempted": counted["ops"],
        "failed": failed,
        "checks": counted["checks"],
        "setup_runs_s": [r["setup_s"] for r in setups + [plain]],
        "end_to_end": {
            "setup_s": statistics.median([r["setup_s"] for r in setups + [plain]]),
            "ops_per_s": plain["ops_per_s"],
            "fail_ratio": plain["failed"] / plain["ops"],
            "peak_rss_mb": plain["peak_rss_kb"] / 1024.0,
        },
        "measured": {
            key: plain[key]
            for key in ("ops", "failed", "busy_s", "chunks", "chunk_s", "chunk_cpu_s", "chunk_steal_s")
        },
    }
    correct = failed == 0 and plain["failed"] == 0
    if traced is not None:
        layers = dict(traced["layers"])
        setup_spans = [r["setup_spans"] for r in (traced, rerun)]
        layers["dataio.load_s"] = statistics.median(
            [d for spans in setup_spans for d in spans["dataio.load_rating_csv"]] or [0.0]
        )
        layers["graph.validate_s"] = statistics.median(
            [d for spans in setup_spans for d in spans["graph.Wsn.validate"]] or [0.0]
        )
        layers["dataio.rows"] = csv.rows if csv else 0
        layers["trace.overhead"] = traced["ops_per_s"] / plain["ops_per_s"]
        summary["layers"] = {key: layers[key] for key in LAYERS}
        summary["exact_counts"] = {
            "chunk0": traced["chunk0_counts"],
            "rerun": rerun["chunk0_counts"],
            "match": traced["chunk0_counts"] == rerun["chunk0_counts"],
        }
        summary["traced"] = {key: traced[key] for key in ("ops", "failed", "busy_s", "chunks")}
        summary["spans_file"] = str(spans_file.relative_to(ROOT))
        correct = correct and summary["exact_counts"]["match"]
    summary["correct"] = correct
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    summary["result_file"] = str(path.relative_to(ROOT))
    return summary


# -- reporting -------------------------------------------------------------------


def _listed_layers() -> list[str]:
    """Per-layer metrics named in BENCHMARK.json, else all of them."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return [entry["name"] for entry in spec["per_layer"]]
    except (OSError, ValueError, KeyError):
        return list(LAYERS)


def _print_summary(summary: dict) -> None:
    out = sys.stdout
    mode = "traced" if summary["trace"] else "tracing off"
    out.write(f"== {summary['workload']}  seed {summary['metadata']['seed']}  ({mode}, "
              f"{summary['seconds']} s measured per run)\n")
    m = summary["measured"]
    e2e = summary["end_to_end"]
    out.write(f"  {'setup_s':26} {e2e['setup_s']:14.6f} s       median of {len(summary['setup_runs_s'])} fresh interpreters\n")
    out.write(f"  {'ops_per_s':26} {e2e['ops_per_s']:14.6f} 1/s     {m['ops']} ops in {m['busy_s']:.3f} s, {m['chunks']} chunks\n")
    out.write(f"  {'fail_ratio':26} {e2e['fail_ratio']:14.6f} ratio   {m['failed']} of {m['ops']} failed\n")
    out.write(f"  {'peak_rss_mb':26} {e2e['peak_rss_mb']:14.3f} MB\n")
    before, after = summary["calibration_ms"]
    out.write(f"  calibration kernel {before:.3f} ms before, {after:.3f} ms after the measured phase\n")
    if "layers" in summary:
        for key, value in summary["layers"].items():
            out.write(f"  {key:26} {value:14.6g} {LAYERS[key]}\n")
        t = summary["traced"]
        out.write(f"  traced run: {t['ops']} ops in {t['busy_s']:.3f} s, {t['failed']} failed\n")
        exact = summary["exact_counts"]
        verdict = "identical" if exact["match"] else "DIFFER"
        out.write(f"  exact counts, chunk 0 vs rerun in a fresh interpreter: {verdict} "
                  f"{exact['chunk0']}\n")
    out.write(f"  correct: {summary['correct']}  ({summary['result_file']})\n")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "fga" / "__init__.py").is_file():
        print(f"error: no fga sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            _print_summary(summaries[-1])
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def metrics_of(summary: dict) -> dict:
        if args.trace:
            return {k: _metric(summary["layers"][k], LAYERS[k]) for k in _listed_layers()}
        return {k: _metric(summary["end_to_end"][k], END_TO_END[k])
                for k in ("setup_s", "ops_per_s", "peak_rss_mb")}

    if len(summaries) == 1:
        metrics = metrics_of(summaries[0])
    else:
        metrics = {f"{s['workload']}/{k}": v for s in summaries for k, v in metrics_of(s).items()}
    line = {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
