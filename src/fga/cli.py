"""Command-line interface.

Exit codes: 0 success, 2 invalid configuration (a path that cannot be
read or written included), 3 insufficient data (missing dataset files or too
few qualifying nodes), 4 structural invariant violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import axioms, bounds, campaign as campaign_mod, dataio, gadgets, generators
from .attacks import (
    ATTACK_CONFIG,
    AttackProblem,
    InstanceTooLargeError,
    InsufficientCandidatesError,
    SelectionCriteria,
    select_attackers,
    select_targets,
    solve_exhaustive,
)
from .dataio import DatasetMissingError
from .engine import FgaConfig, compute_fga, export_scores_csv, predict_weight
from .gadgets import GadgetError
from .graph import InvariantViolationError, RatingScale, Wsn

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4

#: ``fga bounds`` defaults of the Sybil scenarios.
BOUNDS_TRIALS = 100
BOUNDS_K = 3

#: The count and tuning flags that each ``fga attack`` mode reads, and their defaults.
ATTACK_FLAGS = {"direct": ("--k",), "indirect": ("--k",), "mixed": ("--k1", "--k2"),
                "indirect-scaled": ("--k", "--scale", "--max-edges"),
                "exhaustive": ("--k", "--threshold")}
ATTACK_DEFAULTS = {"k": 1, "k1": 0, "k2": 0, "scale": 5, "max_edges": 10, "threshold": 0.0}


#: The parameters of each generator spec, and whether each must be an integer.
_GENERATOR_PARAMS = {
    "erdos": {"n": True, "deg": False, "pos": False},
    "min-k": {"n": True, "k": True},
    "complete": {"n": True},
    "star": {"k": True, "l": True, "fairness": False},
}


def _parse_generate(spec: str, seed: int) -> Wsn:
    """Build a graph from a compact spec like ``erdos:n=80,deg=4,pos=0.9``."""
    kind, _, rest = spec.partition(":")
    known = _GENERATOR_PARAMS.get(kind)
    if known is None:
        raise ValueError(f"unknown generator {kind!r} (use {', '.join(_GENERATOR_PARAMS)})")
    params: dict[str, float] = {}
    for item in rest.split(",") if rest else ():
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in known:
            raise ValueError(f"unknown parameter {key!r} for {kind} (use {', '.join(known)})")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"bad generator parameter {item!r}") from None
        # a non-finite value is rejected: int(inf) would overflow
        if not np.isfinite(number):
            raise ValueError(f"bad generator parameter {item!r}")
        if known[key] and not number.is_integer():
            raise ValueError(f"generator parameter {key!r} must be an integer, got {value.strip()!r}")
        params[key] = number
    if kind == "erdos":
        return generators.generate_random_graph(
            int(params.get("n", 80)),
            avg_out_degree=params.get("deg", 4.0),
            seed=seed,
            positive_fraction=params.get("pos", 0.9),
        )
    if kind == "min-k":
        return generators.generate_min_k_neighbour(
            int(params.get("n", 30)), int(params.get("k", 3)), seed=seed
        )
    if kind == "complete":
        return generators.generate_complete_positive(int(params.get("n", 5)))
    graph, _, _, _ = gadgets.stabilised_star(
        int(params.get("k", 2)), int(params.get("l", 5)),
        influencer_fairness=params.get("fairness", 1.0),
    )
    return graph


def _load_graph(args) -> Wsn:
    sources = [bool(getattr(args, "input", None)), bool(getattr(args, "dataset", None)),
               bool(getattr(args, "generate", None))]
    if sum(sources) != 1:
        raise ValueError("specify exactly one of --input, --dataset, --generate")
    if args.input:
        graph = dataio.load_rating_csv(args.input, RatingScale(args.r_max))
    elif args.dataset:
        graph = dataio.load_dataset(args.dataset, args.data_dir)
    else:
        graph = _parse_generate(args.generate, args.seed)
    graph.validate()
    return graph


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="rating CSV (source,target,rating[,timestamp])")
    parser.add_argument("--r-max", type=float, default=10.0,
                        help="raw scale half-width for --input (default 10)")
    parser.add_argument("--dataset", choices=sorted(dataio.DATASETS),
                        help="named dataset under the data directory")
    parser.add_argument("--generate", help="synthetic graph spec, e.g. erdos:n=80,deg=4")


def _emit(args, payload: dict | str) -> None:
    """Write ``payload`` (text, or a dict as JSON) to ``--out`` or stdout."""
    if isinstance(payload, dict):
        payload = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _cmd_compute(args) -> int:
    graph = _load_graph(args)
    scores = compute_fga(graph, FgaConfig(args.max_iterations, args.tolerance))
    export_scores_csv(graph, scores, args.out or sys.stdout)
    print(
        f"# nodes={graph.node_count} edges={graph.edge_count} "
        f"iterations={scores.iterations_run} max_residual={scores.max_residual:.3g}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_predict(args) -> int:
    graph = _load_graph(args)
    scores = compute_fga(graph)
    u = graph.id_of(args.source)
    v = graph.id_of(args.target)
    _emit(args, {
        "source": args.source,
        "target": args.target,
        "predicted_weight": predict_weight(scores, u, v),
        "source_fairness": float(scores.fairness[u]),
        "target_goodness": float(scores.goodness[v]),
    })
    return EXIT_OK


def _cmd_stats(args) -> int:
    graph = _load_graph(args)
    scores = compute_fga(graph)
    _emit(args, dataio.compute_stats(graph, scores).to_dict())
    return EXIT_OK


def _cmd_axioms(args) -> int:
    verdicts = axioms.run_axiom_suite(samples=args.samples, seed=args.seed)
    _emit(args, {
        "samples": args.samples,
        "seed": args.seed,
        "axioms": [v.to_dict() for v in verdicts],
        "all_passed": all(v.passed for v in verdicts),
    })
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_INVARIANT


def _pick_target(args, graph, scores, criteria, rng):
    if args.target is not None:
        return graph.id_of(args.target)
    return select_targets(graph, scores, criteria, 1, rng)[0]


def _move_rows(graph, moves) -> list[dict]:
    return [
        {"kind": m.kind, "attacker": graph.label_of(m.attacker),
         "rated": graph.label_of(m.rated), "weight": m.weight}
        for m in moves
    ]


def _reject_flags(what: str, takes, given: dict) -> None:
    """Raise ValueError naming each flag of ``given`` that is set but not in ``takes``."""
    extra = [flag for flag, value in given.items() if value is not None and flag not in takes]
    if extra:
        raise ValueError(f"{what} takes no {' or '.join(extra)}")


def _cmd_attack(args) -> int:
    given = {"--" + dest.replace("_", "-"): getattr(args, dest) for dest in ATTACK_DEFAULTS}
    _reject_flags(f"--mode {args.mode}", ATTACK_FLAGS[args.mode], given)
    vars(args).update({d: v for d, v in ATTACK_DEFAULTS.items() if getattr(args, d) is None})
    needed = args.k1 + args.k2 if args.mode == "mixed" else args.k
    if needed < 1:  # a run with no attackers moves nothing, so it shows nothing
        counts = f"--k1 {args.k1} --k2 {args.k2}" if args.mode == "mixed" else f"--k {args.k}"
        raise ValueError(f"--mode {args.mode} needs at least one attacker, got {counts}")
    graph = _load_graph(args)
    scores = compute_fga(graph, ATTACK_CONFIG)
    criteria = SelectionCriteria()
    rng = np.random.default_rng([args.seed, 1])
    target = _pick_target(args, graph, scores, criteria, rng)
    attackers = select_attackers(
        graph, scores, criteria, needed, rng,
        attacker_class=args.attacker_class, exclude={target},
    )
    payload: dict = {
        "mode": args.mode,
        "seed": args.seed,
        "target": graph.label_of(target),
        "attackers": [graph.label_of(a) for a in attackers],
    }
    if args.mode == "exhaustive":  # over direct+indirect single-target moves
        intermediaries = tuple(v for v in graph.nodes() if v != target and v not in set(attackers))
        problem = AttackProblem(
            graph=graph,
            attackers=tuple(attackers),
            intermediaries=intermediaries,
            budget=args.k,
            threshold=args.threshold,
            direction="decrease",
            targets=(target,),
        )
        result = solve_exhaustive(problem)
        moves = result.moves
        payload.update({
            "feasible": result.feasible,
            "objective_value": result.objective_value,
            "sets_enumerated": result.sets_enumerated,
        })
    else:
        outcome = campaign_mod.run_attack(
            args.mode, graph, attackers, target,
            k1=args.k1, scale=args.scale, max_edges=args.max_edges, before=scores,
        )
        moves = outcome.moves
        delta = outcome.delta_goodness[target]
        if outcome.delta_direct is None:
            payload.update({
                "delta_goodness": delta,
                "goodness_before": float(outcome.scores_before.goodness[target]),
                "goodness_after": float(outcome.scores_after.goodness[target]),
                "exhausted": outcome.exhausted,
            })
        else:
            payload.update({
                "delta_direct": outcome.delta_direct,
                "delta_indirect": delta - outcome.delta_direct,
                "delta_total": delta,
            })
    payload["moves"] = _move_rows(graph, moves)
    _emit(args, payload)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    # the stabiliser's grid of stars is fixed: it draws nothing and takes no trial count or k;
    # a direct-Sybil trial rates the target once and takes no k
    takes = {"direct-sybil": ("--trials",), "indirect-sybil": ("--trials", "--k"),
             "stabiliser": ()}[args.scenario]
    _reject_flags(f"--scenario {args.scenario}", takes, {"--trials": args.trials, "--k": args.k})
    if args.scenario != "stabiliser":
        args.trials = BOUNDS_TRIALS if args.trials is None else args.trials
    if args.scenario == "indirect-sybil":
        args.k = BOUNDS_K if args.k is None else args.k
    if args.scenario == "indirect-sybil" and not (args.input or args.dataset or args.generate):
        args.generate = f"min-k:n=30,k={args.k}"
    # the stabiliser builds its own stars and rejects a graph (exit 2)
    graph = _load_graph(args) if args.input or args.dataset or args.generate else None
    reports = bounds.verify_bound_empirically(
        args.scenario, graph=graph, trials=args.trials, seed=args.seed, k=args.k
    )
    lines = ["bound_value,observed_delta,satisfied,context"]
    for r in reports:
        context = ";".join(f"{k}={v}" for k, v in sorted(r.context.items()))
        lines.append(f"{r.bound_value:.12g},{r.observed_delta:.12g},{r.satisfied},{context}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all(r.satisfied for r in reports) else EXIT_INVARIANT


def _cmd_campaign(args) -> int:
    out_dir = args.out_dir or args.global_out_dir
    if not out_dir:
        raise ValueError("campaign needs --out-dir (per command or global)")
    fmt = args.format or args.global_format or "csv"
    if args.dataset:
        config = campaign_mod.ExperimentConfig.for_dataset(
            args.dataset, mode=args.mode, seed=args.seed,
            attacker_class=args.attacker_class, cold=args.cold, jobs=args.jobs,
        )
    else:
        config = campaign_mod.ExperimentConfig(
            mode=args.mode, attacker_class=args.attacker_class, seed=args.seed,
            cold=args.cold, jobs=args.jobs, generator=args.generate,
        )
    overrides: dict = {}
    if args.samples is not None:
        overrides["samples"] = args.samples
    if args.k_values:
        ks = tuple(int(x) for x in args.k_values.split(","))
        overrides.update(k_values=ks, k1_values=ks, k2_values=ks)
    # replace() re-runs the config's validation on the overridden fields
    config = dataclasses.replace(config, **overrides)
    # a bad output path fails here, before the graph loads or any sample runs
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    graph = _load_graph(args)
    result = campaign_mod.run_campaign(graph, config)
    written = campaign_mod.report(result, out_dir, fmt=fmt)
    for path in written:
        print(path)
    if not result.records and result.errors:
        print("no cell produced a sample; see errors in output", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fga",
        description="Fairness/goodness scoring for weighted signed networks, with attack tooling",
    )
    parser.add_argument("--seed", type=int, default=0, help="global random seed")
    parser.add_argument("--data-dir", default=None, help=f"dataset directory (or {dataio.DATA_DIR_ENV})")
    parser.add_argument("--out-dir", dest="global_out_dir", default=None,
                        help="default output directory for commands that write files")
    parser.add_argument("--format", dest="global_format", choices=["csv", "json"], default=None,
                        help="default output format where applicable")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute fairness/goodness scores")
    _add_graph_source(p)
    p.add_argument("--max-iterations", type=int, default=100)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--out", help="scores CSV path (stdout if omitted)")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("predict", help="predict the weight of a missing edge")
    _add_graph_source(p)
    p.add_argument("--source", required=True, help="source node label")
    p.add_argument("--target", required=True, help="target node label")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("stats", help="dataset statistics")
    _add_graph_source(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("axioms", help="run the executable property suite")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_axioms)

    p = sub.add_parser("attack", help="run one attack")
    _add_graph_source(p)
    p.add_argument("--mode", required=True, choices=[*campaign_mod.MODES, "exhaustive"])
    p.add_argument("--k", type=int, help="attackers (exhaustive: budget), not mixed (default 1)")
    p.add_argument("--k1", type=int, help="direct attackers, mixed only (default 0)")
    p.add_argument("--k2", type=int, help="indirect attackers, mixed only (default 0)")
    p.add_argument("--scale", type=int, help="batch scale, indirect-scaled only (default 5)")
    p.add_argument("--max-edges", type=int, help="batch cap, indirect-scaled only (default 10)")
    p.add_argument("--threshold", type=float, help="goal threshold, exhaustive only (default 0)")
    p.add_argument("--attacker-class", choices=["established", "fresh"], default="established")
    p.add_argument("--target", help="target node label (sampled if omitted)")
    p.add_argument("--out", help="results JSON path (stdout if omitted)")
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("bounds", help="empirical verification of the attack bounds")
    _add_graph_source(p)
    p.add_argument("--scenario", required=True,
                   choices=["direct-sybil", "indirect-sybil", "stabiliser"])
    p.add_argument("--k", type=int, default=None,
                   help=f"k of indirect-sybil's minimum-k-neighbour graph (default {BOUNDS_K})")
    p.add_argument("--trials", type=int, default=None,
                   help=f"fake-rater trials, Sybil scenarios only (default {BOUNDS_TRIALS})")
    p.add_argument("--out", help="CSV path (stdout if omitted)")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("campaign", help="run a simulation campaign")
    _add_graph_source(p)
    p.add_argument("--mode", required=True, choices=list(campaign_mod.MODES))
    p.add_argument("--k-values", help="comma-separated attacker counts, e.g. 1,2,3")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--attacker-class", choices=["established", "fresh"], default="established")
    p.add_argument("--cold", action="store_true", help="verify deltas with cold recomputation")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", default=None, help="output directory (or the global --out-dir)")
    p.add_argument("--format", choices=["csv", "json"], default=None)
    p.set_defaults(handler=_cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DatasetMissingError, InsufficientCandidatesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, GadgetError, InstanceTooLargeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
