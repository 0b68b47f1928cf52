"""Command-line interface.

Exit codes: 0 success, 2 invalid configuration (a path that cannot be
read or written included), 3 insufficient data (missing dataset files or too
few qualifying nodes), 4 structural invariant violation.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

import numpy as np

from . import axioms, bounds, campaign as campaign_mod, dataio, gadgets, generators
from .attacks import (
    ATTACK_CONFIG,
    ATTACKER_CLASSES,
    MAX_EDGES,
    SCALE,
    AttackProblem,
    InstanceTooLargeError,
    InsufficientCandidatesError,
    SelectionCriteria,
    select_attackers,
    select_targets,
    solve_exhaustive,
)
from .dataio import DatasetMissingError
from .engine import DEFAULT_CONFIG, FgaConfig, compute_fga, predict_weight
from .gadgets import GadgetError
from .graph import InvariantViolationError, RatingScale, Wsn

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INVARIANT = 4

#: ``--r-max``'s default for an ``--input`` CSV.
INPUT_R_MAX = 10.0

#: By the flag that selects a mode, each mode's flags (by dest) with their defaults. The
#: stabiliser's stars are fixed, and a direct-Sybil trial rates the target once: no k.
MODE_FLAGS = {
    "--mode": {"direct": {"k": 1}, "indirect": {"k": 1}, "mixed": {"k1": 0, "k2": 0},
               "indirect-scaled": {"k": 1, "scale": SCALE, "max_edges": MAX_EDGES},
               "exhaustive": {"k": 1, "threshold": 0.0}},
    "--scenario": {"indirect-sybil": {"trials": 100, "k": 3, "r_max": None},
                   "direct-sybil": {"trials": 100, "r_max": None}, "stabiliser": {}},
}


#: Each generator spec's parameters and their defaults; an integer default marks a size.
GENERATORS = {
    "erdos": {"n": 80, "deg": 4.0, "pos": 0.9},
    "min-k": {"n": 30, "k": 3},
    "complete": {"n": 5},
    "star": {"k": 2, "l": 5, "fairness": 1.0},
}


def _parse_generate(spec: str, seed: int) -> Wsn:
    """Build a graph from a compact spec like ``erdos:n=80,deg=4,pos=0.9``."""
    kind, _, rest = spec.partition(":")
    defaults = GENERATORS.get(kind)
    if defaults is None:
        raise ValueError(f"unknown generator {kind!r} (use {', '.join(GENERATORS)})")
    params = {}
    for item in rest.split(",") if rest else ():
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in defaults:
            raise ValueError(f"unknown parameter {key!r} for {kind} (use {', '.join(defaults)})")
        if key in params:
            raise ValueError(f"repeated parameter {key!r} for {kind}")
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"bad generator parameter {item!r}") from None
        # a non-finite value is rejected: int(inf) would overflow
        if not np.isfinite(number):
            raise ValueError(f"bad generator parameter {item!r}")
        size = isinstance(defaults[key], int)
        if size and not number.is_integer():
            raise ValueError(f"generator parameter {key!r} must be an integer, got {value.strip()!r}")
        params[key] = int(number) if size else number
    params = {**defaults, **params}
    if kind == "erdos":
        return generators.generate_random_graph(
            params["n"], avg_out_degree=params["deg"], seed=seed, positive_fraction=params["pos"]
        )
    if kind == "min-k":
        return generators.generate_min_k_neighbour(params["n"], params["k"], seed=seed)
    if kind == "complete":
        return generators.generate_complete_positive(params["n"])
    return gadgets.stabilised_star(params["k"], params["l"], params["fairness"])[0]


def _load_graph(args, default: str | None = None) -> Wsn:
    """The graph of the one source flag given, or of the generator spec ``default`` if none is."""
    sources = [bool(args.input), bool(args.dataset), bool(args.generate)]
    if sum(sources) > 1 or not (any(sources) or default):
        raise ValueError("specify exactly one of --input, --dataset, --generate")
    if args.input:
        r_max = INPUT_R_MAX if args.r_max is None else args.r_max
        graph = dataio.load_rating_csv(args.input, RatingScale(r_max))
    elif args.r_max is not None:  # a dataset's scale is in dataio.DATASETS; generators normalize
        raise ValueError("--r-max goes with --input only")
    elif args.dataset:
        graph = dataio.load_dataset(args.dataset, args.data_dir)
    else:
        graph = _parse_generate(args.generate or default, args.seed)
    graph.validate()
    return graph


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="rating CSV (source,target,rating[,timestamp])")
    parser.add_argument("--r-max", type=float, default=None,
                        help=f"raw scale half-width, --input only (default {INPUT_R_MAX:g})")
    parser.add_argument("--dataset", choices=sorted(dataio.DATASETS),
                        help="named dataset under the data directory")
    specs = (kind + ":" + ",".join(f"{key}={value:g}" for key, value in defaults.items())
             for kind, defaults in GENERATORS.items())
    parser.add_argument("--generate",
                        help=f"synthetic graph spec; kinds and defaults: {' '.join(specs)}")


def _add_mode_flags(parser: argparse.ArgumentParser, selector: str, helps: dict) -> None:
    """Add each dest's flag, with the type and help default of ``MODE_FLAGS[selector]``."""
    for dest, text in helps.items():
        default = next(flags[dest] for flags in MODE_FLAGS[selector].values() if dest in flags)
        parser.add_argument("--" + dest.replace("_", "-"), type=type(default),
                            help=f"{text} (default {default:g})")


def _emit(args, payload: dict | str) -> None:
    """Write ``payload`` (text, or a dict as JSON) to ``--out`` or stdout."""
    if isinstance(payload, dict):
        payload = dataio.json_text(payload)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _cmd_compute(args) -> int:
    graph = _load_graph(args)
    scores = compute_fga(graph, FgaConfig(args.max_iterations, args.tolerance))
    text = io.StringIO()
    dataio.export_scores_csv(graph, scores, text)
    _emit(args, text.getvalue())
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


def _mode_flags(args, selector: str) -> None:
    """Reject each flag of ``MODE_FLAGS[selector]`` that is set but not read by the selected
    mode, then fill in the defaults of the flags that it reads."""
    modes = MODE_FLAGS[selector]
    mode = getattr(args, selector[2:])
    extra = dict.fromkeys("--" + d.replace("_", "-") for flags in modes.values() for d in flags
                          if d not in modes[mode] and getattr(args, d) is not None)
    if extra:
        raise ValueError(f"{selector} {mode} takes no {' or '.join(extra)}")
    vars(args).update({d: v for d, v in modes[mode].items() if getattr(args, d) is None})


def _cmd_attack(args) -> int:
    _mode_flags(args, "--mode")
    needed = args.k1 + args.k2 if args.mode == "mixed" else args.k
    if needed < 1:  # a run with no attackers moves nothing, so it shows nothing
        counts = f"--k1 {args.k1} --k2 {args.k2}" if args.mode == "mixed" else f"--k {args.k}"
        raise ValueError(f"--mode {args.mode} needs at least one attacker, got {counts}")
    graph = _load_graph(args)
    scores = compute_fga(graph, ATTACK_CONFIG)
    criteria = SelectionCriteria()
    rng = np.random.default_rng([args.seed, 1])
    target = (select_targets(graph, scores, criteria, 1, rng)[0] if args.target is None
              else graph.id_of(args.target))
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
        delta = outcome.delta
        payload["exhausted"] = outcome.exhausted
        if outcome.delta_direct is None:
            payload.update({
                "delta_goodness": delta,
                "goodness_before": float(outcome.scores_before.goodness[target]),
                "goodness_after": float(outcome.scores_after.goodness[target]),
            })
        else:
            payload.update({
                "delta_direct": outcome.delta_direct,
                "delta_indirect": delta - outcome.delta_direct,
                "delta_total": delta,
            })
    payload["moves"] = [{"kind": m.kind, "attacker": graph.label_of(m.attacker),
                         "rated": graph.label_of(m.rated), "weight": m.weight} for m in moves]
    _emit(args, payload)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    _mode_flags(args, "--scenario")
    if args.scenario == "stabiliser":
        if args.input or args.dataset or args.generate:
            raise ValueError("--scenario stabiliser builds its own stars; it takes no graph")
        reports = bounds.verify_stabiliser()
    elif args.scenario == "direct-sybil":
        reports = bounds.verify_direct_sybil(_load_graph(args), args.trials, args.seed)
    else:
        graph = _load_graph(args, default=f"min-k:k={args.k}")
        reports = bounds.verify_indirect_sybil(graph, args.k, args.trials, args.seed)
    rows = [(f"{r.bound_value:.12g}", f"{r.observed_delta:.12g}", str(r.satisfied),
             ";".join(f"{k}={v}" for k, v in sorted(r.context.items()))) for r in reports]
    text = io.StringIO()
    dataio.write_csv(text, [("bound_value", "observed_delta", "satisfied", "context"), *rows])
    _emit(args, text.getvalue())
    return EXIT_OK if all(r.satisfied for r in reports) else EXIT_INVARIANT


def _cmd_campaign(args) -> int:
    if not args.out_dir:
        raise ValueError("campaign needs --out-dir")
    fields = {"mode": args.mode, "seed": args.seed, "attacker_class": args.attacker_class,
              "cold": args.cold, "jobs": args.jobs, "generator": args.generate}
    if args.samples is not None:
        fields["samples"] = args.samples
    if args.k_values is not None:
        try:
            ks = tuple(int(x) for x in args.k_values.split(","))
        except ValueError:
            raise ValueError(f"--k-values must be integers, got {args.k_values!r}") from None
        fields.update(k_values=ks, k1_values=ks, k2_values=ks)
    config = (campaign_mod.ExperimentConfig.for_dataset(args.dataset, **fields) if args.dataset
              else campaign_mod.ExperimentConfig(**fields))
    graph = _load_graph(args)
    # made after the source loads, so a failed load leaves none, and before any sample runs
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    result = campaign_mod.run_campaign(graph, config)
    written = campaign_mod.report(result, args.out_dir, fmt=args.format)
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute fairness/goodness scores")
    _add_graph_source(p)
    p.add_argument("--max-iterations", type=int, default=DEFAULT_CONFIG.max_iterations)
    p.add_argument("--tolerance", type=float, default=DEFAULT_CONFIG.residual_tolerance)
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
    _add_mode_flags(p, "--mode", {
        "k": "attackers (exhaustive: budget), not mixed", "k1": "direct attackers, mixed only",
        "k2": "indirect attackers, mixed only", "scale": "batch scale, indirect-scaled only",
        "max_edges": "batch cap, indirect-scaled only",
        "threshold": "goal threshold, exhaustive only",
    })
    p.add_argument("--attacker-class", choices=ATTACKER_CLASSES, default="established")
    p.add_argument("--target", help="target node label (sampled if omitted)")
    p.add_argument("--out", help="results JSON path (stdout if omitted)")
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("bounds", help="empirical verification of the attack bounds")
    _add_graph_source(p)
    p.add_argument("--scenario", required=True,
                   choices=["direct-sybil", "indirect-sybil", "stabiliser"])
    _add_mode_flags(p, "--scenario", {"k": "k of indirect-sybil's minimum-k-neighbour graph",
                                      "trials": "fake-rater trials, Sybil scenarios only"})
    p.add_argument("--out", help="CSV path (stdout if omitted)")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("campaign", help="run a simulation campaign")
    _add_graph_source(p)
    p.add_argument("--mode", required=True, choices=list(campaign_mod.MODES))
    p.add_argument("--k-values", help="comma-separated attacker counts, e.g. 1,2,3")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--attacker-class", choices=ATTACKER_CLASSES, default="established")
    p.add_argument("--cold", action="store_true", help="verify deltas with cold recomputation")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", default=None, help="output directory (required)")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="records.csv, summary.csv and config.json, or one campaign.json")
    p.set_defaults(handler=_cmd_campaign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # numpy seeds no stream from a negative seed
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        return args.handler(args)
    except (DatasetMissingError, InsufficientCandidatesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError, GadgetError, InstanceTooLargeError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
